import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glyphsdf import field, geometry, glyphs
from glyphsdf.errors import GeometryError

from helpers import (
    RING_PATH, box_sdf, dense_sweep_nearest, edt_sdf_oracle, l_glyph, outlines,
    ring_glyph, sdf_batch, square_glyph, winding_batch, winding_number,
)


# quadratics and a cubic: the curve distance and the bisection-based winding
BLOB_PATH = "M 0 0 Q 0.5 0.9 1 0.1 C 1.4 -0.3 0.9 -0.9 0.5 -0.7 Q 0.1 -0.5 0 0 Z"


def nearest(p, seg):
    """(distance, t) of one point through the batched nearest-point search."""
    d, t = geometry.nearest_on_segment(p, seg)
    return float(d[0]), float(t[0])


class TestSegmentDistance:
    def test_perpendicular_foot(self):
        seg = glyphs.Segment([[0, 0], [1, 0]])
        d, t = nearest((0.5, 1.0), seg)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert t == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_clamp(self):
        seg = glyphs.Segment([[0, 0], [1, 0]])
        d, t = nearest((2.0, 0.0), seg)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert t == 1.0

    def test_quadratic_vs_dense_sweep(self):
        ctrl = [[0, 0], [0.5, 1], [1, 0]]
        seg = glyphs.Segment(ctrl)
        d, t = nearest((0.5, 0.6), seg)
        d_ref, t_ref = dense_sweep_nearest(ctrl, (0.5, 0.6))
        assert d == pytest.approx(d_ref, abs=1e-6)

    def test_many_random_points_vs_sweep(self):
        rng = np.random.default_rng(7)
        curves = [
            [[0, 0], [0.5, 1], [1, 0]],
            [[0, 0], [0.1, 0.9], [0.9, 0.8], [1, -0.2]],
            [[-0.5, 0.2], [0.3, -1.2], [0.8, 1.5], [0.2, 0.4]],
        ]
        for ctrl in curves:
            seg = glyphs.Segment(ctrl)
            for p in rng.uniform(-1.2, 1.2, size=(12, 2)):
                d, _ = nearest(p, seg)
                d_ref, _ = dense_sweep_nearest(ctrl, p)
                assert d == pytest.approx(d_ref, abs=1e-6)

    def test_symmetric_tie_returns_smaller_t(self):
        # point above the apex of a symmetric quadratic: two equidistant
        # nearest points; the smaller parameter wins
        seg = glyphs.Segment([[0, 0], [0.5, 1], [1, 0]])
        _, t = nearest((0.5, 2.0), seg)
        assert t <= 0.5 + 1e-9


class TestGlyphSdf:
    def test_square_center(self):
        g = glyphs.Glyph(glyphs.parse_path("M 0 0 L 1 0 L 1 1 L 0 1 Z"))
        assert sdf_batch((0.5, 0.5), g)[0] == pytest.approx(0.5, abs=1e-12)

    def test_square_outside(self):
        g = glyphs.Glyph(glyphs.parse_path("M 0 0 L 1 0 L 1 1 L 0 1 Z"))
        assert sdf_batch((0.5, -0.25), g)[0] == pytest.approx(-0.25, abs=1e-12)

    def test_point_in_ring_hole_is_negative(self):
        g = ring_glyph()
        val = sdf_batch((0.0, 0.0), g)[0]
        assert val < 0
        # |value| equals distance to inner contour (the hole boundary)
        inner = min(
            nearest((0.0, 0.0), s)[0]
            for s in g.contours[1].segments
        )
        assert -val == pytest.approx(inner, abs=1e-9)

    def test_normalized_square_matches_box_formula(self):
        g = square_glyph()
        pts = np.random.default_rng(3).uniform(-1, 1, size=(500, 2))
        ours = sdf_batch(pts, g)
        ref = box_sdf(pts, 0.85)
        assert np.max(np.abs(ours - ref)) < 1e-9

    def test_empty_glyph(self):
        g = glyphs.Glyph([])
        assert sdf_batch((0.0, 0.0), g)[0] == -np.inf


class TestSdfOracles:
    """Signed distance vs a 2048^2 fill + distance-transform oracle."""

    WIDTH = 2048

    def _compare(self, glyph, holes=None):
        oracle = edt_sdf_oracle(glyph, self.WIDTH, holes=holes)
        ours = geometry.sdf_grid(glyph, self.WIDTH)
        return np.max(np.abs(ours - oracle))

    def test_square(self):
        assert self._compare(square_glyph()) <= 2.0 / self.WIDTH

    def test_l_polygon(self):
        assert self._compare(l_glyph()) <= 2.0 / self.WIDTH

    def test_ring_with_hole(self):
        assert self._compare(ring_glyph(), holes=[1]) <= 2.0 / self.WIDTH

    def test_curved_blob(self):
        g = glyphs.glyph_from_path(BLOB_PATH)
        width = 1024
        oracle = edt_sdf_oracle(g, width)
        ours = geometry.sdf_grid(g, width)
        assert np.max(np.abs(ours - oracle)) <= 2.0 / width


class TestExactGrid:
    """The SDF grid and the ground-truth raster equal the per-point route
    byte for byte; 16 px puts pixel-center rows on outline vertices."""

    WIDTHS = st.sampled_from([16, 24, 40, 64, 96])

    @given(outlines(), WIDTHS)
    @settings(max_examples=40, deadline=None)
    def test_sdf_grid_equals_per_point_reference(self, glyph, width):
        centers = geometry.pixel_centers(width).reshape(-1, 2)
        ref = sdf_batch(centers, glyph).reshape(width, width)
        assert geometry.sdf_grid(glyph, width).tobytes() == ref.tobytes()

    @given(outlines(), WIDTHS, st.floats(0.5, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_rasterize_equals_kernel_of_reference(self, glyph, width, aa_k):
        gamma = aa_k / width
        centers = geometry.pixel_centers(width).reshape(-1, 2)
        ref = field.kernel(sdf_batch(centers, glyph), gamma).reshape(width, width)
        assert field.rasterize_ground_truth(glyph, width, gamma).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("band", [None, 4 / 200], ids=["exact", "band"])
    @pytest.mark.parametrize("path", [BLOB_PATH, RING_PATH], ids=["blob", "ring"])
    def test_many_tiles_equal_per_point_reference(self, path, band):
        # 200 px is 13 tiles a side, the last 8 px wide; at margin 0.01 the
        # outline runs through those partial edge tiles, which several
        # culling ranks then take
        glyph = glyphs.glyph_from_path(path, margin=0.01)
        ref = sdf_batch(geometry.pixel_centers(200).reshape(-1, 2), glyph)
        if band is not None:
            ref = np.clip(ref, -band, band)
        assert geometry.sdf_grid(glyph, 200, band).tobytes() == ref.reshape(200, 200).tobytes()

    @given(outlines(), WIDTHS)
    @settings(max_examples=40, deadline=None)
    def test_scanline_winding_equals_winding_batch(self, glyph, width):
        centers = geometry.pixel_centers(width)
        w = geometry._winding_grid(
            geometry.monotone_pieces(glyph), centers[0, :, 0], centers[:, 0, 1]
        )
        assert np.array_equal(w.reshape(-1), winding_batch(centers.reshape(-1, 2), glyph))


def winding(p, glyph):
    """Winding number of one point by the scanline rule on a 1x1 grid (the
    corner ink-side probe), checked against the per-point reference."""
    x, y = np.array([p[0]], float), np.array([p[1]], float)
    w = int(geometry._winding_grid(geometry.monotone_pieces(glyph), x, y)[0, 0])
    assert w == winding_number(p, glyph)
    return w


class TestWinding:
    def test_square_inside_outside(self):
        g = square_glyph()
        assert winding((0.0, 0.0), g) == 1
        assert winding((0.99, 0.99), g) == 0

    def test_ring(self):
        g = ring_glyph()
        assert winding((0.0, 0.0), g) == 0       # in the hole
        assert winding((0.0, -0.6), g) != 0      # in the ring
        assert winding((0.0, -0.95), g) == 0     # outside

    def test_horizontal_edge_on_query_height(self):
        # query exactly at a horizontal edge's height, outside the shape
        g = glyphs.Glyph(glyphs.parse_path("M 0 0 L 1 0 L 1 1 L 0 1 Z"))
        assert winding((-0.5, 0.0), g) == 0
        assert winding((-0.5, 1.0), g) == 0
        assert winding((0.5, 0.5), g) == 1

    def test_vertex_on_query_height(self):
        # diamond: ray through the left/right vertices
        g = glyphs.Glyph(glyphs.parse_path("M 0 -1 L 1 0 L 0 1 L -1 0 Z"))
        assert winding((0.0, 0.0), g) == 1
        assert winding((-2.0, 0.0), g) == 0
        assert winding((2.0, 0.0), g) == 0


class TestProperties:
    def test_lipschitz(self):
        g = l_glyph()
        rng = np.random.default_rng(11)
        p = rng.uniform(-1, 1, size=(10_000, 2))
        h = rng.normal(scale=0.02, size=(10_000, 2))
        s1 = sdf_batch(p, g)
        s2 = sdf_batch(p + h, g)
        hn = np.sqrt(np.sum(h * h, axis=1))
        assert np.all(np.abs(s2 - s1) <= hn + 1e-9)

    def test_sign_flip_across_boundary(self):
        g = square_glyph()
        eps = 1e-3
        # points on the right edge (outward normal +x), away from corners
        for y in np.linspace(-0.6, 0.6, 7):
            q = np.array([0.85, y])
            n = np.array([1.0, 0.0])
            assert sdf_batch(q + eps * n, g)[0] < 0
            assert sdf_batch(q - eps * n, g)[0] > 0

    def test_corner_count_rotation_invariant(self):
        base = l_glyph()
        n_base = len(geometry.detect_corners(base))
        for angle in (0.3, 1.1, 2.0):
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            contours = [
                glyphs.Contour(
                    [glyphs.Segment(seg.points @ rot.T) for seg in contour.segments]
                )
                for contour in base.contours
            ]
            rotated = glyphs.Glyph(contours)
            assert len(geometry.detect_corners(rotated)) == n_base

    def test_corner_count_cyclic_shift_invariant(self):
        base = l_glyph()
        n_base = len(geometry.detect_corners(base))
        segs = base.contours[0].segments
        for shift in range(1, len(segs)):
            shifted = glyphs.Glyph([glyphs.Contour(segs[shift:] + segs[:shift])])
            assert len(geometry.detect_corners(shifted)) == n_base


class TestCorners:
    def test_square_four_right_angles(self):
        corners = geometry.detect_corners(square_glyph())
        assert len(corners) == 4
        for c in corners:
            assert c.interior_angle == pytest.approx(math.pi / 2, abs=1e-12)
            assert c.convex
            assert np.linalg.norm(c.tangent_in) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(c.tangent_out) == pytest.approx(1.0, abs=1e-9)

    def test_collinear_join_is_not_a_corner(self):
        g = glyphs.Glyph(
            glyphs.parse_path("M 0 0 L 0.5 0 L 1 0 L 1 1 L 0 1 Z")
        )
        corners = geometry.detect_corners(g)
        positions = {tuple(np.round(c.position, 6)) for c in corners}
        assert (0.5, 0.0) not in positions
        assert len(corners) == 4

    def _wedge(self, angle):
        # boundary rays from the origin at 0 and `angle` radians, so the
        # junction's interior angle is exactly `angle`
        a = np.array([math.cos(angle), math.sin(angle)])
        path = f"M {a[0]} {a[1]} L 0 0 L 1 0 L 1 -2 L {a[0]} -2 Z"
        return glyphs.Glyph(glyphs.parse_path(path))

    def test_threshold_straddle(self):
        sharp = geometry.detect_corners(self._wedge(2.95), threshold=3.0)
        blunt = geometry.detect_corners(self._wedge(3.05), threshold=3.0)
        sharp_at_origin = [c for c in sharp if np.allclose(c.position, 0, atol=1e-9)]
        blunt_at_origin = [c for c in blunt if np.allclose(c.position, 0, atol=1e-9)]
        assert len(sharp_at_origin) == 1
        assert sharp_at_origin[0].interior_angle == pytest.approx(2.95, abs=1e-9)
        assert len(blunt_at_origin) == 0

    def test_l_polygon_has_one_concave_corner(self):
        corners = geometry.detect_corners(l_glyph())
        assert len(corners) == 6
        concave = [c for c in corners if not c.convex]
        assert len(concave) == 1

    def test_ring_hole_corners_are_concave(self):
        corners = geometry.detect_corners(ring_glyph())
        inner = [c for c in corners if c.contour_index == 1]
        assert len(inner) == 4
        assert all(not c.convex for c in inner)
        outer = [c for c in corners if c.contour_index == 0]
        assert all(c.convex for c in outer)

    def test_clockwise_outer_contour_still_convex(self):
        # same square traversed clockwise: ink on the right of travel
        g = glyphs.normalize(
            glyphs.Glyph(glyphs.parse_path("M 0 0 L 0 1 L 1 1 L 1 0 Z"))
        )
        corners = geometry.detect_corners(g)
        assert len(corners) == 4
        assert all(c.convex for c in corners)

    def test_degenerate_tangent_raises(self):
        # cubic whose last two control points coincide: zero end tangent
        path = "M 0 0 C 0 1 1 1 1 1 L 1 1 L 1 0 Z"
        g = glyphs.Glyph(glyphs.parse_path("M 0 0 L 1 0 L 1 1 Z"))
        seg = glyphs.Segment([[0, 0], [0, 0], [1, 1], [1, 1]])
        bad = glyphs.Glyph(
            [glyphs.Contour([seg, glyphs.Segment([[1, 1], [1, 0]]),
                             glyphs.Segment([[1, 0], [0, 0]])])]
        )
        with pytest.raises(GeometryError, match="zero-length tangent"):
            geometry.detect_corners(bad)

    def test_threshold_validation(self):
        with pytest.raises(GeometryError):
            geometry.detect_corners(square_glyph(), threshold=4.0)
