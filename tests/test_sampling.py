import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from glyphsdf import field, geometry, glyphs, sampling, templates, training
from glyphsdf.errors import ConfigError, GeometryError

from helpers import (
    assert_same_sample_sets, box_sdf, outlines, reference_capped_view,
    reference_sample_glyph, square_glyph,
)


def build_inputs(glyph, width=64, gamma=4 / 64):
    sdf = geometry.sdf_grid(glyph, width)
    image = field.kernel(sdf, gamma)
    tpls = templates.build_templates(glyph, width)
    return image, sdf, tpls


class TestSampleGlyph:
    def test_empty_glyph_only_outside_homogeneous(self):
        g = glyphs.Glyph([])
        width = 32
        sdf = np.full((width, width), -np.inf)
        image = np.zeros((width, width))
        s = sampling.sample_glyph(g, image, sdf, [], 4 / width)
        assert len(s) == sampling.SampleConfig().min_homogeneous
        assert np.all(s.kinds == sampling.KIND_HOMOGENEOUS)
        assert np.all(s.targets == 0.0)

    def test_aa_pixel_neighborhood_included(self):
        g = square_glyph()
        image, sdf, tpls = build_inputs(g)
        s = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64)
        aa = np.argwhere((image > 0) & (image < 1))
        # pick an anti-alias pixel away from the border and check all nine
        # neighbors are edge samples
        i, j = next((i, j) for i, j in aa if 1 <= i <= 62 and 1 <= j <= 62)
        positions = {tuple(p) for p in s.positions[s.kinds == sampling.KIND_EDGE]}
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                x = (j + dj + 0.5) / 64 * 2 - 1
                y = (i + di + 0.5) / 64 * 2 - 1
                assert (x, y) in positions

    def test_edge_count_matches_enumeration_oracle(self):
        g = square_glyph()
        width, gamma = 64, 4 / 64
        image, sdf, tpls = build_inputs(g, width, gamma)
        s = sampling.sample_glyph(g, image, sdf, tpls, gamma)
        # oracle: pixels with |analytic sdf| < gamma, dilated by 3x3
        centers = geometry.pixel_centers(width).reshape(-1, 2)
        band = (np.abs(box_sdf(centers, 0.85)) < gamma).reshape(width, width)
        dil = np.zeros_like(band)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                shifted = np.zeros_like(band)
                src = band[
                    max(0, -di) : width - max(0, di), max(0, -dj) : width - max(0, dj)
                ]
                shifted[
                    max(0, di) : width - max(0, -di), max(0, dj) : width - max(0, -dj)
                ] = src
                dil |= shifted
        assert int(np.sum(s.kinds == sampling.KIND_EDGE)) == int(dil.sum())

    def test_homogeneous_targets_binary_and_split(self):
        g = square_glyph()
        image, sdf, tpls = build_inputs(g)
        cfg = sampling.SampleConfig(rho=0.25, min_homogeneous=64, seed=5)
        s = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64, cfg)
        homog = s.kinds == sampling.KIND_HOMOGENEOUS
        assert homog.any()
        assert set(np.unique(s.targets[homog])) <= {0.0, 1.0}
        n_edge = int(np.sum(s.kinds == sampling.KIND_EDGE))
        expected = max(round(0.25 * n_edge), 64)
        assert int(homog.sum()) == expected
        n_in = int(np.sum(s.targets[homog] == 1.0))
        assert n_in == expected // 2

    def test_corner_rows_reference_all_window_points(self):
        g = square_glyph()
        image, sdf, tpls = build_inputs(g)
        s = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64)
        assert len(s.template_rows) == len(tpls)
        for tpl, rows in zip(tpls, s.template_rows):
            assert len(rows) == len(tpl.points)
            assert np.allclose(s.positions[rows], tpl.points, atol=1e-12)

    def test_positions_unique(self):
        g = square_glyph()
        image, sdf, tpls = build_inputs(g)
        s = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64)
        seen = {tuple(p) for p in s.positions}
        assert len(seen) == len(s)

    def test_kind_priority_edge_over_corner(self):
        # corner windows overlap the anti-alias band, so some window points
        # must already be edge samples; they stay edge-kind but remain
        # referenced by the template rows
        g = square_glyph()
        image, sdf, tpls = build_inputs(g)
        s = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64)
        kinds_at_windows = np.concatenate([s.kinds[r] for r in s.template_rows])
        assert (kinds_at_windows == sampling.KIND_EDGE).any()

    def test_deterministic_given_seed(self):
        g = square_glyph()
        image, sdf, tpls = build_inputs(g)
        cfg = sampling.SampleConfig(seed=123)
        a = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64, cfg)
        b = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64, cfg)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.kinds, b.kinds)
        c = sampling.sample_glyph(
            g, image, sdf, tpls, 4 / 64, sampling.SampleConfig(seed=124)
        )
        assert not np.array_equal(a.positions, c.positions)

    def test_blank_raster_with_nonempty_glyph_rejected(self):
        g = square_glyph()
        width = 32
        sdf = geometry.sdf_grid(g, width)
        image = (sdf > 0).astype(float)  # no strictly-interior values
        with pytest.raises(ConfigError, match="gamma"):
            sampling.sample_glyph(g, image, sdf, [], 1e-9)

    def test_neighborhoods_bracket_the_boundary(self):
        # the anti-alias band is aa_k = 4 pixels wide, so a 3x3 window can
        # only straddle the 0.5 level from the central half of the band;
        # there the bracketing must be near-universal, and every band
        # neighborhood must at least show monotone variation
        g = square_glyph()
        width, gamma = 64, 4 / 64
        image, sdf, tpls = build_inputs(g, width, gamma)
        aa = np.argwhere((image > 0) & (image < 1))
        central = straddle = nonconst = 0
        for i, j in aa:
            block = image[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
            nonconst += block.max() > block.min()
            if 0.25 <= image[i, j] <= 0.75:
                central += 1
                straddle += block.min() <= 0.5 <= block.max()
        assert nonconst == len(aa)
        assert central > 0
        assert straddle / central >= 0.95

    def test_edge_targets_read_from_raster(self):
        g = square_glyph()
        image, sdf, tpls = build_inputs(g)
        s = sampling.sample_glyph(g, image, sdf, tpls, 4 / 64)
        edge = s.kinds == sampling.KIND_EDGE
        # map positions back to pixel indices and compare against the raster
        j = np.round((s.positions[edge, 0] + 1) / 2 * 64 - 0.5).astype(int)
        i = np.round((s.positions[edge, 1] + 1) / 2 * 64 - 0.5).astype(int)
        assert np.array_equal(s.targets[edge], image[i, j])


class TestAgainstDictReference:
    """The row-grid build and the keep-mask cap equal the dict-keyed build
    and the unique/sort cap in every byte, dtype and shape."""

    @settings(max_examples=100, deadline=None)
    @given(
        glyph=outlines(),
        width=st.integers(8, 40),
        aa_k=st.sampled_from([0.5, 2.0, 4.0, 12.0]),
        rho=st.sampled_from([0.0, 0.25, 3.0]),
        seed=st.integers(0, 2**32 - 1),
        cap=st.none() | st.integers(0, 600),
    )
    def test_sample_set_and_capped_view(self, glyph, width, aa_k, rho, seed, cap):
        try:
            tpls = templates.build_templates(glyph, width)
        except GeometryError:
            assume(False)
        sdf = geometry.sdf_grid(glyph, width)
        gamma = aa_k / width
        image = field.kernel(sdf, gamma)
        cfg = sampling.SampleConfig(rho=rho, min_homogeneous=16, seed=seed)
        try:
            want = reference_sample_glyph(glyph, image, sdf, tpls, gamma, cfg)
        except ConfigError:
            with pytest.raises(ConfigError):
                sampling.sample_glyph(glyph, image, sdf, tpls, gamma, cfg)
            return
        got = sampling.sample_glyph(glyph, image, sdf, tpls, gamma, cfg)
        assert_same_sample_sets(got, want)
        if cap is not None:
            assert_same_sample_sets(
                training._capped_view(got, cap, np.random.default_rng(seed)),
                reference_capped_view(want, cap, np.random.default_rng(seed)),
            )

    def test_empty_glyph(self):
        sdf = np.full((16, 16), -np.inf)
        args = (glyphs.Glyph([]), np.zeros((16, 16)), sdf, [], 0.25)
        assert_same_sample_sets(sampling.sample_glyph(*args), reference_sample_glyph(*args))
