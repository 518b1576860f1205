import itertools
import json
import math

import numpy as np
import pytest

from glyphsdf import field, geometry, templates
from glyphsdf.geometry import Corner

from helpers import l_glyph, sdf_batch, square_glyph


def make_corner(position=(0.0, 0.0), tangent_in=(0.0, -1.0), tangent_out=(1.0, 0.0),
                convex=True):
    """Right-angle corner; the defaults put the boundary rays along +y/+x
    with the ink filling the first quadrant (convex)."""
    u = np.asarray(tangent_in, dtype=float)
    v = np.asarray(tangent_out, dtype=float)
    interior = math.acos(float(np.clip(-(u @ v), -1, 1)))
    return Corner(
        position=np.asarray(position, dtype=float),
        tangent_in=u,
        tangent_out=v,
        interior_angle=interior,
        convex=convex,
    )


class TestBuildTemplate:
    def test_window_size_rule(self):
        assert templates.template_window_size(128) == 7
        assert templates.template_window_size(64) == 5
        assert templates.template_window_size(32) == 5
        assert templates.template_window_size(256) == 15

    def test_quadrant_counts_axis_aligned(self):
        # 7x7 window at width 128; boundaries along +x/+y; ">=0 is positive"
        tpl = templates.build_template(make_corner(), 128)
        assert len(tpl.points) == 7 * 7
        counts = {q: int(np.sum(tpl.quadrant == q)) for q in (1, 2, 3, 4)}
        # independent enumeration: h1 = x - cx, h2 = y - cy over the window
        ref = {1: 0, 2: 0, 3: 0, 4: 0}
        for i, j in tpl.pixel_ij:
            x = (j + 0.5) / 128 * 2 - 1
            y = (i + 0.5) / 128 * 2 - 1
            pos1, pos2 = x >= 0, y >= 0
            ref[1 if pos1 and pos2 else 2 if pos1 else 3 if pos2 else 4] += 1
        assert counts == ref == {1: 16, 2: 12, 3: 12, 4: 9}

    def test_halfplane_target_channel(self):
        # corner centered on a pixel center so a y=0 row exists in the window
        c = (64.5) / 64 - 1.0
        tpl = templates.build_template(make_corner(position=(c, c)), 128)
        gamma = 4 / 128
        t = tpl.targets(gamma)
        y_rel = tpl.points[:, 1] - c
        assert np.all(t[np.abs(y_rel) < 1e-12, 1] == 0.5)
        assert np.all(t[y_rel >= gamma - 1e-15, 1] == 1.0)
        assert np.all(t[y_rel <= -gamma + 1e-15, 1] == 0.0)

    def test_concave_corner_q2_q3_composed_is_one(self):
        # concave: ink is the union of the half-planes, so both mixed
        # quadrants compose to full opacity away from the band
        tpl = templates.build_template(make_corner(convex=False), 128)
        gamma = 4 / 128
        composed = tpl.composed_target(gamma)
        mask = tpl.supervised_mask()
        # union composition saturates where the positive half-plane is deep
        far = np.max(tpl.halfplane, axis=1) >= gamma
        sel = mask & far
        assert sel.any()
        assert np.all(composed[sel] == 1.0)

    def test_convex_corner_q2_q3_composed_is_zero(self):
        tpl = templates.build_template(make_corner(convex=True), 128)
        gamma = 4 / 128
        composed = tpl.composed_target(gamma)
        # intersection composition vanishes where the negative side is deep
        sel = tpl.supervised_mask() & (np.min(tpl.halfplane, axis=1) <= -gamma)
        assert sel.any()
        assert np.all(composed[sel] == 0.0)

    def test_clipped_window_near_domain_edge(self):
        tpl = templates.build_template(make_corner(position=(0.995, 0.995)), 128)
        # the corner sits in the last pixel row and column: only the window
        # quarter below and left of it, its own row and column included,
        # stays inside the grid
        h = templates.template_window_size(128) // 2
        assert len(tpl.points) == (h + 1) ** 2
        assert tpl.pixel_ij.max() == 127

    def test_rotation_equivariance(self):
        # rotating the corner by 90 deg permutes the quadrant pattern
        base = templates.build_template(make_corner(), 129)
        rot = templates.build_template(
            make_corner(tangent_in=(1.0, 0.0), tangent_out=(0.0, 1.0)), 129
        )
        w = templates.template_window_size(129)
        qb = base.quadrant.reshape(w, w)
        qr = rot.quadrant.reshape(w, w)
        swap = {1: 1, 2: 3, 3: 2, 4: 4}  # axis swap exchanges the mixed quadrants
        qb_rot = np.vectorize(swap.get)(np.rot90(qb, k=-1))
        assert np.array_equal(np.sort(qb_rot.ravel()), np.sort(qr.ravel()))
        for q in (1, 2, 3, 4):
            assert np.sum(qb == q) == np.sum(np.rot90(qr, k=1) == swap[q])

    def test_composed_target_matches_analytic_wedge(self):
        # the square's own corner: the composed template reproduces the
        # kernelized true field except in the outside cone at the apex,
        # where half-plane composition and a true distance field genuinely
        # differ
        g = square_glyph()
        corner = next(
            c for c in geometry.detect_corners(g)
            if np.allclose(c.position, [0.85, 0.85])
        )
        width = 128
        gamma = 4 / width
        tpl = templates.build_template(corner, width)
        composed = tpl.composed_target(gamma)
        truth = field.kernel(sdf_batch(tpl.points, g), gamma)
        apex = np.linalg.norm(tpl.points - corner.position, axis=1) < 2 * gamma
        keep = ~((tpl.quadrant == 4) & apex)
        assert np.max(np.abs(composed[keep] - truth[keep])) <= 1e-6


class TestCornerLoss:
    def _template(self):
        return templates.build_template(make_corner(), 128)

    def test_zero_when_two_channels_match(self):
        tpl = self._template()
        gamma = 4 / 128
        t = tpl.targets(gamma)
        rng = np.random.default_rng(0)
        pred = np.stack([t[:, 0], t[:, 1], rng.uniform(0, 1, len(t))], axis=1)
        assert templates.corner_loss_grad(pred, tpl, gamma)[0] == 0.0

    def test_zero_under_any_channel_placement(self):
        tpl = self._template()
        gamma = 4 / 128
        t = tpl.targets(gamma)
        free = np.full(len(t), 0.7)
        for a, b in itertools.permutations(range(3), 2):
            pred = np.empty((len(t), 3))
            pred[:, a] = t[:, 0]
            pred[:, b] = t[:, 1]
            pred[:, 3 - a - b] = free
            assert templates.corner_loss_grad(pred, tpl, gamma)[0] == 0.0

    def test_permutation_invariant_exact(self):
        tpl = self._template()
        gamma = 4 / 128
        pred = np.random.default_rng(1).uniform(0, 1, (len(tpl.points), 3))
        ref = templates.corner_loss_grad(pred, tpl, gamma)[0]
        for perm in itertools.permutations(range(3)):
            assert templates.corner_loss_grad(pred[:, perm], tpl, gamma)[0] == ref

    def test_constant_half_prediction_matches_enumeration(self):
        tpl = self._template()
        gamma = 4 / 128
        pred = np.full((len(tpl.points), 3), 0.5)
        got = templates.corner_loss_grad(pred, tpl, gamma)[0]
        # brute force over all six assignments
        t = tpl.targets(gamma)[tpl.supervised_mask()]
        m = len(t)
        best = min(
            np.sum((0.5 - t[:, 0]) ** 2) + np.sum((0.5 - t[:, 1]) ** 2)
            for _ in range(1)
        )  # every assignment has identical error for a constant prediction
        assert got == pytest.approx(best / (2 * m), abs=1e-15)
        assert got == pytest.approx(np.mean((0.5 - t) ** 2), abs=1e-15)
        # the tie goes to the first assignment, channels 0 and 1
        grad = templates.corner_loss_grad(pred, tpl, gamma)[1]
        assert grad[:, :2].any() and not grad[:, 2].any()

    @pytest.mark.parametrize(
        "channels, value, loss",
        [((0, 1, 2), np.nan, "nan"), ((2,), np.nan, "nan"), ((0, 1, 2), np.inf, "inf")],
        ids=["nan everywhere", "nan in channel 2", "inf everywhere"],
    )
    def test_non_finite_prediction_gives_non_finite_loss(self, channels, value, loss):
        # a diverged network: its loss must reach the training loop's check
        tpl = self._template()
        pred = np.random.default_rng(4).uniform(0, 1, (len(tpl.points), 3))
        pred[:, channels] = value
        got, grad = templates.corner_loss_grad(pred, tpl, 4 / 128)
        assert str(got) == loss
        assert not np.all(np.isfinite(grad))

    def test_nonnegative_and_zero_only_on_match(self):
        tpl = self._template()
        gamma = 4 / 128
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = rng.uniform(0, 1, (len(tpl.points), 3))
            assert templates.corner_loss_grad(pred, tpl, gamma)[0] >= 0.0
        t = tpl.targets(gamma)
        pred = np.stack([t[:, 1], np.zeros(len(t)), t[:, 0]], axis=1)
        assert templates.corner_loss_grad(pred, tpl, gamma)[0] == 0.0

    def test_gradient_matches_finite_differences(self):
        tpl = self._template()
        gamma = 4 / 128
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.05, 0.95, (len(tpl.points), 3))
        loss, grad = templates.corner_loss_grad(pred, tpl, gamma)
        h = 1e-6
        for _ in range(30):
            i = rng.integers(len(pred))
            c = rng.integers(3)
            up = pred.copy(); up[i, c] += h
            dn = pred.copy(); dn[i, c] -= h
            fd = (
                templates.corner_loss_grad(up, tpl, gamma)[0]
                - templates.corner_loss_grad(dn, tpl, gamma)[0]
            ) / (2 * h)
            assert fd == pytest.approx(grad[i, c], abs=1e-6)

    def test_shape_validation(self):
        tpl = self._template()
        with pytest.raises(ValueError):
            templates.corner_loss_grad(np.zeros((3, 2)), tpl, 0.1)
        with pytest.raises(ValueError):
            templates.corner_loss_grad(np.zeros((1, 3)), tpl, 0.1)


class TestSerialization:
    def test_round_trip_through_arrays(self):
        # the corner metadata that `prepare` writes for inspection goes
        # through JSON and still describes every corner exactly: templates
        # built from it equal the originals
        g = l_glyph()
        tpls = templates.build_templates(g, 64)
        assert tpls
        meta = json.loads(json.dumps(templates.templates_to_arrays(tpls)))
        assert len(meta) == len(tpls)
        for a, info in zip(tpls, meta):
            corner = Corner(**{k: np.array(v) if isinstance(v, list) else v
                               for k, v in info.items()})
            b = templates.build_template(corner, 64)
            assert np.array_equal(a.pixel_ij, b.pixel_ij)
            assert np.array_equal(a.halfplane, b.halfplane)
            assert np.array_equal(a.quadrant, b.quadrant)
            assert a.convex == b.convex
            assert info["interior_angle"] == a.corner.interior_angle
            assert (info["contour_index"], info["junction_index"]) == (
                a.corner.contour_index, a.corner.junction_index)

    def test_empty(self):
        assert templates.templates_to_arrays([]) == []
