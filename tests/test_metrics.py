import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glyphsdf import geometry, metrics, templates

from helpers import l_glyph


class TestMse:
    def test_identical(self):
        img = np.random.default_rng(0).uniform(0, 1, (8, 8))
        assert metrics.mse(img, img) == 0.0

    def test_opposite(self):
        assert metrics.mse(np.zeros((4, 4)), np.ones((4, 4))) == 1.0

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.uniform(0, 1, (8, 8))
            b = rng.uniform(0, 1, (8, 8))
            ref = sum((x - y) ** 2 for x, y in zip(a.ravel(), b.ravel())) / 64
            assert metrics.mse(a, b) == pytest.approx(ref, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            metrics.mse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestSoftIou:
    def test_identical_binary(self):
        a = (np.random.default_rng(2).uniform(0, 1, (8, 8)) > 0.5).astype(float)
        assert metrics.soft_iou(a, a) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4)); a[:2] = 1.0
        b = np.zeros((4, 4)); b[2:] = 1.0
        assert metrics.soft_iou(a, b) == 0.0

    def test_constant_half(self):
        a = np.full((8, 8), 0.5)
        assert metrics.soft_iou(a, a) == pytest.approx(0.25, abs=1e-15)

    def test_both_zero_defined_as_one(self):
        z = np.zeros((4, 4))
        assert metrics.soft_iou(z, z) == 1.0

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0, 1, (8, 8))
            b = rng.uniform(0, 1, (8, 8))
            num = sum(x * y for x, y in zip(a.ravel(), b.ravel()))
            den = sum(min(max(x + y, 0.0), 1.0) for x, y in zip(a.ravel(), b.ravel()))
            assert metrics.soft_iou(a, b) == pytest.approx(num / den, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (6, 6))
        b = rng.uniform(0, 1, (6, 6))
        v = metrics.soft_iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == metrics.soft_iou(b, a)

    def test_nonzero_self_is_one(self):
        # a * a <= clip(2a, 0, 1) with equality only for binary images, so
        # self-similarity of a binary image is exactly 1
        a = np.zeros((5, 5)); a[1:3, 2:4] = 1.0
        assert metrics.soft_iou(a, a) == 1.0


class TestCornerRegion:
    def _corners(self):
        return geometry.detect_corners(l_glyph())

    def test_full_image_mask_reduces_to_plain_metrics(self):
        corners = self._corners()
        a = np.random.default_rng(4).uniform(0, 1, (64, 64))
        b = np.random.default_rng(5).uniform(0, 1, (64, 64))
        mask = metrics.corner_mask(corners, 64)
        res = metrics.corner_region_metrics(a, b, corners, 64)
        assert res.mse == pytest.approx(metrics.mse(a[mask], b[mask]), abs=1e-15)
        assert res.siou == pytest.approx(metrics.soft_iou(a[mask], b[mask]), abs=1e-15)

    def test_empty_template_list_flagged(self):
        a = np.zeros((32, 32))
        res = metrics.corner_region_metrics(a, a, [], 32)
        assert np.isnan(res.mse) and np.isnan(res.siou)

    def test_mask_area_matches_enumeration(self):
        # for the L-glyph at 128 the six 7x7 windows are disjoint except
        # where clipping or proximity merges them; enumerate directly
        corners = self._corners()
        width = 128
        mask = metrics.corner_mask(corners, width)
        ref = np.zeros((width, width), dtype=bool)
        w_t = templates.template_window_size(width)
        h = w_t // 2
        for corner in corners:
            cx, cy = corner.position
            jc = int(np.clip(np.floor((cx + 1) / 2 * width), 0, width - 1))
            ic = int(np.clip(np.floor((cy + 1) / 2 * width), 0, width - 1))
            ref[max(ic - h, 0) : ic + h + 1, max(jc - h, 0) : jc + h + 1] = True
        assert np.array_equal(mask, ref)
        assert int(mask.sum()) <= len(corners) * w_t * w_t

    def test_scales_with_resolution(self):
        corners = self._corners()
        m64 = metrics.corner_mask(corners, 64)
        m256 = metrics.corner_mask(corners, 256)
        assert m256.sum() > m64.sum()

    def test_identical_images_score_one(self):
        corners = self._corners()
        img = np.random.default_rng(6).uniform(0.2, 1, (64, 64))
        res = metrics.corner_region_metrics(img, img, corners, 64)
        assert res.mse == 0.0
        assert res.siou <= 1.0


class TestLaplacian:
    def test_linear_field_is_flat(self):
        xs = np.linspace(-1, 1, 32)
        grid = np.tile(xs, (32, 1))
        assert metrics.laplacian_smoothness(grid) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_field_constant_laplacian(self):
        w = 64
        xs = (np.arange(w) + 0.5) / w * 2 - 1
        X, Y = np.meshgrid(xs, xs)
        grid = X**2 + Y**2
        # laplacian of x^2 + y^2 is 4
        assert metrics.laplacian_smoothness(grid) == pytest.approx(4.0, rel=1e-9)

    def test_rougher_field_scores_higher(self):
        rng = np.random.default_rng(7)
        smooth = np.zeros((32, 32))
        rough = rng.normal(size=(32, 32))
        assert metrics.laplacian_smoothness(rough) > metrics.laplacian_smoothness(smooth)
