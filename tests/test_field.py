import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from glyphsdf import field, geometry
from glyphsdf.config import FieldSettings
from glyphsdf.errors import ConfigError

from helpers import (
    assert_same_floats, box_sdf, edge_floats, read_grid, reference_compose_median,
    reference_compose_train, ring_glyph, square_glyph,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


class TestKernel:
    def test_band_edges_exact(self):
        for gamma in (0.1, 0.0625, 1.0, 3.7):
            assert field.kernel(gamma, gamma) == 1.0
            assert field.kernel(-gamma, gamma) == 0.0

    def test_center_is_half(self):
        assert field.kernel(0.0, 0.5) == 0.5

    def test_half_band_value(self):
        gamma = 0.25
        assert field.kernel(gamma / 2, gamma) == pytest.approx(0.84375, abs=1e-15)

    def test_saturation(self):
        assert field.kernel(10.0, 0.1) == 1.0
        assert field.kernel(-10.0, 0.1) == 0.0

    def test_monotone(self):
        d = np.sort(np.random.default_rng(0).uniform(-2, 2, 10_000))
        k = field.kernel(d, 0.3)
        assert np.all(np.diff(k) >= 0)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            field.kernel(0.0, 0.0)
        with pytest.raises(ValueError):
            field.kernel_grad(0.0, -1.0)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        gamma = 0.4
        # stay away from the band edges where the derivative is one-sided
        d = rng.uniform(-0.95 * gamma, 0.95 * gamma, 1000)
        h = 1e-7
        fd = (field.kernel(d + h, gamma) - field.kernel(d - h, gamma)) / (2 * h)
        an = field.kernel_grad(d, gamma)
        rel = np.abs(fd - an) / np.maximum(np.abs(an), 1e-12)
        assert np.max(rel) < 1e-6

    def test_lipschitz_bound(self):
        gamma = 0.2
        d = np.random.default_rng(2).uniform(-0.5, 0.5, 1000)
        assert np.all(field.kernel_grad(d, gamma) <= 3 / (4 * gamma) + 1e-12)


class TestCompose:
    def test_median_basics(self):
        assert field.compose_median([0.0, 0.0, 1.0]) == 0.0
        assert field.compose_median([0.2, 0.9, 0.4]) == pytest.approx(0.4)
        got = field.compose_median([-0.0, 2.0, -0.0])
        assert type(got) is np.float64 and not np.signbit(got)

    def test_median_permutation_invariant_exact(self):
        from itertools import permutations

        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.uniform(0, 1, 3)
            vals = {field.compose_median(list(p)) for p in permutations(c)}
            assert len(vals) == 1

    def test_median_commutes_with_kernel(self):
        # K monotone => median(K(d)) == K(median(d)), checked exactly
        rng = np.random.default_rng(4)
        d = rng.uniform(-1, 1, (10_000, 3))
        gamma = 0.3
        lhs = field.compose_median(field.kernel(d, gamma))
        rhs = field.kernel(field.compose_median(d), gamma)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 4), max_size=3), st.sampled_from([1, 3]),
        st.integers(0, 3), st.data(),
    )
    def test_median_equals_np_median(self, shape, n, at, data):
        # the channel axis anywhere, alone (a 0-d result) or among others
        at = min(at, len(shape))
        shape = shape[:at] + [n] + shape[at:]
        c = data.draw(hnp.arrays(np.float64, shape, elements=edge_floats))
        for axis in (at, at - len(shape)):
            with np.errstate(invalid="ignore"):
                got = field.compose_median(c, axis=axis)
                want = reference_compose_median(c, axis=axis)
            assert type(got) is type(want)
            assert_same_floats(got, want)

    def test_median_pair_examples(self):
        def value(c, mode):
            return field.compose_train_grad(c, mode)[0]

        assert value([0.2, 0.5, 0.9], "median_pair") == pytest.approx(0.35)
        assert value([0.0, 0.5, 1.0], "median_pair") == pytest.approx(0.25)
        assert value([0.2, 0.5, 0.9], "mean") == pytest.approx((0.2 + 0.5 + 0.9) / 3)

    def test_single_channel_identity(self):
        c = np.array([[0.3], [0.8]])
        assert np.array_equal(field.compose_median(c), [0.3, 0.8])
        assert np.array_equal(field.compose_train_grad(c, "mean")[0], [0.3, 0.8])
        assert np.array_equal(field.compose_train_grad(c, "median_pair")[0], [0.3, 0.8])

    @given(st.tuples(unit, unit, unit))
    @settings(max_examples=300, deadline=None)
    def test_median_pair_between_min_and_max(self, c):
        v = field.compose_train_grad(list(c), "median_pair")[0]
        assert min(c) - 1e-12 <= v <= max(c) + 1e-12

    @given(st.tuples(unit, unit, unit))
    @settings(max_examples=300, deadline=None)
    def test_median_is_a_channel_value(self, c):
        assert field.compose_median(list(c)) in c

    def test_compose_grad_matches_value(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(0, 1, (500, 3))
        for mode in ("mean", "median_pair"):
            v1 = reference_compose_train(c, mode)
            v2, g = field.compose_train_grad(c, mode)
            assert np.allclose(v1, v2, atol=1e-15)
            assert np.allclose(g.sum(axis=-1), 1.0, atol=1e-15)
            # linear in the active channels: directional derivative check
            h = 1e-7
            dc = rng.uniform(-1, 1, c.shape) * h
            v3 = reference_compose_train(c + dc, mode)
            assert np.allclose(v3 - v1, (g * dc).sum(-1), atol=1e-9)


class TestRasterize:
    def test_square_interior_exterior(self):
        g = square_glyph()
        img = field.rasterize_ground_truth(g, 64, 4 / 64)
        assert img[32, 32] == 1.0
        assert img[0, 0] == 0.0

    def test_pixel_on_outline_is_half(self):
        # square whose right edge passes exactly through pixel centers:
        # pixel x = (j+0.5)/32 - 1; j=59 -> x = 0.859375
        from glyphsdf import glyphs

        edge = 0.859375
        path = f"M {-edge} {-edge} L {edge} {-edge} L {edge} {edge} L {-edge} {edge} Z"
        g = glyphs.Glyph(glyphs.parse_path(path))
        img = field.rasterize_ground_truth(g, 64, 4 / 64)
        assert img[32, 59] == pytest.approx(0.5, abs=1e-12)

    def test_antialias_band_is_exactly_the_open_kernel_band(self):
        g = square_glyph()
        width, gamma = 64, 4 / 64
        img = field.rasterize_ground_truth(g, width, gamma)
        expected = np.abs(box_sdf(geometry.pixel_centers(width).reshape(-1, 2), 0.85)) < gamma
        got = (img > 0) & (img < 1)
        assert np.array_equal(got.reshape(-1), expected)

    def test_equals_kernel_of_exact_sdf(self):
        # the band-limited distances give the raster of the exact grid
        for g in (square_glyph(), ring_glyph()):
            exact = field.kernel(geometry.sdf_grid(g, 48), 0.1)
            assert field.rasterize_ground_truth(g, 48, 0.1).tobytes() == exact.tobytes()


class TestGridContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        grid = rng.standard_normal((3, 17, 11)).astype(np.float32)
        p = tmp_path / "x.grid"
        field.write_grid(p, grid)
        back = read_grid(p)
        assert back.dtype == np.float32
        assert np.array_equal(back, grid)
        field.write_grid(p, back)
        assert np.array_equal(read_grid(p), grid)

    def test_2d_promotes_to_single_channel(self, tmp_path):
        p = tmp_path / "y.grid"
        field.write_grid(p, np.ones((4, 5)))
        assert read_grid(p).shape == (1, 4, 5)

    def test_header_is_16_bytes(self, tmp_path):
        p = tmp_path / "h.grid"
        field.write_grid(p, np.zeros((1, 2, 2)))
        raw = p.read_bytes()
        assert len(raw) == 16 + 4 * 4
        assert raw[:4] == b"MIFG"


def test_field_config_validation():
    with pytest.raises(ConfigError):
        FieldSettings(channels=2)
    cfg = FieldSettings()
    assert cfg.gamma_final == pytest.approx(4 / 64)
