import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from glyphsdf import autodecoder as ad
from glyphsdf import field, geometry, render
from glyphsdf.errors import GlyphSdfError, ImageError, NumericalError
from glyphsdf.config import FieldSettings, TrainSettings
from glyphsdf.training import prepare_glyph, train

from helpers import box_sdf, square_glyph


@pytest.fixture(scope="module")
def tiny_bundle():
    """A quickly trained tiny-resolution model for render plumbing tests."""
    fs = FieldSettings(train_width=24)
    g = square_glyph(label=0)
    dataset = [prepare_glyph(g, "fam", 0, 0, fs)]
    ts = TrainSettings(epochs=80, seed=0, anneal_epochs=30, min_homogeneous=16)
    bundle, _ = train(dataset, "A", fs, ts)
    return bundle


def _implicit(bundle, z, label, width):
    """The implicit render: the network's channels at width W, composed."""
    return render.compose(bundle, render.field_grid(bundle, z, label, width), width)[0]


class TestCompose:
    @pytest.mark.parametrize("supervision", ["sdf", "pixel"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_image_and_level_are_the_median_through_the_opacity(self, n, supervision):
        rng = np.random.default_rng(n)
        channels = rng.normal(scale=0.3, size=(n, 24, 24)) + (supervision == "pixel") * 0.5
        channels[:, 0, :4] = [0.0, -0.0, 1.0, -1.0]
        model = SimpleNamespace(aa_k=4.0, supervision=supervision)
        image, level = render.compose(model, channels, 24)
        med = field.compose_median(channels, axis=0)
        if supervision == "sdf":
            helpers.assert_same_floats(image, field.kernel(med, 4.0 / 24))
            helpers.assert_same_floats(level, med)
        else:
            helpers.assert_same_floats(image, np.clip(med, 0.0, 1.0))
            helpers.assert_same_floats(level, med - 0.5)


class TestBilinear:
    def test_identity_at_source_width(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(3, 16, 16))
        up = render.bilinear_resample(grid, 16)
        assert np.allclose(up, grid, atol=1e-12)

    def test_constant_grid_stays_constant(self):
        grid = np.full((3, 8, 8), 0.7)
        for width in (8, 16, 64, 5):
            out = render.bilinear_resample(grid, width)
            assert np.allclose(out, 0.7, atol=1e-12)

    def test_downsampling_allowed(self):
        grid = np.random.default_rng(1).normal(size=(1, 32, 32))
        out = render.bilinear_resample(grid, 8)
        assert out.shape == (1, 8, 8)

    def test_linear_ramp_preserved(self):
        # bilinear interpolation reproduces an affine field exactly away
        # from the clamped border
        w = 16
        xs = (np.arange(w) + 0.5) / w * 2 - 1
        grid = np.tile(xs, (w, 1))[None]
        up = render.bilinear_resample(grid, 64)
        xt = (np.arange(64) + 0.5) / 64 * 2 - 1
        inner = slice(4, 60)
        assert np.allclose(up[0][32, inner], xt[inner], atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 12), st.integers(1, 12), st.integers(1, 40), st.data(),
    )
    def test_equals_four_corner_reference(self, n, h, w, width, data):
        # widths above and below h and w: upsampling and downsampling
        grid = data.draw(hnp.arrays(np.float64, (n, h, w), elements=helpers.edge_floats))
        with np.errstate(invalid="ignore", over="ignore"):
            got = render.bilinear_resample(grid, width)
            want = helpers.reference_bilinear_resample(grid, width)
        helpers.assert_same_floats(got, want)

    def test_render_bilateral_equals_median_kernel_at_grid_width(self):
        rng = np.random.default_rng(2)
        grid = rng.normal(scale=0.2, size=(3, 16, 16))
        img, _ = render.compose(
            SimpleNamespace(aa_k=4.0, supervision="sdf"), render.bilinear_resample(grid, 16), 16
        )
        ref = field.kernel(np.median(grid, axis=0), 4.0 / 16)
        assert np.allclose(img, ref, atol=1e-12)


class TestRenderImplicit:
    def test_matches_train_time_median_composition(self, tiny_bundle):
        b = tiny_bundle
        z = b.latents.codes[0]
        img = _implicit(b, z, 0, b.train_width)
        grid = render.field_grid(b, z, 0, b.train_width)
        ref = field.kernel(np.median(grid, axis=0), b.aa_k / b.train_width)
        assert np.max(np.abs(img - ref)) < 1e-6

    def test_channel_order_never_changes_the_render(self, tiny_bundle):
        b = tiny_bundle
        z = b.latents.codes[0]
        ref = _implicit(b, z, 0, 32)
        perm = [1, 2, 0]
        b.params.weights[-1] = b.params.weights[-1][:, perm]
        b.params.biases[-1] = b.params.biases[-1][perm]
        try:
            img = _implicit(b, z, 0, 32)
        finally:
            inv = np.argsort(perm)
            b.params.weights[-1] = b.params.weights[-1][:, inv]
            b.params.biases[-1] = b.params.biases[-1][inv]
        assert np.array_equal(img, ref)

    def test_resolution_self_consistency(self, tiny_bundle):
        # W and 2W renders agree after 2x2 box downsampling; the render-time
        # anti-alias band scales as aa_k / W, whose inherent cross-scale
        # difference only drops below the 0.02 budget from width 64 up
        b = tiny_bundle
        z = b.latents.codes[0]
        lo = _implicit(b, z, 0, 64)
        hi = _implicit(b, z, 0, 128)
        pooled = hi.reshape(64, 2, 64, 2).mean(axis=(1, 3))
        assert np.mean(np.abs(pooled - lo)) < 0.02

    def test_min_width(self, tiny_bundle):
        with pytest.raises(ValueError):
            render.field_grid(tiny_bundle, tiny_bundle.latents.codes[0], 0, 4)

    def test_non_finite_network_output_raises(self, tiny_bundle):
        b = tiny_bundle
        head = b.params.biases[-1].copy()
        try:
            b.params.biases[-1][1] = np.nan
            with pytest.raises(NumericalError, match="non-finite"):
                render.field_grid(b, b.latents.codes[0], 0, 16)
        finally:
            b.params.biases[-1][:] = head

    def test_values_clamped(self, tiny_bundle):
        img = _implicit(tiny_bundle, tiny_bundle.latents.codes[0], 0, 48)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestZeroLevel:
    def test_square_contour_closed_and_tight(self):
        w = 256
        centers = geometry.pixel_centers(w).reshape(-1, 2)
        grid = box_sdf(centers, 0.6).reshape(w, w)
        contours = render.extract_zero_level(grid)
        assert len(contours) == 1
        c = contours[0]
        assert np.array_equal(c[0], c[-1])  # closed loop
        # Hausdorff distance to the true square boundary < 2 grid cells
        cell = 2.0 / w
        pts = c[:-1]
        d_true = np.abs(box_sdf(pts, 0.6))
        assert d_true.max() < 2 * cell
        # and the contour reaches all four sides
        assert pts[:, 0].min() < -0.55 and pts[:, 0].max() > 0.55
        assert pts[:, 1].min() < -0.55 and pts[:, 1].max() > 0.55

    @pytest.mark.parametrize("grid", [
        [[np.inf, -np.inf], [1.0, 1.0]], [[np.nan, -1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, -np.inf]],
    ])
    def test_non_finite_field_raises(self, grid):
        with pytest.raises(NumericalError, match="non-finite"):
            render.extract_zero_level(np.array(grid))

    def test_all_positive_grid_gives_no_contours(self):
        assert render.extract_zero_level(np.ones((16, 16))) == []

    def test_saddle_resolved_deterministically(self):
        grid = np.array(
            [
                [1.0, -1.0],
                [-1.0, 1.0],
            ]
        )
        a = render.extract_zero_level(grid)
        b = render.extract_zero_level(grid)
        assert len(a) == len(b) == 2
        for ca, cb in zip(a, b):
            assert np.array_equal(ca, cb)

    def test_non_self_intersecting_on_convex_shape(self):
        w = 128
        centers = geometry.pixel_centers(w).reshape(-1, 2)
        grid = (0.5 - np.linalg.norm(centers, axis=1)).reshape(w, w)
        contours = render.extract_zero_level(grid)
        assert len(contours) == 1
        pts = contours[0][:-1]
        # a simple closed curve visits each vertex once
        assert len(np.unique(np.round(pts, 12), axis=0)) == len(pts)

    def test_open_contour_is_one_polyline_in_either_orientation(self):
        x = geometry.pixel_centers(8)[..., 0]
        for grid in (x - 0.1, 0.1 - x):
            contours = render.extract_zero_level(grid)
            assert len(contours) == 1
            c = contours[0]
            assert len(c) == 8  # one vertex per grid row, border to border
            assert np.allclose(c[:, 0], 0.1, atol=1e-12)
            assert np.all(np.abs(np.diff(c[:, 1])) > 0)

    def test_contour_json(self, tmp_path):
        grid = np.array([[1.0, 1.0], [-1.0, -1.0]])
        cs = render.extract_zero_level(grid)
        path = tmp_path / "contours.json"
        render.write_contours(path, cs)
        import json

        data = json.loads(path.read_text())
        assert isinstance(data, list)


@st.composite
def level_grids(draw):
    """Fields of 1 to 40 nodes a side: small integers (exact zeros and
    saddles are common), smooth random values whose zero sets reach the
    border, or a few floats with signed zeros, infinities and NaN."""
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "normal", "edge floats"]))
    if kind == "integers":
        return rng.integers(-2, 3, size=(h, w)).astype(np.float64) * 0.5
    if kind == "normal":
        return rng.normal(size=(h, w))
    palette = draw(st.lists(helpers.edge_floats, min_size=1, max_size=6))
    return rng.choice(np.array(palette, dtype=np.float64), size=(h, w))


class TestZeroLevelReference:
    @settings(max_examples=200, deadline=None)
    @given(level_grids())
    def test_equals_cell_loop(self, grid):
        if not np.isfinite(grid).all():
            with pytest.raises(NumericalError):
                render.extract_zero_level(grid)
            return
        contours = render.extract_zero_level(grid)
        ref = helpers.reference_extract_zero_level(grid)
        assert len(contours) == len(ref)
        for c, r in zip(contours, ref):
            assert c.dtype == r.dtype
            helpers.assert_same_floats(c, r)

    def test_saddles_and_zeros(self):
        grid = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
        for field_ in (grid, -grid, grid.T):
            contours = render.extract_zero_level(field_)
            ref = helpers.reference_extract_zero_level(field_)
            assert len(contours) == len(ref) > 0
            for c, r in zip(contours, ref):
                assert np.array_equal(c, r)


@st.composite
def _pgm_bytes(draw):
    """A P5 magic, header fields of digits, signs, comments and junk, and a
    payload of any bytes."""
    field = st.integers(0, 70000).map(lambda k: str(k).encode()) | st.sampled_from(
        [b"-1", b"x", b"#c\n", b"#", b"255", b"65535", b"9" * 30]
    ) | st.binary(max_size=3)
    sep = st.sampled_from([b" ", b"\n", b"\t", b"", b"\r\n"])
    header = b"".join(draw(sep) + draw(field) for _ in range(draw(st.integers(0, 4))))
    magic = draw(st.sampled_from([b"P5", b"P2", b""]))
    return magic + header + draw(sep) + draw(st.binary(max_size=40))


class TestPgm:
    def test_all_white(self, tmp_path):
        p = tmp_path / "w.pgm"
        render.write_image(p, np.ones((4, 6)))
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n6 4\n255\n")
        assert raw[len(b"P5\n6 4\n255\n") :] == bytes([255]) * 24

    def test_known_payload(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 0.25]])
        p = tmp_path / "k.pgm"
        render.write_image(p, img)
        payload = p.read_bytes().split(b"255\n", 1)[1]
        # rint: 0 -> 0, 127.5 -> 128 (half to even), 255 -> 255, 63.75 -> 64
        assert payload == bytes([0, 128, 255, 64])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, (9, 13))
        p = tmp_path / "r.pgm"
        render.write_image(p, img)
        back = render.read_image(p)
        assert back.shape == img.shape
        assert np.array_equal(back, np.rint(img * 255) / 255)

    def test_clip_before_write(self, tmp_path):
        p = tmp_path / "c.pgm"
        render.write_image(p, np.array([[-0.5, 1.5]]))
        payload = p.read_bytes().split(b"255\n", 1)[1]
        assert payload == bytes([0, 255])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_image_raises(self, tmp_path, bad):
        p = tmp_path / "n.pgm"
        with pytest.raises(NumericalError, match="non-finite"):
            render.write_image(p, np.array([[0.5, bad]]))
        assert not p.exists()

    def test_read_rejects_non_pgm(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            render.read_image(p)

    def test_read_rejects_non_pgm_with_image_error(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ImageError, match="not a binary PGM"):
            render.read_image(p)

    def test_reads_16_bit_big_endian(self, tmp_path):
        p = tmp_path / "wide.pgm"
        p.write_bytes(b"P5\n3 1\n65535\n" + struct.pack(">3H", 65535, 32768, 256))
        back = render.read_image(p)
        assert back.shape == (1, 3)
        assert np.array_equal(back[0], np.array([65535, 32768, 256]) / 65535.0)

    def test_truncated_payload(self, tmp_path):
        for header, payload in ((b"P5\n4 4\n255\n", bytes(10)), (b"P5\n2 2\n1000\n", bytes(7))):
            p = tmp_path / "t.pgm"
            p.write_bytes(header + payload)
            with pytest.raises(ImageError, match="truncated"):
                render.read_image(p)

    @pytest.mark.parametrize(
        "raw",
        [
            b"P5\n4 x\n255\n" + bytes(16),
            b"P5\n0 4\n255\n",
            b"P5\n2 2\n0\n" + bytes(4),
            b"P5\n2 2\n70000\n" + bytes(8),
            b"P5\n2",
            b"P5 -2 2 255 " + bytes(4),
            pytest.param(b"P5 " + b"9" * 5000 + b" 2 255\n" + bytes(4), id="5000-digit width"),
        ],
    )
    def test_bad_header(self, tmp_path, raw):
        p = tmp_path / "h.pgm"
        p.write_bytes(raw)
        with pytest.raises(ImageError, match="PGM header"):
            render.read_image(p)

    @settings(max_examples=300, deadline=None)
    @given(raw=_pgm_bytes() | st.binary(max_size=40))
    def test_any_bytes_load_or_raise_package_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.pgm"
            path.write_bytes(raw)
            try:
                img = render.read_image(path)
            except GlyphSdfError:
                return
            assert img.ndim == 2 and np.all((img >= 0.0) & (img <= 1.0))

    def test_sample_above_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 200]))
        with pytest.raises(ImageError, match="above maxval"):
            render.read_image(p)
