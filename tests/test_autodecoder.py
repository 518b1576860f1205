import dataclasses
import gc
import multiprocessing
import os
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from glyphsdf import autodecoder as ad
from glyphsdf.errors import CheckpointError, GlyphSdfError, NumericalError


def tiny_config(alphabet_size=2, out_channels=3):
    """2 hidden layers of 16 units with the same skip scheme (after layer 1)."""
    return ad.NetworkConfig(
        alphabet_size=alphabet_size,
        hidden_layers=2,
        width=16,
        skip_layer=1,
        out_channels=out_channels,
    )


def make_net(seed=0, **kwargs):
    cfg = tiny_config(**kwargs)
    params = ad.init_parameters(cfg, np.random.default_rng(seed))
    return cfg, params


def straight_line_forward(cfg, params, x):
    """Independent loop-based re-evaluation of the network on one row."""
    slope = cfg.leaky_slope
    a = np.array(x, dtype=float)
    x0 = np.array(x, dtype=float)
    for l in range(cfg.hidden_layers):
        if cfg.skip_layer and l == cfg.skip_layer:
            a = np.concatenate([a, x0])
        w, b = params.weights[l], params.biases[l]
        z = np.empty(w.shape[1])
        for col in range(w.shape[1]):
            acc = b[col]
            for row in range(w.shape[0]):
                acc += a[row] * w[row, col]
            z[col] = acc
        a = np.where(z >= 0, z, slope * z)
    w, b = params.weights[-1], params.biases[-1]
    out = np.empty(w.shape[1])
    for col in range(w.shape[1]):
        acc = b[col]
        for row in range(w.shape[0]):
            acc += a[row] * w[row, col]
        out[col] = acc
    return out


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        cfg, params = make_net()
        for w in params.weights:
            w[:] = 0.0
        X = np.random.default_rng(1).normal(size=(5, cfg.in_dim))
        out, _ = ad.forward(cfg, params, X)
        assert np.all(out == 0.0)

    def test_linear_head_scales(self):
        cfg, params = make_net(seed=2)
        X = np.random.default_rng(3).normal(size=(4, cfg.in_dim))
        out1, _ = ad.forward(cfg, params, X)
        params.weights[-1] *= 2.0
        params.biases[-1] *= 2.0
        out2, _ = ad.forward(cfg, params, X)
        assert np.allclose(out2, 2.0 * out1, atol=1e-12)

    def test_matches_straight_line_reimplementation(self):
        cfg, params = make_net(seed=4)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, cfg.in_dim))
        out, _ = ad.forward(cfg, params, X)
        for r in range(len(X)):
            ref = straight_line_forward(cfg, params, X[r])
            assert np.max(np.abs(out[r] - ref)) < 1e-12

    def test_output_channel_permutation(self):
        cfg, params = make_net(seed=6)
        X = np.random.default_rng(7).normal(size=(3, cfg.in_dim))
        out1, _ = ad.forward(cfg, params, X)
        perm = [2, 0, 1]
        params.weights[-1] = params.weights[-1][:, perm]
        params.biases[-1] = params.biases[-1][perm]
        out2, _ = ad.forward(cfg, params, X)
        assert np.allclose(out2, out1[:, perm], atol=1e-15)

    def test_shape_mismatch_rejected(self):
        cfg, params = make_net()
        with pytest.raises(ValueError, match="input width"):
            ad.forward(cfg, params, np.zeros((3, cfg.in_dim + 1)))

    @pytest.mark.parametrize("slope", [0.0, -0.01, 1.5, float("nan")])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="leaky_slope"):
            ad.NetworkConfig(alphabet_size=2, leaky_slope=slope)

    def test_default_config_shapes(self):
        cfg = ad.NetworkConfig(alphabet_size=52)
        dims = cfg.layer_dims()
        assert len(dims) == 9
        assert dims[0] == (2 + 52 + 128, 384)
        assert dims[3] == (384 + 2 + 52 + 128, 384)
        assert dims[-1] == (384, 3)


class TestBackward:
    def test_parameter_gradients_vs_finite_differences(self):
        cfg, params = make_net(seed=8)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, cfg.in_dim))
        d_out = rng.normal(size=(6, cfg.out_channels))

        def objective(p):
            out, _ = ad.forward(cfg, p, X)
            return float(np.sum(out * d_out))

        out, cache = ad.forward(cfg, params, X)
        grads, dX = ad.backward(cfg, params, cache, d_out)
        h = 1e-6
        checked = 0
        for (name, g), (_, p) in zip(grads.named(), params.named()):
            flat_g = g.ravel()
            flat_p = p.ravel()
            idx = rng.choice(flat_p.size, size=min(20, flat_p.size), replace=False)
            for i in idx:
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = objective(params)
                flat_p[i] = orig - h
                dn = objective(params)
                flat_p[i] = orig
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(flat_g[i]), 1e-10)
                assert abs(fd - flat_g[i]) / denom < 1e-3, name
                checked += 1
        assert checked >= 90

    def test_input_gradient_vs_finite_differences(self):
        cfg, params = make_net(seed=10)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, cfg.in_dim))
        d_out = rng.normal(size=(4, cfg.out_channels))
        out, cache = ad.forward(cfg, params, X)
        _, dX = ad.backward(cfg, params, cache, d_out)
        h = 1e-6
        for _ in range(40):
            r = rng.integers(len(X))
            c = rng.integers(cfg.in_dim)
            Xp = X.copy(); Xp[r, c] += h
            Xm = X.copy(); Xm[r, c] -= h
            up = float(np.sum(ad.forward(cfg, params, Xp)[0] * d_out))
            dn = float(np.sum(ad.forward(cfg, params, Xm)[0] * d_out))
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(dX[r, c]), 1e-10)
            assert abs(fd - dX[r, c]) / denom < 1e-3

    def test_zero_upstream_gives_zero_gradients(self):
        cfg, params = make_net(seed=12)
        X = np.random.default_rng(13).normal(size=(5, cfg.in_dim))
        out, cache = ad.forward(cfg, params, X)
        grads, dX = ad.backward(cfg, params, cache, np.zeros_like(out))
        assert np.all(dX == 0.0)
        for _, g in grads.named():
            assert np.all(g == 0.0)

    def test_stale_cache_rejected(self):
        cfg, params = make_net()
        X = np.zeros((3, cfg.in_dim))
        out, cache = ad.forward(cfg, params, X)
        with pytest.raises(ValueError, match="stale cache"):
            ad.backward(cfg, params, cache, np.zeros((4, cfg.out_channels)))
        with pytest.raises(ValueError, match="cache"):
            ad.backward(cfg, params, None, np.zeros((3, cfg.out_channels)))

    def test_spent_cache_rejected(self):
        # backward writes its gradients over the cached activations
        cfg, params = make_net()
        X = np.random.default_rng(16).normal(size=(3, cfg.in_dim))
        out, cache = ad.forward(cfg, params, X)
        ad.backward(cfg, params, cache, np.ones_like(out))
        assert len(cache[0]) == 3 and cache[1] == []
        with pytest.raises(ValueError, match="stale cache"):
            ad.backward(cfg, params, cache, np.ones_like(out))

    def test_skip_gradient_path(self):
        # gradients must flow to the input through both layer 1 and the skip
        cfg, params = make_net(seed=14)
        X = np.random.default_rng(15).normal(size=(2, cfg.in_dim))
        out, cache = ad.forward(cfg, params, X)
        _, dX_full = ad.backward(cfg, params, cache, np.ones_like(out))
        params.weights[0][:] = 0.0  # kill the direct path
        out2, cache2 = ad.forward(cfg, params, X)
        _, dX_skip = ad.backward(cfg, params, cache2, np.ones_like(out2))
        assert np.any(dX_skip != 0.0)  # skip path still carries gradient


class TestAdam:
    def test_first_step_is_minus_lr(self):
        state = ad.AdamState(lr=1e-3)
        p = np.array([1.0])
        ad.adam_step(state, {"p": p}, {"p": np.array([1.0])})
        assert p[0] == pytest.approx(1.0 - 1e-3, rel=1e-6)

    def test_zero_gradients_keep_parameters(self):
        state = ad.AdamState()
        p = np.array([1.0, -2.0])
        ad.adam_step(state, {"p": p}, {"p": np.zeros(2)})
        assert np.array_equal(p, [1.0, -2.0])

    def test_nan_gradient_names_tensor(self):
        state = ad.AdamState()
        with pytest.raises(NumericalError, match="'weird'"):
            ad.adam_step(state, {"weird": np.ones(2)}, {"weird": np.array([1.0, np.nan])})

    @pytest.mark.parametrize("bad_b, error", [
        (np.array([np.nan, 1.0]), NumericalError),
        (np.ones(3), ValueError),
    ])
    def test_bad_gradient_changes_nothing(self, bad_b, error):
        state = ad.AdamState()
        arrays = {"a": np.ones(2), "b": np.ones(2)}
        ad.adam_step(state, arrays, {"a": np.ones(2), "b": np.ones(2)})
        before = (arrays["a"].copy(), state.m["a"].copy(), state.v["a"].copy())
        with pytest.raises(error, match="'b'"):
            ad.adam_step(state, arrays, {"a": np.ones(2), "b": bad_b})
        assert state.step_count == 1
        for got, want in zip((arrays["a"], state.m["a"], state.v["a"]), before):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("alphabet_size", [2, 52])
    def test_production_network_keeps_the_reference_bits(self, alphabet_size):
        # 8x384 in blocks of ADAM_BLOCK elements: the biases, the head and
        # the latent row are smaller than a block, w0 at alphabet 2 too, and
        # no weight is a whole number of blocks
        cfg = ad.NetworkConfig(alphabet_size=alphabet_size)
        rng = np.random.default_rng(alphabet_size)
        params = ad.init_parameters(cfg, rng)
        codes = rng.normal(size=(3, cfg.latent_dim))
        assert any(w.size % ad.ADAM_BLOCK and w.size > ad.ADAM_BLOCK for w in params.weights)
        steps = [
            {name: rng.normal(size=w.shape) for name, w in [*params.named(), ("z1", codes[1])]}
            for _ in range(3)
        ]
        ref_params, ref_codes, ref_state = params.copy(), codes.copy(), ad.AdamState(lr=1e-2)
        for grads in steps:
            helpers.reference_adam_step(
                ref_state, {**dict(ref_params.named()), "z1": ref_codes[1]}, grads
            )
        for threads in THREADS:
            run_params, run_codes, state = params.copy(), codes.copy(), ad.AdamState(lr=1e-2)
            with mock.patch.object(ad, "ROW_THREADS", threads):
                for grads in steps:
                    ad.adam_step(state, {**dict(run_params.named()), "z1": run_codes[1]}, grads)
            _assert_params_equal(run_params, ref_params)
            assert np.array_equal(run_codes, ref_codes), threads
            for name in ref_state.m:
                assert np.array_equal(state.m[name], ref_state.m[name]), (threads, name)
                assert np.array_equal(state.v[name], ref_state.v[name]), (threads, name)

    @pytest.mark.parametrize("kind", ["parameter", "moment"])
    def test_array_without_a_flat_view_rejected(self, kind):
        # an update written through a copy would be lost without a sign
        state = ad.AdamState()
        arrays = {"a": np.ones(4), "odd": np.ones((4, 6))}
        ad.adam_step(state, arrays, {"a": np.ones(4), "odd": np.ones((4, 6))})
        if kind == "parameter":
            arrays["odd"] = np.ones((4, 12))[:, :6]
        else:
            state.v["odd"] = np.array(state.v["odd"], order="F")
        before = [a.copy() for a in (arrays["a"], arrays["odd"], state.m["a"], state.v["a"])]
        with pytest.raises(ValueError, match="'odd'"):
            ad.adam_step(state, arrays, {"a": np.ones(4), "odd": np.ones((4, 6))})
        assert state.step_count == 1
        after = (arrays["a"], arrays["odd"], state.m["a"], state.v["a"])
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    def test_two_seeded_runs_bit_identical(self):
        def run():
            cfg, params = make_net(seed=20)
            state = ad.AdamState(lr=1e-3)
            rng = np.random.default_rng(21)
            X = rng.normal(size=(32, cfg.in_dim))
            target = rng.normal(size=(32, cfg.out_channels))
            for _ in range(100):
                out, cache = ad.forward(cfg, params, X)
                d_out = 2.0 * (out - target) / out.size
                grads, _ = ad.backward(cfg, params, cache, d_out)
                ad.adam_step(state, dict(params.named()), dict(grads.named()))
            return params

        a = run()
        b = run()
        for (_, pa), (_, pb) in zip(a.named(), b.named()):
            assert np.array_equal(pa, pb)


class TestLatents:
    def test_init_distribution(self):
        table = ad.init_latents(["a", "b", "c"], np.random.default_rng(0))
        assert table.codes.shape == (3, 128)
        assert np.std(table.codes) == pytest.approx(0.01, rel=0.2)

    def test_mean_code(self):
        table = ad.LatentTable(np.array([[1.0, 3.0], [3.0, 5.0]]), ["a", "b"])
        assert np.array_equal(table.mean_code(), [2.0, 4.0])


def _edit_arrays(changes):
    """A manifest edit that updates each array record ``changes`` names."""

    def edit(m):
        for spec in m["arrays"]:
            spec.update(changes.get(spec["name"], {}))

    return edit


class TestCheckpoint:
    def _bundle(self, seed=0, with_adam=True):
        cfg, params = make_net(seed=seed)
        latents = ad.init_latents(["fam0", "fam1"], np.random.default_rng(seed + 1))
        adam = None
        if with_adam:
            adam = ad.AdamState(lr=1e-3)
            grads = {n: np.full_like(p, 0.25) for n, p in params.named()}
            ad.adam_step(adam, dict(params.named()), grads)
        return ad.ModelBundle(
            network=cfg,
            params=params,
            latents=latents,
            alphabet="AB",
            train_config={"note": "test"},
            epoch=7,
            adam=adam,
        )

    def test_save_load_save_byte_identical(self, tmp_path):
        bundle = self._bundle()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        ad.save_checkpoint(p1, bundle)
        loaded = ad.load_checkpoint(p1)
        ad.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_closes_the_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        ad.save_checkpoint(path, self._bundle())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            ad.load_checkpoint(path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_arrays_round_trip_exactly(self, tmp_path):
        bundle = self._bundle(seed=3)
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, bundle)
        loaded = ad.load_checkpoint(path)
        for (_, a), (_, b) in zip(bundle.params.named(), loaded.params.named()):
            assert np.array_equal(a, b)
        assert np.array_equal(bundle.latents.codes, loaded.latents.codes)
        assert loaded.epoch == 7
        assert loaded.adam.step_count == 1
        for name in bundle.adam.m:
            assert np.array_equal(bundle.adam.m[name], loaded.adam.m[name])

    def test_alphabet_mismatch(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, bundle)
        with pytest.raises(CheckpointError, match="alphabet"):
            ad.load_checkpoint(path, expect_alphabet="ABC")

    def test_truncated_payload(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, bundle)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            ad.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            ad.load_checkpoint(path)

    def test_manifest_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(ad.CKPT_MAGIC + (2).to_bytes(4, "little") + b"[]")
        with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
            ad.load_checkpoint(path)

    def test_shape_mismatch_detected(self, tmp_path):
        # corrupt the manifest's network config: width changes, arrays stay
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, self._bundle(with_adam=False))
        helpers.edit_checkpoint_manifest(path, lambda m: m["network"].update(width=32))
        with pytest.raises(CheckpointError):
            ad.load_checkpoint(path)


    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: m["network"].update(leaky_slope=0.0),
            lambda m: m["network"].update(bogus=1),
            lambda m: m.pop("network"),
        ],
    )
    def test_bad_network_description(self, tmp_path, corrupt):
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, self._bundle(with_adam=False))
        helpers.edit_checkpoint_manifest(path, corrupt)
        with pytest.raises(CheckpointError, match="bad network description"):
            ad.load_checkpoint(path)


    @pytest.mark.parametrize("entry", ["latents", "families", "arrays", "alphabet", "channels"])
    def test_missing_manifest_entry(self, tmp_path, entry):
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, self._bundle(with_adam=False))
        helpers.drop_checkpoint_entry(path, entry)
        with pytest.raises(CheckpointError, match=f"no '{entry}' entry"):
            ad.load_checkpoint(path)

    BAD_VALUES = [
        ("negative offset", lambda m: m["arrays"][1].update(offset=-8)),
        ("negative shape", lambda m: m["arrays"][0].update(shape=[-1, 16])),
        ("aa_k 0", lambda m: m.update(aa_k=0)),
        ("aa_k x", lambda m: m.update(aa_k="x")),
        ("aa_k Infinity", lambda m: m.update(aa_k=float("inf"))),
        ("train_width 4", lambda m: m.update(train_width=4)),
        ("alphabet 5", lambda m: m.update(alphabet=5)),
        ("alphabet AA", lambda m: m.update(alphabet="AA")),
        ("arrays [1]", lambda m: m.update(arrays=[1])),
        ("supervision bogus", lambda m: m.update(supervision="bogus")),
        ("channels 1 on a 3-channel network", lambda m: m.update(channels=1)),
        ("families 5", lambda m: m.update(families=5)),
        ("families [1]", lambda m: m.update(families=[1, "fam1"])),
        ("adam 5", lambda m: m.update(adam=5)),
        ("adam step_count 1.5", lambda m: m.update(
            adam={"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step_count": 1.5})),
        ("epoch x", lambda m: m.update(epoch="x")),
        ("epoch -1", lambda m: m.update(epoch=-1)),
        ("train_config 5", lambda m: m.update(train_config=5)),
        ("network hidden_layers 2.0", lambda m: m["network"].update(hidden_layers=2.0)),
        ("network hidden_layers 10**9", lambda m: m["network"].update(hidden_layers=10**9)),
        ("empty array with a huge dimension", lambda m: m["arrays"][0].update(shape=[0, 2**70])),
    ]

    @pytest.mark.parametrize("corrupt", [c[1] for c in BAD_VALUES], ids=[c[0] for c in BAD_VALUES])
    def test_bad_manifest_value(self, tmp_path, corrupt):
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, self._bundle(with_adam=False))
        helpers.edit_checkpoint_manifest(path, corrupt)
        with pytest.raises(CheckpointError):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        _edit_arrays({"adam.m.b0": {"shape": [8]}}),
        _edit_arrays({"adam.v.w1": {"name": "adam.v.w9"}}),
        _edit_arrays({"adam.m.b2": {"name": "adam.m.z5"}, "adam.v.b2": {"name": "adam.v.z5"}}),
    ], ids=["short moment", "moment without its pair", "moment of no parameter"])
    def test_adam_moments_must_fit_the_parameters(self, tmp_path, corrupt):
        # a moment that fits no parameter would fail only later, inside
        # adam_step on `train --resume`
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, self._bundle())
        helpers.edit_checkpoint_manifest(path, corrupt)
        with pytest.raises(CheckpointError, match="ADAM moments"):
            ad.load_checkpoint(path)

    def test_load_copies_the_payload_once(self, tmp_path):
        # the arrays are copied out of the file's bytes, not out of a copy of them
        cfg = ad.NetworkConfig(alphabet_size=2)
        params = ad.init_parameters(cfg, np.random.default_rng(0))
        adam = ad.AdamState()
        for name, p in params.named():
            adam.ensure(name, p)
        path = tmp_path / "big.ckpt"
        ad.save_checkpoint(path, ad.ModelBundle(
            network=cfg, params=params, alphabet="AB", adam=adam,
            latents=ad.init_latents(["fam"], np.random.default_rng(1)),
        ))
        tracemalloc.start()
        try:
            ad.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * path.stat().st_size

    def test_frozen_latents_of_older_checkpoints_ignored(self, tmp_path):
        # checkpoints written before the flag was dropped still load, and
        # saving them again writes the current manifest
        path = tmp_path / "x.ckpt"
        ad.save_checkpoint(path, self._bundle())
        current = path.read_bytes()
        helpers.edit_checkpoint_manifest(path, lambda m: m.update(frozen_latents=True))
        ad.save_checkpoint(path, ad.load_checkpoint(path))
        assert path.read_bytes() == current


DELETE = object()  # an edit that removes the entry


def _manifest_edits():
    """Edits of manifest entries: every top-level key, every key of the
    network and ADAM records and of one array record."""
    keys = ["format", "version", "alphabet", "families", "network", "channels", "aa_k",
            "train_width", "supervision", "train_config", "epoch", "adam", "arrays"]
    paths = [(k,) for k in keys]
    paths += [("network", k) for k in dataclasses.asdict(ad.NetworkConfig(alphabet_size=2))]
    paths += [("adam", k) for k in ("lr", "beta1", "beta2", "eps", "step_count")]
    paths += [("arrays", 1, k) for k in ("name", "shape", "offset", "dtype")]
    return st.lists(
        st.tuples(st.sampled_from(paths), st.just(DELETE) | helpers.json_values),
        min_size=1, max_size=3,
    )


def _apply(manifest, edits):
    """Set or remove each edited entry whose record an earlier edit left
    in place."""
    for path, value in edits:
        parent = manifest
        for key in path[:-1]:
            try:
                parent = parent[key]
            except (KeyError, IndexError, TypeError):
                parent = None
        if isinstance(parent, dict):
            if value is DELETE:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value


class TestCheckpointFuzz:
    @settings(max_examples=200, deadline=None)
    @given(edits=_manifest_edits())
    def test_edited_manifest_loads_or_raises_package_error(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            ad.save_checkpoint(path, TestCheckpoint()._bundle())
            helpers.edit_checkpoint_manifest(path, lambda m: _apply(m, edits))
            try:
                ad.load_checkpoint(path)
            except GlyphSdfError:
                pass


def test_assemble_inputs_layout():
    X = ad.assemble_inputs(np.array([[0.5, -0.5]]), label=1, z=np.arange(4.0), alphabet_size=3)
    assert X.shape == (1, 2 + 3 + 4)
    assert list(X[0, :2]) == [0.5, -0.5]
    assert list(X[0, 2:5]) == [0.0, 1.0, 0.0]
    assert list(X[0, 5:]) == [0.0, 1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# byte equality with the straightforward references in tests/helpers.py


@st.composite
def networks(draw):
    """A random small network with random biases, some hidden units with
    zero weights and bias (exact zero pre-activations), and an rng."""
    hidden = draw(st.integers(1, 4))
    cfg = ad.NetworkConfig(
        alphabet_size=draw(st.integers(1, 3)),
        hidden_layers=hidden,
        width=draw(st.integers(1, 24)),
        skip_layer=draw(st.integers(0, hidden - 1)),
        out_channels=draw(st.integers(1, 4)),
        leaky_slope=draw(st.sampled_from([0.01, 0.3, 1.0])),
        latent_dim=draw(st.integers(1, 6)),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = ad.init_parameters(cfg, rng)
    for l, b in enumerate(params.biases):
        b[:] = rng.normal(scale=0.5, size=b.shape)
        if l < hidden and draw(st.booleans()):
            unit = draw(st.integers(0, cfg.width - 1))
            params.weights[l][:, unit] = 0.0
            b[unit] = 0.0
    return cfg, params, rng


def _assert_params_equal(a, b):
    for (name, x), (_, y) in zip(a.named(), b.named()):
        assert np.array_equal(x, y), name


class TestReferenceEquality:
    @settings(max_examples=60, deadline=None)
    @given(networks(), st.integers(1, 40), st.booleans(), st.integers(1, 5))
    def test_forward_backward(self, net, rows, need_param_grads, block_rows):
        # blocks of 1-5 rows: the elementwise passes cross block edges
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "BLOCK_ROWS", block_rows)
            self._forward_backward(net, rows, need_param_grads)

    @pytest.mark.parametrize("seed", range(20))
    def test_one_wide_layer_below_the_skip(self, seed):
        # the layer below the skip writes dz into a contiguous buffer: the
        # strided left block of skip_in gave gw[0] other bits at width 1 for
        # about half of these seeds
        cfg = ad.NetworkConfig(alphabet_size=1, hidden_layers=2, width=1, skip_layer=1,
                               out_channels=1, latent_dim=2)
        rng = np.random.default_rng(seed)
        self._forward_backward((cfg, ad.init_parameters(cfg, rng), rng), 2, True)

    def _forward_backward(self, net, rows, need_param_grads):
        cfg, params, rng = net
        X = rng.normal(size=(rows, cfg.in_dim))
        X[rng.random(X.shape) < 0.1] = 0.0
        out, cache = ad.forward(cfg, params, X)
        ref_out, ref_cache = helpers.reference_forward(cfg, params, X)
        assert np.array_equal(out, ref_out)
        assert len(cache[0]) == rows
        for act, z in zip(cache[1], ref_cache[1]):
            assert np.array_equal(act >= 0, z >= 0)
        d_out = rng.normal(size=out.shape)
        grads, dX = ad.backward(cfg, params, cache, d_out, need_param_grads)
        ref_grads, ref_dX = helpers.reference_backward(
            cfg, params, ref_cache, d_out, need_param_grads
        )
        assert np.array_equal(dX, ref_dX)
        if need_param_grads:
            _assert_params_equal(grads, ref_grads)
        else:
            assert grads is None and ref_grads is None

    @settings(max_examples=40, deadline=None)
    @given(networks(), st.integers(1, 40), st.integers(1, 16))
    def test_evaluate(self, net, rows, chunk):
        cfg, params, rng = net
        pts = rng.uniform(-1.0, 1.0, size=(rows, 2))
        z = rng.normal(size=cfg.latent_dim)
        label = int(rng.integers(cfg.alphabet_size))
        with mock.patch.object(ad, "CHUNK_ROWS", chunk):
            out = ad.evaluate(cfg, params, pts, label, z)
        ref = helpers.reference_evaluate(cfg, params, pts, label, z, chunk=chunk)
        assert np.array_equal(out, ref)

    @settings(max_examples=30, deadline=None)
    @given(networks(), st.integers(1, 6))
    def test_adam_steps(self, net, steps):
        cfg, params, rng = net
        ref_params = params.copy()
        state = ad.AdamState(lr=1e-2)
        ref_state = ad.AdamState(lr=1e-2)
        for _ in range(steps):
            grads = {name: rng.normal(size=p.shape) for name, p in params.named()}
            grads["b0"][:] = 0.0
            ad.adam_step(state, dict(params.named()), grads)
            helpers.reference_adam_step(ref_state, dict(ref_params.named()), grads)
        _assert_params_equal(params, ref_params)
        for name in ref_state.m:
            assert np.array_equal(state.m[name], ref_state.m[name])
            assert np.array_equal(state.v[name], ref_state.v[name])


THREADS = (1, 2, 3)


def row_workers():
    """The live threads of the row threads' pool."""
    return {t for t in threading.enumerate() if t.name.startswith("glyphsdf-row")}


def _evaluate_case(cfg, rows, seed=0, chunk=ad.CHUNK_ROWS):
    """evaluate, in chunks of ``chunk`` rows, at each thread count of
    THREADS, and the reference on the same random parameters and points."""
    rng = np.random.default_rng(seed)
    params = ad.init_parameters(cfg, rng)
    for b in params.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    pts = rng.uniform(-1.0, 1.0, size=(rows, 2))
    z = rng.normal(scale=0.1, size=cfg.latent_dim)
    label = cfg.alphabet_size - 1
    outs = {}
    for threads in THREADS:
        with mock.patch.object(ad, "CHUNK_ROWS", chunk), \
                mock.patch.object(ad, "ROW_THREADS", threads):
            outs[threads] = ad.evaluate(cfg, params, pts, label, z)
    return outs, helpers.reference_evaluate(cfg, params, pts, label, z, chunk=chunk)


class TestEvaluateSubBlocks:
    """evaluate runs the hidden layers per sub-block, on ROW_THREADS
    threads, and the head per chunk; every output must keep the bits of
    whole-chunk evaluation at every thread count."""

    # 868 rows is the largest 3-channel head GEMM that OpenBLAS's
    # small-matrix kernel takes; 8192 + 89 and 2 * 8192 + 1030 end in a
    # short chunk; 2047 rows are one sub-block that takes the remainder
    @pytest.mark.parametrize("rows", [5, 868, 869, 2047, 8192 + 89, 2 * 8192 + 1030])
    @pytest.mark.parametrize("alphabet_size, channels", [(52, 3), (2, 1)])
    def test_production_network(self, alphabet_size, channels, rows):
        cfg = ad.NetworkConfig(alphabet_size=alphabet_size, out_channels=channels)
        for threads in THREADS:
            sub = ad.SUB_ROWS // threads
            assert len(ad._sub_blocks(cfg, 8192, sub)) == 8192 // sub
        outs, ref = _evaluate_case(cfg, rows)
        for threads, out in outs.items():
            assert np.array_equal(out, ref), threads

    # a hidden GEMM on SUB_ROWS // threads rows falls to the small-matrix
    # kernel below width 32 at one thread, 45 at two and 55 at three, so
    # those networks run each chunk whole
    @pytest.mark.parametrize("width", [*range(1, 34), 44, 45, 54, 55, 64])
    def test_hidden_width_sweep(self, width):
        cfg = ad.NetworkConfig(alphabet_size=2, hidden_layers=3, width=width, skip_layer=1)
        for threads, min_width in zip(THREADS, (32, 45, 55)):
            sub = ad.SUB_ROWS // threads
            assert (len(ad._sub_blocks(cfg, 3100, sub)) > 1) == (width >= min_width)
        for rows, chunk in [(1, 8192), (900, 8192), (2100, 8192), (3100, 8192), (3100, 2500)]:
            outs, ref = _evaluate_case(cfg, rows, seed=width, chunk=chunk)
            for threads, out in outs.items():
                assert np.array_equal(out, ref), (rows, chunk, threads)

    def test_peak_memory(self):
        # whole 8192-row chunks peak at about 100 MB of buffers here
        cfg = ad.NetworkConfig(alphabet_size=52)
        params = ad.init_parameters(cfg, np.random.default_rng(0))
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(16384, 2))
        for threads in THREADS:
            tracemalloc.start()
            try:
                with mock.patch.object(ad, "ROW_THREADS", threads):
                    ad.evaluate(cfg, params, pts, 0, np.zeros(cfg.latent_dim))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 45e6, threads

    def test_more_threads_than_cpus_switching_often(self):
        # six threads write disjoint rows of one shared chunk buffer, with a
        # thread switch every microsecond of Python code
        cfg = ad.NetworkConfig(alphabet_size=2)
        rng = np.random.default_rng(2)
        params = ad.init_parameters(cfg, rng)
        pts = rng.uniform(-1.0, 1.0, size=(2 * 8192 + 1030, 2))
        z = rng.normal(scale=0.1, size=cfg.latent_dim)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(ad, "ROW_THREADS", 6):
                out = ad.evaluate(cfg, params, pts, 1, z)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, helpers.reference_evaluate(cfg, params, pts, 1, z))

    def test_worker_error_reaches_caller(self):
        cfg = ad.NetworkConfig(alphabet_size=2)
        params = ad.init_parameters(cfg, np.random.default_rng(0))
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(4096, 2))
        z = np.zeros(cfg.latent_dim)
        hidden_layers = ad._hidden_layers

        def fail_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return hidden_layers(*args)

        with mock.patch.object(ad, "ROW_THREADS", 2):
            with mock.patch.object(ad, "_hidden_layers", fail_off_the_main_thread):
                with pytest.raises(RuntimeError, match="worker failed"):
                    ad.evaluate(cfg, params, pts, 0, z)
            # the pool outlives the error: the next call runs on its worker
            workers = row_workers()
            out = ad.evaluate(cfg, params, pts, 0, z)
            assert row_workers() == workers and len(workers) == 1
        assert np.array_equal(out, helpers.reference_evaluate(cfg, params, pts, 0, z))


def _production_case(alphabet_size, rows, seed=0):
    """The default 8x384 network with random biases, and random rows."""
    cfg = ad.NetworkConfig(alphabet_size=alphabet_size)
    rng = np.random.default_rng(seed)
    params = ad.init_parameters(cfg, rng)
    for b in params.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    X = rng.normal(size=(rows, cfg.in_dim))
    d_out = rng.normal(size=(rows, cfg.out_channels))
    return cfg, params, X, d_out


class TestBackwardInPlace:
    """backward writes each layer's gradient over its cached activation and
    releases it; the production network must keep the reference's bits at
    every row-thread count."""

    # a training step at width 64 has 1,895 rows and the benchmark's fit
    # 608; OpenBLAS's small-matrix kernel takes a hidden GEMM on up to 6
    # rows and, at alphabet 5, the first layer's on up to 19; the odd row
    # counts put a cut between row parts away from every kernel unroll
    @pytest.mark.parametrize("need_param_grads", [True, False])
    @pytest.mark.parametrize("rows", [1, 6, 19, 20, 448, 614, 615, 777, 1895, 2049])
    @pytest.mark.parametrize("alphabet_size", [5, 52])
    def test_production_network(self, alphabet_size, rows, need_param_grads):
        cfg, params, X, d_out = _production_case(alphabet_size, rows)
        ref_out, ref_cache = helpers.reference_forward(cfg, params, X)
        ref_grads, ref_dX = helpers.reference_backward(
            cfg, params, ref_cache, d_out, need_param_grads
        )
        for threads in THREADS:
            with mock.patch.object(ad, "ROW_THREADS", threads):
                out, cache = ad.forward(cfg, params, X)
                grads, dX = ad.backward(cfg, params, cache, d_out, need_param_grads)
            assert np.array_equal(out, ref_out), threads
            assert np.array_equal(dX, ref_dX), threads
            if need_param_grads:
                _assert_params_equal(grads, ref_grads)
            else:
                assert grads is None

    def test_peak_memory(self):
        # with every activation alive to the end and a separate dz buffer,
        # one step peaked at about 82 MB here
        cfg, params, X, d_out = _production_case(5, 1895)
        for threads in THREADS:
            tracemalloc.start()
            try:
                with mock.patch.object(ad, "ROW_THREADS", threads):
                    _, cache = ad.forward(cfg, params, X)
                    ad.backward(cfg, params, cache, d_out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 60e6, threads


class TestRowPool:
    """The row threads run on one pool per process, kept from call to call;
    run each of these tests in a fresh interpreter too, where no earlier
    test has opened the pool."""

    def test_pool_follows_row_threads(self):
        cfg, params, X, d_out = _production_case(5, 1895, seed=4)
        ref_out, ref_cache = helpers.reference_forward(cfg, params, X)
        ref_grads, ref_dX = helpers.reference_backward(cfg, params, ref_cache, d_out)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3000, 2))
        z = np.zeros(cfg.latent_dim)
        ref_eval = helpers.reference_evaluate(cfg, params, pts, 1, z)
        for threads in (2, 3, 1):
            with mock.patch.object(ad, "ROW_THREADS", threads):
                for call in range(2):
                    out, cache = ad.forward(cfg, params, X)
                    grads, dX = ad.backward(cfg, params, cache, d_out)
                    evaluated = ad.evaluate(cfg, params, pts, 1, z)
                    assert np.array_equal(out, ref_out), threads
                    assert np.array_equal(dX, ref_dX), threads
                    _assert_params_equal(grads, ref_grads)
                    assert np.array_equal(evaluated, ref_eval), threads
                    # the second round starts no thread: the same workers run it
                    if call == 0:
                        workers = row_workers()
                    assert row_workers() == workers, threads
            assert len(workers) == threads - 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork outside POSIX")
    # Python 3.12 warns that a fork with threads alive may deadlock the child,
    # which is what this test checks does not happen
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_opens_its_own_pool(self):
        cfg = ad.NetworkConfig(alphabet_size=2)
        rng = np.random.default_rng(6)
        params = ad.init_parameters(cfg, rng)
        pts = rng.uniform(-1.0, 1.0, size=(2048, 2))
        z = rng.normal(scale=0.1, size=cfg.latent_dim)
        ref = helpers.reference_evaluate(cfg, params, pts, 1, z)

        def evaluate_in_child():
            sys.exit(0 if np.array_equal(ad.evaluate(cfg, params, pts, 1, z), ref) else 1)

        with mock.patch.object(ad, "ROW_THREADS", 2):
            assert np.array_equal(ad.evaluate(cfg, params, pts, 1, z), ref)
            assert len(row_workers()) == 1
            child = multiprocessing.get_context("fork").Process(target=evaluate_in_child)
            child.start()
            try:
                child.join(timeout=60)
                assert not child.is_alive(), "the forked child hung"
            finally:
                child.kill()
                child.join()
        assert child.exitcode == 0


@st.composite
def network_shapes(draw):
    """A network description of any shape, from one unit wide to wider
    than production."""
    hidden = draw(st.integers(1, 10))
    return ad.NetworkConfig(
        alphabet_size=draw(st.integers(1, 60)),
        hidden_layers=hidden,
        width=draw(st.integers(1, 2048)),
        skip_layer=draw(st.integers(0, hidden - 1)),
        out_channels=draw(st.integers(1, 4)),
        latent_dim=draw(st.integers(1, 256)),
    )


class TestForwardBackwardThreads:
    """forward, evaluate and backward split their rows over the row threads
    by one rule; a failing thread and a busy scheduler must not show."""

    def test_row_parts(self):
        cfg = ad.NetworkConfig(alphabet_size=5)
        with mock.patch.object(ad, "ROW_THREADS", 2):
            # a block of 19 rows would take the small-matrix kernel at layer 0
            assert ad._row_parts(cfg, 39) == [slice(0, 39)]
            assert ad._row_parts(cfg, 40) == [slice(0, 20), slice(20, 40)]
            # the benchmark's fit, and two blocks per SUB_ROWS rows, rounded
            # up, for a training batch, a tail chunk and a full chunk
            assert ad._row_parts(cfg, 608) == [slice(0, 304), slice(304, 608)]
            assert ad._row_parts(cfg, 1895) == [
                slice(0, 473), slice(473, 946), slice(946, 1419), slice(1419, 1895)
            ]
            assert ad._row_parts(cfg, 1808) == [slice(s, s + 452) for s in range(0, 1808, 452)]
            assert ad._row_parts(cfg, 8192) == [slice(s, s + 512) for s in range(0, 8192, 512)]
        with mock.patch.object(ad, "ROW_THREADS", 1):
            assert ad._row_parts(cfg, 1895) == [slice(0, 947), slice(947, 1895)]
            assert ad._row_parts(cfg, 608) == [slice(0, 608)]

    @settings(max_examples=300, deadline=None)
    @given(network_shapes(), st.integers(1, 20_000), st.integers(1, 3))
    def test_row_parts_cover_the_rows_above_the_small_kernel(self, cfg, m, threads):
        with mock.patch.object(ad, "ROW_THREADS", threads):
            parts = ad._row_parts(cfg, m)
        assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
        assert parts[-1].stop == m
        if len(parts) > 1:
            rows = min(p.stop - p.start for p in parts)
            assert all(rows * k * n > ad.SMALL_GEMM for k, n in cfg.layer_dims()[:-1])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([5, 52]), st.integers(1, 20_000), st.integers(1, 3))
    def test_row_parts_of_the_production_network(self, alphabet_size, m, threads):
        # a very wide network can take 1-row blocks, and then m = 5 at three
        # threads gives 5 blocks; the production network's stay above 19 rows
        cfg = ad.NetworkConfig(alphabet_size=alphabet_size)
        with mock.patch.object(ad, "ROW_THREADS", threads):
            parts = ad._row_parts(cfg, m)
        assert len(parts) <= threads * -(-m // ad.SUB_ROWS)

    def test_one_task_starts_no_thread(self):
        threads_before = set(threading.enumerate())
        no_pool = mock.Mock(side_effect=AssertionError("a pool was opened"))
        with mock.patch.object(ad, "ROW_THREADS", 2), \
                mock.patch.object(ad, "ThreadPoolExecutor", no_pool):
            assert ad._in_threads([lambda: 7]) == [7]
            cfg, params, X, d_out = _production_case(5, 19)
            _, cache = ad.forward(cfg, params, X)
            ad.backward(cfg, params, cache, d_out, need_param_grads=False)
        # a pool kept from an earlier call may stay, or go if its size differs
        assert set(threading.enumerate()) <= threads_before
        with mock.patch.object(ad, "ROW_THREADS", 1), \
                mock.patch.object(ad, "ThreadPoolExecutor", no_pool):
            assert ad._in_threads([lambda: 1, lambda: 2]) == [1, 2]
        assert row_workers() == set()

    def test_no_thread_but_the_calling_one_allocates(self):
        # off the calling thread every numpy call must write into an out=
        # array: one without it, np.empty included, allocates
        calls = []

        class RecordingNumpy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if not callable(attr) or isinstance(attr, type):
                    return attr

                def call(*args, **kwargs):
                    if threading.current_thread() is not threading.main_thread():
                        calls.append((name, "out" in kwargs))
                    return attr(*args, **kwargs)

                return call

        cfg, params, X, d_out = _production_case(5, 1895)
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(4096, 2))
        grads = {name: np.full_like(w, 0.25) for name, w in params.named()}
        with mock.patch.object(ad, "ROW_THREADS", 2), \
                mock.patch.object(ad, "np", RecordingNumpy()):
            for need_param_grads in (True, False):
                _, cache = ad.forward(cfg, params, X)
                ad.backward(cfg, params, cache, d_out, need_param_grads)
            ad.evaluate(cfg, params, pts, 0, np.zeros(cfg.latent_dim))
            ad.adam_step(ad.AdamState(), dict(params.named()), grads)
        assert {name for name, _ in calls} >= {"matmul", "multiply", "sqrt"}
        assert [name for name, out in calls if not out] == []

    def test_forward_worker_error_reaches_caller(self):
        cfg, params, X, _ = _production_case(5, 1895)
        hidden_layers = ad._hidden_layers

        def fail_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return hidden_layers(*args)

        with mock.patch.object(ad, "ROW_THREADS", 2):
            with mock.patch.object(ad, "_hidden_layers", fail_off_the_main_thread):
                with pytest.raises(RuntimeError, match="worker failed"):
                    ad.forward(cfg, params, X)
            workers = row_workers()
            out, _ = ad.forward(cfg, params, X)
            assert row_workers() == workers and len(workers) == 1
        assert np.array_equal(out, helpers.reference_forward(cfg, params, X)[0])

    @pytest.mark.parametrize("need_param_grads", [True, False])
    def test_backward_worker_error_reaches_caller(self, need_param_grads):
        # the second thread runs a matrix product in either mode: an input
        # gradient beside the weight gradient, or the rows of one
        cfg, params, X, d_out = _production_case(5, 1895)
        with mock.patch.object(ad, "ROW_THREADS", 2):
            _, cache = ad.forward(cfg, params, X)
        workers = row_workers()

        class FailingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("worker failed")
                return np.matmul(*args, **kwargs)

        with mock.patch.object(ad, "ROW_THREADS", 2), \
                mock.patch.object(ad, "np", FailingNumpy()):
            with pytest.raises(RuntimeError, match="worker failed"):
                ad.backward(cfg, params, cache, d_out, need_param_grads)
        with mock.patch.object(ad, "ROW_THREADS", 2):
            _, cache = ad.forward(cfg, params, X)
            grads, dX = ad.backward(cfg, params, cache, d_out, need_param_grads)
        assert row_workers() == workers and len(workers) == 1
        ref_grads, ref_dX = helpers.reference_backward(
            cfg, params, helpers.reference_forward(cfg, params, X)[1], d_out, need_param_grads
        )
        assert np.array_equal(dX, ref_dX)
        if need_param_grads:
            _assert_params_equal(grads, ref_grads)

    @pytest.mark.parametrize("need_param_grads", [True, False])
    def test_more_threads_than_cpus_switching_often(self, need_param_grads):
        # six threads write disjoint rows of shared buffers, with a thread
        # switch every microsecond of Python code
        cfg, params, X, d_out = _production_case(5, 1895, seed=3)
        ref_out, ref_cache = helpers.reference_forward(cfg, params, X)
        ref_grads, ref_dX = helpers.reference_backward(
            cfg, params, ref_cache, d_out, need_param_grads
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(ad, "ROW_THREADS", 6):
                out, cache = ad.forward(cfg, params, X)
                grads, dX = ad.backward(cfg, params, cache, d_out, need_param_grads)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dX, ref_dX)
        if need_param_grads:
            _assert_params_equal(grads, ref_grads)
