import dataclasses
from unittest import mock

import numpy as np
import pytest

from glyphsdf import autodecoder as ad
from glyphsdf import field, geometry, sampling, templates, training
from glyphsdf.config import FieldSettings, TrainSettings
from glyphsdf.training import (
    LossWeights, WarmupSchedule, fit_latent, prepare_glyph, total_loss, train,
)

from gradcheck import relative_errors
from helpers import (
    reference_compose_train, reference_loss_eikonal, reference_loss_global, square_glyph,
)

LATENT = ad.LATENT_DIM


def tiny_net(seed=0, out_channels=3, alphabet_size=2, scale=1.0):
    cfg = ad.NetworkConfig(
        alphabet_size=alphabet_size,
        hidden_layers=2,
        width=16,
        skip_layer=1,
        out_channels=out_channels,
    )
    params = ad.init_parameters(cfg, np.random.default_rng(seed))
    if scale != 1.0:
        for w in params.weights:
            w *= scale
    return cfg, params


def small_sample_set(glyph=None, width=24, gamma=0.3, seed=0):
    glyph = glyph or square_glyph()
    sdf = geometry.sdf_grid(glyph, width)
    image = field.kernel(sdf, gamma)
    tpls = templates.build_templates(glyph, width)
    cfg = sampling.SampleConfig(min_homogeneous=16, seed=seed)
    return sampling.sample_glyph(glyph, image, sdf, tpls, gamma, cfg), tpls


class TestLossPieces:
    """The reference loss terms against hand values, then the network's
    eikonal term on an exactly linear field."""

    def test_loss_global_examples(self):
        assert reference_loss_global(np.array([0.2, 0.8]), np.array([0.2, 0.8])) == 0.0
        assert reference_loss_global(np.full(10, 0.5), np.concatenate([np.zeros(5), np.ones(5)])) == pytest.approx(0.25)

    def test_loss_global_matches_direct_recomputation(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(0, 1, 100)
        tgt = rng.uniform(0, 1, 100)
        direct = sum((p - t) ** 2 for p, t in zip(pred, tgt)) / 100
        assert reference_loss_global(pred, tgt) == pytest.approx(direct, abs=1e-12)

    def test_loss_eikonal_branches(self):
        unit = np.zeros((4, 3, 2)); unit[..., 0] = 1.0
        assert reference_loss_eikonal(unit) == 0.0
        half = np.zeros((4, 3, 2)); half[..., 0] = 0.5
        assert reference_loss_eikonal(half) == pytest.approx(0.5)
        two = np.zeros((4, 3, 2)); two[..., 1] = 2.0
        assert reference_loss_eikonal(two) == 0.0

    def test_eikonal_zero_for_exact_linear_field(self):
        # a LeakyReLU pair encodes d(x, y) = x exactly, so the stencil sees
        # a unit gradient everywhere and the penalty vanishes
        cfg = ad.NetworkConfig(
            alphabet_size=1, hidden_layers=1, width=2, skip_layer=0, out_channels=1
        )
        params = ad.init_parameters(cfg, np.random.default_rng(0))
        params.weights[0][:] = 0.0
        params.weights[0][0, 0] = 1.0   # unit 0 sees +x
        params.weights[0][0, 1] = -1.0  # unit 1 sees -x
        params.biases[0][:] = 0.0
        s = 1.0 + cfg.leaky_slope
        params.weights[1][:, 0] = [1.0 / s, -1.0 / s]
        params.biases[1][:] = 0.0
        sample_set, _ = small_sample_set()
        terms, grads, dz = total_loss(
            cfg, params, np.zeros(LATENT), 0, sample_set, [],
            gamma=0.3, composer="mean", weights=LossWeights(0.0, 1.0, 0.0),
            train_width=24,
        )
        assert terms.grad <= 1e-3


class TestTotalLossGradients:
    """Finite-difference oracle for each loss term on a 2x16 network.

    See tests/gradcheck.py: parameters whose +-h stencil crosses a
    piecewise-linear kink (LeakyReLU zero, kernel band edge, median tie,
    eikonal hinge, assignment switch) are skipped; the skip rate must stay
    marginal and every valid check must agree to 1e-3 relative error.
    """

    def setup_method(self):
        self.cfg, self.params = tiny_net(seed=42, scale=0.4)
        self.z = np.random.default_rng(43).normal(0, 0.1, LATENT)
        # a small grid keeps the number of forward rows low, which keeps the
        # chance of a kink inside any +-h stencil (and hence the skip rate)
        # marginal
        self.sample_set, self.tpls = small_sample_set(width=12, seed=7)

    def _run(self, weights, composer, tpls=(), **kw):
        errs, checked, skipped = relative_errors(
            self.cfg, self.params, self.z, 0, self.sample_set, list(tpls),
            weights, composer, **kw,
        )
        assert checked > 80
        assert skipped <= 0.2 * (checked + skipped)
        assert errs.max() < 1e-3

    def test_global_term_mean_composer(self):
        self._run(LossWeights(0.0, 0.0, 0.0), "mean")

    def test_global_term_median_pair_composer(self):
        self._run(LossWeights(0.0, 0.0, 0.0), "median_pair")

    def test_corner_term(self):
        self._run(LossWeights(1.0, 0.0, 0.0), "mean", tpls=self.tpls)

    def test_eikonal_term(self):
        rows = np.arange(0, len(self.sample_set), 7)
        self._run(LossWeights(0.0, 1.0, 0.0), "mean", eikonal_rows=rows)

    def test_latent_norm_term(self):
        self._run(LossWeights(0.0, 0.0, 1.0), "mean")

    def test_all_terms_together(self):
        self._run(
            LossWeights(1.0, 0.01, 1e-4), "median_pair", tpls=self.tpls,
            eikonal_rows=np.arange(0, len(self.sample_set), 5),
        )

    def test_pixel_supervision_gradients(self):
        self._run(
            LossWeights(1.0, 0.0, 1e-4), "mean", tpls=self.tpls,
            supervision="pixel",
        )


class TestTotalLossContracts:
    def test_zero_weights_reduce_to_global(self):
        cfg, params = tiny_net(seed=1)
        z = np.random.default_rng(2).normal(0, 0.1, LATENT)
        sample_set, tpls = small_sample_set()
        terms, _, _ = total_loss(
            cfg, params, z, 0, sample_set, tpls,
            gamma=0.3, composer="mean", weights=LossWeights(0.0, 0.0, 0.0),
            train_width=24,
        )
        assert terms.total == terms.global_

    def test_zero_latent_kills_norm_term(self):
        cfg, params = tiny_net(seed=3)
        sample_set, _ = small_sample_set()
        terms, _, dz = total_loss(
            cfg, params, np.zeros(LATENT), 0, sample_set, [],
            gamma=0.3, composer="mean", weights=LossWeights(0.0, 0.0, 5.0),
            train_width=24,
        )
        assert terms.latent_norm == 0.0

    def test_stencil_keeps_the_bits_of_the_unmoved_coordinate(self, monkeypatch):
        # each stencil point moves one coordinate by h; the other keeps the
        # bits that subtracting (h, 0) or (0, h) leaves, signed zeros included
        cfg, params = tiny_net(seed=6)
        sample_set, tpls = small_sample_set()
        pos = sample_set.positions.copy()
        pos[:4] = [[-0.0, 0.5], [0.5, -0.0], [0.0, -0.0], [-0.0, 0.0]]
        sample_set = dataclasses.replace(sample_set, positions=pos)
        seen = []
        assemble = ad.assemble_inputs
        monkeypatch.setattr(
            ad, "assemble_inputs", lambda pts, *rest: seen.append(pts) or assemble(pts, *rest)
        )
        total_loss(
            cfg, params, np.zeros(LATENT), 0, sample_set, tpls,
            gamma=0.3, composer="mean", weights=LossWeights(), train_width=24,
        )
        h = 1.0 / 48.0
        want = np.concatenate(
            [pos, pos + [h, 0.0], pos - [h, 0.0], pos + [0.0, h], pos - [0.0, h]]
        )
        assert seen[0].tobytes() == want.tobytes()

    def test_terms_sum_matches_independent_evaluation(self):
        cfg, params = tiny_net(seed=4)
        z = np.random.default_rng(5).normal(0, 0.1, LATENT)
        sample_set, tpls = small_sample_set(seed=3)
        w = LossWeights(0.7, 0.2, 0.05)
        rows = np.arange(0, len(sample_set), 3)
        terms, _, _ = total_loss(
            cfg, params, z, 0, sample_set, tpls,
            gamma=0.37, composer="median_pair", weights=w, train_width=24,
            eikonal_rows=rows,
        )
        # recompute each piece independently
        out = ad.evaluate(cfg, params, sample_set.positions, 0, z)
        C = field.kernel(out, 0.37)
        composed = reference_compose_train(C, "median_pair")
        g = reference_loss_global(composed, sample_set.targets)
        local = np.mean(
            [
                templates.corner_loss_grad(C[r], t, 0.37)[0]
                for t, r in zip(tpls, sample_set.template_rows)
            ]
        )
        h = 1.0 / 48.0
        p = sample_set.positions[rows]
        gx = (
            ad.evaluate(cfg, params, p + [h, 0], 0, z)
            - ad.evaluate(cfg, params, p - [h, 0], 0, z)
        ) / (2 * h)
        gy = (
            ad.evaluate(cfg, params, p + [0, h], 0, z)
            - ad.evaluate(cfg, params, p - [0, h], 0, z)
        ) / (2 * h)
        eik = reference_loss_eikonal(np.stack([gx, gy], axis=-1))
        expected = g + w.alpha * local + w.beta * eik + w.gamma_reg * np.linalg.norm(z)
        assert terms.total == pytest.approx(expected, abs=1e-12)


class TestWarmup:
    def test_endpoints_and_monotonicity(self):
        s = WarmupSchedule(gamma_end=4 / 64, gamma_start=1.0, anneal_epochs=1000)
        assert s.gamma(0) == 1.0
        assert s.gamma(1000) == 4 / 64
        assert s.gamma(5000) == 4 / 64
        gs = [s.gamma(e) for e in range(0, 1100, 50)]
        assert all(a >= b for a, b in zip(gs, gs[1:]))

    def test_composer_switch(self):
        s = WarmupSchedule(gamma_end=0.1, anneal_epochs=10)
        assert s.composer(0) == "mean"
        assert s.composer(9) == "mean"
        assert s.composer(10) == "median_pair"

    def test_disabled_warmup(self):
        s = WarmupSchedule(gamma_end=0.1, anneal_epochs=0)
        assert s.gamma(0) == 0.1
        assert s.composer(0) == "median_pair"


def desk_dataset(width=24):
    fs = FieldSettings(train_width=width)
    g = square_glyph(label=0)
    return [prepare_glyph(g, "fam", 0, 0, fs)], fs


class TestTrainLoop:
    def test_empty_dataset_rejected(self):
        _, fs = desk_dataset()
        with pytest.raises(ValueError, match="empty"):
            train([], "A", fs, TrainSettings(epochs=1))

    def test_loss_decreases_on_desk_run(self):
        dataset, fs = desk_dataset()
        ts = TrainSettings(
            epochs=120, seed=0, anneal_epochs=40, min_homogeneous=16, threads=1
        )
        bundle, rows = train(dataset, "A", fs, ts)
        losses = [r["loss_total"] for r in rows]
        first = np.median(losses[:12])
        last = np.median(losses[-12:])
        assert last < first

    def test_same_seed_identical_logs(self):
        dataset, fs = desk_dataset()
        ts = TrainSettings(epochs=12, seed=5, anneal_epochs=6, min_homogeneous=16, threads=1)
        _, rows1 = train(dataset, "A", fs, ts)
        _, rows2 = train(dataset, "A", fs, ts)
        assert rows1 == rows2

    def test_latents_freeze_after_epoch(self):
        # after the freeze epoch the codes never move again, so training 5
        # epochs and 10 epochs (both freezing at 4) must agree bit-exactly
        dataset, fs = desk_dataset()
        common = dict(seed=1, freeze_epoch=4, anneal_epochs=0, min_homogeneous=16, threads=1)
        b5, _ = train(dataset, "A", fs, TrainSettings(epochs=5, **common))
        b10, _ = train(dataset, "A", fs, TrainSettings(epochs=10, **common))
        assert np.array_equal(b5.latents.codes, b10.latents.codes)
        # and without freezing they would have kept moving
        b10_free, _ = train(
            dataset, "A", fs,
            TrainSettings(epochs=10, seed=1, anneal_epochs=0, min_homogeneous=16, threads=1),
        )
        assert not np.array_equal(b10_free.latents.codes, b10.latents.codes)

    def test_resume_matches_uninterrupted(self, tmp_path):
        dataset, fs = desk_dataset()
        full = TrainSettings(epochs=8, seed=9, anneal_epochs=4, min_homogeneous=16, threads=1)
        half = TrainSettings(epochs=4, seed=9, anneal_epochs=4, min_homogeneous=16, threads=1)
        b_full, _ = train(dataset, "A", fs, full)
        b_half, _ = train(dataset, "A", fs, half)
        path = tmp_path / "half.ckpt"
        ad.save_checkpoint(path, b_half)
        resumed = ad.load_checkpoint(path)
        b_res, _ = train(dataset, "A", fs, full, resume=resumed)
        for (_, a), (_, b) in zip(b_full.params.named(), b_res.params.named()):
            assert np.array_equal(a, b)
        assert np.array_equal(b_full.latents.codes, b_res.latents.codes)

    def test_divergence_aborts_with_last_good(self, monkeypatch):
        # corrupt the rebuilt sample targets at the fourth anneal step: the
        # loss turns NaN and training must abort carrying the last complete
        # epoch's state
        dataset, fs = desk_dataset()
        real_cache = training._glyph_cache
        calls = {"n": 0}

        def flaky(prepared, gamma, rho, min_h, seed, gi):
            s = real_cache(prepared, gamma, rho, min_h, seed, gi)
            calls["n"] += 1
            if calls["n"] >= 4:
                s.targets[:] = np.nan
            return s

        monkeypatch.setattr(training, "_glyph_cache", flaky)
        ts = TrainSettings(
            epochs=10, seed=2, anneal_epochs=6, min_homogeneous=16, threads=1
        )
        with pytest.raises(training.TrainingDiverged) as info:
            train(dataset, "A", fs, ts)
        assert info.value.epoch == 3
        assert info.value.bundle is not None
        assert info.value.bundle.epoch == 3  # three complete epochs banked

    def _eikonal_rows_and_log(self, monkeypatch, ratio):
        # the eikonal_rows train hands total_loss each step, and its log
        real, seen = training.total_loss, []

        def recording(*args, **kwargs):
            seen.append(kwargs["eikonal_rows"])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "total_loss", recording)
        dataset, fs = desk_dataset()
        ts = TrainSettings(
            epochs=4, seed=4, anneal_epochs=2, min_homogeneous=16, threads=1,
            eikonal_ratio=ratio,
        )
        _, rows = train(dataset, "A", fs, ts)
        assert len(seen) == 4
        return seen, rows

    def test_eikonal_ratio_one_puts_the_stencil_on_every_row(self, monkeypatch):
        seen, rows = self._eikonal_rows_and_log(monkeypatch, 1.0)
        assert all(rows_ is None for rows_ in seen)  # None: every row
        assert all(row["loss_grad"] > 0.0 for row in rows)

    def test_eikonal_ratio_zero_puts_the_stencil_on_no_row(self, monkeypatch):
        seen, rows = self._eikonal_rows_and_log(monkeypatch, 0.0)
        assert all(len(rows_) == 0 for rows_ in seen)
        assert all(row["loss_grad"] == 0.0 for row in rows)


class TestFitLatent:
    def _trained(self):
        dataset, fs = desk_dataset()
        ts = TrainSettings(epochs=60, seed=3, anneal_epochs=20, min_homogeneous=16, threads=1)
        bundle, _ = train(dataset, "A", fs, ts)
        return bundle, dataset[0]

    def test_fully_masked_target_is_rejected(self):
        bundle, _ = self._trained()
        mask = np.ones((24, 24), dtype=bool)
        with pytest.raises(ValueError, match="hides every pixel"):
            fit_latent(bundle, np.zeros((24, 24)), 0, TrainSettings(), mask=mask)

    def test_mask_dimension_mismatch(self):
        bundle, _ = self._trained()
        with pytest.raises(ValueError, match="mask shape"):
            fit_latent(
                bundle, np.zeros((24, 24)), 0, TrainSettings(), mask=np.ones((8, 8), dtype=bool)
            )

    def test_label_validation(self):
        bundle, _ = self._trained()
        with pytest.raises(ValueError, match="label"):
            fit_latent(bundle, np.zeros((24, 24)), 5, TrainSettings())

    def test_deterministic(self):
        bundle, prepared = self._trained()
        target = field.kernel(prepared.sdf, bundle.aa_k / 24)
        z1, _ = fit_latent(bundle, target, 0, TrainSettings(fit_steps=50))
        z2, _ = fit_latent(bundle, target, 0, TrainSettings(fit_steps=50))
        assert np.array_equal(z1, z2)

    def test_large_target_fits_a_seeded_subsample(self, monkeypatch):
        # 96x96 is 9,216 pixels; with 8 columns masked 8,448 remain, above
        # FIT_MAX_POINTS, so the fit takes a seeded 8,192 of them
        dataset, fs = desk_dataset()
        ts = TrainSettings(epochs=1, seed=3, anneal_epochs=0, min_homogeneous=16, threads=1)
        bundle, _ = train(dataset, "A", fs, ts)
        target = np.random.default_rng(0).uniform(size=(96, 96))
        mask = np.zeros((96, 96), dtype=bool)
        mask[:, :8] = True
        real, seen = training.total_loss, []

        def recording(net, params, z, label, samples, *args, **kwargs):
            seen.append(samples.positions.copy())
            return real(net, params, z, label, samples, *args, **kwargs)

        monkeypatch.setattr(training, "total_loss", recording)
        for seed in (5, 5, 6):
            fit_latent(bundle, target, 0, TrainSettings(fit_steps=1, seed=seed), mask=mask)
        pixel = {tuple(c): i for i, c in enumerate(geometry.pixel_centers(96).reshape(-1, 2))}
        used = [pixel[tuple(p)] for p in seen[0]]
        assert len(used) == len(set(used)) == 8192
        assert not mask.reshape(-1)[used].any()
        assert np.array_equal(seen[0], seen[1])
        assert not np.array_equal(seen[0], seen[2])

    def test_fit_bits_do_not_depend_on_the_row_threads(self):
        # the benchmark's fit shape: a 32 px target with its right 40%
        # masked leaves 608 rows, which the production network splits in
        # row parts at two threads or more
        cfg = ad.NetworkConfig(alphabet_size=5)
        rng = np.random.default_rng(7)
        bundle = ad.ModelBundle(
            network=cfg, params=ad.init_parameters(cfg, rng),
            latents=ad.init_latents(["a", "b"], rng), alphabet="ABCDE",
        )
        target = rng.uniform(size=(32, 32))
        mask = np.zeros((32, 32), dtype=bool)
        mask[:, int(32 * 0.6):] = True
        assert (~mask).sum() == 608
        fits = []
        for threads in (1, 2, 3):
            with mock.patch.object(ad, "ROW_THREADS", threads):
                assert len(ad._row_parts(cfg, 608)) == threads
                fits.append(fit_latent(bundle, target, 2, TrainSettings(fit_steps=4), mask=mask))
        for z, history in fits[1:]:
            assert np.array_equal(z, fits[0][0])
            assert history == fits[0][1]
