"""Loss assembly and the training loop.

The total objective is

    global + alpha * corner + beta * gradient_norm + gamma_reg * ||z||_2

evaluated over one glyph's sample set per optimizer step.  During warm-up
the anti-alias range anneals log-linearly from the full field range down
to aa_k / train_width while the channel composition is the plain mean;
afterwards it switches to the median-pair surrogate.  Ground-truth rasters
and sample sets are rebuilt whenever the anti-alias range changes so the
prediction and target always share the same blur scale.

Defaults live in :mod:`glyphsdf.config`: :func:`train` and
:func:`fit_latent` take its settings, and the dataclasses here default to
its fields.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import autodecoder as ad
from . import geometry, templates as templates_mod
from .config import FieldSettings, TrainSettings
from .errors import ConfigError, NumericalError
from .field import compose_train_grad, kernel, kernel_grad
from .sampling import SampleConfig, SampleSet, sample_glyph


@dataclass
class LossWeights:
    alpha: float = TrainSettings.alpha
    beta: float = TrainSettings.beta
    gamma_reg: float = TrainSettings.gamma_reg


@dataclass
class WarmupSchedule:
    """Log-linear anneal of the anti-alias range, mean composer while hot."""

    gamma_end: float
    gamma_start: float = TrainSettings.gamma_start
    anneal_epochs: int = 0

    def gamma(self, epoch):
        if self.anneal_epochs <= 0 or epoch >= self.anneal_epochs:
            return self.gamma_end
        frac = epoch / self.anneal_epochs
        return self.gamma_start * (self.gamma_end / self.gamma_start) ** frac

    def composer(self, epoch):
        if self.anneal_epochs > 0 and epoch < self.anneal_epochs:
            return "mean"
        return "median_pair"


@dataclass
class LossTerms:
    total: float
    global_: float
    local: float
    grad: float
    latent_norm: float


def total_loss(
    net_config,
    params,
    z,
    label,
    sample_set,
    templates,
    *,
    gamma,
    composer,
    weights,
    supervision=TrainSettings.supervision,
    train_width=FieldSettings.train_width,
    eikonal_rows=None,
    need_param_grads=True,
):
    """All loss terms plus exact gradients w.r.t. the parameters and z.

    Returns (terms, param_grads, dz).  ``eikonal_rows`` selects which
    sample rows carry the finite-difference stencil (all rows when None);
    the stencil step is 1 / (2 * train_width) and gradients flow through
    its forward evaluations.  With alpha = beta = gamma_reg = 0 the total
    equals the global term exactly.
    """
    n_ch = net_config.out_channels
    N = len(sample_set)
    if supervision != "sdf" or weights.beta == 0 or N == 0:
        eik = np.zeros(0, dtype=np.int64)
    elif eikonal_rows is None:
        eik = np.arange(N)
    else:
        eik = np.asarray(eikonal_rows, dtype=np.int64)
    k = len(eik)

    h = 1.0 / (2.0 * train_width)
    pts = sample_set.positions
    if k:
        # adding -0.0 keeps a coordinate's bits, as subtracting 0.0 does;
        # adding 0.0 would turn -0.0 into 0.0
        steps = np.array([[h, 0.0], [-h, -0.0], [0.0, h], [-0.0, -h]])
        stencil = (pts[eik] + steps[:, None]).reshape(4 * k, 2)
        all_pts = np.concatenate([pts, stencil])
    else:
        all_pts = pts

    X = ad.assemble_inputs(all_pts, label, z, net_config.alphabet_size)
    out, cache = ad.forward(net_config, params, X)

    d_out = np.zeros_like(out)
    center = out[:N]

    # opacities per channel (identity in pixel-supervision mode)
    if supervision == "sdf":
        C = kernel(center, gamma)
    else:
        C = center

    # global term
    dC = np.zeros_like(C)
    g_loss = 0.0
    if N:
        composed, comp_grad = compose_train_grad(C, composer)
        residual = composed - sample_set.targets
        g_loss = float(np.mean(residual * residual))
        dC += (2.0 / N) * residual[:, None] * comp_grad

    # corner term
    local = 0.0
    if weights.alpha > 0 and templates and n_ch == 3:
        inv = 1.0 / len(templates)
        for tpl, rows in zip(templates, sample_set.template_rows):
            l_k, g_k = templates_mod.corner_loss_grad(C[rows], tpl, gamma)
            local += l_k * inv
            np.add.at(dC, rows, weights.alpha * inv * g_k)

    if supervision == "sdf":
        d_out[:N] += dC * kernel_grad(center, gamma)
    else:
        d_out[:N] += dC

    # gradient-norm term via the central stencil
    grad_term = 0.0
    if k:
        px, mx, py, my = out[N:].reshape(4, k, n_ch)
        gx = (px - mx) / (2.0 * h)
        gy = (py - my) / (2.0 * h)
        norm = np.sqrt(gx * gx + gy * gy)
        active = norm < 1.0
        grad_term = float(np.sum(np.where(active, 1.0 - norm, 0.0)) / (k * n_ch))
        safe = np.where(norm > 0, norm, 1.0)
        scale = np.where(active & (norm > 0), -1.0 / (k * n_ch), 0.0)
        dgx = scale * gx / safe
        dgy = scale * gy / safe
        coeff = weights.beta / (2.0 * h)
        dpx, dmx, dpy, dmy = d_out[N:].reshape(4, k, n_ch)
        dpx += coeff * dgx
        dmx -= coeff * dgx
        dpy += coeff * dgy
        dmy -= coeff * dgy

    latent_norm = float(np.linalg.norm(z))
    total = (
        g_loss
        + weights.alpha * local
        + weights.beta * grad_term
        + weights.gamma_reg * latent_norm
    )

    grads, dX = ad.backward(
        net_config, params, cache, d_out, need_param_grads=need_param_grads
    )
    dz = dX[:, 2 + net_config.alphabet_size :].sum(axis=0)
    if latent_norm > 0:
        dz = dz + weights.gamma_reg * z / latent_norm
    terms = LossTerms(total, g_loss, local, grad_term, latent_norm)
    return terms, grads, dz


# ---------------------------------------------------------------------------
# dataset preparation and the epoch loop


@dataclass
class PreparedGlyph:
    family_id: str
    family_index: int
    label: int
    glyph: object
    sdf: np.ndarray              # exact signed distance at train resolution
    templates: list


def prepare_glyph(glyph, family_id, family_index, label, field_settings):
    # the float32 round trip is part of the training data: it is the
    # precision of the written .sdf.grid, and dropping it would change
    # every trained byte
    sdf = geometry.sdf_grid(glyph, field_settings.train_width)
    sdf = sdf.astype(np.float32).astype(np.float64)
    templates = templates_mod.build_templates(
        glyph, field_settings.train_width, field_settings.corner_threshold
    )
    return PreparedGlyph(family_id, family_index, label, glyph, sdf, templates)


class TrainingDiverged(NumericalError):
    def __init__(self, epoch, bundle):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch
        self.bundle = bundle


def _sample_seed(seed, glyph_index):
    return int(np.random.SeedSequence([seed, 1, glyph_index]).generate_state(1)[0])


def _glyph_cache(prepared, gamma, rho, min_h, seed, gi):
    image = kernel(prepared.sdf, gamma)
    cfg = SampleConfig(rho=rho, min_homogeneous=min_h, seed=_sample_seed(seed, gi))
    return sample_glyph(prepared.glyph, image, prepared.sdf, prepared.templates, gamma, cfg)


def _capped_view(samples, cap, rng):
    """Per-step subset: keep all corner-window rows, cap the rest.

    Returns ``samples`` itself when its other rows fit under the cap, else a
    new SampleSet of the kept rows with template row indices remapped to it.
    """
    keep_mask = np.zeros(len(samples), dtype=bool)
    for rows in samples.template_rows:
        keep_mask[rows] = True
    free = np.flatnonzero(~keep_mask)
    if len(free) <= cap:
        return samples
    keep_mask[free[rng.choice(len(free), cap, replace=False)]] = True
    keep = np.flatnonzero(keep_mask)
    remap = np.cumsum(keep_mask) - 1
    return SampleSet(
        positions=samples.positions[keep],
        targets=samples.targets[keep],
        kinds=samples.kinds[keep],
        template_rows=[remap[rows] for rows in samples.template_rows],
        rng_seed=samples.rng_seed,
        gamma=samples.gamma,
    )


def latent_families(items):
    """The family ids of ``items`` (prepared glyphs or manifest entries) in
    latent order: an item's ``family_index`` is its family's latent row."""
    family_ids = [None] * (max((p.family_index for p in items), default=-1) + 1)
    for p in items:
        family_ids[p.family_index] = p.family_id
    return family_ids


def configured_network(alphabet, field_settings, train_settings, resume, family_ids):
    """The network the settings describe.  A ``resume`` bundle (None for a
    fresh run) must carry that same network, have trained no more than
    ``train_settings.epochs`` epochs and list ``family_ids``, the dataset's
    families in latent order, as its own; else :class:`ConfigError`."""
    net = ad.NetworkConfig(
        alphabet_size=len(alphabet),
        out_channels=field_settings.channels,
        hidden_layers=train_settings.hidden_layers,
        width=train_settings.hidden_width,
        skip_layer=min(ad.NetworkConfig.skip_layer, train_settings.hidden_layers - 1),
    )
    if resume is None:
        return net
    if resume.network != net:
        have, want = dataclasses.asdict(resume.network), dataclasses.asdict(net)
        diff = ", ".join(f"{k} {have[k]!r} (config: {want[k]!r})" for k in want if have[k] != want[k])
        raise ConfigError(f"cannot resume: the checkpoint network has {diff}")
    if resume.epoch > train_settings.epochs:
        raise ConfigError(
            f"cannot resume: the checkpoint has trained {resume.epoch} epochs, "
            f"more than train.epochs {train_settings.epochs}"
        )
    if family_ids != resume.latents.family_ids:
        raise ConfigError(
            f"cannot resume: the manifest lists families {family_ids}, "
            f"the checkpoint {resume.latents.family_ids}"
        )
    return net


def train(
    dataset,
    alphabet,
    field_settings,
    train_settings,
    *,
    resume=None,
    progress=None,
):
    """Fit the network (and latent table) to a prepared dataset.

    Returns (bundle, log_rows).  ``resume`` continues from a loaded
    :class:`~glyphsdf.autodecoder.ModelBundle` whose network and families
    must be the ones the settings and the dataset give
    (:func:`configured_network`); ADAM goes on at ``train_settings.lr``.  The
    schedule and all RNG streams are stateless functions of (seed, epoch,
    glyph), so a resumed run is bit-identical to an uninterrupted one.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    ts = train_settings
    fs = field_settings
    family_ids = latent_families(dataset)

    anneal = ts.epochs // 2 if ts.anneal_epochs is None else ts.anneal_epochs
    schedule = WarmupSchedule(
        gamma_end=fs.gamma_final,
        gamma_start=ts.gamma_start,
        anneal_epochs=anneal,
    )
    weights = LossWeights(ts.alpha, ts.beta, ts.gamma_reg)

    net = configured_network(alphabet, fs, ts, resume, family_ids)
    if resume is None:
        params = ad.init_parameters(net, np.random.default_rng(np.random.SeedSequence([ts.seed, 10])))
        latents = ad.init_latents(
            family_ids, np.random.default_rng(np.random.SeedSequence([ts.seed, 11]))
        )
        adam, start_epoch = ad.AdamState(), 0
    else:
        params, latents, start_epoch = resume.params, resume.latents, resume.epoch
        adam = resume.adam or ad.AdamState()
    # the configured lr, over the one a resumed checkpoint recorded
    adam.lr = ts.lr
    # the bundle the run ends with; params, latents and adam update in place
    bundle = ad.ModelBundle(
        network=net,
        params=params,
        latents=latents,
        alphabet=alphabet,
        aa_k=fs.aa_k,
        train_width=fs.train_width,
        supervision=ts.supervision,
        epoch=ts.epochs,
        adam=adam,
    )

    deterministic = ts.threads == 1
    log_rows = []
    caches = [None] * len(dataset)
    last_gamma = None
    last_good = None

    for epoch in range(start_epoch, ts.epochs):
        gamma = schedule.gamma(epoch)
        composer = schedule.composer(epoch)
        if gamma != last_gamma:
            for gi, prepared in enumerate(dataset):
                caches[gi] = _glyph_cache(
                    prepared, gamma, ts.rho, ts.min_homogeneous, ts.seed, gi
                )
            last_gamma = gamma
        frozen = ts.freeze_epoch is not None and epoch >= ts.freeze_epoch

        order = np.random.default_rng(
            np.random.SeedSequence([ts.seed, 2, epoch])
        ).permutation(len(dataset))
        sums = np.zeros(5)
        t0 = time.perf_counter()
        for gi in order:
            prepared = dataset[gi]
            samples = caches[gi]
            if len(samples) == 0:
                continue
            step_rng = np.random.default_rng(
                np.random.SeedSequence([ts.seed, 3, epoch, int(gi)])
            )
            if ts.samples_cap is not None:
                samples = _capped_view(samples, ts.samples_cap, step_rng)
            n = len(samples)
            if ts.eikonal_ratio >= 1.0:
                eik = None
            elif ts.eikonal_ratio <= 0.0:
                eik = np.zeros(0, dtype=np.int64)
            else:
                k = max(1, round(ts.eikonal_ratio * n))
                eik = step_rng.choice(n, k, replace=False)
            z = latents.codes[prepared.family_index]
            terms, grads, dz = total_loss(
                net,
                params,
                z,
                prepared.label,
                samples,
                prepared.templates,
                gamma=gamma,
                composer=composer,
                weights=weights,
                supervision=ts.supervision,
                train_width=fs.train_width,
                eikonal_rows=eik,
            )
            if not np.isfinite(terms.total):
                raise TrainingDiverged(epoch, last_good)
            arrays = dict(params.named())
            grad_map = dict(grads.named())
            if not frozen:
                name = f"z{prepared.family_index}"
                arrays[name] = latents.codes[prepared.family_index]
                grad_map[name] = dz
            try:
                ad.adam_step(adam, arrays, grad_map)
            except NumericalError:
                raise TrainingDiverged(epoch, last_good) from None
            sums += (terms.total, terms.global_, terms.local, terms.grad, terms.latent_norm)
        wall_ms = 0.0 if deterministic else (time.perf_counter() - t0) * 1000.0
        means = sums / max(len(order), 1)
        log_rows.append(
            {
                "epoch": epoch,
                "gamma": gamma,
                "loss_total": float(means[0]),
                "loss_global": float(means[1]),
                "loss_local": float(means[2]),
                "loss_grad": float(means[3]),
                "latent_norm": float(np.mean(np.linalg.norm(latents.codes, axis=1))),
                "wall_ms": wall_ms,
            }
        )
        last_good = dataclasses.replace(
            bundle,
            params=params.copy(),
            latents=ad.LatentTable(latents.codes.copy(), list(latents.family_ids)),
            epoch=epoch + 1,
            adam=None,
        )
        if progress is not None:
            progress(epoch, log_rows[-1])
    return bundle, log_rows


# pixels a latent fit runs over at most; a larger target gives a seeded subset
FIT_MAX_POINTS = 8192


def fit_latent(bundle, target_image, label, settings, mask=None):
    """Optimize a latent code so the rendered glyph matches a target raster.

    ``settings`` (:class:`~glyphsdf.config.TrainSettings`) gives
    ``fit_steps``, ``fit_lr``, ``gamma_reg`` and the ``seed`` of the pixel
    subset.  ``mask`` is an optional boolean array (True = ignored) aligned
    with the target; masked pixels contribute no loss and no gradient.  The
    network stays frozen; the code starts at the latent-table mean.
    Returns (z, history) with per-step objective values.
    """
    img = np.asarray(target_image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("target image must be 2-D")
    height, width = img.shape
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != img.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match target {img.shape}"
            )
        if mask.all():
            raise ValueError("the mask hides every pixel of the target")
    if not 0 <= label < bundle.network.alphabet_size:
        raise ValueError(f"label {label} outside the alphabet")

    centers = geometry.pixel_centers(width, height).reshape(-1, 2)
    targets = img.reshape(-1)
    keep = np.ones(len(targets), dtype=bool) if mask is None else ~mask.reshape(-1)
    idx = np.flatnonzero(keep)
    if len(idx) > FIT_MAX_POINTS:
        rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 4]))
        idx = idx[np.sort(rng.choice(len(idx), FIT_MAX_POINTS, replace=False))]

    # the training objective with the network frozen: the global term
    # (median-pair composition at the final anti-alias range) plus the
    # latent norm, over the unmasked pixels
    samples = SampleSet(
        positions=centers[idx],
        targets=targets[idx],
        kinds=np.zeros(len(idx), dtype=np.uint8),
        template_rows=[],
        rng_seed=settings.seed,
        gamma=bundle.aa_k / width,
    )
    weights = LossWeights(0.0, 0.0, settings.gamma_reg)
    z = bundle.latents.mean_code().copy()
    adam = ad.AdamState(lr=settings.fit_lr)
    history = []
    for _ in range(settings.fit_steps):
        terms, _, dz = total_loss(
            bundle.network,
            bundle.params,
            z,
            label,
            samples,
            [],
            gamma=samples.gamma,
            composer="median_pair",
            weights=weights,
            supervision=bundle.supervision,
            need_param_grads=False,
        )
        history.append(terms.total)
        ad.adam_step(adam, {"z": z}, {"z": dz})
    return z, history
