"""Finite-difference gradient checking for the piecewise-smooth loss.

The total objective is C1 except at LeakyReLU preactivation zeros, kernel
band edges, median-ordering ties, the eikonal hinge and corner-assignment
switches.  A central difference across any of those kinks measures the
average of two one-sided slopes, not the analytic (sub)gradient, so each
parameter check first verifies that the piecewise structure is identical
at theta+h and theta-h and skips the measure-zero offenders.  The skip
rate is reported so tests can assert it stays marginal.
"""
from __future__ import annotations

import numpy as np

from glyphsdf import autodecoder as ad
from glyphsdf import field
from glyphsdf.training import total_loss

LATENT = ad.LATENT_DIM


def _loss_structure(cfg, params, z, label, sample_set, tpls, gamma, composer,
                    supervision, eikonal_rows, train_width):
    """Hashable snapshot of every piecewise-linear branch decision."""
    N = len(sample_set)
    pts = sample_set.positions
    h = 1.0 / (2.0 * train_width)
    if supervision == "sdf" and eikonal_rows is not None and len(eikonal_rows):
        eik = np.asarray(eikonal_rows)
        stencil = np.concatenate([
            pts[eik] + np.array([h, 0.0]), pts[eik] - np.array([h, 0.0]),
            pts[eik] + np.array([0.0, h]), pts[eik] - np.array([0.0, h]),
        ])
        all_pts = np.concatenate([pts, stencil])
    else:
        eik = np.zeros(0, dtype=int)
        all_pts = pts
    X = ad.assemble_inputs(all_pts, label, z, cfg.alphabet_size)
    out, cache = ad.forward(cfg, params, X)
    zs = cache[1]
    bits = [tuple((layer >= 0).ravel()) for layer in zs]
    center = out[:N]
    if supervision == "sdf":
        bits.append(tuple((np.abs(center) < gamma).ravel()))
        C = field.kernel(center, gamma)
    else:
        C = center
    if composer == "median_pair" and C.shape[1] == 3:
        order = np.argsort(C, axis=1, kind="stable")
        s = np.sort(C, axis=1)
        pick_low = (s[:, 1] - s[:, 0]) <= (s[:, 2] - s[:, 1])
        bits.append(tuple(order.ravel()))
        bits.append(tuple(pick_low))
    k = len(eik)
    if k:
        px, mx = out[N : N + k], out[N + k : N + 2 * k]
        py, my = out[N + 2 * k : N + 3 * k], out[N + 3 * k : N + 4 * k]
        gx, gy = (px - mx) / (2 * h), (py - my) / (2 * h)
        norm = np.sqrt(gx * gx + gy * gy)
        bits.append(tuple((norm < 1.0).ravel()))
    for tpl, rows in zip(tpls, sample_set.template_rows):
        targets = tpl.targets(gamma)[tpl.supervised_mask()]
        p = C[rows][tpl.supervised_mask()]
        best, best_sse = None, np.inf
        for assign in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
            r0 = p[:, assign[0]] - targets[:, 0]
            r1 = p[:, assign[1]] - targets[:, 1]
            sse = float(r0 @ r0 + r1 @ r1)
            if sse < best_sse:
                best, best_sse = assign, sse
        bits.append(best)
    return tuple(bits)


def relative_errors(cfg, params, z, label, sample_set, tpls, weights, composer,
                    supervision="sdf", eikonal_rows=None, train_width=24,
                    gamma=0.37, n_checks=25, h=1e-4, seed=99):
    """Central FD vs analytic gradients over all tensors and the latent.

    Returns (errors, checked, skipped); kink-straddling stencils are
    skipped via the structure signature.
    """
    kwargs = dict(
        gamma=gamma, composer=composer, weights=weights, supervision=supervision,
        train_width=train_width, eikonal_rows=eikonal_rows,
    )
    sig_kwargs = dict(
        gamma=gamma, composer=composer, supervision=supervision,
        eikonal_rows=eikonal_rows, train_width=train_width,
    )

    def objective_and_sig():
        terms, _, _ = total_loss(
            cfg, params, z, label, sample_set, tpls, need_param_grads=False, **kwargs
        )
        sig = _loss_structure(cfg, params, z, label, sample_set, tpls, **sig_kwargs)
        return terms.total, sig

    terms, grads, dz = total_loss(cfg, params, z, label, sample_set, tpls, **kwargs)
    rng = np.random.default_rng(seed)
    errs, skipped = [], 0

    def check_entry(flat_p, analytic):
        nonlocal skipped
        orig = flat_p[0]
        flat_p[0] = orig + h
        up, sig_up = objective_and_sig()
        flat_p[0] = orig - h
        dn, sig_dn = objective_and_sig()
        flat_p[0] = orig
        if sig_up != sig_dn:
            skipped += 1
            return
        fd = (up - dn) / (2 * h)
        errs.append(abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-10))

    for name, p in list(params.named()):
        g = dict(grads.named())[name]
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in rng.choice(flat_p.size, size=min(n_checks, flat_p.size), replace=False):
            check_entry(flat_p[i : i + 1], flat_g[i])
    for i in rng.choice(LATENT, size=20, replace=False):
        check_entry(z[i : i + 1], dz[i])
    return np.array(errs), len(errs), skipped
