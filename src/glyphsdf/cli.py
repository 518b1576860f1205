"""Command-line pipeline: prepare, train, render, interpolate, fit, eval.

Exit codes: 0 ok, 1 usage/config error, 2 numerical failure, 3 I/O error.
``train.threads`` (from the config file, ``--set`` or ``--threads``) pins
the BLAS pools before numpy loads: BLAS threads per call, with 1 the
bit-reproducible mode used by the determinism tests.  Under that pin, the
network (training steps, render, interpolate, fit, eval's implicit renders)
spreads its work over up to two of the CPUs the process may run on, with
the same bits at any CPU count; ``autodecoder`` decides this once, when it
loads.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from pathlib import Path

# imports nothing, so numpy still loads after the thread pins
from .errors import CheckpointError, GlyphSdfError, ImageError, NumericalError

CONFIG_ENV = "GLYPHSDF_CONFIG"


class _UsageError(GlyphSdfError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="glyphsdf", description=__doc__)
    parser.add_argument("--config", help=f"run config JSON (default: ${CONFIG_ENV})")
    parser.add_argument("--seed", type=int, help="override train.seed")
    parser.add_argument(
        "--threads", type=int,
        help="BLAS threads per call, pinned before numpy loads; 1 = reproducible, "
        "and the network then spreads its work over up to 2 CPUs",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override any config value (JSON-parsed); flags win over the file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("prepare", help="rasterize, detect corners, build templates")

    p_train = sub.add_parser("train", help="fit the network to the prepared dataset")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.add_argument(
        "--mode", choices=["n1", "pixel"], help="n1: single-channel baseline; "
        "pixel: supervise opacities directly (no distance field)"
    )

    p_render = sub.add_parser("render", help="render a trained glyph")
    p_render.add_argument("--checkpoint", required=True)
    p_render.add_argument("--family", required=True)
    p_render.add_argument("--label", required=True)
    p_render.add_argument("--res", default="256", help="comma-separated widths")
    p_render.add_argument("--method", choices=["implicit", "bilateral"], default="implicit")
    p_render.add_argument("--channels", action="store_true", help="dump per-channel images")
    p_render.add_argument("--contours", action="store_true", help="dump zero-level contours")

    p_interp = sub.add_parser("interpolate", help="latent interpolation frames")
    p_interp.add_argument("--checkpoint", required=True)
    p_interp.add_argument("--family-a", required=True)
    p_interp.add_argument("--family-b", required=True)
    p_interp.add_argument("--label", required=True)
    p_interp.add_argument("--steps", type=int, required=True)
    p_interp.add_argument("--res", type=int, default=256)

    p_fit = sub.add_parser("fit", help="fit a latent to a target raster")
    p_fit.add_argument("--checkpoint", required=True)
    p_fit.add_argument("--target", required=True, help="PGM raster to match")
    p_fit.add_argument("--label", required=True)
    p_fit.add_argument("--mask", help="PGM mask; pixels >= 50%% gray are ignored")
    p_fit.add_argument("--res", type=int, default=128, help="completion render width")

    p_eval = sub.add_parser("eval", help="metrics table over the dataset")
    p_eval.add_argument("--checkpoint", required=True)
    return parser


def _load_config(args):
    from .config import RunConfig

    path = args.config or os.environ.get(CONFIG_ENV)
    cfg = RunConfig.load(path) if path else RunConfig()
    # flags win over --set, and pass the same validation
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"train.seed={args.seed}")
    if args.threads is not None:
        overrides.append(f"train.threads={args.threads}")
    if getattr(args, "mode", None) == "n1":
        overrides.append("field.channels=1")
    elif getattr(args, "mode", None) == "pixel":
        overrides.append('train.supervision="pixel"')
    return cfg.apply_overrides(overrides)


def _out_dir(cfg):
    out = Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_part(text):
    """Text in file names: letters and digits as is, others as u + code point."""
    return "".join(c if c.isalnum() else f"u{ord(c):04x}" for c in text)


def _safe_name(family, label_char):
    return f"{_file_part(family)}__{_file_part(label_char)}"


def _folds_case(directory):
    """Whether ``directory``'s file system ignores case (a probe file tells)."""
    with tempfile.NamedTemporaryFile(dir=directory) as probe:
        return (directory / Path(probe.name).name.swapcase()).exists()


def _check_file_names(directory, owners, kind, written_as):
    """Refuse two (owner, name) pairs whose names are one file in ``directory``."""
    fold = str.casefold if _folds_case(directory) else str
    seen = {}
    for owner, name in owners:
        if fold(name) in seen:
            raise _UsageError(f"{kind} {seen[fold(name)]!r} and {owner!r} would both "
                              f"be written as {written_as.format(name)}")
        seen[fold(name)] = owner


def _manifest_entries(cfg):
    from .glyphs import load_manifest

    if not cfg.dataset.manifest:
        raise _UsageError("config has no dataset.manifest")
    return load_manifest(cfg.dataset.manifest, cfg.dataset.alphabet)


def _parse_glyphs(cfg, entries):
    """Each manifest entry with its parsed glyph, as (entry, glyph) pairs."""
    from .glyphs import glyph_from_path

    pairs = []
    for entry in entries:
        try:
            glyph = glyph_from_path(entry.path.read_text(encoding="utf-8"),
                                    label=entry.label, margin=cfg.dataset.margin)
        except (GlyphSdfError, UnicodeDecodeError) as exc:
            raise GlyphSdfError(
                f"glyph {entry.family_id}/{entry.label_char} ({entry.path}): {exc}"
            ) from exc
        pairs.append((entry, glyph))
    return pairs


def _prepare_dataset(cfg, entries):
    """Each manifest entry's glyph, prepared in memory at the training width."""
    from .training import prepare_glyph

    return [
        prepare_glyph(glyph, entry.family_id, entry.family_index, entry.label, cfg.field)
        for entry, glyph in _parse_glyphs(cfg, entries)
    ]


def _write_csv(path, cols, rows):
    """Rows as RFC 4180 CSV: a field with a comma, quote or line break is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([row[c] for c in cols] for row in rows)


def _family_latent(bundle, family):
    if family not in bundle.latents.family_ids:
        raise _UsageError(
            f"unknown family {family!r}; checkpoint has {bundle.latents.family_ids}"
        )
    return bundle.latents.codes[bundle.latents.family_ids.index(family)]


def _label_index(bundle, label_char):
    if len(label_char) != 1 or label_char not in bundle.alphabet:
        raise _UsageError(f"label {label_char!r} is not one character of the checkpoint alphabet")
    return bundle.alphabet.index(label_char)


def cmd_prepare(cfg, args):
    """Write each prepared glyph for inspection; nothing reads these back."""
    from . import field as field_mod
    from .render import write_image
    from .templates import templates_to_arrays

    entries = _manifest_entries(cfg)
    names = [_safe_name(e.family_id, e.label_char) for e in entries]
    prep_dir = _out_dir(cfg) / "prepared"
    prep_dir.mkdir(exist_ok=True)
    _check_file_names(prep_dir, [(f"{e.family_id}/{e.label_char}", name)
                                 for e, name in zip(entries, names)], "glyphs", "prepared/{}.*")
    dataset = _prepare_dataset(cfg, entries)
    for entry, name, item in zip(entries, names, dataset):
        stem = prep_dir / name
        field_mod.write_grid(stem.with_suffix(".sdf.grid"), item.sdf)
        write_image(stem.with_suffix(".pgm"), field_mod.kernel(item.sdf, cfg.field.gamma_final))
        meta = {
            "family": item.family_id,
            "label": entry.label_char,
            "train_width": cfg.field.train_width,
            "corners": templates_to_arrays(item.templates),
        }
        stem.with_suffix(".json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"prepared {len(dataset)} glyphs: {len(dataset)} rebuilt")
    return 0


def cmd_train(cfg, args):
    from . import autodecoder as ad
    from .training import TrainingDiverged, configured_network, latent_families, train

    entries = _manifest_entries(cfg)
    if not entries:
        raise _UsageError(f"manifest {cfg.dataset.manifest} lists no glyphs to train on")
    out = _out_dir(cfg)
    # render and interpolate name their files after the families
    _check_file_names(out, [(f, _file_part(f)) for f in latent_families(entries)],
                      "families", "{} in output file names")
    resume = None
    if args.resume:
        resume = ad.load_checkpoint(args.resume, expect_alphabet=cfg.dataset.alphabet)
        # a checkpoint the config and manifest cannot continue fails before
        # any glyph is prepared
        configured_network(
            cfg.dataset.alphabet, cfg.field, cfg.train, resume, latent_families(entries)
        )
    dataset = _prepare_dataset(cfg, entries)
    every = max(1, cfg.train.epochs // 20)

    def progress(epoch, row):
        if (epoch + 1) % every == 0 or epoch == 0:
            print(
                f"epoch {epoch + 1}/{cfg.train.epochs} gamma={row['gamma']:.4g} "
                f"loss={row['loss_total']:.6g}",
                file=sys.stderr,
            )

    try:
        bundle, rows = train(
            dataset,
            cfg.dataset.alphabet,
            cfg.field,
            cfg.train,
            resume=resume,
            progress=progress,
        )
    except TrainingDiverged as exc:
        if exc.bundle is not None:
            ad.save_checkpoint(out / "checkpoint.diverged.ckpt", exc.bundle)
            print(
                f"training diverged at epoch {exc.epoch}; last good checkpoint "
                f"written to {out / 'checkpoint.diverged.ckpt'}",
                file=sys.stderr,
            )
        else:
            print(f"training diverged at epoch {exc.epoch}", file=sys.stderr)
        return 2
    bundle.train_config = cfg.to_dict()
    ad.save_checkpoint(out / "checkpoint.ckpt", bundle)
    _write_csv(out / "train_log.csv", [
        "epoch", "gamma", "loss_total", "loss_global", "loss_local",
        "loss_grad", "latent_norm", "wall_ms",
    ], rows)
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")
    return 0


def _check_width(width):
    from .config import MIN_WIDTH

    if width < MIN_WIDTH:
        raise _UsageError(f"--res width {width} is below the minimum of {MIN_WIDTH}")
    return width


def _parse_res_list(text):
    try:
        values = [int(v) for v in str(text).split(",") if v]
    except ValueError:
        raise _UsageError(f"bad --res list {text!r}") from None
    if not values:
        raise _UsageError("--res needs at least one width")
    return [_check_width(v) for v in values]


def cmd_render(cfg, args):
    from . import autodecoder as ad
    from . import field as field_mod
    from .render import (
        bilinear_resample, compose, extract_zero_level, field_grid, write_contours, write_image,
    )

    widths = _parse_res_list(args.res)
    bundle = ad.load_checkpoint(args.checkpoint)
    z = _family_latent(bundle, args.family)
    label = _label_index(bundle, args.label)
    out = _out_dir(cfg)
    train_grid = None
    if args.method == "bilateral" or args.channels:
        train_grid = field_grid(bundle, z, label, bundle.train_width)
    for width in widths:
        name = f"render_{_safe_name(args.family, args.label)}_{args.method}_{width}"
        # one grid per width serves the image, the channel images and the
        # contours: the network evaluated at that width, or for bilateral
        # the training-width grid upsampled.  The previous width's grid is
        # released first, so it is not held while the next one is built.
        grid = image = level = None
        if args.method == "implicit":
            grid = field_grid(bundle, z, label, width)
        else:
            grid = bilinear_resample(train_grid, width)
        image, level = compose(bundle, grid, width)
        write_image(out / f"{name}.pgm", image)
        if args.channels:
            for c in range(len(grid)):
                write_image(out / f"{name}_c{c}.pgm", compose(bundle, grid[c : c + 1], width)[0])
        if args.contours:
            write_contours(out / f"{name}_contours.json", extract_zero_level(level))
    if args.channels and train_grid is not None:
        field_mod.write_grid(
            out / f"channels_{_safe_name(args.family, args.label)}.grid", train_grid
        )
    print(f"rendered {len(widths)} image(s) into {out}")
    return 0


def cmd_interpolate(cfg, args):
    from . import autodecoder as ad
    from .render import compose, field_grid, write_image

    if args.steps < 2:
        raise _UsageError("--steps must be >= 2 (endpoints included)")
    _check_width(args.res)
    bundle = ad.load_checkpoint(args.checkpoint)
    za = _family_latent(bundle, args.family_a)
    zb = _family_latent(bundle, args.family_b)
    label = _label_index(bundle, args.label)
    out = _out_dir(cfg)
    for i in range(args.steps):
        t = i / (args.steps - 1)
        z = (1.0 - t) * za + t * zb
        img = compose(bundle, field_grid(bundle, z, label, args.res), args.res)[0]
        write_image(
            out / f"interp_{_safe_name(args.family_a, args.label)}"
                  f"_{_safe_name(args.family_b, args.label)}_{i:03d}.pgm",
            img,
        )
    print(f"wrote {args.steps} frames into {out}")
    return 0


def cmd_fit(cfg, args):
    import numpy as np

    from . import autodecoder as ad
    from .render import compose, field_grid, read_image, write_image
    from .training import fit_latent

    _check_width(args.res)
    bundle = ad.load_checkpoint(args.checkpoint)
    label = _label_index(bundle, args.label)
    target = read_image(args.target)
    mask = None
    if args.mask:
        mask_img = read_image(args.mask)
        if mask_img.shape != target.shape:
            raise _UsageError(
                f"mask dimensions {mask_img.shape} do not match target {target.shape}"
            )
        mask = mask_img >= 0.5
        if mask.all():
            raise _UsageError(f"mask {args.mask} hides every pixel of the target")
    z, history = fit_latent(bundle, target, label, cfg.train, mask=mask)
    out = _out_dir(cfg)
    (out / "fit_z.json").write_text(
        json.dumps({"z": z.tolist(), "final_objective": history[-1] if history else None}),
        encoding="utf-8",
    )
    for idx, char in enumerate(bundle.alphabet):
        img = compose(bundle, field_grid(bundle, z, idx, args.res), args.res)[0]
        write_image(out / f"completed_{idx:02d}_{_file_part(char)}.pgm", img)
    print(f"fitted latent + {len(bundle.alphabet)} completions written to {out}")
    return 0


def cmd_eval(cfg, args):
    from . import autodecoder as ad
    from .field import compose_median, rasterize_ground_truth
    from .geometry import detect_corners
    from .metrics import corner_region_metrics, laplacian_smoothness, mse, soft_iou
    from .render import bilinear_resample, compose, field_grid

    # the config's label indices address the network, so the alphabets must agree
    bundle = ad.load_checkpoint(args.checkpoint, expect_alphabet=cfg.dataset.alphabet)
    out = _out_dir(cfg)
    entries = _manifest_entries(cfg)
    # a family without a latent fails before any glyph is parsed
    latents = [_family_latent(bundle, entry.family_id) for entry in entries]
    rows = []
    for (entry, glyph), z in zip(_parse_glyphs(cfg, entries), latents):
        grid = field_grid(bundle, z, entry.label, bundle.train_width)
        lap = laplacian_smoothness(compose_median(grid, axis=0))
        corners = detect_corners(glyph, cfg.field.corner_threshold)
        truths = {
            width: rasterize_ground_truth(glyph, width, bundle.aa_k / width)
            for width in cfg.eval.resolutions
        }
        for method in cfg.eval.methods:
            for width in cfg.eval.resolutions:
                truth = truths[width]
                if method == "implicit":
                    img = compose(bundle, field_grid(bundle, z, entry.label, width), width)[0]
                else:
                    img = compose(bundle, bilinear_resample(grid, width), width)[0]
                corner = corner_region_metrics(img, truth, corners, width)
                rows.append(
                    {
                        "method": method,
                        "res": width,
                        "mse": mse(img, truth),
                        "siou": soft_iou(img, truth),
                        "c_mse": corner.mse,
                        "c_siou": corner.siou,
                        "lap": lap,
                        "family": entry.family_id,
                        "label": glyph.label,
                    }
                )
    _write_csv(out / "metrics.csv", [
        "method", "res", "mse", "siou", "c_mse", "c_siou", "lap", "family", "label",
    ], rows)
    print(f"metrics for {len(rows)} rows written to {out / 'metrics.csv'}")
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "render": cmd_render,
    "interpolate": cmd_interpolate,
    "fit": cmd_fit,
    "eval": cmd_eval,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        # the config module loads no numpy, so the pins still take effect
        cfg = _load_config(args)
        if cfg.train.threads is not None:
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(cfg.train.threads)
        return _COMMANDS[args.command](cfg, args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, ImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except GlyphSdfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
