"""Command-line pipeline: prepare, train, render, interpolate, fit, eval.

Exit codes: 0 ok, 1 usage/config error, 2 numerical failure, 3 I/O error.
Loading this module before numpy pins BLAS to one thread per call: the
bit-reproducible mode, and on a 2-vCPU host the faster one.  Loaded after
numpy, it leaves the pin as BLAS read it.  The network (training steps,
render, interpolate, fit, eval's implicit renders) then spreads its work
over up to two of the CPUs the process may run on, with the same bits at
any CPU count; ``autodecoder`` decides this once, when it loads.
"""
from __future__ import annotations

import os
import sys

# BLAS reads its pin when numpy loads, and autodecoder reads the same pin
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import csv
import json
import tempfile
from pathlib import Path

from . import autodecoder as ad, config, field, geometry, glyphs, metrics, render
from . import templates, training
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
        help="override train.threads: BLAS threads per call, which must be 1",
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
    path = args.config or os.environ.get(CONFIG_ENV)
    cfg = config.RunConfig.load(path) if path else config.RunConfig()
    # flags win over --set, and pass the same validation
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"train.seed={args.seed}")
    if args.threads is not None:
        overrides.append(f"train.threads={args.threads}")
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
    if not cfg.dataset.manifest:
        raise _UsageError("config has no dataset.manifest")
    return glyphs.load_manifest(cfg.dataset.manifest, cfg.dataset.alphabet)


def _parse_glyphs(cfg, entries):
    """Each manifest entry with its parsed glyph, as (entry, glyph) pairs."""
    pairs = []
    for entry in entries:
        try:
            glyph = glyphs.glyph_from_path(entry.path.read_text(encoding="utf-8"),
                                           label=entry.label, margin=cfg.dataset.margin)
        except (GlyphSdfError, UnicodeDecodeError) as exc:
            raise GlyphSdfError(
                f"glyph {entry.family_id}/{entry.label_char} ({entry.path}): {exc}"
            ) from exc
        pairs.append((entry, glyph))
    return pairs


def _prepare_dataset(cfg, entries):
    """Each manifest entry's glyph, prepared in memory at the training width."""
    return [
        training.prepare_glyph(glyph, entry.family_id, entry.family_index, entry.label, cfg.field)
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
    entries = _manifest_entries(cfg)
    names = [_safe_name(e.family_id, e.label_char) for e in entries]
    prep_dir = _out_dir(cfg) / "prepared"
    prep_dir.mkdir(exist_ok=True)
    _check_file_names(prep_dir, [(f"{e.family_id}/{e.label_char}", name)
                                 for e, name in zip(entries, names)], "glyphs", "prepared/{}.*")
    dataset = _prepare_dataset(cfg, entries)
    for entry, name, item in zip(entries, names, dataset):
        stem = prep_dir / name
        field.write_grid(stem.with_suffix(".sdf.grid"), item.sdf)
        render.write_image(stem.with_suffix(".pgm"), field.kernel(item.sdf, cfg.field.gamma_final))
        meta = {
            "family": item.family_id,
            "label": entry.label_char,
            "train_width": cfg.field.train_width,
            "corners": templates.templates_to_arrays(item.templates),
        }
        stem.with_suffix(".json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"prepared {len(dataset)} glyphs: {len(dataset)} rebuilt")
    return 0


def cmd_train(cfg, args):
    entries = _manifest_entries(cfg)
    if not entries:
        raise _UsageError(f"manifest {cfg.dataset.manifest} lists no glyphs to train on")
    out = _out_dir(cfg)
    # render and interpolate name their files after the families
    _check_file_names(out, [(f, _file_part(f)) for f in training.latent_families(entries)],
                      "families", "{} in output file names")
    resume = None
    if args.resume:
        resume = ad.load_checkpoint(args.resume, expect_alphabet=cfg.dataset.alphabet)
        # a checkpoint the config and manifest cannot continue fails before
        # any glyph is prepared
        training.configured_network(
            cfg.dataset.alphabet, cfg.field, cfg.train, resume, training.latent_families(entries)
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

    def save(name, bundle):
        # either checkpoint's manifest echoes the run's config
        bundle.train_config = cfg.to_dict()
        ad.save_checkpoint(out / name, bundle)

    try:
        bundle, rows = training.train(
            dataset,
            cfg.dataset.alphabet,
            cfg.field,
            cfg.train,
            resume=resume,
            progress=progress,
        )
    except training.TrainingDiverged as exc:
        if exc.bundle is not None:
            save("checkpoint.diverged.ckpt", exc.bundle)
            print(
                f"training diverged at epoch {exc.epoch}; last good checkpoint "
                f"written to {out / 'checkpoint.diverged.ckpt'}",
                file=sys.stderr,
            )
        else:
            print(f"training diverged at epoch {exc.epoch}", file=sys.stderr)
        return 2
    save("checkpoint.ckpt", bundle)
    _write_csv(out / "train_log.csv", [
        "epoch", "gamma", "loss_total", "loss_global", "loss_local",
        "loss_grad", "latent_norm", "wall_ms",
    ], rows)
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")
    return 0


def cmd_render(cfg, args):
    try:
        widths = [int(v) for v in args.res.split(",") if v]
    except ValueError:
        raise _UsageError(f"bad --res list {args.res!r}") from None
    config.check_widths(widths, "--res")
    bundle = ad.load_checkpoint(args.checkpoint)
    z = _family_latent(bundle, args.family)
    label = _label_index(bundle, args.label)
    out = _out_dir(cfg)
    train_grid = None
    if args.method == "bilateral" or args.channels:
        train_grid = render.field_grid(bundle, z, label, bundle.train_width)
    for width in widths:
        name = f"render_{_safe_name(args.family, args.label)}_{args.method}_{width}"
        # one grid per width serves the image, the channel images and the
        # contours: the network evaluated at that width, or for bilateral
        # the training-width grid upsampled.  The previous width's grid is
        # released first, so it is not held while the next one is built.
        grid = image = level = None
        if args.method == "implicit":
            grid = render.field_grid(bundle, z, label, width)
        else:
            grid = render.bilinear_resample(train_grid, width)
        image, level = render.compose(bundle, grid, width)
        render.write_image(out / f"{name}.pgm", image)
        if args.channels:
            for c in range(len(grid)):
                render.write_image(out / f"{name}_c{c}.pgm",
                                   render.compose(bundle, grid[c : c + 1], width)[0])
        if args.contours:
            render.write_contours(out / f"{name}_contours.json", render.extract_zero_level(level))
    if args.channels and train_grid is not None:
        field.write_grid(
            out / f"channels_{_safe_name(args.family, args.label)}.grid", train_grid
        )
    print(f"rendered {len(widths)} image(s) into {out}")
    return 0


def cmd_interpolate(cfg, args):
    if args.steps < 2:
        raise _UsageError("--steps must be >= 2 (endpoints included)")
    config.check_widths([args.res], "--res")
    bundle = ad.load_checkpoint(args.checkpoint)
    za = _family_latent(bundle, args.family_a)
    zb = _family_latent(bundle, args.family_b)
    label = _label_index(bundle, args.label)
    out = _out_dir(cfg)
    for i in range(args.steps):
        t = i / (args.steps - 1)
        z = (1.0 - t) * za + t * zb
        img = render.compose(bundle, render.field_grid(bundle, z, label, args.res), args.res)[0]
        render.write_image(
            out / f"interp_{_safe_name(args.family_a, args.label)}"
                  f"_{_safe_name(args.family_b, args.label)}_{i:03d}.pgm",
            img,
        )
    print(f"wrote {args.steps} frames into {out}")
    return 0


def cmd_fit(cfg, args):
    config.check_widths([args.res], "--res")
    bundle = ad.load_checkpoint(args.checkpoint)
    label = _label_index(bundle, args.label)
    target = render.read_image(args.target)
    mask = None
    if args.mask:
        mask_img = render.read_image(args.mask)
        if mask_img.shape != target.shape:
            raise _UsageError(
                f"mask dimensions {mask_img.shape} do not match target {target.shape}"
            )
        mask = mask_img >= 0.5
        if mask.all():
            raise _UsageError(f"mask {args.mask} hides every pixel of the target")
    z, history = training.fit_latent(bundle, target, label, cfg.train, mask=mask)
    out = _out_dir(cfg)
    (out / "fit_z.json").write_text(
        json.dumps({"z": z.tolist(), "final_objective": history[-1] if history else None}),
        encoding="utf-8",
    )
    for idx, char in enumerate(bundle.alphabet):
        img = render.compose(bundle, render.field_grid(bundle, z, idx, args.res), args.res)[0]
        render.write_image(out / f"completed_{idx:02d}_{_file_part(char)}.pgm", img)
    print(f"fitted latent + {len(bundle.alphabet)} completions written to {out}")
    return 0


def cmd_eval(cfg, args):
    # the config's label indices address the network, so the alphabets must agree
    bundle = ad.load_checkpoint(args.checkpoint, expect_alphabet=cfg.dataset.alphabet)
    out = _out_dir(cfg)
    entries = _manifest_entries(cfg)
    # a family without a latent fails before any glyph is parsed
    latents = [_family_latent(bundle, entry.family_id) for entry in entries]
    rows = []
    for (entry, glyph), z in zip(_parse_glyphs(cfg, entries), latents):
        grid = render.field_grid(bundle, z, entry.label, bundle.train_width)
        lap = metrics.laplacian_smoothness(field.compose_median(grid, axis=0))
        corners = geometry.detect_corners(glyph, cfg.field.corner_threshold)
        truths = {
            width: field.rasterize_ground_truth(glyph, width, bundle.aa_k / width)
            for width in cfg.eval.resolutions
        }
        for method in cfg.eval.methods:
            for width in cfg.eval.resolutions:
                truth = truths[width]
                # the width's grid is not held past compose
                if method == "implicit":
                    img = render.compose(
                        bundle, render.field_grid(bundle, z, entry.label, width), width)[0]
                else:
                    img = render.compose(bundle, render.bilinear_resample(grid, width), width)[0]
                corner = metrics.corner_region_metrics(img, truth, corners, width)
                rows.append(
                    {
                        "method": method,
                        "res": width,
                        "mse": metrics.mse(img, truth),
                        "siou": metrics.soft_iou(img, truth),
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
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except GlyphSdfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
