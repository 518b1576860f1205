"""The two benchmark workloads, the checks on their outputs, and their metrics.

Every program step runs in this process, through ``glyphsdf.cli.main``
where a command does it and through a module's public function where no
command does.  An operation is one such step; it fails when the command
exits non-zero, raises, or an output fails its check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import inputs
import oracles
import test_oracles
from tracer import Tracer

from glyphsdf import autodecoder, cli, field, geometry, glyphs, render, sampling
from glyphsdf import templates, training

AA_K = 4.0
SIOU_FLOOR = 0.6          # infer: soft IoU of each implicit render vs the oracle raster
POLYGON_CELLS = 3.0       # infer: polygon contours within this many train-grid cells
# infer: recomputed metrics.csv rows.  Polygons agree to rounding; the
# oracle flattens cubics into 2048 chords per segment, whose sag (~1e-6 in
# field units) moves opacities in the anti-aliased band by up to ~1e-4.
METRIC_RTOL = {"polygon": 1e-9, "cubic": 1e-4}
METRIC_ATOL = 1e-12
# infer trains briefly at width 16; a wider margin keeps about
# three training pixels of background around each glyph, so the learned
# zero level set stays inside the field domain (at 0.3 it reached the
# border for 2 of 10 seeds)
SMALL_MARGIN = 0.4
# Its schedule, (epochs, warm-up epochs), over a ring and a D.  Shorter ones
# failed checks on some seeds: at 24 epochs one seed in ten had its zero
# level set reach the domain border, so its contours did not close; at 40
# one ring in twelve rendered with soft IoU 0.51 < SIOU_FLOOR.  At 60 the
# lowest of 11 seeds scored 0.76.
SMALL_SCHEDULE = (60, 40)


class Mismatch(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


class Op:
    def __init__(self, name):
        self.name = name
        self.ok = True
        self.seconds = 0.0
        self.text = ""
        self.problems = []


class Bench:
    """Operation bookkeeping, timing, tracing and output digests for one run."""

    def __init__(self, workload, seed, trace, work):
        self.workload = workload
        self.seed = seed
        self.work = work / f"{workload}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.tracer = Tracer().install() if trace else None
        self.recording = False
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.prepare_rebuilt = 0
        self.render_counts = {"field_points": 0, "output_px": 0, "implicit_px": 0, "band_px": 0}

    @contextlib.contextmanager
    def record(self, on=True):
        """Trace the enclosed program calls (when tracing at all)."""
        prev = self.recording
        self.recording = on
        if self.tracer:
            self.tracer.enabled = on
        try:
            yield
        finally:
            self.recording = prev
            if self.tracer:
                self.tracer.enabled = prev

    def command(self, name, argv):
        op = Op(name)
        self.attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(["--threads", "1", *map(str, argv)])
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        op.text = buf.getvalue()
        if self.recording:
            self.prepare_rebuilt += sum(int(n) for n in re.findall(r"(\d+) rebuilt", op.text))
        if rc != 0:
            tail = op.text.strip().splitlines()[-1:] or [""]
            op.problems.append(f"exit {rc}: {tail[0]}")
        op.ok = rc == 0
        return op

    def library(self, name, fn):
        """Run a step through public functions; returns (op, result)."""
        op = Op(name)
        self.attempted += 1
        t0 = time.perf_counter()
        result = None
        try:
            result = fn()
        except Exception as exc:
            op.ok = False
            op.problems.append(f"{type(exc).__name__}: {exc}")
        op.seconds = time.perf_counter() - t0
        return op, result

    def verify(self, op, what, fn):
        """Run one check on an operation's outputs with tracing off."""
        if not op.ok:
            return
        with self.record(False):
            try:
                fn()
            except Mismatch as exc:
                op.problems.append(f"{what}: {exc}")
            except Exception as exc:
                op.problems.append(f"{what}: {type(exc).__name__}: {exc}")

    def close(self, op):
        if op.problems:
            self.failed += 1
            self.problems.extend(f"{op.name}: {p}" for p in op.problems)

    def setup(self, repeats, build):
        """Run ``build`` several times; returns (median seconds, last op).

        Every repetition must leave byte-identical artifacts.  When
        tracing, only the first repetition is traced.
        """
        times, digests, op = [], [], None
        for k in range(repeats):
            if op is not None:
                self.close(op)
            with self.record(k == 0):
                t0 = time.perf_counter()
                op, files = build()
                times.append(time.perf_counter() - t0)
            digests.append(digest(files))
        if any(d != digests[0] for d in digests):
            op.problems.append("set-up repetitions left different artifacts")
        return statistics.median(times), op

    def rounds(self, seconds, one_round):
        """Whole rounds until ``seconds`` have passed; then, when tracing,
        one more round untraced.  Every round must leave the same bytes."""
        stats, digests = [], []
        start = time.perf_counter()
        with self.record(True):
            while True:
                s, files = one_round(len(stats))
                stats.append(s)
                digests.append(digest(files))
                if time.perf_counter() - start >= seconds:
                    break
        if self.tracer:
            with self.record(False):
                s, files = one_round(len(stats))
                digests.append(digest(files))
        if any(d != digests[0] for d in digests):
            self.failed += 1
            self.attempted += 1
            self.problems.append("rounds (traced and untraced) left different artifacts")
        return stats

    def result(self, end_to_end, details):
        """``end_to_end`` holds the metrics every workload reports;
        ``details`` the workload's own command figures, printed only."""
        correct = self.failed == 0
        traced = " (traced)" if self.tracer else ""
        for name, m in {**end_to_end, **details}.items():
            print(f"{self.workload} {name}{traced} = {m['value']:.6g} {m['unit']}")
        if self.tracer:
            self.tracer.uninstall()
            path = self.work.parent / f"trace-{self.workload}-{self.seed}.json"
            self.tracer.dump(path)
            metrics = per_layer(self.tracer, self.prepare_rebuilt, self.render_counts)
            for name, m in metrics.items():
                print(f"{self.workload} {name} = {m['value']:.6g} {m['unit']}")
        else:
            metrics = end_to_end
        print(f"{self.workload} operations: {self.attempted} attempted, {self.failed} failed")
        for p in self.problems:
            print(f"FAILED {p}")
        if correct:  # outputs of failed runs stay for inspection
            shutil.rmtree(self.work)
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def digest(files):
    return {Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest()
            for f in sorted(files) if Path(f).is_file()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s, rounds):
    """The metrics of every workload: median set-up time, peak RSS, and the
    median wall time of one round of the workload's timed operations."""
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "round_s": metric(statistics.median(rounds), "s"),
    }


# ---------------------------------------------------------------------------
# file readers written from the documented formats


def read_pgm(path):
    raw = Path(path).read_bytes()
    fields = raw.split(maxsplit=4)
    expect(fields[0] == b"P5" and fields[3] == b"255", f"{path} is not an 8-bit P5 PGM")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(raw[len(raw) - w * h:], dtype=np.uint8).reshape(h, w)


def write_pgm(path, image):
    data = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes())


def read_grid(path):
    raw = Path(path).read_bytes()
    expect(raw[:4] == b"MIFG", f"{path} is not a grid container")
    n, h, w = np.frombuffer(raw, dtype="<u2", count=3, offset=8)
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(n, h, w).astype(np.float64)


_WRAPPED = re.compile(r"^np\.float64\((.*)\)$")


def read_train_log(path):
    """Rows of train_log.csv as dicts of floats.

    The loss columns are written as ``np.float64(x)`` by numpy >= 2 (see
    CHANGES.md); the wrapper is stripped before parsing.
    """
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    cols = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = [_WRAPPED.sub(r"\1", c) for c in line.split(",")]
        rows.append(dict(zip(cols, map(float, cells))))
    return rows


# ---------------------------------------------------------------------------
# shared checks


def check_prepared(prep_dir, families, width):
    for family, glyph_set in families.items():
        for label, contours in glyph_set.items():
            got = read_grid(Path(prep_dir) / f"{family}__{label}.sdf.grid")[0]
            want = oracles.signed_distance(contours, width, per_cubic=512)
            err = float(np.max(np.abs(got - want)))
            expect(err <= 2.0 / width, f"{family}/{label}: SDF off by {err:.4g} > one pixel")


def check_contour_file(path, f, shape, tol=1e-7):
    """Loops close on themselves and every vertex is the zero of the linear
    interpolant along its grid edge of the oracle's field ``f(rows, cols)``
    on an ``shape`` grid of pixel centers."""
    loops = [np.asarray(c, dtype=np.float64) for c in json.loads(Path(path).read_text())]
    expect(loops, f"{Path(path).name}: no contours")
    for c in loops:
        expect(len(c) >= 4 and np.array_equal(c[0], c[-1]),
               f"{Path(path).name}: a contour of {len(c)} vertices does not close")
    v = np.concatenate(loops)
    h, w = shape
    col = (v[:, 0] + 1.0) / 2.0 * w - 0.5
    row = (v[:, 1] + 1.0) / 2.0 * h - 0.5
    on_row = np.abs(row - np.rint(row)) < 1e-9
    on_col = np.abs(col - np.rint(col)) < 1e-9
    expect(np.all(on_row | on_col), f"{Path(path).name}: vertex off every grid edge")
    i = np.where(on_row, np.rint(row), np.clip(np.floor(row), 0, h - 2)).astype(int)
    j = np.where(on_row, np.clip(np.floor(col), 0, w - 2), np.rint(col)).astype(int)
    s = np.where(on_row, col - j, row - i)
    fa = f(i, j)
    fb = f(np.where(on_row, i, i + 1), np.where(on_row, j + 1, j))
    resid = np.abs(fa * (1.0 - s) + fb * s)
    worst = float(np.max(resid / (np.abs(fa) + np.abs(fb))))
    expect(worst <= tol, f"{Path(path).name}: vertex off the zero crossing ({worst:.3g})")
    return v


# ---------------------------------------------------------------------------
# workloads


def train_workload(b, seed, seconds):
    """Set-up: prepare, then train the first warm-up epoch at 8x384 and
    width 64.  Round: ``train --resume`` from there through the second
    warm-up epoch and one at the final anti-alias range."""
    families = inputs.make_families(seed)
    manifest = inputs.write_dataset(b.work / "data", families)
    out = b.work / "out"
    epochs, anneal = 3, 2
    glyph_count = sum(len(g) for g in families.values())
    first = ["--config", inputs.write_config(
        b.work / "first.json", manifest, out, train={"seed": seed, "epochs": 1, "anneal_epochs": anneal})]
    base = ["--config", inputs.write_config(
        b.work / "config.json", manifest, out, train={"seed": seed, "epochs": epochs, "anneal_epochs": anneal})]
    start = b.work / "epoch1.ckpt"   # rounds overwrite out/checkpoint.ckpt

    def setup():
        shutil.rmtree(out, ignore_errors=True)
        op = b.command("prepare", first + ["prepare"])
        if op.ok:
            b.close(op)
            op = b.command("train", first + ["train"])
        return op, [out / "checkpoint.ckpt", *(out / "prepared").glob("*")]

    setup_s, op = b.setup(2, setup)
    b.verify(op, "prepared SDF grids vs oracle", lambda: check_prepared(out / "prepared", families, 64))
    b.verify(op, "train_log.csv", lambda: check_train_log(out / "train_log.csv", 1, anneal, AA_K / 64))
    if op.ok:
        shutil.copyfile(out / "checkpoint.ckpt", start)
    b.close(op)

    def one_round(k):
        op = b.command("train", base + ["train", "--resume", start])
        ckpt = out / "checkpoint.ckpt"
        steps = epochs * glyph_count
        b.verify(op, "optimizer steps", lambda: expect(
            oracles.NetworkOracle(ckpt).manifest["adam"]["step_count"] == steps,
            f"the checkpoint's ADAM step count is not {steps}"))
        if k == 0:
            b.verify(op, "train_log.csv", lambda: check_train_log(
                out / "train_log.csv", epochs, anneal, AA_K / 64, first=1))
            b.verify(op, "gradient vs finite differences",
                     lambda: check_gradient(ckpt, families, seed))
        b.close(op)
        return {"seconds": op.seconds}, [ckpt, out / "train_log.csv"]

    stats = b.rounds(seconds, one_round)
    round_steps = (epochs - 1) * glyph_count
    return end_to_end(setup_s, [s["seconds"] for s in stats]), {
        "train_steps_per_s": metric(
            len(stats) * round_steps / sum(s["seconds"] for s in stats), "steps/s"),
    }


def check_train_log(path, epochs, anneal, gamma_end, gamma_start=1.0, first=0):
    """One row per epoch from ``first`` (where a resumed run starts) to
    ``epochs``, every value finite, and the anti-alias range follows the
    warm-up: log-linear from ``gamma_start`` to ``gamma_end`` over
    ``anneal`` epochs, then constant."""
    rows = read_train_log(path)
    expect([int(r["epoch"]) for r in rows] == list(range(first, epochs)),
           f"log rows for epochs {[r['epoch'] for r in rows]}, not {first}..{epochs - 1}")
    expect(all(math.isfinite(v) for r in rows for v in r.values()), "non-finite value logged")
    for r in rows:
        e = int(r["epoch"])
        want = gamma_end if e >= anneal else gamma_start * (gamma_end / gamma_start) ** (e / anneal)
        expect(abs(r["gamma"] - want) <= 1e-12 * want,
               f"epoch {e}: gamma {r['gamma']!r}, warm-up schedule gives {want!r}")


def check_gradient(ckpt, families, seed, h=1e-6, h2=1e-8):
    """Analytic gradient of training.total_loss vs central differences on
    seeded coordinates of the head layer and the latent, at the final
    parameters and final anti-alias range, on a seeded row subset."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 21]))
    bundle = autodecoder.load_checkpoint(ckpt)
    net, params = bundle.network, bundle.params
    family = list(families)[rng.integers(len(families))]
    label = inputs.LABELS[rng.integers(len(inputs.LABELS))]
    fi = bundle.latents.family_ids.index(family)
    li = bundle.alphabet.index(label)
    z = bundle.latents.codes[fi].copy()
    width = bundle.train_width
    gamma = bundle.aa_k / width
    glyph = glyphs.glyph_from_path(inputs.path_text(families[family][label]), label=li)
    sdf = geometry.sdf_grid(glyph, width)
    tpls = templates.build_templates(glyph, width)
    full = sampling.sample_glyph(glyph, field.kernel(sdf, gamma), sdf, tpls, gamma,
                                 sampling.SampleConfig(seed=seed))
    window = np.unique(np.concatenate(full.template_rows)) if tpls else np.zeros(0, int)
    free = np.setdiff1d(np.arange(len(full)), window)
    keep = np.sort(np.concatenate([window, rng.choice(free, min(64, len(free)), replace=False)]))
    remap = np.full(len(full), -1)
    remap[keep] = np.arange(len(keep))
    sub = sampling.SampleSet(full.positions[keep], full.targets[keep], full.kinds[keep],
                             [remap[r] for r in full.template_rows], full.rng_seed, gamma)
    eik = rng.choice(len(keep), 32, replace=False)
    weights = training.LossWeights(1.0, 0.01, 1e-4)

    def loss(zz):
        return training.total_loss(net, params, zz, li, sub, tpls, gamma=gamma,
                                   composer="median_pair", weights=weights,
                                   train_width=width, eikonal_rows=eik)

    base, grads, dz = loss(z)
    head = net.hidden_layers
    coords = [("w", (int(rng.integers(net.width)), int(rng.integers(3)))) for _ in range(4)]
    coords += [("b", (int(rng.integers(3)),)), ("z", (int(rng.integers(len(z))),))]
    for kind, idx in coords:
        arr = {"w": params.weights[head], "b": params.biases[head], "z": z}[kind]
        want = {"w": grads.weights[head], "b": grads.biases[head], "z": dz}[kind][idx]
        keep_value = arr[idx]

        def shifted(step):
            arr[idx] = keep_value + step
            value = loss(z)[0].total
            arr[idx] = keep_value
            return value

        close = lambda d: abs(d - want) <= 1e-7 + 1e-4 * abs(want)
        fd = (shifted(h) - shifted(-h)) / (2 * h)
        if close(fd):
            continue
        # a kink of the piecewise-smooth loss (LeakyReLU, band edge, median
        # order, eikonal hinge) inside [-h, h]: the gradient must then be
        # the slope of the piece holding the point, from one side
        fwd = (shifted(h2) - base.total) / h2
        bwd = (base.total - shifted(-h2)) / h2
        expect(close(fwd) or close(bwd),
               f"d/d{kind}{list(idx)}: analytic {want:.8g} vs central difference {fd:.8g}, "
               f"one-sided {bwd:.8g} / {fwd:.8g}")


def _train_small_model(b, families, labels, schedule, extra_train=None, eval_=None):
    """Set-up of infer: prepare, then train the default network at width
    16 for ``schedule`` = (epochs, warm-up epochs), twice."""
    epochs, anneal = schedule
    manifest = inputs.write_dataset(b.work / "data", families, labels)
    out = b.work / "out"
    config = inputs.write_config(
        b.work / "config.json", manifest, out, alphabet=labels, field={"train_width": 16},
        dataset={"margin": SMALL_MARGIN},
        train={"seed": b.seed, "epochs": epochs, "anneal_epochs": anneal, **(extra_train or {})},
        eval_=eval_,
    )
    base = ["--config", config]

    def setup():
        shutil.rmtree(out, ignore_errors=True)
        op = b.command("prepare", base + ["prepare"])
        if op.ok:
            b.close(op)
            op = b.command("train", base + ["train"])
        return op, [out / "checkpoint.ckpt", *(out / "prepared").glob("*")]

    setup_s, op = b.setup(2, setup)
    b.verify(op, "train_log.csv", lambda: check_train_log(
        out / "train_log.csv", epochs, anneal, AA_K / 16))
    b.close(op)
    return base, out, setup_s


def infer_workload(b, seed, seconds):
    """The read path of one family, a ring and a D: implicit render at 128
    and 256 with contours and a masked fit of one glyph, then eval
    (bilateral, 128..1024) and the contour export of both at 1024."""
    family, labels = "bold", "OD"
    families = inputs.make_families(seed, (family,))
    label = labels[seed % 2]
    fit_width = 32
    target = oracles.kernel(oracles.signed_distance(
        families[family][label], fit_width, margin=SMALL_MARGIN), AA_K / fit_width)
    write_pgm(b.work / "target.pgm", target)
    mask = np.zeros((fit_width, fit_width))
    mask[:, int(fit_width * 0.6):] = 1.0      # the right 40% of the target is hidden
    write_pgm(b.work / "mask.pgm", mask)
    resolutions = [128, 256, 512, 1024]
    top = resolutions[-1]
    base, out, setup_s = _train_small_model(
        b, families, labels, SMALL_SCHEDULE, extra_train={"fit_steps": 30},
        eval_={"resolutions": resolutions, "methods": ["bilateral"]})
    ckpt = out / "checkpoint.ckpt"
    widths = (128, 256)
    stem = f"render_{family}__{label}_implicit"

    def export():
        bundle = autodecoder.load_checkpoint(ckpt)
        z = bundle.latents.codes[bundle.latents.family_ids.index(family)]
        paths = []
        for k, ch in enumerate(labels):
            grid = render.field_grid(bundle, z, k, bundle.train_width)
            med = field.compose_median(render.bilinear_resample(grid, top), axis=0)
            paths.append(out / f"contours_{ch}_{top}.json")
            render.write_contours(paths[-1], render.extract_zero_level(med))
        return paths

    def one_round(k):
        times = {}
        before = dict(b.tracer.counters) if b.tracer else None
        op = b.command("render", base + [
            "render", "--checkpoint", ckpt, "--family", family, "--label", label,
            "--res", ",".join(map(str, widths)), "--method", "implicit", "--contours"])
        if b.tracer and b.recording:
            c = b.tracer.counters
            rc = b.render_counts
            rc["field_points"] += c["render.field_points"] - before["render.field_points"]
            rc["implicit_px"] += c["render.implicit_px"] - before["render.implicit_px"]
            rc["band_px"] += c["render.band_px"] - before["render.band_px"]
            rc["output_px"] += sum(w * w for w in widths)
        if k == 0:
            b.verify(op, "renders vs network oracle",
                     lambda: check_renders(out, stem, ckpt, family, label, widths, families, seed))
        b.close(op)
        times["render_s"] = op.seconds
        op = b.command("fit", base + [
            "fit", "--checkpoint", ckpt, "--target", b.work / "target.pgm",
            "--mask", b.work / "mask.pgm", "--label", label, "--res", 64])
        if k == 0:
            b.verify(op, "fit objective and completions",
                     lambda: check_fit(out, ckpt, labels, label, b.work, fit_width))
        b.close(op)
        times["fit_s"] = op.seconds
        op = b.command("eval", base + ["eval", "--checkpoint", ckpt])
        if k == 0:
            b.verify(op, "metrics.csv", lambda: check_metrics(
                out / "metrics.csv", ckpt, families[family], family, labels, resolutions, seed))
        b.close(op)
        times["eval_s"] = op.seconds
        op, paths = b.library("contours", export)
        if k == 0:
            b.verify(op, "contours", lambda: check_eval_contours(
                paths, ckpt, families[family], family, labels, top))
        b.close(op)
        times["contour_s"] = op.seconds
        files = [out / f"{stem}_{w}.pgm" for w in widths]
        files += [out / f"{stem}_{w}_contours.json" for w in widths]
        files += [out / "fit_z.json", *out.glob("completed_*.pgm")]
        files += [out / "metrics.csv", *(paths or [])]
        return times, files

    stats = b.rounds(seconds, one_round)
    median = lambda name: metric(statistics.median(s[name] for s in stats), "s")
    return end_to_end(setup_s, [sum(s.values()) for s in stats]), {
        "render_px_per_s": metric(
            len(stats) * sum(w * w for w in widths) / sum(s["render_s"] for s in stats), "px/s"),
        "fit_s": median("fit_s"),
        "eval_s": median("eval_s"),
        "contour_s": median("contour_s"),
    }


def check_renders(out, stem, ckpt, family, label, widths, families, seed):
    net = oracles.NetworkOracle(ckpt)
    z = net.latent(family)
    bundle = autodecoder.load_checkpoint(ckpt)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    for width in widths:
        img = read_pgm(out / f"{stem}_{width}.pgm")
        idx = rng.choice(width * width, 256, replace=False)
        ii, jj = np.divmod(idx, width)
        c = oracles.pixel_coords(width)
        pts = np.stack([c[jj], c[ii]], axis=1)
        want = net.channels(pts, label, z)
        got = autodecoder.evaluate(bundle.network, bundle.params, pts,
                                   bundle.alphabet.index(label), z)
        err = float(np.max(np.abs(got - want)))
        expect(err <= 1e-9, f"network outputs differ from the oracle by {err:.3g} at {width}")
        scaled = oracles.kernel(oracles.median3(want, axis=1), net.aa_k / width) * 255.0
        tie = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
        bad = (img[ii, jj] != np.rint(scaled)) & ~tie
        expect(not bad.any(), f"{int(bad.sum())} of 256 pixels differ from the oracle at {width}")
        truth = oracles.kernel(oracles.signed_distance(
            families[family][label], width, band=net.aa_k / width, margin=SMALL_MARGIN),
            net.aa_k / width)
        siou = oracles.soft_iou(img / 255.0, truth)
        expect(siou >= SIOU_FLOOR, f"soft IoU {siou:.3f} < {SIOU_FLOOR} at {width}")
        node = lambda i, j: net.median(np.stack([c[j], c[i]], axis=1), label, z)
        check_contour_file(out / f"{stem}_{width}_contours.json", node, (width, width))


def check_fit(out, ckpt, labels, label, work, width):
    """The fitted latent scores a lower fit objective than the start (the
    latent-table mean), recomputed with the network oracle."""
    net = oracles.NetworkOracle(ckpt)
    fitted = np.array(json.loads((out / "fit_z.json").read_text())["z"])
    target = read_pgm(work / "target.pgm") / 255.0
    keep = (read_pgm(work / "mask.pgm") / 255.0 < 0.5).ravel()
    c = oracles.pixel_coords(width)
    X, Y = np.meshgrid(c, c)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)[keep]
    tgt = target.ravel()[keep]

    def objective(z):
        comp = oracles.median_pair(oracles.kernel(net.channels(pts, label, z), net.aa_k / width))
        return float(np.mean((comp - tgt) ** 2)) + 1e-4 * float(np.linalg.norm(z))

    before = objective(net.arrays["latents"].mean(axis=0))
    after = objective(fitted)
    expect(after < before, f"fit objective did not fall: {before:.6g} -> {after:.6g}")
    for k, ch in enumerate(labels):
        img = read_pgm(out / f"completed_{k:02d}_{ch}.pgm")
        expect(img.shape == (64, 64), f"completion {ch} has shape {img.shape}")


def check_metrics(path, ckpt, glyph_set, family, labels, resolutions, seed):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    keys = sorted((r["label"], int(r["res"]), r["method"]) for r in rows)
    want = sorted((str(k), w, "bilateral") for k in range(len(labels)) for w in resolutions)
    expect(keys == want, f"rows {keys} != one per glyph, resolution and method")
    for r in rows:
        vals = [float(r[c]) for c in ("mse", "siou", "c_mse", "c_siou", "lap")]
        expect(all(math.isfinite(v) for v in vals), f"non-finite value in row {r}")
        expect(0.0 <= float(r["siou"]) <= 1.0, f"siou outside [0, 1] in row {r}")
    # recompute every row of one seeded glyph from the oracles
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
    k = int(rng.integers(len(labels)))
    contours = glyph_set[labels[k]]
    net = oracles.NetworkOracle(ckpt)
    grid = net.grid(net.manifest["train_width"], labels[k], net.latent(family))
    lap = oracles.laplacian(oracles.median3(grid))
    corners = oracles.corner_points(contours, margin=SMALL_MARGIN)
    kind = "polygon" if all(len(seg) == 2 for c in contours for seg in c) else "cubic"
    for width in resolutions:
        gamma = net.aa_k / width
        truth = oracles.kernel(oracles.signed_distance(
            contours, width, band=gamma, margin=SMALL_MARGIN), gamma)
        img = oracles.kernel(oracles.median3(oracles.bilinear(grid, width)), gamma)
        mask = oracles.corner_window_mask(corners, width)
        mine = {"mse": oracles.mse(img, truth), "siou": oracles.soft_iou(img, truth),
                "c_mse": oracles.mse(img[mask], truth[mask]),
                "c_siou": oracles.soft_iou(img[mask], truth[mask]), "lap": lap}
        row = next(r for r in rows if r["label"] == str(k) and int(r["res"]) == width)
        for name, value in mine.items():
            got = float(row[name])
            expect(abs(got - value) <= METRIC_ATOL + METRIC_RTOL[kind] * abs(value),
                   f"{labels[k]} at {width}: {name} {got!r} vs recomputed {value!r}")


def check_eval_contours(paths, ckpt, glyph_set, family, labels, top):
    net = oracles.NetworkOracle(ckpt)
    z = net.latent(family)
    cell = 2.0 / net.manifest["train_width"]
    for path, ch in zip(paths, labels):
        grid = oracles.median3(oracles.bilinear(net.grid(net.manifest["train_width"], ch, z), top))
        verts = check_contour_file(path, lambda i, j: grid[i, j], grid.shape)
        contours = glyph_set[ch]
        if all(len(seg) == 2 for c in contours for seg in c):
            far = float(np.max(oracles.outline_distance(contours, verts, margin=SMALL_MARGIN)))
            far /= cell
            expect(far <= POLYGON_CELLS,
                   f"{ch}: a contour vertex lies {far:.2f} cells from the outline")


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run


def per_layer(tracer, prepare_rebuilt, render_counts):
    s = tracer.summary()
    inc, own, layer_self, entry = s["inclusive"], s["self"], s["layer_self"], s["layer_entry"]
    c = tracer.counters
    t = lambda *names: sum(inc.get(n, 0.0) for n in names)
    ratio = lambda a, b: a / b if b else 0.0
    gflop = 2.0 * c["autodecoder.macs"] / 1e9
    net_s = t("autodecoder.forward", "autodecoder.backward")
    out = {
        "autodecoder.forward_s": metric(t("autodecoder.forward"), "s"),
        "autodecoder.backward_s": metric(t("autodecoder.backward"), "s"),
        "autodecoder.adam_s": metric(t("autodecoder.adam_step"), "s"),
        "autodecoder.rows": metric(c["autodecoder.rows"], "count"),
        "autodecoder.gflop": metric(gflop, "GFLOP"),
        "autodecoder.gflop_per_s": metric(ratio(gflop, net_s), "GFLOP/s"),
        "autodecoder.checkpoint_io_s": metric(
            t("autodecoder.save_checkpoint", "autodecoder.load_checkpoint"), "s"),
        "training.total_loss_self_s": metric(own.get("training.total_loss", 0.0), "s"),
        "training.steps": metric(c["training.steps"], "count"),
        "training.fit_latent_s": metric(t("training.fit_latent"), "s"),
        "sampling.sample_glyph_s": metric(t("sampling.sample_glyph"), "s"),
        "sampling.rebuilds": metric(c["sampling.rebuilds"], "count"),
        "sampling.rows": metric(c["sampling.rows"], "count"),
        "templates.corner_loss_s": metric(
            t("templates.corner_loss_grad", "templates.corner_loss"), "s"),
        "templates.build_s": metric(
            t("templates.build_templates", "templates.templates_from_arrays"), "s"),
        "field.kernel_s": metric(t("field.kernel", "field.kernel_grad"), "s"),
        "field.compose_s": metric(
            t("field.compose_median", "field.compose_train", "field.compose_train_grad"), "s"),
        "field.grid_io_s": metric(t("field.read_grid", "field.write_grid"), "s"),
        "geometry.sdf_grid_s": metric(t("geometry.sdf_grid"), "s"),
        "geometry.sdf_px": metric(c["geometry.sdf_px"], "count"),
        "geometry.distance_s": metric(t("geometry.distance_batch"), "s"),
        "geometry.winding_s": metric(t("geometry.winding_batch"), "s"),
        "geometry.segment_evals_per_px": metric(
            ratio(c["geometry.segment_points"], c["geometry.sdf_px"]), "evals/px"),
        "render.field_grid_s": metric(t("render.field_grid"), "s"),
        "render.field_evals_per_px": metric(
            ratio(render_counts["field_points"], render_counts["output_px"]), "evals/px"),
        "render.band_fraction": metric(
            ratio(render_counts["band_px"], render_counts["implicit_px"]), "ratio"),
        "render.bilinear_s": metric(t("render.bilinear_resample"), "s"),
        "render.zero_level_s": metric(t("render.extract_zero_level"), "s"),
        "render.zero_level_cells": metric(c["render.zero_level_cells"], "count"),
        "render.pgm_io_s": metric(t("render.write_image", "render.read_image"), "s"),
        "metrics.s": metric(entry.get("metrics", 0.0), "s"),
        "glyphs.parse_s": metric(entry.get("glyphs", 0.0), "s"),
        "cli.prepare_rebuilt": metric(prepare_rebuilt, "count"),
    }
    for layer in ("cli", "glyphs", "geometry", "field", "templates", "sampling",
                  "autodecoder", "training", "render", "metrics"):
        out[f"{layer}.self_s"] = metric(layer_self.get(layer, 0.0), "s")
    return out


RUNNERS = {"train": train_workload, "infer": infer_workload}


def run(workload, seed, seconds, trace, work):
    bench = Bench(workload, seed, trace, work)
    with bench.record(False):
        try:
            test_oracles.run_all()
        except AssertionError as exc:
            bench.attempted += 1
            bench.failed += 1
            bench.problems.append(f"oracle self-test: {exc}")
    return bench.result(*RUNNERS[workload](bench, seed, seconds))
