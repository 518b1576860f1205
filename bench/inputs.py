"""Seeded glyph families for the benchmark workloads.

Every glyph is drawn inside the unit square [0, 1]^2 from a handful of
parameters (stroke widths, cubic control points).  Each parameter comes
from a range that keeps the outline simple and closed:

* ``O`` square ring: outer square, square hole at [a, 1 - a];
* ``L`` L polygon with stem width w;
* ``T`` T polygon with bar and stem width w;
* ``Q`` diamond ring: outer diamond of radius 0.5, diamond hole of radius r;
* ``D`` a "D": one stem line and two cubic arcs.  The arcs are monotone in
  x and y, meet the stem at right angles (two corners) and join smoothly at
  (1, 0.5), so the outline is convex.

Outer contours run counter-clockwise and holes clockwise.  For every
glyph the control-point bounding box equals the outline's bounding box
([0, 1]^2), so normalization needs no curve extrema.

A glyph is a list of contours; a contour is a list of segments; a segment
is a list of 2 (line) or 4 (cubic) control points, each segment starting
where the previous one ended and the last ending at the first's start.
The program sees only the path text written from these lists.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LABELS = "OLTQD"

# parameter ranges per family; "thin" and "bold" share shapes, not weights
RANGES = {
    "thin": {"ring": (0.16, 0.24), "l": (0.28, 0.36), "t": (0.26, 0.34),
             "diamond": (0.20, 0.28), "d_ctrl": (0.45, 0.60)},
    "bold": {"ring": (0.30, 0.38), "l": (0.50, 0.60), "t": (0.45, 0.55),
             "diamond": (0.10, 0.15), "d_ctrl": (0.62, 0.75)},
}


def _polygon(*points):
    pts = [tuple(map(float, p)) for p in points]
    return [[pts[k], pts[(k + 1) % len(pts)]] for k in range(len(pts))]


def ring(a):
    b = 1.0 - a
    return [
        _polygon((0, 0), (1, 0), (1, 1), (0, 1)),
        _polygon((a, a), (a, b), (b, b), (b, a)),
    ]


def l_shape(w):
    return [_polygon((0, 0), (1, 0), (1, w), (w, w), (w, 1), (0, 1))]


def t_shape(w):
    lo, hi = 0.5 - w / 2, 0.5 + w / 2
    return [_polygon((0, 1), (0, 1 - w), (lo, 1 - w), (lo, 0), (hi, 0),
                     (hi, 1 - w), (1, 1 - w), (1, 1))]


def diamond_ring(r):
    lo, hi = 0.5 - r, 0.5 + r
    return [
        _polygon((0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5)),
        _polygon((0.5, lo), (lo, 0.5), (0.5, hi), (hi, 0.5)),
    ]


def d_shape(bx, by, tx, ty):
    """Stem on x = 0, bottom arc to (1, 0.5), top arc back to (0, 1).

    ``bx``, ``tx`` in (0, 1) pull the arcs along the horizontal tangents at
    the stem; ``by`` in (0, 0.5) and ``ty`` in (0.5, 1) set where the
    vertical tangent at (1, 0.5) is aimed.
    """
    return [[
        [(0.0, 0.0), (bx, 0.0), (1.0, by), (1.0, 0.5)],
        [(1.0, 0.5), (1.0, ty), (tx, 1.0), (0.0, 1.0)],
        [(0.0, 1.0), (0.0, 0.0)],
    ]]


def make_family(name, rng):
    """{label: contours} for one family, parameters drawn from ``rng``."""
    r = RANGES[name]
    u = lambda key: float(rng.uniform(*r[key]))
    ctrl_lo, ctrl_hi = r["d_ctrl"]
    return {
        "O": ring(u("ring")),
        "L": l_shape(u("l")),
        "T": t_shape(u("t")),
        "Q": diamond_ring(u("diamond")),
        "D": d_shape(
            float(rng.uniform(ctrl_lo, ctrl_hi)), float(rng.uniform(0.05, 0.25)),
            float(rng.uniform(ctrl_lo, ctrl_hi)), float(rng.uniform(0.75, 0.95)),
        ),
    }


def make_families(seed, names=("thin", "bold")):
    """{family: {label: contours}}, the same for the same seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    return {name: make_family(name, rng) for name in names}


def path_text(contours):
    cmds = {2: "L", 4: "C"}
    lines = []
    for contour in contours:
        x0, y0 = contour[0][0]
        words = ["M", repr(x0), repr(y0)]
        for seg in contour:
            words.append(cmds[len(seg)])
            for x, y in seg[1:]:
                words += [repr(x), repr(y)]
        words.append("Z")
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def write_dataset(directory, families, labels=LABELS):
    """Write one path file per glyph plus the manifest; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for family, glyphs in families.items():
        for label in labels:
            name = f"{family}_{label}.path"
            (directory / name).write_text(path_text(glyphs[label]), encoding="utf-8")
            records.append({"family": family, "label": label, "file": name})
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(records, indent=1), encoding="utf-8")
    return manifest


def write_config(path, manifest, output_dir, *, alphabet=LABELS, train=None,
                 field=None, eval_=None, dataset=None):
    doc = {
        "dataset": {"manifest": str(manifest), "alphabet": alphabet, **(dataset or {})},
        "field": dict(field or {}),
        "train": {"threads": 1, **(train or {})},
        "eval": dict(eval_ or {}),
        "paths": {"output_dir": str(output_dir)},
    }
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return Path(path)
