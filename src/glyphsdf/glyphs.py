"""Vector glyph outlines: path parsing, normalization, dataset manifests.

A glyph is a set of closed contours made of line / quadratic / cubic
segments.  Path text uses absolute commands only::

    M x y   start a subpath
    L x y   line to
    Q cx cy x y             quadratic to
    C c1x c1y c2x c2y x y   cubic to
    Z       close the subpath (a closing line is inserted if needed)

Coordinates are normalized so the glyph bounding box sits inside
[-0.85, 0.85]^2 (margin 0.15 of the [-1, 1]^2 field domain).  Outer
contours are conventionally counter-clockwise and holes clockwise
(nonzero winding fill); corner convexity detection probes the actual
ink side, so clockwise-only inputs still work.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import DEFAULT_ALPHABET, DEFAULT_MARGIN
from .errors import GeometryError, ManifestError, PathSyntaxError

_ARITY = {"M": 2, "L": 2, "Q": 4, "C": 6, "Z": 0}


class Segment:
    """One path segment with 2 (line), 3 (quadratic) or 4 (cubic) control points."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] not in (2, 3, 4) or pts.shape[1] != 2:
            raise GeometryError(
                f"segment needs 2-4 planar control points, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise GeometryError("segment control points must be finite")
        self.points = pts

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]

    def __repr__(self):
        pts = ", ".join(f"({x:g}, {y:g})" for x, y in self.points)
        return f"Segment<{pts}>"


@dataclass
class Contour:
    """A closed, ordered chain of segments."""

    segments: list

    def __post_init__(self):
        if not self.segments:
            raise GeometryError("contour must have at least one segment")
        n = len(self.segments)
        for i, seg in enumerate(self.segments):
            nxt = self.segments[(i + 1) % n]
            if not np.array_equal(seg.end, nxt.start):
                raise GeometryError(
                    f"contour not closed: segment {i} ends at {seg.end.tolist()} "
                    f"but segment {(i + 1) % n} starts at {nxt.start.tolist()}"
                )

    def control_points(self):
        return np.concatenate([s.points for s in self.segments], axis=0)


@dataclass
class Glyph:
    """Contours plus the glyph label index."""

    contours: list
    label: int = 0

    def control_points(self):
        if not self.contours:
            return np.zeros((0, 2))
        return np.concatenate([c.control_points() for c in self.contours], axis=0)

    def bounding_box(self):
        """(min_xy, max_xy) over all control points; None for an empty glyph."""
        pts = self.control_points()
        if len(pts) == 0:
            return None
        return pts.min(axis=0), pts.max(axis=0)


_TOKEN_RE = re.compile(r"\S+")


def _tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line):
            tokens.append((m.group(0), lineno, m.start() + 1))
    return tokens


def _parse_number(tok):
    text, line, col = tok
    try:
        value = float(text)
    except ValueError:
        raise PathSyntaxError(f"expected a number, got {text!r}", line, col) from None
    if not np.isfinite(value):
        raise PathSyntaxError(f"non-finite number {text!r}", line, col)
    return value


def parse_path(text):
    """Parse path text into a list of closed contours.

    Every subpath must begin with ``M`` and end with ``Z``; if the pen is
    not back at the subpath start when ``Z`` is read, a closing line
    segment is inserted.  Raises :class:`PathSyntaxError` with line/column
    on any malformed input.
    """
    tokens = _tokenize(text)
    contours = []
    i = 0
    n = len(tokens)

    def take_numbers(count, cmd_tok):
        nonlocal i
        values = []
        for _ in range(count):
            if i >= n or tokens[i][0] in _ARITY:
                text_, line, col = cmd_tok
                raise PathSyntaxError(
                    f"command '{text_}' expects {count} numbers", line, col
                )
            values.append(_parse_number(tokens[i]))
            i += 1
        return values

    while i < n:
        tok = tokens[i]
        text_, line, col = tok
        if text_ != "M":
            if text_ in _ARITY:
                raise PathSyntaxError(f"expected 'M' to start a subpath", line, col)
            if len(text_) == 1 and text_.isalpha():
                raise PathSyntaxError(f"unknown command {text_!r}", line, col)
            raise PathSyntaxError(f"expected 'M' to start a subpath, got {text_!r}", line, col)
        i += 1
        sx, sy = take_numbers(2, tok)
        start = np.array([sx, sy])
        pen = start
        segments = []
        closed = False
        while i < n:
            tok = tokens[i]
            text_, line, col = tok
            if text_ not in _ARITY:
                if len(text_) == 1 and text_.isalpha():
                    raise PathSyntaxError(f"unknown command {text_!r}", line, col)
                raise PathSyntaxError(f"expected a command, got {text_!r}", line, col)
            i += 1
            if text_ == "Z":
                if not np.array_equal(pen, start):
                    segments.append(Segment([pen, start]))
                if not segments:
                    raise PathSyntaxError("degenerate single-point subpath", line, col)
                contours.append(Contour(segments))
                closed = True
                break
            if text_ == "M":
                raise PathSyntaxError("subpath not closed before next 'M'", line, col)
            vals = take_numbers(_ARITY[text_], tok)
            pts = np.array(vals).reshape(-1, 2)
            segments.append(Segment(np.concatenate([[pen], pts], axis=0)))
            pen = pts[-1]
        if not closed:
            last = tokens[-1]
            raise PathSyntaxError("unclosed subpath at end of input", last[1], last[2])
    return contours


def normalize(glyph, margin=DEFAULT_MARGIN):
    """Uniformly scale + translate so the bounding box is centered at the
    origin with max extent 2*(1 - margin).  Aspect ratio is preserved."""
    if not 0 <= margin < 1:
        raise GeometryError(f"margin must be in [0, 1), got {margin}")
    box = glyph.bounding_box()
    if box is None:
        raise GeometryError("cannot normalize an empty glyph")
    lo, hi = box
    extent = float(np.max(hi - lo))
    if extent <= 0:
        raise GeometryError("cannot normalize a zero-extent glyph")
    center = (lo + hi) / 2.0
    scale = 2.0 * (1.0 - margin) / extent
    contours = [
        Contour([Segment((s.points - center) * scale) for s in c.segments])
        for c in glyph.contours
    ]
    return Glyph(contours, label=glyph.label)


def glyph_from_path(text, label=0, margin=DEFAULT_MARGIN):
    """Parse + normalize in one go."""
    return normalize(Glyph(parse_path(text), label=label), margin)


@dataclass(frozen=True)
class ManifestEntry:
    family_id: str
    family_index: int
    label: int
    label_char: str
    path: Path


def load_manifest(path, alphabet=DEFAULT_ALPHABET):
    """Load a dataset manifest: a JSON array of {family, label, file}.

    Labels resolve against ``alphabet``; file paths resolve relative to the
    manifest location.  Family latent indices follow first appearance.
    """
    path = Path(path)
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(records, list):
        raise ManifestError("manifest must be a JSON array")
    entries = []
    family_index = {}
    seen = set()
    for k, rec in enumerate(records):
        if not (isinstance(rec, dict) and set(rec) == {"family", "label", "file"}
                and all(isinstance(v, str) for v in rec.values())):
            raise ManifestError(
                f"manifest record {k} must have exactly the keys family/label/file, as strings"
            )
        family = rec["family"]
        label_char = rec["label"]
        if label_char not in alphabet or len(label_char) != 1:
            raise ManifestError(
                f"manifest record {k}: label {label_char!r} not in alphabet"
            )
        label = alphabet.index(label_char)
        if (family, label_char) in seen:
            raise ManifestError(
                f"duplicate (family, label) pair ({family!r}, {label_char!r})"
            )
        seen.add((family, label_char))
        try:
            glyph_path = (path.parent / rec["file"]).resolve()
            found = glyph_path.is_file()
        except (OSError, ValueError) as exc:
            # ValueError: a NUL byte; OSError: a name too long, among others
            raise ManifestError(f"manifest record {k}: bad file name: {exc}") from exc
        if not found:
            raise ManifestError(f"glyph file not found: {glyph_path}")
        if family not in family_index:
            family_index[family] = len(family_index)
        entries.append(
            ManifestEntry(family, family_index[family], label, label_char, glyph_path)
        )
    return entries
