"""Resolution-independent rendering, level-set extraction, image output.

Two re-sampling routes produce an image at any width W:

* implicit: evaluate the network densely at the W^2 pixel centers, take
  the per-pixel median of the distance channels, apply the opacity kernel
  with gamma = aa_k / W (the anti-alias band stays ~aa_k output pixels
  wide at every resolution);
* bilateral: bilinearly upsample the stored train-resolution distance
  grid per channel, then median + kernel as above.

Pixel-supervised models skip the kernel and clip the median directly.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import autodecoder as ad
from . import geometry
from .config import MIN_WIDTH
from .errors import ImageError, NumericalError
from .field import compose_median, kernel


def field_grid(bundle, z, label, width):
    """Raw channel outputs at all pixel centers, shape (n, W, W)."""
    if width < MIN_WIDTH:
        raise ValueError(f"render width must be >= {MIN_WIDTH}, got {width}")
    pts = geometry.pixel_centers(width).reshape(-1, 2)
    out = ad.evaluate(bundle.network, bundle.params, pts, label, z)
    if not np.isfinite(out).all():
        raise NumericalError(f"the network returned non-finite values at width {width}")
    n = bundle.network.out_channels
    return out.T.reshape(n, width, width)


def opacity(values, width, aa_k, supervision):
    """Opacity of field values at output width W: the kernel with
    gamma = aa_k / W for distances, a clip to [0, 1] for pixel supervision."""
    if supervision == "sdf":
        return kernel(values, aa_k / width)
    return np.clip(values, 0.0, 1.0)


def compose_image(channels, width, aa_k, supervision):
    """The rendered image of (n, W, W) channels: opacity of their median."""
    return opacity(compose_median(channels, axis=0), width, aa_k, supervision)


def zero_level_field(channels, supervision):
    """Scalar (W, W) field whose zero level set is the rendered outline:
    the channel median, less 1/2 for pixel-supervised opacities."""
    med = compose_median(channels, axis=0)
    return med if supervision == "sdf" else med - 0.5


def render_implicit(bundle, z, label, width):
    """Dense network evaluation at the target resolution; (W, W) in [0,1]."""
    grid = field_grid(bundle, z, label, width)
    return compose_image(grid, width, bundle.aa_k, bundle.supervision)


def bilinear_resample(grid, width):
    """Bilinearly resample (n, h, w) channels to (n, width, width).

    Pixel centers on both sides follow the ((j+0.5)/W*2-1) convention, so
    resampling at the source width is the identity.  Downsampling is
    allowed.  Border pixels clamp to the outermost source centers.
    """
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim == 2:
        g = g[None]
    n, h, w = g.shape
    xt = ((np.arange(width) + 0.5) / width) * w - 0.5
    yt = ((np.arange(width) + 0.5) / width) * h - 0.5
    x0 = np.clip(np.floor(xt).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(yt).astype(int), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xt - x0, 0.0, 1.0)
    fy = np.clip(yt - y0, 0.0, 1.0)[:, None]
    gx, gy = 1 - fx, 1 - fy
    # each source row is interpolated along x once, into (h, width) rows;
    # an output row blends two of them, the same products and sums as
    # gathering the four corners of every output pixel
    rows, rows_x1 = np.empty((h, width)), np.empty((h, width))
    bot = np.empty((width, width))
    out = np.empty((n, width, width))
    for c in range(n):
        np.take(g[c], x0, axis=1, out=rows)
        rows *= gx
        np.take(g[c], x1, axis=1, out=rows_x1)
        rows_x1 *= fx
        rows += rows_x1
        top = np.take(rows, y0, axis=0, out=out[c])
        top *= gy
        np.take(rows, y1, axis=0, out=bot)
        bot *= fy
        top += bot
    return out


def render_bilateral(grid, width, aa_k=4.0, supervision="sdf"):
    """Upsample a stored field grid and compose; (W, W) in [0, 1]."""
    up = bilinear_resample(grid, width)
    return compose_image(up, width, aa_k, supervision)


# ---------------------------------------------------------------------------
# zero-level-set extraction (marching squares, linear interpolation)

# a cell's edges, top, right, bottom, left: the (row, col) offset of the
# edge's first node and the step to its second
_T, _R, _B, _L = range(4)
_EDGE_NODE = np.array([[0, 0], [0, 1], [1, 0], [0, 0]])
_EDGE_STEP = np.array([[0, 1], [1, 0], [0, 1], [1, 0]])
_NO = (-1, -1)
# the (start edge, end edge) of a cell's segments, indexed by its corner case
# tl + 2 tr + 4 br + 8 bl (bit set = corner inside).  Each segment keeps the
# positive region on its left, so adjacent cells chain head-to-tail.  The
# saddles 5 and 10 join the corners around a negative center; rows 16 and
# 17 are the same saddles with a positive center.
_CASES = np.array([
    (_NO, _NO), ((_T, _L), _NO), ((_R, _T), _NO), ((_R, _L), _NO),
    ((_B, _R), _NO), ((_T, _L), (_B, _R)), ((_B, _T), _NO), ((_B, _L), _NO),
    ((_L, _B), _NO), ((_T, _B), _NO), ((_R, _T), (_L, _B)), ((_R, _B), _NO),
    ((_L, _R), _NO), ((_T, _R), _NO), ((_L, _T), _NO), (_NO, _NO),
    ((_T, _R), (_B, _L)), ((_R, _B), (_L, _T)),
])


def extract_zero_level(grid):
    """Piecewise-linear contours of the zero level set of a scalar grid.

    Marching squares over pixel-center nodes with linear interpolation on
    the crossing edges, driven by one case table.  The two ambiguous saddle
    cases are resolved by the sign of the cell-center sample (mean of the
    four corners), which is deterministic.  Segments chain through integer
    edge ids, so loops close exactly with no coordinate tolerance.  Returns
    a list of (m, 2) arrays in field coordinates; closed loops repeat their
    first vertex at the end, and an open contour comes back as one polyline
    from the domain border to the border.  A non-finite value raises
    :class:`NumericalError`.
    """
    f = np.asarray(grid, dtype=np.float64)
    if not np.isfinite(f).all():
        raise NumericalError("zero level set of a field with non-finite values")
    h, w = f.shape
    if h < 2 or w < 2:
        return []
    inside = (f > 0.0).view(np.uint8)
    case = inside[:-1, :-1] | inside[:-1, 1:] << 1 | inside[1:, 1:] << 2 | inside[1:, :-1] << 3
    i, j = np.nonzero((case != 0) & (case != 15))
    case = case[i, j]
    saddle = np.flatnonzero((case == 5) | (case == 10))
    si, sj = i[saddle], j[saddle]
    center = f[si, sj] + f[si, sj + 1] + f[si + 1, sj] + f[si + 1, sj + 1]
    positive = saddle[center > 0]
    case[positive] = np.where(case[positive] == 5, 16, 17)

    # (segment, start/end) local edges, in row-major cell order
    seg = _CASES[case]
    has = seg[:, :, 0] >= 0
    edge = seg[has]
    cell = np.nonzero(has)[0]
    ia = i[cell, None] + _EDGE_NODE[edge, 0]
    ja = j[cell, None] + _EDGE_NODE[edge, 1]
    ib = ia + _EDGE_STEP[edge, 0]
    jb = ja + _EDGE_STEP[edge, 1]
    va, vb = f[ia, ja], f[ib, jb]
    t = va / (va - vb)
    xs = geometry.pixel_center(np.arange(w), w)
    ys = geometry.pixel_center(np.arange(h), h)
    points = np.stack([xs[ja] + t * (xs[jb] - xs[ja]), ys[ia] + t * (ys[ib] - ys[ia])], axis=-1)
    # a grid edge is its first node and its direction
    starts, ends = (2 * (ia * w + ja) + _EDGE_STEP[edge, 0]).T.tolist()

    # each crossed edge starts at most one segment and ends at most one
    start_of = {e: k for k, e in enumerate(starts)}
    end_of = {e: k for k, e in enumerate(ends)}
    used = [False] * len(starts)
    contours = []
    for k0 in range(len(starts)):
        if used[k0]:
            continue
        used[k0] = True
        chain = [k0]
        while (k := start_of.get(ends[chain[-1]])) is not None and not used[k]:
            used[k] = True
            chain.append(k)
        # an open chain may have started mid-way: extend it backward through
        # the segments that end on its first edge (a closed loop has none left)
        head = [k0]
        while (k := end_of.get(starts[head[-1]])) is not None and not used[k]:
            used[k] = True
            head.append(k)
        contours.append(np.concatenate([points[head[::-1], 0], points[chain, 1]]))
    return contours


def write_contours(path, contours):
    payload = [np.asarray(c).tolist() for c in contours]
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# 8-bit binary PGM output

def write_image(path, image):
    """Write a [0,1] image as binary PGM (P5), value = round(v * 255).

    Rounding is IEEE round-half-to-even via ``np.rint`` so output is
    bit-exact across platforms.  A non-finite value raises
    :class:`NumericalError`.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    if not np.isfinite(img).all():
        raise NumericalError(f"non-finite value in image {path}")
    img = np.clip(img, 0.0, 1.0)
    data = np.rint(img * 255.0).astype(np.uint8)
    h, w = data.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + data.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write image {path}: {exc}") from exc


def read_image(path):
    """Read a binary PGM (P5) back to floats in [0, 1].

    Samples are one byte for maxval <= 255 and two big-endian bytes above
    it.  A bad header, a truncated payload or a sample above maxval raises
    :class:`ImageError`.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise ImageError(f"not a binary PGM file: {path}")
    # header: magic, width, height, maxval, single whitespace, then payload
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        # more than 18 digits is no real size, and int() refuses past 4300
        if not raw[start:pos].isdigit() or pos - start > 18:
            raise ImageError(f"bad PGM header in {path}")
        fields.append(int(raw[start:pos]))
    pos += 1  # the single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1 or not 1 <= maxval <= 65535:
        raise ImageError(f"bad PGM header in {path}: {w}x{h}, maxval {maxval}")
    dtype = np.dtype(np.uint8) if maxval <= 255 else np.dtype(">u2")
    if len(raw) - pos < w * h * dtype.itemsize:
        raise ImageError(f"truncated PGM payload in {path}")
    data = np.frombuffer(raw, dtype=dtype, count=w * h, offset=pos)
    if data.max() > maxval:
        raise ImageError(f"PGM sample above maxval {maxval} in {path}")
    return data.reshape(h, w).astype(np.float64) / float(maxval)
