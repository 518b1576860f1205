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
from .errors import ImageError
from .field import MIN_WIDTH, compose_median, kernel


def field_grid(bundle, z, label, width):
    """Raw channel outputs at all pixel centers, shape (n, W, W)."""
    if width < MIN_WIDTH:
        raise ValueError(f"render width must be >= {MIN_WIDTH}, got {width}")
    pts = geometry.pixel_centers(width).reshape(-1, 2)
    out = ad.evaluate(bundle.network, bundle.params, pts, label, z)
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

# segment endpoints per corner-sign case, oriented with the positive region
# on the left of travel so adjacent cells chain head-to-tail
_MS_LUT = {
    (True, False, False, False): [("t", "l")],
    (False, True, False, False): [("r", "t")],
    (False, False, True, False): [("b", "r")],
    (False, False, False, True): [("l", "b")],
    (True, True, False, False): [("r", "l")],
    (False, True, True, False): [("b", "t")],
    (False, False, True, True): [("l", "r")],
    (True, False, False, True): [("t", "b")],
    (True, True, True, False): [("b", "l")],
    (True, True, False, True): [("r", "b")],
    (True, False, True, True): [("t", "r")],
    (False, True, True, True): [("l", "t")],
}


def extract_zero_level(grid):
    """Piecewise-linear contours of the zero level set of a scalar grid.

    Marching squares over pixel-center nodes with linear interpolation on
    the crossing edges.  The two ambiguous saddle cases are resolved by the
    sign of the cell-center sample (mean of the four corners), which is
    deterministic.  Returns a list of (m, 2) arrays in field coordinates;
    closed loops repeat their first vertex at the end, and an open contour
    comes back as one polyline from the domain border to the border.
    """
    f = np.asarray(grid, dtype=np.float64)
    h, w = f.shape
    if h < 2 or w < 2:
        return []
    inside = f > 0.0
    xs = geometry.pixel_center(np.arange(w), w).tolist()
    ys = geometry.pixel_center(np.arange(h), h).tolist()

    def interp(i0, j0, i1, j1):
        va, vb = f[i0, j0], f[i1, j1]
        t = va / (va - vb)
        xa, ya = xs[j0], ys[i0]
        xb, yb = xs[j1], ys[i1]
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    # a cell is crossed unless its four corners agree; classify all cells at
    # once and visit only the crossed ones, in row-major order
    tl, tr, br, bl = inside[:-1, :-1], inside[:-1, 1:], inside[1:, 1:], inside[1:, :-1]
    crossed = (tl != tr) | (tr != br) | (br != bl)
    # segments are (start_edge_id, end_edge_id, start_xy, end_xy); edge ids
    # name grid edges, so loops chain exactly with no coordinate tolerance
    segments = []
    for i, j in np.argwhere(crossed).tolist():
        key = (
            bool(inside[i, j]),
            bool(inside[i, j + 1]),
            bool(inside[i + 1, j + 1]),
            bool(inside[i + 1, j]),
        )
        eid = {
            "t": ("h", i, j),
            "r": ("v", i, j + 1),
            "b": ("h", i + 1, j),
            "l": ("v", i, j),
        }
        # interpolate lazily: only crossing edges have a valid divisor
        corners_of = {
            "t": (i, j, i, j + 1),
            "r": (i, j + 1, i + 1, j + 1),
            "b": (i + 1, j, i + 1, j + 1),
            "l": (i, j, i + 1, j),
        }
        if key in _MS_LUT:
            pairs = _MS_LUT[key]
        else:
            center = f[i, j] + f[i, j + 1] + f[i + 1, j] + f[i + 1, j + 1]
            if key == (True, False, True, False):
                pairs = [("t", "r"), ("b", "l")] if center > 0 else [("t", "l"), ("b", "r")]
            else:  # (False, True, False, True)
                pairs = [("r", "b"), ("l", "t")] if center > 0 else [("r", "t"), ("l", "b")]
        for a, b in pairs:
            segments.append(
                (eid[a], eid[b], interp(*corners_of[a]), interp(*corners_of[b]))
            )

    starts, ends = {}, {}
    for k, seg in enumerate(segments):
        starts.setdefault(seg[0], []).append(k)
        ends.setdefault(seg[1], []).append(k)
    used = [False] * len(segments)

    def unused(index, edge):
        return next((k for k in index.get(edge, ()) if not used[k]), None)

    contours = []
    for k0 in range(len(segments)):
        if used[k0]:
            continue
        used[k0] = True
        first_edge, cur_edge, pa, pb = segments[k0]
        chain = [pa, pb]
        while (nxt := unused(starts, cur_edge)) is not None:
            used[nxt] = True
            _, cur_edge, _, pb = segments[nxt]
            chain.append(pb)
        # an open chain may have started mid-way: extend it backward through
        # the segments that end on its first edge (a closed loop has none left)
        head = []
        while (prv := unused(ends, first_edge)) is not None:
            used[prv] = True
            first_edge, _, pa, _ = segments[prv]
            head.append(pa)
        contours.append(np.asarray(head[::-1] + chain))
    return contours


def write_contours(path, contours):
    payload = [np.asarray(c).tolist() for c in contours]
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# 8-bit binary PGM output

def write_image(path, image):
    """Write a [0,1] image as binary PGM (P5), value = round(v * 255).

    Rounding is IEEE round-half-to-even via ``np.rint`` so output is
    bit-exact across platforms.
    """
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
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
