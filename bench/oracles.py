"""Reference computations made apart from the glyphsdf package.

Nothing here imports glyphsdf.  The geometry oracle works on the
benchmark's own glyph description (bench/inputs.py), the network oracle
on the raw bytes of a checkpoint file, and the image oracles on plain
arrays.

* Signed distance: cubics are flattened to dense polylines, distance is
  the minimum over straight edges, the sign comes from the even-odd rule
  along each pixel row.  With ``band`` set, distances are only resolved
  within ``band`` of the outline; farther pixels read +-inf, which is all
  an anti-aliased raster of width ``band`` needs.
* Network: the checkpoint's weight arrays applied with a plain forward
  pass, the per-pixel median of the channels and the cubic opacity ramp.
"""
from __future__ import annotations

import json
import struct

import numpy as np

MARGIN = 0.15          # glyphsdf's default: outlines fill [-0.85, 0.85]^2
CORNER_ANGLE = 3.0     # junctions sharper than this (radians) are corners


# ---------------------------------------------------------------------------
# geometry


def _bezier(ctrl, ts):
    ctrl = np.asarray(ctrl, dtype=np.float64)
    s = 1.0 - ts
    return (np.outer(s**3, ctrl[0]) + np.outer(3 * s * s * ts, ctrl[1])
            + np.outer(3 * s * ts * ts, ctrl[2]) + np.outer(ts**3, ctrl[3]))


def _normalizer(contours, margin=MARGIN):
    pts = np.array([p for c in contours for seg in c for p in seg], dtype=np.float64)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = (lo + hi) / 2.0
    scale = 2.0 * (1.0 - margin) / float(np.max(hi - lo))
    return lambda p: (np.asarray(p, dtype=np.float64) - center) * scale


def polylines(contours, per_cubic=2048, margin=MARGIN):
    """Closed polylines (first vertex not repeated) in field coordinates."""
    norm = _normalizer(contours, margin)
    out = []
    for contour in contours:
        verts = []
        for seg in contour:
            if len(seg) == 2:
                verts.append(norm([seg[0]]))
            else:
                ts = np.linspace(0.0, 1.0, per_cubic, endpoint=False)
                verts.append(norm(_bezier(seg, ts)))
        out.append(np.concatenate(verts, axis=0))
    return out


def corner_points(contours, margin=MARGIN, threshold=CORNER_ANGLE):
    """Junctions whose interior angle is below ``threshold``, normalized."""
    norm = _normalizer(contours, margin)
    found = []
    for contour in contours:
        n = len(contour)
        for k in range(n):
            a, b = np.asarray(contour[k], float), np.asarray(contour[(k + 1) % n], float)
            u = a[-1] - a[-2]
            v = b[1] - b[0]
            cos = -(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            if np.arccos(np.clip(cos, -1.0, 1.0)) < threshold:
                found.append(norm(b[0]))
    return np.array(found).reshape(-1, 2)


def pixel_coords(width):
    """Pixel-center coordinates (j + 0.5) / W * 2 - 1 along one axis."""
    return (np.arange(width) + 0.5) / width * 2.0 - 1.0


def _edges(lines):
    a = np.concatenate(lines, axis=0)
    b = np.concatenate([np.roll(p, -1, axis=0) for p in lines], axis=0)
    return a, b


def even_odd_inside(lines, width):
    """Inside mask at pixel centers, row i at y_i, by per-row crossing parity."""
    c = pixel_coords(width)
    a, b = _edges(lines)
    inside = np.zeros((width, width), dtype=bool)
    for i, y in enumerate(c):
        straddle = (np.minimum(a[:, 1], b[:, 1]) <= y) & (y < np.maximum(a[:, 1], b[:, 1]))
        ea, eb = a[straddle], b[straddle]
        xc = np.sort(ea[:, 0] + (y - ea[:, 1]) / (eb[:, 1] - ea[:, 1]) * (eb[:, 0] - ea[:, 0]))
        right = len(xc) - np.searchsorted(xc, c, side="right")
        inside[i] = right % 2 == 1
    return inside


def point_segment_distance(p, a, b):
    """Distance from points p (..., 2) to the segment a-b."""
    ab = b - a
    denom = float(ab @ ab)
    t = np.zeros(p.shape[:-1]) if denom == 0.0 else np.clip(((p - a) @ ab) / denom, 0.0, 1.0)
    d = p - (a + t[..., None] * ab)
    return np.sqrt(np.sum(d * d, axis=-1))


def unsigned_distance(lines, width, band=np.inf):
    """Distance grid; exact wherever it is below ``band``, else >= band or inf."""
    c = pixel_coords(width)
    out = np.full((width, width), np.inf)
    a, b = _edges(lines)
    for pa, pb in zip(a, b):
        lo = np.minimum(pa, pb) - band
        hi = np.maximum(pa, pb) + band
        j0, j1 = np.searchsorted(c, lo[0]), np.searchsorted(c, hi[0], side="right")
        i0, i1 = np.searchsorted(c, lo[1]), np.searchsorted(c, hi[1], side="right")
        if j0 >= j1 or i0 >= i1:
            continue
        X, Y = np.meshgrid(c[j0:j1], c[i0:i1])
        d = point_segment_distance(np.stack([X, Y], axis=-1), pa, pb)
        np.minimum(out[i0:i1, j0:j1], d, out=out[i0:i1, j0:j1])
    return out


def signed_distance(contours, width, band=np.inf, per_cubic=2048, margin=MARGIN):
    """Signed distance at pixel centers, positive inside; see module doc."""
    lines = polylines(contours, per_cubic, margin)
    d = unsigned_distance(lines, width, band)
    return np.where(even_odd_inside(lines, width), d, -d)


def outline_distance(contours, points, per_cubic=2048, margin=MARGIN):
    """Unsigned distance from arbitrary points to the outline."""
    a, b = _edges(polylines(contours, per_cubic, margin))
    p = np.asarray(points, dtype=np.float64)
    best = np.full(len(p), np.inf)
    for pa, pb in zip(a, b):
        np.minimum(best, point_segment_distance(p, pa, pb), out=best)
    return best


# ---------------------------------------------------------------------------
# images


def kernel(d, gamma):
    """Cubic opacity ramp 1/2 + (3t - t^3)/4, t = clip(d / gamma, -1, 1)."""
    t = np.clip(np.asarray(d, dtype=np.float64) / gamma, -1.0, 1.0)
    return 0.5 + 0.25 * (3.0 * t - t**3)


def median3(channels, axis=0):
    return np.sort(channels, axis=axis).take(1, axis=axis)


def median_pair(c):
    """Training composition of (N, 3) channels: the mean of the median and
    the channel nearest it (the lower one on a tie)."""
    s = np.sort(c, axis=1)
    near = np.where(s[:, 1] - s[:, 0] <= s[:, 2] - s[:, 1], s[:, 0], s[:, 2])
    return 0.5 * (s[:, 1] + near)


def bilinear(channels, width):
    """Resample (n, h, w) pixel-center grids to width x width, edges clamped."""
    n, h, w = channels.shape
    out = np.empty((n, width, width))
    for c in range(n):
        out[c] = _interp_axis(_interp_axis(channels[c], width, 1), width, 0)
    return out


def _interp_axis(g, width, axis):
    n = g.shape[axis]
    src = (np.arange(width) + 0.5) / width * n - 0.5
    k = np.clip(np.floor(src).astype(int), 0, n - 1)
    k1 = np.minimum(k + 1, n - 1)
    f = np.clip(src - k, 0.0, 1.0)
    shape = [1, 1]
    shape[axis] = width
    f = f.reshape(shape)
    return np.take(g, k, axis=axis) * (1 - f) + np.take(g, k1, axis=axis) * f


def mse(a, b):
    return float(np.mean((a - b) ** 2))


def soft_iou(a, b):
    den = float(np.sum(np.clip(a + b, 0.0, 1.0)))
    return 1.0 if den == 0.0 else float(np.sum(a * b)) / den


def corner_window_mask(corners, width):
    """Union of odd square windows (7 px at width 128, scaled, >= 5) around
    the pixel holding each corner."""
    side = max(5, round(7 * width / 128))
    half = (side + (side % 2 == 0)) // 2
    mask = np.zeros((width, width), dtype=bool)
    for cx, cy in corners:
        j = int(np.clip(np.floor((cx + 1.0) / 2.0 * width), 0, width - 1))
        i = int(np.clip(np.floor((cy + 1.0) / 2.0 * width), 0, width - 1))
        mask[max(i - half, 0): i + half + 1, max(j - half, 0): j + half + 1] = True
    return mask


def laplacian(grid):
    """Mean |5-point Laplacian| divided by h^2, h = 2 / width."""
    f = grid
    lap = f[1:-1, 2:] + f[1:-1, :-2] + f[2:, 1:-1] + f[:-2, 1:-1] - 4.0 * f[1:-1, 1:-1]
    return float(np.mean(np.abs(lap))) / (2.0 / f.shape[1]) ** 2


# ---------------------------------------------------------------------------
# network


class NetworkOracle:
    """Plain forward pass over the arrays stored in a checkpoint file.

    The file is magic ``GSDFCKP1``, a little-endian u32 manifest length,
    the JSON manifest, then raw little-endian float64 arrays at the
    offsets the manifest lists.
    """

    def __init__(self, path):
        raw = open(path, "rb").read()
        if raw[:8] != b"GSDFCKP1":
            raise ValueError(f"{path} is not a checkpoint")
        (n,) = struct.unpack_from("<I", raw, 8)
        self.manifest = json.loads(raw[12:12 + n])
        payload = raw[12 + n:]
        self.arrays = {}
        for spec in self.manifest["arrays"]:
            count = int(np.prod(spec["shape"]))
            self.arrays[spec["name"]] = np.frombuffer(
                payload, dtype="<f8", count=count, offset=spec["offset"]
            ).reshape(spec["shape"])
        net = self.manifest["network"]
        self.layers = net["hidden_layers"]
        self.skip = net["skip_layer"]
        self.slope = net["leaky_slope"]
        self.alphabet = self.manifest["alphabet"]
        self.aa_k = self.manifest["aa_k"]

    def latent(self, family):
        return self.arrays["latents"][self.manifest["families"].index(family)]

    def channels(self, points, label, z, chunk=8192):
        """Raw network outputs (N, channels) at points (N, 2)."""
        p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        parts = [self._forward(p[s:s + chunk], label, z) for s in range(0, len(p), chunk)]
        return np.concatenate(parts) if parts else np.zeros((0, 3))

    def _forward(self, p, label, z):
        onehot = np.zeros((len(p), len(self.alphabet)))
        onehot[:, self.alphabet.index(label)] = 1.0
        x = np.hstack([p, onehot, np.broadcast_to(z, (len(p), len(z)))])
        a = x
        for l in range(self.layers):
            if self.skip and l == self.skip:
                a = np.hstack([a, x])
            h = a @ self.arrays[f"w{l}"] + self.arrays[f"b{l}"]
            a = np.maximum(h, 0.0) + self.slope * np.minimum(h, 0.0)
        return a @ self.arrays[f"w{self.layers}"] + self.arrays[f"b{self.layers}"]

    def median(self, points, label, z):
        return median3(self.channels(points, label, z), axis=1)

    def grid(self, width, label, z):
        """(channels, W, W) outputs at pixel centers, row i at y_i."""
        c = pixel_coords(width)
        X, Y = np.meshgrid(c, c)
        out = self.channels(np.stack([X.ravel(), Y.ravel()], axis=1), label, z)
        return out.T.reshape(-1, width, width)

    def opacity(self, points, label, z, width):
        return kernel(self.median(points, label, z), self.aa_k / width)
