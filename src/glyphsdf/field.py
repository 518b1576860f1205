"""Opacity kernel, channel composition operators, analytic rasterization.

The kernel maps a signed distance to opacity through a cubic ramp over the
anti-alias band [-gamma, gamma]:

    K(d) = 0                 d <= -gamma
    K(d) = 1/2 + (3t - t^3)/4   t = d/gamma, |d| < gamma
    K(d) = 1                 d >= gamma

It is continuous, monotone non-decreasing and hits 0/1 exactly at the band
edges.  Composition across the n field channels is the median at render
time and a differentiable surrogate at training time.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import geometry


def kernel(d, gamma):
    """Opacity of signed distance(s) d for anti-alias range gamma."""
    if gamma <= 0:
        raise ValueError(f"anti-alias range must be positive, got {gamma}")
    t = np.clip(np.asarray(d, dtype=np.float64) / gamma, -1.0, 1.0)
    return 0.5 + 0.25 * (3.0 * t - t**3)


def kernel_grad(d, gamma):
    """dK/dd: 3(1 - t^2)/(4 gamma) inside the band, 0 outside."""
    if gamma <= 0:
        raise ValueError(f"anti-alias range must be positive, got {gamma}")
    d = np.asarray(d, dtype=np.float64)
    t = d / gamma
    g = 0.75 * (1.0 - t * t) / gamma
    return np.where(np.abs(t) < 1.0, g, 0.0)


def compose_median(channels, axis=-1):
    """Median across one or three channels (identity for a single channel).

    Three channels take max(min(a, b), min(max(a, b), c)) + 0.0, the value
    ``np.median`` returns bit for bit: the same element, NaN wherever a
    channel is NaN, and +0.0 for a zero of either sign (its mean of one
    element adds it to +0.0).
    """
    c = np.asarray(channels, dtype=np.float64)
    if c.shape[axis] == 1:
        return np.take(c, 0, axis=axis)
    a, b, third = np.moveaxis(c, axis, 0)
    lo = np.minimum(a, b, out=np.empty(a.shape))
    hi = np.maximum(a, b, out=np.empty(a.shape))
    np.minimum(hi, third, out=hi)
    np.maximum(lo, hi, out=lo)
    lo += 0.0
    return lo[()]


def compose_train_grad(channels, mode):
    """Composition value and its gradient w.r.t. the channel values.

    ``channels`` has shape (..., n); both returns broadcast accordingly.
    The surrogate is piecewise linear, so the gradient is a constant
    selection per point: 1/n everywhere for the mean, or 1/2 on the median
    channel and 1/2 on its nearest neighbour for median_pair.
    """
    c = np.asarray(channels, dtype=np.float64)
    n = c.shape[-1]
    if n == 1 or mode == "mean":
        value = np.mean(c, axis=-1) if n > 1 else c[..., 0]
        grad = np.full_like(c, 1.0 / n)
        return value, grad
    if mode != "median_pair":
        raise ValueError(f"unknown composition mode {mode!r}")
    order = np.argsort(c, axis=-1, kind="stable")
    s = np.take_along_axis(c, order, axis=-1)
    a, b, hi = s[..., 0], s[..., 1], s[..., 2]
    pick_low = (b - a) <= (hi - b)
    near_idx = np.where(pick_low, order[..., 0], order[..., 2])
    value = 0.5 * (b + np.where(pick_low, a, hi))
    grad = np.zeros_like(c)
    np.put_along_axis(grad, order[..., 1:2], 0.5, axis=-1)
    # the nearest channel may coincide with the median channel only when all
    # three values tie; accumulate so the total weight stays 1
    idx = near_idx[..., None]
    np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) + 0.5, axis=-1)
    return value, grad


def rasterize_ground_truth(glyph, width, gamma):
    """Analytic anti-aliased raster of a glyph at pixel centers.

    The signed distance is exact inside the anti-alias band and clamped to
    +-gamma outside it, where the kernel is exactly 0 or 1 either way.
    """
    return kernel(geometry.sdf_grid(glyph, width, band=gamma), gamma)


# ---------------------------------------------------------------------------
# float grid container (.grid): 16-byte header + little-endian float32 data,
# channel-major then row-major.

GRID_MAGIC = b"MIFG"
GRID_VERSION = 1
_GRID_HEADER = struct.Struct("<4sIHHH2x")
assert _GRID_HEADER.size == 16


def write_grid(path, grid):
    """Write a (n, H, W) or (H, W) float array; stored as float32."""
    g = np.asarray(grid, dtype=np.float32)
    if g.ndim == 2:
        g = g[None, :, :]
    if g.ndim != 3:
        raise ValueError(f"grid must be 2- or 3-dimensional, got shape {g.shape}")
    n, h, w = g.shape
    if max(n, h, w) > 0xFFFF:
        raise ValueError(f"grid dimensions exceed the container limit: {g.shape}")
    header = _GRID_HEADER.pack(GRID_MAGIC, GRID_VERSION, n, h, w)
    payload = np.ascontiguousarray(g, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)
