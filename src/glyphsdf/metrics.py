"""Image metrics: MSE, soft IoU, corner-region restrictions, smoothness."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .templates import window_pixels


def _check_shapes(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image dimensions differ: {a.shape} vs {b.shape}")
    return a, b


def mse(a, b):
    a, b = _check_shapes(a, b)
    d = a - b
    return float(np.mean(d * d))


def soft_iou(a, b):
    """||a*b||_1 / ||clip(a+b, 0, 1)||_1, defined as 1.0 when both are zero."""
    a, b = _check_shapes(a, b)
    num = float(np.sum(a * b))
    den = float(np.sum(np.clip(a + b, 0.0, 1.0)))
    if den == 0.0:
        return 1.0
    return num / den


@dataclass
class CornerRegionResult:
    mse: float
    siou: float


def corner_mask(corners, width):
    """Union of the corners' template windows at the evaluation resolution."""
    mask = np.zeros((width, width), dtype=bool)
    for corner in corners:
        mask[tuple(window_pixels(corner.position, width).T)] = True
    return mask


def corner_region_metrics(a, b, corners, width):
    """MSE and soft IoU restricted to the union of scaled corner windows."""
    a, b = _check_shapes(a, b)
    if a.shape != (width, width):
        raise ValueError(f"images must be {width}x{width}")
    mask = corner_mask(corners, width)
    if not mask.any():
        return CornerRegionResult(float("nan"), float("nan"))
    av, bv = a[mask], b[mask]
    return CornerRegionResult(mse(av, bv), soft_iou(av, bv))


def laplacian_smoothness(grid):
    """Mean |5-point Laplacian| of a grid, in field units (divided by h^2)."""
    f = np.asarray(grid, dtype=np.float64)
    if f.ndim != 2 or min(f.shape) < 3:
        raise ValueError("grid must be 2-D with at least 3 samples per axis")
    lap = (
        f[1:-1, 2:] + f[1:-1, :-2] + f[2:, 1:-1] + f[:-2, 1:-1] - 4.0 * f[1:-1, 1:-1]
    )
    h = 2.0 / f.shape[1]
    return float(np.mean(np.abs(lap)) / (h * h))
