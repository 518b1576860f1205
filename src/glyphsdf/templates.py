"""Corner templates: quadrant-labelled windows with half-plane targets.

A detected corner is modelled locally as the intersection (convex) or
union (concave) of the two half-planes bounded by the tangent lines
through the corner.  A small window of pixel centers around the corner is
labelled by the half-plane sign pattern into quadrants Q1..Q4; only the
two mixed quadrants (Q2, Q3) are supervised, with soft half-plane rasters
as the two target channels.  The third predicted channel stays free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CORNER_ANGLE_DEFAULT
from .errors import GeometryError
from .field import kernel
from . import geometry


def template_window_size(width):
    """Window side in pixels: 7 at width 128, scaled, clamped >= 5, odd."""
    w = max(5, round(7 * width / 128))
    if w % 2 == 0:
        w += 1
    return w


@dataclass
class CornerTemplate:
    corner: geometry.Corner
    pixel_ij: np.ndarray    # (m, 2) int, full-grid (row, col) per window point
    points: np.ndarray      # (m, 2) pixel-center coordinates
    halfplane: np.ndarray   # (m, 2) signed distances to the two boundary lines
    quadrant: np.ndarray    # (m,) uint8 in {1, 2, 3, 4}

    @property
    def convex(self):
        return self.corner.convex

    def targets(self, gamma):
        """Soft half-plane rasters: (m, 2) opacities at anti-alias range gamma."""
        return kernel(self.halfplane, gamma)

    def composed_target(self, gamma):
        """Median of the two targets and the constant third channel.

        The free channel is 0 for a convex corner (wedge = intersection,
        so the median reduces to the min) and 1 for a concave one (union,
        max).
        """
        t = self.targets(gamma)
        return np.minimum(t[:, 0], t[:, 1]) if self.convex else np.maximum(t[:, 0], t[:, 1])

    def supervised_mask(self):
        return (self.quadrant == 2) | (self.quadrant == 3)


def _rot90ccw(v):
    return np.array([-v[1], v[0]])


def window_pixels(position, width):
    """(row, col) of the window pixels around a corner at ``position`` on a
    width x width grid, row-major; windows leaving the grid are clipped."""
    h = template_window_size(width) // 2
    jc = geometry.pixel_index(float(position[0]), width)
    ic = geometry.pixel_index(float(position[1]), width)
    rows = np.arange(max(ic - h, 0), min(ic + h, width - 1) + 1)
    cols = np.arange(max(jc - h, 0), min(jc + h, width - 1) + 1)
    ii, jj = np.meshgrid(rows, cols, indexing="ij")
    return np.stack([ii.ravel(), jj.ravel()], axis=1)


def build_template(corner, width):
    """Build the window, quadrant labels and half-plane fields for a corner.

    Targets are derived on demand via :meth:`CornerTemplate.targets`.
    Windows that would leave [-1, 1]^2 are clipped to it.
    """
    u = corner.tangent_in
    v = corner.tangent_out
    cross = float(u[0] * v[1] - u[1] * v[0])
    if cross == 0.0:
        raise GeometryError("cannot build a template for a cusp (parallel tangents)")
    # ink side: convexity was judged ink-relative from this same cross product
    ink_side = 1.0 if corner.convex == (cross > 0) else -1.0
    n1 = ink_side * _rot90ccw(u)
    n2 = ink_side * _rot90ccw(v)

    pixel_ij = window_pixels(corner.position, width)
    points = geometry.pixel_points(pixel_ij, width)

    rel = points - corner.position
    h1 = rel @ n1
    h2 = rel @ n2
    quadrant = np.empty(len(points), dtype=np.uint8)
    pos1 = h1 >= 0  # boundary points count as the non-negative side
    pos2 = h2 >= 0
    quadrant[pos1 & pos2] = 1
    quadrant[pos1 & ~pos2] = 2
    quadrant[~pos1 & pos2] = 3
    quadrant[~pos1 & ~pos2] = 4

    return CornerTemplate(
        corner=corner,
        pixel_ij=pixel_ij,
        points=points,
        halfplane=np.stack([h1, h2], axis=1),
        quadrant=quadrant,
    )


def build_templates(glyph, width, threshold=CORNER_ANGLE_DEFAULT):
    return [build_template(c, width) for c in geometry.detect_corners(glyph, threshold)]


# the 6 injective assignments of 2 target channels onto 3 predicted channels
_ASSIGNMENTS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def corner_loss_grad(pred, template, gamma):
    """Local corner loss and its gradient w.r.t. the predicted opacities.

    ``pred`` holds the n=3 predicted channel opacities at the template's
    window points, shape (m, 3).  Only Q2/Q3 points are supervised; the
    best injective assignment of the two targets onto the predictions is
    chosen and squared errors averaged over the 2 * |Q2 u Q3| assigned
    (point, channel) pairs.  Ties pick the first assignment in a fixed
    enumeration order.  A NaN error is picked before any other, so NaN
    predictions give a NaN loss.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[1] != 3:
        raise ValueError(f"corner loss expects (m, 3) predictions, got {pred.shape}")
    if pred.shape[0] != len(template.points):
        raise ValueError("predictions do not match the template window")
    mask = template.supervised_mask()
    m23 = int(mask.sum())
    grad = np.zeros_like(pred)
    if m23 == 0:
        return 0.0, grad
    targets = template.targets(gamma)[mask]
    p = pred[mask]
    sse = []
    for assign in _ASSIGNMENTS:
        r0 = p[:, assign[0]] - targets[:, 0]
        r1 = p[:, assign[1]] - targets[:, 1]
        sse.append(float(r0 @ r0 + r1 @ r1))
    k = int(np.argmin(sse))
    best, best_sse = _ASSIGNMENTS[k], sse[k]
    denom = 2.0 * m23
    sub = np.zeros_like(p)
    sub[:, best[0]] += 2.0 * (p[:, best[0]] - targets[:, 0]) / denom
    sub[:, best[1]] += 2.0 * (p[:, best[1]] - targets[:, 1]) / denom
    grad[mask] = sub
    return best_sse / denom, grad


def templates_to_arrays(templates):
    """JSON-ready corner metadata, one dict per template."""
    meta = []
    for tpl in templates:
        c = tpl.corner
        meta.append(
            {
                "position": [float(c.position[0]), float(c.position[1])],
                "tangent_in": [float(c.tangent_in[0]), float(c.tangent_in[1])],
                "tangent_out": [float(c.tangent_out[0]), float(c.tangent_out[1])],
                "interior_angle": float(c.interior_angle),
                "convex": bool(c.convex),
                "contour_index": int(c.contour_index),
                "junction_index": int(c.junction_index),
            }
        )
    return meta
