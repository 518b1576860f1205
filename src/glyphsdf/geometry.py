"""Exact glyph geometry: the pixel grid, point-to-curve distance, winding
numbers, SDF grids and corners.

Sign convention: positive signed distance inside the glyph (nonzero
winding), negative outside.  All routines are pure.  The Bezier evaluators
take a 1-D array of parameters and return one row per parameter, and the
nearest-point search takes a batch of query points; a single point or
parameter is a batch of one.  Every module maps between pixel indices and
field coordinates through :func:`pixel_center` and :func:`pixel_index`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CORNER_ANGLE_DEFAULT
from .errors import GeometryError

_CHUNK = 1 << 17

# nearest point on a curve: uniform seeds, then damped Newton steps
_N_INIT = 32
_N_NEWTON = 8

# exact SDF grids: pixel tiles and hull pieces for distance culling, and an
# absolute slack that covers rounding in the bounds and distances
_TILE = 16
_HULL_PIECES = 16
_SLACK = 1e-12


def eval_segment(pts, t):
    """Points of a Bezier segment (2-4 control points) at parameters t, (n, 2)."""
    t = np.asarray(t, dtype=np.float64)
    s = 1.0 - t
    if len(pts) == 2:
        return np.outer(s, pts[0]) + np.outer(t, pts[1])
    if len(pts) == 3:
        coeffs = (s * s, 2 * s * t, t * t)
    else:
        coeffs = (s * s * s, 3 * s * s * t, 3 * s * t * t, t * t * t)
    return sum(np.outer(c, p) for c, p in zip(coeffs, pts))


def eval_derivative(pts, t):
    """First derivative of a Bezier segment at parameters t, (n, 2)."""
    t = np.asarray(t, dtype=np.float64)
    if len(pts) == 2:
        return np.broadcast_to(pts[1] - pts[0], t.shape + (2,)).copy()
    s = 1.0 - t
    if len(pts) == 3:
        coeffs = (s, t)
        deltas = (2 * (pts[1] - pts[0]), 2 * (pts[2] - pts[1]))
    else:
        coeffs = (s * s, 2 * s * t, t * t)
        deltas = (3 * (pts[1] - pts[0]), 3 * (pts[2] - pts[1]), 3 * (pts[3] - pts[2]))
    return sum(np.outer(c, d) for c, d in zip(coeffs, deltas))


def eval_second_derivative(pts, t):
    """Second derivative of a quadratic or cubic segment at parameters t, (n, 2)."""
    t = np.asarray(t, dtype=np.float64)
    if len(pts) == 3:
        dd = 2 * (pts[2] - 2 * pts[1] + pts[0])
        return np.broadcast_to(dd, t.shape + (2,)).copy()
    a = 6 * (pts[2] - 2 * pts[1] + pts[0])
    b = 6 * (pts[3] - 2 * pts[2] + pts[1])
    return np.outer(1.0 - t, a) + np.outer(t, b)


def _nearest_line(pts, P):
    a, b = pts[0], pts[1]
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        t = np.zeros(len(P))
    else:
        t = np.clip(((P - a) @ ab) / denom, 0.0, 1.0)
    diff = P - (a + t[:, None] * ab)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)), t


def _nearest_curve(pts, P):
    """Nearest parameter on a quadratic/cubic for every row of P.

    Seeds from a uniform parameter sweep, then polishes with damped Newton
    on f(t) = (P - B(t)) . B'(t), clamped to the seed's bracketing interval
    so the iteration cannot escape its basin.
    """
    ts = np.linspace(0.0, 1.0, _N_INIT)
    C = eval_segment(pts, ts)  # (_N_INIT, 2)
    # distance to every sample; the caller bounds len(P)
    d2 = (P[:, None, 0] - C[None, :, 0]) ** 2 + (P[:, None, 1] - C[None, :, 1]) ** 2
    j = np.argmin(d2, axis=1)
    best_t, best_d2 = ts[j], d2[np.arange(len(P)), j]
    h = 1.0 / (_N_INIT - 1)
    lo = np.clip(best_t - h, 0.0, 1.0)
    hi = np.clip(best_t + h, 0.0, 1.0)
    t = best_t.copy()
    for _ in range(_N_NEWTON):
        B = eval_segment(pts, t)
        B1 = eval_derivative(pts, t)
        B2 = eval_second_derivative(pts, t)
        diff = P - B
        f = np.einsum("ij,ij->i", diff, B1)
        fp = -np.einsum("ij,ij->i", B1, B1) + np.einsum("ij,ij->i", diff, B2)
        step = np.where(np.abs(fp) > 1e-30, f / np.where(fp == 0, 1.0, fp), 0.0)
        t = np.clip(t - step, lo, hi)
    diff = P - eval_segment(pts, t)
    d2 = np.einsum("ij,ij->i", diff, diff)
    # keep the seed when Newton failed to improve
    worse = d2 > best_d2
    t[worse] = best_t[worse]
    d2[worse] = best_d2[worse]
    return np.sqrt(d2), t


def nearest_on_segment(points, segment):
    """Unsigned distance and nearest parameter for a batch of points; callers
    chunk large batches, as a curve's search holds (points, _N_INIT) distances."""
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(segment.points) == 2:
        return _nearest_line(segment.points, P)
    return _nearest_curve(segment.points, P)


# ---------------------------------------------------------------------------
# winding numbers via y-monotone pieces


@dataclass
class _MonotonePiece:
    pts: np.ndarray  # segment control points
    t0: float
    t1: float
    y0: float
    y1: float

    @property
    def upward(self):
        return self.y1 > self.y0


def _derivative_roots_y(pts):
    """Interior parameters where the segment's y-derivative vanishes."""
    ys = pts[:, 1]
    if len(pts) == 2:
        return []
    if len(pts) == 3:
        denom = ys[0] - 2 * ys[1] + ys[2]
        if denom == 0:
            return []
        r = (ys[0] - ys[1]) / denom
        return [r] if 0 < r < 1 else []
    # cubic: y'(t) ~ (1-t)^2 d0 + 2(1-t)t d1 + t^2 d2
    d0, d1, d2 = ys[1] - ys[0], ys[2] - ys[1], ys[3] - ys[2]
    a = d0 - 2 * d1 + d2
    b = 2 * (d1 - d0)
    c = d0
    roots = []
    if a == 0:
        if b != 0:
            roots.append(-c / b)
    else:
        disc = b * b - 4 * a * c
        if disc >= 0:
            sq = math.sqrt(disc)
            # numerically stable pair
            q = -0.5 * (b + math.copysign(sq, b)) if b != 0 else 0.5 * sq
            if b == 0:
                roots.extend((sq / (2 * a), -sq / (2 * a)))
            else:
                roots.append(q / a)
                if q != 0:
                    roots.append(c / q)
    return sorted(r for r in roots if 0 < r < 1)


def monotone_pieces(glyph):
    """Split every segment into y-monotone pieces (horizontal runs dropped)."""
    pieces = []
    for contour in glyph.contours:
        for seg in contour.segments:
            pts = seg.points
            knots = [0.0] + _derivative_roots_y(pts) + [1.0]
            ys = eval_segment(pts, knots)[:, 1].tolist()
            for (ta, tb), (ya, yb) in zip(zip(knots, knots[1:]), zip(ys, ys[1:])):
                if ya != yb:
                    pieces.append(_MonotonePiece(pts, ta, tb, ya, yb))
    return pieces


def _piece_crossing_x(piece, y):
    """x coordinate where the piece crosses heights y (bisection on t)."""
    pts = piece.pts
    if len(pts) == 2:
        t = (y - pts[0, 1]) / (pts[1, 1] - pts[0, 1])
        return pts[0, 0] + t * (pts[1, 0] - pts[0, 0])
    # y(t) is monotone increasing from a to b
    t_lo, t_hi = (piece.t0, piece.t1) if piece.upward else (piece.t1, piece.t0)
    a, b = np.full(len(y), t_lo), np.full(len(y), t_hi)
    for _ in range(52):
        m = 0.5 * (a + b)
        ym = eval_segment(pts, m)[:, 1]
        below = ym < y
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    t = 0.5 * (a + b)
    return eval_segment(pts, t)[:, 0]


def _winding_grid(pieces, xs, ys):
    """Nonzero-rule winding number at every (ys[i], xs[j]), by scanlines.

    Each y-monotone piece counts a crossing for the rows whose height lies
    in the half-open interval [min(y), max(y)) of the piece, at the pixels
    strictly left of the crossing (``xs`` sorted).  The half-open rule
    makes junction hits exact: pass-throughs count once, tangential touches
    cancel.  The crossing depends only on the row height, so each piece is
    bisected once per row.
    """
    w = np.zeros((len(ys), len(xs) + 1), dtype=np.int64)
    for piece in pieces:
        ylo, yhi = (piece.y0, piece.y1) if piece.upward else (piece.y1, piece.y0)
        rows = np.flatnonzero((ys >= ylo) & (ys < yhi))
        if not rows.size:
            continue
        hits = np.searchsorted(xs, _piece_crossing_x(piece, ys[rows]), side="left")
        direction = 1 if piece.upward else -1
        w[rows, 0] += direction
        w[rows, hits] -= direction
    return np.cumsum(w[:, :-1], axis=1)


# ---------------------------------------------------------------------------
# the pixel grid


def pixel_center(index, n):
    """Field coordinate of pixel ``index`` on an axis of ``n`` pixels that
    spans [-1, 1]: (index + 0.5) / n * 2 - 1."""
    return (np.asarray(index) + 0.5) / n * 2.0 - 1.0


def pixel_index(coord, n):
    """The pixel of an ``n``-pixel axis whose cell holds field coordinate
    ``coord``, clamped to the axis; the inverse of :func:`pixel_center`."""
    return int(np.clip(np.floor((coord + 1.0) / 2.0 * n), 0, n - 1))


def pixel_points(ij, width):
    """Centers (x, y) of the (row, col) pixels ``ij`` of a width x width grid."""
    return np.stack([pixel_center(ij[:, 1], width), pixel_center(ij[:, 0], width)], axis=1)


def pixel_centers(width, height=None):
    """Pixel-center grid over [-1, 1]^2, shape (H, W, 2); row i holds
    y = pixel_center(i, H) (row 0 at the bottom of the field domain)."""
    if height is None:
        height = width
    grid = np.empty((height, width, 2))
    grid[..., 0] = pixel_center(np.arange(width), width)[None, :]
    grid[..., 1] = pixel_center(np.arange(height), height)[:, None]
    return grid


# ---------------------------------------------------------------------------
# signed distance


def _halve(pts):
    """de Casteljau split of a Bezier segment at t = 1/2."""
    left, right = [pts[0]], [pts[-1]]
    cur = pts
    while len(cur) > 1:
        cur = 0.5 * (cur[:-1] + cur[1:])
        left.append(cur[0])
        right.append(cur[-1])
    return np.array(left), np.array(right[::-1])


def _hull_boxes(pts):
    """Control-point boxes (x0, y0, x1, y1) of the segment's _HULL_PIECES
    de Casteljau pieces; by the convex-hull property they cover the curve."""
    pieces = [np.asarray(pts, dtype=np.float64)]
    while len(pieces) < _HULL_PIECES:
        pieces = [half for piece in pieces for half in _halve(piece)]
    return np.array([[*p.min(axis=0), *p.max(axis=0)] for p in pieces])


def _box_gap(tiles, boxes):
    """Smallest distance between each tile box and any of ``boxes``."""
    gap_x = np.maximum(np.maximum(boxes[None, :, 0] - tiles[:, None, 2],
                                  tiles[:, None, 0] - boxes[None, :, 2]), 0.0)
    gap_y = np.maximum(np.maximum(boxes[None, :, 1] - tiles[:, None, 3],
                                  tiles[:, None, 1] - boxes[None, :, 3]), 0.0)
    return np.hypot(gap_x, gap_y).min(axis=1)


def _distance_grid(segments, xs, ys, band):
    """Unsigned distance to the outline at every pixel center: exact wherever
    it is below ``band`` (everywhere for None), at least ``band`` elsewhere.

    Pixels are grouped in _TILE x _TILE tiles.  The box distance from a tile
    to a segment's hull boxes bounds the segment's distance from below, so
    ``nearest_on_segment`` runs only on tiles whose bound is within the
    clamp: ``band``, tightened to the tile's worst running best.  Tiles take
    their segments nearest bound first, one rank per pass; a rank touches
    only the tiles still active (bounds grow with the rank, clamps shrink)
    and hands each segment its tiles' pixels in row-major order.  A skipped
    segment cannot lower a pixel's minimum below the clamp, so every pixel
    below it keeps the exact minimum over all segments.
    """
    height, width = len(ys), len(xs)
    flat = np.full(height * width, np.inf)
    if not segments:
        return flat.reshape(height, width)
    # each tile's first and last pixel row and column
    i0, j0 = np.indices((-(-height // _TILE), -(-width // _TILE))).reshape(2, -1) * _TILE
    i1, j1 = np.minimum(i0 + _TILE, height) - 1, np.minimum(j0 + _TILE, width) - 1
    tiles = np.stack([xs[j0], ys[i0], xs[j1], ys[i1]], axis=1)
    # (tiles, segments): box gap from each tile to the nearest hull box
    bound = np.stack([_box_gap(tiles, _hull_boxes(seg.points)) for seg in segments], axis=1)
    order = np.argsort(bound, axis=1, kind="stable")
    di, dj = np.indices((_TILE, _TILE)).reshape(2, -1)
    clamp = np.full(len(tiles), np.inf if band is None else float(band))
    act = np.arange(len(tiles))
    for rank in range(len(segments)):
        act = act[bound[act, order[act, rank]] <= clamp[act] + _SLACK]
        if not act.size:
            break
        seg_of = order[act, rank]
        for k in np.unique(seg_of):
            # the tiles' pixels; an offset past the grid's edge repeats an edge
            # pixel, which the sorted batch drops and no tile maximum notices
            take = act[seg_of == k]
            tile_pix = (np.minimum(i0[take, None] + di, i1[take, None]) * width
                        + np.minimum(j0[take, None] + dj, j1[take, None]))
            pix = np.sort(tile_pix, axis=None)
            pix = pix[np.r_[True, pix[1:] != pix[:-1]]]
            for s in range(0, len(pix), _CHUNK):
                chunk = pix[s : s + _CHUNK]
                i, j = np.divmod(chunk, width)
                d, _ = nearest_on_segment(np.stack([xs[j], ys[i]], axis=1), segments[k])
                flat[chunk] = np.minimum(flat[chunk], d)
            clamp[take] = np.minimum(clamp[take], flat[tile_pix].max(axis=1))
    return flat.reshape(height, width)


def sdf_grid(glyph, width, band=None):
    """Signed distance at all pixel centers, shape (W, W), positive inside.

    Exact everywhere by default.  With ``band``, the distance is exact only
    where it is below ``band`` and clamped to +-band elsewhere, which is all
    an anti-aliased raster with gamma = band reads.
    """
    xs = ys = pixel_center(np.arange(width), width)
    d = _distance_grid([s for c in glyph.contours for s in c.segments], xs, ys, band)
    if band is not None:
        np.minimum(d, band, out=d)
    w = _winding_grid(monotone_pieces(glyph), xs, ys)
    return np.negative(d, out=d, where=w == 0)


# ---------------------------------------------------------------------------
# corner detection


@dataclass
class Corner:
    """A sharp junction between consecutive segments.

    ``tangent_in`` is the unit travel direction arriving at the corner,
    ``tangent_out`` the unit direction leaving it.  ``interior_angle`` is
    the angle between the reversed incoming ray and the outgoing ray (pi
    for a straight join).  ``convex`` is relative to the ink: True when the
    ink occupies the non-reflex wedge.
    """

    position: np.ndarray
    tangent_in: np.ndarray
    tangent_out: np.ndarray
    interior_angle: float
    convex: bool
    contour_index: int = 0
    junction_index: int = 0


def _unit_tangent(seg, t, contour_index, seg_index):
    d = eval_derivative(seg.points, [t])[0]
    norm = float(np.hypot(d[0], d[1]))
    if norm < 1e-12:
        raise GeometryError(
            f"zero-length tangent at t={t} on contour {contour_index}, "
            f"segment {seg_index} (degenerate control points)"
        )
    return d / norm


def _contour_ink_side(contour, pieces):
    """+1 when ink lies to the left of the travel direction, else -1.

    Probes the glyph's winding number a small step to the left of the
    midpoint of the longest segment (by control-polygon length).
    """
    lengths = [
        float(np.sum(np.hypot(*(np.diff(s.points, axis=0).T)))) for s in contour.segments
    ]
    order = np.argsort(lengths)[::-1]
    for idx in order:
        seg = contour.segments[idx]
        mid = eval_segment(seg.points, [0.5])[0]
        d = eval_derivative(seg.points, [0.5])[0]
        norm = float(np.hypot(d[0], d[1]))
        if norm < 1e-12:
            continue
        left = np.array([-d[1], d[0]]) / norm
        x, y = mid + 1e-4 * left
        return 1 if _winding_grid(pieces, np.array([x]), np.array([y]))[0, 0] != 0 else -1
    raise GeometryError("cannot determine ink side: contour has no usable tangent")


def detect_corners(glyph, threshold=CORNER_ANGLE_DEFAULT):
    """Find junctions whose interior angle is below ``threshold`` radians.

    Every junction between consecutive segments (including the closing
    junction) is examined.  Convexity comes from the cross product of the
    travel tangents, oriented by the contour's actual ink side.
    """
    if not 0 < threshold < math.pi:
        raise GeometryError(f"corner threshold must be in (0, pi), got {threshold}")
    pieces = monotone_pieces(glyph)
    corners = []
    for ci, contour in enumerate(glyph.contours):
        ink_side = None
        n = len(contour.segments)
        for i in range(n):
            seg_in = contour.segments[i]
            seg_out = contour.segments[(i + 1) % n]
            u = _unit_tangent(seg_in, 1.0, ci, i)
            v = _unit_tangent(seg_out, 0.0, ci, (i + 1) % n)
            cos_int = float(np.clip(-(u @ v), -1.0, 1.0))
            interior = math.acos(cos_int)
            if interior >= threshold:
                continue
            if ink_side is None:
                ink_side = _contour_ink_side(contour, pieces)
            cross = u[0] * v[1] - u[1] * v[0]
            corners.append(
                Corner(
                    position=seg_out.start.copy(),
                    tangent_in=u,
                    tangent_out=v,
                    interior_angle=interior,
                    convex=bool(ink_side * cross > 0),
                    contour_index=ci,
                    junction_index=(i + 1) % n,
                )
            )
    return corners
