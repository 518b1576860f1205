"""Shared test fixtures: canonical shapes and independent oracles.

The oracles here must stay independent of the package's own geometry
paths: dense parameter sweeps for nearest points, polygon fill + euclidean
distance transform for signed-distance grids, closed-form box fields.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import assume, strategies as st

from glyphsdf import geometry, glyphs

SQUARE_PATH = "M 0 0 L 1 0 L 1 1 L 0 1 Z"

# L-polygon (CCW): a square with the upper-right quadrant removed; one
# concave corner at the notch
L_PATH = "M 0 0 L 1 0 L 1 0.45 L 0.55 0.45 L 0.55 1 L 0 1 Z"

# square ring: outer CCW + inner CW hole
RING_PATH = (
    "M 0 0 L 1 0 L 1 1 L 0 1 Z\n"
    "M 0.3 0.3 L 0.3 0.7 L 0.7 0.7 L 0.7 0.3 Z"
)


def square_glyph(label=0):
    return glyphs.glyph_from_path(SQUARE_PATH, label=label)


def ring_path(margin):
    """Square ring; wall thickness grows with ``margin``."""
    a, b = margin, 1.0 - margin
    return (
        "M 0 0 L 1 0 L 1 1 L 0 1 Z\n"
        f"M {a} {a} L {a} {b} L {b} {b} L {b} {a} Z"
    )


def l_path(w):
    return f"M 0 0 L 1 0 L 1 {w} L {w} {w} L {w} 1 L 0 1 Z"


def t_path(w):
    lo, hi = 0.5 - w / 2, 0.5 + w / 2
    return f"M 0 1 L 0 {1 - w} L {lo} {1 - w} L {lo} 0 L {hi} 0 L {hi} {1 - w} L 1 {1 - w} L 1 1 Z"


def diamond_ring_path(r2):
    """Diamond outline with a diamond hole of 'radius' r2 (outer 0.5)."""
    lo, hi = 0.5 - r2, 0.5 + r2
    return (
        "M 0.5 0 L 1 0.5 L 0.5 1 L 0 0.5 Z\n"
        f"M 0.5 {lo} L {lo} 0.5 L 0.5 {hi} L {hi} 0.5 Z"
    )


# two synthetic "font families" x four glyph labels: same shapes, different
# stroke weights
MINIFAM_PATHS = {
    "thin": [ring_path(0.20), l_path(0.32), t_path(0.30), diamond_ring_path(0.24)],
    "bold": [ring_path(0.34), l_path(0.55), t_path(0.50), diamond_ring_path(0.12)],
}


def minifam_dataset():
    """(family_id, family_index, label, glyph) for the 2x4 mini family."""
    out = []
    for fi, (fam, paths) in enumerate(MINIFAM_PATHS.items()):
        for label, path in enumerate(paths):
            out.append((fam, fi, label, glyphs.glyph_from_path(path, label=label)))
    return out


def l_glyph(label=0):
    return glyphs.glyph_from_path(L_PATH, label=label)


def ring_glyph(label=0):
    return glyphs.glyph_from_path(RING_PATH, label=label)


def edit_checkpoint_manifest(path, edit):
    """Rewrite a checkpoint file's manifest with ``edit(manifest)`` applied
    in place; the array payload is kept as it is."""
    import json
    import struct
    from pathlib import Path

    raw = Path(path).read_bytes()
    n = struct.unpack_from("<I", raw, 8)[0]
    manifest = json.loads(raw[12 : 12 + n])
    edit(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n :])


def drop_checkpoint_entry(path, entry):
    """Rewrite a checkpoint file without one manifest key, or without the
    array table's record of the array named ``entry``."""

    def drop(manifest):
        names = [spec["name"] for spec in manifest["arrays"]]
        if entry in names:
            del manifest["arrays"][names.index(entry)]
        else:
            del manifest[entry]

    edit_checkpoint_manifest(path, drop)


def read_grid(path):
    """Read a grid container back as a (n, H, W) float32 array, from the
    documented format (16-byte header: magic ``MIFG``, u32 version 1, u16
    channels/height/width, 2 pad bytes; then little-endian float32)."""
    import struct
    from pathlib import Path

    raw = Path(path).read_bytes()
    magic, version, n, h, w = struct.unpack_from("<4sIHHH2x", raw)
    assert (magic, version) == (b"MIFG", 1), f"{path} is not a grid container"
    assert len(raw) == 16 + 4 * n * h * w, f"{path} has a payload of the wrong size"
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(n, h, w).copy()


# any value a JSON document can hold, NaN and the infinities included
# (Python's json module reads and writes them)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def box_sdf(points, half):
    """Closed-form signed distance to an origin-centered axis-aligned square
    of half-width ``half``; positive inside."""
    p = np.abs(np.atleast_2d(points))
    q = p - half
    outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=-1))
    inside = np.minimum(np.maximum(q[..., 0], q[..., 1]), 0.0)
    return -(outside + inside)


def to_path_text(contours):
    """Serialize contours back to path text; re-parsing is exact."""
    cmd_by_order = {2: "L", 3: "Q", 4: "C"}
    parts = []
    for contour in contours:
        start = contour.segments[0].start
        words = ["M", repr(float(start[0])), repr(float(start[1]))]
        for seg in contour.segments:
            words.append(cmd_by_order[len(seg.points)])
            for x, y in seg.points[1:]:
                words.append(repr(float(x)))
                words.append(repr(float(y)))
        words.append("Z")
        parts.append(" ".join(words))
    return "\n".join(parts)


def dense_sweep_nearest(ctrl, p, n=100_000):
    """Brute-force nearest point on a Bezier: uniform sweep + parabolic
    refinement around the best sample."""
    ctrl = np.asarray(ctrl, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    ts = np.linspace(0.0, 1.0, n)
    pts = _bezier(ctrl, ts)
    d2 = np.sum((pts - p) ** 2, axis=1)
    j = int(np.argmin(d2))
    lo = max(j - 2, 0)
    hi = min(j + 2, n - 1)
    a, b = ts[lo], ts[hi]
    for _ in range(200):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        f1 = np.sum((_bezier(ctrl, np.array([m1]))[0] - p) ** 2)
        f2 = np.sum((_bezier(ctrl, np.array([m2]))[0] - p) ** 2)
        if f1 < f2:
            b = m2
        else:
            a = m1
    t = 0.5 * (a + b)
    d = np.sqrt(np.sum((_bezier(ctrl, np.array([t]))[0] - p) ** 2))
    return d, t


def _bezier(ctrl, ts):
    s = 1.0 - ts
    if len(ctrl) == 2:
        return np.outer(s, ctrl[0]) + np.outer(ts, ctrl[1])
    if len(ctrl) == 3:
        return (
            np.outer(s * s, ctrl[0])
            + np.outer(2 * s * ts, ctrl[1])
            + np.outer(ts * ts, ctrl[2])
        )
    return (
        np.outer(s**3, ctrl[0])
        + np.outer(3 * s * s * ts, ctrl[1])
        + np.outer(3 * s * ts * ts, ctrl[2])
        + np.outer(ts**3, ctrl[3])
    )


def flatten_contour(contour, per_segment=512):
    """Polyline approximation of a contour (oracle use only).

    Lines contribute their endpoints; curves a dense sweep.
    """
    pts = []
    for seg in contour.segments:
        if len(seg.points) == 2:
            pts.append(seg.points[:1])
        else:
            ts = np.linspace(0.0, 1.0, per_segment, endpoint=False)
            pts.append(_bezier(seg.points, ts))
    return np.concatenate(pts, axis=0)


def even_odd_mask(glyph, width):
    """Inside mask at pixel centers via the even-odd crossing rule.

    Independent re-derivation: per polygon edge, a horizontal ray to +x
    crosses when the edge straddles the query height (half-open) and the
    crossing sits right of the query.
    """
    xs = (np.arange(width) + 0.5) / width * 2.0 - 1.0
    ys = (np.arange(width) + 0.5) / width * 2.0 - 1.0
    X, Y = np.meshgrid(xs, ys)
    crossings = np.zeros((width, width), dtype=np.int64)
    for contour in glyph.contours:
        poly = flatten_contour(contour)
        a = poly
        b = np.roll(poly, -1, axis=0)
        for (x0, y0), (x1, y1) in zip(a, b):
            if y0 == y1:
                continue
            straddle = (Y >= min(y0, y1)) & (Y < max(y0, y1))
            t = (Y - y0) / (y1 - y0)
            xc = x0 + t * (x1 - x0)
            crossings += (straddle & (xc > X)).astype(np.int64)
    return crossings % 2 == 1


def edt_sdf_oracle(glyph, width, holes=None):
    """Signed distance grid via exact fill + euclidean distance transform.

    Distances are measured between pixel centers; the half-pixel offset
    between a center-to-center distance and the true boundary distance is
    compensated, leaving about +-0.7 pixel of worst-case error.  Use with
    a one-pixel tolerance.  ``holes`` is accepted for signature clarity
    only; the even-odd rule handles them automatically.
    """
    from scipy.ndimage import distance_transform_edt

    mask = even_odd_mask(glyph, width)
    d_in = distance_transform_edt(mask)
    d_out = distance_transform_edt(~mask)
    sdf_px = np.where(mask, d_in - 0.5, -(d_out - 0.5))
    return sdf_px * (2.0 / width)


def winding_batch(points, glyph):
    """Nonzero-rule winding number for a batch of points, point by point:
    the reference that the scanline ``geometry._winding_grid`` must equal.

    Each y-monotone piece counts a crossing when the query height lies in
    the half-open interval [min(y), max(y)) of the piece and the crossing
    sits strictly right of the query.
    """
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    w = np.zeros(len(P), dtype=np.int64)
    for piece in geometry.monotone_pieces(glyph):
        ylo, yhi = (piece.y0, piece.y1) if piece.upward else (piece.y1, piece.y0)
        sel = (P[:, 1] >= ylo) & (P[:, 1] < yhi)
        if not sel.any():
            continue
        x = geometry._piece_crossing_x(piece, P[sel, 1])
        direction = 1 if piece.upward else -1
        hits = x > P[sel, 0]
        idx = np.flatnonzero(sel)[hits]
        w[idx] += direction
    return w


def winding_number(p, glyph):
    return int(winding_batch(np.asarray(p, float)[None, :], glyph)[0])


def sdf_batch(points, glyph):
    """Per-point signed distance (positive inside): the minimum of
    ``nearest_on_segment`` over every segment, signed by ``winding_batch``.

    This is the package's own per-point route, kept as the reference that
    the band-limited SDF grids must equal byte for byte.
    """
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = np.full(len(P), np.inf)
    for contour in glyph.contours:
        for seg in contour.segments:
            np.minimum(d, geometry.nearest_on_segment(P, seg)[0], out=d)
    return np.where(winding_batch(P, glyph) != 0, d, -d)


def _snap(p):
    # the 1/16 lattice: odd multiples are the pixel-center rows and columns
    # of a 16 px grid, so vertices and horizontal runs can sit exactly on them
    return np.round(np.asarray(p, dtype=np.float64) * 16.0) / 16.0


@st.composite
def _star_contour(draw, scale):
    n = draw(st.integers(3, 7))
    corners = []
    for i in range(n):
        angle = 2 * math.pi * (i + draw(st.floats(0.0, 0.8))) / n
        radius = scale * draw(st.floats(0.3, 0.9))
        corners.append(_snap((radius * math.cos(angle), radius * math.sin(angle))))
    corners = [c for k, c in enumerate(corners) if not np.array_equal(c, corners[k - 1])]
    assume(len(corners) >= 3)
    segments = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        order = draw(st.sampled_from([2, 3, 4]))
        normal = np.array([a[1] - b[1], b[0] - a[0]])
        inner = [
            _snap(a + (b - a) * k / (order - 1) + draw(st.floats(-0.3, 0.3)) * normal)
            for k in range(1, order - 1)
        ]
        segments.append(glyphs.Segment([a, *inner, b]))
    return glyphs.Contour(segments)


@st.composite
def outlines(draw):
    """Random star-shaped glyphs of lines, quadratics and cubics on the 1/16
    lattice, with an optional reversed hole; coordinates inside [-1, 1]."""
    contours = [draw(_star_contour(1.0))]
    if draw(st.booleans()):
        hole = draw(_star_contour(0.3))
        contours.append(glyphs.Contour(
            [glyphs.Segment(seg.points[::-1]) for seg in reversed(hole.segments)]
        ))
    return glyphs.Glyph(contours)


# ---------------------------------------------------------------------------
# straightforward references for the loss terms, the allocation-lean network
# and ADAM code, the channel median, bilinear resampling and the vectorized
# marching squares; the package must equal the network, ADAM, median,
# resampling and marching-squares references byte for byte


def reference_compose_train(channels, mode, axis=-1):
    """Training composition written with a sort: the channel mean, or for
    median_pair the average of the median and the channel value closest to
    it (an exact tie picks the smaller of the two equidistant values)."""
    c = np.asarray(channels, dtype=np.float64)
    if c.shape[axis] == 1:
        return np.take(c, 0, axis=axis)
    if mode == "mean":
        return np.mean(c, axis=axis)
    s = np.sort(c, axis=axis)
    a = np.take(s, 0, axis=axis)
    b = np.take(s, 1, axis=axis)
    hi = np.take(s, 2, axis=axis)
    near = np.where(b - a <= hi - b, a, hi)
    return 0.5 * (b + near)


def reference_loss_global(pred_composed, targets):
    """Mean squared error of the composed prediction against the targets."""
    r = pred_composed - targets
    return float(np.mean(r * r))


def reference_loss_eikonal(grad_xy):
    """One-sided unit-gradient penalty of (k, n, 2) spatial gradients:
    |1 - ||g||| where ||g|| < 1, else 0, averaged over points and channels."""
    g = np.asarray(grad_xy, dtype=np.float64)
    norm = np.sqrt(np.einsum("knc,knc->kn", g, g))
    short = np.where(norm < 1.0, 1.0 - norm, 0.0)
    return float(np.mean(short))


def reference_forward(config, params, X, need_cache=True):
    """Forward pass with a fresh array per step; the cache is (X, zs) with
    every pre-activation."""
    slope = config.leaky_slope
    zs = [] if need_cache else None
    a = X
    for l in range(config.hidden_layers):
        if config.skip_layer and l == config.skip_layer:
            a = np.concatenate([a, X], axis=1)
        z = a @ params.weights[l] + params.biases[l]
        if need_cache:
            zs.append(z)
        a = np.where(z >= 0, z, slope * z)
    out = a @ params.weights[-1] + params.biases[-1]
    return out, ((X, zs) if need_cache else None)


def reference_backward(config, params, cache, d_out, need_param_grads=True):
    """Backward pass of :func:`reference_forward`: rebuilds each activation
    and the skip input from the cached pre-activations."""
    from glyphsdf.autodecoder import Parameters

    X, zs = cache
    slope = config.leaky_slope
    gw = [None] * (config.hidden_layers + 1)
    gb = [None] * (config.hidden_layers + 1)
    dX = np.zeros_like(X)

    def activation(l):
        z = zs[l]
        return np.where(z >= 0, z, slope * z)

    if need_param_grads:
        gw[-1] = activation(config.hidden_layers - 1).T @ d_out
        gb[-1] = d_out.sum(axis=0)
    da = d_out @ params.weights[-1].T
    for l in range(config.hidden_layers - 1, -1, -1):
        dz = da * np.where(zs[l] >= 0, 1.0, slope)
        if need_param_grads:
            if l == 0:
                a_in = X
            elif config.skip_layer and l == config.skip_layer:
                a_in = np.concatenate([activation(l - 1), X], axis=1)
            else:
                a_in = activation(l - 1)
            gw[l] = a_in.T @ dz
            gb[l] = dz.sum(axis=0)
        d_in = dz @ params.weights[l].T
        if l == 0:
            dX += d_in
        elif config.skip_layer and l == config.skip_layer:
            da = d_in[:, : config.width]
            dX += d_in[:, config.width :]
        else:
            da = d_in
    return (Parameters(gw, gb) if need_param_grads else None), dX


def reference_evaluate(config, params, points, label, z, chunk=8192):
    """Chunked :func:`reference_forward` over points; returns (N, n)."""
    from glyphsdf.autodecoder import assemble_inputs

    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.empty((len(P), config.out_channels))
    for s in range(0, len(P), chunk):
        X = assemble_inputs(P[s : s + chunk], label, z, config.alphabet_size)
        out[s : s + chunk], _ = reference_forward(config, params, X, need_cache=False)
    return out


def reference_adam_step(state, arrays, grads):
    """One ADAM update written with whole-array temporaries."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, g in grads.items():
        p = arrays[name]
        state.ensure(name, p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def reference_compose_median(channels, axis=-1):
    """Channel median through ``np.median``."""
    c = np.asarray(channels, dtype=np.float64)
    if c.shape[axis] == 1:
        return np.take(c, 0, axis=axis)
    return np.median(c, axis=axis)


def reference_bilinear_resample(grid, width):
    """Bilinear resampling that gathers the four corners of every output
    pixel with ``np.ix_``."""
    g = np.asarray(grid, dtype=np.float64)
    n, h, w = g.shape
    xt = ((np.arange(width) + 0.5) / width) * w - 0.5
    yt = ((np.arange(width) + 0.5) / width) * h - 0.5
    x0 = np.clip(np.floor(xt).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(yt).astype(int), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xt - x0, 0.0, 1.0)
    fy = np.clip(yt - y0, 0.0, 1.0)
    out = np.empty((n, width, width))
    for c in range(n):
        ch = g[c]
        top = ch[np.ix_(y0, x0)] * (1 - fx) + ch[np.ix_(y0, x1)] * fx
        bot = ch[np.ix_(y1, x0)] * (1 - fx) + ch[np.ix_(y1, x1)] * fx
        out[c] = top * (1 - fy[:, None]) + bot * fy[:, None]
    return out


# any float64, with signed zeros, infinities and NaN drawn often
edge_floats = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats()


def assert_same_floats(got, want):
    """Equal shapes, values and zero signs; NaN where the other has NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    nan = np.isnan(want)
    assert np.array_equal(np.signbit(got)[~nan], np.signbit(want)[~nan])


# segment endpoints per corner-sign case (tl, tr, br, bl), oriented with the
# positive region on the left of travel; the saddles are handled apart
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


def reference_extract_zero_level(grid):
    """Marching squares visiting every cell in a Python loop, with a
    dict-keyed segment table and chaining through lists of segments."""
    f = np.asarray(grid, dtype=np.float64)
    h, w = f.shape
    if h < 2 or w < 2:
        return []
    inside = f > 0.0

    def node_xy(i, j):
        return ((j + 0.5) / w * 2.0 - 1.0, (i + 0.5) / h * 2.0 - 1.0)

    def halved_on_overflow(*nodes):
        """The nodes, halved if their left-to-right sum would overflow: its
        halved partial sums reach 2**1023 exactly then."""
        halves = [v / 2 for v in nodes]
        if any(abs(p) >= 2.0**1023 for p in itertools.accumulate(halves)):
            return halves
        return nodes

    def interp(i0, j0, i1, j1):
        va, mvb = halved_on_overflow(f[i0, j0], -f[i1, j1])
        t = va / (va + mvb)
        xa, ya = node_xy(i0, j0)
        xb, yb = node_xy(i1, j1)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    segments = []
    for i in range(h - 1):
        for j in range(w - 1):
            key = (
                bool(inside[i, j]),
                bool(inside[i, j + 1]),
                bool(inside[i + 1, j + 1]),
                bool(inside[i + 1, j]),
            )
            if all(key) or not any(key):
                continue
            eid = {
                "t": ("h", i, j),
                "r": ("v", i, j + 1),
                "b": ("h", i + 1, j),
                "l": ("v", i, j),
            }
            corners_of = {
                "t": (i, j, i, j + 1),
                "r": (i, j + 1, i + 1, j + 1),
                "b": (i + 1, j, i + 1, j + 1),
                "l": (i, j, i + 1, j),
            }
            if key in _MS_LUT:
                pairs = _MS_LUT[key]
            else:
                tl, tr, bl, br = halved_on_overflow(
                    f[i, j], f[i, j + 1], f[i + 1, j], f[i + 1, j + 1]
                )
                center = tl + tr + bl + br
                if key == (True, False, True, False):
                    pairs = [("t", "r"), ("b", "l")] if center > 0 else [("t", "l"), ("b", "r")]
                else:
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
        head = []
        while (prv := unused(ends, first_edge)) is not None:
            used[prv] = True
            first_edge, _, pa, _ = segments[prv]
            head.append(pa)
        contours.append(np.asarray(head[::-1] + chain))
    return contours


# ---------------------------------------------------------------------------
# references for the sample-set build and its per-step cap; the package must
# equal them byte for byte


def reference_sample_glyph(glyph, image, sdf, templates, gamma, config=None):
    """Sample-set build that tracks sampled pixels in a dict keyed by
    (row, col) and fills the template rows one window pixel at a time."""
    from glyphsdf import sampling
    from glyphsdf.errors import ConfigError

    config = config or sampling.SampleConfig()
    width = image.shape[0]
    if image.shape != sdf.shape:
        raise ConfigError("raster and sdf grid shapes differ")
    aa = (image > 0.0) & (image < 1.0)
    if not aa.any() and glyph.contours:
        raise ConfigError(f"no anti-alias pixels at width {width} with gamma {gamma}")
    edge_ij = np.argwhere(sampling._dilate3x3(aa))
    n_edge = len(edge_ij)
    positions = [geometry.pixel_points(edge_ij, width)] if n_edge else []
    targets = [image[edge_ij[:, 0], edge_ij[:, 1]]] if n_edge else []
    kinds = [np.full(n_edge, sampling.KIND_EDGE, dtype=np.uint8)] if n_edge else []
    row_of = {(int(i), int(j)): k for k, (i, j) in enumerate(edge_ij)}
    n_rows = n_edge

    template_rows = []
    for tpl in templates:
        composed = tpl.composed_target(gamma)
        rows = np.empty(len(tpl.pixel_ij), dtype=np.int64)
        new_ij, new_t = [], []
        for k, (i, j) in enumerate(tpl.pixel_ij):
            key = (int(i), int(j))
            if key not in row_of:
                row_of[key] = n_rows
                n_rows += 1
                new_ij.append(key)
                new_t.append(composed[k])
            rows[k] = row_of[key]
        if new_ij:
            new_ij = np.asarray(new_ij)
            positions.append(geometry.pixel_points(new_ij, width))
            targets.append(np.asarray(new_t, dtype=np.float64))
            kinds.append(np.full(len(new_ij), sampling.KIND_CORNER, dtype=np.uint8))
        template_rows.append(rows)

    n_h = max(round(config.rho * n_edge), config.min_homogeneous)
    used = np.zeros_like(sdf, dtype=bool)
    for (i, j) in row_of:
        used[i, j] = True
    off = np.abs(sdf) > gamma
    cand_in = np.argwhere(off & (sdf > 0) & ~used)
    cand_out = np.argwhere(off & (sdf < 0) & ~used)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    want_in = min(n_h // 2, len(cand_in))
    want_out = min(n_h - want_in, len(cand_out))
    for cand, want, value in ((cand_in, want_in, 1.0), (cand_out, want_out, 0.0)):
        if want == 0:
            continue
        pick = cand[rng.choice(len(cand), want, replace=False)]
        positions.append(geometry.pixel_points(pick, width))
        targets.append(np.full(want, value))
        kinds.append(np.full(want, sampling.KIND_HOMOGENEOUS, dtype=np.uint8))

    if positions:
        positions = np.concatenate(positions, axis=0)
        targets = np.concatenate(targets, axis=0)
        kinds = np.concatenate(kinds, axis=0)
    else:
        positions, targets, kinds = np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=np.uint8)
    return sampling.SampleSet(positions, targets, kinds, template_rows, config.seed, gamma)


def reference_capped_view(samples, cap, rng):
    """Per-step subset by ``np.unique`` of the window rows, sorts and an
    explicit remap table."""
    from glyphsdf import sampling

    n = len(samples)
    window_rows = (
        np.unique(np.concatenate(samples.template_rows))
        if samples.template_rows
        else np.zeros(0, dtype=np.int64)
    )
    in_window = np.zeros(n, dtype=bool)
    in_window[window_rows] = True
    free = np.flatnonzero(~in_window)
    if len(free) <= cap:
        return samples
    keep_free = free[np.sort(rng.choice(len(free), cap, replace=False))]
    keep = np.sort(np.concatenate([window_rows, keep_free]))
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    return sampling.SampleSet(
        samples.positions[keep], samples.targets[keep], samples.kinds[keep],
        [remap[rows] for rows in samples.template_rows], samples.rng_seed, samples.gamma,
    )


def assert_same_sample_sets(got, want):
    """Every field equal in bytes, dtype and shape."""
    for name in ("positions", "targets", "kinds"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert len(got.template_rows) == len(want.template_rows)
    for a, b in zip(got.template_rows, want.template_rows):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.rng_seed, got.gamma) == (want.rng_seed, want.gamma)
