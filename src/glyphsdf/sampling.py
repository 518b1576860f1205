"""Importance sampling of training locations.

Three strata per glyph:

* edge: every pixel of every 3x3 neighborhood around anti-alias pixels
  (raster value strictly inside (0, 1)), deduplicated;
* corner: every template window point (pixel centers near a corner);
* homogeneous: sparse off-band pixels (|sdf| > gamma), targets exactly 0/1,
  split evenly inside/outside when possible.

A position is listed once; when it plays several roles the kind follows
the priority edge > corner > homogeneous.  Corner templates keep index
arrays into the sample list, so the local loss sees all window points no
matter which kind claimed them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import pixel_points

KIND_EDGE = 0
KIND_CORNER = 1
KIND_HOMOGENEOUS = 2


@dataclass
class SampleConfig:
    rho: float = 0.25            # homogeneous count as a fraction of edge count
    min_homogeneous: int = 64    # floor so empty glyphs still sample background
    seed: int = 0


@dataclass
class SampleSet:
    positions: np.ndarray        # (N, 2)
    targets: np.ndarray          # (N,)
    kinds: np.ndarray            # (N,) uint8
    template_rows: list          # per-template index array into the rows
    rng_seed: int
    gamma: float

    def __len__(self):
        return len(self.positions)


def _dilate3x3(mask):
    """Binary dilation with the 3x3 structuring element (edges clipped)."""
    out = mask.copy()
    h, w = mask.shape
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            src = mask[max(0, -di) : h - max(0, di), max(0, -dj) : w - max(0, dj)]
            out[max(0, di) : h - max(0, -di), max(0, dj) : w - max(0, -dj)] |= src
    return out


def sample_glyph(glyph, image, sdf, templates, gamma, config=None):
    """Build the deterministic sample set for one glyph.

    ``image`` is the current ground-truth raster (kernel of ``sdf`` at
    ``gamma``) and ``sdf`` the exact signed-distance grid, both (W, W) at
    the training resolution.  Edge and homogeneous targets read the raster
    at pixel centers; corner targets come from the composed template.
    Raises :class:`ConfigError` when a nonempty glyph produces no
    anti-alias pixels (gamma too small for the grid).
    """
    config = config or SampleConfig()
    width = image.shape[0]
    if image.shape != sdf.shape:
        raise ConfigError("raster and sdf grid shapes differ")

    aa = (image > 0.0) & (image < 1.0)
    if not aa.any() and glyph.contours:
        raise ConfigError(
            f"no anti-alias pixels at width {width} with gamma {gamma}; "
            "gamma is too small for this resolution"
        )
    edge_ij = np.argwhere(_dilate3x3(aa))
    n_edge = len(edge_ij)

    positions = [pixel_points(edge_ij, width)] if n_edge else []
    targets = [image[edge_ij[:, 0], edge_ij[:, 1]]] if n_edge else []
    kinds = [np.full(n_edge, KIND_EDGE, dtype=np.uint8)] if n_edge else []
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
            positions.append(pixel_points(new_ij, width))
            targets.append(np.asarray(new_t, dtype=np.float64))
            kinds.append(np.full(len(new_ij), KIND_CORNER, dtype=np.uint8))
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
        positions.append(pixel_points(pick, width))
        targets.append(np.full(want, value))
        kinds.append(np.full(want, KIND_HOMOGENEOUS, dtype=np.uint8))

    if positions:
        positions = np.concatenate(positions, axis=0)
        targets = np.concatenate(targets, axis=0)
        kinds = np.concatenate(kinds, axis=0)
    else:
        positions = np.zeros((0, 2))
        targets = np.zeros(0)
        kinds = np.zeros(0, dtype=np.uint8)

    return SampleSet(
        positions=positions,
        targets=targets,
        kinds=kinds,
        template_rows=template_rows,
        rng_seed=config.seed,
        gamma=gamma,
    )
