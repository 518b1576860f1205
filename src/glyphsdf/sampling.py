"""Importance sampling of training locations.

Three strata per glyph:

* edge: every pixel of every 3x3 neighborhood around anti-alias pixels
  (raster value strictly inside (0, 1)), deduplicated;
* corner: every template window point (pixel centers near a corner);
* homogeneous: sparse off-band pixels (|sdf| > gamma), targets exactly 0/1,
  split evenly inside/outside when possible.

A position is listed once; when it plays several roles the kind follows
the priority edge > corner > homogeneous.  The build keeps one (W, W)
grid of sample rows (-1 = not sampled): edge pixels take the first rows,
each template's unsampled window pixels the next ones in window order.
Corner templates keep their window's rows from that grid, so the local
loss sees all window points no matter which kind claimed them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainSettings
from .errors import ConfigError
from .geometry import pixel_points

KIND_EDGE = 0
KIND_CORNER = 1
KIND_HOMOGENEOUS = 2


@dataclass
class SampleConfig:
    rho: float = TrainSettings.rho  # homogeneous count as a fraction of edge count
    min_homogeneous: int = TrainSettings.min_homogeneous  # floor for empty glyphs
    seed: int = TrainSettings.seed


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
    # sample row of every pixel, -1 where the pixel is not sampled
    row_of = np.full((width, width), -1, dtype=np.int64)
    row_of[tuple(edge_ij.T)] = np.arange(n_edge)
    n_rows = n_edge
    ij = [edge_ij]
    targets = [image[tuple(edge_ij.T)]]
    kinds = [np.full(n_edge, KIND_EDGE, dtype=np.uint8)]

    template_rows = []
    for tpl in templates:
        window = tuple(tpl.pixel_ij.T)
        new = row_of[window] < 0
        fresh = tpl.pixel_ij[new]
        row_of[tuple(fresh.T)] = np.arange(n_rows, n_rows + len(fresh))
        n_rows += len(fresh)
        ij.append(fresh)
        targets.append(tpl.composed_target(gamma)[new])
        kinds.append(np.full(len(fresh), KIND_CORNER, dtype=np.uint8))
        template_rows.append(row_of[window])

    n_h = max(round(config.rho * n_edge), config.min_homogeneous)
    used = row_of >= 0
    off = np.abs(sdf) > gamma
    cand_in = np.argwhere(off & (sdf > 0) & ~used)
    cand_out = np.argwhere(off & (sdf < 0) & ~used)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    want_in = min(n_h // 2, len(cand_in))
    want_out = min(n_h - want_in, len(cand_out))
    for cand, want, value in ((cand_in, want_in, 1.0), (cand_out, want_out, 0.0)):
        if want == 0:
            continue
        ij.append(cand[rng.choice(len(cand), want, replace=False)])
        targets.append(np.full(want, value))
        kinds.append(np.full(want, KIND_HOMOGENEOUS, dtype=np.uint8))

    return SampleSet(
        positions=pixel_points(np.concatenate(ij), width),
        targets=np.concatenate(targets),
        kinds=np.concatenate(kinds),
        template_rows=template_rows,
        rng_seed=config.seed,
        gamma=gamma,
    )
