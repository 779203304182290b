"""First-arrival traveltime solver: |grad t| = 1/v on a uniform grid.

Fast marching with the first-order Godunov upwind update.  Cells are
finalized in non-decreasing traveltime order off a binary min-heap, which
makes the scheme causal: every finalized value depends only on smaller,
already-finalized upwind neighbours.  Heap ties are broken by the lowest
flattened cell index, so solves are bit-for-bit deterministic.

The march runs on the grid padded by one cell per side, flattened in the
same row-major order, so every interior cell has two neighbours per axis
and the tie-break order is unchanged.  One ``known`` list holds the
upwind-usable times (seeded and finalized cells, ``inf`` elsewhere,
padding included), so the update reads the smaller neighbour per axis with
no status or bounds test; a byte flag per cell marks the cells still FAR.

One update, written out for three axes, serves 1-, 2- and 3-D grids: a
missing axis has stride 0, so its neighbour is the FAR cell itself, whose
``known`` value is ``inf``.  The axis minima are ordered as (value,
spacing) keys (axes listed by increasing spacing, values sorted by a stable
compare-swap network); all three, then the smallest two, then one are
tried, and the first causal root wins.  Sums run in key order and the
slowness is squared by ``float ** 2`` (libm ``pow``, not ``x * x``), which
fixes the output bit for bit.

Point sources need special care: the front leaving a single cell is so
strongly curved that the upwind stencil picks up an O(1)-per-cell kick
there, and the resulting relative error (about 0.37/R at distance ~2.7 R
cells from the source, independent of spacing) never converges away under
refinement.  The solver therefore seeds the exact distance solution inside
a small ball around the source set (``source_ball_radius``, a physical
length).  Keeping that radius fixed while refining the grid restores plain
first-order convergence; setting it to 0 recovers the unseeded scheme.

Only the first arrival is computed; later arrivals and reflections are
outside the model.  ``cone_error`` checks a uniform-speed solve against
the exact answer, the distance to the nearest source cell over v_P.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .fields import Grid, ScalarField

__all__ = ["SourceSpec", "TraveltimeField", "solve_traveltime", "front_mask",
           "cone_error"]

Speed = Union[float, ScalarField]

# Default seeding ball, in units of the coarsest grid spacing.  0.37/8 keeps
# the worst-case point-source error below 2 percent.
DEFAULT_BALL_CELLS = 8.0


@dataclass(frozen=True)
class SourceSpec:
    """Cells where the perturbation originates at t = 0."""

    cells: tuple

    def __init__(self, cells: Sequence):
        cells = tuple(tuple(int(i) for i in np.atleast_1d(c)) for c in cells)
        if not cells:
            raise ValueError("source must contain at least one cell")
        object.__setattr__(self, "cells", cells)

    def validate_against(self, grid: Grid) -> None:
        for cell in self.cells:
            if len(cell) != grid.dims:
                raise ValueError(f"source cell {cell} has wrong dimensionality")
            if any(not 0 <= i < n for i, n in zip(cell, grid.shape)):
                raise ValueError(f"source cell {cell} outside grid {grid.shape}")


@dataclass(frozen=True, eq=False)
class TraveltimeField:
    """Solved traveltime t_P per cell plus the speed it was solved with."""

    grid: Grid
    t_P: np.ndarray = field(repr=False)
    v_P: Speed = 1.0

    def __post_init__(self):
        arr = np.asarray(self.t_P, dtype=np.float64)
        if arr.size != self.grid.n_cells:
            raise ValueError("t_P size does not match grid")
        arr = arr.reshape(self.grid.shape).copy()
        if np.any(arr < 0.0) or np.any(np.isnan(arr)):
            raise ValueError("t_P must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "t_P", arr)

    def max_traveltime(self) -> float:
        return float(np.max(self.t_P))

    def min_speed(self) -> float:
        v = self.v_P.values if isinstance(self.v_P, ScalarField) else self.v_P
        return float(np.min(v))


def _slowness_per_cell(grid: Grid, speed: Speed) -> np.ndarray:
    """1/v flattened per cell; rejects non-positive or non-finite speeds."""
    if isinstance(speed, ScalarField):
        if speed.grid.shape != grid.shape:
            raise ValueError("speed field grid does not match solve grid")
        v = speed.values.reshape(-1)
    else:
        v = np.full(grid.n_cells, float(speed))
    if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("speed must be positive and finite everywhere")
    return 1.0 / v


def _seed_cells(grid: Grid, source: SourceSpec, radius: float) -> dict:
    """Map multi-index -> distance to the source set, for cells within radius."""
    shape, spacing = grid.shape, grid.spacing
    dims = grid.dims
    reach = [int(math.ceil(radius / spacing[a])) for a in range(dims)]
    seeds: dict = {}
    for cell in source.cells:
        ranges = [range(max(0, cell[a] - reach[a]),
                        min(shape[a], cell[a] + reach[a] + 1))
                  for a in range(dims)]
        for idx_nd in itertools.product(*ranges):
            d = math.sqrt(sum(((idx_nd[a] - cell[a]) * spacing[a]) ** 2
                              for a in range(dims)))
            if d <= radius and d < seeds.get(idx_nd, math.inf):
                seeds[idx_nd] = d
    return seeds


def solve_traveltime(grid: Grid, source: SourceSpec, speed: Speed, *,
                     source_ball_radius: Optional[float] = None) -> TraveltimeField:
    """Fast-marching solution of the traveltime equation |grad t| = 1/v.

    ``speed`` is a positive scalar (m/s) or a ScalarField for spatially
    varying media.  ``source_ball_radius`` is the physical radius of the
    exact-distance ball seeded around the source set; the default is
    8 * max(spacing) for scalar speed and 0 for spatially varying speed,
    where straight-ray seeding would be inconsistent.  Returns t = 0
    exactly on source cells and finite values everywhere on a connected
    grid.
    """
    source.validate_against(grid)
    slowness = _slowness_per_cell(grid, speed)
    if source_ball_radius is None:
        if isinstance(speed, ScalarField):
            source_ball_radius = 0.0
        else:
            source_ball_radius = DEFAULT_BALL_CELLS * max(grid.spacing)
    if not 0.0 <= source_ball_radius < math.inf:
        raise ValueError(
            f"source_ball_radius must be finite and >= 0, got {source_ball_radius}")

    # March on the grid padded by one cell per side.  Padding cells are
    # never FAR and never known, so no neighbour needs a bounds check.
    interior = (slice(1, -1),) * grid.dims
    padded = tuple(n + 2 for n in grid.shape)
    strides = [math.prod(padded[a + 1:]) for a in range(grid.dims)]
    offsets = [d for s in strides for d in (-s, s)]
    slowness = array("d", np.pad(slowness.reshape(grid.shape), 1).tobytes())
    # The update reads the axes in order of increasing spacing; a missing
    # axis has stride 0, so its neighbour is the FAR cell itself (inf).
    (h0, s0), (h1, s1), (h2, s2) = sorted(zip(grid.spacing, strides)) + [
        (math.inf, 0)] * (3 - grid.dims)
    w0, w1, w2 = 1.0 / (h0 * h0), 1.0 / (h1 * h1), 1.0 / (h2 * h2)
    inf, sqrt, heappush, heappop = math.inf, math.sqrt, heapq.heappush, heapq.heappop

    t = [inf] * len(slowness)       # tentative, then final, times
    known = [inf] * len(slowness)   # upwind-usable: seed and DONE times
    far = bytearray(np.pad(np.ones(grid.shape, dtype=np.uint8), 1))
    heap: list = []

    for idx_nd, dist in _seed_cells(grid, source, source_ball_radius).items():
        flat = sum((i + 1) * s for i, s in zip(idx_nd, strides))
        t[flat] = known[flat] = dist * slowness[flat]
        far[flat] = 0
        heap.append((t[flat], flat))
    heapq.heapify(heap)

    while heap:
        tv, idx = heappop(heap)
        if tv > t[idx]:
            continue  # stale heap entry
        known[idx] = tv
        far[idx] = 0
        for d in offsets:
            nb = idx + d
            if not far[nb]:
                continue
            # Godunov update: axis minima sorted as (value, spacing) keys.
            a, b, c = known[nb - s0], known[nb - s1], known[nb - s2]
            wa, wb, wc = w0, w1, w2
            if (x := known[nb + s0]) < a:
                a = x
            if (x := known[nb + s1]) < b:
                b = x
            if (x := known[nb + s2]) < c:
                c = x
            if b < a:
                a, wa, b, wb = b, wb, a, wa
            if c < b:
                b, wb, c, wc = c, wc, b, wb
                if b < a:
                    a, wa, b, wb = b, wb, a, wa
            # Largest causal subset; one not tried or not solved leaves -1.
            sq = slowness[nb] ** 2
            cand = -1.0
            if c < inf:
                alpha, beta = wa + wb + wc, a * wa + b * wb + c * wc
                disc = beta * beta - alpha * (a * a * wa + b * b * wb + c * c * wc - sq)
                if disc >= 0.0:
                    cand = (beta + sqrt(disc)) / alpha
            if cand < c and b < inf:
                cand, alpha, beta = -1.0, wa + wb, a * wa + b * wb
                disc = beta * beta - alpha * (a * a * wa + b * b * wb - sq)
                if disc >= 0.0:
                    cand = (beta + sqrt(disc)) / alpha
            if cand < b:
                beta = a * wa
                disc = beta * beta - wa * (a * a * wa - sq)
                cand = (beta + sqrt(disc)) / wa if disc >= 0.0 else inf
            if cand < t[nb]:
                t[nb] = cand
                heappush(heap, (cand, nb))

    t_P = np.asarray(known, dtype=np.float64).reshape(padded)[interior]
    return TraveltimeField(grid=grid, t_P=t_P, v_P=speed)


def front_mask(tt: TraveltimeField, t: float) -> np.ndarray:
    """Boolean field of cells the perturbation has reached: {t_P <= t}.

    Monotone in t; the mask boundary is the moving front.
    """
    t = float(t)
    if math.isnan(t):
        raise ValueError("front time must not be NaN")
    return tt.t_P <= t


def cone_error(tt: TraveltimeField, source: SourceSpec,
               exclude_cells: float = 5.0) -> float:
    """Largest relative error of t_P against the analytic cone.

    For a uniform speed the exact first arrival is the distance to the
    nearest source cell divided by v_P.  Cells within ``exclude_cells``
    cells (index distance) of any source are skipped, since the relative
    error's denominator vanishes there.  A ScalarField speed has no
    analytic cone and raises ValueError.
    """
    if isinstance(tt.v_P, ScalarField):
        raise ValueError("the analytic cone needs a uniform speed")
    grid = tt.grid
    source.validate_against(grid)
    index = np.ogrid[tuple(slice(0, n) for n in grid.shape)]
    dist = np.full(grid.shape, math.inf)
    cells = np.full(grid.shape, math.inf)
    for cell in source.cells:
        offsets = [i - c for i, c in zip(index, cell)]
        np.minimum(dist, np.sqrt(sum((o * h) ** 2 for o, h
                                     in zip(offsets, grid.spacing))), out=dist)
        np.minimum(cells, np.sqrt(sum(o ** 2 for o in offsets)), out=cells)
    beyond = cells > exclude_cells
    if not beyond.any():
        raise ValueError(f"no cell lies beyond {exclude_cells} cells of the source")
    exact = dist[beyond] / tt.v_P
    return float(np.max(np.abs(tt.t_P[beyond] - exact) / exact))
