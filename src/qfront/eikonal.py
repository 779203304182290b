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
the exact answer, the distance to the nearest source cell over v_P.  The
seed ball and ``cone_error`` read that distance from one field, so a ball
that covers the grid has a cone error of exactly 0.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .fields import Grid, ScalarField, _as_grid_array, _integers, _require_grid_shape

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
        cells = tuple(_integers(c, "source cell") for c in cells)
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
    """Solved traveltime t_P per cell, finite and >= 0, plus the speed it was
    solved with: a speed > 0 (inf allowed), a ScalarField of them, or None,
    the default, if unknown."""

    grid: Grid
    t_P: np.ndarray = field(repr=False)
    v_P: Optional[Speed] = None

    def __post_init__(self):
        t_P = _as_grid_array(self.grid, self.t_P, np.float64)
        if np.any(t_P < 0.0) or not np.all(np.isfinite(t_P)):
            raise ValueError("t_P must be non-negative and finite")
        object.__setattr__(self, "t_P", t_P)
        if isinstance(self.v_P, ScalarField):
            _require_grid_shape("v_P", self.v_P.grid.shape, self.grid.shape)
        if self.v_P is not None and not self.min_speed() > 0.0:
            raise ValueError(f"v_P must be > 0 (inf allowed), got {self.min_speed()}")

    def max_traveltime(self) -> float:
        return float(np.max(self.t_P))

    def min_speed(self) -> float:
        if self.v_P is None:
            raise ValueError("v_P is None: the traveltime field carries no front speed")
        v = self.v_P.values if isinstance(self.v_P, ScalarField) else self.v_P
        return float(np.min(v))


def _slowness_per_cell(grid: Grid, speed: Speed) -> np.ndarray:
    """1/v flattened per cell; rejects non-positive or non-finite speeds and
    speeds so small that 1/v or its square overflows."""
    if isinstance(speed, ScalarField):
        _require_grid_shape("speed field", speed.grid.shape, grid.shape)
        v = speed.values.reshape(-1)
    else:
        v = np.full(grid.n_cells, float(speed))
    if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("speed must be positive and finite everywhere")
    with np.errstate(over="ignore"):
        slowness = 1.0 / v
    if not np.all(np.isfinite(slowness)):
        raise ValueError(f"speed {float(v.min())!r} is so small that 1/speed overflows")
    try:
        float(slowness.max()) ** 2  # as the march squares it
    except OverflowError:
        raise ValueError(
            f"speed {float(v.min())!r} is so small that (1/speed)**2 overflows") from None
    return slowness


def _require_spacing_in_range(grid: Grid) -> None:
    """Rejects spacings at which the march's weight 1/h**2 or the squared
    grid extent leaves the float range.  A finite squared extent bounds
    every squared distance _source_distance forms, and keeps the default
    ball radius 8 * max(spacing) finite."""
    for h in grid.spacing:
        if not (h * h > 0.0 and 1.0 / (h * h) < math.inf):
            raise ValueError(f"spacing {h!r} is so small that 1/spacing**2 overflows")
    if not sum(((n - 1) * h) * ((n - 1) * h)
               for n, h in zip(grid.shape, grid.spacing)) < math.inf:
        raise ValueError(
            f"the squared grid extent overflows at shape {grid.shape} "
            f"and spacing {grid.spacing}")


def _source_distance(grid: Grid, source: SourceSpec, spacing: Sequence[float]) -> np.ndarray:
    """Each cell's distance to the nearest source cell at the per-axis spacing."""
    index = np.ogrid[tuple(slice(0, n) for n in grid.shape)]
    dist = np.full(grid.shape, math.inf)
    for cell in source.cells:
        offsets = [i - c for i, c in zip(index, cell)]
        np.minimum(dist, np.sqrt(sum((o * h) ** 2 for o, h
                                     in zip(offsets, spacing))), out=dist)
    return dist


def solve_traveltime(grid: Grid, source: SourceSpec, speed: Speed, *,
                     source_ball_radius: Optional[float] = None) -> TraveltimeField:
    """Fast-marching solution of the traveltime equation |grad t| = 1/v.

    ``speed`` is a positive scalar (m/s) or a ScalarField for spatially
    varying media.  ``source_ball_radius`` is the physical radius of the
    exact-distance ball seeded around the source set; the default is
    8 * max(spacing) for scalar speed and 0 for spatially varying speed,
    where straight-ray seeding would be inconsistent.  Seeding takes one
    pass over the whole grid per source cell, which suits a few source
    cells (the README and the benchmark use at most 3).  Returns t = 0
    exactly on source cells and finite values everywhere on a connected
    grid; a spacing whose 1/h**2 or squared grid extent overflows, or a
    march whose squared times overflow, raises ValueError.
    """
    source.validate_against(grid)
    _require_spacing_in_range(grid)
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

    dist = np.pad(_source_distance(grid, source, grid.spacing), 1,
                  constant_values=math.inf).reshape(-1)
    for flat in np.flatnonzero(dist <= source_ball_radius).tolist():
        t[flat] = known[flat] = float(dist[flat]) * slowness[flat]
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
    if not np.all(np.isfinite(t_P)):  # every cell is reached, so only overflow leaves inf
        slowest = float(np.min(speed.values)) if isinstance(speed, ScalarField) else speed
        raise ValueError(
            f"the squared traveltimes overflow in the upwind update at spacing "
            f"{grid.spacing} and slowest speed {slowest!r} m/s")
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
    error's denominator vanishes there, so ``exclude_cells`` must be
    finite and >= 0.  A ScalarField speed has no analytic cone and raises
    ValueError.
    """
    if isinstance(tt.v_P, ScalarField):
        raise ValueError("the analytic cone needs a uniform speed")
    if not 0.0 <= exclude_cells < math.inf:
        raise ValueError(f"exclude_cells must be finite and >= 0, got {exclude_cells}")
    grid = tt.grid
    source.validate_against(grid)
    beyond = _source_distance(grid, source, (1.0,) * grid.dims) > exclude_cells
    if not beyond.any():
        raise ValueError(f"no cell lies beyond {exclude_cells} cells of the source")
    exact = _source_distance(grid, source, grid.spacing)[beyond] / tt.min_speed()
    return float(np.max(np.abs(tt.t_P[beyond] - exact) / exact))
