"""Local time theta = t - t_P and the three-region classification.

At global time t a grid point falls into exactly one of three regions:
the front has not arrived (theta < 0), it is arriving (theta = 0 within a
tolerance band), or the point sits inside the perturbed subregion
(theta > 0).  Grids cannot represent the front surface exactly, so the
"theta = 0" case is a band of width ``front_tol`` around zero.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .eikonal import TraveltimeField
from .fields import Grid, _as_grid_array, _write_cell_rows

__all__ = [
    "RegionClass",
    "LocalTimeField",
    "local_time",
    "write_localtime_csv",
]


class RegionClass(enum.IntEnum):
    """Region codes as stored in ``LocalTimeField.classes``; CSV letter "NFP"[code]."""

    NON_PERTURBED = 0
    FRONT = 1
    PERTURBED = 2


@dataclass(frozen=True, eq=False)
class LocalTimeField:
    """theta per cell at a fixed global time, with the per-cell region
    classes that theta and front_tol give (derived, not set)."""

    grid: Grid
    theta: np.ndarray = field(repr=False)
    global_time: float
    front_tol: float
    classes: np.ndarray = field(init=False, repr=False)  # RegionClass codes, uint8

    def __post_init__(self):
        if not self.front_tol >= 0.0:
            raise ValueError(f"front_tol must be >= 0, got {self.front_tol}")
        theta = _as_grid_array(self.grid, self.theta, np.float64)
        # N = 0 below the band, F = 1 inside it, P = 2 above it.
        classes = np.add(theta >= -self.front_tol, theta > self.front_tol, dtype=np.uint8)
        classes.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "classes", classes)


def local_time(tt: TraveltimeField, t: float) -> LocalTimeField:
    """theta = t - t_P cell-wise, classified against a front band of half
    the minimum cell-crossing time of the traveltime field,
    front_tol = min(spacing) / (2 v_P).
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("global time must be finite")
    return LocalTimeField(grid=tt.grid, theta=t - tt.t_P, global_time=t,
                          front_tol=min(tt.grid.spacing) / (2.0 * tt.min_speed()))


def write_localtime_csv(f: LocalTimeField, out: TextIO | str | os.PathLike) -> None:
    """Rows ``indices..., theta, class`` with class in {N, F, P}."""
    rows = (f"{theta:.17g},{'NFP'[code]}" for theta, code
            in zip(f.theta.reshape(-1).tolist(), f.classes.reshape(-1).tolist()))
    _write_cell_rows(out, f.grid, ["theta", "class"], rows)
