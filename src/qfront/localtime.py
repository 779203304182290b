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
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from .eikonal import TraveltimeField
from .fields import Grid, ScalarField, _fmt, _write_cell_rows

__all__ = [
    "RegionClass",
    "LocalTimeField",
    "local_time",
    "infinite_speed_limit",
    "default_front_tol",
    "write_localtime_csv",
]


class RegionClass(enum.IntEnum):
    """Region codes as stored in ``LocalTimeField.classes``; CSV letter "NFP"[code]."""

    NON_PERTURBED = 0
    FRONT = 1
    PERTURBED = 2


@dataclass(frozen=True, eq=False)
class LocalTimeField:
    """theta per cell at a fixed global time, with per-cell region classes."""

    grid: Grid
    theta: np.ndarray = field(repr=False)
    global_time: float
    classes: np.ndarray = field(repr=False)  # RegionClass codes, dtype=uint8
    front_tol: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64).reshape(self.grid.shape).copy()
        theta.flags.writeable = False
        classes = np.asarray(self.classes, dtype=np.uint8).reshape(self.grid.shape).copy()
        classes.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "classes", classes)

    def mask(self, region: RegionClass) -> np.ndarray:
        return self.classes == region


def default_front_tol(tt: TraveltimeField) -> float:
    """Half the minimum cell-crossing time, min(spacing) / (2 v_P)."""
    return min(tt.grid.spacing) / (2.0 * tt.min_speed())


def local_time(tt: TraveltimeField, t: float,
               front_tol: Optional[float] = None) -> LocalTimeField:
    """theta = t - t_P cell-wise, classified against the front tolerance.

    ``front_tol`` defaults to half the minimum cell-crossing time of the
    traveltime field.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("global time must be finite")
    if front_tol is None:
        front_tol = default_front_tol(tt)
    if not front_tol >= 0.0:
        raise ValueError(f"front_tol must be >= 0, got {front_tol}")
    theta = t - tt.t_P
    # N = 0 below the band, F = 1 inside it, P = 2 above it.
    classes = np.add(theta >= -front_tol, theta > front_tol, dtype=np.uint8)
    return LocalTimeField(grid=tt.grid, theta=theta, global_time=t,
                          classes=classes, front_tol=front_tol)


def infinite_speed_limit(grid: Grid, t: float,
                         front_tol: float = 0.0) -> LocalTimeField:
    """Local time when the front moves infinitely fast: theta = t everywhere.

    Every cell is perturbed for t > 0 (front exactly at t = 0).  This is
    ``local_time`` applied to an all-zero traveltime field.
    """
    if t < 0.0:
        raise ValueError("time must be >= 0 in the infinite-speed limit")
    zero = TraveltimeField(grid, np.zeros(grid.shape), math.inf)
    return local_time(zero, t, front_tol)


def write_localtime_csv(f: LocalTimeField, out: TextIO | str) -> None:
    """Rows ``indices..., theta, class`` with class in {N, F, P}."""
    rows = ((_fmt(theta), "NFP"[code]) for theta, code
            in zip(f.theta.reshape(-1).tolist(), f.classes.reshape(-1).tolist()))
    _write_cell_rows(out, f.grid, ["theta", "class"], rows)
