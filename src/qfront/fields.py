"""Uniform Cartesian grids and real/complex scalar fields.

Indexing convention (used by every module and by the CSV format):
cells are addressed by a multi-index ``(i0, i1, ..)``, one entry per axis,
``0 <= i_a < shape[a]``.  Arrays are stored C-contiguous (row major), so the
flattened cell index is ``i0 * shape[1] * shape[2] + i1 * shape[2] + i2``
in 3-D, with the trailing factors dropped in lower dimensions.  The cell
centre coordinate along axis ``a`` is ``origin[a] + i_a * spacing[a]`` and
each cell carries the volume ``prod(spacing)``.

Fields are immutable snapshots, so instances can be shared freely between
threads.  A field keeps a frozen array as it is: read-only, C-ordered, of
the field's dtype and grid shape, and every array it views read-only, the
last one owning its data, as a row of a finished run's history is.  Any
other array is copied C-ordered and the copy marked read-only.

The CSV reader and writers open their files through
:func:`qfront.textfile._text_file`: a path or an open text handle.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .textfile import _text_file

__all__ = [
    "Grid",
    "ScalarField",
    "ComplexField",
    "l2_norm_squared",
    "write_field_csv",
    "read_field_csv",
]


def _integers(values, name: str) -> tuple:
    """values, one or a sequence, as a tuple of ints; an entry that is not an
    integer to operator.index, such as 10.7 or "10", is an error naming name."""
    try:
        return tuple(operator.index(v) for v in np.atleast_1d(values))
    except TypeError:
        raise ValueError(f"{name} must hold integers, got {values!r}") from None


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid in 1, 2 or 3 dimensions.

    shape    cells per axis
    spacing  metres per cell per axis
    origin   coordinate of cell (0, 0, ..) in metres per axis
    """

    shape: tuple
    spacing: tuple
    origin: tuple

    def __init__(self, shape: Sequence[int], spacing: Sequence[float],
                 origin: Optional[Sequence[float]] = None):
        shape = _integers(shape, "shape")
        spacing = tuple(float(s) for s in np.atleast_1d(spacing))
        if origin is None:
            origin = (0.0,) * len(shape)
        origin = tuple(float(o) for o in np.atleast_1d(origin))
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"grid must be 1-D, 2-D or 3-D, got shape {shape}")
        if len(spacing) != len(shape) or len(origin) != len(shape):
            raise ValueError("shape, spacing and origin must have equal length")
        if any(n < 2 for n in shape):
            raise ValueError(f"need >= 2 cells per axis, got shape {shape}")
        if any(not (s > 0.0 and math.isfinite(s)) for s in spacing):
            raise ValueError(f"spacing must be positive, got {spacing}")
        if not all(math.isfinite(o) for o in origin):
            raise ValueError(f"origin must be finite, got {origin}")
        for axis, (n, h, o) in enumerate(zip(shape, spacing, origin)):
            if not math.isfinite(o + h * (n - 1)):
                raise ValueError(
                    f"the last cell's coordinate {o!r} + {h!r} * {n - 1} overflows "
                    f"on axis {axis}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def dims(self) -> int:
        return len(self.shape)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell centre coordinates along one axis."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    def coordinate_arrays(self) -> tuple:
        """Broadcastable coordinate arrays, one per axis (ij indexing)."""
        axes = [self.axis_coordinates(a) for a in range(self.dims)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


def _frozen(arr: np.ndarray) -> bool:
    """Whether arr is read-only and C-ordered, and every array it views is
    read-only, the last one owning its data: no writable array reaches its
    memory."""
    if not arr.flags.c_contiguous:
        return False
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.base is None:
            return arr.flags.owndata
        arr = arr.base
    return False


def _as_grid_array(grid: Grid, values, dtype) -> np.ndarray:
    """values as a read-only C-ordered array of dtype, shaped like grid: as
    it is if _frozen, else a copy; every grid-valued type builds its arrays
    here.  Complex values for a real dtype are rejected, since a cast would
    drop their imaginary parts."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and not np.issubdtype(dtype, np.complexfloating):
        raise ValueError("complex values for a real-valued field")
    if arr.size != grid.n_cells:
        raise ValueError(
            f"values size {arr.size} does not match grid cells {grid.n_cells}"
        )
    if arr.dtype == dtype and arr.shape == grid.shape and _frozen(arr):
        return arr
    arr = np.array(arr.reshape(grid.shape), dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def _require_grid_shape(name: str, shape: tuple, expected: tuple) -> None:
    """Raise ValueError naming the argument when its shape is not expected."""
    if shape != expected:
        raise ValueError(f"{name} shape {shape} does not match grid shape {expected}")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-valued field on a grid (units depend on context)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _as_grid_array(self.grid, self.values, np.float64))


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Complex-valued field on a grid with a time stamp in seconds."""

    grid: Grid
    values: np.ndarray = field(repr=False)
    time_stamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _as_grid_array(self.grid, self.values, np.complex128))
        object.__setattr__(self, "time_stamp", float(self.time_stamp))


def l2_norm_squared(f: ComplexField | ScalarField) -> float:
    """Discrete squared L2 norm: sum |f_i|^2 * cell volume over every cell."""
    total = float(np.sum(np.abs(f.values) ** 2))
    return total * f.grid.cell_volume


# --- CSV serialization ------------------------------------------------------
#
# One row per cell in row-major order:
#   index_axis0[,index_axis1[,index_axis2]],value_re[,value_im]
# LF line endings, '.' decimal point, 17 significant digits.

def _write_cell_rows(out: TextIO | str | os.PathLike, grid: Grid,
                     value_cols: list, rows: Iterable[str]) -> None:
    """Header, then per cell in row-major order its indices and its row."""
    index_cols = [f"index_axis{a}" for a in range(grid.dims)]
    cells = itertools.product(*([*map(str, range(n))] for n in grid.shape))
    with _text_file(out, "w") as handle:
        handle.write(",".join(index_cols + value_cols) + "\n")
        handle.writelines(f"{','.join(cell)},{row}\n" for cell, row in zip(cells, rows))


def write_field_csv(f: ComplexField | ScalarField, out: TextIO | str | os.PathLike) -> None:
    """Write a field in the package CSV format (complex fields add value_im)."""
    flat = f.values.reshape(-1).tolist()
    if np.iscomplexobj(f.values):
        rows = (f"{v.real:.17g},{v.imag:.17g}" for v in flat)
        _write_cell_rows(out, f.grid, ["value_re", "value_im"], rows)
    else:
        _write_cell_rows(out, f.grid, ["value_re"], (f"{v:.17g}" for v in flat))


def read_field_csv(src: TextIO | str | os.PathLike) -> ComplexField | ScalarField:
    """Read a field CSV written by :func:`write_field_csv`.

    The CSV stores only indices and values, so the field lies on the unit
    grid (spacing 1, origin 0) of the shape inferred from the largest index
    per axis; a caller that knows the geometry rebuilds the field on its
    own grid of that shape.  Returns a ComplexField (time stamp 0) when a
    value_im column is present, else a ScalarField.
    """
    with _text_file(src, "r") as handle:
        header = handle.readline().strip()
        if not header:
            raise ValueError("empty field CSV")
        columns = header.split(",")
        dims = sum(1 for c in columns if c.startswith("index_axis"))
        is_complex = "value_im" in columns
        expected = [f"index_axis{a}" for a in range(dims)] + ["value_re"]
        if is_complex:
            expected.append("value_im")
        if columns != expected:
            raise ValueError(f"unexpected field CSV header: {header!r}")
        indices: list = []
        values: list = []
        line_nos: list = []
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise ValueError(f"line {line_no}: expected {len(columns)} columns")
            try:
                indices.append(tuple(int(p) for p in parts[:dims]))
                if is_complex:
                    values.append(complex(float(parts[dims]), float(parts[dims + 1])))
                else:
                    values.append(float(parts[dims]))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            line_nos.append(line_no)
    if not indices:
        raise ValueError("field CSV holds no cells")
    n = len(indices)  # no axis of an n-cell field is longer than n cells
    for idx, line_no in zip(indices, line_nos):
        if any(not 0 <= i < n for i in idx):
            raise ValueError(f"line {line_no}: index {idx} outside [0, {n}) of {n} cells")
    shape = tuple(max(idx[a] for idx in indices) + 1 for a in range(dims))
    if n != int(np.prod(shape)):
        raise ValueError(f"field CSV holds {n} cells, "
                         f"expected {int(np.prod(shape))} for shape {shape}")
    grid = Grid(shape, (1.0,) * dims)
    dtype = np.complex128 if is_complex else np.float64
    arr = np.empty(shape, dtype=dtype)
    # n distinct in-range rows cover all n cells, so no np.empty value survives.
    first_line = np.zeros(shape, dtype=np.int64)  # 0: cell not yet written
    for idx, value, line_no in zip(indices, values, line_nos):
        if first_line[idx]:
            raise ValueError(f"line {line_no}: duplicate index {idx} "
                             f"(first on line {first_line[idx]})")
        first_line[idx] = line_no
        arr[idx] = value
    if is_complex:
        return ComplexField(grid, arr)
    return ScalarField(grid, arr)
