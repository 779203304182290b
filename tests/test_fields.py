import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfront.fields import (
    ComplexField,
    Grid,
    ScalarField,
    l2_norm_squared,
    read_field_csv,
    write_field_csv,
)
from qfront.constants import natural_units
from qfront.schrodinger import QuantumProblem, gaussian_packet, propagate_classical


# --- Grid -------------------------------------------------------------------

def test_grid_basics():
    g = Grid((4, 3), (0.5, 2.0), (10.0, -1.0))
    assert g.dims == 2
    assert g.n_cells == 12
    assert g.cell_volume == 1.0
    np.testing.assert_allclose(g.axis_coordinates(0), [10.0, 10.5, 11.0, 11.5])
    np.testing.assert_allclose(g.axis_coordinates(1), [-1.0, 1.0, 3.0])


def test_grid_default_origin():
    g = Grid((5,), (1.0,))
    assert g.origin == (0.0,)


def test_grid_coordinate_arrays_shape():
    g = Grid((4, 3), (1.0, 1.0))
    xs, ys = g.coordinate_arrays()
    assert xs.shape == (4, 3) and ys.shape == (4, 3)
    assert xs[2, 0] == 2.0 and ys[0, 2] == 2.0


def test_grid_takes_numpy_integer_shape():
    assert Grid(np.array([4, 3]), (1.0, 1.0)).shape == (4, 3)


# --- fields -----------------------------------------------------------------

def test_fields_copy_and_freeze():
    g = Grid((3,), (1.0,))
    src = np.array([1.0, 2.0, 3.0])
    f = ScalarField(g, src)
    src[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 7.0  # read-only array


def frozen(values):
    values = np.array(values)
    values.flags.writeable = False
    return values


def test_a_snapshot_reads_its_history_row_in_place():
    g = Grid((16,), (1.0 / 15,))
    problem = QuantumProblem(g, ScalarField(g, np.zeros(16)), 1.0, 1e-3, natural_units())
    solution = propagate_classical(gaussian_packet(g, (0.5,), 0.1), problem, 3)
    for snapshot in [*solution.snapshots, solution.snapshot_at(2e-3)]:
        assert np.shares_memory(snapshot.values, solution.history)
        assert not snapshot.values.flags.writeable
    # A field of a frozen array, or of a read-only view of one, keeps it.
    rows = frozen(np.ones((2, 3)))
    for values in [frozen(np.ones(3)), rows[1], rows.reshape(-1)[3:]]:
        assert ScalarField(Grid((3,), (1.0,)), values).values is values


def read_only_view(values):
    view = values.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("values", [
    np.ones(6),  # writable
    read_only_view(np.ones(6)),  # a view of a writable array
    frozen(np.ones(12))[::2],  # not C-ordered
    frozen(np.ones(6, dtype=np.float32)),  # another dtype
    frozen(np.ones((2, 3))),  # another shape
    np.frombuffer(np.ones(6).tobytes()),  # read-only, but the memory is a bytes object's
], ids=["writable", "view-of-writable", "strided", "float32", "2x3", "frombuffer"])
def test_any_array_not_frozen_is_copied(values):
    f = ScalarField(Grid((6,), (1.0,)), values)
    assert not np.shares_memory(f.values, values)
    assert f.values.flags.c_contiguous and not f.values.flags.writeable
    np.testing.assert_array_equal(f.values, np.ones(6))


def test_fields_are_c_ordered_copies_of_any_layout():
    g = Grid((3, 2), (1.0, 1.0))
    src = np.arange(6.0).reshape(2, 3).T  # Fortran-ordered view
    for f in (ScalarField(g, src), ComplexField(g, src)):
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        assert f.values.base is None
        np.testing.assert_array_equal(f.values, src)


def test_complex_field_time_stamp():
    g = Grid((2, 2), (1.0, 1.0))
    f = ComplexField(g, np.zeros((2, 2)), time_stamp=3)
    assert f.time_stamp == 3.0 and isinstance(f.time_stamp, float)


def test_l2_norm_includes_cell_volume():
    g = Grid((4,), (0.25,))
    f = ComplexField(g, np.full(4, 1.0 + 1.0j))
    assert l2_norm_squared(f) == pytest.approx(4 * 2.0 * 0.25)


# --- CSV round trips --------------------------------------------------------

def test_csv_header_and_layout_2d():
    g = Grid((2, 3), (1.0, 1.0))
    f = ScalarField(g, np.arange(6.0))
    buf = io.StringIO()
    write_field_csv(f, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "index_axis0,index_axis1,value_re"
    assert lines[1] == "0,0,0"
    assert lines[4] == "1,0,3"
    assert lines[-1] == ""  # trailing LF


def test_csv_roundtrip_complex_exact():
    g = Grid((3, 2), (0.5, 0.25), (1.0, -2.0))
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    f = ComplexField(g, values)
    buf = io.StringIO()
    write_field_csv(f, buf)
    buf.seek(0)
    back = read_field_csv(buf)
    assert isinstance(back, ComplexField)
    assert back.grid == Grid((3, 2), (1.0, 1.0))  # the unit grid of the file's shape
    assert np.array_equal(back.values, f.values)  # 17 sig digits: bit exact


def test_csv_roundtrip_real():
    g = Grid((4,), (1.0,))
    f = ScalarField(g, [0.0, -1.5, math.pi, 1e-300])
    buf = io.StringIO()
    write_field_csv(f, buf)
    buf.seek(0)
    back = read_field_csv(buf)
    assert isinstance(back, ScalarField)
    assert np.array_equal(back.values, f.values)


def test_csv_skips_blank_lines():
    back = read_field_csv(io.StringIO("index_axis0,value_re\n0,1.5\n\n1,-2\n\n"))
    assert back.values.tolist() == [1.5, -2.0]


def test_csv_file_roundtrip(tmp_path):
    g = Grid((2, 2), (1.0, 1.0))
    f = ComplexField(g, np.array([[1, 2j], [3, 4 + 4j]]))
    path = str(tmp_path / "f.csv")
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert np.array_equal(back.values, f.values)
    assert Path(path).read_bytes().count(b"\r") == 0  # LF only


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(finite, min_size=4, max_size=4))
def test_csv_roundtrip_property(values):
    g = Grid((4,), (1.0,))
    f = ScalarField(g, values)
    buf = io.StringIO()
    write_field_csv(f, buf)
    buf.seek(0)
    back = read_field_csv(buf)
    assert np.array_equal(back.values, f.values)


@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6))
def test_csv_roundtrip_property_complex(values):
    g = Grid((3, 2), (1.0, 1.0))
    f = ComplexField(g, np.array(values).reshape(3, 2))
    buf = io.StringIO()
    write_field_csv(f, buf)
    buf.seek(0)
    back = read_field_csv(buf)
    assert np.array_equal(back.values, f.values)
