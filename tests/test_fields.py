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


@pytest.mark.parametrize(
    "shape,spacing",
    [
        ((2, 2, 2, 2), (1, 1, 1, 1)),  # 4-D
        ((1,), (1.0,)),                # too few cells
        ((4,), (0.0,)),                # zero spacing
        ((4,), (-1.0,)),               # negative spacing
        ((4, 4), (1.0,)),              # length mismatch
    ],
)
def test_grid_rejects_bad_geometry(shape, spacing):
    with pytest.raises(ValueError):
        Grid(shape, spacing)


# --- fields -----------------------------------------------------------------

def test_fields_copy_and_freeze():
    g = Grid((3,), (1.0,))
    src = np.array([1.0, 2.0, 3.0])
    f = ScalarField(g, src)
    src[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 7.0  # read-only array


def test_field_shape_mismatch():
    g = Grid((3,), (1.0,))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(4))


def test_complex_field_time_stamp():
    g = Grid((2, 2), (1.0, 1.0))
    f = ComplexField(g, np.zeros((2, 2)), time_stamp=3)
    assert f.time_stamp == 3.0 and isinstance(f.time_stamp, float)


def test_l2_norm_includes_cell_volume():
    g = Grid((4,), (0.25,))
    f = ComplexField(g, np.full(4, 1.0 + 1.0j))
    assert l2_norm_squared(f) == pytest.approx(4 * 2.0 * 0.25)


def test_l2_norm_mask():
    g = Grid((4,), (1.0,))
    f = ScalarField(g, [1.0, 2.0, 3.0, 4.0])
    mask = np.array([True, False, False, True])
    assert l2_norm_squared(f, mask) == pytest.approx(1.0 + 16.0)
    with pytest.raises(ValueError):
        l2_norm_squared(f, np.array([True, False]))


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
    back = read_field_csv(buf, spacing=g.spacing, origin=g.origin)
    assert isinstance(back, ComplexField)
    assert back.grid == g
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


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        read_field_csv(io.StringIO("idx,val\n0,1\n"))


def test_csv_rejects_wrong_column_count():
    bad = "index_axis0,value_re\n0,1.0,9.0\n"
    with pytest.raises(ValueError, match="line 2"):
        read_field_csv(io.StringIO(bad))


ONE_AXIS = "index_axis0,value_re\n"
TWO_AXES = "index_axis0,index_axis1,value_re\n"


@pytest.mark.parametrize("text, line, what", [
    (ONE_AXIS + "0,1.0\n0,2.0\n2,3.0\n", 3, "duplicate"),  # cell 1 never written
    (ONE_AXIS + "1,1.0\n0,2.0\n-1,3.0\n", 4, "outside"),   # -1 would wrap to cell 2
    (ONE_AXIS + "0,1.0\n1,2.0\n7,3.0\n", 4, "outside"),    # 3 rows hold at most 3 cells
    (TWO_AXES + "0,0,1.0\n1,0,2.0\n0,0,3.0\n1,1,4.0\n", 4, "duplicate"),
])
def test_csv_rejects_bad_indices(text, line, what):
    with pytest.raises(ValueError, match=f"line {line}: .*{what}"):
        read_field_csv(io.StringIO(text))


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
