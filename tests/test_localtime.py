import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfront.eikonal import TraveltimeField, solve_traveltime, SourceSpec
from qfront.fields import Grid, ScalarField
from qfront.localtime import (
    LocalTimeField,
    RegionClass,
    local_time,
    write_localtime_csv,
)


def ramp_tt():
    """t_P = 0, 1, 2, 3 at v_P = 1 on unit cells: local_time's band is 0.5."""
    g = Grid((4,), (1.0,))
    return TraveltimeField(g, np.array([0.0, 1.0, 2.0, 3.0]), v_P=1.0)


def test_three_way_classification():
    lt = local_time(ramp_tt(), t=2.0)
    np.testing.assert_allclose(lt.theta, [2.0, 1.0, 0.0, -1.0])
    assert list(lt.classes) == [
        RegionClass.PERTURBED,
        RegionClass.PERTURBED,
        RegionClass.FRONT,
        RegionClass.NON_PERTURBED,
    ]
    assert lt.global_time == 2.0 and lt.front_tol == 0.5


def test_classes_are_read_only_codes():
    lt = local_time(ramp_tt(), t=2.0)
    assert lt.classes.dtype == np.uint8 and not lt.classes.flags.writeable
    assert lt.classes.tolist() == [2, 2, 1, 0]
    assert [RegionClass(c).name for c in lt.classes] == [
        "PERTURBED", "PERTURBED", "FRONT", "NON_PERTURBED"]


def test_front_band_is_inclusive():
    # |theta| exactly equal to the tolerance still counts as front.
    lt = local_time(ramp_tt(), t=1.5)
    assert lt.classes[1] == RegionClass.FRONT  # theta = +0.5
    assert lt.classes[2] == RegionClass.FRONT  # theta = -0.5


def test_mask_partition():
    lt = local_time(ramp_tt(), t=2.0)
    total = sum((lt.classes == r).astype(int) for r in RegionClass)
    assert np.all(total == 1)


def test_default_front_tol_is_half_cell_crossing():
    g = Grid((8, 8), (0.5, 2.0))
    tt = TraveltimeField(g, np.zeros((8, 8)), v_P=4.0)
    assert local_time(tt, 1.0).front_tol == 0.5 / (2.0 * 4.0)


def test_default_front_tol_uses_min_speed_of_field():
    g = Grid((4,), (1.0,))
    speed = ScalarField(g, [1.0, 0.5, 2.0, 1.0])
    tt = solve_traveltime(g, SourceSpec([(0,)]), speed)
    assert local_time(tt, 1.0).front_tol == 1.0 / (2.0 * 0.5)


def test_default_front_tol_names_a_missing_speed():
    tt = TraveltimeField(Grid((4,), (1.0,)), np.zeros(4), v_P=None)
    with pytest.raises(ValueError, match="v_P is None"):
        local_time(tt, 1.0)


def test_traveltime_field_without_a_speed_carries_none():
    # No front speed is invented: local_time needs one for its band.
    tt = TraveltimeField(Grid((4,), (1.0,)), np.zeros(4))
    assert tt.v_P is None
    with pytest.raises(ValueError, match="carries no front speed"):
        local_time(tt, 1.0)


def infinite_speed(shape, t):
    """local_time when the front moves infinitely fast: t_P = 0 everywhere,
    and the default front_tol min(spacing) / (2 v_P) is 0."""
    g = Grid(shape, (1.0,) * len(shape))
    return local_time(TraveltimeField(g, np.zeros(shape), math.inf), t)


def test_infinite_speed_limit_all_perturbed():
    lt = infinite_speed((3, 3), t=0.7)
    assert np.all(lt.theta == 0.7)
    assert np.all(lt.classes == RegionClass.PERTURBED)


def test_infinite_speed_limit_front_at_zero():
    lt = infinite_speed((3,), t=0.0)
    assert lt.front_tol == 0.0
    assert np.all(lt.classes == RegionClass.FRONT)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_infinite_speed_limit_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        infinite_speed((3,), t)


def test_local_time_rejects_bad_args():
    with pytest.raises(ValueError):
        local_time(ramp_tt(), math.inf)
    with pytest.raises(ValueError, match="front_tol"):
        LocalTimeField(Grid((4,), (1.0,)), np.zeros(4), 1.0, -0.1)


def test_local_time_rejects_nan_front_tol():
    with pytest.raises(ValueError, match="front_tol"):
        LocalTimeField(Grid((4,), (1.0,)), np.zeros(4), 1.0, math.nan)


def test_csv_format_golden():
    g = Grid((2, 2), (1.0, 1.0))
    tt = TraveltimeField(g, np.array([[0.0, 1.0], [1.0, 2.0]]), v_P=1.0)
    lt = local_time(tt, t=1.0)
    buf = io.StringIO()
    write_localtime_csv(lt, buf)
    assert buf.getvalue() == (
        "index_axis0,index_axis1,theta,class\n"
        "0,0,1,P\n"
        "0,1,0,F\n"
        "1,0,0,F\n"
        "1,1,-1,N\n"
    )


def test_csv_file_write(tmp_path):
    lt = local_time(ramp_tt(), 2.0)
    path = str(tmp_path / "lt.csv")
    write_localtime_csv(lt, path)
    text = Path(path).read_bytes()
    assert text.count(b"\r") == 0
    assert text.decode().splitlines()[0] == "index_axis0,theta,class"


@given(
    t=st.floats(-5.0, 10.0),
    tol=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_classification_consistent_with_theta(t, tol, seed):
    g = Grid((6, 5), (1.0, 1.0))
    rng = np.random.default_rng(seed)
    tt = TraveltimeField(g, rng.uniform(0.0, 8.0, (6, 5)), v_P=1.0)
    lt = LocalTimeField(g, t - tt.t_P, t, tol)
    on_front = np.abs(lt.theta) <= tol
    before = lt.theta < -tol
    assert np.array_equal(lt.classes == RegionClass.FRONT, on_front)
    assert np.array_equal(lt.classes == RegionClass.NON_PERTURBED, before)
    assert np.array_equal(lt.classes == RegionClass.PERTURBED, ~(on_front | before))
    assert not lt.classes.flags.writeable
    # local_time builds the same field at its band, 1 / (2 * 1).
    derived = local_time(tt, t)
    assert np.array_equal(derived.theta, t - tt.t_P)
    assert np.array_equal(derived.classes, LocalTimeField(g, t - tt.t_P, t, 0.5).classes)
