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
    default_front_tol,
    infinite_speed_limit,
    local_time,
    write_localtime_csv,
)


def ramp_tt():
    g = Grid((4,), (1.0,))
    return TraveltimeField(g, np.array([0.0, 1.0, 2.0, 3.0]), v_P=1.0)


def test_three_way_classification():
    lt = local_time(ramp_tt(), t=2.0, front_tol=0.5)
    np.testing.assert_allclose(lt.theta, [2.0, 1.0, 0.0, -1.0])
    assert list(lt.classes) == [
        RegionClass.PERTURBED,
        RegionClass.PERTURBED,
        RegionClass.FRONT,
        RegionClass.NON_PERTURBED,
    ]
    assert lt.global_time == 2.0 and lt.front_tol == 0.5


def test_classes_are_read_only_codes():
    lt = local_time(ramp_tt(), t=2.0, front_tol=0.5)
    assert lt.classes.dtype == np.uint8 and not lt.classes.flags.writeable
    assert lt.classes.tolist() == [2, 2, 1, 0]
    assert [RegionClass(c).name for c in lt.classes] == [
        "PERTURBED", "PERTURBED", "FRONT", "NON_PERTURBED"]


def test_front_band_is_inclusive():
    # |theta| exactly equal to the tolerance still counts as front.
    lt = local_time(ramp_tt(), t=1.5, front_tol=0.5)
    assert lt.classes[1] == RegionClass.FRONT  # theta = +0.5
    assert lt.classes[2] == RegionClass.FRONT  # theta = -0.5


def test_mask_partition():
    lt = local_time(ramp_tt(), t=2.0, front_tol=0.5)
    total = sum(lt.mask(r).astype(int) for r in RegionClass)
    assert np.all(total == 1)


def test_default_front_tol_is_half_cell_crossing():
    g = Grid((8, 8), (0.5, 2.0))
    tt = TraveltimeField(g, np.zeros((8, 8)), v_P=4.0)
    assert default_front_tol(tt) == 0.5 / (2.0 * 4.0)


def test_default_front_tol_uses_min_speed_of_field():
    g = Grid((4,), (1.0,))
    speed = ScalarField(g, [1.0, 0.5, 2.0, 1.0])
    tt = solve_traveltime(g, SourceSpec([(0,)]), speed)
    assert default_front_tol(tt) == 1.0 / (2.0 * 0.5)


def test_infinite_speed_limit_all_perturbed():
    g = Grid((3, 3), (1.0, 1.0))
    lt = infinite_speed_limit(g, t=0.7)
    assert np.all(lt.theta == 0.7)
    assert np.all(lt.mask(RegionClass.PERTURBED))


def test_infinite_speed_limit_front_at_zero():
    g = Grid((3,), (1.0,))
    lt = infinite_speed_limit(g, t=0.0)
    assert np.all(lt.mask(RegionClass.FRONT))


def test_infinite_speed_limit_matches_zero_traveltime():
    g = Grid((5,), (1.0,))
    tt = TraveltimeField(g, np.zeros(5), v_P=1.0)
    a = infinite_speed_limit(g, 0.3, front_tol=0.01)
    b = local_time(tt, 0.3, front_tol=0.01)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.classes, b.classes)


def test_infinite_speed_limit_rejects_negative_time():
    g = Grid((3,), (1.0,))
    with pytest.raises(ValueError):
        infinite_speed_limit(g, -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_infinite_speed_limit_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        infinite_speed_limit(Grid((3,), (1.0,)), t)


def test_local_time_rejects_bad_args():
    with pytest.raises(ValueError):
        local_time(ramp_tt(), math.inf)
    with pytest.raises(ValueError):
        local_time(ramp_tt(), 1.0, front_tol=-0.1)


def test_local_time_rejects_nan_front_tol():
    with pytest.raises(ValueError, match="front_tol"):
        local_time(ramp_tt(), 1.0, front_tol=math.nan)


def test_csv_format_golden():
    g = Grid((2, 2), (1.0, 1.0))
    tt = TraveltimeField(g, np.array([[0.0, 1.0], [1.0, 2.0]]), v_P=1.0)
    lt = local_time(tt, t=1.0, front_tol=0.25)
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
    lt = local_time(ramp_tt(), 2.0, front_tol=0.5)
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
    lt = local_time(tt, t, front_tol=tol)
    assert np.array_equal(lt.theta, t - tt.t_P)
    on_front = np.abs(lt.theta) <= tol
    before = lt.theta < -tol
    assert np.array_equal(lt.mask(RegionClass.FRONT), on_front)
    assert np.array_equal(lt.mask(RegionClass.NON_PERTURBED), before)
    assert np.array_equal(
        lt.mask(RegionClass.PERTURBED), ~(on_front | before)
    )
