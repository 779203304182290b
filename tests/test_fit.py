import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qfront.fit
from qfront.constants import CODATA2018
from qfront.dispersion import FreeParticle
from qfront.fit import (
    RECORDS_CSV_HEADER,
    DiffractionRecord,
    FitResult,
    derive_kinematics,
    fit_result_to_dict,
    fit_vp,
    model_curves,
    read_records_csv,
    synthesize_records,
    write_fit_json,
)

V_P_TRUE = 1.3e8  # m/s


# --- record and kinematics -------------------------------------------------------

def test_record_validation():
    with pytest.raises(ValueError, match="voltage"):
        DiffractionRecord(0.0, 1e-10)
    with pytest.raises(ValueError, match="wavelength"):
        DiffractionRecord(54.0, -1e-10)


def test_derive_kinematics_54v():
    v, k_exp = derive_kinematics(DiffractionRecord(54.0, 1.67e-10))
    assert v == pytest.approx(4.3583547488e6, rel=1e-9)
    assert k_exp == pytest.approx(1.0 / 1.67e-10, rel=1e-15)


def test_derive_kinematics_speed_scaling():
    v1, _ = derive_kinematics(DiffractionRecord(50.0, 1e-10))
    v2, _ = derive_kinematics(DiffractionRecord(200.0, 1e-10))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


# --- fitting ----------------------------------------------------------------------

def test_noiseless_recovery():
    records = synthesize_records(20, V_P_TRUE, seed=3)
    result = fit_vp(records)
    assert abs(result.v_p_fitted - V_P_TRUE) / V_P_TRUE < 1e-6
    assert not result.clamped_to_classical
    assert result.variance_modified < result.variance_classical


def test_noiseless_variance_is_tiny():
    records = synthesize_records(20, V_P_TRUE, seed=3)
    result = fit_vp(records)
    # Residual wavenumbers ~1e9 1/m would give variance ~1e18; the fit
    # should leave only round-off.
    assert result.variance_modified < 1e-6 * result.variance_classical


def test_fitted_beta_is_the_least_squares_minimum():
    # Scan a dense beta grid around the closed-form optimum; nothing on
    # the grid may beat it beyond grid resolution.
    records = synthesize_records(16, V_P_TRUE, noise_relative=0.04, seed=866)
    result = fit_vp(records)
    h, m = CODATA2018.h, CODATA2018.m_e
    v = np.array([derive_kinematics(r)[0] for r in records])
    k_exp = np.array([1.0 / r.wavelength_exp for r in records])
    a = m * v**2 / (2.0 * h)
    r = k_exp - m * v / h
    beta_star = 1.0 / result.v_p_fitted
    betas = np.linspace(0.0, 2.0 * beta_star, 1_000_001)
    variances = np.mean((r[None, :] - betas[:, None] * a[None, :]) ** 2, axis=1)
    assert variances.min() >= result.variance_modified - 1e-12 * result.variance_classical


def test_classical_data_clamps_to_infinite_speed():
    records = synthesize_records(12, math.inf, seed=5)
    # Nudge wavenumbers upward in lambda (downward in k) so the optimum
    # beta would be negative without the clamp.
    nudged = [
        DiffractionRecord(r.voltage, r.wavelength_exp * 1.001) for r in records
    ]
    result = fit_vp(nudged)
    assert result.clamped_to_classical
    assert math.isinf(result.v_p_fitted)
    assert result.variance_modified == result.variance_classical


def test_fit_requires_two_records():
    with pytest.raises(ValueError, match="at least 2"):
        fit_vp([DiffractionRecord(54.0, 1.67e-10)])


@pytest.mark.parametrize("v_p, voltages, match", [
    # sum(nu**2) underflows to 0, or sum(nu * r) overflows in fsum.
    (V_P_TRUE, (1e-200, 2e-200), "sums over the records overflow or underflow"),
    (V_P_TRUE, (1e139, 1e140), "sums over the records overflow or underflow"),
    # The classical residuals, about 1e160, square past the float range.
    (1e-150, (30.0, 600.0), "mean squared wavenumber residual overflows"),
])
def test_fit_rejects_records_whose_sums_leave_the_float_range(v_p, voltages, match):
    with pytest.raises(ValueError, match=match):
        fit_vp(synthesize_records(0, v_p, voltages=voltages))


def test_fit_determinism():
    records = synthesize_records(16, V_P_TRUE, noise_relative=0.02, seed=9)
    a = fit_vp(records)
    b = fit_vp(records)
    assert a == b


def test_noisy_recovery_statistics():
    # With 1% relative wavenumber noise the fitted speed lands within
    # ~10% of truth for the typical trial.
    errors = []
    for seed in range(60):
        records = synthesize_records(16, V_P_TRUE, noise_relative=0.01, seed=seed)
        result = fit_vp(records)
        if not result.clamped_to_classical:
            errors.append(abs(result.v_p_fitted - V_P_TRUE) / V_P_TRUE)
    assert len(errors) >= 55
    assert float(np.median(errors)) < 0.10


@given(
    seed=st.integers(0, 10_000),
    noise=st.floats(0.0, 0.05),
    v_p=st.floats(5e7, 5e8),
)
def test_nesting_invariant_property(seed, noise, v_p):
    records = synthesize_records(10, v_p, noise_relative=noise, seed=seed)
    result = fit_vp(records)
    assert result.variance_modified <= result.variance_classical * (1.0 + 1e-9)


# --- arithmetic oracle: the numpy formula fit_vp had before math.fsum ---------------

BUNDLED = read_records_csv(Path(qfront.fit.__file__).parent / "data" / "davisson_germer.csv")


def _numpy_fit(records):
    """(v_P, variance_modified, variance_classical, residuals, r) by np.sum
    and np.mean, r_i = k_exp,i - k_i being the classical residuals.  These
    are numpy's own pairwise sums: np.dot would call BLAS, whose summation
    order, and so the last bit of beta, changes with the CPU kernel."""
    electrons = [FreeParticle.electron_from_voltage(rec.voltage) for rec in records]
    a = np.array([e.nu for e in electrons])
    r = np.array([1.0 / rec.wavelength_exp - e.k for rec, e in zip(records, electrons)])
    beta = max(float(np.sum(a * r) / np.sum(a * a)), 0.0)
    residuals = r - a * beta
    v_p = math.inf if beta == 0.0 else 1.0 / beta
    return v_p, float(np.mean(residuals**2)), float(np.mean(r**2)), residuals, r


def test_fit_agrees_with_the_numpy_formula_over_300_seeds():
    # At the bundled design: its 16 voltages, 4% noise in k, v_P = 1.3e8 m/s.
    voltages = [rec.voltage for rec in BUNDLED]
    for seed in range(300):
        records = synthesize_records(0, V_P_TRUE, noise_relative=0.04, seed=seed,
                                     voltages=voltages)
        got = fit_vp(records)
        v_p, var_mod, var_cl, residuals, r = _numpy_fit(records)
        assert got.clamped_to_classical == math.isinf(v_p)
        assert got.v_p_fitted == pytest.approx(v_p, rel=1e-13, abs=0)
        assert got.variance_modified == pytest.approx(var_mod, rel=1e-13, abs=0)
        assert got.variance_classical == pytest.approx(var_cl, rel=1e-13, abs=0)
        assert np.max(np.abs(np.array(got.residuals) - residuals)) <= 1e-13 * np.max(np.abs(r))
        assert got.variance_modified <= got.variance_classical


def test_bundled_fit_is_bit_identical_to_the_numpy_formula():
    got = fit_vp(BUNDLED)
    v_p, var_mod, var_cl, residuals, _ = _numpy_fit(BUNDLED)
    assert (got.v_p_fitted, got.variance_modified, got.variance_classical) == (
        v_p, var_mod, var_cl)
    assert got.residuals == tuple(residuals.tolist())


def test_fit_result_rejects_broken_nesting():
    with pytest.raises(ValueError, match="nests"):
        FitResult(v_p_fitted=1e8, variance_modified=2.0, variance_classical=1.0,
                  residuals=(0.0,))


@pytest.mark.parametrize("v_p, clamped", [(1e8, False), (math.inf, True)])
def test_fit_result_derives_its_count_and_clamp_flag(v_p, clamped):
    result = FitResult(v_p, 1.0, 2.0, (0.5, -0.5, 1.0))
    assert (result.n_records, result.clamped_to_classical) == (3, clamped)
    with pytest.raises(TypeError):
        FitResult(v_p, 1.0, 2.0, (0.5,), n_records=1)


@pytest.mark.parametrize("field, value, match", [
    ("v_p_fitted", math.nan, "v_p_fitted must be positive"),
    ("v_p_fitted", 0.0, "v_p_fitted must be positive"),
    ("variance_modified", math.nan, "variance_modified must be finite"),
    ("variance_classical", math.inf, "variance_classical must be finite"),
])
def test_fit_result_rejects_nan_speed_and_non_finite_variances(field, value, match):
    args = {"v_p_fitted": 1e8, "variance_modified": 1.0, "variance_classical": 2.0,
            "residuals": (0.0,), field: value}
    with pytest.raises(ValueError, match=match):
        FitResult(**args)


# --- model curves ------------------------------------------------------------------

def test_model_curves_zero_speed_origin():
    rows = model_curves([0.0, 1e6], 1.3e8)
    assert rows[0] == (0.0, 0.0, 0.0)


def test_model_curves_modified_above_classical():
    rows = model_curves(np.linspace(1e5, 6e6, 25), 1.3e8)
    for v, k_cl, k_mod in rows:
        assert k_mod > k_cl > 0.0
        assert k_mod == pytest.approx(k_cl * (1.0 + v / (2.0 * 1.3e8)), rel=1e-15)
    k_values = [row[1] for row in rows]
    assert k_values == sorted(k_values)


def test_model_curves_validation():
    with pytest.raises(ValueError, match="non-empty"):
        model_curves([], 1.3e8)
    with pytest.raises(ValueError, match="v_P"):
        model_curves([1.0], 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        model_curves([-1.0], 1.3e8)


# --- synthesis ---------------------------------------------------------------------

def test_synthesize_uses_explicit_voltages():
    voltages = [30.0, 54.0, 100.0]
    records = synthesize_records(0, V_P_TRUE, voltages=voltages)
    assert [r.voltage for r in records] == voltages


def test_synthesize_noiseless_matches_model():
    records = synthesize_records(5, V_P_TRUE, seed=1)
    for rec in records:
        v, k_exp = derive_kinematics(rec)
        k_model = (CODATA2018.m_e * v / CODATA2018.h) * (1.0 + v / (2.0 * V_P_TRUE))
        assert k_exp == pytest.approx(k_model, rel=1e-12)


def test_synthesize_validation():
    with pytest.raises(ValueError, match="at least 2"):
        synthesize_records(1, V_P_TRUE)
    with pytest.raises(ValueError, match="voltage_range"):
        synthesize_records(5, V_P_TRUE, voltage_range=(10.0, 5.0))
    with pytest.raises(ValueError, match="v_p_true"):
        synthesize_records(5, -1.0)
    with pytest.raises(ValueError, match="noise_relative"):
        synthesize_records(5, V_P_TRUE, noise_relative=-0.1)
    with pytest.raises(ValueError, match="at least 2 voltages, got 1"):
        synthesize_records(0, V_P_TRUE, voltages=[54.0])
    # 1 + 10 z <= 0 for a standard normal z <= -0.1, which seed 0 draws.
    with pytest.raises(ValueError, match="noise drove a wavenumber non-positive"):
        synthesize_records(5, V_P_TRUE, noise_relative=10.0, seed=0)


@pytest.mark.parametrize("noise", [math.nan, math.inf])
def test_synthesize_rejects_non_finite_noise(noise):
    with pytest.raises(ValueError, match="noise_relative must be non-negative"):
        synthesize_records(5, V_P_TRUE, noise_relative=noise)


def test_synthesize_seed_reproducibility():
    a = synthesize_records(8, V_P_TRUE, noise_relative=0.02, seed=42)
    b = synthesize_records(8, V_P_TRUE, noise_relative=0.02, seed=42)
    c = synthesize_records(8, V_P_TRUE, noise_relative=0.02, seed=43)
    assert a == b
    assert a != c


# --- CSV reading -------------------------------------------------------------------

def test_read_records_roundtrip(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "# comment line\n"
        f"{RECORDS_CSV_HEADER}\n"
        "54.0,1.67e-10\n"
        "\n"
        "100.0,1.22e-10\n"
    )
    records = read_records_csv(path)
    assert records == [
        DiffractionRecord(54.0, 1.67e-10),
        DiffractionRecord(100.0, 1.22e-10),
    ]


def test_read_records_from_stream():
    stream = io.StringIO(f"{RECORDS_CSV_HEADER}\n54.0,1.67e-10\n")
    assert len(read_records_csv(stream)) == 1


def test_read_records_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("volts,lambda\n54.0,1.67e-10\n")
    with pytest.raises(ValueError, match="bad.csv:1"):
        read_records_csv(path)


def test_read_records_bad_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{RECORDS_CSV_HEADER}\n54.0,1.67e-10\n100.0\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        read_records_csv(path)


def test_read_records_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{RECORDS_CSV_HEADER}\nfifty,1.67e-10\n")
    with pytest.raises(ValueError, match="bad.csv:2.*non-numeric"):
        read_records_csv(path)


def test_read_records_invalid_value_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{RECORDS_CSV_HEADER}\n-54.0,1.67e-10\n")
    with pytest.raises(ValueError, match="bad.csv:2.*voltage"):
        read_records_csv(path)


def test_read_records_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no header"):
        read_records_csv(path)


# --- JSON output -------------------------------------------------------------------

def test_fit_json_roundtrip(tmp_path):
    records = synthesize_records(10, V_P_TRUE, seed=2)
    result = fit_vp(records)
    path = tmp_path / "fit.json"
    write_fit_json(result, path)
    doc = json.loads(path.read_text())
    assert doc["v_p_fitted_m_per_s"] == pytest.approx(result.v_p_fitted)
    assert doc["n_records"] == 10
    assert doc["clamped_to_classical"] is False
    assert len(doc["residuals"]) == 10


def test_fit_json_clamped_maps_to_null():
    records = synthesize_records(12, math.inf, seed=5)
    nudged = [DiffractionRecord(r.voltage, r.wavelength_exp * 1.001) for r in records]
    doc = fit_result_to_dict(fit_vp(nudged))
    assert doc["v_p_fitted_m_per_s"] is None
    assert doc["clamped_to_classical"] is True
    assert json.loads(json.dumps(doc)) == doc  # valid JSON (no Infinity)
