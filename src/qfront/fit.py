"""Least-squares recovery of the perturbation-front speed from diffraction data.

Each record is an accelerating voltage and a measured electron wavelength.
The modified free-particle model predicts k = (m v / h)(1 + v / (2 v_P))
with v = sqrt(2 e V / m), which is linear in beta = 1/v_P:

    k_model(beta) = m v / h + (m v^2 / (2 h)) beta.

So the least-squares minimizer over beta >= 0 is closed-form:
beta* = sum(a_i r_i) / sum(a_i^2) with a_i = m v_i^2 / (2 h) and
r_i = k_exp,i - m v_i / h, clamped at zero.  beta = 0 is the classical
model, which the modified one therefore nests: its variance can never
exceed the classical variance.  The electron is dispersion.FreeParticle,
so a_i is its frequency nu and m v_i / h its wavenumber k.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import IO, Sequence

from .constants import CODATA2018
from .dispersion import FreeParticle, modified_wavenumber_free
from .textfile import _text_file, _write_json

__all__ = [
    "DiffractionRecord",
    "FitResult",
    "derive_kinematics",
    "fit_vp",
    "model_curves",
    "read_records_csv",
    "write_fit_json",
    "fit_result_to_dict",
    "synthesize_records",
    "RECORDS_CSV_HEADER",
]

RECORDS_CSV_HEADER = "voltage_volts,wavelength_meters"


@dataclass(frozen=True)
class DiffractionRecord:
    """One diffraction measurement: accelerating voltage and wavelength."""

    voltage: float
    wavelength_exp: float

    def __post_init__(self) -> None:
        if not (self.voltage > 0.0 and math.isfinite(self.voltage)):
            raise ValueError(
                f"voltage must be positive and finite, got {self.voltage}"
            )
        if not (self.wavelength_exp > 0.0 and math.isfinite(self.wavelength_exp)):
            raise ValueError(
                f"wavelength must be positive and finite, got {self.wavelength_exp}"
            )


@dataclass(frozen=True)
class FitResult:
    """Outcome of the front-speed fit.

    v_p_fitted is math.inf when the data prefer the classical model
    (beta clamped to zero); clamped_to_classical records that case and
    n_records counts the residuals (both derived, not set).  Variances
    are mean squared wavenumber residuals in 1/m^2.
    """

    v_p_fitted: float
    variance_modified: float
    variance_classical: float
    residuals: tuple[float, ...]
    n_records: int = field(init=False)
    clamped_to_classical: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_records", len(self.residuals))
        object.__setattr__(self, "clamped_to_classical", math.isinf(self.v_p_fitted))
        if not self.v_p_fitted > 0.0:
            raise ValueError(
                f"v_p_fitted must be positive (inf allowed), got {self.v_p_fitted}")
        for name in ("variance_modified", "variance_classical"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # Nesting: the classical model is the beta = 0 point of the
        # modified family, so the fitted variance cannot exceed the
        # classical one (tiny slack for round-off).
        if self.variance_modified > self.variance_classical * (1.0 + 1e-9):
            raise ValueError(
                f"variance_modified={self.variance_modified} exceeds "
                f"variance_classical={self.variance_classical}; the modified "
                "model nests the classical one, so this indicates a broken fit"
            )


def derive_kinematics(record: DiffractionRecord) -> tuple[float, float]:
    """Electron speed v = sqrt(2 e V / m) and measured wavenumber 1/lambda."""
    electron = FreeParticle.electron_from_voltage(record.voltage)
    return electron.speed, 1.0 / record.wavelength_exp


def _design_arrays(records: Sequence[DiffractionRecord]) -> tuple[list[float], list[float]]:
    """Per-record slope a_i = nu_i = m v_i^2/(2h) and residual r_i = k_exp,i - k_i."""
    electrons = [FreeParticle.electron_from_voltage(r.voltage) for r in records]
    a = [e.nu for e in electrons]
    r = [1.0 / rec.wavelength_exp - e.k for rec, e in zip(records, electrons)]
    return a, r


def _residuals(a: Sequence[float], r: Sequence[float], beta: float) -> list[float]:
    """Wavenumber residuals r_i - a_i beta of the model at beta = 1/v_P."""
    return [y - x * beta for x, y in zip(a, r)]


def _mean_square(residuals: Sequence[float]) -> float:
    """math.fsum of the squared residuals over their count; a mean that
    leaves the float range raises ValueError."""
    try:
        mean = math.fsum(e * e for e in residuals) / len(residuals)
    except OverflowError:  # finite squares whose sum overflows
        mean = math.inf
    if not mean < math.inf:
        raise ValueError("the mean squared wavenumber residual overflows")
    return mean


def fit_vp(records: Sequence[DiffractionRecord]) -> FitResult:
    """Closed-form least-squares fit of the front speed over beta = 1/v_P >= 0.

    Sums are math.fsum of the rounded terms, so they do not depend on the
    order of the records."""
    if len(records) < 2:
        raise ValueError(f"need at least 2 records to fit, got {len(records)}")
    a, r = _design_arrays(records)
    try:
        sum_ar = math.fsum(x * y for x, y in zip(a, r))
        sum_aa = math.fsum(x * x for x in a)
    except (OverflowError, ValueError):  # finite terms that overflow, or inf - inf
        sum_ar = sum_aa = math.inf
    beta = sum_ar / sum_aa if 0.0 < sum_aa < math.inf else math.inf
    if not abs(beta) < math.inf:
        raise ValueError("the least-squares sums over the records overflow or underflow")
    clamped = beta <= 0.0
    if clamped:
        beta = 0.0
    residuals = _residuals(a, r, beta)
    return FitResult(
        v_p_fitted=math.inf if clamped else 1.0 / beta,
        variance_modified=_mean_square(residuals),
        variance_classical=_mean_square(r),
        residuals=tuple(float(x) for x in residuals),
    )


def model_curves(v_range: Sequence[float], v_P: float) -> list[tuple[float, float, float]]:
    """Rows (v, k_classical, k_modified) for plotting both model curves."""
    if len(v_range) == 0:
        raise ValueError("v_range must be non-empty")
    rows = []
    for v in v_range:
        p = FreeParticle(CODATA2018.m_e, v)
        rows.append((float(v), p.k, modified_wavenumber_free(p, v_P)))
    return rows


def read_records_csv(path_or_file: str | os.PathLike | IO[str]) -> list[DiffractionRecord]:
    """Read records from CSV: header voltage_volts,wavelength_meters.

    Lines starting with '#' are comments.  Malformed input raises
    ValueError naming the source and the offending line number.
    """
    records: list[DiffractionRecord] = []
    header_seen = False
    with _text_file(path_or_file, "r") as fh:
        name = getattr(fh, "name", "<stream>")
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != RECORDS_CSV_HEADER:
                    raise ValueError(
                        f"{name}:{lineno}: expected header '{RECORDS_CSV_HEADER}', "
                        f"got '{line}'"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(
                    f"{name}:{lineno}: expected 2 comma-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                voltage = float(parts[0])
                wavelength = float(parts[1])
            except ValueError:
                raise ValueError(f"{name}:{lineno}: non-numeric field in '{line}'") from None
            try:
                records.append(DiffractionRecord(voltage, wavelength))
            except ValueError as exc:
                raise ValueError(f"{name}:{lineno}: {exc}") from None
    if not header_seen:
        raise ValueError(f"{name}: no header line found")
    return records


def fit_result_to_dict(result: FitResult) -> dict:
    """JSON-ready mapping; infinite v_P (classical limit) maps to null."""
    return {
        "v_p_fitted_m_per_s": None if math.isinf(result.v_p_fitted) else result.v_p_fitted,
        "variance_modified_inv_m2": result.variance_modified,
        "variance_classical_inv_m2": result.variance_classical,
        "n_records": result.n_records,
        "clamped_to_classical": result.clamped_to_classical,
        "residuals": list(result.residuals),
    }


def write_fit_json(result: FitResult, path_or_file: str | os.PathLike | IO[str]) -> None:
    """Write the fit result as a JSON document."""
    _write_json(fit_result_to_dict(result), path_or_file)


def synthesize_records(
    n_records: int,
    v_p_true: float,
    voltage_range: tuple[float, float] = (30.0, 600.0),
    noise_relative: float = 0.0,
    seed: int = 0,
    voltages: Sequence[float] | None = None,
) -> list[DiffractionRecord]:
    """Generate records from the modified model, optionally with k noise.

    Voltages are uniformly spaced across voltage_range (or taken verbatim
    from voltages if given); wavelengths come from lambda = 1/k_l at the
    given v_p_true (inf for classical), then each wavenumber is jittered
    by Gaussian noise of relative width noise_relative, reproducibly
    seeded.
    """
    import numpy as np

    if voltages is None:
        if n_records < 2:
            raise ValueError(f"need at least 2 records, got {n_records}")
        lo, hi = voltage_range
        if not (0.0 < lo < hi):
            raise ValueError(
                f"voltage_range must satisfy 0 < lo < hi, got {voltage_range}"
            )
        # Only the last point, (n - 1) * step, can overflow, and linspace
        # then sets it to hi.
        with np.errstate(over="ignore"):
            voltages = np.linspace(lo, hi, n_records)
    elif len(voltages) < 2:
        raise ValueError(f"need at least 2 voltages, got {len(voltages)}")
    if not v_p_true > 0.0:
        raise ValueError(f"v_p_true must be positive (inf allowed), got {v_p_true}")
    if not 0.0 <= noise_relative < math.inf:
        raise ValueError(
            f"noise_relative must be non-negative and finite, got {noise_relative}"
        )
    rng = np.random.default_rng(seed)
    records = []
    for voltage in voltages:
        electron = FreeParticle.electron_from_voltage(voltage)
        k = modified_wavenumber_free(electron, v_p_true)
        if noise_relative > 0.0:
            k *= 1.0 + noise_relative * rng.standard_normal()
        if k <= 0.0:
            raise ValueError(
                "noise drove a wavenumber non-positive; reduce noise_relative"
            )
        records.append(DiffractionRecord(float(voltage), 1.0 / k))
    return records
