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

import json
import math
import os
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .constants import CODATA2018, PhysicalConstants
from .dispersion import FreeParticle, modified_wavenumber_free

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
    (beta clamped to zero); clamped_to_classical records that case.
    Variances are mean squared wavenumber residuals in 1/m^2.
    """

    v_p_fitted: float
    variance_modified: float
    variance_classical: float
    residuals: tuple[float, ...]
    n_records: int
    clamped_to_classical: bool

    def __post_init__(self) -> None:
        if self.n_records != len(self.residuals):
            raise ValueError(
                f"n_records={self.n_records} but {len(self.residuals)} residuals"
            )
        # Nesting: the classical model is the beta = 0 point of the
        # modified family, so the fitted variance cannot exceed the
        # classical one (tiny slack for round-off).
        if self.variance_modified > self.variance_classical * (1.0 + 1e-9):
            raise ValueError(
                f"variance_modified={self.variance_modified} exceeds "
                f"variance_classical={self.variance_classical}; the modified "
                "model nests the classical one, so this indicates a broken fit"
            )


def derive_kinematics(
    record: DiffractionRecord, constants: PhysicalConstants = CODATA2018
) -> tuple[float, float]:
    """Electron speed v = sqrt(2 e V / m) and measured wavenumber 1/lambda."""
    electron = FreeParticle.electron_from_voltage(record.voltage, constants)
    return electron.speed, 1.0 / record.wavelength_exp


def _design_arrays(
    records: Sequence[DiffractionRecord], constants: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record slope a_i = nu_i = m v_i^2/(2h) and residual r_i = k_exp,i - k_i."""
    electrons = [FreeParticle.electron_from_voltage(r.voltage, constants) for r in records]
    a = np.array([e.nu for e in electrons])
    r = np.array([1.0 / rec.wavelength_exp - e.k for rec, e in zip(records, electrons)])
    return a, r


def fit_vp(
    records: Sequence[DiffractionRecord],
    constants: PhysicalConstants = CODATA2018,
) -> FitResult:
    """Closed-form least-squares fit of the front speed over beta = 1/v_P >= 0."""
    if len(records) < 2:
        raise ValueError(f"need at least 2 records to fit, got {len(records)}")
    a, r = _design_arrays(records, constants)
    beta = float(np.dot(a, r) / np.dot(a, a))
    clamped = beta <= 0.0
    if clamped:
        beta = 0.0
    residuals = r - a * beta
    variance_modified = float(np.mean(residuals**2))
    variance_classical = float(np.mean(r**2))
    if clamped:
        variance_modified = variance_classical
    return FitResult(
        v_p_fitted=math.inf if clamped else 1.0 / beta,
        variance_modified=variance_modified,
        variance_classical=variance_classical,
        residuals=tuple(float(x) for x in residuals),
        n_records=len(records),
        clamped_to_classical=clamped,
    )


def model_curves(
    v_range: Sequence[float],
    v_P: float,
    constants: PhysicalConstants = CODATA2018,
) -> list[tuple[float, float, float]]:
    """Rows (v, k_classical, k_modified) for plotting both model curves."""
    if len(v_range) == 0:
        raise ValueError("v_range must be non-empty")
    rows = []
    for v in v_range:
        p = FreeParticle(constants.m_e, v, constants)
        rows.append((float(v), p.k, modified_wavenumber_free(p, v_P)))
    return rows


def read_records_csv(path_or_file: str | os.PathLike | IO[str]) -> list[DiffractionRecord]:
    """Read records from CSV: header voltage_volts,wavelength_meters.

    Lines starting with '#' are comments.  Malformed input raises
    ValueError naming the offending line number.
    """
    if hasattr(path_or_file, "read"):
        return _read_records(path_or_file, getattr(path_or_file, "name", "<stream>"))
    with open(path_or_file, "r", newline="") as fh:
        return _read_records(fh, str(path_or_file))


def _read_records(fh: Iterable[str], name: str) -> list[DiffractionRecord]:
    records: list[DiffractionRecord] = []
    header_seen = False
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
    doc = fit_result_to_dict(result)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file, indent=2)
        path_or_file.write("\n")
        return
    with open(path_or_file, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def synthesize_records(
    n_records: int,
    v_p_true: float,
    voltage_range: tuple[float, float] = (30.0, 600.0),
    noise_relative: float = 0.0,
    seed: int = 0,
    constants: PhysicalConstants = CODATA2018,
    voltages: Sequence[float] | None = None,
) -> list[DiffractionRecord]:
    """Generate records from the modified model, optionally with k noise.

    Voltages are uniformly spaced across voltage_range (or taken verbatim
    from voltages if given); wavelengths come from lambda = 1/k_l at the
    given v_p_true (inf for classical), then each wavenumber is jittered
    by Gaussian noise of relative width noise_relative, reproducibly
    seeded.
    """
    if voltages is None:
        if n_records < 2:
            raise ValueError(f"need at least 2 records, got {n_records}")
        lo, hi = voltage_range
        if not (0.0 < lo < hi):
            raise ValueError(
                f"voltage_range must satisfy 0 < lo < hi, got {voltage_range}"
            )
        voltages = np.linspace(lo, hi, n_records)
    elif len(voltages) < 2:
        raise ValueError(f"need at least 2 voltages, got {len(voltages)}")
    if not v_p_true > 0.0:
        raise ValueError(f"v_p_true must be positive (inf allowed), got {v_p_true}")
    if noise_relative < 0.0:
        raise ValueError(f"noise_relative must be non-negative, got {noise_relative}")
    rng = np.random.default_rng(seed)
    records = []
    for voltage in voltages:
        electron = FreeParticle.electron_from_voltage(voltage, constants)
        k = modified_wavenumber_free(electron, v_p_true)
        if noise_relative > 0.0:
            k *= 1.0 + noise_relative * rng.standard_normal()
        if k <= 0.0:
            raise ValueError(
                "noise drove a wavenumber non-positive; reduce noise_relative"
            )
        records.append(DiffractionRecord(float(voltage), 1.0 / k))
    return records
