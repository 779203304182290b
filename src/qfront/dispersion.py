"""Closed-form modified de Broglie relations.

A finite perturbation-front speed v_P adds a traveling phase nu * t_P to
the usual phase of a matter wave, so the observed wavenumber, wavelength,
phase velocity and group velocity all shift.  Everything here is in the
cycles convention: k = p/h (1/m), nu = E/h (Hz).

The classical theory is the v_P -> infinity limit and is admitted through
the same code paths as v_P = float('inf'), for which every formula reduces
exactly to its classical form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .constants import CODATA2018

__all__ = [
    "WavePhaseDecomposition",
    "FreeParticle",
    "WavelengthRegime",
    "modified_wavenumber_general",
    "modified_wavenumber_free",
    "modified_phase_velocity",
    "modified_group_velocity",
    "wavelength_regime",
]

# Absolute tolerance on cos(alpha) for the regime classifier; the
# comparison is dimensionless so one scale-free tolerance suffices.
REGIME_COS_TOL = 1e-12


@dataclass(frozen=True)
class WavePhaseDecomposition:
    """Local wave data: frequency, wavenumbers and the front angle.

    k_classical is |grad phi| of the unmodified phase, k_modified is
    |grad Phi| of the full phase including the front term, and alpha is
    the angle between grad phi and grad t_P.  k_modified is derived from
    the general composition law, not set.
    """

    nu: float
    k_classical: float
    alpha: float
    v_P: float
    k_modified: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be finite and non-negative, got {self.nu}")
        if not (self.k_classical >= 0.0 and math.isfinite(self.k_classical)):
            raise ValueError(
                f"k_classical must be finite and non-negative, got {self.k_classical}"
            )
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        if not self.v_P > 0.0:
            raise ValueError(f"v_P must be positive (inf allowed), got {self.v_P}")
        object.__setattr__(self, "k_modified", modified_wavenumber_general(self))


@dataclass(frozen=True)
class FreeParticle:
    """A free particle and its matter-wave parameters nu = mv^2/2h, k = mv/h
    (CODATA 2018 h), which must be finite."""

    mass: float
    speed: float
    nu: float = field(init=False)
    k: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (self.speed >= 0.0 and math.isfinite(self.speed)):
            raise ValueError(
                f"speed must be non-negative and finite, got {self.speed}"
            )
        h = CODATA2018.h
        # v * v, not v ** 2: libm pow is off by one ulp for some speeds.
        v = self.speed
        object.__setattr__(self, "nu", self.mass * (v * v) / (2.0 * h))
        object.__setattr__(self, "k", self.mass * self.speed / h)
        if not (self.nu < math.inf and self.k < math.inf):
            raise ValueError(
                f"nu = {self.nu!r} Hz or k = {self.k!r} 1/m overflows at speed {v!r} m/s")

    @classmethod
    def electron_from_voltage(cls, voltage: float) -> "FreeParticle":
        """Electron accelerated from rest through a potential difference.

        Non-relativistic: v = sqrt(2 e V / m_e), CODATA 2018 e and m_e.
        """
        voltage = float(voltage)  # a numpy scalar would warn where 2 e V / m_e overflows
        if not 0.0 < voltage < math.inf:
            raise ValueError(f"voltage must be positive and finite, got {voltage}")
        v = math.sqrt(2.0 * CODATA2018.e_charge * voltage / CODATA2018.m_e)
        try:
            return cls(mass=CODATA2018.m_e, speed=v)
        except ValueError:  # the mass is valid and v >= 0, so only an overflow fails
            raise ValueError(
                f"the electron's speed, nu or k overflows at voltage {voltage!r} V") from None

    @property
    def phase_velocity(self) -> float:
        """Classical matter-wave phase velocity nu/k = v/2."""
        return self.speed / 2.0

    @property
    def group_velocity(self) -> float:
        """Classical matter-wave group velocity dnu/dk = v."""
        return self.speed


class WavelengthRegime(enum.Enum):
    """How the modified wavelength compares to the classical one."""

    SHORTER = "Shorter"
    EQUAL = "Equal"
    LONGER = "Longer"


def modified_wavenumber_general(d: WavePhaseDecomposition) -> float:
    """Wavenumber of the full phase: k_l^2 = k^2 + (nu/v_P)^2 + 2 k (nu/v_P) cos alpha.

    Evaluated as hypot(k + s cos alpha, s sin alpha) with s = nu/v_P,
    which is non-negative by construction and reduces to exactly k + s at
    alpha = 0 and to k when s = 0 (the classical limit 1/v_P = 0).
    """
    s = d.nu / d.v_P
    return math.hypot(d.k_classical + s * math.cos(d.alpha), s * math.sin(d.alpha))


def modified_wavenumber_free(p: FreeParticle, v_P: float) -> float:
    """Free-particle modified wavenumber k_l = (m v / h)(1 + v / (2 v_P)).

    The front is collinear with the motion (alpha = 0), so the shift is
    maximal: the modified wavelength is shorter whenever v > 0.
    """
    if not v_P > 0.0:
        raise ValueError(f"v_P must be positive (inf allowed), got {v_P}")
    k_l = p.k * (1.0 + p.speed / (2.0 * v_P))
    if k_l == math.inf:
        raise ValueError(f"k_l overflows at speed {p.speed!r} m/s and v_P = {v_P!r} m/s")
    return k_l


def _harmonic_composition(v: float, v_P: float, name: str) -> float:
    """1/v_l = 1/v + 1/v_P, exact in the limits v -> inf and v_P -> inf.

    Evaluated as lo / (1 + lo/hi) with lo <= hi, which cannot overflow:
    the result lies between lo/2 and lo."""
    if not v > 0.0:
        raise ValueError(f"{name} must be positive, got {v}")
    if not v_P > 0.0:
        raise ValueError(f"v_P must be positive (inf allowed), got {v_P}")
    lo, hi = sorted((v, v_P))
    return lo if math.isinf(hi) else lo / (1.0 + lo / hi)


def modified_phase_velocity(v_ph: float, v_P: float) -> float:
    """Harmonic composition 1/v_ph.l = 1/v_ph + 1/v_P."""
    return _harmonic_composition(v_ph, v_P, "v_ph")


def modified_group_velocity(v_gr: float, v_P: float) -> float:
    """Harmonic composition 1/v_gr.l = 1/v_gr + 1/v_P.

    The result is below both inputs, so a particle's modified group
    velocity never exceeds the front speed.
    """
    return _harmonic_composition(v_gr, v_P, "v_gr")


def wavelength_regime(d: WavePhaseDecomposition) -> WavelengthRegime:
    """Classify the modified wavelength against the classical one.

    The sign of k_l - k is the sign of cos alpha + nu/(2 k v_P), so the
    decision reduces to comparing cos alpha with the threshold
    -nu/(2 k v_P); ties within REGIME_COS_TOL (absolute, on cos alpha)
    count as Equal.  A vanishing coupling nu/v_P leaves the wavenumber
    unchanged for every alpha.
    """
    if d.k_classical == 0.0:
        raise ValueError(
            "the regime classifier needs k_classical > 0; with no classical "
            "phase gradient there is no classical wavelength to compare to"
        )
    s = d.nu / d.v_P
    if s == 0.0:
        return WavelengthRegime.EQUAL
    threshold = -s / (2.0 * d.k_classical)
    delta = math.cos(d.alpha) - threshold
    if abs(delta) <= REGIME_COS_TOL:
        return WavelengthRegime.EQUAL
    return WavelengthRegime.SHORTER if delta > 0.0 else WavelengthRegime.LONGER
