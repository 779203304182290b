"""Physical constants in SI units.

All derived numbers in the package trace back to the CODATA-2018 values
below, so every computed wavelength, frequency and speed is reproducible
bit for bit.  The Schrodinger solvers accept a ``PhysicalConstants``
instance instead of importing the module-level singleton, which also makes
natural-unit test setups (hbar = m = 1) possible; the electron model of
``dispersion`` and ``fit`` always uses CODATA 2018.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["PhysicalConstants", "CODATA2018", "natural_units"]


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of the constants used across the package.

    h        Planck constant, J s
    hbar     reduced Planck constant h / (2 pi), J s (derived, not set)
    m_e      electron mass, kg
    e_charge elementary charge, C
    c_light  vacuum light speed, m/s
    """

    h: float
    hbar: float = field(init=False)
    m_e: float
    e_charge: float
    c_light: float

    def __post_init__(self):
        object.__setattr__(self, "hbar", self.h / (2.0 * math.pi))
        for name in ("h", "hbar", "m_e", "e_charge", "c_light"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


# CODATA 2018: h, e and c are exact by definition; m_e is the recommended value.
CODATA2018 = PhysicalConstants(
    h=6.62607015e-34,
    m_e=9.1093837015e-31,
    e_charge=1.602176634e-19,
    c_light=2.99792458e8,
)


def natural_units() -> PhysicalConstants:
    """hbar = m_e = e = c = 1 (so h = 2 pi).  Convenient for solver tests."""
    return PhysicalConstants(h=2.0 * math.pi, m_e=1.0, e_charge=1.0, c_light=1.0)
