import math
import re

import pytest
from hypothesis import given, strategies as st

from qfront.constants import CODATA2018
from qfront.dispersion import (
    FreeParticle,
    WavelengthRegime,
    WavePhaseDecomposition,
    modified_group_velocity,
    modified_phase_velocity,
    modified_wavenumber_free,
    modified_wavenumber_general,
    wavelength_regime,
)

V_P = 1.3e8  # m/s, representative perturbation speed for numeric checks


def decomp(nu, k, alpha, v_p):
    return WavePhaseDecomposition(nu, k, alpha, v_p)


# --- free-particle kinematics ---------------------------------------------------

def test_electron_54v_kinematics():
    p = FreeParticle.electron_from_voltage(54.0)
    assert p.speed == pytest.approx(4.3583547488e6, rel=1e-9)
    assert p.k == pytest.approx(5.9917756400e9, rel=1e-9)
    assert p.nu == pytest.approx(1.3057141907e16, rel=1e-9)
    assert p.phase_velocity == pytest.approx(p.speed / 2.0)
    assert p.group_velocity == pytest.approx(p.speed)


def test_energy_frequency_wavenumber_consistency():
    p = FreeParticle(CODATA2018.m_e, 2.0e6)
    # nu = E / h and k = p / h with E = m v^2 / 2, p = m v.
    assert p.nu == pytest.approx(0.5 * CODATA2018.m_e * 2.0e6**2 / CODATA2018.h)
    assert p.k == pytest.approx(CODATA2018.m_e * 2.0e6 / CODATA2018.h)


def test_voltage_quadrupling_doubles_speed():
    a = FreeParticle.electron_from_voltage(50.0)
    b = FreeParticle.electron_from_voltage(200.0)
    assert b.speed == pytest.approx(2.0 * a.speed, rel=1e-12)


def test_free_particle_validation():
    with pytest.raises(ValueError, match="mass"):
        FreeParticle(0.0, 1.0)
    with pytest.raises(ValueError, match="speed"):
        FreeParticle(1.0, -1.0)
    with pytest.raises(ValueError, match="voltage"):
        FreeParticle.electron_from_voltage(-5.0)


@pytest.mark.parametrize("speed", [1e295, 1.7e308])  # nu overflows; so does k at 1.7e308
def test_free_particle_rejects_a_speed_whose_nu_or_k_overflows(speed):
    with pytest.raises(ValueError, match=re.escape(f"overflows at speed {speed!r} m/s")):
        FreeParticle(CODATA2018.m_e, speed)


@pytest.mark.parametrize("voltage", [math.nan, math.inf, 0.0, -1.0])
def test_electron_voltage_must_be_positive_and_finite(voltage):
    with pytest.raises(ValueError, match="voltage must be positive and finite"):
        FreeParticle.electron_from_voltage(voltage)


def test_electron_voltage_whose_speed_overflows_is_rejected_without_a_warning():
    # synthesize_records passes numpy scalars, whose arithmetic warns on
    # overflow; warnings are errors under pytest.  At 1e295 V the speed is
    # finite but nu = m v^2 / 2h is not.
    import numpy as np

    for voltage in (1e300, np.float64(1e300), 1e295):
        message = f"overflows at voltage {float(voltage)!r} V"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            FreeParticle.electron_from_voltage(voltage)


# --- modified wavenumber ---------------------------------------------------------

def test_modified_wavenumber_54v_oracle():
    p = FreeParticle.electron_from_voltage(54.0)
    k_l = modified_wavenumber_free(p, V_P)
    assert k_l == pytest.approx(6.0922151932e9, rel=1e-9)


def test_general_equals_free_at_alpha_zero():
    p = FreeParticle.electron_from_voltage(54.0)
    k_free = modified_wavenumber_free(p, V_P)
    k_gen = modified_wavenumber_general(decomp(p.nu, p.k, 0.0, V_P))
    assert k_gen == k_free  # both reduce to k + nu / v_P exactly


def test_modified_wavenumber_free_formula():
    p = FreeParticle(CODATA2018.m_e, 3.0e6)
    # nu / v_P = (m v^2 / 2h) / v_P = k v / (2 v_P), so k_l = k (1 + v / 2 v_P).
    assert modified_wavenumber_free(p, V_P) == pytest.approx(
        p.k * (1.0 + p.speed / (2.0 * V_P)), rel=1e-15
    )


def test_infinite_speed_recovers_classical():
    p = FreeParticle.electron_from_voltage(54.0)
    assert modified_wavenumber_free(p, math.inf) == p.k
    assert modified_wavenumber_general(decomp(p.nu, p.k, 1.2, math.inf)) == p.k


def test_perpendicular_front_always_shortens():
    # At alpha = pi/2 the shift adds in quadrature, so k_l >= k always.
    p = FreeParticle.electron_from_voltage(54.0)
    k_l = modified_wavenumber_general(decomp(p.nu, p.k, math.pi / 2.0, V_P))
    assert k_l == pytest.approx(math.hypot(p.k, p.nu / V_P), rel=1e-15)
    assert k_l > p.k


def test_opposed_propagation_can_shorten_wavenumber():
    # alpha = pi subtracts the shift: k_l = |k - nu / v_P|.
    k_l = modified_wavenumber_general(decomp(5.0, 10.0, math.pi, 1.0))
    assert k_l == pytest.approx(5.0, rel=1e-12)


def test_decomposition_validation():
    with pytest.raises(ValueError, match="alpha"):
        decomp(1.0, 1.0, -0.1, V_P)
    with pytest.raises(ValueError, match="alpha"):
        decomp(1.0, 1.0, 3.5, V_P)
    with pytest.raises(ValueError, match="v_P"):
        decomp(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="v_P"):
        decomp(1.0, 1.0, 0.0, -2.0)
    with pytest.raises(ValueError, match="nu"):
        decomp(-1.0, 1.0, 0.0, V_P)
    with pytest.raises(ValueError, match="k_classical"):
        decomp(1.0, -1.0, 0.0, V_P)


@given(
    nu=st.floats(1e-3, 1e3),
    k=st.floats(1e-3, 1e3),
    alpha=st.floats(0.0, math.pi),
    v_p=st.floats(1e-3, 1e3),
)
def test_triangle_inequality_property(nu, k, alpha, v_p):
    s = nu / v_p
    k_l = modified_wavenumber_general(decomp(nu, k, alpha, v_p))
    assert abs(k - s) - 1e-9 * (k + s) <= k_l <= k + s + 1e-9 * (k + s)


@given(alpha=st.floats(0.0, math.pi / 2.0))
def test_monotone_in_front_speed_property(alpha):
    # For cos(alpha) >= 0 the shift k_l - k is non-negative and shrinks as
    # v_P grows.  (Beyond pi/2 it changes sign at s = -2 k cos(alpha), so
    # the magnitude is not monotone there.)
    nu, k = 7.0, 11.0
    values = [
        modified_wavenumber_general(decomp(nu, k, alpha, v_p)) for v_p in (1.0, 2.0, 4.0)
    ]
    assert k - 1e-12 <= values[2] <= values[1] + 1e-12
    assert values[1] <= values[0] + 1e-12


# --- modified phase and group velocities -------------------------------------------

def test_velocity_54v_oracles():
    p = FreeParticle.electron_from_voltage(54.0)
    assert modified_phase_velocity(p.phase_velocity, V_P) == pytest.approx(
        2.1432502781e6, rel=1e-9
    )
    assert modified_group_velocity(p.group_velocity, V_P) == pytest.approx(
        4.2169771906e6, rel=1e-9
    )


def test_velocity_harmonic_forms():
    v_ph, v_gr = 1.5e6, 3.0e6
    # 1 / v_ph.l = 1 / v_ph + 1 / v_P   and likewise for the group velocity.
    assert modified_phase_velocity(v_ph, V_P) == pytest.approx(
        1.0 / (1.0 / v_ph + 1.0 / V_P), rel=1e-15
    )
    assert modified_group_velocity(v_gr, V_P) == pytest.approx(
        1.0 / (1.0 / v_gr + 1.0 / V_P), rel=1e-15
    )


def test_velocities_at_infinite_front_speed():
    p = FreeParticle.electron_from_voltage(54.0)
    assert modified_phase_velocity(p.phase_velocity, math.inf) == p.phase_velocity
    assert modified_group_velocity(p.group_velocity, math.inf) == p.group_velocity


def test_infinite_classical_velocity_gives_front_speed():
    assert modified_phase_velocity(math.inf, V_P) == V_P
    assert modified_group_velocity(math.inf, V_P) == V_P


def test_group_velocity_matches_finite_difference():
    # v_gr.l = d nu / d k_l along the voltage axis at alpha = 0.
    def pair(voltage):
        p = FreeParticle.electron_from_voltage(voltage)
        return p.nu, modified_wavenumber_free(p, V_P)

    nu_lo, k_lo = pair(54.0 * (1.0 - 1e-6))
    nu_hi, k_hi = pair(54.0 * (1.0 + 1e-6))
    fd = (nu_hi - nu_lo) / (k_hi - k_lo)
    p = FreeParticle.electron_from_voltage(54.0)
    assert modified_group_velocity(p.group_velocity, V_P) == pytest.approx(fd, rel=1e-6)


def test_modified_group_below_both_inputs():
    out = modified_group_velocity(3.0e6, V_P)
    assert out < 3.0e6 and out < V_P


@given(v=st.floats(min_value=5e-324, allow_infinity=False),
       v_p=st.floats(min_value=5e-324, allow_infinity=False))
def test_composed_velocity_lies_between_half_and_all_of_the_slower_input(v, v_p):
    # v * v_P / (v + v_P) overflowed once v * v_P passed the float range.
    for compose in (modified_phase_velocity, modified_group_velocity):
        assert min(v, v_p) / 2.0 <= compose(v, v_p) <= min(v, v_p)


def test_composition_at_the_largest_front_speed_is_classical():
    p = FreeParticle.electron_from_voltage(54.0)
    assert modified_phase_velocity(p.phase_velocity, 1.7e308) == p.phase_velocity
    assert modified_group_velocity(p.group_velocity, 1.7e308) == p.group_velocity


def test_modified_wavenumber_that_overflows_is_rejected():
    p = FreeParticle.electron_from_voltage(54.0)
    with pytest.raises(ValueError, match="k_l overflows at speed .* and v_P = 1e-300 m/s"):
        modified_wavenumber_free(p, 1e-300)


def test_velocity_validation():
    with pytest.raises(ValueError, match="v_ph"):
        modified_phase_velocity(0.0, V_P)
    with pytest.raises(ValueError, match="v_gr"):
        modified_group_velocity(-1.0, V_P)
    with pytest.raises(ValueError, match="v_P"):
        modified_phase_velocity(1.0, 0.0)


# --- wavelength regime classifier ----------------------------------------------

def test_regime_alpha_zero_is_shorter():
    p = FreeParticle.electron_from_voltage(54.0)
    assert wavelength_regime(decomp(p.nu, p.k, 0.0, V_P)) is WavelengthRegime.SHORTER


def test_regime_threshold_and_sides():
    nu, k, v_p = 5.0, 10.0, 1.0  # s = 5, threshold cos(alpha) = -0.25
    threshold = math.acos(-nu / (v_p * 2.0 * k))
    assert wavelength_regime(decomp(nu, k, threshold, v_p)) is WavelengthRegime.EQUAL
    assert (
        wavelength_regime(decomp(nu, k, threshold - 1e-5, v_p))
        is WavelengthRegime.SHORTER
    )
    assert (
        wavelength_regime(decomp(nu, k, threshold + 1e-5, v_p))
        is WavelengthRegime.LONGER
    )
    k_at = modified_wavenumber_general(decomp(nu, k, threshold, v_p))
    assert k_at == pytest.approx(k, rel=1e-12)


def test_regime_zero_shift_is_equal():
    assert wavelength_regime(decomp(5.0, 10.0, 1.0, math.inf)) is WavelengthRegime.EQUAL
    assert wavelength_regime(decomp(0.0, 10.0, 1.0, V_P)) is WavelengthRegime.EQUAL


def test_regime_large_shift_always_shorter():
    # s >= 2k means no alpha can bring k_l below k.
    assert (
        wavelength_regime(decomp(30.0, 10.0, math.pi, 1.0)) is WavelengthRegime.SHORTER
    )


def test_regime_rejects_zero_classical_wavenumber():
    with pytest.raises(ValueError, match="k_classical"):
        wavelength_regime(decomp(5.0, 0.0, 1.0, V_P))


def test_general_wavenumber_at_rest():
    # k = 0 still has a well-defined modified wavenumber nu / v_P.
    assert modified_wavenumber_general(decomp(5.0, 0.0, 1.2, 2.0)) == pytest.approx(2.5)


@given(
    nu=st.floats(1e-3, 1e3),
    k=st.floats(1e-3, 1e3),
    alpha=st.floats(0.0, math.pi),
    v_p=st.floats(1e-3, 1e3),
)
def test_regime_matches_wavenumber_sign_property(nu, k, alpha, v_p):
    regime = wavelength_regime(decomp(nu, k, alpha, v_p))
    k_l = modified_wavenumber_general(decomp(nu, k, alpha, v_p))
    rel = (k_l - k) / k
    if regime is WavelengthRegime.SHORTER:
        assert rel > -1e-9
    elif regime is WavelengthRegime.LONGER:
        assert rel < 1e-9
    else:
        assert abs(rel) < 1e-6


# --- decomposition container -------------------------------------------------------

def test_decomposition_autofill_and_roundtrip():
    p = FreeParticle.electron_from_voltage(54.0)
    d = WavePhaseDecomposition(p.nu, p.k, 0.0, V_P)
    assert d.k_modified == pytest.approx(6.092215e9, rel=1e-6)


def test_wavelength_involution():
    # Reconstructing the classical wavevector from the modified one
    # recovers k, so the composition law is information-preserving.
    nu, k, alpha, v_p = 7.0, 11.0, 2.0, 3.0
    s = nu / v_p
    k_l = modified_wavenumber_general(decomp(nu, k, alpha, v_p))
    kx = k * math.cos(alpha) + s
    ky = k * math.sin(alpha)
    assert math.hypot(kx - s, ky) == pytest.approx(k, rel=1e-15)
    assert math.hypot(kx, ky) == pytest.approx(k_l, rel=1e-15)
