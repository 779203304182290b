import math

import pytest

from qfront.constants import CODATA2018, PhysicalConstants, natural_units


def test_codata_2018_values():
    # h, e and c are exact by SI definition; m_e is the recommended value.
    assert CODATA2018.h == 6.62607015e-34
    assert CODATA2018.e_charge == 1.602176634e-19
    assert CODATA2018.c_light == 2.99792458e8
    assert CODATA2018.m_e == 9.1093837015e-31
    assert CODATA2018.hbar == CODATA2018.h / (2.0 * math.pi)


@pytest.mark.parametrize("field", ["h", "m_e", "e_charge", "c_light"])
def test_positivity_enforced(field):
    kwargs = dict(h=1.0, m_e=1.0, e_charge=1.0, c_light=1.0)
    kwargs[field] = -1.0
    with pytest.raises(ValueError, match=field):
        PhysicalConstants(**kwargs)


def test_natural_units():
    nat = natural_units()
    assert nat.hbar == 1.0
    assert nat.h == 2.0 * math.pi
    assert nat.m_e == nat.e_charge == nat.c_light == 1.0


def test_frozen():
    with pytest.raises(Exception):
        CODATA2018.h = 1.0
