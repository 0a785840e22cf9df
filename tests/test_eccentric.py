"""Tests for the offset-axis energy, force, and frequency shift.

The two frozen theta-integrals were generated by ``tests/oracles.py``
(mpmath tanh-sinh quadrature of the same integrands at 30 digits).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coaxcasimir import (
    HBAR_C,
    ConcentricGeometry,
    EccentricGeometry,
    QuadratureSpec,
    ResonatorParams,
    eccentric_energy,
    eccentric_force_closed_form,
    eccentric_force_numeric,
    force_scale,
    frequency_shift,
    gap_radius,
    proximity_energy,
)
from coaxcasimir.eccentric import _energy_integral, _force_integral

# oracle pins: theta integrals at inner=1, outer=1.1, offset=0.05
ENERGY_INTEGRAL_PIN = 15217.34442651802990545
FORCE_INTEGRAL_PIN = 574849.9380307246793228

BASE = ConcentricGeometry(1.0, 1.1, 1.0)
SPEC = QuadratureSpec()


def test_energy_integral_matches_oracle():
    result = _energy_integral(1.0, 1.1, 0.05, SPEC)
    assert result.converged
    assert result.value == pytest.approx(ENERGY_INTEGRAL_PIN, rel=1e-10)


def test_force_integral_matches_oracle():
    result = _force_integral(1.0, 1.1, 0.05, SPEC)
    assert result.converged
    assert result.value == pytest.approx(FORCE_INTEGRAL_PIN, rel=1e-10)


def test_energy_carries_proximity_prefactor():
    geom = EccentricGeometry(BASE, 0.05)
    expected = -math.pi**2 * HBAR_C * 1.0 / 720.0 * ENERGY_INTEGRAL_PIN
    assert eccentric_energy(geom) == pytest.approx(expected, rel=1e-10)


def test_force_carries_positive_prefactor():
    geom = EccentricGeometry(BASE, 0.05)
    expected = math.pi**2 * HBAR_C * 1.0 / 720.0 * FORCE_INTEGRAL_PIN
    assert eccentric_force_numeric(geom).value == pytest.approx(
        expected, rel=1e-10)
    assert eccentric_force_numeric(geom).value > 0.0  # pushes the axes apart


def test_zero_offset_force_is_exactly_zero():
    assert eccentric_force_numeric(EccentricGeometry(BASE, 0.0)).value == 0.0
    assert eccentric_force_closed_form(EccentricGeometry(BASE, 0.0)) == 0.0


def test_concentric_energy_matches_geometric_mean_proximity():
    """At zero offset the theta integral collapses to the ring formula."""
    geom = EccentricGeometry(BASE, 0.0)
    reduced = proximity_energy(BASE.ratio, 0.5)
    expected = reduced * HBAR_C * BASE.length / BASE.inner_radius**2
    assert eccentric_energy(geom) == pytest.approx(expected, rel=1e-9)


def test_integrals_have_definite_parity_in_offset():
    """Energy is even, force odd, under reflecting the offset."""
    for offset in (0.02, 0.05, 0.08):
        e_pos = _energy_integral(1.0, 1.1, offset, SPEC)
        e_neg = _energy_integral(1.0, 1.1, -offset, SPEC)
        f_pos = _force_integral(1.0, 1.1, offset, SPEC)
        f_neg = _force_integral(1.0, 1.1, -offset, SPEC)
        assert e_neg.value == pytest.approx(e_pos.value, rel=1e-12)
        assert f_neg.value == pytest.approx(-f_pos.value, rel=1e-12)


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5])
def test_force_equals_minus_energy_gradient(fraction):
    base = ConcentricGeometry(1.0, 1.05, 1.0)
    gap = 0.05
    offset = fraction * gap
    h = 1e-6 * gap
    de = (
        eccentric_energy(EccentricGeometry(base, offset + h))
        - eccentric_energy(EccentricGeometry(base, offset - h))
    ) / (2.0 * h)
    force = eccentric_force_numeric(EccentricGeometry(base, offset)).value
    assert force == pytest.approx(-de, rel=1e-6)


def test_energy_deepens_with_offset():
    energies = [
        eccentric_energy(EccentricGeometry(BASE, f * 0.1))
        for f in (0.0, 0.2, 0.4, 0.6)
    ]
    assert all(e < 0.0 for e in energies)
    assert energies == sorted(energies, reverse=True)


def test_closed_form_ratio_at_half_offset():
    geom = EccentricGeometry(BASE, 0.05)
    expected = 0.53125 / 0.75**3.5
    assert eccentric_force_closed_form(geom) / force_scale(geom) \
        == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.4540673446257242, rel=1e-15)


def test_closed_form_small_offset_curvature():
    """(F/(F0 f) - 1)/f^2 -> 1/4 + 7/2 = 3.75 as f -> 0."""
    base = ConcentricGeometry(1.0, 1.01, 1.0)
    f = 0.01
    geom = EccentricGeometry(base, f * 0.01)
    ratio = eccentric_force_closed_form(geom) / (force_scale(geom) * f)
    assert (ratio - 1.0) / f**2 == pytest.approx(3.75, rel=1e-3)


def test_force_scale_formula():
    geom = EccentricGeometry(ConcentricGeometry(0.01, 0.010001, 0.05))
    expected = math.pi**3 * HBAR_C * 0.05 * 0.01 / (60.0 * (1e-6) ** 4)
    assert force_scale(geom) == pytest.approx(expected, rel=1e-12)


def test_frequency_shift_worked_example():
    geom = EccentricGeometry(ConcentricGeometry(0.01, 0.010001, 0.05))
    res = ResonatorParams(0.01, 2.0 * math.pi * 100.0)
    assert frequency_shift(geom, res) == pytest.approx(
        -0.0010346072161245782, rel=1e-12
    )


@given(
    mass=st.floats(min_value=1e-3, max_value=10.0),
    freq=st.floats(min_value=10.0, max_value=1e4),
)
def test_frequency_shift_is_negative(mass, freq):
    geom = EccentricGeometry(ConcentricGeometry(0.01, 0.0101, 0.05))
    shift = frequency_shift(geom, ResonatorParams(mass, freq))
    assert shift < 0.0


def test_frequency_shift_warns_when_large():
    geom = EccentricGeometry(ConcentricGeometry(0.01, 0.010001, 0.05))
    res = ResonatorParams(1e-5, 2.0 * math.pi * 10.0)
    with pytest.warns(UserWarning, match="frequency shift"):
        frequency_shift(geom, res)


def test_gap_radius_geometry():
    assert gap_radius(math.pi / 2.0, 2.0, 0.3) == pytest.approx(2.3, rel=1e-15)
    assert gap_radius(-math.pi / 2.0, 2.0, 0.3) == pytest.approx(
        1.7, rel=1e-15
    )
    assert gap_radius(1.234, 2.0, 0.0) == pytest.approx(2.0, rel=1e-15)
    theta = np.linspace(0.0, 2.0 * math.pi, 17)
    radii = gap_radius(theta, 2.0, 0.3)
    assert radii.shape == theta.shape
    assert np.all((radii >= 1.7 - 1e-12) & (radii <= 2.3 + 1e-12))
    with pytest.raises(ValueError):
        gap_radius(0.0, 2.0, 2.5)


def test_geometry_validation_and_warnings():
    with pytest.raises(ValueError):
        EccentricGeometry(BASE, 0.11)  # exceeds the gap: contact
    with pytest.raises(ValueError):
        EccentricGeometry(BASE, -0.01)
    with pytest.warns(UserWarning, match="ratio above 2"):
        EccentricGeometry(ConcentricGeometry(1.0, 2.5, 1.0), 0.1)
    assert EccentricGeometry(BASE, 0.05).offset_fraction == pytest.approx(
        0.5, rel=1e-12
    )


def test_near_contact_warning():
    geom = EccentricGeometry(BASE, 0.09995)
    with pytest.warns(UserWarning, match="contact"):
        eccentric_force_numeric(geom)


def test_resonator_validation():
    with pytest.raises(ValueError):
        ResonatorParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ResonatorParams(1.0, -5.0)


@given(fraction=st.floats(min_value=0.01, max_value=0.9))
@settings(max_examples=20)
def test_numeric_force_positive_for_any_offset(fraction):
    geom = EccentricGeometry(ConcentricGeometry(1.0, 1.05, 1.0),
                             fraction * 0.05)
    assert eccentric_force_numeric(geom).value > 0.0
