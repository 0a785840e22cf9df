"""Tests for the proximity estimate, exponent fitting, and orbit census."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from coaxcasimir import (
    PROXIMITY_COEFF,
    effective_area,
    enumerate_orbits,
    fit_p,
    interaction_energy,
    parallel_plate_energy_density,
    pressure_inner,
    proximity_energy,
    proximity_energy_derivative,
    proximity_pressure,
    semiclassical_energy,
)

# regression pins: the library's own first validated fit results over
# ratios {1.5, 2.0, 2.5, 3.0}; guard against silent drift, not oracles
FIT_GRID = [1.5, 2.0, 2.5, 3.0]
BEST_EXPONENT_ENERGY = 0.6370657423223163
BEST_EXPONENT_PRESSURE = 0.5853601991436854

ratios = st.floats(min_value=1.1, max_value=6.0)
exponents = st.floats(min_value=0.0, max_value=1.0)


def test_proximity_energy_closed_form_values():
    assert proximity_energy(4.0, 0.5) == pytest.approx(
        -PROXIMITY_COEFF * 2.0 / 27.0, rel=1e-15
    )
    assert proximity_energy(1.5, 1.0) == pytest.approx(
        -PROXIMITY_COEFF * 8.0, rel=1e-15
    )
    assert proximity_energy(1.5, 1.0) == pytest.approx(-0.6890283711, rel=1e-9)
    assert proximity_energy(2.0, 0.0) == pytest.approx(
        -PROXIMITY_COEFF * 2.0, rel=1e-15
    )


def test_parallel_plate_density_and_area_compose():
    """energy = density(gap) * area(p): the factored pieces must agree."""
    inner, outer, length = 2.0, 3.0, 5.0
    ratio = outer / inner
    expected = (
        parallel_plate_energy_density(outer - inner)
        * effective_area(inner, outer, length, 0.3)
        * inner**2
        / length
    )
    assert proximity_energy(ratio, 0.3) == pytest.approx(expected, rel=1e-12)


def test_parallel_plate_density_value():
    assert parallel_plate_energy_density(2.0) == pytest.approx(
        -math.pi**2 / (720.0 * 8.0), rel=1e-15
    )


@given(ratio=ratios, exponent=exponents)
def test_proximity_derivative_matches_finite_difference(ratio, exponent):
    h = 1e-6 * ratio
    fd = (
        proximity_energy(ratio + h, exponent)
        - proximity_energy(ratio - h, exponent)
    ) / (2.0 * h)
    assert proximity_energy_derivative(ratio, exponent) == pytest.approx(
        fd, rel=1e-6
    )


@given(ratio=ratios, exponent=exponents)
def test_proximity_pressure_consistent_with_energy_derivative(ratio, exponent):
    direct = proximity_pressure(ratio, exponent)
    composed = 2.0 * proximity_energy(ratio, exponent) \
        + ratio * proximity_energy_derivative(ratio, exponent)
    assert direct == pytest.approx(composed, rel=1e-12)


@given(ratio=ratios)
def test_proximity_magnitude_decreases_with_exponent(ratio):
    """alpha^(1-p) shrinks in p for alpha > 1."""
    values = [abs(proximity_energy(ratio, p)) for p in (0.0, 0.25, 0.5, 1.0)]
    assert values == sorted(values, reverse=True)


def test_semiclassical_equals_geometric_mean_proximity():
    for ratio in (1.1, 1.7, 3.0):
        assert semiclassical_energy(ratio) == proximity_energy(ratio, 0.5)


@given(ratio=st.floats(min_value=1.3, max_value=4.0))
@settings(max_examples=10)
def test_exact_energy_lies_between_extreme_area_choices(ratio):
    exact = interaction_energy(ratio).value
    assert abs(proximity_energy(ratio, 1.0)) <= abs(exact)
    assert abs(exact) <= abs(proximity_energy(ratio, 0.0))


def test_fit_recovers_synthetic_exponent():
    grid = [1.4, 1.8, 2.2, 2.6, 3.0]
    synthetic = [proximity_energy(r, 0.7) for r in grid]
    fit = fit_p(grid, synthetic, mode="energy")
    assert fit.best_exponent == pytest.approx(0.7, abs=1e-3)
    assert fit.unimodal
    assert not fit.flat
    assert fit.objective < 1e-12


def test_fit_flags_flat_objective_near_contact():
    """At one near-contact point every exponent fits equally well."""
    fit = fit_p([1.01], [interaction_energy(1.01).value], mode="energy")
    assert fit.flat


def test_fit_regression_energy_mode():
    exact = [interaction_energy(r).value for r in FIT_GRID]
    fit = fit_p(FIT_GRID, exact, mode="energy")
    assert fit.best_exponent == pytest.approx(BEST_EXPONENT_ENERGY, abs=1e-3)
    assert fit.unimodal
    assert not fit.flat


def test_fit_regression_pressure_mode():
    exact = [pressure_inner(r).value for r in FIT_GRID]
    fit = fit_p(FIT_GRID, exact, mode="pressure")
    assert fit.best_exponent == pytest.approx(
        BEST_EXPONENT_PRESSURE, abs=1e-3
    )
    assert fit.unimodal
    assert not fit.flat


def test_fit_reports_matching_grids():
    fit = fit_p([1.5, 2.0], [proximity_energy(r, 0.5) for r in (1.5, 2.0)])
    assert len(fit.exponent_grid) == len(fit.objective_grid)
    assert min(fit.objective_grid) >= 0.0
    assert fit.objective == pytest.approx(min(fit.objective_grid), abs=1e-12)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_p([], [])
    with pytest.raises(ValueError):
        fit_p([1.5, 2.0], [1.0])
    with pytest.raises(ValueError):
        fit_p([0.9], [1.0])
    with pytest.raises(ValueError):
        fit_p([1.5], [-0.8], mode="frequency")


def test_orbit_census_at_ratio_two():
    orbits = enumerate_orbits(2.0, 6.0)
    by_key = {
        (o.kind, o.bounces, o.windings, o.repeats): o for o in orbits
    }
    diameter = by_key[("polygon", 2, 1, 1)]
    assert diameter.length == pytest.approx(4.0, rel=1e-15)
    assert not diameter.admissible  # it would pierce the inner cylinder

    square = by_key[("polygon", 4, 1, 1)]
    assert square.length == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-15)
    assert square.admissible  # cos(pi/4) >= 1/2

    radial = by_key[("radial", 1, 0, 1)]
    assert radial.length == pytest.approx(1.0, rel=1e-15)
    assert radial.admissible

    assert ("polygon", 4, 2, 1) not in by_key  # reducible label
    lengths = [o.length for o in orbits]
    assert lengths == sorted(lengths)


def test_orbit_square_admissibility_threshold():
    below = enumerate_orbits(1.41, 6.0)
    above = enumerate_orbits(1.42, 6.0)
    pick = lambda orbits: next(  # noqa: E731
        o for o in orbits if o.kind == "polygon" and o.bounces == 4
    )
    assert not pick(below).admissible
    assert pick(above).admissible


def test_orbit_cap_below_shortest_path_yields_nothing():
    assert enumerate_orbits(2.0, 0.1) == []


def test_orbit_bounce_ceiling_is_respected():
    orbits = enumerate_orbits(2.0, 50.0, max_bounces=6)
    assert max(o.bounces for o in orbits) <= 6


def test_orbit_radial_repeats_fill_the_cap():
    orbits = enumerate_orbits(2.0, 3.5)
    repeats = sorted(
        o.repeats for o in orbits if o.kind == "radial"
    )
    assert repeats == [1, 2, 3]  # lengths 1, 2, 3 all under the cap


@pytest.mark.parametrize("ratio, cap, max_bounces", [
    (1.0000001, 20.0, 64),   # about 1e8 radial lengths under the cap
    (2.0, 1e9, 64),
    (2.0, 1e9, 8),
])
def test_orbit_radial_repeats_stop_at_the_bounce_ceiling(ratio, cap,
                                                         max_bounces):
    """Radial repeats under a long cap end at ``max_bounces``, as the
    polygons do, so the enumeration finishes."""
    orbits = enumerate_orbits(ratio, cap, max_bounces=max_bounces)
    repeats = [o.repeats for o in orbits if o.kind == "radial"]
    assert sorted(repeats) == list(range(1, max_bounces + 1))


@given(
    bounces=st.integers(min_value=2, max_value=12),
    low=st.floats(min_value=1.05, max_value=3.0),
    high=st.floats(min_value=3.001, max_value=8.0),
)
def test_orbit_admissibility_is_monotone_in_ratio(bounces, low, high):
    """Widening the annulus never forbids a previously allowed path."""
    cap = 2.0 * bounces + 1.0
    narrow = {
        (o.bounces, o.windings): o.admissible
        for o in enumerate_orbits(low, cap, max_bounces=bounces)
        if o.kind == "polygon"
    }
    wide = {
        (o.bounces, o.windings): o.admissible
        for o in enumerate_orbits(high, cap, max_bounces=bounces)
        if o.kind == "polygon"
    }
    for key, was_admissible in narrow.items():
        if was_admissible:
            assert wide[key]


def test_orbit_validation():
    with pytest.raises(ValueError):
        enumerate_orbits(1.0, 5.0)
    with pytest.raises(ValueError):
        enumerate_orbits(2.0, 0.0)
    with pytest.raises(ValueError):
        enumerate_orbits(2.0, 5.0, max_bounces=1)


def test_orbit_cap_must_be_finite():
    """An infinite cap would list radial repeats without end."""
    with pytest.raises(ValueError, match="finite"):
        enumerate_orbits(2.0, math.inf)


@pytest.mark.parametrize("bad", [1.0, 0.3, math.nan])
def test_proximity_domain_errors(bad):
    with pytest.raises(ValueError):
        proximity_energy(bad)
    with pytest.raises(ValueError):
        proximity_pressure(bad)


def test_exponent_domain_errors():
    with pytest.raises(ValueError):
        proximity_energy(2.0, -0.1)
    with pytest.raises(ValueError):
        proximity_energy(2.0, 1.1)
    with pytest.raises(ValueError):
        parallel_plate_energy_density(0.0)
