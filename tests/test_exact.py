"""Tests for the exact mode-sum energy and pressure.

All frozen expected values were produced by ``tests/oracles.py``
(mpmath, 30 digits, independent algorithms).  The reduced-energy pins
took the ``--slow`` path of that script.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coaxcasimir import exact
from coaxcasimir import (
    DEFAULT_NUMERICS,
    HBAR_C,
    ORACLE_NUMERICS,
    SELF_ENERGY_COEFF,
    ConcentricGeometry,
    NumericsConfig,
    QuadratureSpec,
    casimir_energy,
    interaction_energy,
    interaction_energy_double_integral,
    interaction_energy_si,
    integrate_semi_infinite,
    log_mode_factor,
    log_mode_factor_dalpha,
    pressure_inner,
    pressure_inner_si,
    reflection_ratio_logs,
    reflection_ratio_logs_dalpha,
)

# oracle pins: reduced interaction energy at four radius ratios
ENERGY_AT_1_5 = -0.8190559235866962
ENERGY_AT_2 = -0.1124314966388046
ENERGY_AT_4 = -0.005096523726841223
ENERGY_AT_50 = -5.246387591961136e-6
# oracle pins: reduced pressure on the inner cylinder
PRESSURE_AT_2 = 0.416106818495
PRESSURE_AT_4 = 0.008561170521398551
# oracle pins: single mode-factor logs
LOG_MODE_0_1_2 = -0.248975183921648380683
LOG_MODE_3_25_13 = -0.240073285367943288479
# oracle pins: alpha-derivatives of mode-factor logs, (n, y, alpha) -> value
LOG_MODE_DALPHA = {
    (0, 0.5, 2.0): 0.8733770425596390274199,
    (1, 3.0, 1.5): 0.563714838367344894892,
    (40, 20.0, 1.2): 9.229081158519675440679e-6,
    (41, 20.0, 1.2): 6.821316088902891739354e-6,
    (200, 150.0, 1.1): 8.015171968649209347548e-19,
}


@pytest.mark.parametrize(
    "ratio,expected,rel",
    [
        (1.5, ENERGY_AT_1_5, 1e-9),
        (2.0, ENERGY_AT_2, 1e-9),
        (4.0, ENERGY_AT_4, 1e-9),
        (50.0, ENERGY_AT_50, 1e-9),
    ],
)
def test_interaction_energy_matches_oracle(ratio, expected, rel):
    result = interaction_energy(ratio)
    assert result.converged
    assert result.value == pytest.approx(expected, rel=rel)


@pytest.mark.parametrize(
    "ratio,expected",
    [(1.5, ENERGY_AT_1_5), (2.0, ENERGY_AT_2), (4.0, ENERGY_AT_4),
     (50.0, ENERGY_AT_50)],
)
def test_energy_error_covers_distance_to_oracle(ratio, expected):
    """The reported error bound holds against the 30-digit pin."""
    result = interaction_energy(ratio)
    assert abs(result.value - expected) <= result.error


def test_double_route_error_covers_distance_to_oracle():
    result = interaction_energy_double_integral(2.0)
    assert result.converged
    assert abs(result.value - ENERGY_AT_2) <= result.error


@pytest.mark.parametrize(
    "ratio,expected,rel",
    [(2.0, PRESSURE_AT_2, 5e-6), (4.0, PRESSURE_AT_4, 1e-6)],
)
def test_pressure_matches_oracle(ratio, expected, rel):
    result = pressure_inner(ratio)
    assert result.converged
    assert math.isfinite(result.error)
    assert result.error < 1e-6 * abs(result.value)
    assert result.value == pytest.approx(expected, rel=rel)


@pytest.mark.parametrize("key", sorted(LOG_MODE_DALPHA))
def test_log_mode_factor_dalpha_matches_oracle(key):
    """Both Bessel regimes: orders up to 40 via SciPy, above via Debye."""
    n, y, ratio = key
    assert log_mode_factor_dalpha(n, y, ratio) == pytest.approx(
        LOG_MODE_DALPHA[key], rel=1e-10
    )


@pytest.mark.parametrize("ratio", [1.5, 2.0, 4.0])
def test_energy_derivative_matches_finite_differences(ratio):
    """The closed-form e' sum against a Richardson pair of central
    differences of the energy (steps h and h/2)."""
    h = 1e-4

    def central(step):
        up = interaction_energy(ratio + step).value
        down = interaction_energy(ratio - step).value
        return (up - down) / (2.0 * step)

    richardson = (4.0 * central(0.5 * h) - central(h)) / 3.0
    assert pressure_inner(ratio).derivative_result.value == pytest.approx(
        richardson, rel=1e-8
    )


def test_pressure_reuses_the_energy_sum():
    assert pressure_inner(2.0).energy_result == interaction_energy(2.0)


def test_log_mode_factor_matches_oracle():
    assert log_mode_factor(0, 1.0, 2.0) == pytest.approx(
        LOG_MODE_0_1_2, rel=1e-13
    )
    assert log_mode_factor(3, 2.5, 1.3) == pytest.approx(
        LOG_MODE_3_25_13, rel=1e-13
    )


def test_log_mode_factor_vectorizes():
    y = np.array([0.5, 1.0, 2.0, 8.0])
    out = log_mode_factor(2, y, 1.8)
    assert out.shape == y.shape
    assert out[1] == log_mode_factor(2, 1.0, 1.8)
    assert np.all(out < 0.0)


@pytest.mark.parametrize("function", [
    log_mode_factor, log_mode_factor_dalpha,
    reflection_ratio_logs, reflection_ratio_logs_dalpha,
])
@pytest.mark.parametrize("container", [list, tuple])
def test_sequence_argument_equals_its_array(function, container):
    """A list or tuple y gives, bit for bit, the result for its array."""
    y = [1.0, 2.0, 45.0]
    got = function(2, container(y), 1.5)
    expected = function(2, np.asarray(y), 1.5)
    if not isinstance(expected, tuple):
        got, expected = (got,), (expected,)
    assert len(got) == len(expected)
    for value, want in zip(got, expected):
        assert isinstance(value, np.ndarray) and value.shape == (3,)
        np.testing.assert_array_equal(value, want)


def test_log_mode_factor_finite_at_extremes():
    assert math.isfinite(log_mode_factor(0, 1e-8, 2.0))
    assert log_mode_factor(0, 1e-8, 2.0) < 0.0
    assert log_mode_factor(0, 200.0, 2.0) < 0.0
    assert log_mode_factor(150, 1.0, 2.0) < 0.0


def test_double_integral_route_agrees():
    """Two independent formulations of the same energy, one ratio."""
    reduced = interaction_energy(3.0, ORACLE_NUMERICS)
    double = interaction_energy_double_integral(3.0, ORACLE_NUMERICS)
    assert reduced.converged and double.converged
    assert double.value == pytest.approx(reduced.value, rel=1e-6)


@pytest.mark.parametrize("n", [0, 1, 14, 40, 41])
def test_mode_factor_dy_one_call_equals_two_calls(n):
    """Both stencil points in one kernel call give each point's value."""
    y = np.geomspace(1e-2, 300.0, 97)
    h = np.minimum(1e-5 * (1.0 + y), 0.5 * y)
    two_calls = (log_mode_factor(n, y + h, 2.0)
                 - log_mode_factor(n, y - h, 2.0)) / (2.0 * h)
    np.testing.assert_array_equal(exact._mode_factor_dy(n, y, 2.0), two_calls)


def test_per_order_contributions_sum_to_value():
    result = interaction_energy(2.0)
    total = math.fsum(contribution for _, contribution in result.per_order)
    assert total == pytest.approx(result.value, rel=1e-12)
    orders = [n for n, _ in result.per_order]
    assert orders == list(range(len(orders)))


@given(ratio=st.floats(min_value=1.3, max_value=10.0))
@settings(max_examples=15)
def test_per_order_contributions_negative_and_shrinking(ratio):
    result = interaction_energy(ratio)
    values = [contribution for _, contribution in result.per_order]
    assert all(v < 0.0 for v in values)
    magnitudes = [abs(v) for v in values]
    # the doubled n>=1 terms may top the n=0 term; beyond that the
    # angular spectrum decays monotonically
    assert all(
        later <= earlier * (1.0 + 1e-12)
        for earlier, later in zip(magnitudes[1:], magnitudes[2:])
    )


@given(ratio=st.floats(min_value=1.015, max_value=1.1))
@settings(max_examples=8, deadline=None)
def test_narrow_gap_limit_approaches_parallel_plates(ratio):
    """e(alpha) (alpha-1)^3 / (-pi^3/360) -> 1 as the gap closes."""
    result = interaction_energy(ratio)
    scaled = result.value * (ratio - 1.0) ** 3 / (-math.pi**3 / 360.0)
    assert 0.9 < scaled < 1.1


def test_casimir_energy_is_interaction_plus_self_terms():
    ratio = 2.0
    expected = interaction_energy(ratio).value - SELF_ENERGY_COEFF * (
        1.0 + ratio**-2
    )
    assert casimir_energy(ratio) == expected


def test_si_conversions_scale_correctly():
    ratio = 2.0
    hat_e = interaction_energy(ratio).value
    hat_p = pressure_inner(ratio).value
    geom = ConcentricGeometry(0.003, 0.006, 0.25)
    assert interaction_energy_si(geom) == pytest.approx(
        hat_e * HBAR_C * 0.25 / 0.003**2, rel=1e-12
    )
    assert pressure_inner_si(geom) == pytest.approx(
        hat_p * HBAR_C / (2.0 * math.pi * 0.003**4), rel=1e-12
    )
    # the reduced value depends on the ratio alone
    assert interaction_energy(geom.ratio).value == hat_e


@pytest.mark.parametrize("factor, mode_sum", [
    (log_mode_factor, interaction_energy),
    (log_mode_factor_dalpha, lambda r: pressure_inner(r).derivative_result),
])
def test_order_blocks_equal_one_order_integrals(factor, mode_sum):
    """Each order of a block is, bit for bit, its own integral.

    n = 700 at alpha = 1.01 lies inside a block wider than 16.
    """
    for ratio, orders in ((1.1, (0, 1, 40, 41, 126)), (1.01, (700,))):
        per_order = dict(mode_sum(ratio).per_order)
        tail_cut = 1.0 / (ratio - 1.0)
        for n in orders:
            alone = integrate_semi_infinite(
                lambda y: y * factor(n, y, ratio), DEFAULT_NUMERICS.quad,
                tail_cut=tail_cut)
            weight = 1.0 if n == 0 else 2.0
            assert per_order[n] == weight * (alone.value
                                             * (1.0 / (4.0 * math.pi)))


@pytest.mark.parametrize("order_cap", [2, 16, 17, 144, 145, 1079, 2000])
def test_order_block_schedule(order_cap):
    """Blocks tile the orders 1..order_cap: 16 wide through order 144,
    never wider than 64, and never past the cap."""
    blocks = list(exact._order_blocks(order_cap))
    np.testing.assert_array_equal(np.concatenate(blocks),
                                  np.arange(1, order_cap + 1))
    for block in blocks:
        assert len(block) <= 64
        if block[-1] <= 144 and block[-1] < order_cap:
            assert len(block) == 16
    # near contact the blocks do widen, up to the cap of 64
    assert order_cap < 1000 or max(map(len, blocks)) == 64


def test_near_contact_sum_counts_only_the_orders_it_uses():
    result = interaction_energy(1.01)
    assert result.order_max == 1079
    assert result.evaluations == 230_370


def test_order_cap_bounds_every_block(monkeypatch):
    seen = []

    def recording(n, y, ratio):
        seen.append(int(np.max(n)))
        return log_mode_factor(n, y, ratio)

    monkeypatch.setattr(exact, "log_mode_factor", recording)
    result = interaction_energy(1.1, NumericsConfig(order_cap=5))
    assert result.order_max == 5
    assert result.order_capped
    assert max(seen) == 5


@pytest.mark.parametrize("ratio", [2.0, 1.1])
def test_pressure_sums_are_one_order_integrals_at_every_order(ratio):
    """Run as one, each of the pressure's sums still holds, bit for bit,
    its own one-order integrals, and stops where its own rule fires.

    At both ratios the two sums stop at different orders, so one of them
    drops out of the shared blocks before the other.
    """
    result = pressure_inner(ratio)
    tail_cut = 1.0 / (ratio - 1.0)
    sums = ((log_mode_factor, result.energy_result),
            (log_mode_factor_dalpha, result.derivative_result))
    for factor, one_sum in sums:
        total, streak, fired = 0.0, 0, []
        for n, contribution in one_sum.per_order:
            alone = integrate_semi_infinite(
                lambda y: y * factor(n, y, ratio), DEFAULT_NUMERICS.quad,
                tail_cut=tail_cut)
            weight = 1.0 if n == 0 else 2.0
            assert contribution == weight * (alone.value
                                             * (1.0 / (4.0 * math.pi)))
            total += contribution
            small = abs(contribution) < DEFAULT_NUMERICS.order_tol * abs(total)
            streak = streak + 1 if n >= 1 and small else 0
            if streak >= 2:
                fired.append(n)
        assert fired[0] == one_sum.order_max
        assert not one_sum.order_capped
    assert (result.energy_result.order_max
            != result.derivative_result.order_max)


def _recording_kernel(monkeypatch):
    """Record the (orders, abscissae) each call of the pressure's kernel
    receives."""
    seen = []

    def recording(n, y, ratio):
        seen.append((np.array(n), np.array(y)))
        return reflection_ratio_logs_dalpha(n, y, ratio)

    monkeypatch.setattr(exact, "reflection_ratio_logs_dalpha", recording)
    return seen


def test_pressure_hands_the_kernel_each_shared_abscissa_once(monkeypatch):
    """Both sums' abscissae reach the Bessel kernel through one call per
    round, which holds each (order, y) pair once."""
    seen = _recording_kernel(monkeypatch)
    energy_only = []
    monkeypatch.setattr(exact, "reflection_ratio_logs",
                        lambda *args: energy_only.append(args))
    result = pressure_inner(2.0)
    assert not energy_only
    for n, y in seen:
        assert len(set(zip(n.tolist(), y.tolist()))) == len(y)
    points = sum(len(y) for _, y in seen)
    assert points < (result.energy_result.evaluations
                     + result.derivative_result.evaluations)


def test_pressure_order_cap_bounds_every_block(monkeypatch):
    seen = _recording_kernel(monkeypatch)
    result = pressure_inner(1.1, NumericsConfig(order_cap=5))
    for one_sum in (result.energy_result, result.derivative_result):
        assert one_sum.order_max == 5
        assert one_sum.order_capped
    assert max(int(n.max()) for n, _ in seen) == 5


def test_energy_result_reports_capped_order_sum():
    """Near unity the capped sum is a flag on the result, not a warning."""
    cfg = NumericsConfig(order_cap=2, order_tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = interaction_energy(1.0005, cfg)
    assert result.order_capped
    assert not result.converged
    assert result.truncation_error > 0.0


def test_pressure_carries_energy_diagnostics():
    result = pressure_inner(2.0)
    energy = result.energy_result.value
    assert energy == pytest.approx(ENERGY_AT_2, rel=1e-9)
    assert result.value == pytest.approx(
        2.0 * energy + 2.0 * result.derivative_result.value, rel=1e-12
    )
    assert math.isfinite(result.error)
    assert result.error < 1e-6 * abs(result.value)


@pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
def test_ratio_domain_errors(bad):
    with pytest.raises(ValueError):
        interaction_energy(bad)
    with pytest.raises(ValueError):
        pressure_inner(bad)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ConcentricGeometry(2.0, 1.0)
    with pytest.raises(ValueError):
        ConcentricGeometry(0.0, 1.0)
    with pytest.raises(ValueError):
        ConcentricGeometry(1.0, 2.0, length=0.0)
    assert ConcentricGeometry(1.0, 3.0).ratio == 3.0


@pytest.mark.parametrize("dims", [(0.01, math.inf), (0.01, 0.0101, math.inf)])
def test_geometry_rejects_non_finite_dimensions(dims):
    with pytest.raises(ValueError, match="finite"):
        ConcentricGeometry(*dims)


def test_numerics_validation():
    with pytest.raises(ValueError):
        NumericsConfig(order_tol=0.0)
    with pytest.raises(ValueError):
        NumericsConfig(order_cap=1)
    with pytest.raises(ValueError):
        NumericsConfig(quad=QuadratureSpec(rel_tol=-1.0))


def test_energy_deterministic():
    assert interaction_energy(1.7) == interaction_energy(1.7)
