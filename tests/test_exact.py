"""Tests for the exact mode-sum energy and pressure.

All frozen expected values were produced by ``tests/oracles.py``
(mpmath, 30 digits, independent algorithms).  The reduced-energy pins
took the ``--slow`` path of that script.
"""

import ast
import math
import warnings
from pathlib import Path

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
    QuadratureResult,
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
    """Both Bessel regimes: the small-order kernel up to order 40, Debye
    above."""
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
    for ratio in (1.01, 1.1, 2.0, 4.0):
        assert (pressure_inner(ratio).energy_result
                == interaction_energy(ratio))


@pytest.mark.parametrize("ratio", [1.01, 1.1, 2.0, 4.0])
def test_energy_sum_run_twice_as_one_equals_the_lone_sum(ratio):
    """Two copies of the energy sum, whose n = 0 terms join the first
    block, each give, field for field, the lone sum's result, whose
    n = 0 is its own integral."""
    twice = exact._mode_sums(
        exact._energy_integrand(ratio),
        [exact._OrderSum(DEFAULT_NUMERICS) for _ in range(2)], ratio,
        DEFAULT_NUMERICS)
    alone = interaction_energy(ratio)
    assert twice == [alone, alone]


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
    """Each order of a block is, bit for bit, its own integral in u.

    n = 144 at alpha = 1.01 is the last order summed one by one before
    the sum's tail.
    """
    for ratio, orders in ((1.1, (0, 1, 40, 41, 126)), (1.01, (139, 144))):
        per_order = dict(mode_sum(ratio).per_order)
        tail_cut = 1.0 / (ratio - 1.0)
        for n in orders:
            alone = integrate_semi_infinite(
                exact._in_u(lambda y: y * factor(n, y, ratio), ratio),
                DEFAULT_NUMERICS.quad, tail_cut=tail_cut)
            weight = 1.0 if n == 0 else 2.0
            assert per_order[n] == weight * (alone.value
                                             * (1.0 / (4.0 * math.pi)))


def _head_blocks(calls, joined=False):
    """Each kernel call's block, by index, and the blocks: n = 0 alone is
    block 0 and the orders 1-16, ..., 129-144 blocks 1 to 9, or, with
    ``joined``, n = 0 opens the first block, 0-16, and 17-32, ...,
    129-144 follow as blocks 1 to 8.  None for a call whose orders lie
    in no one block."""
    blocks = [set(range(first, first + 16)) for first in range(1, 145, 16)]
    if joined:
        blocks[0].add(0)
    else:
        blocks.insert(0, {0})
    return blocks, [next((k for k, block in enumerate(blocks)
                          if set(n.tolist()) <= block), None)
                    for n in calls]


def _recording_energy_kernel(monkeypatch):
    """Record the orders each call of the energy's kernel receives: n = 0
    through ``exact.log_mode_factor``, the other integer orders through
    ``exact._ratio_logs`` (whose real orders, the tail's, are left out)."""
    seen = []
    ratio_logs = exact._ratio_logs

    def recording_factor(n, y, ratio):
        seen.append(np.full(np.shape(y), n))
        return log_mode_factor(n, y, ratio)

    def recording_logs(n, y, ratio):
        if n.dtype.kind == "i":
            seen.append(n)
        return ratio_logs(n, y, ratio)

    monkeypatch.setattr(exact, "log_mode_factor", recording_factor)
    monkeypatch.setattr(exact, "_ratio_logs", recording_logs)
    return seen


def _assert_head_schedule(calls, joined=False):
    """Integer orders reach the kernel in the blocks of
    :func:`_head_blocks`, one block after another, each first whole; no
    call mixes blocks and none goes past order 144."""
    assert all(n.dtype.kind == "i" for n in calls)
    assert max(int(n.max()) for n in calls) == 144
    blocks, index = _head_blocks(calls, joined)
    assert None not in index
    assert index == sorted(index)
    for k, block in enumerate(blocks):
        assert set(calls[index.index(k)].tolist()) == block


@pytest.mark.parametrize("order", [2, 16, 17, 144, 145, 1079, 2000])
def test_order_block_schedule(monkeypatch, order):
    """At alpha = 1.01 the energy's sum runs past order 144.  An order up
    to 144 first reaches the kernel in its whole 16-wide block (17 with
    17-32, 144 with 129-144); an order above 144 never does, and the
    tail finishes the sum."""
    calls = _recording_energy_kernel(monkeypatch)
    result = interaction_energy(1.01)
    assert result.tail is not None and result.converged
    assert len(result.per_order) == 145
    holding = [set(n.tolist()) for n in calls if order in n.tolist()]
    if order <= 144:
        first = 16 * ((order - 1) // 16) + 1
        assert holding[0] == set(range(first, first + 16))
        assert all(block <= holding[0] for block in holding)
    else:
        assert holding == []


def test_order_cap_bounds_every_block(monkeypatch):
    """The energy's integer orders end at 144, in fixed blocks; past it
    the tail, not the kernel's integer calls, finishes the sum."""
    calls = _recording_energy_kernel(monkeypatch)
    result = interaction_energy(1.01)
    assert result.order_max == 144
    assert not result.order_capped and result.tail is not None
    _assert_head_schedule(calls)


def test_pressure_order_cap_bounds_every_block(monkeypatch):
    """The pressure's integer orders reach its kernels in fixed blocks,
    n = 0 in the first, 0-16, then 17-32, ..., ending at 129-144; the
    tail's orders are real and lie above 144."""
    pressure_calls = _recording_kernel(monkeypatch)
    result = pressure_inner(1.01)
    for one_sum in (result.energy_result, result.derivative_result):
        assert one_sum.order_max == 144
        assert not one_sum.order_capped and one_sum.tail is not None
    tail_orders = [n for n, _ in pressure_calls if n.dtype.kind == "f"]
    assert tail_orders and min(n.min() for n in tail_orders) > 144
    pressure_head = [n for n, _ in pressure_calls if n.dtype.kind == "i"]
    assert len(pressure_head) + len(tail_orders) == len(pressure_calls)
    _assert_head_schedule(pressure_head, joined=True)


def _counting_single_integrals(monkeypatch):
    """Count the calls of ``exact.integrate_semi_infinite``."""
    calls = []
    single = exact.integrate_semi_infinite

    def counting(*args, **kwargs):
        calls.append(args)
        return single(*args, **kwargs)

    monkeypatch.setattr(exact, "integrate_semi_infinite", counting)
    return calls


@pytest.mark.parametrize("ratio", [1.01, 2.0])
def test_pressure_makes_no_single_integral(monkeypatch, ratio):
    """The pressure's two n = 0 integrals run in its first block."""
    calls = _counting_single_integrals(monkeypatch)
    pressure_inner(ratio)
    assert calls == []


def test_energy_makes_one_single_integral(monkeypatch):
    """The lone energy sum keeps its n = 0 as one
    ``exact.integrate_semi_infinite`` call of ``exact.log_mode_factor``,
    and no other order reaches that function: perfbench/tracer.py wraps
    both names, to time the quadrature and mode-factor layers of the
    near-contact energy, and expects both to be reached there."""
    calls = _counting_single_integrals(monkeypatch)
    orders = []
    factor = exact.log_mode_factor

    def recording(n, y, ratio):
        orders.append(np.array(n))
        return factor(n, y, ratio)

    monkeypatch.setattr(exact, "log_mode_factor", recording)
    interaction_energy(1.01)
    assert len(calls) == 1
    assert orders and all((n == 0).all() for n in orders)


def test_near_contact_sum_counts_only_the_orders_it_uses():
    """Orders 0-144 one by one, then the tail's radial integrals.  With
    the head's radial integrals in y this was 60,840."""
    result = interaction_energy(1.01)
    assert result.order_max == 144
    assert [n for n, _ in result.per_order] == list(range(145))
    assert result.tail is not None
    assert result.evaluations == 57_210


def test_pressure_rounds_at_two(monkeypatch):
    """The pressure's two sums at alpha = 2 take 10 lockstep rounds, one
    integrand call each.  In y, the energy's n = 0 integral bisected
    toward y = 0 for 7 more rounds."""
    rounds = []
    make = exact._pressure_integrand

    def counting(ratio):
        integrand = make(ratio)

        def count(y, n, sums):
            rounds.append(len(y))
            return integrand(y, n, sums)
        return count

    monkeypatch.setattr(exact, "_pressure_integrand", counting)
    assert pressure_inner(2.0).converged
    assert len(rounds) == 10


@pytest.mark.parametrize("ratio", [1.1, 2.0])
def test_head_integral_in_u_equals_integral_in_y(ratio):
    """The head's radial integrals, which the sums take in u with
    y = (alpha - 1) u**2, are the integrals over y of y ln M_n and
    y d ln M_n / d alpha, at orders on both sides of the kernels' seam.
    A tiny ``order_tol`` keeps the sums running past order 41 at 2."""
    cfg = NumericsConfig(order_tol=1e-30)
    pressure = pressure_inner(ratio, cfg)
    sums = ((log_mode_factor, pressure.energy_result),
            (log_mode_factor_dalpha, pressure.derivative_result))
    for factor, one_sum in sums:
        per_order = dict(one_sum.per_order)
        for n in (0, 1, 40, 41):
            weight = 1.0 if n == 0 else 2.0
            in_u = per_order[n] / weight * (4.0 * math.pi)
            in_y = integrate_semi_infinite(
                lambda y: y * factor(n, y, ratio),
                QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300),
                tail_cut=1.0 / (ratio - 1.0))
            assert in_y.converged
            # no abs: at alpha = 2 the order-40 integrals are about 1e-22
            assert in_u == pytest.approx(in_y.value, rel=1e-9, abs=0.0)


def test_double_route_work_at_two():
    """The double route's inner integrals in u = sqrt(s) have a smooth
    endpoint; in s its square root cost 369,165 evaluations here."""
    result = interaction_energy_double_integral(2.0)
    assert result.converged
    assert result.order_max == 14
    assert result.evaluations == 114_855


def test_double_route_inner_integral_in_u_equals_integral_in_s(monkeypatch):
    """The route's inner integral, taken in u with s = u**2, is the
    integral over s = y - k of sqrt(s (s + 2 k)) d ln M_n / dy."""
    ratio = 2.0
    ks = np.array([0.01, 1.0])
    inner = []

    def outer_at_ks(outer, spec, tail_cut):
        inner.append(outer(ks))
        return QuadratureResult(1.0, 0.0, 0, True)

    monkeypatch.setattr(exact, "_HEAD", 5)
    monkeypatch.setattr(exact, "integrate_semi_infinite", outer_at_ks)
    interaction_energy_double_integral(ratio)
    assert len(inner) == 6
    for n in (0, 5):
        for k, in_u in zip(ks, inner[n]):
            in_s = integrate_semi_infinite(
                lambda s: np.sqrt(s * (s + 2.0 * k))
                * exact._mode_factor_dy(n, k + s, ratio),
                QuadratureSpec(rel_tol=1e-10), tail_cut=1.0 / (ratio - 1.0))
            assert in_s.converged
            assert in_u == pytest.approx(in_s.value, rel=1e-8)


# The order-by-order sums before the tail existed (commit 76b64f1), at
# tight numerics, which took up to 15,518 orders: (value, error) by ratio.
#   git checkout 76b64f1 && PYTHONPATH=src python -c "from coaxcasimir
#   import *; cfg = NumericsConfig(order_tol=1e-15, order_cap=20000);
#   r = interaction_energy(1.01, cfg); print(repr(r.value), repr(r.error))"
# and the same with pressure_inner for the pressures.
TIGHT_ENERGY = {
    1.05: (-705.7389618233261, 6.576790508424737e-09),
    1.01: (-86556.58729916296, 8.656236602427154e-07),
    1.003: (-3194722.395557247, 3.263908855542884e-05),
    1.001: (-86171584.54556105, 0.0008779792051793796),
}
TIGHT_PRESSURE = {
    1.01: (26010562.883698486, 0.000356011601266548),
    1.003: (3196323165.2330494, 0.04107493296720552),
}


@pytest.mark.parametrize("ratio", sorted(TIGHT_ENERGY))
def test_tail_error_covers_the_tight_order_by_order_sum(ratio):
    """Head + tail come within both reported errors of the tight sum."""
    pin, pin_error = TIGHT_ENERGY[ratio]
    result = interaction_energy(ratio)
    assert result.converged
    assert result.tail is not None
    assert abs(result.value - pin) <= result.error + pin_error


@pytest.mark.parametrize("ratio", [1e10, 1e14])
def test_far_apart_energy_matches_tight_numerics(ratio):
    """Far apart the whole energy lies far below the default abs_tol of
    1e-14, so each radial integral stops at its first panels.  In u
    their endpoint at y = 0 is smooth, and the energy still comes within
    1e-8 of a tight run; in y it came 1.5e-5 from it."""
    tight = NumericsConfig(quad=QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300))
    result, reference = interaction_energy(ratio), interaction_energy(
        ratio, tight)
    assert result.converged and reference.converged
    assert result.value == pytest.approx(reference.value, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("ratio", sorted(TIGHT_PRESSURE))
def test_pressure_tail_error_covers_the_tight_order_by_order_sum(ratio):
    pin, pin_error = TIGHT_PRESSURE[ratio]
    result = pressure_inner(ratio)
    assert result.converged
    assert abs(result.value - pin) <= result.error + pin_error


def test_gregory_tail_of_a_known_series():
    """Fed F(n) = exp(-n/30), the head through order 144 and the exact
    integral from 144 give the series within the Gregory remainder,
    which is not more than twice the distance."""
    scale = 30.0
    one = exact._OrderSum(NumericsConfig(order_tol=1e-15))
    for n in range(exact._HEAD + 1):
        assert not one.add(QuadratureResult(
            math.exp(-n / scale), 0.0, 1, True))
    one.add_tail(scale * math.exp(-exact._HEAD / scale), 0.0, 0, True)
    result = one.result()
    series = 1.0 + 2.0 / math.expm1(1.0 / scale)
    assert result.order_max == exact._HEAD
    assert result.converged
    assert abs(result.value - series) <= result.truncation_error
    assert result.truncation_error <= 2.0 * abs(result.value - series)


def test_tail_counts_only_the_outer_segments_it_folds_in():
    """An outer segment started past the march's stop counts in no field.

    The outer integrand, a decay over 0.05 orders plus a spike at
    nu - 144 = 2 so narrow that only the first estimate of the segment
    [1, 3] sees it, makes the march start [3, 7] beside [1, 3] and then
    stop after [1, 3].  Past nu - 144 = 3 the radial integrand does not
    decay, so no radial integral there converges.
    """
    cfg = NumericsConfig(order_tol=1e-6)
    one = exact._OrderSum(cfg)
    for n in range(exact._HEAD + 1):
        assert not one.add(QuadratureResult(1.0, 0.0, 1, True))
    reached = []

    def integrand(y, nu, sums):
        u = nu - exact._HEAD
        reached.append(u.max())
        outer = np.exp(-u / 0.05) + np.exp(-((u - 2.0) / 1e-7) ** 2)
        return 4.0 * math.pi * outer * np.where(u > 3.0, 1.0, y * np.exp(-y))

    exact._add_tails(integrand, [one], [0], 1.0, cfg)
    result = one.result()
    assert max(reached) > 3.0
    assert result.converged
    # the integral from 144 is 0.05; the constant head's end terms are 1/2
    assert result.tail == pytest.approx(2.0 * (0.05 - 0.5), rel=1e-9)
    assert result.quad_error < 1e-6


def test_sums_past_order_144_end_in_the_tail():
    """The reduced route's sums are never capped: past order 144 the tail
    finishes them, and a sum that stops by order 144 has no tail."""
    tail = interaction_energy(1.01)
    assert tail.tail is not None
    assert tail.converged and not tail.order_capped
    no_tail = interaction_energy(1.1)
    assert no_tail.order_max == 126 and no_tail.tail is None


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
                exact._in_u(lambda y: y * factor(n, y, ratio), ratio),
                DEFAULT_NUMERICS.quad, tail_cut=tail_cut)
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
    """Record the (orders, abscissae) each call of the pressure's kernels
    receives: ``_ratio_logs_dalpha``, and ``_ratio_logs``, which the
    pressure should not call."""
    seen = []

    def recording(kernel):
        def record(n, y, ratio):
            seen.append((np.array(n), np.array(y)))
            return kernel(n, y, ratio)
        return record

    for name in ("_ratio_logs_dalpha", "_ratio_logs"):
        monkeypatch.setattr(exact, name, recording(getattr(exact, name)))
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


_ONE_SUM_ORDERS = {
    "0": np.zeros(60, dtype=int),
    "1-16": np.arange(1, 17).repeat(4),
    "41-56": np.arange(41, 57).repeat(4),
    "tail": np.random.default_rng(5).uniform(144.0, 400.0, 60),
}


@pytest.mark.parametrize("orders", _ONE_SUM_ORDERS.values(),
                         ids=_ONE_SUM_ORDERS.keys())
@pytest.mark.parametrize("one_sum", [0, 1], ids=["energy", "dalpha"])
def test_one_sum_pressure_call_equals_its_points_in_a_two_sum_call(
        orders, one_sum):
    """A call whose points all belong to one sum gives each point, bit for
    bit, what the same point gets inside a call that holds both sums,
    sharing some abscissae; an e'-only call skips the dedupe and the
    energy's formula."""
    integrand = exact._pressure_integrand(1.3)
    rng = np.random.default_rng(orders.size)
    y = rng.permutation(np.geomspace(1e-2, 40.0, orders.size))
    other_y = np.concatenate((y[::2], rng.uniform(1e-2, 40.0, 20)))
    other_n = np.concatenate((orders[::2], orders[:20]))
    alone = integrand(y, orders, np.full(y.size, one_sum))
    both = integrand(np.concatenate((y, other_y)),
                     np.concatenate((orders, other_n)),
                     np.repeat([one_sum, 1 - one_sum],
                               [y.size, other_y.size]))
    assert np.array_equal(alone, both[:y.size])


def test_pressure_energy_only_call_equals_the_energy_integrand():
    """A pressure integrand call whose points all belong to the energy
    sum, which the head in u no longer makes at alpha from 1.1 to 10,
    gives, bit for bit, the energy sum's own integrand, though it takes
    the alpha-derivative logs too."""
    pressure, energy = (exact._pressure_integrand(1.3),
                        exact._energy_integrand(1.3))
    rng = np.random.default_rng(26)
    for orders in _ONE_SUM_ORDERS.values():
        y = rng.permutation(np.geomspace(1e-2, 40.0, orders.size))
        y[:10] = y[10:20]
        sums = np.zeros(y.size, dtype=int)
        assert np.array_equal(pressure(y, orders, sums),
                              energy(y, orders, sums))


def test_energy_result_reports_capped_order_sum(monkeypatch):
    """The double route, which has no tail, flags a sum still running
    after its last order as capped: a flag on the result, not a warning."""
    monkeypatch.setattr(exact, "_HEAD", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = interaction_energy_double_integral(2.0)
    assert result.order_capped
    assert result.order_max == 2
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
        NumericsConfig(quad=QuadratureSpec(rel_tol=-1.0))


def test_energy_deterministic():
    assert interaction_energy(1.7) == interaction_energy(1.7)


# each module's allowed sibling imports: the package imports in layers,
# specfun/quadrature <- exact <- approx/eccentric (<- cli, above them all)
IMPORT_LAYERS = {
    "specfun": set(),
    "quadrature": set(),
    "exact": {"specfun", "quadrature"},
    "approx": {"specfun", "quadrature", "exact"},
    "eccentric": {"specfun", "quadrature", "exact"},
}


@pytest.mark.parametrize("module", sorted(IMPORT_LAYERS))
def test_modules_import_only_lower_layers(module):
    source = Path(exact.__file__).with_name(f"{module}.py").read_text()
    siblings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                siblings.add(node.module.split(".")[0])
            else:
                siblings.update(alias.name for alias in node.names)
    assert siblings <= IMPORT_LAYERS[module], siblings
