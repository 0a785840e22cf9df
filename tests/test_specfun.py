"""Tests for the scaled modified Bessel kernels.

Frozen expected values were generated by ``tests/oracles.py`` (mpmath
at 30 digits, independent algorithms); see that module to regenerate.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coaxcasimir.specfun import (
    _SCIPY_ORDER_MAX,
    _UK,
    _VK,
    _log_ik,
    _log_ik_debye,
    _log_ik_scipy,
    _pair_logs,
    reflection_ratio_logs,
    reflection_ratio_logs_dalpha,
    scaled_modified_bessel,
)

# oracle pins: (i, k, i', k') scaled by e^-x / e^+x, at n=0, x=1
PAIR_0_1 = (
    0.4657596075936404365019,
    1.144463079806895014699,
    0.2079104153497084488694,
    -1.636153486263258246513,
)
# oracle pins: (log i, log k, log i', log |k'|) at n=7, x=0.35
PAIR_7_035_LOGS = (
    -21.0721191852016689933,
    18.43178760102654625048,
    -18.07529422371628794895,
    21.42897566280841942938,
)
# oracle pins: same logs at n=60, x=10 (large-order expansion regime)
PAIR_60_10_LOGS = (
    -101.6534055637239212901,
    96.8522108042484845501,
    -99.84816531541599211164,
    98.65789547840486357856,
)
# oracle pins: (log i, log k, log i', log |k'|) in the large-order regime
# at the extremes of t = (1 + (x/n)^2)^(-1/2): near 1, mid-range, near 0
DEBYE_EXTREME_LOGS = {
    (1000, 1.0): (
        -6606.275109297890033378,
        6598.674206338347701018,
        -6599.367353519407646077,
        6605.581962117830087819,
    ),
    (200, 100.0): (
        -168.7443674777169204741,
        162.6413296549682831921,
        -167.9400943367074863337,
        163.4464972263586303525,
    ),
    (41, 1000.0): (
        -5.213493781587055397747,
        -2.388248348769806330231,
        -5.213152977263027336662,
        -2.386910060207966516788,
    ),
}
LOG_DIRICHLET_0_1_2 = -1.895502989044699472182
LOG_NEUMANN_0_1_2 = -2.494201815386752586208
LOG_NEUMANN_1_1_2 = -2.466735238839884393738

log_x = st.floats(min_value=-3.0, max_value=4.0)
orders = st.integers(min_value=0, max_value=200)


def test_small_order_values_match_oracle():
    pair = scaled_modified_bessel(0, 1.0)
    i, k, ip, kp = PAIR_0_1
    assert pair.i_scaled == pytest.approx(i, rel=1e-14)
    assert pair.k_scaled == pytest.approx(k, rel=1e-14)
    assert pair.i_prime_scaled == pytest.approx(ip, rel=1e-14)
    assert pair.k_prime_scaled == pytest.approx(kp, rel=1e-14)


def test_small_argument_logs_match_oracle():
    pair = scaled_modified_bessel(7, 0.35)
    li, lk, lip, lkp = PAIR_7_035_LOGS
    assert pair.log_i == pytest.approx(li, rel=1e-13)
    assert pair.log_k == pytest.approx(lk, rel=1e-13)
    assert pair.log_iprime == pytest.approx(lip, rel=1e-13)
    assert pair.log_kprime == pytest.approx(lkp, rel=1e-13)


def test_large_order_logs_match_oracle():
    pair = scaled_modified_bessel(60, 10.0)
    li, lk, lip, lkp = PAIR_60_10_LOGS
    assert pair.log_i == pytest.approx(li, rel=1e-12)
    assert pair.log_k == pytest.approx(lk, rel=1e-12)
    assert pair.log_iprime == pytest.approx(lip, rel=1e-12)
    assert pair.log_kprime == pytest.approx(lkp, rel=1e-12)


@pytest.mark.parametrize("n, x", sorted(DEBYE_EXTREME_LOGS))
def test_large_order_derivative_logs_match_oracle(n, x):
    """All four logs, derivatives included, at the extremes of t."""
    pair = scaled_modified_bessel(n, x)
    got = (pair.log_i, pair.log_k, pair.log_iprime, pair.log_kprime)
    for value, expected in zip(got, DEBYE_EXTREME_LOGS[n, x]):
        assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "kernel, n",
    [(_log_ik_scipy, 0), (_log_ik_scipy, 40), (_log_ik_scipy, 41),
     (_log_ik_debye, 40), (_log_ik_debye, 41)],
)
@pytest.mark.parametrize("x", [np.asarray(2.5), np.array([0.7, 2.5, 30.0])])
def test_kernels_return_four_logs_shaped_like_argument(kernel, n, x):
    logs = kernel(n, x)
    assert len(logs) == 4
    for log_value in logs:
        assert np.shape(log_value) == x.shape
        assert np.all(np.isfinite(log_value))


def test_debye_tables_match_their_generator():
    """The embedded u_k and v_k tables are the script's output, bitwise."""
    pytest.importorskip("sympy")
    path = Path(__file__).resolve().parents[1] / "scripts" / "gen_debye_tables.py"
    spec = importlib.util.spec_from_file_location("gen_debye_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    u_rows, v_rows = module.coefficient_tables(len(_UK) - 1)
    assert tuple(map(tuple, u_rows)) == _UK
    assert tuple(map(tuple, v_rows)) == _VK


@given(n=orders, lx=log_x)
def test_wronskian_identity(n, lx):
    """i k' - i' k must equal -1/x across both evaluation regimes."""
    x = 10.0**lx
    pair = scaled_modified_bessel(n, x)
    assert pair.wronskian() * x == pytest.approx(-1.0, rel=1e-12)


@given(
    n=st.integers(min_value=41, max_value=120),
    lx=st.floats(min_value=-0.3, max_value=4.0),
)
def test_regime_overlap(n, lx):
    """Direct and large-order evaluations agree where both apply.

    Arguments below ~0.5 are excluded: there the direct route's scaled
    value underflows the double range for orders this large (and raises,
    which test_unscaled_accessors_raise_outside_double_range covers).
    """
    x = np.asarray(10.0**lx)
    li_d, lk_d = _log_ik(n, x, regime_order=0)
    li_a, lk_a = _log_ik(n, x, regime_order=_SCIPY_ORDER_MAX + 1)
    assert float(li_a) == pytest.approx(float(li_d), rel=1e-10, abs=1e-10)
    assert float(lk_a) == pytest.approx(float(lk_d), rel=1e-10, abs=1e-10)


def test_negative_order_folds_to_positive():
    assert scaled_modified_bessel(-5, 2.3) == scaled_modified_bessel(5, 2.3)


def test_large_argument_asymptotics():
    """e^-x I_0 -> (2 pi x)^(-1/2) (1 + 1/8x), e^x K_0 similarly."""
    x = 700.0
    pair = scaled_modified_bessel(0, x)
    lead_i = (1.0 + 1.0 / (8.0 * x)) / math.sqrt(2.0 * math.pi * x)
    lead_k = (1.0 - 1.0 / (8.0 * x)) * math.sqrt(math.pi / (2.0 * x))
    assert pair.i_scaled == pytest.approx(lead_i, rel=1e-6)
    assert pair.k_scaled == pytest.approx(lead_k, rel=1e-6)


def test_reflection_log_ratios_match_oracle():
    assert reflection_ratio_logs(0, 1.0, 2.0)[0] == pytest.approx(
        LOG_DIRICHLET_0_1_2, rel=1e-13
    )
    assert reflection_ratio_logs(0, 1.0, 2.0)[1] == pytest.approx(
        LOG_NEUMANN_0_1_2, rel=1e-13
    )
    assert reflection_ratio_logs(1, 1.0, 2.0)[1] == pytest.approx(
        LOG_NEUMANN_1_1_2, rel=1e-13
    )


@given(
    ly=st.floats(min_value=-2.0, max_value=2.0),
    ratio=st.floats(min_value=1.01, max_value=5.0),
)
def test_order_zero_neumann_equals_order_one_dirichlet(ly, ratio):
    """I_0' = I_1 and K_0' = -K_1 make the two ratios coincide."""
    y = 10.0**ly
    assert reflection_ratio_logs(0, y, ratio)[1] == pytest.approx(
        reflection_ratio_logs(1, y, ratio)[0], rel=1e-12
    )


@given(
    n=st.integers(min_value=0, max_value=80),
    ly=st.floats(min_value=-2.0, max_value=2.0),
    ratio=st.floats(min_value=1.001, max_value=5.0),
)
def test_reflection_log_ratios_are_negative(n, ly, ratio):
    """Round trips lose amplitude: both log-ratios stay below zero."""
    y = 10.0**ly
    lrd, lrn = reflection_ratio_logs(n, y, ratio)
    assert lrd < 0.0
    assert lrn < 0.0


def test_vectorized_ratios_match_scalar_routes():
    y = np.array([0.1, 1.0, 3.0, 17.0])
    for n in (0, 2, 55):
        lrd, lrn = reflection_ratio_logs(n, y, 1.7)
        one_by_one = [reflection_ratio_logs(n, value, 1.7) for value in y]
        np.testing.assert_array_equal(lrd, [d for d, _ in one_by_one])
        np.testing.assert_array_equal(lrn, [r for _, r in one_by_one])


# a block of orders straddling the regime seam, each at several arguments
SEAM_ORDERS = np.repeat(np.arange(36, 46), 5)
SEAM_ARGS = np.geomspace(0.5, 900.0, SEAM_ORDERS.size)


@pytest.mark.parametrize("kernel", [_log_ik_scipy, _log_ik_debye, _pair_logs])
def test_order_array_kernels_equal_one_order_calls(kernel):
    """An order per point gives, bit for bit, each order's own call."""
    got = kernel(SEAM_ORDERS, SEAM_ARGS)
    for j, (n, x) in enumerate(zip(SEAM_ORDERS.tolist(), SEAM_ARGS)):
        alone = kernel(n, SEAM_ARGS[j:j + 1])
        for log_value, expected in zip(got, alone):
            assert log_value[j] == expected[0], (kernel.__name__, n, x)


def test_order_array_ratios_equal_one_order_calls():
    """Mixed-regime ratio blocks, and their alpha-derivatives, are exact."""
    got = reflection_ratio_logs_dalpha(SEAM_ORDERS, SEAM_ARGS, 1.3)
    for n in np.unique(SEAM_ORDERS).tolist():
        mine = SEAM_ORDERS == n
        alone = reflection_ratio_logs_dalpha(n, SEAM_ARGS[mine], 1.3)
        for log_value, expected in zip(got, alone):
            np.testing.assert_array_equal(log_value[mine], expected)


def test_order_array_must_hold_integers_matching_the_argument():
    with pytest.raises(ValueError):
        reflection_ratio_logs(np.array([1.5, 2.0]), np.array([1.0, 2.0]), 2.0)
    with pytest.raises(ValueError):
        reflection_ratio_logs(np.array([1, 2, 3]), np.array([1.0, 2.0]), 2.0)


def test_unscaled_accessors_raise_outside_double_range():
    with pytest.raises(OverflowError):
        scaled_modified_bessel(5, 800.0).i_unscaled()
    with pytest.raises(OverflowError):
        scaled_modified_bessel(500, 1.0).k_scaled
    # the log fields remain finite and usable in the same regime
    assert math.isfinite(scaled_modified_bessel(500, 1.0).log_k)


@pytest.mark.parametrize("bad_x", [0.0, -1.0, math.nan, math.inf])
def test_domain_errors_on_argument(bad_x):
    with pytest.raises(ValueError):
        scaled_modified_bessel(3, bad_x)


def test_domain_errors_on_order_and_ratio():
    with pytest.raises(ValueError):
        scaled_modified_bessel(2.5, 1.0)
    with pytest.raises(ValueError):
        reflection_ratio_logs(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        reflection_ratio_logs(2, -1.0, 2.0)
