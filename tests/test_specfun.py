"""Tests for the scaled modified Bessel kernels.

Frozen expected values were generated by ``tests/oracles.py`` (mpmath
at 30 digits, independent algorithms); see that module to regenerate.
"""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

import oracles
from coaxcasimir import specfun
from coaxcasimir.specfun import (
    _K0_CHEBYSHEV,
    _K1_CHEBYSHEV,
    _SERIES_BASIS,
    _SMALL_ORDER_MAX,
    _debye_polynomials,
    _k_pair_and_ratio,
    _log_ik_debye,
    _log_ik_scipy,
    _pair_logs,
    _ratio_rows,
    _scaled_k01,
    reflection_ratio_logs,
    reflection_ratio_logs_dalpha,
    scaled_modified_bessel,
)
from coaxcasimir.exact import log_mode_factor, log_mode_factor_dalpha

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
# oracle pins: (log i, log k, log i', log |k'|) at the small-order regime's
# highest order, where the K recurrence runs longest
SCIPY_TOP_ORDER_LOGS = {
    (40, 0.01): (
        -322.26333376692276856,
        317.8813071009793444636,
        -313.9692840963329369392,
        326.1753567731326531106,
    ),
    (40, 1.0): (
        -139.0404298187179546511,
        134.6580905866223628943,
        -135.3512455772572739545,
        138.3472904481719782979,
    ),
    (40, 300.0): (
        -6.437570522895192153874,
        0.03183129071242452119205,
        -6.430385460039263663,
        0.04226274702327950983645,
    ),
}
# oracle pins: the same logs at small arguments and orders 28-40, where
# I_n comes from the Wronskian and its ratio r_n runs longest
SCIPY_SMALL_ARGUMENT_LOGS = {
    (28, 0.04): (
        -177.4663734960693465928,
        173.4410207836238807356,
        -170.9152921758052053688,
        179.9921021768671807325,
    ),
    (30, 0.022): (
        -209.9760326311175929629,
        205.8816877997075784523,
        -202.7581221636166281633,
        213.0995982851543944878,
    ),
    (34, 0.01): (
        -268.7336172905452179299,
        264.5141095420790698222,
        -260.6020865379241601867,
        272.6456402972466003685,
    ),
    (36, 0.022): (
        -258.0966514944886693097,
        253.819985188600062169,
        -250.6964195487270885093,
        261.2202171447434475174,
    ),
    (39, 0.016): (
        -294.9519944154332333625,
        290.5952855045331224223,
        -287.1532661305099556584,
        298.3940137937748875622,
    ),
    (40, 0.014): (
        -308.8084437167084102589,
        304.4264170207462272227,
        -300.8508662534715014641,
        312.3839944870475507125,
    ),
}
LOG_DIRICHLET_0_1_2 = -1.895502989044699472182
LOG_NEUMANN_0_1_2 = -2.494201815386752586208
LOG_NEUMANN_1_1_2 = -2.466735238839884393738

log_x = st.floats(min_value=-3.0, max_value=4.0)
orders = st.integers(min_value=0, max_value=200)


def order_like(n, x):
    """The order array the private kernels take: ``n`` at every point."""
    return np.full(np.shape(x), n)


def test_small_order_values_match_oracle():
    pair = scaled_modified_bessel(0, 1.0)
    i, k, ip, kp = PAIR_0_1
    assert np.exp(pair.log_i) == pytest.approx(i, rel=1e-14)
    assert np.exp(pair.log_k) == pytest.approx(k, rel=1e-14)
    assert np.exp(pair.log_iprime) == pytest.approx(ip, rel=1e-14)
    assert -np.exp(pair.log_kprime) == pytest.approx(kp, rel=1e-14)


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


# oracle pins: the same four logs at real orders, which only the mode
# sums' tail passes to the large-order kernel
DEBYE_REAL_ORDER_LOGS = {
    (144.5, 100.0): (
        -95.95383491255245402212,
        90.09174856120704850414,
        -95.39098774895807163178,
        90.65643851823561365361,
    ),
    (1000.25, 5.0): (
        -5002.329226783916099015,
        4994.728061862010071069,
        -4997.030646967494290848,
        5000.026641703412227271,
    ),
    (2500.5, 800.0): (
        -2824.030289230399467055,
        2815.464169814809736025,
        -2822.841946407369980785,
        2816.652548006191236523,
    ),
}


def test_large_order_kernel_at_real_orders_matches_oracle():
    """Real orders in one call, each against its pin; an integral real
    order gives the bits of the int order."""
    cases = sorted(DEBYE_REAL_ORDER_LOGS)
    n = np.array([n for n, _ in cases])
    x = np.array([x for _, x in cases])
    got = _log_ik_debye(n, x)
    for j, case in enumerate(cases):
        for value, expected in zip(got, DEBYE_REAL_ORDER_LOGS[case]):
            assert value[j] == pytest.approx(expected, rel=1e-12)
    orders = np.array([41, 144, 145, 1000])
    args = np.geomspace(0.5, 900.0, orders.size)
    for real, whole in zip(_log_ik_debye(orders.astype(float), args),
                           _log_ik_debye(orders, args)):
        np.testing.assert_array_equal(real, whole)


def _debye_one_row_table_per_order(n, x):
    """The large-order kernel as formulated with one (rows, terms) table
    per order, ``sum_k B[k] (1/n)**k`` with Python float powers, and a
    gather from the stacked (rows, terms, orders) table per Horner step."""
    distinct = sorted(set(n.ravel().tolist()))
    where = np.searchsorted(distinct, n)
    rows, c_i, c_k = [], [], []
    for order in distinct:
        nu = float(order)
        inv = 1.0 / nu
        rows.append(sum(_SERIES_BASIS[k].T * inv**k
                        for k in range(1, len(_SERIES_BASIS))))
        c_i.append(-0.5 * math.log(2.0 * math.pi * nu))
        c_k.append(0.5 * math.log(math.pi / (2.0 * nu)))
    table = np.stack(rows, axis=-1)
    nu = n.astype(float)
    z = x / nu
    hyp = np.hypot(1.0, z)
    t = 1.0 / hyp
    s = t * t
    lead = nu * (1.0 / (hyp + z) - np.arcsinh(1.0 / z))
    acc = table[:, 0, where]
    for j in range(1, table.shape[1]):
        acc = acc * s + table[:, j, where]
    even, odd = acc[:2], acc[2:] * t
    log_plus = np.log1p(even + odd)
    log_minus = np.log1p(even - odd)
    quarter = 0.25 * np.log1p(z * z)
    prime = quarter - np.log(z)
    c_i, c_k = np.array(c_i)[where], np.array(c_k)[where]
    return (lead - quarter + c_i + log_plus[0],
            -lead - quarter + c_k + log_minus[0],
            lead + prime + c_i + log_plus[1],
            -lead + prime + c_k + log_minus[1])


# integer orders 41-900 and real orders 144-900, each with an argument
# spread over the kernel's range, z = x/n from 1e-4 to 1e2
_DEBYE_INT_ORDERS = np.arange(41, 901)
_DEBYE_REAL_ORDERS = np.random.default_rng(17).uniform(144.0, 900.0, 860)
_DEBYE_ARGS = np.random.default_rng(18).permutation(
    np.geomspace(0.05, 9e4, 860))


@pytest.mark.parametrize("orders", [_DEBYE_INT_ORDERS, _DEBYE_REAL_ORDERS],
                         ids=["int", "real"])
@pytest.mark.parametrize("shape", [(860,), (2, 430)], ids=["flat", "2xM"])
def test_debye_kernel_equals_one_row_table_per_order(orders, shape):
    """Bit for bit, all four logs, against the formulation with a row
    table per order and a gather per Horner step."""
    n, x = orders.reshape(shape), _DEBYE_ARGS.reshape(shape)
    for got, want in zip(_log_ik_debye(n, x),
                         _debye_one_row_table_per_order(n, x)):
        assert got.shape == shape
        assert np.array_equal(got, want)


def test_debye_block_of_real_orders_equals_each_order_alone():
    n, x = _DEBYE_REAL_ORDERS[:200], _DEBYE_ARGS[:200]
    got = _log_ik_debye(n, x)
    for j in range(n.size):
        alone = _log_ik_debye(n[j:j + 1], x[j:j + 1])
        assert tuple(log[j] for log in got) == tuple(a[0] for a in alone)


@pytest.mark.parametrize("n, x", sorted(SCIPY_TOP_ORDER_LOGS))
def test_scipy_regime_top_order_logs_match_oracle(n, x):
    pair = scaled_modified_bessel(n, x)
    got = (pair.log_i, pair.log_k, pair.log_iprime, pair.log_kprime)
    for value, expected in zip(got, SCIPY_TOP_ORDER_LOGS[n, x]):
        assert value == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n, x", sorted(SCIPY_SMALL_ARGUMENT_LOGS))
def test_scipy_regime_small_argument_logs_match_oracle(n, x):
    """I_n from the Wronskian against mpmath, which does not assume it."""
    pair = scaled_modified_bessel(n, x)
    got = (pair.log_i, pair.log_k, pair.log_iprime, pair.log_kprime)
    for value, expected in zip(got, SCIPY_SMALL_ARGUMENT_LOGS[n, x]):
        assert value == pytest.approx(expected, rel=5e-14)


def test_k01_matches_mpmath():
    """k_0 and k_1 against 40-digit mpmath from 1e-300 to 1e4, densely
    on both sides of x = 2, where the power series meets the Chebyshev
    series."""
    x = np.concatenate((np.geomspace(1e-300, 1e4, 150),
                        np.linspace(1.5, 2.5, 101),
                        np.nextafter(2.0, [0.0, 4.0])))
    k = _scaled_k01(x)
    with mp.workdps(40):
        for j, point in enumerate(x.tolist()):
            scale = mp.exp(point)
            for order in (0, 1):
                want = mp.besselk(order, point) * scale
                assert abs(float(k[order, j] / want - 1)) < 2e-15, (
                    order, point)


def test_k01_chebyshev_literals_regenerate():
    """The committed Chebyshev coefficients are the oracle's, bit for
    bit."""
    assert _K0_CHEBYSHEV == oracles.scaled_k01_chebyshev(0)
    assert _K1_CHEBYSHEV == oracles.scaled_k01_chebyshev(1)


def test_i_from_wronskian_matches_mpmath():
    """i_n and i_n' from the Wronskian and the ratio r_n against 40-digit
    mpmath, at every order of the small-order kernel."""
    x = np.geomspace(1e-2, 400.0, 12)
    with mp.workdps(40):
        for n in range(_SMALL_ORDER_MAX + 1):
            log_i, _, log_iprime, _ = _log_ik_scipy(order_like(n, x), x)
            scale = [mp.exp(-point) for point in x.tolist()]
            np.testing.assert_allclose(np.exp(log_i), [
                float(e * mp.besseli(n, point))
                for e, point in zip(scale, x.tolist())], rtol=1e-13)
            np.testing.assert_allclose(np.exp(log_iprime), [
                float(e * oracles.besseli_prime(n, point))
                for e, point in zip(scale, x.tolist())], rtol=1e-13)


def test_small_order_logs_match_mpmath_at_random_points():
    """At 300 random points, orders 0-40 and x from 1e-2 to 400, each of
    the four logs is within 3e-15 max(1, |log|) of 40-digit mpmath.  Ten
    orders share each of 30 abscissae, so mpmath's K_n come from its K_0
    and K_1 by the upward recurrence, which is stable."""
    rng = np.random.default_rng(300)
    abscissae = np.exp(rng.uniform(math.log(1e-2), math.log(400.0), 30))
    x = np.repeat(abscissae, 10)
    n = rng.integers(0, _SMALL_ORDER_MAX + 1, x.size)
    got = np.array(_log_ik_scipy(n, x))
    with mp.workdps(40):
        for j, point in enumerate(x.tolist()):
            if j % 10 == 0:
                k = [mp.besselk(0, point), mp.besselk(1, point)]
                for order in range(1, _SMALL_ORDER_MAX + 1):
                    k.append(k[order - 1] + 2 * order / mp.mpf(point)
                             * k[order])
            order = int(n[j])
            i_n, i_up = mp.besseli(order, point), mp.besseli(order + 1, point)
            ratio = order / mp.mpf(point)
            want = (mp.log(i_n) - point, mp.log(k[order]) + point,
                    mp.log(i_up + ratio * i_n) - point,
                    mp.log(k[abs(order - 1)] + ratio * k[order]) + point)
            for value, expected in zip(got[:, j], want):
                assert abs(value - float(expected)) <= 3e-15 * max(
                    1.0, abs(float(expected))), (order, point)


def test_k_recurrence_matches_scipy_kve():
    """The upward recurrence from k_0 and k_1 against AMOS kve, both
    orders."""
    x = np.geomspace(1e-2, 1e3, 200)
    for n in range(_SMALL_ORDER_MAX + 1):
        k_below, k_n, _ = _k_pair_and_ratio(order_like(n, x), x)
        np.testing.assert_allclose(k_below, special.kve(abs(n - 1), x),
                                   rtol=1e-13)
        np.testing.assert_allclose(k_n, special.kve(n, x), rtol=1e-13)


def _scaled_k_table(n, x):
    """The K recurrence and the ratio rows as tables of every row up to
    the highest order, each point picking its values by a flat-index
    gather."""
    top = max(int(n.max()), 1)
    k = np.empty((top + 1,) + x.shape)
    k[:2] = _scaled_k01(x)
    with np.errstate(over="ignore"):
        for j in range(1, top):
            k[j + 1] = k[j - 1] + (2.0 * j / x) * k[j]
    point = np.arange(x.size).reshape(x.shape)
    k = k.reshape(-1)
    ratio = _ratio_rows(top, 0, x).reshape(-1)
    return (k[np.abs(n - 1) * x.size + point], k[n * x.size + point],
            ratio[n * x.size + point])


@pytest.mark.parametrize("n", [0, 1, 2, 17, 40])
@pytest.mark.parametrize("shape", [(300,), (2, 150)], ids=["flat", "2xM"])
def test_one_order_k_recurrence_equals_the_table(n, shape):
    """At one order the recurrences keep the rows they need only; both K
    values and the ratio are, bit for bit, those the tables give."""
    x = np.geomspace(1e-2, 1e3, 300).reshape(shape)
    for got, want in zip(_k_pair_and_ratio(order_like(n, x), x),
                         _scaled_k_table(order_like(n, x), x)):
        assert got.shape == shape
        assert np.array_equal(got, want)


def test_one_order_k_overflow_stays_a_silent_inf():
    x = np.array([1e-8, 1e-3, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _k_pair_and_ratio(order_like(40, x), x)
    want = _scaled_k_table(order_like(40, x), x)
    assert np.isinf(got[1][0]) and np.isfinite(got[1][1:]).all()
    for value, table in zip(got, want):
        assert np.array_equal(value, table)


def _repeated_abscissae():
    """Orders 0-40 on a (2, M) argument, stacked as ``_ratio_logs``
    stacks y and alpha y, whose abscissae repeat within and across rows;
    x = 1e-8 at order 40 takes K past the double range."""
    rng = np.random.default_rng(40)
    pool = np.concatenate((np.geomspace(1e-2, 1e3, 50), [1e-8]))
    x = rng.choice(pool, size=(2, 150))
    x[1, :30] = x[0, 30:60]
    x[:, :2] = 1e-8
    n = rng.integers(0, 41, size=x.shape)
    n[:, 0], n[:, 1] = 40, 1
    return n, x


def test_several_order_k_recurrence_on_repeated_abscissae_equals_the_table():
    """Run once per distinct abscissa, the recurrences give each point,
    bit for bit, the values the tables over every point give it; an
    order-40 overflow stays a silent ``inf``."""
    n, x = _repeated_abscissae()
    assert np.unique(x).size < x.size // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _k_pair_and_ratio(n, x)
    want = _scaled_k_table(n, x)
    assert np.isinf(got[1][:, 0]).all() and np.isfinite(got[1][:, 1]).all()
    for value, table in zip(got, want):
        assert value.shape == x.shape
        assert np.array_equal(value, table)


def test_several_order_k_recurrence_starts_from_distinct_abscissae(
        monkeypatch):
    """``_scaled_k01`` and the ratio's seed each see every distinct
    abscissa once."""
    n, x = _repeated_abscissae()
    seen = []

    def recording(name):
        kernel = getattr(specfun, name)

        def record(*args):
            seen.append((name, np.array(args[-1])))
            return kernel(*args)
        return record

    for name in ("_scaled_k01", "_debye_ratio"):
        monkeypatch.setattr(specfun, name, recording(name))
    _k_pair_and_ratio(n, x)
    assert sorted(name for name, _ in seen) == ["_debye_ratio", "_scaled_k01"]
    for _, z in seen:
        assert np.array_equal(np.sort(z, axis=None), np.unique(x))


def test_k_overflow_raises_without_warning():
    """A K past the double range even in logs, below x of about 5.6e-309
    where k_1 overflows, raises; a block's recurrence that overflows
    above a point's own order leaves that point untouched."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="order 40"):
            _log_ik_scipy(np.array([40]), np.array([1e-309]))
        block = _log_ik_scipy(np.array([1, 40]), np.array([1e-8, 1.0]))
    single = _log_ik_scipy(np.array([1]), np.array([1e-8]))
    for log_value, alone in zip(block, single):
        assert np.isfinite(log_value).all()
        assert log_value[0] == alone[0]


def test_order_40_overflow_edge_is_seamless():
    """At order 40 the recurrence in values ends at x = 8.787e-7, where
    k_41 overflows (about Gamma(41)/2 (2/x)^41).  Just below the edge the
    logs come from K's ratios, silently, and on both sides they match
    mpmath."""
    x = np.array([8.78e-7, 8.8e-7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = _log_ik_scipy(np.array([40, 40]), x)
    with mp.workdps(40):
        want = [oracles.log_pair(40, one) for one in x.tolist()]
    for k, expected in enumerate(want):
        for value, one in zip(logs, expected):
            assert value[k] == pytest.approx(float(one), rel=1e-15)


@pytest.mark.parametrize("n, x", [(16, 1.8e-19), (40, 1e-8), (1, 1e-300),
                                  (40, 1e-300)])
def test_k_past_the_double_range_takes_logs(n, x):
    """Where the recurrence in values takes K past the double range, the
    four logs come from K's ratios and match mpmath.  (16, 1.8e-19) is
    the first abscissa of the first head block at alpha = 1e14."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = _log_ik_scipy(np.array([n]), np.array([x]))
    with mp.workdps(40):
        want = oracles.log_pair(n, x)
    for value, expected in zip(logs, want):
        assert abs(value[0] - float(expected)) <= 1e-13 * max(
            1.0, abs(float(expected)))


def test_large_argument_logs_match_mpmath():
    """Far past any order, at x = 1.1e9, the four logs stay finite and
    match mpmath."""
    logs = _log_ik_scipy(np.array([0]), np.array([1.1e9]))
    with mp.workdps(40):
        want = oracles.log_pair(0, 1.1e9)
    for value, expected in zip(logs, want):
        assert value[0] == pytest.approx(float(expected), rel=1e-14)


@pytest.mark.parametrize(
    "kernel, n",
    [(_log_ik_scipy, 0), (_log_ik_scipy, 40), (_log_ik_scipy, 41),
     (_log_ik_debye, 40), (_log_ik_debye, 41)],
)
@pytest.mark.parametrize("x", [np.asarray(2.5), np.array([0.7, 2.5, 30.0])])
def test_kernels_return_four_logs_shaped_like_argument(kernel, n, x):
    logs = kernel(order_like(n, x), x)
    assert len(logs) == 4
    for log_value in logs:
        assert np.shape(log_value) == x.shape
        assert np.all(np.isfinite(log_value))


# printed Debye polynomials (DLMF 10.41.10-11; A&S 9.3.9, 9.3.13):
# k: (u_k, v_k), each as ({power of t: numerator}, denominator)
PRINTED_DEBYE = {
    1: (({1: 3, 3: -5}, 24), ({1: -9, 3: 7}, 24)),
    2: (({2: 81, 4: -462, 6: 385}, 1152),
        ({2: -135, 4: 594, 6: -455}, 1152)),
    3: (({3: 30375, 5: -369603, 7: 765765, 9: -425425}, 414720),
        ({3: -42525, 5: 451737, 7: -883575, 9: 475475}, 414720)),
}


def test_debye_polynomials_match_printed_values():
    """The recurrence gives u_1..u_3 and v_1..v_3 exactly as printed.

    Orders 4-8 are covered by the large-order pins, the regime seam and
    the Wronskian tests.
    """
    us, vs = _debye_polynomials(3)
    assert us[0] == vs[0] == [1]
    for k, printed in PRINTED_DEBYE.items():
        for poly, (numerators, denominator) in zip((us[k], vs[k]), printed):
            assert poly == [Fraction(numerators.get(m, 0), denominator)
                            for m in range(3 * k + 1)]


@given(n=orders, lx=log_x)
def test_wronskian_identity(n, lx):
    """i k' - i' k must equal -1/x across both evaluation regimes.

    For orders up to 40 the kernel builds i_n from this identity (as
    I_n K_{n+1} + I_{n+1} K_n = 1/x, DLMF 10.28.2), so there the check
    is partly constructive: it tests the derivative recurrences and the
    rounding, not i_n.  The mpmath pins
    (``test_scipy_regime_small_argument_logs_match_oracle`` and the
    other oracle tests) check i_n independently.
    """
    x = 10.0**lx
    li, lk, lip, lkp = scaled_modified_bessel(n, x)
    wronskian = -(np.exp(li + lkp) + np.exp(lip + lk))
    assert wronskian * x == pytest.approx(-1.0, rel=1e-12)


@given(
    n=st.integers(min_value=41, max_value=120),
    lx=st.floats(min_value=-0.3, max_value=4.0),
)
def test_regime_overlap(n, lx):
    """Direct and large-order evaluations agree where both apply.

    Arguments below ~0.5 are excluded: there the direct route's scaled
    value underflows the double range for orders this large (and raises,
    which test_k_overflow_raises_without_warning covers).
    """
    x = np.asarray(10.0**lx)
    li_d, lk_d = _log_ik_scipy(order_like(n, x), x)[:2]
    li_a, lk_a = _log_ik_debye(order_like(n, x), x)[:2]
    assert float(li_a) == pytest.approx(float(li_d), rel=1e-10, abs=1e-10)
    assert float(lk_a) == pytest.approx(float(lk_d), rel=1e-10, abs=1e-10)


def test_argument_grid_equals_each_point_alone():
    """An order grid, or one order, with an argument grid of any shape
    gives, bit for bit, each point's own call, across the seam."""
    n, x = np.meshgrid(np.arange(36, 46), np.geomspace(0.5, 900.0, 7),
                       indexing="ij")
    grid = scaled_modified_bessel(n, x)
    one_order = scaled_modified_bessel(41, x)
    for index in np.ndindex(x.shape):
        assert tuple(log[index] for log in grid) == scaled_modified_bessel(
            int(n[index]), float(x[index]))
        assert tuple(log[index] for log in one_order) == (
            scaled_modified_bessel(41, float(x[index])))


def test_negative_order_folds_to_positive():
    assert scaled_modified_bessel(-5, 2.3) == scaled_modified_bessel(5, 2.3)


def test_large_argument_asymptotics():
    """e^-x I_0 -> (2 pi x)^(-1/2) (1 + 1/8x), e^x K_0 similarly."""
    x = 700.0
    pair = scaled_modified_bessel(0, x)
    lead_i = (1.0 + 1.0 / (8.0 * x)) / math.sqrt(2.0 * math.pi * x)
    lead_k = (1.0 - 1.0 / (8.0 * x)) * math.sqrt(math.pi / (2.0 * x))
    assert np.exp(pair.log_i) == pytest.approx(lead_i, rel=1e-6)
    assert np.exp(pair.log_k) == pytest.approx(lead_k, rel=1e-6)


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
# 64-order blocks, four times the mode sums' width: one across the seam
# and one deep in the Debye regime; each order twice, in shuffled order
BLOCK_ACROSS_ORDERS = np.random.default_rng(7).permutation(
    np.repeat(np.arange(9, 73), 2))
BLOCK_DEEP_ORDERS = BLOCK_ACROSS_ORDERS + 691
BLOCK_ARGS = np.geomspace(0.5, 900.0, BLOCK_ACROSS_ORDERS.size)


@pytest.mark.parametrize("kernel", [_log_ik_scipy, _log_ik_debye, _pair_logs])
def test_order_array_kernels_equal_one_order_calls(kernel):
    """An order per point gives, bit for bit, each order's own call, near
    the seam and in 64-order blocks across it and (outside the
    small-order kernel's range, where it overflows) far above it."""
    cases = [(SEAM_ORDERS, SEAM_ARGS), (BLOCK_ACROSS_ORDERS, BLOCK_ARGS)]
    if kernel is not _log_ik_scipy:
        cases.append((BLOCK_DEEP_ORDERS, BLOCK_ARGS))
    for orders, args in cases:
        got = kernel(orders, args)
        for j, (n, x) in enumerate(zip(orders.tolist(), args)):
            alone = kernel(np.array([n]), args[j:j + 1])
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


@pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
def test_order_array_of_any_integer_type_equals_int_orders(dtype):
    """Order 0 included: the K pair's order |n - 1| must not wrap."""
    n = np.array([0, 1, 40, 41, 200])
    y = np.geomspace(0.5, 40.0, n.size)
    got = reflection_ratio_logs_dalpha(n.astype(dtype), y, 1.3)
    want = reflection_ratio_logs_dalpha(n, y, 1.3)
    for log_value, expected in zip(got, want):
        np.testing.assert_array_equal(log_value, expected)


def test_order_array_must_hold_integers_matching_the_argument():
    with pytest.raises(ValueError):
        reflection_ratio_logs(np.array([1.5, 2.0]), np.array([1.0, 2.0]), 2.0)
    with pytest.raises(ValueError):
        reflection_ratio_logs(np.array([1, 2, 3]), np.array([1.0, 2.0]), 2.0)


def test_log_fields_stay_finite_outside_double_range():
    """At order 500 and x = 1, e^x K_n overflows; its log does not."""
    assert math.isfinite(scaled_modified_bessel(500, 1.0).log_k)


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("y", [[], np.empty((2, 0))])
def test_empty_argument_gives_empty_logs(n, y):
    """In either regime, an empty argument gives empty arrays of its shape
    from every public entry point, for one order or an (empty) order
    array."""
    shape = np.shape(y)
    for order in (n, np.full(shape, n)):
        for logs in (scaled_modified_bessel(order, y),
                     reflection_ratio_logs(order, y, 2.0),
                     reflection_ratio_logs_dalpha(order, y, 2.0),
                     (log_mode_factor(order, y, 2.0),
                      log_mode_factor_dalpha(order, y, 2.0))):
            for log_value in logs:
                assert log_value.shape == shape


@pytest.mark.parametrize("bad_x", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_domain_errors_on_argument(bad_x):
    """A zero, negative, NaN or infinite argument is refused, alone or
    among good ones; an empty argument is in the domain."""
    for x in (bad_x, [1.0, bad_x, 2.0]):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            scaled_modified_bessel(3, x)
    assert scaled_modified_bessel(3, []).log_i.shape == (0,)


@pytest.mark.parametrize("order", [math.inf, -math.inf, math.nan, 2.5])
@pytest.mark.parametrize("function", [
    lambda n: scaled_modified_bessel(n, 1.0),
    lambda n: reflection_ratio_logs(n, 1.0, 2.0),
    lambda n: log_mode_factor(n, 1.0, 2.0),
], ids=["scaled_modified_bessel", "reflection_ratio_logs", "log_mode_factor"])
def test_non_integral_order_raises_value_error(function, order):
    """An infinite, NaN or fractional order is a domain error, not an
    OverflowError from ``int()``, which would read as a range failure."""
    with pytest.raises(ValueError, match="order must be an integer"):
        function(order)


def test_domain_errors_on_order_and_ratio():
    with pytest.raises(ValueError):
        scaled_modified_bessel(2.5, 1.0)
    with pytest.raises(ValueError):
        reflection_ratio_logs(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        reflection_ratio_logs(2, -1.0, 2.0)
