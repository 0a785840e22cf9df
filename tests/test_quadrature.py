"""Tests for the adaptive Gauss-Kronrod integrators.

The battery of analytic integrals checks two promises at once: when a
result reports ``converged`` the true error respects the requested
tolerance, and the reported ``error_estimate`` is honest (the true
error never exceeds it by more than a small factor).  Reference values
come from closed forms; the one non-elementary pin was generated by
``tests/oracles.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import sici

from coaxcasimir import (
    QuadratureResult,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    log_mode_factor,
)

# oracle pin: integral_0^2pi sin t / (0.1 + 0.05 sin t)^4 dt
TRIG_QUARTIC = -182723.491508039724208
# oracle pin: integral_0^inf y ln M_0(y; ratio=2) dy
ORDER_ZERO_TERM_AT_2 = -0.4601514589219998824517

FINITE_CASES = [
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: x**2, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: x**20, 0.0, 1.0, 1.0 / 21.0),
    (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, 5.0 / 18.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0,
     0.4 * math.atan(5.0)),
    (lambda x: np.exp(-x) * np.cos(x), 0.0, 20.0,
     0.5 * (1.0 + math.exp(-20.0) * (math.sin(20.0) - math.cos(20.0)))),
    (lambda x: np.exp(-x * x), -5.0, 5.0, math.sqrt(math.pi) * math.erf(5.0)),
    (lambda x: np.sin(51.0 * x), 0.0, math.pi, 2.0 / 51.0),
    (lambda x: np.sin(x) / (0.1 + 0.05 * np.sin(x)) ** 4, 0.0,
     2.0 * math.pi, TRIG_QUARTIC),
    (lambda x: x**3 - 2.0 * x + 1.0, -2.0, 3.0, 16.25),
    (lambda x: np.cosh(x), 0.0, 2.0, math.sinh(2.0)),
    (lambda x: 1.0 / x, 1.0, math.e, 1.0),
    (lambda x: np.sin(x) ** 2, 0.0, 2.0 * math.pi, math.pi),
    (lambda x: x * np.cos(x), 0.0, 3.0 * math.pi, -2.0),
]

SEMI_INFINITE_CASES = [
    (lambda x: np.exp(-x), 1.0),
    (lambda x: x * np.exp(-2.0 * x), 0.25),
    (lambda x: np.exp(-x * x), 0.5 * math.sqrt(math.pi)),
    (lambda x: x * x * np.exp(-x), 2.0),
    (lambda x: np.exp(-x) * np.sin(x), 0.5),
    (lambda x: 1.0 / (1.0 + x * x), 0.5 * math.pi),
    (lambda x: 1.0 / np.cosh(x), 0.5 * math.pi),
    (lambda y: y * log_mode_factor(0, y, 2.0), ORDER_ZERO_TERM_AT_2),
]

DEFAULT = QuadratureSpec()
CAPPED = QuadratureSpec(max_subdivisions=3)

# The march's integrands and their leading widths (tail_cut).
MARCH_CASES = {
    "exp(-x)": (lambda x: np.exp(-x), 1.0),
    "exp(-x/30)/30": (lambda x: np.exp(-x / 30.0) / 30.0, 1.0),
    "exp(-x)cos 3x": (lambda x: np.exp(-x) * np.cos(3.0 * x), 1.0),
    "exp(-x)(1-x)": (lambda x: np.exp(-x) * (1.0 - x), 1.0),
    "x^2 exp(-0.2x)": (lambda x: x * x * np.exp(-0.2 * x), 0.5),
    "1/(1+x)^6": (lambda x: 1.0 / (1.0 + x) ** 6, 1.0),
}
# (value.hex(), error_estimate.hex(), evaluations, converged) of
# integrate_semi_infinite with the default spec and with CAPPED (an
# unconverged march of three segments), as the march gave them when it
# ran one segment at a time: running segments side by side must keep
# every bit.
MARCH_PINS = {
    "exp(-x)": (
        ("0x1.0000000000000p+0", "0x1.197a8a908cebcp-46", 225, True),
        ("0x1.ff887a518f6d6p-1", "0x1.16fff0b6db8b2p-46", 45, False)),
    "exp(-x/30)/30": (
        ("0x1.0000000000000p+0", "0x1.200d0a3a969adp-46", 285, True),
        ("0x1.aa35cd9451b73p-3", "0x1.4cfa089bdfd72p-49", 45, False)),
    "exp(-x)cos 3x": (
        ("0x1.9999999999998p-4", "0x1.7d5f1fd96055ep-45", 675, True),
        ("0x1.9abdf854ab396p-4", "0x1.02ee0f5e942e1p-47", 165, False)),
    "exp(-x)(1-x)": (
        ("0x1.1d16297147eb5p-55", "0x1.ff5ceebcec503p-44", 255, True),
        ("0x1.a253e28a01480p-8", "0x1.fcc20e497fc98p-44", 45, False)),
    "x^2 exp(-0.2x)": (
        ("0x1.f3fffffffffffp+7", "0x1.5cb00f44123e4p-31", 240, True),
        ("0x1.1121f6dbac67ep+3", "0x1.aac511b73d625p-44", 45, False)),
    "1/(1+x)^6": (
        ("0x1.9999999999999p-3", "0x1.af79c2c2d5cdep-40", 345, True),
        ("0x1.9996666666666p-3", "0x1.af71e6b2e5a97p-40", 135, False)),
}
# x^2 exp(-0.2x) at the batch's leading width 1.0, in the same layout.
QUADRATIC_AT_UNIT_CUT = (
    ("0x1.f3ffffffffffdp+7", "0x1.c439925963de2p-31", 225, True),
    ("0x1.4d01287802aa1p+5", "0x1.0428e79dc214ep-41", 45, False))


def _pinned(result):
    return (result.value.hex(), result.error_estimate.hex(),
            result.evaluations, result.converged)


def _assert_honest(result, exact, spec):
    true_error = abs(result.value - exact)
    assert result.converged
    assert true_error <= max(spec.abs_tol, spec.rel_tol * abs(exact))
    assert true_error <= 10.0 * result.error_estimate + 1e-13 * (
        1.0 + abs(exact)
    )


@pytest.mark.parametrize("f,lo,hi,exact", FINITE_CASES)
def test_finite_integrals_converge_within_tolerance(f, lo, hi, exact):
    _assert_honest(integrate_finite(f, lo, hi), exact, DEFAULT)


@pytest.mark.parametrize("f,exact", SEMI_INFINITE_CASES)
def test_semi_infinite_integrals_converge_within_tolerance(f, exact):
    _assert_honest(integrate_semi_infinite(f), exact, DEFAULT)


def test_error_estimate_within_requested_tolerance_on_success():
    result = integrate_finite(lambda x: np.sin(x), 0.0, math.pi)
    assert result.error_estimate <= max(
        DEFAULT.abs_tol, DEFAULT.rel_tol * abs(result.value)
    )


def test_divergent_integrand_raises():
    """Non-integrable pole inside the range: refuse, never fake a value."""
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            integrate_finite(
                lambda t: np.sin(t) / (0.1 + 0.1 * np.sin(t)) ** 4,
                0.0,
                2.0 * math.pi,
            )


def test_non_finite_integrand_raises_with_location():
    def bad(x):
        out = np.ones_like(x)
        out[x > 0.5] = np.nan
        return out

    with pytest.raises(ValueError, match="non-finite"):
        integrate_finite(bad, 0.0, 1.0)


def test_results_are_deterministic():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)  # noqa: E731
    first = integrate_semi_infinite(f)
    second = integrate_semi_infinite(f)
    assert first == second


def test_scaled_record_scales_value_and_error_size():
    part = QuadratureResult(2.5, 0.25, 45, False)
    assert part.scaled(-3.0) == QuadratureResult(-7.5, 0.75, 45, False)


def test_budget_exhaustion_reports_non_convergence():
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-14, max_subdivisions=3)
    result = integrate_finite(
        lambda x: np.sin(51.0 * x), 0.0, math.pi, spec
    )
    assert not result.converged
    assert math.isfinite(result.value)


def test_tail_cut_controls_leading_panel():
    """A matched tail_cut must not change the converged answer."""
    wide = integrate_semi_infinite(
        lambda x: np.exp(-x / 30.0) / 30.0, tail_cut=30.0)
    default = integrate_semi_infinite(lambda x: np.exp(-x / 30.0) / 30.0)
    assert wide.converged and default.converged
    assert wide.value == pytest.approx(1.0, rel=1e-9)
    assert default.value == pytest.approx(1.0, rel=1e-9)


def test_batch_matches_each_integral_alone():
    """Lockstep integrals return exactly their one-at-a-time results."""
    decays = np.array([0.3, 1.0, 2.5, 7.0])

    def batched(x, which):
        d = decays[which]
        return np.exp(-d * x) * np.cos(d * x) + x * np.exp(-x)

    results = integrate_semi_infinite_batch(batched, len(decays),
                                            tail_cut=0.5)
    assert len(results) == len(decays)
    for i, result in enumerate(results):
        alone = integrate_semi_infinite(lambda x: batched(x, i),
                                        tail_cut=0.5)
        assert result == alone
        assert result.converged


@given(params=st.lists(
    st.tuples(st.floats(min_value=0.05, max_value=20.0),
              st.floats(min_value=0.0, max_value=2.0 * math.pi)),
    min_size=1, max_size=40))
def test_batch_of_any_size_equals_each_integral_alone(params):
    """Batch sizes 1 to 40, random decays and phases: each result of a
    batch is, bit for bit, what the integral returns on its own."""
    decay, phase = map(np.array, zip(*params))

    def batched(x, which):
        return np.exp(-decay[which] * x) * np.cos(x + phase[which])

    results = integrate_semi_infinite_batch(batched, len(params))
    for i, result in enumerate(results):
        assert result == integrate_semi_infinite(
            lambda x: np.exp(-decay[i] * x) * np.cos(x + phase[i]))


def test_batch_inside_an_integrand_equals_a_loop_of_integrals():
    """An outer integral whose integrand runs a batch of inner integrals,
    one per outer node (the double-integral route's shape), returns what
    the same integrand gives as a loop of single integrals.

    integral_0^inf dk integral_0^inf ds e^-(s + k) cos(k s)
      = integral_0^inf e^-k / (1 + k^2) dk
      = Ci(1) sin 1 + (pi/2 - Si(1)) cos 1.
    """
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)

    def inner(s, k):
        return np.exp(-(s + k)) * np.cos(k * s)

    def batched(ks):
        parts = integrate_semi_infinite_batch(
            lambda s, which: inner(s, ks[which]), len(ks), spec)
        return np.array([part.value for part in parts])

    def looped(ks):
        return np.array([
            integrate_semi_infinite(lambda s: inner(s, k), spec).value
            for k in ks])

    nested = integrate_semi_infinite(batched, spec)
    assert nested == integrate_semi_infinite(looped, spec)
    si, ci = sici(1.0)
    exact = ci * math.sin(1.0) + (0.5 * math.pi - si) * math.cos(1.0)
    assert nested.converged
    assert nested.value == pytest.approx(exact, rel=1e-6)

def test_batch_errors_raise():
    """A non-finite value or a wrong shape in any integral is refused."""
    def poisoned(x, which):
        out = np.exp(-x)
        out[(which == 1) & (x > 2.0)] = np.inf
        return out

    with pytest.raises(ValueError, match="non-finite"):
        integrate_semi_infinite_batch(poisoned, 3)
    with pytest.raises(ValueError, match="one value per abscissa"):
        integrate_semi_infinite_batch(lambda x, which: np.exp(-x[:-1]), 3)
    with pytest.raises(ValueError, match="count"):
        integrate_semi_infinite_batch(lambda x, which: np.exp(-x), 0)


def test_bound_validation():
    f = lambda x: np.ones_like(x)  # noqa: E731
    with pytest.raises(ValueError):
        integrate_finite(f, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_finite(f, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate_finite(f, math.nan, 1.0)


def test_spec_validation():
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            QuadratureSpec(rel_tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            QuadratureSpec(abs_tol=tol)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError, match="tail_cut"):
        integrate_semi_infinite(lambda x: np.exp(-x), tail_cut=0.0)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="one value per abscissa"):
        integrate_finite(lambda x: np.array([1.0]), 0.0, 1.0)


@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    shift=st.floats(min_value=-5.0, max_value=5.0),
)
@example(scale=9.0, shift=-5.0)  # the integral cancels to zero
def test_affine_exactness(scale, shift):
    """Affine integrands are integrated essentially exactly."""
    lo, hi = shift, shift + scale
    result = integrate_finite(lambda x: 2.0 * x + 1.0, lo, hi)
    exact = (hi**2 + hi) - (lo**2 + lo)
    assert result.converged
    assert result.value == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_cancelling_integral_stops_at_rounding_floor():
    """An integral of about zero cannot meet rel_tol * |value|; once the
    error estimate is at its rounding floor it converges without
    spending the bisection budget."""
    result = integrate_finite(lambda x: 2.0 * x + 1.0, -5.0, 4.0)
    assert result.converged
    assert result.evaluations == 15
    assert abs(result.value) <= result.error_estimate < 1e-12


def test_cancelling_semi_infinite_integral_converges():
    """integral_0^inf e^-x (1 - x) dx = 0: each doubling panel meets a
    tolerance relative to its own part, so the cancelled sum converges
    with an error within those tolerances."""
    result = integrate_semi_infinite(lambda x: np.exp(-x) * (1.0 - x))
    assert result.converged
    assert abs(result.value) <= result.error_estimate < 1e-12


@given(decay=st.floats(min_value=0.05, max_value=20.0))
def test_exponential_tail_families(decay):
    """integral_0^inf e^(-d x) dx = 1/d across decay scales."""
    result = integrate_semi_infinite(
        lambda x: np.exp(-decay * x), tail_cut=1.0 / decay)
    assert result.converged
    assert result.value == pytest.approx(1.0 / decay, rel=1e-9)


@pytest.mark.parametrize("capped", [False, True], ids=["default", "capped"])
@pytest.mark.parametrize("name", list(MARCH_CASES))
def test_march_is_pinned_bit_for_bit(name, capped):
    f, tail_cut = MARCH_CASES[name]
    result = integrate_semi_infinite(f, CAPPED if capped else DEFAULT,
                                     tail_cut=tail_cut)
    assert _pinned(result) == MARCH_PINS[name][capped]


@pytest.mark.parametrize("capped", [False, True], ids=["default", "capped"])
def test_march_batch_is_pinned_bit_for_bit(capped):
    """All six integrands in one batch, at the shared leading width 1.0."""
    fs = [f for f, _ in MARCH_CASES.values()]

    def batched(x, which):
        out = np.empty_like(x)
        for i, f in enumerate(fs):
            out[which == i] = f(x[which == i])
        return out

    results = integrate_semi_infinite_batch(batched, len(fs),
                                            CAPPED if capped else DEFAULT)
    expected = [QUADRATIC_AT_UNIT_CUT[capped] if name == "x^2 exp(-0.2x)"
                else pins[capped] for name, pins in MARCH_PINS.items()]
    assert [_pinned(result) for result in results] == expected


def test_march_evaluates_nothing_past_its_stop():
    """exp(-x) stops after [63, 127]; an integrand that is NaN beyond it
    gives the clean result, so no later segment was ever started."""
    clean = integrate_semi_infinite(lambda x: np.exp(-x))
    assert integrate_semi_infinite(
        lambda x: np.where(x > 127.0, np.nan, np.exp(-x))) == clean


def test_march_segments_share_rounds():
    """exp(-x) takes seven segments; a later segment starts as soon as
    the march is sure to need it, beside the ones still bisecting."""
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(-x)

    assert integrate_semi_infinite(f).evaluations == 225
    assert len(calls) == 6
