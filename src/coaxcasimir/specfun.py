r"""Exponentially scaled modified Bessel functions and reflection ratios.

The electromagnetic modes of an annular waveguide separate, at imaginary
frequency, into radial profiles built from the modified Bessel functions
:math:`I_n` and :math:`K_n`.  Everything in this module works with the
exponentially scaled variants

.. math::

    i_n(x) = e^{-x} I_n(x), \qquad k_n(x) = e^{+x} K_n(x),

or rather with their *logarithms*, because for orders :math:`n \gg x` the
scaled values themselves leave the double range (:math:`i_n` underflows
while :math:`k_n` overflows, even though every physically relevant
combination of the two stays tame).

Two independent evaluation regimes are implemented, each returning all
four logs -- ``ln i``, ``ln k``, ``ln i'`` and ``ln |k'|`` -- for a whole
argument array from one kernel call:

* orders ``n <= 40``: for K the upward recurrence

  .. math::

      k_{j+1}(x) = k_{j-1}(x) + \tfrac{2j}{x}\, k_j(x)
      \qquad \text{(DLMF 10.29.1)}

  to orders ``|n-1|, n, n+1``, stable upward because :math:`K_j` grows
  with j.  It starts from the package's own :math:`k_0, k_1`: for
  x <= 2 their power series (DLMF 10.31.1-2, with :math:`I_0, I_1` from
  DLMF 10.25.2), whose coefficients are harmonic numbers, less Euler's
  constant for K, over factorials, built at import as exact rationals;
  for x > 2 Chebyshev series of :math:`\sqrt x\, k_0` and
  :math:`\sqrt x\, k_1` in :math:`t = 4/x - 1`, 25 terms each,
  committed as float literals that ``tests/oracles.py`` regenerates with
  mpmath.  Against 40-digit mpmath from 1e-300 to 1e4, :math:`k_0` errs
  by at most 1.4e-15 relative and :math:`k_1` by 7.4e-16.  For I, the
  ratio :math:`r_n = I_{n+1}/I_n` by the downward recurrence
  :math:`1/r_{j} = 2(j+1)/x + r_{j+1}`, stable for the minimal solution
  :math:`I_j`, seeded at order 41 from the uniform expansions below; and
  :math:`i_n` from the Wronskian

  .. math::

      I_n(x) K_{n+1}(x) + I_{n+1}(x) K_n(x) = \tfrac1x
      \qquad \text{(DLMF 10.28.2)},

  as :math:`i_n = 1/(x(k_{n+1} + r_n k_n))`, in which the scalings
  :math:`e^{\mp x}` cancel.  The derivatives follow from

  .. math::

      I_n'(x) = I_{n+1}(x) + \tfrac{n}{x} I_n(x), \qquad
      -K_n'(x) = K_{n-1}(x) + \tfrac{n}{x} K_n(x).

  Every one of these is a sum of positive terms, so nothing cancels.
  At 300 random points of orders 0-40 and x from 1e-2 to 400, each of
  the four logs errs by at most 4.2e-16 max(1, |log|) against 40-digit
  mpmath, and the test-suite holds them to 3e-15 max(1, |log|);
* orders ``n >= 41``: the uniform large-order expansions of
  :math:`I_n, K_n` and of :math:`I_n', K_n'` (DLMF 10.41.3-4, polynomials
  :math:`u_k` and :math:`v_k`) carried to eighth order in ``1/n``,
  evaluated directly in log space from one shared phase.  The
  polynomials are derived at import from their recurrences (DLMF
  10.41.10-11) in exact rational arithmetic, and only their finished
  coefficients are rounded to floats.

:func:`scaled_modified_bessel` returns the four logs as one record,
:class:`ScaledBesselPair`, each field shaped like the argument, and the
reflection log-ratios come back shaped like theirs.  The public functions
take an argument of any shape and one integer order or an int array of
orders matching it, one order per point, so a single call serves a block
of angular orders.  They resolve that once, at their boundary: a single
order is checked and broadcast to the argument's shape, and the kernels
below take an order per point only.  Each point takes the regime
of its own order, and its arithmetic is exactly that of a block holding
its order alone.  The Debye kernel builds one series table per call,
laid out as (term, row, order) over the call's distinct orders, and each
Horner step takes its term's contiguous block per point; the table's
powers of 1/n and the two log constants are Python float (libm)
operations per order, because NumPy's vectorized ``pow`` differs from
libm's in the last bit of some powers.  The K recurrence runs to the
block's highest order and the ratio's from order 40 down, both
elementwise.  A call at one order runs them on every point and keeps
only the rows it needs: K's last two, which are its pair, and its own
ratio.  A call at several runs them once per distinct abscissa, keeps
every row, and each point picks its values by (order, distinct
abscissa).  Each point then takes its next step.
The large-order kernel and the private ratio functions also take real
orders above 40, for which the uniform expansions hold alike; only the
mode sums' tail in :mod:`.exact` passes them, and the public functions
keep refusing a non-integral order.

Derivatives are never taken by finite differences.  The two regimes agree
in their overlap window to better than 1e-12 relative, which the
test-suite checks explicitly (the contract is 1e-10).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = [
    "ScaledBesselPair",
    "scaled_modified_bessel",
    "reflection_ratio_logs",
    "reflection_ratio_logs_dalpha",
]

# Largest order of the small-order kernel, :func:`_log_ik_scipy`.  Above
# it the uniform asymptotic expansion is both safe (no under/overflow for
# any x) and accurate.  Below it the K recurrence in values leaves the
# double range at small x (at order 40 below x of about 8.8e-7, where
# k_41 overflows; lower orders reach smaller x), and there the kernel
# carries K as ratios in log space instead (:func:`_log_ik_ratios`).
_SMALL_ORDER_MAX = 40

# Euler's constant to 40 digits, as an exact rational for the K series.
_EULER_GAMMA = Fraction("0.5772156649015328606065120900824024310422")

# Chebyshev coefficients of sqrt(x) e^x K_0(x) and sqrt(x) e^x K_1(x) in
# t = 4/x - 1, for x > 2, sum_j c_j T_j(t); regenerated at 40 digits by
# ``scaled_k01_chebyshev`` in ``tests/oracles.py``.
_K0_CHEBYSHEV = (
    1.2201515410329777,
    -0.0314481013119645,
    0.0015698838857300533,
    -0.00012849549581627802,
    1.39498137188765e-05,
    -1.8317555227191195e-06,
    2.766813639445015e-07,
    -4.660489897687948e-08,
    8.574034017414225e-09,
    -1.6975345093890614e-09,
    3.577397281400324e-10,
    -7.957489244477293e-11,
    1.8559491149546554e-11,
    -4.514597883367398e-12,
    1.1403405881884803e-12,
    -2.9800969226438275e-13,
    8.032890761452062e-14,
    -2.2275132896116804e-14,
    6.34007545281018e-15,
    -1.8485905259867923e-15,
    5.511975612080923e-16,
    -1.678001803783195e-16,
    5.203767167109018e-17,
    -1.6281896379310798e-17,
    4.724922850889063e-18,
)
_K1_CHEBYSHEV = (
    1.3603130952422213,
    0.10392373657681724,
    -0.002857816859622779,
    0.00019521551847135162,
    -1.936197974166083e-05,
    2.406484947837217e-06,
    -3.5019606030878126e-07,
    5.7410841254500495e-08,
    -1.0345762465678097e-08,
    2.0150497551970342e-09,
    -4.1903547593419213e-10,
    9.218315187605203e-11,
    -2.129967838427503e-11,
    5.1396396734747774e-12,
    -1.2891739609297575e-12,
    3.348419665515091e-13,
    -8.976705167489235e-14,
    2.4771543845631496e-14,
    -7.019835994649044e-15,
    2.0387001114819255e-15,
    -6.056961025822386e-16,
    1.837847117728872e-16,
    -5.682330136285307e-17,
    1.7731319226165262e-17,
    -5.134579953338042e-18,
)

# Highest k of the Debye polynomials u_k, v_k in the large-order
# expansions, whose series thus run to 1/n**8.
_DEBYE_ORDER = 8


def _debye_polynomials(k_max: int):
    """[u_0..u_k_max] and [v_0..v_k_max], exact coefficients of t**m.

    u_0 = v_0 = 1, and from each u_k (DLMF 10.41.10-11)

        u_{k+1} = t^2 (1 - t^2) u_k' / 2 + int_0^t (1 - 5 s^2) u_k(s) ds / 8,
        v_{k+1} = u_{k+1} + t (t^2 - 1) (u_k / 2 + t u_k').

    Termwise, c t^m in u_k puts c (m/2 + 1/(8(m+1))) on t^(m+1) and
    -c (m/2 + 5/(8(m+3))) on t^(m+3) of u_{k+1}, and c (m + 1/2) on
    t^(m+3), with the opposite sign on t^(m+1), of v_{k+1} - u_{k+1}.
    The arithmetic stays exact: a float anywhere before the final
    rounding moves some coefficients by an ulp.
    """
    us, vs = [[Fraction(1)]], [[Fraction(1)]]
    for k in range(k_max):
        u = us[k]
        u_next = [Fraction(0)] * (len(u) + 3)
        v_next = [Fraction(0)] * (len(u) + 3)
        for m, c in enumerate(u):
            u_next[m + 1] += c * (Fraction(m, 2) + Fraction(1, 8 * (m + 1)))
            u_next[m + 3] -= c * (Fraction(m, 2) + Fraction(5, 8 * (m + 3)))
            v_next[m + 3] += c * (m + Fraction(1, 2))
            v_next[m + 1] -= c * (m + Fraction(1, 2))
        us.append(u_next)
        vs.append([a + b for a, b in zip(u_next, v_next)])
    return us, vs


def _series_basis() -> np.ndarray:
    """B[k] with sum_k B[k] / n**k the rows (even u, even v, odd u, odd v).

    B[k] is laid out as (term, row): each row's coefficients are in
    powers of s = t**2, highest power first as Horner's rule takes them.
    u_k and v_k are t**(k mod 2) times a polynomial in s, so the
    coefficient of t**m goes to power m // 2 of row 2 (k mod 2) + (0 for
    u, 1 for v).  The I series is then even + t*odd and the K series,
    whose terms alternate as (-1)^k, even - t*odd.  The k = 0 term (the
    leading 1) is left out so that the series feed ``log1p``.
    """
    us, vs = _debye_polynomials(_DEBYE_ORDER)
    basis = np.zeros((_DEBYE_ORDER + 1, 3 * _DEBYE_ORDER // 2 + 1, 4))
    for k in range(1, _DEBYE_ORDER + 1):
        for col, poly in enumerate((us[k], vs[k])):
            half = poly[k % 2::2]
            basis[k, :len(half), 2 * (k % 2) + col] = list(map(float, half))
    return basis[:, ::-1].copy()


_SERIES_BASIS = _series_basis()


def _k01_series() -> np.ndarray:
    """The four power series of :func:`_scaled_k01` in q = x**2/4.

    Rows (I_0, 2 I_1 / x, K_0 + ln(x/2) I_0, and the bracketed sum of
    K_1), laid out as (term, row, 1) with the highest power first, as
    Horner's rule takes them.  Each coefficient is a harmonic number, or
    a harmonic number less Euler's constant, over factorials, built in
    exact rational arithmetic and rounded once.  Folding the constant
    into the coefficients, rather than adding ``gamma * I_0`` to the
    sums, spares the sums a cancellation that would triple their
    rounding error near x = 2.  They run to q**12: at q <= 1 the first
    term left out is below 1e-18 of its sum.
    """
    rows = []
    harmonic, factorial = Fraction(0), Fraction(1)
    for k in range(13):
        if k:
            harmonic += Fraction(1, k)
            factorial *= k
        i0 = 1 / factorial**2
        i1_half = i0 / (k + 1)
        rows.append((i0, i1_half, (harmonic - _EULER_GAMMA) * i0,
                     (_EULER_GAMMA - harmonic - Fraction(1, 2 * (k + 1)))
                     * i1_half))
    return np.array(rows[::-1], dtype=float)[:, :, None]


def _chebyshev_powers(coefficients) -> np.ndarray:
    r"""``sum_j c_j T_j(t)`` as coefficients of powers of t, highest first.

    :math:`T_{j+1} = 2t\,T_j - T_{j-1}`, from :math:`T_{-1} = T_1 = t`,
    runs in exact rational arithmetic on the float literals, and each
    power's coefficient is rounded once.  For the two K series, Horner's
    rule in powers of t is as well conditioned as Clenshaw's in
    :math:`T_j`: the power coefficients' magnitudes sum to at most 1.2
    times the smallest value of the series on [-1, 1].  It takes two
    array operations a term to Clenshaw's three.
    """
    size = len(coefficients)
    powers = [Fraction(0)] * size
    below = [Fraction(0), Fraction(1)] + [Fraction(0)] * (size - 2)
    here = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for c in map(Fraction, coefficients):
        powers = [p + c * h for p, h in zip(powers, here)]
        below, here = here, [2 * a - b for a, b
                             in zip([Fraction(0)] + here[:-1], below)]
    return np.array(powers[::-1], dtype=float)


_K01_SERIES = _k01_series()
# the two Chebyshev series in powers of t, laid out as (term, row, 1)
_K01_POWERS = np.stack([_chebyshev_powers(_K0_CHEBYSHEV),
                        _chebyshev_powers(_K1_CHEBYSHEV)], axis=1)[:, :, None]


def _debye_constants(orders):
    """The series table and the ln i, ln k constants of each distinct order.

    ``orders`` is a sequence of Python ints or floats; an integral float
    gives the bits its int gives.  The table is laid out as (term, row,
    order), so each Horner term's block is contiguous, and entry
    ``[j, r, d]`` is row r's term j of ``sum_k B[k] / n**k`` at order
    ``orders[d]``, summed in k.  The powers ``(1/n)**k`` and the two
    logs stay Python float (libm) operations per order: NumPy's
    vectorized ``pow`` differs from libm's in the last bit of about 5% of
    the powers with k >= 3, which would move table entries and with them
    pinned values.  Each entry depends on its own order only.  Built per
    call, the table costs nothing for orders never seen again, such as
    the tail's real orders in :mod:`.exact`.
    """
    nus = [float(n) for n in orders]
    invs = [1.0 / nu for nu in nus]
    table = sum(_SERIES_BASIS[k][:, :, None] * [inv**k for inv in invs]
                for k in range(1, len(_SERIES_BASIS)))
    c_i = [-0.5 * math.log(2.0 * math.pi * nu) for nu in nus]
    c_k = [0.5 * math.log(math.pi / (2.0 * nu)) for nu in nus]
    return table, np.array(c_i), np.array(c_k)


def _validate_ratio(ratio: float) -> float:
    ratio = float(ratio)
    if not math.isfinite(ratio) or ratio <= 1.0:
        raise ValueError("radius ratio must be finite and > 1")
    return ratio


def _validate_order_argument(n, x):
    """``(|n|, x)`` as an int array and a float array of one shape.

    A single order must be integral and is broadcast to ``x``'s shape; an
    order array must hold integers and match it.  Negative orders fold
    onto positive ones through I_{-n} = I_n, K_{-n} = K_n.  An infinite
    or NaN order is not an integer, and raises ``ValueError`` too.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(n) == 0:
        if not (math.isfinite(n) and n == int(n)):
            raise ValueError(f"order must be an integer, got {n!r}")
        n = np.full(x.shape, int(n))
    elif np.asarray(n).dtype.kind not in "iu" or np.shape(n) != x.shape:
        raise ValueError("an order array must hold integers and match the "
                         "argument's shape")
    # NaN fails both comparisons; an empty argument passes
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        raise ValueError("argument must be finite and strictly positive")
    return np.abs(n).astype(int, copy=False), x


def _log_ik_debye(n, x: np.ndarray):
    r"""(ln i_n, ln k_n, ln i_n', ln |k_n'|) from the uniform expansions.

    ``n`` is an array of orders >= 41 matching ``x``: integers, or real
    orders, for which the expansions hold alike (DLMF 10.41).  The
    public functions pass integers only.  With :math:`z = x/n`,
    :math:`t = (1+z^2)^{-1/2}` and the phase
    :math:`\eta = \sqrt{1+z^2} + \ln(z / (1 + \sqrt{1+z^2}))`,

    .. math::

        \ln i_n = n(\eta - z) - \tfrac14 \ln(1+z^2)
                  - \tfrac12 \ln(2\pi n) + \ln \Sigma_u(t),

        \ln i_n' = n(\eta - z) + \tfrac14 \ln(1+z^2) - \ln z
                  - \tfrac12 \ln(2\pi n) + \ln \Sigma_v(t),

    and analogously for :math:`k_n` and :math:`|k_n'|` with the sign of
    the phase and of the odd series terms flipped and
    :math:`\tfrac12 \ln(\pi/2n)` as constant.  The combination
    :math:`\eta - z` is formed once, from ``1/(hypot(1,z)+z) -
    asinh(1/z)`` to avoid cancellation at large ``z``; all four series
    are evaluated together by one Horner pass in :math:`t^2`.  The series
    table and constants are formed once per call for its distinct orders
    (:func:`_debye_constants`); each Horner step takes its term's
    (rows, orders) block per point and updates the accumulator in place,
    so each point's arithmetic is that of its order alone and no
    (terms x rows x points) array is formed.
    """
    # the distinct orders and each point's index among them, by a set,
    # which pages in less of NumPy than a sort of the orders would
    distinct = sorted(set(n.ravel().tolist()))
    where = np.searchsorted(distinct, n)
    table, c_i, c_k = _debye_constants(distinct)
    nu = n.astype(float)
    c_i = c_i[where]
    c_k = c_k[where]
    z = x / nu
    hyp = np.hypot(1.0, z)
    t = 1.0 / hyp
    s = t * t
    lead = nu * (1.0 / (hyp + z) - np.arcsinh(1.0 / z))
    acc = table[0].take(where, axis=1)
    for term in table[1:]:
        acc *= s
        acc += term.take(where, axis=1)
    even, odd = acc[:2], acc[2:] * t
    log_plus = np.log1p(even + odd)      # I and I' series
    log_minus = np.log1p(even - odd)     # K and K' series
    quarter = 0.25 * np.log1p(z * z)
    log_i = lead - quarter + c_i + log_plus[0]
    log_k = -lead - quarter + c_k + log_minus[0]
    prime = quarter - np.log(z)
    log_iprime = lead + prime + c_i + log_plus[1]
    log_kprime = -lead + prime + c_k + log_minus[1]
    return log_i, log_k, log_iprime, log_kprime


def _scaled_k01(x: np.ndarray) -> np.ndarray:
    r"""(k_0, k_1) = e^x (K_0(x), K_1(x)), stacked on a new leading axis.

    For x <= 2, the power series of DLMF 10.31.1-2 in :math:`q = x^2/4`,

    .. math::

        K_0 = -\ln(x/2)\, I_0 + \sum_k (H_k - \gamma)
              \frac{q^k}{(k!)^2}, \qquad
        K_1 = \frac1x + \frac x2 \Big[\ln(x/2)\, \frac{2 I_1}{x}
              + \sum_k \Big(\gamma - \frac{H_k + H_{k+1}}2\Big)
              \frac{q^k}{k!\,(k+1)!}\Big],

    with :math:`I_0` and :math:`2I_1/x` from DLMF 10.25.2 and
    :math:`H_k` the harmonic numbers, all four series in one Horner pass
    over ``_K01_SERIES``.  For x > 2, the Chebyshev series of
    :math:`\sqrt x\, k_0` and :math:`\sqrt x\, k_1` in :math:`t = 4/x - 1`
    (``_K0_CHEBYSHEV``, ``_K1_CHEBYSHEV``), both in one Horner pass in
    powers of t (:func:`_chebyshev_powers`).  Past the double range,
    below x of about 5.6e-309, ``k_1`` is not finite, nor is ``k_0`` where
    x/2 underflows to 0; neither warns.
    """
    flat = x.reshape(-1)
    k = np.empty((2, flat.size))
    # index arrays on the flat argument gather and scatter faster than
    # boolean masks on a stacked one
    near = np.flatnonzero(flat <= 2.0)
    far = np.flatnonzero(flat > 2.0)
    u = flat[near]
    q = 0.25 * u * u
    acc = _K01_SERIES[0] * q
    acc += _K01_SERIES[1]
    for term in _K01_SERIES[2:]:
        acc *= q
        acc += term
    i0, i1_half, k0_part, k1_part = acc
    scale = np.exp(u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_half = np.log(0.5 * u)
        k[0, near] = (k0_part - log_half * i0) * scale
        k[1, near] = (1.0 / u + (0.5 * u) * (log_half * i1_half + k1_part)
                      ) * scale
    u = flat[far]
    t = 4.0 / u - 1.0
    acc = _K01_POWERS[0] * t
    acc += _K01_POWERS[1]
    for term in _K01_POWERS[2:]:
        acc *= t
        acc += term
    k[:, far] = acc / np.sqrt(u)
    return k.reshape((2,) + x.shape)


@functools.cache
def _seed_series(m: int) -> np.ndarray:
    """:func:`_debye_constants`'s series table at one order, as (term,
    row), kept per order: every call of the small-order kernel seeds at
    order 41."""
    return _debye_constants([m])[0][:, :, 0]


def _debye_ratio(m: int, x: np.ndarray) -> np.ndarray:
    r""":math:`r_m = I_{m+1}(x)/I_m(x)` at one order m >= 41.

    With :math:`z = x/m`, the uniform expansions (DLMF 10.41.3-4) give
    :math:`I_m'/I_m = (\sqrt{1+z^2}/z)\,\Sigma_v/\Sigma_u`, and
    :math:`I_{m+1} = I_m' - (m/x) I_m` (DLMF 10.29.2), so

    .. math::

        r_m = \big(\sqrt{1+z^2}\,\Sigma_v/\Sigma_u - 1\big) / z.

    :math:`\Sigma_u` and :math:`\Sigma_v` are the I and I' series of
    :func:`_debye_constants` at this one order (:func:`_seed_series`),
    run by Horner with its scalar coefficients.  At small z the bracket
    cancels to about :math:`z^2/2`; the first step of the downward
    recurrence adds :math:`2m/x` to it, which damps that error to
    rounding.
    """
    table = _seed_series(m)
    table = table.reshape(table.shape + (1,) * x.ndim)
    z = x / m
    hyp = np.hypot(1.0, z)
    t = 1.0 / hyp
    s = t * t
    acc = table[0] * s
    acc += table[1]
    for term in table[2:]:
        acc *= s
        acc += term
    sum_u = 1.0 + acc[0] + t * acc[2]
    sum_v = 1.0 + acc[1] + t * acc[3]
    return (hyp * sum_v / sum_u - 1.0) / z


def _ratio_rows(top: int, bottom: int, x: np.ndarray) -> np.ndarray:
    r"""The rows :math:`r_j = I_{j+1}(x)/I_j(x)`, j = bottom..top.

    :math:`1/r_j = 2(j+1)/x + r_{j+1}` (DLMF 10.29.1) is stable downward,
    because :math:`I_j` is the recurrence's minimal solution.  Each order
    j >= 40 takes one step from its own seed :math:`r_{j+1}`
    (:func:`_debye_ratio`), and every lower order runs down from
    :math:`r_{40}`, so each row depends on its own order only, never on
    ``top``.  The rows come shaped ``(top + 1 - bottom,) + x.shape``.
    """
    rows = np.empty((top + 1 - bottom,) + x.shape)
    # below x of about 1e-322, z = x/m underflows to 0 and the seed is NaN;
    # k_1 is past the double range there, so the kernel raises anyway
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = 1.0 / x
        for j in range(max(top, _SMALL_ORDER_MAX), bottom - 1, -1):
            above = (_debye_ratio(j + 1, x) if j >= _SMALL_ORDER_MAX
                     else ratio)
            ratio = 1.0 / ((2.0 * (j + 1)) * inverse + above)
            if j <= top:
                rows[j - bottom] = ratio
    return rows


def _k_pair_and_ratio(n, x: np.ndarray):
    r"""(k_{|n-1|}, k_n, r_n) at each point, with r_n = I_{n+1}/I_n.

    K comes by the upward recurrence
    :math:`k_{j+1} = k_{j-1} + (2j/x)\,k_j` (DLMF 10.29.1; the factor
    :math:`e^{x}` is common to every term) from :func:`_scaled_k01`,
    stable upward since :math:`K_j` grows with j, and r from
    :func:`_ratio_rows`.  The order array ``n`` matches ``x``; the K
    recurrence runs to its highest order.  At one order both run on every
    point and keep only the rows they need: the last two of K (``k_1``,
    ``k_0`` at order 0) and the order's own r.  At several they run on the
    distinct abscissae only, from ``np.unique``, keep their tables of rows,
    and each point picks its values by its order and the index of its
    abscissa.  Both are elementwise, so each point's values do not depend
    on the other orders or on which abscissae repeat.  A K that leaves the
    double range is not finite, without a warning.
    """
    top = int(n.max())
    if top == n.min():
        ratio = _ratio_rows(top, top, x)[0]
        below, k_n = _scaled_k01(x)
        if top == 0:
            return k_n, below, ratio
        with np.errstate(over="ignore"):
            for j in range(1, top):
                below, k_n = k_n, below + (2.0 * j / x) * k_n
        return below, k_n, ratio
    distinct, point = np.unique(x, return_inverse=True)
    point = point.reshape(x.shape)
    k = np.empty((top + 1, distinct.size))
    k[:2] = _scaled_k01(distinct)
    with np.errstate(over="ignore"):
        for j in range(1, top):
            k[j + 1] = k[j - 1] + (2.0 * j / distinct) * k[j]
    # each point's values from the flattened (order, distinct abscissa)
    # tables
    k = k.reshape(-1)
    own = n * distinct.size + point
    return (k[np.abs(n - 1) * distinct.size + point], k[own],
            _ratio_rows(top, 0, distinct).reshape(-1)[own])


def _log_ik_scipy(n, x: np.ndarray):
    r"""(ln i_n, ln k_n, ln i_n', ln |k_n'|) from K and the ratio r_n.

    The small-order kernel.  It keeps the name of the SciPy routines it
    once called, because the benchmark's tracer wraps it by that name.
    ``n`` is an int array of orders matching ``x``: orders up to
    ``_SMALL_ORDER_MAX`` from :func:`_pair_logs`, and higher ones in the
    tests of the regimes' overlap.  The K pair ``|n-1|, n`` and
    :math:`r_n = I_{n+1}/I_n` come from :func:`_k_pair_and_ratio`, and
    :math:`k_{n+1} = k_{|n-1|} + (2n/x)\,k_n` is the K recurrence's next
    step on the same operands, so it is bitwise the next row of its table
    (for n = 0 it is :math:`k_1`).  The Wronskian
    :math:`I_n K_{n+1} + I_{n+1} K_n = 1/x` (DLMF 10.28.2; the scalings
    :math:`e^{\mp x}` cancel) and :math:`I_n' = I_{n+1} + (n/x) I_n` then
    give

    .. math::

        i_n = \frac{1}{x\,(k_{n+1} + r_n k_n)}, \qquad
        i_n' = i_n\,(r_n + n/x),

    sums of positive terms, so nothing cancels.  At the points where K or
    i leaves the double range (x small against the order) the logs come
    from :func:`_log_ik_ratios` instead; where even that fails, below x
    of about 5.6e-309, the kernel raises ``OverflowError``.  Neither
    warns.
    """
    k_below, k_n, ratio = _k_pair_and_ratio(n, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n_over_x = n / x
        k_above = k_below + (2.0 * n / x) * k_n
        i_n = 1.0 / (x * (k_above + ratio * k_n))
        # |k_n'| <= k_{n+1}, so it is finite when k_{n+1} is
        kprime = k_below + n_over_x * k_n
        logs = (np.log(i_n), np.log(k_n),
                np.log(i_n * (ratio + n_over_x)), np.log(kprime))
        bad = ~np.isfinite(k_above) | ~(i_n > 0.0)
        if bad.any():
            for log_value, fixed in zip(
                    logs, _log_ik_ratios(n[bad], x[bad], ratio[bad])):
                log_value[bad] = fixed
            bad = ~np.isfinite(logs).all(axis=0)
            if bad.any():
                raise OverflowError(
                    "scaled Bessel pair left the double range at order "
                    f"{n[bad].max()}"
                )
    return logs


def _log_ik_ratios(n, x: np.ndarray, ratio: np.ndarray):
    r"""The four logs of :func:`_log_ik_scipy` with K kept in log space.

    The K recurrence runs on the ratios :math:`q_j = k_{j+1}/k_j =
    1/q_{j-1} + 2j/x` from :math:`q_0 = k_1/k_0`, and
    :math:`\ln k_n = \ln k_0 + \sum_{j<n} \ln q_j`, so no value leaves
    the double range where :math:`k_0, k_1` do not.  With the ratio
    :math:`r_n` the kernel's formulas read
    :math:`\ln i_n = -\ln x - \ln k_n - \ln(q_n + r_n)` and
    :math:`\ln |k_n'| = \ln k_n + \ln(k_{|n-1|}/k_n + n/x)`.  Only the
    points the recurrence in values takes past the double range come
    here, so every other point keeps that recurrence's bits.
    """
    k0, k1 = _scaled_k01(x)
    q = k1 / k0
    log_k = np.log(k0)
    # each point's q_n and k_{|n-1|}/k_n; both are q_0 at n = 0
    own, below = q.copy(), q.copy()
    for j in range(1, int(n.max()) + 1):
        log_k += np.where(n >= j, np.log(q), 0.0)
        at = n == j
        below[at] = 1.0 / q[at]
        q = 1.0 / q + (2.0 * j) / x
        own[at] = q[at]
    n_over_x = n / x
    log_i = -np.log(x) - log_k - np.log(own + ratio)
    return (log_i, log_k, log_i + np.log(ratio + n_over_x),
            log_k + np.log(below + n_over_x))


def _pair_logs(n, x: np.ndarray):
    """Return (log i_n, log k_n, log i_n', log |k_n'|) at orders n >= 0.

    ``n`` is an int array matching ``x``, or a real array of orders
    above ``_SMALL_ORDER_MAX``; each point takes the regime of its order.
    An empty argument gives four empty arrays of its shape.
    """
    if x.size == 0:
        return tuple(np.empty((4,) + x.shape))
    small = n <= _SMALL_ORDER_MAX
    if small.all():
        return _log_ik_scipy(n, x)
    if not small.any():
        return _log_ik_debye(n, x)
    logs = np.empty((4,) + x.shape)
    logs[:, small] = _log_ik_scipy(n[small], x[small])
    logs[:, ~small] = _log_ik_debye(n[~small], x[~small])
    return tuple(logs)


class ScaledBesselPair(NamedTuple):
    """The four logs of the exponentially scaled Bessel pair.

    ``log_i``/``log_k`` hold ``ln(e^{-x} I_n(x))`` and
    ``ln(e^{+x} K_n(x))``, and ``log_iprime``/``log_kprime`` the logs of
    the *magnitudes* of the scaled derivatives (``K_n'`` is negative for
    every ``n, x > 0``), each shaped like the argument.  The logs stay
    finite where the values themselves leave the double range, which
    happens for n >> x.
    """

    log_i: np.ndarray
    log_k: np.ndarray
    log_iprime: np.ndarray
    log_kprime: np.ndarray


def scaled_modified_bessel(n, x) -> ScaledBesselPair:
    """Scaled modified Bessel pair with derivatives, in log space.

    Parameters
    ----------
    n : int or int ndarray
        One order, or an order per element of ``x``; negative orders are
        folded onto positive ones through I_{-n} = I_n, K_{-n} = K_n.
    x : float or array_like
        Argument(s), finite and > 0, of any shape.

    Returns
    -------
    ScaledBesselPair
    """
    return ScaledBesselPair(*_pair_logs(*_validate_order_argument(n, x)))


def _ratio_logs(n, y: np.ndarray, ratio: float):
    """Both log-ratios, and the four logs at ``ratio * y``, shaped like ``y``.

    Takes validated arrays, or real orders >= 41 in ``n``.

    ``y`` and ``ratio * y`` go to the kernels stacked on a new leading
    axis, one call for both arguments.
    """
    li, lk, lip, lkp = _pair_logs(np.stack((n, n)), np.stack((y, ratio * y)))
    damping = -2.0 * y * (ratio - 1.0)
    lrd = damping + (li[0] - li[1]) + (lk[1] - lk[0])
    lrn = damping + (lip[0] - lip[1]) + (lkp[1] - lkp[0])
    return lrd, lrn, (li[1], lk[1], lip[1], lkp[1])


def reflection_ratio_logs(n, y, ratio: float):
    r"""Both round-trip reflection log-ratios at once (vectorized in y).

    Returns ``(log_dirichlet, log_neumann)`` as arrays matching ``y``:

    .. math::

        D_n = -2 y (\alpha - 1)
            + \ln \frac{i_n(y)\, k_n(\alpha y)}{i_n(\alpha y)\, k_n(y)},

    and :math:`N_n` the same with every function replaced by its
    derivative (the two sign flips of :math:`K'` cancel).  Both are
    strictly negative and decay linearly in y, so neither overflows.
    ``n`` is one angular order (its sign is irrelevant) or an int array
    of orders matching ``y``, one per abscissa.

    This is the fast path for energy integrands: the arguments ``y`` and
    ``ratio * y`` go to the Bessel kernel as one array, and its four logs
    at each argument are shared between the two ratios.
    """
    ratio = _validate_ratio(ratio)
    lrd, lrn, _ = _ratio_logs(*_validate_order_argument(n, y), ratio)
    return lrd, lrn


def reflection_ratio_logs_dalpha(n, y, ratio: float):
    r"""Both log-ratios and their derivatives in the radius ratio alpha.

    Returns ``(log_dirichlet, log_neumann, d_log_dirichlet,
    d_log_neumann)`` as arrays matching ``y``, from the same single kernel
    call as :func:`reflection_ratio_logs`.  Only the functions at
    :math:`x = \alpha y` depend on alpha, so

    .. math::

        \partial_\alpha D_n = y \Big[\frac{K_n'}{K_n}
            - \frac{I_n'}{I_n}\Big](x), \qquad
        \partial_\alpha N_n = y \Big[\frac{K_n''}{K_n'}
            - \frac{I_n''}{I_n'}\Big](x)
        = -y \Big(1 + \frac{n^2}{x^2}\Big)
            \Big[\frac{K_n}{|K_n'|} + \frac{I_n}{I_n'}\Big](x),

    the second through :math:`f'' = (1 + n^2/x^2) f - f'/x` (DLMF
    10.25.1), whose :math:`f'/x` terms cancel.  The scaling factors
    :math:`e^{\mp x}` cancel in each quotient, so the quotients come
    straight from differences of the scaled logs.  Both derivatives are
    negative.
    """
    ratio = _validate_ratio(ratio)
    return _ratio_logs_dalpha(*_validate_order_argument(n, y), ratio)


def _ratio_logs_dalpha(n, y: np.ndarray, ratio: float):
    """:func:`reflection_ratio_logs_dalpha` on validated arrays, or on
    real orders >= 41 in ``n``."""
    lrd, lrn, (li, lk, lip, lkp) = _ratio_logs(n, y, ratio)
    x = ratio * y
    d_lrd = -y * (np.exp(lkp - lk) + np.exp(lip - li))
    d_lrn = -y * (1.0 + (n / x) ** 2) * (np.exp(lk - lkp) + np.exp(li - lip))
    return lrd, lrn, d_lrd, d_lrn
