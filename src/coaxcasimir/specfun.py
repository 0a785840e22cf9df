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

  from ``k0e`` and ``k1e`` to orders ``|n-1|, n, n+1``.  The recurrence
  is stable upward, because :math:`K_j` grows with j: against 40-digit
  mpmath it errs by less than 3e-15 relative at orders 0-40 and x from
  1e-2 to 400, where ``kve`` errs by up to 9e-15.  For I, one call of the
  scaled :mod:`scipy.special` routine ``ive`` at order ``n+1`` only, and
  :math:`i_n` from the Wronskian

  .. math::

      I_n(x) K_{n+1}(x) + I_{n+1}(x) K_n(x) = \tfrac1x
      \qquad \text{(DLMF 10.28.2)},

  in which the scalings :math:`e^{\mp x}` cancel.  At 300 random points
  of the same range ln i errs by at most 1.9e-15 relative against
  30-digit mpmath, where ``ive`` at order n errs by 2.5e-15.  The
  derivatives follow from

  .. math::

      I_n'(x) = I_{n+1}(x) + \tfrac{n}{x} I_n(x), \qquad
      -K_n'(x) = K_{n-1}(x) + \tfrac{n}{x} K_n(x),

  sums of positive terms, so nothing cancels;
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
its order alone: the Debye series rows and constants are formed once per
distinct order and gathered per point, ``ive`` takes the order array as
it is, and the K recurrence runs to the block's highest order,
elementwise, before each point picks its pair and takes its next step.
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
from scipy import special as _sp

from .approx import _validate_ratio

__all__ = [
    "ScaledBesselPair",
    "scaled_modified_bessel",
    "reflection_ratio_logs",
    "reflection_ratio_logs_dalpha",
]

# Largest order handled by the scipy backend.  Above this the uniform
# asymptotic expansion is both safe (no under/overflow for any x) and
# accurate.  Below it the backend raises OverflowError where a value leaves
# the double range: at order 40 that happens for x below 1.2145e-6, where
# ``ive`` returns 0 for i_41 (it flags values below about 4e-305 as
# underflow), and lower orders reach smaller x.
_SCIPY_ORDER_MAX = 40

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

    Each row holds coefficients in powers of s = t**2, highest power first
    as Horner's rule takes them.  u_k and v_k are t**(k mod 2) times a
    polynomial in s, so the coefficient of t**m goes to power m // 2 of
    row 2 (k mod 2) + (0 for u, 1 for v).  The I series is then
    even + t*odd and the K series, whose terms alternate as (-1)^k,
    even - t*odd.  The k = 0 term (the leading 1) is left out so that the
    series feed ``log1p``.
    """
    us, vs = _debye_polynomials(_DEBYE_ORDER)
    basis = np.zeros((_DEBYE_ORDER + 1, 4, 3 * _DEBYE_ORDER // 2 + 1))
    for k in range(1, _DEBYE_ORDER + 1):
        for col, poly in enumerate((us[k], vs[k])):
            half = poly[k % 2::2]
            basis[k, 2 * (k % 2) + col, :len(half)] = list(map(float, half))
    return basis[:, :, ::-1].copy()


_SERIES_BASIS = _series_basis()


@functools.lru_cache(maxsize=4096)
def _debye_constants(n: float):
    """The order-n series rows, sum_k B[k] / n**k, and the ln i, ln k constants.

    ``n`` may be real; an integral float gives the bits its int gives.
    """
    nu = float(n)
    inv = 1.0 / nu
    coeffs = sum(_SERIES_BASIS[k] * inv**k
                 for k in range(1, len(_SERIES_BASIS)))
    coeffs.flags.writeable = False   # shared by every caller through the cache
    return (coeffs, -0.5 * math.log(2.0 * math.pi * nu),
            0.5 * math.log(math.pi / (2.0 * nu)))


def _validate_order_argument(n, x):
    """``(|n|, x)`` as an int array and a float array of one shape.

    A single order must be integral and is broadcast to ``x``'s shape; an
    order array must hold integers and match it.  Negative orders fold
    onto positive ones through I_{-n} = I_n, K_{-n} = K_n.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(n) == 0:
        if n != int(n):
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
    rows and constants are formed once per distinct order; each Horner
    step gathers its coefficients per point from that table, so each
    point's arithmetic is that of its order alone and no
    (rows x terms x points) array is formed.
    """
    # the distinct orders and each point's index among them, by a set,
    # which pages in less of NumPy than a sort of the orders would
    distinct = sorted(set(n.ravel().tolist()))
    where = np.searchsorted(distinct, n)
    rows, c_i, c_k = zip(*map(_debye_constants, distinct))
    nu = n.astype(float)
    table = np.stack(rows, axis=-1)
    c_i = np.array(c_i)[where]
    c_k = np.array(c_k)[where]
    z = x / nu
    hyp = np.hypot(1.0, z)
    t = 1.0 / hyp
    s = t * t
    lead = nu * (1.0 / (hyp + z) - np.arcsinh(1.0 / z))
    acc = table[:, 0, where]
    for j in range(1, table.shape[1]):
        acc = acc * s + table[:, j, where]
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


def _scaled_k_upward(n, x: np.ndarray):
    r"""(k_{|n-1|}, k_n) by upward recurrence from ``k0e`` and ``k1e``.

    :math:`k_{j+1} = k_{j-1} + (2j/x)\,k_j` (DLMF 10.29.1; the factor
    :math:`e^{x}` is common to every term) is stable upward, since
    :math:`K_j` grows with j.  The order array ``n`` matches ``x``; the
    recurrence runs to its highest order and each point picks its own
    pair.  It is elementwise, so each point's values do not depend on the
    other orders.  A value that leaves the double range becomes ``inf``
    without a warning.
    """
    top = max(int(n.max()), 1)
    k = np.empty((top + 1,) + x.shape)
    k[0] = _sp.k0e(x)
    k[1] = _sp.k1e(x)
    with np.errstate(over="ignore"):
        for j in range(1, top):
            k[j + 1] = k[j - 1] + (2.0 * j / x) * k[j]
    # each point's pair from the flattened (order, point) table
    point = np.arange(x.size).reshape(x.shape)
    k = k.reshape(-1)
    return k[np.abs(n - 1) * x.size + point], k[n * x.size + point]


def _log_ik_scipy(n, x: np.ndarray):
    r"""(ln i_n, ln k_n, ln i_n', ln |k_n'|) from one ``ive`` order and k.

    ``n`` is an int array of orders matching ``x``.  ``ive`` gives
    :math:`i_{n+1}` only.  The K pair ``|n-1|, n`` comes from
    :func:`_scaled_k_upward`, and :math:`k_{n+1} = k_{|n-1|} + (2n/x)\,k_n`
    is the recurrence's next step on the same operands, so it is bitwise
    the next row of its table (for n = 0 it is :math:`k_1`).  The
    Wronskian :math:`I_n K_{n+1} + I_{n+1} K_n = 1/x` (DLMF 10.28.2; the
    scalings :math:`e^{\mp x}` cancel) then gives

    .. math::

        i_n = \big(1/x - i_{n+1} k_n\big) / k_{n+1}.

    Both products are positive and :math:`i_n k_{n+1}` is the larger, so
    the subtraction loses at most one bit.  A value that leaves the double
    range raises ``OverflowError`` without a warning.
    """
    i_above = _sp.ive(n + 1, x)
    k_below, k_n = _scaled_k_upward(n, x)
    n_over_x = n / x
    with np.errstate(over="ignore", invalid="ignore"):
        k_above = k_below + (2.0 * n / x) * k_n
        i_n = (1.0 / x - i_above * k_n) / k_above
        # |k_n'| <= k_{n+1}, so it is finite when k_{n+1} is
        kprime = k_below + n_over_x * k_n
    bad = (i_above <= 0.0) | ~np.isfinite(k_above) | ~(i_n > 0.0)
    if bad.any():
        raise OverflowError(
            "scaled Bessel pair left the double range at order "
            f"{n[bad].max()}"
        )
    return (np.log(i_n), np.log(k_n),
            np.log(i_above + n_over_x * i_n), np.log(kprime))


def _pair_logs(n, x: np.ndarray):
    """Return (log i_n, log k_n, log i_n', log |k_n'|) at orders n >= 0.

    ``n`` is an int array matching ``x``, or a real array of orders
    above ``_SCIPY_ORDER_MAX``; each point takes the regime of its order.
    An empty argument gives four empty arrays of its shape.
    """
    if x.size == 0:
        return tuple(np.empty((4,) + x.shape))
    small = n <= _SCIPY_ORDER_MAX
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
    n, y, ratio = _validate_ratio_args(n, y, ratio)
    lrd, lrn, _ = _ratio_logs(n, y, ratio)
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
    return _ratio_logs_dalpha(*_validate_ratio_args(n, y, ratio))


def _ratio_logs_dalpha(n, y: np.ndarray, ratio: float):
    """:func:`reflection_ratio_logs_dalpha` on validated arrays, or on
    real orders >= 41 in ``n``."""
    lrd, lrn, (li, lk, lip, lkp) = _ratio_logs(n, y, ratio)
    x = ratio * y
    d_lrd = -y * (np.exp(lkp - lk) + np.exp(lip - li))
    d_lrn = -y * (1.0 + (n / x) ** 2) * (np.exp(lk - lkp) + np.exp(li - lip))
    return lrd, lrn, d_lrd, d_lrn


def _validate_ratio_args(n, y, ratio):
    """|n| and y as arrays of one shape, and the checked ratio."""
    ratio = _validate_ratio(ratio)
    n, y = _validate_order_argument(n, y)
    return n, y, ratio
