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

* orders ``n <= 40``: the scaled routines of :mod:`scipy.special`
  (``ive``/``kve``), accurate to a few 1e-14 in relative terms over the
  domain used here.  One ``ive`` call at orders ``n, n+1`` and one ``kve``
  call at orders ``|n-1|, n`` give the derivatives through

  .. math::

      I_n'(x) = I_{n+1}(x) + \tfrac{n}{x} I_n(x), \qquad
      -K_n'(x) = K_{n-1}(x) + \tfrac{n}{x} K_n(x),

  sums of positive terms, so nothing cancels;
* orders ``n >= 41``: the uniform large-order expansions of
  :math:`I_n, K_n` and of :math:`I_n', K_n'` (DLMF 10.41.3-4, polynomials
  :math:`u_k` and :math:`v_k`) carried to eighth order in ``1/n``,
  evaluated directly in log space from one shared phase.

The order is either one integer or an int array matching the argument
array, one order per point, so a single call serves a block of angular
orders.  Each point then takes the regime of its own order, and its
arithmetic is exactly that of a one-order call: the Debye series rows and
constants are formed once per distinct order and gathered per point, and
``ive``/``kve`` take the order array as it is.

Derivatives are never taken by finite differences.  The two regimes agree
in their overlap window to better than 1e-12 relative, which the
test-suite checks explicitly (the contract is 1e-10).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
# accurate; below it ive/kve never leave the double range for x >= 1e-8.
_SCIPY_ORDER_MAX = 40

# Coefficient tables of the Debye polynomials u_k(t) and v_k(t), k = 0..8,
# stored as
#   u_k(t) = t**k * sum_j _UK[k][j] * t**(2*j)   (same layout for _VK).
# Generated from the recurrence
#   u_{k+1} = t^2 (1-t^2) u_k' / 2 + (1/8) \int_0^t (1-5 s^2) u_k ds
# and from v_k = u_k + t (t^2-1) (u_{k-1}/2 + t u_{k-1}') (DLMF 10.41.11)
# by scripts/gen_debye_tables.py, which the tests check bitwise.
_UK = (
    (1.0,),
    (0.125, -0.20833333333333334),
    (0.0703125, -0.4010416666666667, 0.3342013888888889),
    (0.0732421875, -0.8912109375, 1.8464626736111112, -1.0258125964506173),
    (0.112152099609375, -2.3640869140625, 8.78912353515625,
     -11.207002616222994, 4.669584423426247),
    (0.22710800170898438, -7.368794359479632, 42.53499874538846,
     -91.81824154324002, 84.63621767460073, -28.212072558200244),
    (0.5725014209747314, -26.491430486951554, 218.1905117442116,
     -699.5796273761325, 1059.9904525279999, -765.2524681411817,
     212.57013003921713),
    (1.7277275025844574, -108.09091978839466, 1200.9029132163525,
     -5305.646978613403, 11655.393336864534, -13586.550006434138,
     8061.722181737309, -1919.457662318407),
    (6.074042001273483, -493.915304773088, 7109.514302489364,
     -41192.65496889755, 122200.46498301746, -203400.17728041555,
     192547.00123253153, -96980.59838863752, 20204.29133096615),
)
_VK = (
    (1.0,),
    (-0.375, 0.2916666666666667),
    (-0.1171875, 0.515625, -0.3949652777777778),
    (-0.1025390625, 1.0892578125, -2.1305338541666665, 1.1464964313271604),
    (-0.144195556640625, 2.7939208984375, -9.961006673177083,
     12.386687102141204, -5.0756352428546165),
    (-0.2775764465332031, 8.502455030168806, -47.53911624484592,
     100.56283597592954, -91.40711508856879, 30.15773273462785),
    (-0.6765925884246826, 30.023621218545095, -241.15793403307597,
     760.412638452318, -1138.5082638263702, 814.6235951180321,
     -224.71699461288668),
    (-1.993531733751297, 120.80749858702931, -1315.2746192369575,
     5730.098736902475, -12459.213566993121, 14409.977279551358,
     -8497.490948317705, 2013.0897434071098),
    (-6.883914268109947, 545.9063894860446, -7727.732937488438,
     44243.96274437144, -130084.36594966374, 215023.04455358215,
     -202421.2064239434, 101491.32389508576, -21064.0484088796),
)


def _series_basis() -> np.ndarray:
    """B[k] with sum_k B[k] / n**k the rows (even u, even v, odd u, odd v).

    Each row holds coefficients in powers of s = t**2, highest power first
    as Horner's rule takes them.  The sum over k >= 1 of u_k(t)/n^k splits
    into its even-k part and t times its odd-k part, both polynomials in s;
    the I series is even + t*odd and the K series, whose terms alternate as
    (-1)^k, is even - t*odd.  The k = 0 term (the leading 1) is left out so
    that the series feed ``log1p``.
    """
    width = max(len(row) + k // 2 for k, row in enumerate(_UK))
    basis = np.zeros((len(_UK), 4, width))
    for k in range(1, len(_UK)):
        for col, table in enumerate((_UK, _VK)):
            row = 2 * (k % 2) + col
            coeffs = table[k]
            basis[k, row, k // 2:k // 2 + len(coeffs)] = coeffs
    return basis[:, :, ::-1].copy()


_SERIES_BASIS = _series_basis()


@functools.lru_cache(maxsize=4096)
def _debye_constants(n: int):
    """The order-n series rows, sum_k B[k] / n**k, and the ln i, ln k constants."""
    nu = float(n)
    inv = 1.0 / nu
    coeffs = sum(_SERIES_BASIS[k] * inv**k
                 for k in range(1, len(_SERIES_BASIS)))
    coeffs.flags.writeable = False   # shared by every caller through the cache
    return (coeffs, -0.5 * math.log(2.0 * math.pi * nu),
            0.5 * math.log(math.pi / (2.0 * nu)))


def _validate_order_argument(n, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.ndim(n) == 0:
        if n != int(n):
            raise ValueError(f"order must be an integer, got {n!r}")
    elif np.asarray(n).dtype.kind not in "iu" or np.shape(n) != x.shape:
        raise ValueError("an order array must hold integers and match the "
                         "argument's shape")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("argument must be finite and strictly positive")
    return x


def _log_ik_debye(n, x: np.ndarray):
    r"""(ln i_n, ln k_n, ln i_n', ln |k_n'|) from the uniform expansions.

    ``n`` is one order or an int array of orders matching ``x``.
    With :math:`z = x/n`, :math:`t = (1+z^2)^{-1/2}` and the phase
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
    are evaluated together by one Horner pass in :math:`t^2`.  An order
    array has its series rows and constants formed once per distinct
    order and gathered per point, so each point's arithmetic is that of
    its order alone.
    """
    if np.ndim(n) == 0:
        nu = float(n)
        coeffs, c_i, c_k = _debye_constants(n)
        coeffs = coeffs.reshape((4, -1) + (1,) * x.ndim)
    else:
        # the distinct orders and each point's index among them, unsorted
        offset = n - n.min()
        present = np.bincount(offset.ravel()) > 0
        where = (np.cumsum(present) - 1)[offset]
        distinct = np.flatnonzero(present) + n.min()
        rows, c_i, c_k = zip(*map(_debye_constants, distinct.tolist()))
        nu = n.astype(float)
        coeffs = np.stack(rows, axis=-1)[..., where]
        c_i = np.array(c_i)[where]
        c_k = np.array(c_k)[where]
    z = x / nu
    hyp = np.hypot(1.0, z)
    t = 1.0 / hyp
    s = t * t
    lead = nu * (1.0 / (hyp + z) - np.arcsinh(1.0 / z))
    acc = coeffs[:, 0]
    for c in coeffs[:, 1:].swapaxes(0, 1):
        acc = acc * s + c
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


def _log_ik_scipy(n, x: np.ndarray):
    """(ln i_n, ln k_n, ln i_n', ln |k_n'|) from one ive and one kve call.

    ``n`` is one order or an int array of orders matching ``x``.
    """
    def stacked(a, b):
        pair = np.stack((a, b))
        return pair.reshape(pair.shape + (1,) * (x.ndim + 1 - pair.ndim))

    iv = _sp.ive(stacked(n, n + 1), x)
    kv = _sp.kve(stacked(abs(n - 1), n), x)
    n_over_x = n / x
    kprime = kv[0] + n_over_x * kv[1]
    if np.any(iv <= 0.0) or not np.all(np.isfinite(kprime)):
        bad = (iv <= 0.0).any(axis=0) | ~np.isfinite(kprime)
        raise OverflowError(
            "scaled Bessel pair left the double range at order "
            f"{np.broadcast_to(n, x.shape)[bad].max()}"
        )
    return (np.log(iv[0]), np.log(kv[1]),
            np.log(iv[1] + n_over_x * iv[0]), np.log(kprime))


def _pair_logs(n, x: np.ndarray, regime_order: int | None = None):
    """Return (log i_n, log k_n, log i_n', log |k_n'|) at orders n >= 0.

    ``n`` is one order or an int array matching ``x``; each point takes
    the regime of its order, or that of the scalar ``regime_order``.
    """
    sel = n if regime_order is None else regime_order
    if np.ndim(sel) == 0:
        if sel <= _SCIPY_ORDER_MAX:
            return _log_ik_scipy(n, x)
        return _log_ik_debye(n, x)
    small = sel <= _SCIPY_ORDER_MAX
    if small.all():
        return _log_ik_scipy(n, x)
    if not small.any():
        return _log_ik_debye(n, x)
    logs = np.empty((4,) + x.shape)
    logs[:, small] = _log_ik_scipy(n[small], x[small])
    logs[:, ~small] = _log_ik_debye(n[~small], x[~small])
    return tuple(logs)


def _log_ik(n: int, x: np.ndarray, *, regime_order: int | None = None):
    """Logs of (i_n, k_n) alone, through the regime of ``regime_order``.

    ``regime_order`` lets the tests evaluate one order through either
    regime to compare them on their overlap.
    """
    return _pair_logs(n, x, regime_order)[:2]


def _checked_exp(log_value, what: str):
    with np.errstate(over="ignore"):
        value = np.exp(log_value)
    if np.any(np.isinf(value)):
        raise OverflowError(
            f"{what} is not representable in double precision "
            f"(log value {np.max(log_value):.6g}); work with the log fields"
        )
    return value


@dataclass(frozen=True)
class ScaledBesselPair:
    """The four exponentially scaled Bessel values at one (order, argument).

    The primary representation is logarithmic: ``log_i``/``log_k`` hold
    ``ln(e^{-x} I_n(x))`` and ``ln(e^{+x} K_n(x))``, and
    ``log_iprime``/``log_kprime`` the logs of the *magnitudes* of the
    scaled derivatives (``K_n'`` is negative for every ``n, x > 0``; the
    accessor restores the sign).  The plain-value accessors raise
    ``OverflowError`` instead of silently saturating when a value lies
    outside the double range, which happens for n >> x.
    """

    order: int
    argument: float
    log_i: float
    log_k: float
    log_iprime: float
    log_kprime: float

    @property
    def i_scaled(self) -> float:
        """e^{-x} I_n(x)."""
        return float(_checked_exp(self.log_i, "scaled I"))

    @property
    def k_scaled(self) -> float:
        """e^{+x} K_n(x)."""
        return float(_checked_exp(self.log_k, "scaled K"))

    @property
    def i_prime_scaled(self) -> float:
        """e^{-x} I_n'(x) (positive)."""
        return float(_checked_exp(self.log_iprime, "scaled I'"))

    @property
    def k_prime_scaled(self) -> float:
        """e^{+x} K_n'(x) (negative)."""
        return -float(_checked_exp(self.log_kprime, "scaled K'"))

    def i_unscaled(self) -> float:
        """I_n(x) itself; raises OverflowError outside the double range."""
        return float(_checked_exp(self.log_i + self.argument, "unscaled I"))

    def k_unscaled(self) -> float:
        """K_n(x) itself; raises OverflowError outside the double range."""
        return float(_checked_exp(self.log_k - self.argument, "unscaled K"))

    def wronskian(self) -> float:
        """i k' - i' k, formed in log space; equals -1/x identically."""
        return -float(
            np.exp(self.log_i + self.log_kprime)
            + np.exp(self.log_iprime + self.log_k)
        )


def scaled_modified_bessel(n: int, x: float) -> ScaledBesselPair:
    """Scaled modified Bessel pair with derivatives at integer order n.

    Parameters
    ----------
    n : int
        Order; negative orders are folded onto positive ones through
        I_{-n} = I_n, K_{-n} = K_n.
    x : float
        Argument, finite and > 0.

    Returns
    -------
    ScaledBesselPair
    """
    xa = _validate_order_argument(n, x)
    if xa.ndim != 0:
        raise ValueError("scaled_modified_bessel expects a scalar argument")
    n = abs(int(n))
    log_i, log_k, log_iprime, log_kprime = _pair_logs(n, xa)
    return ScaledBesselPair(
        order=n,
        argument=float(xa),
        log_i=float(log_i),
        log_k=float(log_k),
        log_iprime=float(log_iprime),
        log_kprime=float(log_kprime),
    )


def _ratio_logs(n, y: np.ndarray, ratio: float):
    """Both log-ratios for a 1-d ``y``, and the four logs at ``ratio * y``."""
    m = len(y)
    orders = abs(int(n)) if np.ndim(n) == 0 else np.tile(np.abs(n), 2)
    li, lk, lip, lkp = _pair_logs(orders, np.concatenate((y, ratio * y)))
    damping = -2.0 * y * (ratio - 1.0)
    lrd = damping + (li[:m] - li[m:]) + (lk[m:] - lk[:m])
    lrn = damping + (lip[:m] - lip[m:]) + (lkp[m:] - lkp[:m])
    return lrd, lrn, (li[m:], lk[m:], lip[m:], lkp[m:])


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
    y, ratio, scalar = _validate_ratio_args(n, y, ratio)
    lrd, lrn, _ = _ratio_logs(n, y, ratio)
    if scalar:
        return lrd.item(), lrn.item()
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
    y, ratio, scalar = _validate_ratio_args(n, y, ratio)
    lrd, lrn, (li, lk, lip, lkp) = _ratio_logs(n, y, ratio)
    x = ratio * y
    d_lrd = -y * (np.exp(lkp - lk) + np.exp(lip - li))
    d_lrn = -y * (1.0 + (n / x) ** 2) * (np.exp(lk - lkp) + np.exp(li - lip))
    if scalar:
        return lrd.item(), lrn.item(), d_lrd.item(), d_lrn.item()
    return lrd, lrn, d_lrd, d_lrn


def _validate_ratio_args(n, y, ratio):
    ratio = _validate_ratio(ratio)
    scalar = np.isscalar(y) or getattr(y, "ndim", 0) == 0
    ya = _validate_order_argument(n, y)
    return np.atleast_1d(ya), ratio, scalar
