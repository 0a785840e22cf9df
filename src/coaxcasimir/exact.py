r"""Casimir energy and pressure for perfectly conducting coaxial cylinders.

Geometry: an infinite conducting cylinder of radius ``a`` inside a
conducting shell of radius ``b > a``; everything depends on the radius
ratio ``alpha = b/a`` except for trivial dimensional prefactors.  The
zero-point interaction energy per unit length is computed from the mode
condition of the annulus.  For each angular order n the Dirichlet and
Neumann round-trip reflection ratios (see :mod:`.specfun`) combine into a
mode factor

.. math::

    \ln M_n(y, \alpha) = \ln(1 - e^{D_n}) + \ln(1 - e^{N_n}),

and the dimensionless interaction energy (in units of
:math:`\hbar c L / a^2`) is the reduced single-integral mode sum

.. math::

    \hat e(\alpha) = \frac{1}{4\pi} \sum_{n=-\infty}^{\infty}
        \int_0^\infty y \, \ln M_n(y, \alpha)\, dy .

The module also carries a deliberately literal double-integral
implementation of the same quantity (axial wavenumber integral done
numerically, radial derivative by central differences) that shares no
analytic manipulation with the reduced form; the two validate each other
to better than 1e-6 in the tests.

The total energy subtracts nothing -- it *adds* the two single-cylinder
self-energy terms, whose regularized coefficient is 0.01356 per shell:

.. math::

    \hat e_C(\alpha) = \hat e(\alpha) - 0.01356\,(1 + \alpha^{-2}).

The pressure on the inner cylinder (radial force per unit area, positive
outward) follows from differentiating at fixed outer radius and, made
dimensionless with :math:`2\pi a^4 / \hbar c`, reads

.. math::

    \hat p(\alpha) = 2 \hat e(\alpha) + \alpha\, \hat e\,'(\alpha).

The derivative is taken in closed form under the integral, not by finite
differences: only the Bessel functions at :math:`\alpha y` depend on
alpha, and the reflection log-ratios' alpha-derivatives follow from the
same four Bessel logs the energy uses
(:func:`~.specfun.reflection_ratio_logs_dalpha`).  So

.. math::

    \hat e\,'(\alpha) = \frac{1}{4\pi} \sum_{n=-\infty}^{\infty}
        \int_0^\infty y \, \partial_\alpha \ln M_n(y, \alpha)\, dy ,
    \qquad
    \partial_\alpha \ln M_n = \frac{e^{D_n} \partial_\alpha D_n}
        {e^{D_n} - 1} + \frac{e^{N_n} \partial_\alpha N_n}{e^{N_n} - 1},

is a second mode sum with the same quadrature, panel scale and stopping
rule as the energy, and the pressure's error bound is
:math:`2\,\delta\hat e + \alpha\,\delta\hat e\,'`, each
:math:`\delta` the quadrature plus angular-truncation error of its sum.

Both mode sums integrate the orders in lockstep blocks: the n = 0 term
alone, then consecutive orders from n = 1 on in blocks 16 wide through
order 144 and wider beyond, up to 64 (:func:`_order_blocks`).  One
driver, :func:`_mode_sums`, runs any number of sums over the same
orders as one: each block is one
:func:`~.quadrature.integrate_semi_infinite_batch` call over the block's
orders for every sum still running, and a sum that has stopped drops out
of later blocks.  The pressure's two sums so share their lockstep
rounds, and their integrand hands the Bessel kernel each distinct
(order, y) pair of a round once, then applies the energy formula to the
energy sum's abscissae and the e' formula to those of the e' sum.  Every
order of every sum keeps its own adaptive panels and every kernel is
elementwise, so each per-order integral, and each sum, is bit for bit
what that sum alone, one order at a time, gives.  Within each
per-order integral, the doubling segments of its march run side by
side as well and fold in order (:mod:`.quadrature`): fewer rounds, the
same bits, and a segment started past the march's stop counts in no
field.  The stopping rule
reads each sum's orders one by one; the orders of its last block past
its stopping order are discarded and count in no field of its result,
and no block reaches past ``order_cap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .quadrature import (
    QuadratureSpec,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
)
from .approx import _validate_ratio
from .specfun import reflection_ratio_logs, reflection_ratio_logs_dalpha

__all__ = [
    "DEFAULT_NUMERICS",
    "ORACLE_NUMERICS",
    "HBAR_C",
    "SELF_ENERGY_COEFF",
    "ConcentricGeometry",
    "NumericsConfig",
    "EnergyResult",
    "PressureResult",
    "log_mode_factor",
    "log_mode_factor_dalpha",
    "interaction_energy",
    "interaction_energy_double_integral",
    "casimir_energy",
    "pressure_inner",
    "interaction_energy_si",
    "pressure_inner_si",
]

#: hbar * c in J m (CODATA).
HBAR_C = 3.16152677e-26

#: Regularized zero-point self-energy coefficient of one conducting
#: cylindrical shell, in units hbar c L / radius^2.
SELF_ENERGY_COEFF = 0.01356


@dataclass(frozen=True)
class ConcentricGeometry:
    """Inner radius, outer radius, and length: finite, consistent units."""

    inner_radius: float
    outer_radius: float
    length: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ValueError("require 0 < inner_radius < outer_radius")
        if not self.length > 0.0:
            raise ValueError("length must be positive")
        # a finite outer radius bounds the inner one
        if not (math.isfinite(self.outer_radius)
                and math.isfinite(self.length)):
            raise ValueError("radii and length must be finite")

    @property
    def ratio(self) -> float:
        """Radius ratio alpha = outer/inner (> 1)."""
        return self.outer_radius / self.inner_radius


@dataclass(frozen=True)
class NumericsConfig:
    """Knobs for the mode sums.

    ``order_tol`` stops the angular sum once two consecutive orders each
    contribute less than ``order_tol`` of the accumulated total;
    ``order_cap`` is the hard ceiling (hitting it sets a flag on the
    result instead of raising).  The same knobs drive the energy sum and
    the pressure's alpha-derivative sum: the derivative is analytic, so
    it needs no step of its own.
    """

    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    order_tol: float = 1e-10
    order_cap: int = 2000

    def __post_init__(self):
        if not 0.0 < self.order_tol < 1.0:
            raise ValueError("order_tol must lie in (0, 1)")
        if self.order_cap < 2:
            raise ValueError("order_cap must be at least 2")


DEFAULT_NUMERICS = NumericsConfig()

#: Width bounds of the lockstep order blocks: the block from order
#: ``first`` on has ``min(_BLOCK_MAX, max(_BLOCK_MIN, first // 8))``
#: orders.  One Bessel kernel call per regime serves the pending panels
#: of a whole block, and the orders of the last block past the stopping
#: order are wasted work (at most ``_BLOCK_MAX - 1`` orders).  Narrow
#: blocks keep that waste small where sums stop early; wide ones cut the
#: lockstep rounds near contact, where a sum needs about 1/(alpha - 1)
#: orders.  Every block through order 144 is 16 wide, so the default
#: sweep (at most 138 orders) runs the blocks it ran with a fixed width
#: of 16.  The 1,080 orders at alpha = 1.01 take 29 blocks and 187
#: lockstep rounds (one mode-factor call each, the n = 0 term's
#: included), where a fixed width of 16 takes 68 blocks and 419 rounds.
_BLOCK_MIN = 16
_BLOCK_MAX = 64

#: Looser tolerances for the double-integral route, which nests two
#: adaptive integrals per order and is meant as a cross-check at the
#: 1e-6 level, not a production path.
ORACLE_NUMERICS = NumericsConfig(
    quad=QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9),
    order_tol=4e-7,
)


@dataclass(frozen=True)
class EnergyResult:
    """Mode-sum energy with per-order breakdown and error accounting.

    ``value`` is dimensionless (units hbar c L / a^2) and negative.  The
    pressure's alpha-derivative sum reports in the same record, with a
    positive ``value`` in the same units.
    ``per_order`` holds (n, contribution) with the n >= 1 entries already
    carrying their double multiplicity, so the contributions sum to
    ``value``.  ``truncation_error`` is a geometric bound on the dropped
    angular tail; ``quad_error`` accumulates the quadrature estimates.
    """

    value: float
    per_order: tuple[tuple[int, float], ...]
    order_max: int
    quad_error: float
    truncation_error: float
    evaluations: int
    order_capped: bool
    quad_converged: bool

    @property
    def error(self) -> float:
        """The error bound: quadrature plus angular truncation."""
        return self.quad_error + self.truncation_error

    @property
    def converged(self) -> bool:
        return self.quad_converged and not self.order_capped


@dataclass(frozen=True)
class PressureResult:
    """Dimensionless pressure with the two mode sums it came from.

    ``value`` is ``2 e + alpha e'``; ``error`` bounds it by
    ``2 error_e + alpha error_e'`` (see :attr:`EnergyResult.error`).
    ``energy_result`` is the energy sum, identical to
    :func:`interaction_energy` at the same ratio and numerics, and
    ``derivative_result`` the sum for e'.
    """

    value: float
    error: float
    energy_result: EnergyResult
    derivative_result: EnergyResult

    @property
    def converged(self) -> bool:
        return (self.energy_result.converged
                and self.derivative_result.converged)


def _log1mexp(t: np.ndarray) -> np.ndarray:
    """log(1 - e^t) for t < 0, accurate at both ends."""
    t = np.minimum(t, -5e-324)
    out = np.empty_like(t)
    small = t < -math.log(2.0)
    out[small] = np.log1p(-np.exp(t[small]))
    out[~small] = np.log(-np.expm1(t[~small]))
    return out


def _energy_factor(lrd, lrn):
    """ln M_n from the Dirichlet and Neumann log-ratios."""
    return _log1mexp(lrd) + _log1mexp(lrn)


def _dalpha_factor(lrd, lrn, d_lrd, d_lrn):
    """d ln M_n / d alpha from the log-ratios and their alpha-derivatives."""
    return (np.exp(lrd) * d_lrd / np.expm1(lrd)
            + np.exp(lrn) * d_lrn / np.expm1(lrn))


def log_mode_factor(n, y, ratio: float):
    """Log of the two-polarization annulus mode factor, ln M_n(y, alpha).

    Strictly negative, increasing toward 0- as y grows; the energy
    integrand is ``y * log_mode_factor(n, y, alpha)``.

    Parameters
    ----------
    n : int or int ndarray
        Angular order (sign is irrelevant), or one order per element of
        ``y``.
    y : float or array_like
        Radial argument(s) in units of the inner radius, > 0; the result
        is shaped like ``y``.
    ratio : float
        Radius ratio alpha > 1.
    """
    return _energy_factor(*reflection_ratio_logs(n, y, ratio))


def log_mode_factor_dalpha(n, y, ratio: float):
    """Closed-form alpha-derivative of :func:`log_mode_factor`.

    Positive: the mode factor tends to 1 as the shell recedes.  Each
    polarization contributes ``e^t t' / (e^t - 1)`` for its log-ratio
    ``t < 0``, written with ``expm1`` so it stays accurate as ``t -> 0-``
    and underflows quietly to 0 as ``t -> -inf``.  Takes ``n`` as
    :func:`log_mode_factor` does.
    """
    return _dalpha_factor(*reflection_ratio_logs_dalpha(n, y, ratio))


class _OrderSum:
    """One angular sum, folded order by order, n = 0, 1, 2, ...

    :meth:`add` takes the order-n radial integral (a QuadratureResult-like
    value, error_estimate, evaluations, converged) and says whether the
    sum has stopped; :meth:`result` then assembles the EnergyResult.  The
    n = 0 term counts once and the n >= 1 terms twice.  The sum stops at
    the second consecutive order contributing less than ``order_tol`` of
    the running total, or at ``order_cap`` (flagged as capped); what was
    computed beyond it is never added and counts nowhere.
    """

    def __init__(self, cfg: NumericsConfig):
        self.cfg = cfg
        self.per_order = []
        self.total = self.quad_error = 0.0
        self.evaluations = self.small_streak = 0
        self.quad_ok = True
        self.capped = False

    def add(self, part) -> bool:
        n = len(self.per_order)
        weight = 1.0 if n == 0 else 2.0
        contrib = weight * part.value
        self.per_order.append((n, contrib))
        self.total += contrib
        self.quad_error += weight * part.error_estimate
        self.evaluations += part.evaluations
        self.quad_ok = self.quad_ok and part.converged
        if n >= 1:
            small = abs(contrib) < self.cfg.order_tol * abs(self.total)
            self.small_streak = self.small_streak + 1 if small else 0
            if self.small_streak >= 2:
                return True
        self.capped = n >= self.cfg.order_cap
        return self.capped

    def result(self) -> EnergyResult:
        # geometric bound on the dropped tail from the last two magnitudes
        raw = [abs(contrib) for _, contrib in self.per_order[-2:]]
        if len(raw) >= 2 and raw[-2] > 0.0 and raw[-1] < raw[-2]:
            q = raw[-1] / raw[-2]
            truncation = raw[-1] * q / (1.0 - q)
        else:
            truncation = raw[-1]
        return EnergyResult(
            value=self.total,
            per_order=tuple(self.per_order),
            order_max=self.per_order[-1][0],
            quad_error=self.quad_error,
            truncation_error=truncation,
            evaluations=self.evaluations,
            order_capped=self.capped,
            quad_converged=self.quad_ok,
        )


def interaction_energy(ratio: float,
                       cfg: NumericsConfig = DEFAULT_NUMERICS) -> EnergyResult:
    """Dimensionless interaction energy of the two cylinders (mode sum).

    Evaluates ``sum_n integral_0^inf y ln M_n(y, alpha) dy / (4 pi)`` with
    the semi-infinite quadrature's leading panel width set to the decay
    scale ``1/(alpha - 1)``.  The result is negative (attraction) and, in
    units of hbar c L / a^2, typically O(0.1) at alpha = 2 and grows like
    ``-(alpha - 1)^{-3}`` toward touching cylinders.

    Parameters
    ----------
    ratio : float
        Radius ratio alpha = b/a, > 1.
    cfg : NumericsConfig

    Returns
    -------
    EnergyResult
    """
    ratio = _validate_ratio(ratio)
    return _mode_sums(lambda y, n, sums: y * log_mode_factor(n, y, ratio),
                      1, ratio, cfg)[0]


def _order_blocks(order_cap: int):
    """The lockstep blocks of the orders 1 to ``order_cap``, as arrays."""
    first = 1
    while first <= order_cap:
        width = min(_BLOCK_MAX, max(_BLOCK_MIN, first // 8))
        yield np.arange(first, min(first + width, order_cap + 1))
        first += width


def _mode_sums(integrand, count: int, ratio: float,
               cfg: NumericsConfig) -> list[EnergyResult]:
    """``count`` angular sums over the same orders, run as one.

    Sum ``s`` is ``sum_n integral_0^inf integrand(y, n, s) dy / (4 pi)``:
    the batched ``integrand(y, n, sums)`` returns, for each abscissa
    ``y[j]``, the integrand of sum ``sums[j]`` at order ``n[j]``.  The
    leading panel width is the decay scale ``1/(alpha - 1)``; ``ratio``
    must already be validated.  Each sum's n = 0 term is its own
    integral; the orders from 1 on go in the blocks of
    :func:`_order_blocks`, one batched quadrature call per block over its
    orders for every sum still running.
    """
    tail_cut = 1.0 / (ratio - 1.0)
    inv_4pi = 1.0 / (4.0 * math.pi)
    sums = [_OrderSum(cfg) for _ in range(count)]
    for s, one in enumerate(sums):
        # n = 0 alone: one integral is bit for bit a batch of one.
        one.add(integrate_semi_infinite(
            lambda y: integrand(y, np.zeros(y.shape, dtype=int),
                                np.full(y.shape, s)),
            cfg.quad, tail_cut=tail_cut).scaled(inv_4pi))
    live = list(range(count))
    for orders in _order_blocks(cfg.order_cap):
        if not live:
            break
        # integral j of the block: sum live[j // width] at orders[j % width]
        width = len(orders)
        order_of, sum_of = np.tile(orders, len(live)), np.repeat(live, width)
        parts = integrate_semi_infinite_batch(
            lambda y, which: integrand(y, order_of[which], sum_of[which]),
            len(order_of), cfg.quad, tail_cut=tail_cut)
        running = []
        for k, s in enumerate(live):
            # any() adds the block's orders up to the one that stops the sum
            if not any(sums[s].add(part.scaled(inv_4pi))
                       for part in parts[k * width:(k + 1) * width]):
                running.append(s)
        live = running
    return [one.result() for one in sums]


def _pressure_integrand(ratio: float):
    """The batched integrand of the pressure's two sums, energy and e'.

    Sum 0 takes ``y ln M_n`` and sum 1 ``y d ln M_n / d alpha``.  A round's
    abscissae of both sums often coincide, so the distinct (order, y)
    pairs go to :func:`~.specfun.reflection_ratio_logs_dalpha` once; each
    formula then reads its own sum's points.  Every step is elementwise,
    so each point's value is what the sum's own integrand gives it.
    """
    def integrand(y, n, sums):
        by_pair = np.lexsort((y, n))
        ys, ns = y[by_pair], n[by_pair]
        fresh = np.empty(len(y), dtype=bool)
        fresh[:1] = True
        fresh[1:] = (ns[1:] != ns[:-1]) | (ys[1:] != ys[:-1])
        back = np.empty(len(y), dtype=int)
        back[by_pair] = np.cumsum(fresh) - 1
        logs = [part[back] for part in reflection_ratio_logs_dalpha(
            ns[fresh], ys[fresh], ratio)]
        energy = sums == 0
        out = np.empty(len(y))
        out[energy] = _energy_factor(*(a[energy] for a in logs[:2]))
        out[~energy] = _dalpha_factor(*(a[~energy] for a in logs))
        return y * out

    return integrand


def _mode_factor_dy(n: int, y: np.ndarray, ratio: float) -> np.ndarray:
    """d/dy of ln M_n by central differences; step tied to y's scale.

    Both stencil points go to :func:`log_mode_factor` in one array; at
    one order its arithmetic is elementwise, so this equals two calls.
    """
    h = np.minimum(1e-5 * (1.0 + y), 0.5 * y)
    both = log_mode_factor(n, np.concatenate((y + h, y - h)), ratio)
    return (both[:len(y)] - both[len(y):]) / (2.0 * h)


def interaction_energy_double_integral(
        ratio: float, cfg: NumericsConfig = ORACLE_NUMERICS) -> EnergyResult:
    r"""The same energy through the literal double integral (cross-check).

    Implements

    .. math::

        \hat e = -\frac{1}{2\pi^2} \sum_n w_n \int_0^\infty dk
            \int_k^\infty dy\, \sqrt{y^2 - k^2}\;
            \partial_y \ln M_n(y, \alpha)

    with the radial derivative taken by central differences and both
    integrals done numerically (inner variable s = y - k).  No partial
    integration, no exchange of integration order, no closed-form k
    integral: this route shares nothing with
    :func:`interaction_energy` beyond the mode factor itself, which makes
    the two mutually validating oracles.  Expect roughly 1e-7 relative
    accuracy at the default (looser) tolerances -- and a much larger
    runtime than the reduced form.

    The inner integrals of one outer quadrature call (the 15 or 30 k
    nodes of its pending panels) are evaluated together by
    :func:`~.quadrature.integrate_semi_infinite_batch`, which hands their
    abscissae to the mode factor in one array.  That only batches the
    work: each inner integral keeps its own adaptive panels and returns
    what it would return alone, so the route stays as independent of
    the reduced form as before.
    """
    ratio = _validate_ratio(ratio)
    tail_cut = 1.0 / (ratio - 1.0)
    prefactor = -1.0 / (2.0 * math.pi**2)

    def term(n: int):
        evaluations = 0
        all_ok = True

        def outer(ks: np.ndarray) -> np.ndarray:
            nonlocal evaluations, all_ok

            def radial(s: np.ndarray, which: np.ndarray) -> np.ndarray:
                k = ks[which]
                y = k + s
                return np.sqrt(s * (s + 2.0 * k)) * _mode_factor_dy(n, y, ratio)

            parts = integrate_semi_infinite_batch(radial, len(ks), cfg.quad,
                                                  tail_cut=tail_cut)
            evaluations += sum(part.evaluations for part in parts)
            all_ok = all_ok and all(part.converged for part in parts)
            return np.array([part.value for part in parts])

        part = integrate_semi_infinite(outer, cfg.quad, tail_cut=tail_cut)
        return replace(part.scaled(prefactor),
                       evaluations=evaluations + part.evaluations,
                       converged=part.converged and all_ok)

    one = _OrderSum(cfg)
    for n in range(cfg.order_cap + 1):
        if one.add(term(n)):
            break
    return one.result()


def _total_energy(interaction: float, ratio: float) -> float:
    """The interaction energy at ``ratio`` plus both self-energies."""
    return interaction - SELF_ENERGY_COEFF * (1.0 + ratio**-2)


def casimir_energy(ratio: float,
                   cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Total dimensionless energy: interaction plus both self-energies.

    For widely separated radii the interaction part dies off and the
    total saturates at ``-SELF_ENERGY_COEFF * (1 + ratio**-2)``.
    """
    return _total_energy(interaction_energy(ratio, cfg).value, ratio)


def pressure_inner(ratio: float,
                   cfg: NumericsConfig = DEFAULT_NUMERICS) -> PressureResult:
    """Dimensionless pressure on the inner cylinder, 2 e + alpha e'.

    Positive values push the inner surface outward (attraction toward
    the shell).  Multiply by ``HBAR_C / (2 pi a^4)`` for pascals.

    Two mode sums: the energy, exactly as :func:`interaction_energy`
    computes it, and e' from the closed-form alpha-derivative of the
    mode factor (:func:`log_mode_factor_dalpha`) through the same
    quadrature and stopping rule.  The two run as one (:func:`_mode_sums`):
    they share each block's lockstep rounds and each round's Bessel kernel
    call, which sees every distinct (order, y) pair once.  The values are
    still, bit for bit, those of each sum alone: ``energy_result`` equals
    :func:`interaction_energy` at the same ratio and numerics.  ``error``
    is the bound ``2 error_e + alpha error_e'``, and the result converged
    when both sums did.
    """
    ratio = _validate_ratio(ratio)
    energy, derivative = _mode_sums(_pressure_integrand(ratio), 2, ratio, cfg)
    return PressureResult(
        value=2.0 * energy.value + ratio * derivative.value,
        error=float(2.0 * energy.error + ratio * derivative.error),
        energy_result=energy,
        derivative_result=derivative,
    )


def interaction_energy_si(geom: ConcentricGeometry,
                          cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Interaction energy in joules for a concrete geometry in meters."""
    hat = interaction_energy(geom.ratio, cfg).value
    return hat * HBAR_C * geom.length / geom.inner_radius**2


def pressure_inner_si(geom: ConcentricGeometry,
                      cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Pressure on the inner cylinder in pascals (positive outward)."""
    hat = pressure_inner(geom.ratio, cfg).value
    return hat * HBAR_C / (2.0 * math.pi * geom.inner_radius**4)
