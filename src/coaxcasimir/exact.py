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
alone, then blocks of ``_ORDER_BLOCK`` consecutive orders from n = 1 on,
each block one :func:`~.quadrature.integrate_semi_infinite_batch` call
whose integrand hands the mode factor one order per abscissa.  Every
order keeps its own adaptive panels, so each per-order integral, and the
sum, is bit for bit what one order at a time gives.  The stopping rule
reads the orders one by one; the orders of the last block past the
stopping order are discarded and count in no field of the result, and
no block reaches past ``order_cap``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .quadrature import (
    QuadratureSpec,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
)
from .approx import _validate_ratio as _check_ratio
from .specfun import reflection_ratio_logs, reflection_ratio_logs_dalpha

__all__ = [
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
    """Inner radius, outer radius, and length, in consistent units."""

    inner_radius: float
    outer_radius: float
    length: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ValueError("require 0 < inner_radius < outer_radius")
        if not self.length > 0.0:
            raise ValueError("length must be positive")

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

#: Consecutive angular orders the reduced route integrates together, one
#: Bessel kernel call per regime serving the pending panels of all of
#: them.  Orders of the last block past the stopping order are wasted
#: work: the 30 pressures of the default sweep take 19,608 Gauss-Kronrod
#: panels with blocks of 16, 22,275 with 32 and 30,338 with 64, while
#: the 1,080 orders at alpha = 1.01 need 729 kernel calls with 16 and 387
#: with 32, at about the same time.
_ORDER_BLOCK = 16

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
    def converged(self) -> bool:
        return self.quad_converged and not self.order_capped


@dataclass(frozen=True)
class PressureResult:
    """Dimensionless pressure with the two mode sums it came from.

    ``value`` is ``2 e + alpha e'``; ``error`` bounds it by
    ``2 (quad + truncation)_e + alpha (quad + truncation)_e'``.
    ``energy_result`` is the energy sum, identical to
    :func:`interaction_energy` at the same ratio and numerics, and
    ``derivative_result`` the sum for e'.
    """

    value: float
    error: float
    energy_result: EnergyResult
    derivative_result: EnergyResult

    @property
    def energy(self) -> float:
        return self.energy_result.value

    @property
    def energy_derivative(self) -> float:
        return self.derivative_result.value

    @property
    def converged(self) -> bool:
        return (self.energy_result.converged
                and self.derivative_result.converged)


def _validate_ratio(ratio: float) -> float:
    ratio = _check_ratio(ratio)
    if ratio - 1.0 < 1e-3:
        warnings.warn(
            "radius ratio within 1e-3 of unity: quadrature panel widths "
            "blow up as 1/(ratio-1) and the mode sum converges very slowly",
            stacklevel=3,
        )
    return ratio


def _log1mexp(t: np.ndarray) -> np.ndarray:
    """log(1 - e^t) for t < 0, accurate at both ends."""
    t = np.minimum(t, -5e-324)
    out = np.empty_like(t)
    small = t < -math.log(2.0)
    out[small] = np.log1p(-np.exp(t[small]))
    out[~small] = np.log(-np.expm1(t[~small]))
    return out


def log_mode_factor(n, y, ratio: float):
    """Log of the two-polarization annulus mode factor, ln M_n(y, alpha).

    Strictly negative, increasing toward 0- as y grows; the energy
    integrand is ``y * log_mode_factor(n, y, alpha)``.

    Parameters
    ----------
    n : int or int ndarray
        Angular order (sign is irrelevant), or one order per element of
        a 1-d ``y``.
    y : float or ndarray
        Radial argument(s) in units of the inner radius, > 0.
    ratio : float
        Radius ratio alpha > 1.
    """
    scalar = np.isscalar(y) or getattr(y, "ndim", 0) == 0
    lrd, lrn = reflection_ratio_logs(n, np.atleast_1d(y), ratio)
    out = _log1mexp(np.asarray(lrd)) + _log1mexp(np.asarray(lrn))
    return float(out[0]) if scalar else out


def log_mode_factor_dalpha(n, y, ratio: float):
    """Closed-form alpha-derivative of :func:`log_mode_factor`.

    Positive: the mode factor tends to 1 as the shell recedes.  Each
    polarization contributes ``e^t t' / (e^t - 1)`` for its log-ratio
    ``t < 0``, written with ``expm1`` so it stays accurate as ``t -> 0-``
    and underflows quietly to 0 as ``t -> -inf``.  Takes ``n`` as
    :func:`log_mode_factor` does.
    """
    scalar = np.isscalar(y) or getattr(y, "ndim", 0) == 0
    lrd, lrn, d_lrd, d_lrn = reflection_ratio_logs_dalpha(
        n, np.atleast_1d(y), ratio)
    out = (np.exp(lrd) * d_lrd / np.expm1(lrd)
           + np.exp(lrn) * d_lrn / np.expm1(lrn))
    return float(out[0]) if scalar else out


def _order_contributions(cfg: NumericsConfig, parts):
    """Shared angular-sum driver.

    ``parts`` yields a QuadratureResult-like (value, error, evals,
    converged) for the order-n radial integral, n = 0, 1, 2, ...; this
    folds the n = 0 term plus twice the n >= 1 terms with the
    two-consecutive-small-terms stopping rule, and assembles the error
    budget.  It stops drawing from ``parts`` at the stopping order (at
    most ``cfg.order_cap``), so what the iterator computed beyond it
    counts nowhere.
    """
    per_order = []
    total = 0.0
    quad_error = 0.0
    evaluations = 0
    quad_ok = True
    small_streak = 0
    raw = []
    for n, part in enumerate(parts):
        weight = 1.0 if n == 0 else 2.0
        contrib = weight * part.value
        per_order.append((n, contrib))
        raw.append(abs(contrib))
        total += contrib
        quad_error += weight * part.error_estimate
        evaluations += part.evaluations
        quad_ok = quad_ok and part.converged
        if n >= 1:
            if abs(contrib) < cfg.order_tol * abs(total):
                small_streak += 1
            else:
                small_streak = 0
            if small_streak >= 2:
                capped = False
                break
        if n >= cfg.order_cap:
            capped = True
            break
    # geometric bound on the dropped tail from the last two magnitudes
    if len(raw) >= 2 and raw[-2] > 0.0 and raw[-1] < raw[-2]:
        q = raw[-1] / raw[-2]
        truncation = raw[-1] * q / (1.0 - q)
    else:
        truncation = raw[-1]
    return EnergyResult(
        value=total,
        per_order=tuple(per_order),
        order_max=per_order[-1][0],
        quad_error=quad_error,
        truncation_error=truncation,
        evaluations=evaluations,
        order_capped=capped,
        quad_converged=quad_ok,
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
    return _mode_sum(log_mode_factor, ratio, cfg)


def _mode_sum(factor, ratio: float, cfg: NumericsConfig) -> EnergyResult:
    """``sum_n integral_0^inf y factor(n, y, alpha) dy / (4 pi)``.

    The leading panel width is the decay scale ``1/(alpha - 1)``; ``ratio``
    must already be validated.  Orders from n = 1 on are integrated in
    blocks of ``_ORDER_BLOCK`` by one batched quadrature call each, whose
    integrand is ``factor`` at one order per abscissa.
    """
    qspec = replace(cfg.quad, tail_cut=1.0 / (ratio - 1.0))
    inv_4pi = 1.0 / (4.0 * math.pi)

    def scaled(part):
        return replace(part,
                       value=part.value * inv_4pi,
                       error_estimate=part.error_estimate * inv_4pi)

    def parts():
        # n = 0 alone: one integral is bit for bit a batch of one.
        yield scaled(integrate_semi_infinite(
            lambda y: y * factor(0, y, ratio), qspec))
        for first in range(1, cfg.order_cap + 1, _ORDER_BLOCK):
            orders = np.arange(first,
                               min(first + _ORDER_BLOCK, cfg.order_cap + 1))
            block = integrate_semi_infinite_batch(
                lambda y, which: y * factor(orders[which], y, ratio),
                len(orders), qspec)
            yield from map(scaled, block)

    return _order_contributions(cfg, parts())


def _mode_factor_dy(n: int, y: np.ndarray, ratio: float) -> np.ndarray:
    """d/dy of ln M_n by central differences; step tied to y's scale."""
    h = np.minimum(1e-5 * (1.0 + y), 0.5 * y)
    up = log_mode_factor(n, y + h, ratio)
    dn = log_mode_factor(n, y - h, ratio)
    return (up - dn) / (2.0 * h)


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
    qspec = replace(cfg.quad, tail_cut=1.0 / (ratio - 1.0))
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

            parts = integrate_semi_infinite_batch(radial, len(ks), qspec)
            evaluations += sum(part.evaluations for part in parts)
            all_ok = all_ok and all(part.converged for part in parts)
            return np.array([part.value for part in parts])

        part = integrate_semi_infinite(outer, qspec)
        return type(part)(
            value=prefactor * part.value,
            error_estimate=abs(prefactor) * part.error_estimate,
            evaluations=evaluations + part.evaluations,
            converged=part.converged and all_ok,
        )

    return _order_contributions(cfg,
                                map(term, range(cfg.order_cap + 1)))


def casimir_energy(ratio: float,
                   cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Total dimensionless energy: interaction plus both self-energies.

    For widely separated radii the interaction part dies off and the
    total saturates at ``-SELF_ENERGY_COEFF * (1 + ratio**-2)``.
    """
    inter = interaction_energy(ratio, cfg)
    return inter.value - SELF_ENERGY_COEFF * (1.0 + ratio**-2)


def pressure_inner(ratio: float,
                   cfg: NumericsConfig = DEFAULT_NUMERICS) -> PressureResult:
    """Dimensionless pressure on the inner cylinder, 2 e + alpha e'.

    Positive values push the inner surface outward (attraction toward
    the shell).  Multiply by ``HBAR_C / (2 pi a^4)`` for pascals.

    Two mode sums: the energy, exactly as :func:`interaction_energy`
    computes it, and e' from the closed-form alpha-derivative of the
    mode factor (:func:`log_mode_factor_dalpha`) through the same
    quadrature and stopping rule.  ``error`` is the bound
    ``2 (quad + truncation)_e + alpha (quad + truncation)_e'``, and the
    result converged when both sums did.
    """
    ratio = _validate_ratio(ratio)
    energy = interaction_energy(ratio, cfg)
    derivative = _mode_sum(log_mode_factor_dalpha, ratio, cfg)
    return PressureResult(
        value=2.0 * energy.value + ratio * derivative.value,
        error=float(2.0 * (energy.quad_error + energy.truncation_error)
                    + ratio * (derivative.quad_error
                               + derivative.truncation_error)),
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
