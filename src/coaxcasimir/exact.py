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

Each mode sum is a head of integer orders and, near contact, a tail.
One driver, :func:`_mode_sums`, runs any number of sums over the same
orders as one, in lockstep blocks of orders; its docstring gives the
schedule.  Each block is one
:func:`~.quadrature.integrate_semi_infinite_batch` call over the block's
orders for every sum still running, and a sum that has stopped drops out
of later blocks.  In a round that holds both of the pressure's sums,
their integrand hands the Bessel kernel each distinct (order, y) pair
once, then applies the energy formula to the energy sum's abscissae and
the e' formula to those of the e' sum; a round that holds the e' sum
alone (every round after the energy sum has stopped) evaluates the e'
formula alone.  Every
order of every sum keeps its own adaptive panels and every kernel is
elementwise, so each per-order integral, and each sum, is bit for bit
what that sum alone, one order at a time, gives.  Within each
per-order integral, the doubling segments of its march run side by
side as well and fold in order (:mod:`.quadrature`): fewer rounds, the
same bits, and a segment started past the march's stop counts in no
field.  The stopping rule reads each sum's orders one by one; the
orders of its last block past its stopping order are discarded and
count in no field of its result.

The head's radial integrals run over u, with y = (alpha - 1) u**2
(:func:`_in_u`).  At n = 0 the mode factor has a log endpoint,
ln(1 - e^{D_0}) ~ ln(ln alpha / ln(1/y)) as y -> 0 (DLMF 10.31.2), and
in y the Gauss-Kronrod estimate of the panel at y = 0 shrank only
slowly as the panel did, so the n = 0 integrals spent round after round
bisecting toward y = 0 while every other order had finished.  In u the
integrand carries the factor 2 (alpha - 1) u and vanishes like
u**3 ln ln(1/u) at 0, and the panels finish together.  u in
[0, 1/(alpha - 1)] maps onto y in [0, 1/(alpha - 1)], so the leading
width is the decay scale in either variable.  Every head order takes
u, not n = 0 alone: one integrand for the whole block needs no order
mask, and it took fewer rounds.

A sum needs about 10/(alpha - 1) orders, so below alpha of about 1.097
one may still run after order N = 144.  Its orders past N then come as one
tail (:func:`_add_tails`).  The per-order integral F(nu) is smooth in
the order, and the large-order Bessel expansions hold at real nu
(DLMF 10.41), so by Euler-Maclaurin (DLMF 2.10) the tail
2 sum_{n > N} F(n) is 2 [int_N^inf F(nu) dnu minus Gregory's end terms].
The end terms take backward differences of F at N from the head's own
F(N - 5) to F(N), so they cost no extra integral; the first term
dropped is the tail's truncation error.  The nu-integral is one outer
semi-infinite quadrature per sum, all of them in one lockstep, whose
batched integrand is a batch of radial integrals, one per nu node.
These radial integrals stay in y: past order 144 the integrand peaks
away from y = 0, and in u they took more evaluations (59,535 against
57,210 for the energy at alpha = 1.01).  An
outer segment started past its march's stop counts in no field, its
radial integrals included.  A sum that stops by order 144 has no tail
and keeps every bit it had before the tail existed.
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
from .specfun import (
    _ratio_logs,
    _ratio_logs_dalpha,
    _validate_ratio,
    reflection_ratio_logs,
    reflection_ratio_logs_dalpha,
)

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
    contribute less than ``order_tol`` of the accumulated total; a sum
    still running after order 144 adds the orders past it as one tail,
    an integral over real order whose outer absolute tolerance is
    ``order_tol`` times the total so far.  The double-integral route,
    which has no tail, flags a sum still running after order 144 as
    capped (a flag on the result, not an exception).  The same knobs
    drive the energy sum and the pressure's alpha-derivative sum: the
    derivative is analytic, so it needs no step of its own.
    """

    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    order_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.order_tol < 1.0:
            raise ValueError("order_tol must lie in (0, 1)")


DEFAULT_NUMERICS = NumericsConfig()

#: The integer orders up to ``_HEAD`` go in lockstep blocks ``_BLOCK``
#: wide (``_HEAD`` is a multiple of ``_BLOCK``; the schedule is
#: :func:`_mode_sums`'s, and :func:`_blocks` lays it out), in the reduced
#: sums and in the double route alike.  One Bessel kernel call per regime
#: serves the pending panels of a whole block, and the orders of the last
#: block past the stopping order are wasted work (at most ``_BLOCK - 1``
#: orders).  The default sweep (up to order 138), every pinned ratio and
#: the double route stop by ``_HEAD``; the double route, which has no
#: tail, ends there as capped.
_BLOCK = 16
_HEAD = 144

#: The double route's radial integrand hands the mode factor at most
#: ``_SLICE`` abscissae at a time: after the two stencil points and the
#: (y, alpha y) stack, ``4 * _SLICE`` Bessel kernel points.  At alpha = 2
#: a round of the first block holds up to 18,240 abscissae.  The kernel's
#: work arrays for all of them at once raised the route's peak resident
#: memory by 9.4 MB over the orders one at a time, and in slices by
#: 1.4 MB.  The kernel is elementwise, so slicing keeps every bit.
_SLICE = 2048

#: The 1/(4 pi) in front of every mode sum.
_INV_4PI = 1.0 / (4.0 * math.pi)

#: Gregory's end terms in backward differences at the last summed order
#: N: sum_{n > N} F(n) = int_N^inf F(nu) dnu - sum_k _GREGORY[k] nabla^k
#: F(N), and _GREGORY_NEXT |nabla^5 F(N)| is the first term dropped.  This
#: is Euler-Maclaurin (DLMF 2.10.1) with the end derivatives of F taken
#: from its values at N - 5 to N, which the head has already summed.
_GREGORY = (1.0 / 2.0, 1.0 / 12.0, 1.0 / 24.0, 19.0 / 720.0, 3.0 / 160.0)
_GREGORY_NEXT = 863.0 / 60480.0

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
    ``per_order`` holds (n, contribution) for the orders summed one by
    one, the n >= 1 entries already carrying their double multiplicity.
    ``tail`` is, for a sum that ran past order 144, the contribution of
    all the orders above it, and None otherwise; the contributions and
    the tail sum to ``value``.  ``order_max`` is the highest order summed
    one by one, and ``order_capped`` says that the double-integral
    route reached order 144 before its stopping rule fired.
    ``truncation_error`` is, with a tail, the first Gregory term the tail
    drops, and otherwise a geometric bound on the orders past the
    stopping order.  ``quad_error`` accumulates the quadrature estimates:
    the radial integrals of the head and, for the tail, the outer
    nu-integral's estimate plus the radial estimates integrated over nu.
    ``evaluations`` counts integrand points of the radial integrals.
    """

    value: float
    per_order: tuple[tuple[int, float], ...]
    order_max: int
    quad_error: float
    truncation_error: float
    evaluations: int
    order_capped: bool
    quad_converged: bool
    tail: float | None = None

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
    the running total; what was computed beyond it is never added and
    counts nowhere.  A sum that has not stopped ends with
    :meth:`add_tail`, all orders past the last one added at once, or is
    flagged ``capped`` by its caller.
    """

    def __init__(self, cfg: NumericsConfig):
        self.cfg = cfg
        self.per_order = []
        self.total = self.quad_error = 0.0
        self.evaluations = self.small_streak = 0
        self.quad_ok = True
        self.capped = False
        self.tail = self.tail_truncation = None

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
            small = abs(contrib) <= self.cfg.order_tol * abs(self.total)
            self.small_streak = self.small_streak + 1 if small else 0
        return self.small_streak >= 2

    def add_tail(self, integral: float, error: float, evaluations: int,
                 converged: bool) -> None:
        """Add the orders past the last one added, N, as the tail.

        ``integral`` is int_N^inf F(nu) dnu of the per-order integral F,
        with its ``error``; the entry is 2 sum_{n > N} F(n), which
        Gregory's end terms form from it and from F(N - 5) to F(N).
        """
        f = [contrib / 2.0 for _, contrib in self.per_order[-6:]]
        diffs = [f[-1]]
        for _ in range(5):
            f = [b - a for a, b in zip(f, f[1:])]
            diffs.append(f[-1])
        ends = math.fsum(g * d for g, d in zip(_GREGORY, diffs))
        self.tail = 2.0 * (integral - ends)
        self.tail_truncation = 2.0 * _GREGORY_NEXT * abs(diffs[5])
        self.total += self.tail
        self.quad_error += 2.0 * error
        self.evaluations += evaluations
        self.quad_ok = self.quad_ok and converged

    def result(self) -> EnergyResult:
        truncation = self.tail_truncation
        if self.tail is None:
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
            tail=self.tail,
        )


def interaction_energy(ratio: float,
                       cfg: NumericsConfig = DEFAULT_NUMERICS) -> EnergyResult:
    """Dimensionless interaction energy of the two cylinders (mode sum).

    Evaluates ``sum_n integral_0^inf y ln M_n(y, alpha) dy / (4 pi)`` with
    the semi-infinite quadrature's leading panel width set to the decay
    scale ``1/(alpha - 1)``; the radial integrals of orders 0 to 144 run
    over u, with y = (alpha - 1) u**2 (:func:`_in_u`), whose smooth
    endpoint spares the n = 0 integral's bisections toward y = 0, and
    those of the tail over y.  The result is negative (attraction) and, in
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
        The one energy sum of :func:`_mode_sums`, n = 0 added first.
    """
    ratio = _validate_ratio(ratio)
    energy = _OrderSum(cfg)
    # n = 0 stays its own integral of log_mode_factor only because
    # perfbench/tracer.py wraps both names and expects them reached here;
    # it takes u through _in_u, as the blocks do, so that the pressure's
    # energy_result equals this result field for field.
    energy.add(integrate_semi_infinite(
        _in_u(lambda y: y * log_mode_factor(0, y, ratio), ratio), cfg.quad,
        tail_cut=1.0 / (ratio - 1.0)).scaled(_INV_4PI))
    return _mode_sums(_energy_integrand(ratio), [energy], ratio, cfg)[0]


def _in_u(f, ratio: float):
    """The integrand ``f(y, *args)`` of a head radial integral over y,
    as one over u with y = (alpha - 1) u**2: ``f(y, *args) 2 (alpha - 1)
    u``.  u in [0, 1/(alpha - 1)] maps onto y in [0, 1/(alpha - 1)], so
    the leading width stays the decay scale.  The one wrapper of every
    head integral, the blocks' and the lone n = 0 energy integral's, so
    that each order's integral has the same bits in both."""
    gap = ratio - 1.0

    def in_u(u, *args):
        return f(gap * u * u, *args) * (2.0 * gap * u)

    return in_u


def _energy_integrand(ratio: float):
    """The batched ``y ln M_n`` of the energy sum, through the kernel
    without the public checks, so that the tail's real orders pass too."""
    return lambda y, n, sums: y * _energy_factor(*_ratio_logs(n, y, ratio)[:2])


def _mode_sums(integrand, sums: list, ratio: float,
               cfg: NumericsConfig) -> list[EnergyResult]:
    """Run the angular sums ``sums`` (``_OrderSum``) over the same orders
    as one, and return their results.

    Sum ``s`` is ``sum_n integral_0^inf integrand(y, n, s) dy / (4 pi)``:
    the batched ``integrand(y, n, sums)`` returns, for each abscissa
    ``y[j]``, the integrand of sum ``sums[j]`` at order ``n[j]``, integer
    orders in the head and real ones past it.  The leading panel width is
    the decay scale ``1/(alpha - 1)``; ``ratio`` must already be
    validated.  The head's integrals run over u through :func:`_in_u`,
    with the same width, and the tail's over y (the module docstring
    says why).

    The schedule: the orders up to ``_HEAD`` go in blocks, one batched
    quadrature call per block over its orders for every sum still
    running.  The first block runs from the first order the sums (which
    all hold the same orders) do not hold yet up to ``_BLOCK``: 0 to 16
    for new sums, 1 to 16 when the caller has added n = 0 to each.  Then
    come 17 to 32, ..., 129 to 144, and no block reaches past ``_HEAD``.
    The sums still running after it end with :func:`_add_tails`, on the
    same integrand.
    """
    tail_cut = 1.0 / (ratio - 1.0)
    live = list(range(len(sums)))
    for orders in _blocks(len(sums[0].per_order)):
        if not live:
            break
        # integral j of the block: sum live[j // width] at orders[j % width]
        width = len(orders)
        order_of = np.tile(orders, len(live))
        sum_of = np.repeat(live, width)
        parts = integrate_semi_infinite_batch(
            _in_u(lambda y, which: integrand(y, order_of[which],
                                             sum_of[which]), ratio),
            len(order_of), cfg.quad, tail_cut=tail_cut)
        running = []
        for k, s in enumerate(live):
            # any() adds the block's orders up to the one that stops the sum
            if not any(sums[s].add(part.scaled(_INV_4PI))
                       for part in parts[k * width:(k + 1) * width]):
                running.append(s)
        live = running
    if live:
        _add_tails(integrand, sums, live, tail_cut, cfg)
    return [one.result() for one in sums]


def _blocks(first: int) -> list[np.ndarray]:
    """The lockstep blocks of orders from ``first`` (at most ``_BLOCK + 1``)
    to ``_HEAD``: ``first`` to ``_BLOCK``, then ``_BLOCK + 1`` to ``2
    _BLOCK``, and so on, each an int array."""
    starts = [first, *range(_BLOCK + 1, _HEAD + 1, _BLOCK)]
    return [np.arange(lo, hi)
            for lo, hi in zip(starts, starts[1:] + [_HEAD + 1])]


def _add_tails(integrand, sums: list, live: list, tail_cut: float,
               cfg: NumericsConfig) -> None:
    """End each sum ``sums[s]``, ``s`` in ``live``, with its orders past
    ``_HEAD``.

    With F(nu) the radial integral over 4 pi at real order nu, from the
    batched ``integrand(y, nu, sums)``, ``int_{_HEAD}^inf F(nu) dnu`` of
    every live sum is one outer
    :func:`~.quadrature.integrate_semi_infinite_batch` call, its leading
    width ``tail_cut`` too.  The outer integrand is a batch of radial
    integrals, one per nu node, which run in lockstep at ``cfg.quad``.
    Each sum's integrand is divided by its head's ``|total|``, so the
    outer ``abs_tol`` of ``order_tol`` is the stopping rule's own budget,
    ``order_tol |total|``, for every sum.  The error adds to the outer
    estimate the integral over nu of the radial estimates, bounded by
    their upper Riemann sum over the sorted nodes.  A plain sum of the
    estimates would not bound it: near contact a node's outer weight
    reaches about 10.

    Only the nodes of the outer segments the march folded in count, in
    the error, the evaluations and the converged flag.  The folded
    segments tile the outer range from 0 and a dropped one lies past
    them, so their nodes are the first in nu, as many as the outer
    result's ``evaluations``.
    """
    scale = np.array([abs(sums[s].total) for s in live])
    ids = np.asarray(live)
    # per sum: (nu - _HEAD, error, evaluations, converged) of each node
    nodes = [[] for _ in live]

    def outer(u, which):
        nu = _HEAD + u
        parts = integrate_semi_infinite_batch(
            lambda y, j: integrand(y, nu[j], ids[which[j]]), len(u),
            cfg.quad, tail_cut=tail_cut)
        for k, at, part in zip(which.tolist(), u.tolist(), parts):
            nodes[k].append((at, part.error_estimate * _INV_4PI,
                             part.evaluations, part.converged))
        values = np.array([part.value for part in parts]) * _INV_4PI
        return values / scale[which]

    parts = integrate_semi_infinite_batch(
        outer, len(live), replace(cfg.quad, abs_tol=cfg.order_tol),
        tail_cut=tail_cut)
    for k, (s, part, size) in enumerate(zip(live, parts, scale.tolist())):
        at, err, evaluations, converged = zip(
            *sorted(nodes[k])[:part.evaluations])
        at, err = np.array(at), np.array(err)
        radial = at[0] * err[0] + np.diff(at) @ np.maximum(err[1:], err[:-1])
        sums[s].add_tail(part.value * size,
                         part.error_estimate * size + float(radial),
                         sum(evaluations), part.converged and all(converged))


def _pressure_integrand(ratio: float):
    """The batched integrand of the pressure's two sums, energy and e'.

    Sum 0 takes ``y ln M_n`` and sum 1 ``y d ln M_n / d alpha``, both
    through the kernels without their public checks, so that the tail's
    real orders pass too.  A call whose points all belong to the e' sum,
    which comes once the energy sum has stopped, evaluates the e'
    formula alone.  In any other call (the block schedule is
    :func:`_mode_sums`'s) the two sums' abscissae often coincide, so the
    distinct (order, y) pairs go to the Bessel kernels once, for the
    log-ratios and their derivatives, and each formula then reads its
    own sum's points.  Every step is elementwise, so each point's value
    is what the sum's own integrand gives it: an energy point's is
    :func:`_energy_integrand`'s.
    """
    def integrand(y, n, sums):
        if sums.all():
            return y * _dalpha_factor(*_ratio_logs_dalpha(n, y, ratio))
        by_pair = np.lexsort((y, n))
        ys, ns = y[by_pair], n[by_pair]
        fresh = np.empty(len(y), dtype=bool)
        fresh[:1] = True
        fresh[1:] = (ns[1:] != ns[:-1]) | (ys[1:] != ys[:-1])
        back = np.empty(len(y), dtype=int)
        back[by_pair] = np.cumsum(fresh) - 1
        logs = [part[back] for part in _ratio_logs_dalpha(
            ns[fresh], ys[fresh], ratio)]
        energy = sums == 0
        out = np.empty(len(y))
        out[energy] = _energy_factor(*(a[energy] for a in logs[:2]))
        out[~energy] = _dalpha_factor(*(a[~energy] for a in logs))
        return y * out

    return integrand


def _mode_factor_dy(n, y: np.ndarray, ratio: float) -> np.ndarray:
    """d/dy of ln M_n by central differences; step tied to y's scale.

    ``n`` is one order or an int array of orders matching ``y``.  Both
    stencil points go to :func:`log_mode_factor` in one array, each with
    its own order; the arithmetic is elementwise, so this equals two
    calls, and at mixed orders one call per order.
    """
    h = np.minimum(1e-5 * (1.0 + y), 0.5 * y)
    n = np.broadcast_to(n, y.shape)
    both = log_mode_factor(np.concatenate((n, n)),
                           np.concatenate((y + h, y - h)), ratio)
    return (both[:len(y)] - both[len(y):]) / (2.0 * h)


def _double_block(orders: np.ndarray, ratio: float,
                  cfg: NumericsConfig) -> list:
    """The double route's per-order integrals, scaled, at ``orders``.

    One outer :func:`~.quadrature.integrate_semi_infinite_batch` call
    over k runs the integrals of all the orders in lockstep.  Each round
    of it hands the inner integrals at all its (order, k) nodes to one
    inner batch, whose integrand evaluates its abscissae ``_SLICE`` at a
    time.  Each order's ``evaluations`` adds to its outer integral's the
    points of the inner integrals at its nodes, and its ``converged``
    asks all of them to have converged, those at nodes of outer segments
    the march dropped included.
    """
    tail_cut = 1.0 / (ratio - 1.0)
    # per order: the inner integrals' evaluations, and whether all converged
    evaluations = [0] * len(orders)
    all_ok = [True] * len(orders)

    def outer(ks: np.ndarray, which: np.ndarray) -> np.ndarray:
        node_order = orders[which]

        def radial(u: np.ndarray, node: np.ndarray) -> np.ndarray:
            out = np.empty(len(u))
            for at in range(0, len(u), _SLICE):
                part = slice(at, at + _SLICE)
                j = node[part]
                k, s = ks[j], u[part] * u[part]
                out[part] = (2.0 * s * np.sqrt(s + 2.0 * k)
                             * _mode_factor_dy(node_order[j], k + s, ratio))
            return out

        parts = integrate_semi_infinite_batch(radial, len(ks), cfg.quad,
                                              tail_cut=math.sqrt(tail_cut))
        for i, part in zip(which.tolist(), parts):
            evaluations[i] += part.evaluations
            all_ok[i] = all_ok[i] and part.converged
        return np.array([part.value for part in parts])

    parts = integrate_semi_infinite_batch(outer, len(orders), cfg.quad,
                                          tail_cut=tail_cut)
    prefactor = -1.0 / (2.0 * math.pi**2)
    return [replace(part.scaled(prefactor),
                    evaluations=inner + part.evaluations,
                    converged=part.converged and ok)
            for part, inner, ok in zip(parts, evaluations, all_ok)]


def interaction_energy_double_integral(
        ratio: float, cfg: NumericsConfig = ORACLE_NUMERICS) -> EnergyResult:
    r"""The same energy through the literal double integral (cross-check).

    Implements

    .. math::

        \hat e = -\frac{1}{2\pi^2} \sum_n w_n \int_0^\infty dk
            \int_k^\infty dy\, \sqrt{y^2 - k^2}\;
            \partial_y \ln M_n(y, \alpha)

    with the radial derivative taken by central differences and both
    integrals done numerically.  No partial integration, no exchange of
    integration order, no closed-form k integral: this route shares
    nothing with :func:`interaction_energy` beyond the mode factor
    itself, which makes the two mutually validating oracles.

    The inner integral runs over u, with y = k + u**2, as the integral
    of 2 u**2 sqrt(u**2 + 2 k) d ln M_n / dy from 0 to infinity, with the
    leading segment width sqrt(1 / (alpha - 1)).  In s = y - k its
    integrand behaves like sqrt(2 k s) as s -> 0 at every outer node
    k > 0.  The Gauss-Kronrod error estimate of the panel at that
    square-root endpoint shrinks only slowly as the panel does, so each
    inner integral would bisect toward s = 0 round after round.  In u the
    endpoint is smooth.

    At its default numerics the route agrees with the reduced form to
    1.32e-9 relative or better for alpha from 1.2 to 4, and to 4.0e-10 at
    alpha = 2, where it costs 114,855 mode-factor evaluations: 1,410
    inner integrals of about 80 each, against 1,455 evaluations for the
    reduced form at the same numerics.  ``error`` covers the quadrature
    and the angular truncation, not the step of the central difference:
    at :data:`DEFAULT_NUMERICS` and alpha = 2 the route is 4.65e-11 from
    the 30-digit energy while it reports 1.82e-12.

    The orders run in the lockstep blocks of :func:`_mode_sums`, 0 to
    16, 17 to 32, ..., up to 144 (:func:`_double_block`): one outer
    batch over k per block, whose every round hands the inner integrals
    at all its (order, k) nodes to one inner batch, evaluated ``_SLICE``
    abscissae at a time.  At alpha = 2 that is one block, one outer
    batch, 6 inner batches and 74 Bessel kernel calls, where the orders
    one at a time took 15 outer integrals, 61 inner batches and 157
    kernel calls.  That only batches the work: each integral, outer or
    inner, keeps its own adaptive panels, the mode factor is
    elementwise, and the block's orders fold into the sum in order, so
    every field of the result is what the orders one at a time give,
    and the route stays as independent of the reduced form as before.
    The orders of the last block past the stopping order count in no
    field.

    The route has no tail: a sum still running after order 144 is flagged
    as capped.  At alpha = 1.2, the closest to contact the tests run it,
    it takes three blocks and stops at order 45.
    """
    ratio = _validate_ratio(ratio)
    one = _OrderSum(cfg)
    for orders in _blocks(0):
        # any() adds the block's orders up to the one that stops the sum
        if any(one.add(part) for part in _double_block(orders, ratio, cfg)):
            break
    else:
        one.capped = True
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
    quadrature and stopping rule.  The two run as one, two new sums of
    :func:`_mode_sums`, and share each block's lockstep rounds and each
    round's Bessel kernel call, which sees every distinct (order, y) pair
    once (a round of the e' sum alone computes only what that sum uses,
    :func:`_pressure_integrand`).  The values are still, bit for bit,
    those of each sum alone: ``energy_result`` equals
    :func:`interaction_energy` at the same ratio and numerics.  ``error``
    is the bound ``2 error_e + alpha error_e'``, and the result converged
    when both sums did.
    """
    ratio = _validate_ratio(ratio)
    sums = [_OrderSum(cfg), _OrderSum(cfg)]
    energy, derivative = _mode_sums(_pressure_integrand(ratio), sums, ratio,
                                    cfg)
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
