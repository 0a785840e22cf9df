"""Deterministic adaptive quadrature (finite and semi-infinite).

A single embedded Gauss--Kronrod 7/15 pair drives everything: the
15-point Kronrod value is the estimate, the difference against the
embedded 7-point Gauss value is the (deliberately pessimistic) error
estimate for the panel.  Panels are bisected worst-first with a
deterministic tie-break, and sums are always assembled left-to-right, so
a given integrand and spec produce bit-identical results on every run.

Semi-infinite integrals assume the integrand eventually decays at least
exponentially (true of every caller in this package).  They are summed
over panels whose endpoints grow geometrically, ``[0, c], [c, 2c],
[2c, 4c], ...``, with the leading width ``c`` taken from
``QuadratureSpec.tail_cut``; the march stops once a panel contributes
less than ``abs_tol`` and a geometric-decay bound on the remaining tail
drops below ``abs_tol`` as well.

Integrand callables must be vectorized: they receive an ndarray of
abscissae and return an ndarray of values.  Batched integrands, for
:func:`integrate_semi_infinite_batch`, are called as ``f(x, which)``:
``x`` holds the pending abscissae of several integrals at once, the int
array ``which`` of the same shape names the integral each abscissa
belongs to, and ``f`` returns one value per abscissa.  All integrals,
batched or single, run through one adaptive core that advances them in
lockstep; each keeps its own panels, tolerances and result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "NonFiniteIntegrandError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
]

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (positive half;
# the rule is symmetric).  Classical QUADPACK constants.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472783,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927664, 0.38183005050511894,
    0.41795918367346939,
])

# Full node vector on [-1, 1], ascending; Gauss nodes sit at odd indices.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros_like(_NODES)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

# A Python float, so that the floor and the errors built on it are too.
_EPS = float(np.finfo(float).eps)


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or an infinity: a numerical failure."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the adaptive integrators.

    ``tail_cut`` is the leading panel width for semi-infinite integrals;
    callers with an exponential decay scale ``lambda`` should set it to
    roughly ``1/lambda`` so the first panel already spans the bulk of the
    integrand.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 200
    tail_cut: float = 1.0

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if not self.tail_cut > 0.0:
            raise ValueError("tail_cut must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    """Value, honest error estimate, and bookkeeping for one integral."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _estimate(fx: np.ndarray, lo: float, hi: float):
    """Kronrod value, |K-G| error estimate and rounding floor for one panel.

    The floor, ``50 eps`` times the Kronrod integral of ``|f|``, is the
    smallest error the estimate ever reports; bisection leaves it nearly
    unchanged, since the integrals of ``|f|`` over the halves add up.
    """
    half = 0.5 * (hi - lo)
    kron = half * float(fx @ _WEIGHTS_K)
    gauss = half * float(fx @ _WEIGHTS_G)
    err = abs(kron - gauss)
    # |K - G| alone under-reports the Kronrod error near integrable
    # singularities; rescale it against the deviation integral and put a
    # rounding floor under it, as adaptive Kronrod libraries do.
    resasc = abs(half) * float(np.abs(fx - kron / (hi - lo)) @ _WEIGHTS_K)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    resabs = abs(half) * float(np.abs(fx) @ _WEIGHTS_K)
    floor = 50.0 * _EPS * resabs
    return kron, max(err, floor), floor


def _lockstep(f, tasks) -> list:
    """Advance independent integrals together; return their results.

    Each task is a generator that yields the panels it needs next, as a
    list of ``(lo, hi)`` pairs, is sent their ``(value, error, floor)``
    estimates in the same order, and finally returns its result.
    Every round evaluates all pending panels of all tasks in one call
    ``f(x, which)``.  The estimates are still formed panel by panel (one
    matrix product over all panels would sum in another order), so a
    task's result does not depend on the tasks it runs beside.
    """
    results = [None] * len(tasks)
    pending = {i: next(task) for i, task in enumerate(tasks)}
    while pending:
        owners = list(pending)
        panels = [panel for i in owners for panel in pending[i]]
        lo, hi = np.array(panels).T
        x = ((0.5 * (lo + hi))[:, None]
             + (0.5 * (hi - lo))[:, None] * _NODES).ravel()
        which = np.repeat(owners, [len(_NODES) * len(pending[i])
                                   for i in owners])
        fx = np.asarray(f(x, which), dtype=float)
        if fx.shape != x.shape:
            raise ValueError("integrand must return one value per abscissa")
        bad = ~np.isfinite(fx)
        if np.any(bad):
            raise NonFiniteIntegrandError(
                f"integrand returned a non-finite value at x={x[bad][0]!r}"
            )
        estimates = iter([_estimate(row, a, b) for row, (a, b)
                          in zip(fx.reshape(-1, len(_NODES)), panels)])
        for i in owners:
            sent = [next(estimates) for _ in pending[i]]
            try:
                pending[i] = tasks[i].send(sent)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _single(f):
    """Adapt a one-integral integrand to the ``f(x, which)`` form."""
    return lambda x, which: f(x)


def _finite(lo: float, hi: float, spec: QuadratureSpec):
    """Task for :func:`_lockstep`: one adaptive integral over [lo, hi].

    Returns the ``QuadratureResult``.  Once every panel's error estimate
    sits at its rounding floor, no bisection can lower the total, so the
    integral counts as converged even if the floor exceeds the requested
    tolerance (an integrand whose positive and negative parts cancel, for
    example).
    """
    (val, err, floor), = yield [(lo, hi)]
    panels = [(lo, hi, val, err, floor)]
    evaluations = len(_NODES)
    splits = 0
    while True:
        total = sum(p[2] for p in panels)
        total_err = sum(p[3] for p in panels)
        total_floor = sum(p[4] for p in panels)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total),
                            total_floor):
            break
        if splits >= spec.max_subdivisions:
            break
        # worst panel first; ties resolved by left endpoint for determinism
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        plo, phi, pval, perr, pfloor = panels.pop(worst)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # not splittable in double precision; give up on this panel
            panels.append((plo, phi, pval, perr, pfloor))
            break
        left, right = yield [(plo, mid), (mid, phi)]
        panels.append((plo, mid, *left))
        panels.append((mid, phi, *right))
        evaluations += 2 * len(_NODES)
        splits += 1

    panels.sort(key=lambda p: p[0])
    value = 0.0
    error = 0.0
    floor = 0.0
    for _, _, pval, perr, pfloor in panels:
        value += pval
        error += perr
        floor += pfloor
    # derive convergence from the assembled sums so the advertised
    # invariant (error <= max(abs_tol, rel_tol * |value|, floor) on
    # success) holds exactly as reported
    converged = error <= max(spec.abs_tol, spec.rel_tol * abs(value), floor)
    return QuadratureResult(value, error, evaluations, converged)


def _semi_infinite(spec: QuadratureSpec):
    """Task for :func:`_lockstep`: one integral over [0, inf)."""
    value = 0.0
    error = 0.0
    evaluations = 0
    panels_ok = True
    tail_bound = None
    prev_contrib = None
    lo = 0.0
    width = spec.tail_cut
    # budget the requested tolerance across panels and tail bound so the
    # summed estimate still satisfies the advertised invariant
    panel_spec = replace(spec, abs_tol=spec.abs_tol / 32.0,
                         rel_tol=spec.rel_tol / 8.0)
    stop_tol = spec.abs_tol / 4.0
    for _ in range(spec.max_subdivisions):
        hi = lo + width
        part = yield from _finite(lo, hi, panel_spec)
        value += part.value
        error += part.error_estimate
        evaluations += part.evaluations
        panels_ok = panels_ok and part.converged
        contrib = abs(part.value)
        if prev_contrib is not None and contrib <= stop_tol:
            if contrib == 0.0:
                tail_bound = 0.0
                break
            q = contrib / prev_contrib if prev_contrib > 0.0 else 1.0
            if q < 0.5:
                bound = contrib * q / (1.0 - q)
                if bound <= stop_tol:
                    tail_bound = bound
                    break
        prev_contrib = contrib
        lo = hi
        width *= 2.0
    if tail_bound is not None:
        error += tail_bound
    # Each converged panel's error is within the tolerance it met, so the
    # total is within the sum of those tolerances plus the tail bound.  A
    # test of the total against rel_tol * |value| would fail a sum that
    # cancels, whose panels met tolerances relative to their own parts.
    converged = panels_ok and tail_bound is not None
    return QuadratureResult(value, error, evaluations, converged)


def integrate_finite(f, lo: float, hi: float,
                     spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Adaptively integrate a vectorized callable over [lo, hi].

    Parameters
    ----------
    f : callable
        Maps an ndarray of abscissae to an ndarray of values.
    lo, hi : float
        Finite integration bounds, lo < hi.
    spec : QuadratureSpec
        Tolerances; convergence means the summed panel error estimate is
        below ``max(abs_tol, rel_tol * |value|)``, or has fallen to the
        rounding floor ``50 eps * integral of |f|`` that bisection
        cannot lower (as when the integral cancels to about zero).

    Returns
    -------
    QuadratureResult
        ``converged`` is False when the subdivision budget ran out first;
        the best available value is still returned.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("bounds must be finite")
    if not lo < hi:
        raise ValueError("require lo < hi")
    return _lockstep(_single(f), [_finite(lo, hi, spec)])[0]


def integrate_semi_infinite(f, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Integrate a vectorized, eventually-exponentially-decaying f over [0, inf).

    Panels ``[0, c], [c, 2c], [2c, 4c], ...`` (``c = spec.tail_cut``) are
    each integrated as in :func:`integrate_finite`.  Once past the third
    panel, the march stops when the last panel contributed less than
    ``abs_tol`` in magnitude and the geometric tail bound

        |tail| <= |last| * q / (1 - q),   q = |last| / |previous|

    is below ``abs_tol`` too (the bound is valid once the panel
    contributions decay, which exponential decay over doubling panels
    guarantees with q well under 1/2).  The bound is added to the
    reported error estimate.

    Returns
    -------
    QuadratureResult
        ``converged`` is False if the panel budget was exhausted before
        the tail was bounded, or any panel failed to converge.  Otherwise
        the error is within the sum of the panels' tolerances plus the
        tail bound, even when the panels cancel and the sum is near 0.
    """
    return _lockstep(_single(f), [_semi_infinite(spec)])[0]


def integrate_semi_infinite_batch(f, count: int,
                                  spec: QuadratureSpec = QuadratureSpec()
                                  ) -> list[QuadratureResult]:
    """Integrate ``count`` independent integrands over [0, inf) together.

    ``f(x, which)`` is the batched integrand: ``which[j]`` is the index
    (0 to ``count - 1``) of the integral that abscissa ``x[j]`` belongs
    to.  Each integral runs the panel march and bisection of
    :func:`integrate_semi_infinite` on its own, and its result equals,
    bit for bit, what that function returns for the one integrand
    ``lambda x: f(x, index)``.  What is shared is the call: every round
    hands the pending panels of all unfinished integrals to ``f`` as one
    abscissa array, which pays the integrand's per-call overhead once.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return _lockstep(f, [_semi_infinite(spec) for _ in range(count)])
