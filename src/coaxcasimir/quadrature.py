"""Deterministic adaptive quadrature (finite and semi-infinite).

A single embedded Gauss--Kronrod 7/15 pair drives everything: the
15-point Kronrod value is the estimate, the difference against the
embedded 7-point Gauss value is the (deliberately pessimistic) error
estimate for the panel.  Panels are bisected worst-first with a
deterministic tie-break.

A panel's weighted sums over its 15 nodes are one fixed pairwise tree:
the node values, padded with a zero to 16 and multiplied by the
weights, are halved four times (``p[:8] + p[8:]``, then ``p[:4] +
p[4:]``, ...).  The tree is elementwise across panels, and each
integral sums its own panels in a fixed order, so a batch of integrals
returns by construction, bit for bit, what each returns alone.

Semi-infinite integrals assume the integrand eventually decays at least
exponentially (true of every caller in this package).  They are summed
over segments of doubling width, ``[0, c], [c, 3c], [3c, 7c], ...``,
where ``c`` is the integrators' ``tail_cut`` keyword; the march stops
once a segment contributes less than ``abs_tol`` and a geometric-decay
bound on the remaining tail drops below ``abs_tol`` as well.  The
segments of a march run side by side: each starts as soon as the march
is sure, or nearly so, to need it, and each bisects its own panels as it
would alone.  Finished segments fold into the result in march order, so
it is bit for bit that of a march run one segment at a time; a segment
started past the stop counts in no field of the result.

Integrand callables must be vectorized: they receive an ndarray of
abscissae and return an ndarray of values.  Batched integrands, for
:func:`integrate_semi_infinite_batch`, are called as ``f(x, which)``:
``x`` holds the pending abscissae of several integrals at once, the int
array ``which`` of the same shape names the integral each abscissa
belongs to, and ``f`` returns one value per abscissa.  All integrals,
batched or single, run through one adaptive core that holds the pending
panels of all of them in flat arrays and advances them in lockstep.
"""

from __future__ import annotations

import math
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
# Weights of the pairwise panel sum, padded with a zero row to 16 rows;
# the columns weigh f (Kronrod), f (Gauss) and |f| (Kronrod).
_WEIGHTS = np.zeros((16, 3, 1))
_WEIGHTS[:15, 0::2, 0] = np.concatenate([_WGK[:-1], _WGK[::-1]])[:, None]
_WEIGHTS[1:14:2, 1, 0] = np.concatenate([_WG[:-1], _WG[::-1]])

_FLOOR = 50.0 * np.finfo(float).eps


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or an infinity: a numerical failure."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the adaptive integrators."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf
                and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    """Value, honest error estimate, and bookkeeping for one integral."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def scaled(self, factor: float) -> QuadratureResult:
        """The record with ``value`` times ``factor``, error times its size."""
        return replace(self, value=self.value * factor,
                       error_estimate=self.error_estimate * abs(factor))


def _tree_sum(p: np.ndarray) -> np.ndarray:
    """Sum over the 16 rows of ``p`` as a fixed pairwise tree."""
    for rows in (8, 4, 2, 1):
        p = p[:rows] + p[rows:]
    return p[0]


def _estimates(fx: np.ndarray, half: np.ndarray, width: np.ndarray):
    """Kronrod value, error estimate and rounding floor of each panel.

    ``fx`` holds the node values panel by panel.  The floor, ``50 eps``
    times the Kronrod integral of ``|f|``, is the smallest error ever
    reported; bisection leaves it nearly unchanged.
    """
    f = fx.reshape(len(half), len(_NODES)).T
    p = np.zeros((16, 3, len(half)))
    p[:15] = f[:, None]
    p[:15, 2] = np.abs(f)
    kron, gauss, resabs = half * _tree_sum(p * _WEIGHTS)
    # |K - G| alone under-reports the Kronrod error near integrable
    # singularities; rescale it against the deviation integral and put a
    # rounding floor under it, as adaptive Kronrod libraries do.
    p[:15, 0] = np.abs(f - kron / width)
    resasc = half * _tree_sum(p[:, 0] * _WEIGHTS[:, 0])
    err = np.abs(kron - gauss)
    flat = resasc == 0.0
    scaled = resasc * np.minimum(1.0, (200.0 * err / (resasc + flat)) ** 1.5)
    floor = _FLOOR * resabs
    return kron, np.maximum(np.where(flat, err, scaled), floor), floor


class _Integral:
    """One integral: its started segments, and the fold of those finished.

    ``ids`` names the started segments in march order and ``parts`` maps
    each finished one to its (value, error, evaluations, converged).
    Finished segments fold into the totals in march order, so every sum
    is the one a march running one segment at a time would form.
    """

    value = error = 0.0
    evaluations = folded = 0
    converged, tail, done = True, None, False

    def __init__(self, hi: float):
        self.hi = self.width = hi
        self.ids, self.parts = [], {}

    def extend(self) -> tuple[float, float]:
        """The bounds of the segment after the last, twice as wide."""
        lo, self.width = self.hi, 2.0 * self.width
        self.hi = lo + self.width
        return lo, self.hi

    def ends(self, spec: QuadratureSpec | None, k: int):
        """Whether the march ends after segment k, and the tail bound it
        then reports (None when the segment budget ends it).  Known once
        segments k - 1 and k have finished."""
        if spec is None:
            return True, None
        stop_tol = spec.abs_tol / 4.0
        contrib = abs(self.parts[self.ids[k]][0])
        if k and contrib <= stop_tol:
            last = abs(self.parts[self.ids[k - 1]][0])
            # q < 0.5 only as the segments shrink; a zero one bounds by 0
            q = contrib / max(last, contrib) if contrib > 0.0 else 0.0
            if q < 0.5 and (bound := contrib * q / (1.0 - q)) <= stop_tol:
                return True, bound
        return k + 1 == spec.max_subdivisions, None

    def advance(self, spec: QuadratureSpec | None):
        """Fold the finished segments next in march order.

        Returns the started segments past a stop, which count in no
        field, and whether the last started segment's decision is known
        and goes on, so that the segment after it is due.
        """
        while (k := self.folded) < len(self.ids) and self.ids[k] in self.parts:
            value, error, evaluations, converged = self.parts[self.ids[k]]
            self.value += value
            self.error += error
            self.evaluations += evaluations
            self.converged = self.converged and converged
            self.folded += 1
            self.done, self.tail = self.ends(spec, k)
            if self.done:
                return self.ids[k + 1:], False
        k = len(self.ids) - 1
        return [], (self.ids[k] in self.parts
                    and (k == 0 or self.ids[k - 1] in self.parts)
                    and not self.ends(spec, k)[0])


def _lockstep(f, count: int, spec: QuadratureSpec, lo: float, hi: float,
              march_spec: QuadratureSpec | None = None) -> list:
    """Run ``count`` adaptive integrals together; return their results.

    The unit the lockstep advances is the segment: ``[lo, hi]`` alone,
    or, given ``march_spec``, the doubling segments of the march from
    it.  Each segment bisects its own panels worst panel first, so it
    evaluates the panels it would evaluate alone, in the same order.
    Segment 1 starts with segment 0 when the budget allows two segments.
    Segment k + 1 starts after segment k's first round if that round's
    estimate already exceeds the stop tolerance, so the march cannot
    stop there; else once the stop decision after segment k, which reads
    only segments k - 1 and k, is known to go on.  The first segment whose
    decision is to stop ends the integral; a segment started past it
    leaves the pending panels and counts in no field.  Once every
    panel's error sits at its rounding floor, no bisection can lower the
    total, so a segment counts as converged even above the requested
    tolerance (an integrand whose parts cancel).
    """
    stop_tol = march_spec.abs_tol / 4.0 if march_spec else math.inf
    integrals = [_Integral(hi) for _ in range(count)]
    # each segment's integral and bisection count, by segment id
    owner, splits = np.empty(0, dtype=int), np.empty(0, dtype=int)
    starts = []

    def start(i, bounds):
        integrals[i].ids.append(len(owner) + len(starts))
        starts.append((i, *bounds))

    def sums(rows, owners, ids):
        """Each segment's sums of ``rows``, in the order of ``owners``:
        creation order while it adapts, left to right when it finishes."""
        n = len(owner)
        return np.bincount((owners + n * np.arange(3)[:, None]).ravel(),
                           rows.ravel(), 3 * n).reshape(3, n)[:, ids]

    def settled(value, error, floor):
        return error <= np.maximum(np.maximum(
            spec.abs_tol, spec.rel_tol * np.abs(value)), floor)

    for i in range(count):
        start(i, (lo, hi))
        if march_spec and march_spec.max_subdivisions >= 2:
            start(i, integrals[i].extend())
    # the pending panels: segment, and rows lo, hi, value, error, floor
    own, panels = np.empty(0, dtype=int), np.empty((5, 0))
    new_own, new_lo, new_hi = np.empty(0, dtype=int), np.empty(0), np.empty(0)
    while True:
        # the first panels of the segments started since the last round
        fresh = np.arange(len(owner), len(owner) + len(starts))
        if starts:
            which, first_lo, first_hi = zip(*starts)
            starts.clear()
            owner = np.concatenate((owner, which))
            splits = np.concatenate((splits, np.zeros(len(fresh), dtype=int)))
            new_own = np.concatenate((new_own, fresh))
            new_lo = np.concatenate((new_lo, first_lo))
            new_hi = np.concatenate((new_hi, first_hi))
        elif not len(new_own):
            break
        width = new_hi - new_lo
        half = 0.5 * width
        x = (0.5 * (new_lo + new_hi) + half * _NODES[:, None]).T.ravel()
        fx = np.asarray(f(x, owner[new_own].repeat(len(_NODES))), dtype=float)
        if fx.shape != x.shape:
            raise ValueError("integrand must return one value per abscissa")
        finite = np.isfinite(fx)
        if not finite.all():
            raise NonFiniteIntegrandError("integrand returned a non-finite "
                                          f"value at x={x[~finite][0]!r}")
        own = np.concatenate((own, new_own))
        panels = np.concatenate((panels, (new_lo, new_hi, *_estimates(
            fx, half, width))), axis=1)
        # each segment's worst panel: the largest error, ties to the left
        order = np.lexsort((-panels[0], panels[3], own))
        grouped = own[order]
        last = np.empty(len(own), dtype=bool)
        last[-1] = True
        np.not_equal(grouped[1:], grouped[:-1], out=last[:-1])
        worst, ids = order[last], grouped[last]
        wlo, whi = panels.take(worst, axis=1)[:2]
        mid = 0.5 * (wlo + whi)
        done = (settled(*sums(panels[2:], own, ids))
                | (splits[ids] >= spec.max_subdivisions)
                # not splittable in double precision
                | (mid <= wlo) | (mid >= whi))
        go = ~done
        split, cut = ids[go], worst[go]
        splits[split] += 1
        new_own = split.repeat(2)
        new_lo, new_hi = wlo[go].repeat(2), whi[go].repeat(2)
        new_lo[1::2] = new_hi[::2] = mid[go]
        # the segments that finish, or are dropped past a stop, this round
        gone = np.zeros(len(owner), dtype=bool)
        if done.any():
            ids = ids[done]
            gone[ids] = True
            closing = gone[own]
            by_lo = np.lexsort((panels[0], own, ~closing))[:closing.sum()]
            part = sums(panels[2:, by_lo], own[by_lo], ids)
            touched = {}
            for s, i, value, error, evaluations, converged in zip(
                    ids.tolist(), owner[ids].tolist(), *part[:2].tolist(),
                    (len(_NODES) * (1 + 2 * splits[ids])).tolist(),
                    settled(*part).tolist()):
                one = touched[i] = integrals[i]
                one.parts[s] = value, error, evaluations, converged
            for i, one in touched.items():
                dropped, due = one.advance(march_spec)
                gone[dropped] = True
                if due:
                    start(i, one.extend())
        # a new segment whose first estimate exceeds the stop tolerance
        # cannot end the march, so the next one starts beside it
        big = fresh[np.abs(panels[2, len(own) - len(fresh):]) > stop_tol]
        for s, i in zip(big.tolist(), owner[big].tolist()):
            one = integrals[i]
            if (not one.done and one.ids[-1] == s
                    and len(one.ids) < march_spec.max_subdivisions):
                start(i, one.extend())
        keep = ~gone[own]
        keep[cut] = False
        own, panels = own[keep], panels[:, keep]
        live = ~gone[new_own]
        new_own, new_lo, new_hi = new_own[live], new_lo[live], new_hi[live]
    # A marching integral converged when each segment did and its tail is
    # bounded: its error is then within the sum of the segments' tolerances
    # plus the bound.  A test against rel_tol * |value| would fail a sum
    # that cancels, whose segments met tolerances relative to their parts.
    return [QuadratureResult(
        one.value, one.error + (one.tail or 0.0), one.evaluations,
        one.converged and (march_spec is None or one.tail is not None))
        for one in integrals]


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
    return _lockstep(lambda x, which: f(x), 1, spec, lo, hi)[0]


def integrate_semi_infinite(f, spec: QuadratureSpec = QuadratureSpec(), *,
                            tail_cut: float = 1.0) -> QuadratureResult:
    """Integrate a vectorized, eventually-exponentially-decaying f over [0, inf).

    Segments ``[0, c], [c, 3c], [3c, 7c], ...`` (``c = tail_cut``, finite
    and positive) are each integrated as in :func:`integrate_finite`.  An
    integrand decaying like ``exp(-lambda x)`` is best served by
    ``tail_cut`` near ``1/lambda``, so that the first segment already
    spans its bulk.  From the second segment on, the march stops when
    the last segment contributed less than ``abs_tol`` in magnitude and
    the geometric tail bound

        |tail| <= |last| * q / (1 - q),   q = |last| / |previous|

    is below ``abs_tol`` too (the bound is valid once the segment
    contributions decay, which exponential decay over doubling segments
    guarantees with q well under 1/2).  The bound is added to the
    reported error estimate.

    The segments run concurrently and fold into the result in order, so
    it is bit for bit that of the march run one segment at a time.
    Segment 1 starts with segment 0, and segment k + 1 beside segment k
    once segment k's first round estimates more than ``abs_tol / 4``, or
    else once the stop decision after segment k goes on.  So ``f`` sees
    no abscissa past the stop but in one case: when segment k's first
    estimate exceeds ``abs_tol / 4`` and its final value does not, a
    started segment k + 1 may be evaluated and then dropped, counting in
    no field of the result.

    Returns
    -------
    QuadratureResult
        ``converged`` is False if the segment budget was exhausted before
        the tail was bounded, or any segment failed to converge.
        Otherwise the error is within the sum of the segments' tolerances
        plus the tail bound, even when they cancel and the sum is near 0.
    """
    return integrate_semi_infinite_batch(lambda x, which: f(x), 1, spec,
                                         tail_cut=tail_cut)[0]


def integrate_semi_infinite_batch(f, count: int,
                                  spec: QuadratureSpec = QuadratureSpec(), *,
                                  tail_cut: float = 1.0
                                  ) -> list[QuadratureResult]:
    """Integrate ``count`` independent integrands over [0, inf) together.

    ``f(x, which)`` is the batched integrand: ``which[j]`` is the index
    (0 to ``count - 1``) of the integral that abscissa ``x[j]`` belongs
    to.  Each integral runs the segment march and bisection of
    :func:`integrate_semi_infinite` on its own, from the same leading
    width ``tail_cut``, and its result equals, bit for bit, what that
    function returns for the one integrand ``lambda x: f(x, index)``.
    What is shared is the call: every round hands the pending panels of
    the running segments of all unfinished integrals to ``f`` as one
    abscissa array, which pays the integrand's per-call overhead once.
    As for one integral, a segment started past its integral's stop
    counts in no field of that integral's result.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0.0 < tail_cut < math.inf:
        raise ValueError("tail_cut must be finite and positive")
    # budget the tolerance across segments and the tail bound so the
    # summed estimate still satisfies the advertised invariant
    panel_spec = replace(spec, abs_tol=spec.abs_tol / 32.0,
                         rel_tol=spec.rel_tol / 8.0)
    return _lockstep(f, count, panel_spec, 0.0, tail_cut, spec)
