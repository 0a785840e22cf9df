r"""Closed-form approximations to the coaxial-cylinder Casimir energy.

Two families live here.  The first is the proximity estimate: integrate
the parallel-plate energy density :math:`-\pi^2 \hbar c / 720 l^3`
across the annular gap using an effective area
:math:`A_\mathrm{eff} = 2\pi L\, a^p b^{1-p}`.  The exponent ``p``
interpolates between crediting the inner surface (p = 1) and the outer
surface (p = 0); in dimensionless form (units :math:`\hbar c L / a^2`)

.. math::

    \hat e_\mathrm{prox}(\alpha; p)
        = -\frac{\pi^3}{360} \frac{\alpha^{1-p}}{(\alpha-1)^3}.

:func:`fit_p` recovers the exponent that best matches a set of exact
values; the geometric-mean choice p = 1/2 wins, and
:func:`semiclassical_energy` is that same p = 1/2 formula, which is also
what a periodic-orbit estimate dominated by the repeated radial bounce
between the cylinders resums to.

The second family is the orbit catalog itself
(:func:`enumerate_orbits`): closed planar photon paths in the annulus,
either inscribed polygons that bounce only on the outer wall (labeled
by bounce count and winding number) or the self-retracing radial
segment and its repetitions.  A polygon clears the inner cylinder iff
its chord midpoint radius ``cos(pi * windings / bounces)`` (in units of
the outer radius) is at least ``1/alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PROXIMITY_COEFF",
    "parallel_plate_energy_density",
    "effective_area",
    "proximity_energy",
    "proximity_energy_derivative",
    "proximity_pressure",
    "semiclassical_energy",
    "ExponentFit",
    "fit_p",
    "Orbit",
    "enumerate_orbits",
]

#: pi^3 / 360, the dimensionless prefactor of every proximity formula here.
PROXIMITY_COEFF = math.pi**3 / 360.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _validate_ratio(ratio: float) -> float:
    ratio = float(ratio)
    if not math.isfinite(ratio) or ratio <= 1.0:
        raise ValueError("radius ratio must be finite and > 1")
    return ratio


def _validate_exponent(exponent: float) -> float:
    exponent = float(exponent)
    if not 0.0 <= exponent <= 1.0:
        raise ValueError("effective-area exponent must lie in [0, 1]")
    return exponent


def parallel_plate_energy_density(gap: float) -> float:
    """Casimir energy per unit area of parallel plates, units hbar*c.

    Returns -pi^2 / (720 gap^3); multiply by HBAR_C for J/m^2 with the
    gap in meters.
    """
    if not gap > 0.0:
        raise ValueError("gap must be positive")
    return -math.pi**2 / (720.0 * gap**3)


def effective_area(inner_radius: float, outer_radius: float, length: float,
                   exponent: float) -> float:
    """Gap area credited by the proximity estimate.

    ``2 pi L inner^p outer^(1-p)``: the exponent slides between the
    outer surface area (0) and the inner one (1); 1/2 is the geometric
    mean of the two.
    """
    if not 0.0 < inner_radius < outer_radius:
        raise ValueError("require 0 < inner_radius < outer_radius")
    if not length > 0.0:
        raise ValueError("length must be positive")
    p = _validate_exponent(exponent)
    return 2.0 * math.pi * length * inner_radius**p * outer_radius ** (1.0 - p)


def proximity_energy(ratio: float, exponent: float = 0.5) -> float:
    """Proximity estimate of the dimensionless interaction energy.

    ``-(pi^3/360) * ratio^(1-exponent) / (ratio-1)^3`` in units
    hbar c L / a^2; the magnitude strictly decreases as the exponent
    grows, so exponent 0 and 1 bracket the geometric-mean value.
    """
    ratio = _validate_ratio(ratio)
    p = _validate_exponent(exponent)
    return -PROXIMITY_COEFF * ratio ** (1.0 - p) / (ratio - 1.0) ** 3


def proximity_energy_derivative(ratio: float, exponent: float = 0.5) -> float:
    """d/d(ratio) of :func:`proximity_energy`, in closed form."""
    ratio = _validate_ratio(ratio)
    p = _validate_exponent(exponent)
    return -PROXIMITY_COEFF * (
        (1.0 - p) * ratio**(-p) / (ratio - 1.0) ** 3
        - 3.0 * ratio ** (1.0 - p) / (ratio - 1.0) ** 4
    )


def proximity_pressure(ratio: float, exponent: float = 0.5) -> float:
    """Proximity estimate of the dimensionless pressure on the inner wall.

    Same functional as the exact pressure, ``2 e + ratio * e'``, with the
    ratio-derivative taken analytically; simplifies to

        e_prox * (3 - exponent - 3 ratio / (ratio - 1)).

    Positive (the inner cylinder is pulled outward), diverging like
    ``(ratio-1)^-4`` toward touching walls.
    """
    ratio = _validate_ratio(ratio)
    p = _validate_exponent(exponent)
    energy = proximity_energy(ratio, p)
    return energy * (3.0 - p - 3.0 * ratio / (ratio - 1.0))


def semiclassical_energy(ratio: float) -> float:
    """Periodic-orbit estimate of the dimensionless interaction energy.

    The repeated self-retracing radial bounce dominates the orbit sum
    and resums to exactly the geometric-mean proximity formula, so this
    is :func:`proximity_energy` with exponent 1/2, bitwise.
    """
    return proximity_energy(ratio, 0.5)


@dataclass(frozen=True)
class ExponentFit:
    """Best effective-area exponent and diagnostics from :func:`fit_p`.

    ``flat`` flags an objective whose total variation over [0, 1] is
    negligible (single near-contact points cannot identify the
    exponent); ``unimodal`` reports whether the coarse scan saw a single
    local minimum, in which case golden-section refinement produced
    ``best_exponent``, otherwise a dense scan's argmin is returned.
    """

    best_exponent: float
    objective: float
    flat: bool
    unimodal: bool
    exponent_grid: tuple[float, ...]
    objective_grid: tuple[float, ...]


_FLAT_TOL = 1e-3


def fit_p(ratios, exact_values, mode: str = "energy") -> ExponentFit:
    """Least-squares effective-area exponent against exact values.

    Minimizes the sum of squared *relative* discrepancies between the
    proximity quantity (energy or pressure, per ``mode``) and
    ``exact_values`` on the given ratio grid, over exponent in [0, 1].
    A coarse scan at step 0.01 establishes shape (and is returned for
    plotting); a unimodal objective is then refined by golden section,
    otherwise the dense-scan argmin at step 1e-3 is returned with
    ``unimodal=False``.

    Parameters
    ----------
    ratios : sequence of float
        Radius ratios, all > 1.
    exact_values : sequence of float
        Exact dimensionless energies (or pressures), nonzero, aligned
        with ``ratios``.
    mode : {"energy", "pressure"}

    Returns
    -------
    ExponentFit
    """
    ratios = [_validate_ratio(r) for r in ratios]
    exact = [float(v) for v in exact_values]
    if len(ratios) != len(exact) or not ratios:
        raise ValueError("ratios and exact_values must align and be non-empty")
    if any(v == 0.0 or not math.isfinite(v) for v in exact):
        raise ValueError("exact values must be finite and nonzero")
    if mode == "energy":
        model = proximity_energy
    elif mode == "pressure":
        model = proximity_pressure
    else:
        raise ValueError("mode must be 'energy' or 'pressure'")

    def objective(p: float) -> float:
        return sum(
            ((model(r, p) - v) / v) ** 2 for r, v in zip(ratios, exact)
        )

    coarse_p = [round(0.01 * i, 2) for i in range(101)]
    coarse_obj = [objective(p) for p in coarse_p]
    lo_val, hi_val = min(coarse_obj), max(coarse_obj)
    flat = (hi_val - lo_val) <= _FLAT_TOL * (1.0 + lo_val)

    # count interior local minima on the coarse scan
    minima = []
    for i, obj in enumerate(coarse_obj):
        left = coarse_obj[i - 1] if i > 0 else math.inf
        right = coarse_obj[i + 1] if i < 100 else math.inf
        if obj < left and obj <= right:
            minima.append(i)
    unimodal = len(minima) == 1

    if unimodal:
        i = minima[0]
        a = coarse_p[max(i - 1, 0)]
        b = coarse_p[min(i + 1, 100)]
        # golden-section to 1e-6 on the bracketing interval
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
        f1, f2 = objective(x1), objective(x2)
        while b - a > 1e-6:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLDEN * (b - a)
                f1 = objective(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLDEN * (b - a)
                f2 = objective(x2)
        best = 0.5 * (a + b)
    else:
        dense = np.linspace(0.0, 1.0, 1001)
        dense_obj = [objective(float(p)) for p in dense]
        best = float(dense[int(np.argmin(dense_obj))])

    return ExponentFit(
        best_exponent=best,
        objective=objective(best),
        flat=flat,
        unimodal=unimodal,
        exponent_grid=tuple(coarse_p),
        objective_grid=tuple(coarse_obj),
    )


@dataclass(frozen=True)
class Orbit:
    """One closed planar photon path in the annular cross-section.

    ``kind`` is "polygon" (paths bouncing only on the outer wall,
    labeled by ``bounces`` >= 2 and ``windings`` coprime to it) or
    "radial" (the self-retracing segment between the walls, whose
    ``repeats``-fold traversals are separate entries).  ``length`` is in
    units of the outer radius.  ``admissible`` records whether the path
    clears the inner cylinder; radial paths touch both walls by
    construction and are always admissible.
    """

    kind: str
    bounces: int
    windings: int
    repeats: int
    length: float
    admissible: bool


def enumerate_orbits(ratio: float, length_cap: float,
                     max_bounces: int = 64) -> list[Orbit]:
    """All closed annulus paths with length <= length_cap (units of b).

    Polygons have length ``2 * bounces * sin(pi windings / bounces)``
    and clear the inner cylinder iff ``cos(pi windings / bounces) >=
    1/ratio``; inadmissible ones are still listed, marked.  The
    ``windings``-fold circumnavigations accumulate at length
    ``2 pi windings`` as the bounce count grows, so any cap above
    ``2 pi`` admits infinitely many of them: ``max_bounces`` keeps the
    enumeration finite and is a hard ceiling, not a physical cutoff.
    Radial paths have length ``2 * repeats * (1 - 1/ratio)``; every
    repeat count under the cap is listed, up to ``max_bounces`` repeats
    (a radial record has ``bounces=1``, one bounce on the outer wall per
    repeat), so that a cap of many radial lengths still ends.

    Returns orbits sorted by length (ties broken by kind and labels).
    """
    ratio = _validate_ratio(ratio)
    if not length_cap > 0.0:
        raise ValueError("length_cap must be positive")
    if not math.isfinite(length_cap):
        # the radial repeats below would never stop
        raise ValueError("length_cap must be finite")
    if max_bounces < 2:
        raise ValueError("max_bounces must be at least 2")
    orbits = []
    clearance_min = 1.0 / ratio
    for bounces in range(2, max_bounces + 1):
        for windings in range(1, bounces // 2 + 1):
            if math.gcd(bounces, windings) != 1:
                continue
            angle = math.pi * windings / bounces
            length = 2.0 * bounces * math.sin(angle)
            if length > length_cap:
                continue
            orbits.append(Orbit(
                kind="polygon",
                bounces=bounces,
                windings=windings,
                repeats=1,
                length=length,
                admissible=math.cos(angle) >= clearance_min,
            ))
    radial_unit = 2.0 * (1.0 - 1.0 / ratio)
    repeats = 1
    while repeats <= max_bounces and repeats * radial_unit <= length_cap:
        orbits.append(Orbit(
            kind="radial",
            bounces=1,
            windings=0,
            repeats=repeats,
            length=repeats * radial_unit,
            admissible=True,
        ))
        repeats += 1
    orbits.sort(key=lambda o: (o.length, o.kind, o.bounces, o.windings, o.repeats))
    return orbits
