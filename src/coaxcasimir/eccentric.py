r"""Energy, restoring force, and resonator shift for offset cylinder axes.

The inner cylinder's axis is displaced by ``offset`` from the outer
one's.  Seen from the inner axis, the outer wall sits at

.. math::

    r(\theta) = \sqrt{b^2 - \varepsilon^2 \cos^2\theta}
                + \varepsilon \sin\theta,

so the narrowest gap is at :math:`\theta = -\pi/2` for positive offset.
The proximity estimate integrates the parallel-plate energy density over
the gap with the local geometric-mean area element
:math:`dA = L \sqrt{ab + \varepsilon a \sin\theta}\, d\theta`:

.. math::

    E(\varepsilon) = -\frac{\pi^2 \hbar c}{720}
        \int_0^{2\pi} \frac{L\sqrt{ab + \varepsilon a \sin\theta}}
                           {(r(\theta) - a)^3}\, d\theta .

The force along the offset direction is :math:`F = -\partial E /
\partial\varepsilon`, computed by differentiating the integrand in
closed form (no subtractive cancellation near zero offset, where the
force itself vanishes by symmetry).  Positive force pushes the axes
further apart: concentricity is an unstable equilibrium.  For small
offset fraction :math:`\tilde\varepsilon = \varepsilon/(b-a)` the force
is linear, :math:`F \approx \tilde\varepsilon F_0` with
:math:`F_0 = \pi^3 \hbar c L a / 60 (b-a)^4`, and the leading-order
closed form for general offset is

.. math::

    F \approx F_0 \,\frac{\tilde\varepsilon + \tilde\varepsilon^3/4}
                        {(1 - \tilde\varepsilon^2)^{7/2}} ,

which diverges like ``(smallest gap)^(-7/2)`` toward contact.  The
numeric and closed-form routes are kept as mutually checking
implementations; their residual shrinks as the radii approach each
other.  All lengths are in meters, energies in joules, forces in
newtons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exact import HBAR_C, ConcentricGeometry
from .quadrature import QuadratureResult, QuadratureSpec, integrate_finite

__all__ = [
    "EccentricGeometry",
    "ResonatorParams",
    "gap_radius",
    "effective_area_element",
    "eccentric_energy",
    "eccentric_force_numeric",
    "eccentric_force_closed_form",
    "force_scale",
    "frequency_shift",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EccentricGeometry:
    """Concentric base geometry plus a transverse axis offset (meters).

    The inner cylinder must stay strictly inside the outer one:
    ``0 <= axis_offset < outer_radius - inner_radius``.  A ratio of
    radii above 2 is accepted with a warning -- the proximity treatment
    behind every result here is only trustworthy for narrow gaps.
    """

    base: ConcentricGeometry
    axis_offset: float = 0.0

    def __post_init__(self):
        gap = self.base.outer_radius - self.base.inner_radius
        if not 0.0 <= self.axis_offset < gap:
            raise ValueError(
                "axis_offset must satisfy 0 <= offset < outer - inner "
                "(cylinders must not touch)"
            )
        if self.base.ratio > 2.0:
            warnings.warn(
                "radius ratio above 2: the narrow-gap approximation "
                "behind the eccentric formulas is untested this wide",
                stacklevel=3,
            )

    @property
    def offset_fraction(self) -> float:
        """Offset as a fraction of the radial gap, in [0, 1)."""
        gap = self.base.outer_radius - self.base.inner_radius
        return self.axis_offset / gap


@dataclass(frozen=True)
class ResonatorParams:
    """Effective mass (kg) and natural angular frequency (rad/s)."""

    mass: float
    angular_frequency: float

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        if not self.angular_frequency > 0.0:
            raise ValueError("angular_frequency must be positive")


def gap_radius(theta, outer_radius: float, offset: float):
    """Distance from the inner axis to the outer wall along direction theta.

    ``sqrt(b^2 - offset^2 cos^2 theta) + offset sin theta``; ranges over
    [b - offset, b + offset], narrowest at theta = -pi/2 for positive
    offset.  Accepts scalar or ndarray theta.
    """
    if not abs(offset) < outer_radius:
        raise ValueError("|offset| must be smaller than the outer radius")
    theta = np.asarray(theta, dtype=float)
    root = np.sqrt(outer_radius**2 - (offset * np.cos(theta)) ** 2)
    out = root + offset * np.sin(theta)
    return float(out) if out.ndim == 0 else out


def effective_area_element(theta, geom: EccentricGeometry):
    """Local gap area per radian, ``L sqrt(ab + offset a sin theta)``.

    The geometric mean of the two facing surface elements; reduces to
    ``L sqrt(ab)`` when the axes coincide.
    """
    a = geom.base.inner_radius
    b = geom.base.outer_radius
    theta = np.asarray(theta, dtype=float)
    out = geom.base.length * np.sqrt(a * b + geom.axis_offset * a * np.sin(theta))
    return float(out) if out.ndim == 0 else out


def _warn_near_contact(a: float, b: float, offset: float) -> None:
    gap = b - a
    if (gap - abs(offset)) / gap < 1e-3:
        warnings.warn(
            "offset within 0.1% of contact: the gap integrand is nearly "
            "singular and the quadrature error estimate may be optimistic",
            stacklevel=3,
        )


def _energy_integral(a: float, b: float, offset: float,
                     spec: QuadratureSpec):
    """∫ sqrt(ab + offset*a*sin θ) / (r(θ) - a)^3 dθ over one period."""

    def integrand(theta: np.ndarray) -> np.ndarray:
        r = gap_radius(theta, b, offset)
        g = np.sqrt(a * b + offset * a * np.sin(theta))
        return g / (r - a) ** 3

    return integrate_finite(integrand, 0.0, _TWO_PI, spec)


def _force_integral(a: float, b: float, offset: float,
                    spec: QuadratureSpec):
    """θ-integral of d/d(offset) of the energy integrand, in closed form.

    The force is -dE/d(offset) and E carries a negative prefactor times
    the energy integral, so the force is that same (positive) prefactor
    times this integral.  Ingredients:

    d r / d offset = sin θ - offset cos²θ / sqrt(b² - offset² cos²θ)
    d g / d offset = a sin θ / (2 g),   g = sqrt(ab + offset a sin θ)
    """

    def integrand(theta: np.ndarray) -> np.ndarray:
        sin = np.sin(theta)
        cos2 = np.cos(theta) ** 2
        root = np.sqrt(b**2 - offset**2 * cos2)
        r = root + offset * sin
        g = np.sqrt(a * b + offset * a * sin)
        dr = sin - offset * cos2 / root
        dg = a * sin / (2.0 * g)
        gap3 = (r - a) ** 3
        return dg / gap3 - 3.0 * g * dr / (gap3 * (r - a))

    return integrate_finite(integrand, 0.0, _TWO_PI, spec)


def eccentric_energy(geom: EccentricGeometry,
                     spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Proximity energy of the offset pair, in joules.

    Strictly decreases (grows more negative) as the offset increases at
    fixed radii; at zero offset it equals the concentric geometric-mean
    proximity energy.  Warns within 0.1% of contact, where the integrand
    is nearly singular.
    """
    a = geom.base.inner_radius
    b = geom.base.outer_radius
    _warn_near_contact(a, b, geom.axis_offset)
    part = _energy_integral(a, b, geom.axis_offset, spec)
    if not part.converged:
        warnings.warn("gap quadrature did not converge", stacklevel=2)
    coeff = -math.pi**2 * HBAR_C * geom.base.length / 720.0
    return coeff * part.value


def eccentric_force_numeric(geom: EccentricGeometry,
                            spec: QuadratureSpec = QuadratureSpec()
                            ) -> QuadratureResult:
    """Force along the offset direction, in newtons (positive = apart).

    Minus the offset-derivative of :func:`eccentric_energy`, with the
    derivative taken inside the integral in closed form and the single
    remaining θ-integral done numerically.  Returns that integral's
    record scaled to newtons: ``value`` is the force, ``error_estimate``
    its bound, and ``converged`` says whether the quadrature met its
    tolerance.  At zero offset the integrand is proportional to sin θ
    over a full period, so the force is exactly 0.0, without quadrature.
    """
    a = geom.base.inner_radius
    b = geom.base.outer_radius
    if geom.axis_offset == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    _warn_near_contact(a, b, geom.axis_offset)
    part = _force_integral(a, b, geom.axis_offset, spec)
    if not part.converged:
        warnings.warn("gap quadrature did not converge", stacklevel=2)
    coeff = math.pi**2 * HBAR_C * geom.base.length / 720.0
    return replace(part, value=coeff * part.value,
                   error_estimate=coeff * part.error_estimate)


def force_scale(geom: EccentricGeometry) -> float:
    """The linear-response force scale F0 = pi^3 hbar c L a / 60 (b-a)^4.

    The small-offset force is ``offset_fraction * force_scale``; the
    scale itself is in newtons.
    """
    a = geom.base.inner_radius
    gap = geom.base.outer_radius - a
    return math.pi**3 * HBAR_C * geom.base.length * a / (60.0 * gap**4)


def eccentric_force_closed_form(geom: EccentricGeometry) -> float:
    """Leading-order closed form for the force, in newtons.

    ``F0 (f + f^3/4) / (1 - f^2)^(7/2)`` with f the offset fraction;
    exact at f = 0, diverging like (smallest gap)^(-7/2) toward contact.
    """
    f = geom.offset_fraction
    return force_scale(geom) * (f + 0.25 * f**3) / (1.0 - f * f) ** 3.5


def frequency_shift(geom: EccentricGeometry, res: ResonatorParams) -> float:
    """Relative frequency shift of a resonator holding the inner cylinder.

    The linear instability of the concentric equilibrium softens a
    suspension of mass M and natural angular frequency w0 by

        d(omega)/omega0 = -F0 / (2 (b - a) M w0^2),

    always negative.  Warns when the magnitude exceeds 0.1, outside the
    small-shift expansion used to derive the formula.
    """
    gap = geom.base.outer_radius - geom.base.inner_radius
    shift = -force_scale(geom) / (
        2.0 * gap * res.mass * res.angular_frequency**2
    )
    if abs(shift) > 0.1:
        warnings.warn(
            "relative frequency shift above 0.1: small-shift assumption "
            "is broken",
            stacklevel=2,
        )
    return shift
