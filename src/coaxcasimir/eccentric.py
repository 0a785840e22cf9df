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
other.

One helper forms the distance r(θ) - a, the root
:math:`\sqrt{b^2 - \varepsilon^2 \cos^2\theta}` and the area element for
both integrands.  It forms r - a without cancellation, so near contact
the quadrature's error estimate still holds.  :func:`eccentric_energy`
and :func:`eccentric_force_numeric` return the θ-integral's
:class:`~.quadrature.QuadratureResult` scaled to joules or newtons, so
a quadrature that missed its tolerance shows as ``converged=False``,
not as a warning.  :func:`frequency_shift` depends on the concentric
base alone.  All lengths are in meters, energies in joules, forces in
newtons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exact import HBAR_C, ConcentricGeometry
from .quadrature import QuadratureResult, QuadratureSpec, integrate_finite

__all__ = [
    "EccentricGeometry",
    "ResonatorParams",
    "gap_radius",
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
        for name in ("mass", "angular_frequency"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")


def _gap(theta, a: float, b: float, offset: float):
    """sin θ, cos²θ, sqrt(b² - offset² cos²θ), r(θ) - a and g at ``theta``.

    ``g = sqrt(ab + offset a sin θ)`` is the area element per unit
    length and radian: the geometric mean of the two facing surface
    elements.  Near contact r - a is a tiny difference of two radii, so
    it is formed without subtracting them: with gap h = b - a and
    f = |offset| / h,

        r - a = h [2a (1 ± f sin θ) + h (1 - f)(1 + f)]
                / (sqrt(b² - offset² cos²θ) + a - offset sin θ),

    the sign that of the offset.  1 - f = (h - |offset|) / h is an exact
    difference near contact, and 1 ± f sin θ = (1 - f)
    + 2f sin²(θ/2 ± π/4), so no term cancels where the gap closes.
    """
    h = b - a
    f = abs(offset) / h
    shut = (h - abs(offset)) / h
    sin = np.sin(theta)
    cos2 = np.cos(theta) ** 2
    root = np.sqrt(b**2 - offset**2 * cos2)
    near = shut + 2.0 * f * np.sin(
        0.5 * theta + math.copysign(0.25 * math.pi, offset)) ** 2
    dist = h * (2.0 * a * near + h * shut * (1.0 + f)) / (
        root + a - offset * sin)
    g = np.sqrt(a * b + offset * a * sin)
    return sin, cos2, root, dist, g


def gap_radius(theta, outer_radius: float, offset: float):
    """Distance from the inner axis to the outer wall along direction theta.

    ``sqrt(b^2 - offset^2 cos^2 theta) + offset sin theta``; ranges over
    [b - offset, b + offset], narrowest at theta = -pi/2 for positive
    offset.  Accepts scalar or ndarray theta.
    """
    if not abs(offset) < outer_radius:
        raise ValueError("|offset| must be smaller than the outer radius")
    theta = np.asarray(theta, dtype=float)
    out = (np.sqrt(outer_radius**2 - offset**2 * np.cos(theta) ** 2)
           + offset * np.sin(theta))
    return float(out) if out.ndim == 0 else out


def _energy_integral(a: float, b: float, offset: float,
                     spec: QuadratureSpec) -> QuadratureResult:
    """∫ g / (r(θ) - a)^3 dθ over one period, ``g`` as in :func:`_gap`."""

    def integrand(theta: np.ndarray) -> np.ndarray:
        _, _, _, dist, g = _gap(theta, a, b, offset)
        return g / dist**3

    return integrate_finite(integrand, 0.0, _TWO_PI, spec)


def _force_integral(a: float, b: float, offset: float,
                    spec: QuadratureSpec) -> QuadratureResult:
    """θ-integral of d/d(offset) of the energy integrand, in closed form.

    The force is -dE/d(offset) and E carries a negative prefactor times
    the energy integral, so the force is that same (positive) prefactor
    times this integral.  Ingredients:

    d r / d offset = sin θ - offset cos²θ / sqrt(b² - offset² cos²θ)
    d g / d offset = a sin θ / (2 g),   g = sqrt(ab + offset a sin θ)
    """

    def integrand(theta: np.ndarray) -> np.ndarray:
        sin, cos2, root, dist, g = _gap(theta, a, b, offset)
        dr = sin - offset * cos2 / root
        dg = a * sin / (2.0 * g)
        dist3 = dist**3
        return dg / dist3 - 3.0 * g * dr / (dist3 * dist)

    return integrate_finite(integrand, 0.0, _TWO_PI, spec)


def eccentric_energy(geom: EccentricGeometry,
                     spec: QuadratureSpec = QuadratureSpec()
                     ) -> QuadratureResult:
    """Proximity energy of the offset pair, in joules.

    Returns the gap integral's record scaled to joules: ``value`` is the
    energy, ``error_estimate`` its bound, and ``converged`` says whether
    the quadrature met its tolerance.  The energy strictly decreases
    (grows more negative) as the offset increases at fixed radii; at
    zero offset it equals the concentric geometric-mean proximity
    energy.
    """
    a = geom.base.inner_radius
    b = geom.base.outer_radius
    part = _energy_integral(a, b, geom.axis_offset, spec)
    return part.scaled(-math.pi**2 * HBAR_C * geom.base.length / 720.0)


def eccentric_force_numeric(geom: EccentricGeometry,
                            spec: QuadratureSpec = QuadratureSpec()
                            ) -> QuadratureResult:
    """Force along the offset direction, in newtons (positive = apart).

    Minus the offset-derivative of :func:`eccentric_energy`, with the
    derivative taken inside the integral in closed form and the single
    remaining θ-integral done numerically.  Returns that integral's
    record scaled to newtons, as :func:`eccentric_energy` does in
    joules.  At zero offset the integrand is proportional to sin θ
    over a full period, so the force is exactly 0.0, without quadrature.
    """
    a = geom.base.inner_radius
    b = geom.base.outer_radius
    if geom.axis_offset == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    part = _force_integral(a, b, geom.axis_offset, spec)
    return part.scaled(math.pi**2 * HBAR_C * geom.base.length / 720.0)


def _finite(quantity: str, at: str, formula) -> float:
    """``formula()``, or OverflowError naming ``quantity`` when that is
    not a finite float."""
    try:
        value = formula()
    except ArithmeticError:  # a power overflowed, or a divisor was 0
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"the {quantity} is not a finite float at {at}")
    return value


def force_scale(geom: EccentricGeometry) -> float:
    """The linear-response force scale F0 = pi^3 hbar c L a / 60 (b-a)^4.

    The small-offset force is ``offset_fraction * force_scale``; the
    scale itself is in newtons.  Raises OverflowError when F0 is not a
    finite float, as for gaps whose fourth power leaves the double range.
    """
    a = geom.base.inner_radius
    gap = geom.base.outer_radius - a
    return _finite("force scale F0", f"a gap of {gap!r}", lambda: (
        math.pi**3 * HBAR_C * geom.base.length * a / (60.0 * gap**4)))


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
    small-shift expansion used to derive the formula.  The shift is
    formed one division at a time, so a shift below the double range
    rounds to -0.0 however it got there, while one above it raises
    OverflowError.
    """
    gap = geom.base.outer_radius - geom.base.inner_radius
    scale = force_scale(geom)
    omega = res.angular_frequency
    shift = _finite(
        "frequency shift", f"a mass of {res.mass!r} and an angular "
        f"frequency of {omega!r}",
        lambda: -(scale / (2.0 * gap)) / res.mass / omega / omega)
    if abs(shift) > 0.1:
        warnings.warn(
            "relative frequency shift above 0.1: small-shift assumption "
            "is broken",
            stacklevel=2,
        )
    return shift
