"""Casimir interaction of coaxial conducting cylinders.

Exact mode-sum energy and pressure for a pair of concentric, perfectly
conducting cylinders, the proximity and periodic-orbit approximations to
compare against, and the force/frequency-shift estimates for a slightly
off-axis inner cylinder.  See the module docstrings for the physics
conventions; everything dimensionless is in units of hbar*c*L/a^2
(energies) or hbar*c/(2 pi a^4) (pressures) with a the inner radius.
"""

from .approx import (
    PROXIMITY_COEFF,
    ExponentFit,
    Orbit,
    effective_area,
    enumerate_orbits,
    fit_p,
    parallel_plate_energy_density,
    proximity_energy,
    proximity_energy_derivative,
    proximity_pressure,
    semiclassical_energy,
)
from .eccentric import (
    EccentricGeometry,
    ResonatorParams,
    eccentric_energy,
    eccentric_force_closed_form,
    eccentric_force_numeric,
    force_scale,
    frequency_shift,
    gap_radius,
)
from .exact import (
    DEFAULT_NUMERICS,
    HBAR_C,
    ORACLE_NUMERICS,
    SELF_ENERGY_COEFF,
    ConcentricGeometry,
    EnergyResult,
    NumericsConfig,
    PressureResult,
    casimir_energy,
    interaction_energy,
    interaction_energy_double_integral,
    interaction_energy_si,
    log_mode_factor,
    log_mode_factor_dalpha,
    pressure_inner,
    pressure_inner_si,
)
from .quadrature import (
    NonFiniteIntegrandError,
    QuadratureResult,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
)
from .specfun import (
    ScaledBesselPair,
    log_dirichlet_ratio,
    log_neumann_ratio,
    reflection_ratio_logs,
    reflection_ratio_logs_dalpha,
    scaled_modified_bessel,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_NUMERICS",
    "HBAR_C",
    "ORACLE_NUMERICS",
    "PROXIMITY_COEFF",
    "SELF_ENERGY_COEFF",
    "ConcentricGeometry",
    "EccentricGeometry",
    "EnergyResult",
    "ExponentFit",
    "NonFiniteIntegrandError",
    "NumericsConfig",
    "Orbit",
    "PressureResult",
    "QuadratureResult",
    "QuadratureSpec",
    "ResonatorParams",
    "ScaledBesselPair",
    "casimir_energy",
    "eccentric_energy",
    "eccentric_force_closed_form",
    "eccentric_force_numeric",
    "effective_area",
    "enumerate_orbits",
    "fit_p",
    "force_scale",
    "frequency_shift",
    "gap_radius",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
    "interaction_energy",
    "interaction_energy_double_integral",
    "interaction_energy_si",
    "log_dirichlet_ratio",
    "log_mode_factor",
    "log_mode_factor_dalpha",
    "log_neumann_ratio",
    "parallel_plate_energy_density",
    "pressure_inner",
    "pressure_inner_si",
    "proximity_energy",
    "proximity_energy_derivative",
    "proximity_pressure",
    "reflection_ratio_logs",
    "reflection_ratio_logs_dalpha",
    "scaled_modified_bessel",
    "semiclassical_energy",
]
