"""Casimir interaction of coaxial conducting cylinders.

Exact mode-sum energy and pressure for a pair of concentric, perfectly
conducting cylinders, the proximity and periodic-orbit approximations to
compare against, and the force/frequency-shift estimates for a slightly
off-axis inner cylinder.  See the module docstrings for the physics
conventions; everything dimensionless is in units of hbar*c*L/a^2
(energies) or hbar*c/(2 pi a^4) (pressures) with a the inner radius.

The public names are those of each module's ``__all__``.
"""

from . import approx, eccentric, exact, quadrature, specfun
from .approx import *  # noqa: F401,F403
from .eccentric import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *approx.__all__, *eccentric.__all__,
           *exact.__all__, *quadrature.__all__, *specfun.__all__]
