"""End-to-end acceptance gates for the package.

Each test here encodes one of the project's acceptance gates, with
tolerances pinned up front.  Two of them fail by
design-honesty rather than by bug: the computed physics places the
measured quantity outside the gated range, and weakening the gate to
make it pass would hide that finding.  The companion regression tests
pin the measured values so any drift is caught:

* the exact/geometric-mean pressure discrepancy stays below 10% only
  up to a radius ratio of about 3.6 on the gated grid, reaching ~11.8%
  at ratio 4 (``test_pressure_tracks_geometric_mean_within_ten_percent``
  fails; ``test_pressure_discrepancy_envelope`` records the true shape);
* the best-fit area exponent over ratios [1.5, 3] is ~0.637 for the
  energy objective and ~0.585 for the pressure objective, not within
  [0.45, 0.55] (``test_best_area_exponent_near_geometric_mean`` fails;
  ``test_best_area_exponent_regression`` records the values).

See README "Findings" for the full analysis and the verification chain
backing both numbers.
"""

import csv
import math
import time

import numpy as np
import pytest

from coaxcasimir import (
    ORACLE_NUMERICS,
    casimir_energy,
    ConcentricGeometry,
    EccentricGeometry,
    eccentric_force_closed_form,
    eccentric_force_numeric,
    fit_p,
    force_scale,
    interaction_energy,
    interaction_energy_double_integral,
    pressure_inner,
    proximity_energy,
    proximity_pressure,
    scaled_modified_bessel,
)
from coaxcasimir.cli import main
from coaxcasimir.specfun import _log_ik_debye, _log_ik_scipy

SWEEP_GRID_POINTS = 30
DISCREPANCY_BOUND = 0.10
# regression pins from the first validated build (library values, not
# independent-oracle values; they guard against drift)
MAX_DISCREPANCY_AT_4 = 0.11781892370395025
BEST_EXPONENT_ENERGY = 0.6370657423223163
BEST_EXPONENT_PRESSURE = 0.5853601991436854
# second-order coefficient of the exact energy over the p = 1/2 proximity
# energy at contact, extrapolated from the library's near-contact energies
C2_NEAR_CONTACT = -0.17764


# ----------------------------------------------------------------------
# shared expensive computations
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    """The gated 30-point pressure sweep over [1.1, 4], via the CLI."""
    out = tmp_path_factory.mktemp("sweep") / "gate.csv"
    code = main([
        "sweep", "--alpha-min", "1.1", "--alpha-max", "4.0",
        "--steps", str(SWEEP_GRID_POINTS),
        "--quantities", "pressure,proximity:0.5,discrepancy",
        "--workers", "1", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == SWEEP_GRID_POINTS
    assert all(row["status"] == "ok" for row in rows)
    return [
        {key: float(value) for key, value in row.items() if key != "status"}
        for row in rows
    ]


@pytest.fixture(scope="module")
def energy_fit():
    grid = [1.5, 2.0, 2.5, 3.0]
    exact = [interaction_energy(alpha).value for alpha in grid]
    return grid, exact, fit_p(grid, exact, mode="energy")


# ----------------------------------------------------------------------
# dual-route energy identity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 3.0, 4.0])
def test_energy_reduction_identity(alpha):
    """Mode-sum and double-integral routes agree to 1e-6, under 60 s."""
    start = time.monotonic()
    reduced = interaction_energy(alpha, ORACLE_NUMERICS)
    double = interaction_energy_double_integral(alpha, ORACLE_NUMERICS)
    elapsed = time.monotonic() - start
    assert reduced.converged and double.converged
    rel = abs(double.value / reduced.value - 1.0)
    assert rel <= 1e-6, f"routes disagree by {rel:.3e} at alpha={alpha}"
    assert elapsed < 60.0, f"{elapsed:.1f} s at alpha={alpha}"


# ----------------------------------------------------------------------
# pressure vs geometric-mean proximity
# ----------------------------------------------------------------------

def test_pressure_tracks_geometric_mean_within_ten_percent(default_sweep):
    """Gate: below 10% everywhere on the grid.  KNOWN FAILURE.

    The discrepancy crosses 10% near ratio 3.7 and reaches ~11.8% at
    ratio 4.  The bound genuinely holds only on [1.1, ~3.6]; see the
    envelope regression below and README "Findings".
    """
    worst = max(row["discrepancy"] for row in default_sweep)
    where = max(default_sweep, key=lambda row: row["discrepancy"])["alpha"]
    assert worst < DISCREPANCY_BOUND, (
        f"max pressure discrepancy {worst:.4f} at alpha={where:g} "
        f"(bound {DISCREPANCY_BOUND})"
    )


def test_pressure_discrepancy_envelope(default_sweep):
    """What actually holds: <10% up to ratio 3.6, ~11.8% worst at 4."""
    inside = [row for row in default_sweep if row["alpha"] <= 3.6]
    assert max(row["discrepancy"] for row in inside) < DISCREPANCY_BOUND
    assert default_sweep[-1]["alpha"] == pytest.approx(4.0)
    assert default_sweep[-1]["discrepancy"] == pytest.approx(
        MAX_DISCREPANCY_AT_4, rel=1e-3
    )
    # the discrepancy grows monotonically with the ratio on this grid
    trend = [row["discrepancy"] for row in default_sweep]
    assert trend == sorted(trend)


def test_extreme_area_exponents_fail_beyond_ratio_two(default_sweep):
    """All-inner (p=1) and all-outer (p=0) areas miss by >10% out wide."""
    wide = [row for row in default_sweep if 2.0 < row["alpha"] <= 4.0]
    assert wide, "grid must sample ratios in (2, 4]"
    for exponent in (0.0, 1.0):
        worst = max(
            abs(row["pressure"] - proximity_pressure(row["alpha"], exponent))
            / abs(row["pressure"])
            for row in wide
        )
        assert worst > DISCREPANCY_BOUND, (
            f"exponent {exponent} unexpectedly within 10% everywhere"
        )


# ----------------------------------------------------------------------
# narrow-gap (parallel-plate) limit
# ----------------------------------------------------------------------

def test_narrow_gap_energy_approaches_parallel_plate_form():
    """e(a) (a-1)^3 / (-pi^3/360) -> 1 from above as the gap closes."""
    scaled = {}
    for alpha in (1.05, 1.02, 1.01):
        value = interaction_energy(alpha).value
        scaled[alpha] = value * (alpha - 1.0) ** 3 / (-math.pi**3 / 360.0)
    assert 0.95 <= scaled[1.01] <= 1.05
    assert scaled[1.05] > scaled[1.02] > scaled[1.01] > 1.0


def test_proximity_energy_correction_is_second_order_near_contact():
    """(E/E_PFA - 1)/(alpha - 1)^2 tends to c2 = -0.17764 as the gap
    closes, E_PFA the p = 1/2 proximity energy: its correction has no
    first-order term.

    The coefficient c(g) at the gaps g = 1e-2, 3e-3 and 1e-3 is
    extrapolated to g = 0 through the quadratic in g (Richardson).  The
    tolerance carries each gap's reported energy error through c(g) and
    the extrapolation weights.
    """
    gaps = [alpha - 1.0 for alpha in (1.01, 1.003, 1.001)]
    coefficients, errors = [], []
    for gap in gaps:
        result = interaction_energy(1.0 + gap)
        assert result.converged
        model = proximity_energy(1.0 + gap, 0.5)
        coefficients.append((result.value / model - 1.0) / gap**2)
        errors.append(result.error / abs(model) / gap**2)
    weights = [math.prod(other / (other - gap) for other in gaps
                         if other != gap) for gap in gaps]
    c2 = math.fsum(w * c for w, c in zip(weights, coefficients))
    tolerance = math.fsum(abs(w) * e for w, e in zip(weights, errors))
    assert abs(c2 - C2_NEAR_CONTACT) <= tolerance, (c2, tolerance)
    # c(g) approaches c2 from above, monotonically
    assert coefficients[0] > coefficients[1] > coefficients[2] > c2


# ----------------------------------------------------------------------
# best-fit area exponent
# ----------------------------------------------------------------------

def test_best_area_exponent_near_geometric_mean(energy_fit):
    """Gate: best exponent in [0.45, 0.55].  KNOWN FAILURE.

    The fitted exponent over ratios [1.5, 3] is ~0.637 (energy
    objective; ~0.585 for pressure).  The geometric mean p = 1/2 is
    decisively better than either extreme (see the cruciality test) and
    is the small-gap limit, but it is not the least-squares optimum on
    this window.  See README "Findings".
    """
    _, _, fit = energy_fit
    assert 0.45 <= fit.best_exponent <= 0.55, (
        f"best exponent {fit.best_exponent:.4f} outside [0.45, 0.55]"
    )


def test_best_area_exponent_regression(energy_fit):
    grid, exact, fit = energy_fit
    assert fit.best_exponent == pytest.approx(BEST_EXPONENT_ENERGY, abs=2e-3)
    assert fit.unimodal and not fit.flat

    pressures = [pressure_inner(alpha).value for alpha in grid]
    pressure_fit = fit_p(grid, pressures, mode="pressure")
    assert pressure_fit.best_exponent == pytest.approx(
        BEST_EXPONENT_PRESSURE, abs=2e-3
    )


def test_geometric_mean_choice_is_crucial(energy_fit):
    """p = 1/2 beats both area extremes by a wide objective margin."""
    grid, exact, _ = energy_fit

    def objective(exponent):
        return sum(
            ((proximity_energy(alpha, exponent) - value) / value) ** 2
            for alpha, value in zip(grid, exact)
        )

    mid, outer, inner = objective(0.5), objective(0.0), objective(1.0)
    assert 3.0 * mid < outer
    assert 3.0 * mid < inner


# ----------------------------------------------------------------------
# wide-separation constant
# ----------------------------------------------------------------------

def test_total_energy_constant_at_wide_separation():
    alpha = 50.0
    assert abs(
        casimir_energy(alpha) + 0.01356 * (1.0 + alpha**-2)
    ) < 1e-4


# ----------------------------------------------------------------------
# eccentric force
# ----------------------------------------------------------------------

def test_eccentric_force_suite():
    base = ConcentricGeometry(1.0, 1.05, 1.0)
    gap = 0.05

    # exactly zero at zero offset
    assert eccentric_force_numeric(EccentricGeometry(base, 0.0)).value == 0.0

    # closed form is linear with unit slope at small offset
    tiny = EccentricGeometry(base, 1e-4 * gap)
    ratio = eccentric_force_closed_form(tiny) / (
        force_scale(tiny) * tiny.offset_fraction
    )
    assert ratio == pytest.approx(1.0, abs=1e-7)

    # the numeric route reproduces the unit slope as the gap closes
    thin_base = ConcentricGeometry(1.0, 1.01, 1.0)
    probe = EccentricGeometry(thin_base, 0.01 * 0.01)
    numeric_ratio = eccentric_force_numeric(probe).value / (
        force_scale(probe) * probe.offset_fraction
    )
    assert numeric_ratio == pytest.approx(1.0, abs=0.01)


def test_eccentric_force_near_contact_scaling():
    """Closed-form force scales like (smallest gap)^(-7/2) near contact."""
    base = ConcentricGeometry(1.0, 1.05, 1.0)
    gap = 0.05
    fractions = np.linspace(0.95, 0.999, 8)
    log_force = []
    log_gap = []
    for fraction in fractions:
        geom = EccentricGeometry(base, fraction * gap)
        log_force.append(math.log(eccentric_force_closed_form(geom)))
        log_gap.append(math.log(gap * (1.0 - fraction)))
    slope = np.polyfit(log_gap, log_force, 1)[0]
    assert slope == pytest.approx(-3.5, abs=0.05)


def test_eccentric_routes_agree_and_tighten_toward_contact_limit():
    """Numeric vs closed form: <=5% to half offset, shrinking as a->b."""
    def worst_residual(outer_radius):
        base = ConcentricGeometry(1.0, outer_radius, 1.0)
        gap = outer_radius - 1.0
        residuals = []
        for fraction in (0.1, 0.2, 0.3, 0.4, 0.5):
            geom = EccentricGeometry(base, fraction * gap)
            numeric = eccentric_force_numeric(geom).value
            closed = eccentric_force_closed_form(geom)
            residuals.append(abs(numeric - closed) / abs(closed))
        return max(residuals)

    at_105 = worst_residual(1.05)
    assert at_105 <= 0.05
    assert worst_residual(1.02) < at_105


# ----------------------------------------------------------------------
# special-function identities
# ----------------------------------------------------------------------

def test_wronskian_identity_on_dense_grid():
    """Partly constructive up to order 40, where the kernel builds i_n
    from the Wronskian; the mpmath pins in test_specfun check i_n."""
    n, x = np.meshgrid(np.arange(0, 201), np.geomspace(1e-3, 1e4, 40),
                       indexing="ij")
    li, lk, lip, lkp = scaled_modified_bessel(n, x)
    wronskian = -(np.exp(li + lkp) + np.exp(lip + lk))
    worst = np.max(np.abs(wronskian * x + 1.0))
    assert worst <= 1e-12, f"worst Wronskian defect {worst:.3e}"


def test_evaluation_regimes_agree_on_overlap_grid():
    xs = np.geomspace(0.5, 1e4, 40)
    worst = 0.0
    for n in range(41, 81):
        for x in xs:
            xa = np.asarray(x)
            na = np.asarray(n)
            li_d, lk_d = _log_ik_scipy(na, xa)[:2]
            li_a, lk_a = _log_ik_debye(na, xa)[:2]
            worst = max(
                worst,
                abs(float(li_a - li_d)),
                abs(float(lk_a - lk_d)),
            )
    assert worst <= 1e-10, f"worst regime disagreement {worst:.3e}"


# ----------------------------------------------------------------------
# reproducibility of the full sweep
# ----------------------------------------------------------------------

def test_full_sweep_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    argv = ["sweep", "--workers", "8"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    header = first.read_text(encoding="utf-8").splitlines()[0]
    # the default sweep carries the exact and geometric-mean curves for
    # both energy and pressure, ready for plotting
    for column in (
        "interaction_energy",
        "pressure",
        "proximity_energy_p0.5",
        "proximity_pressure_p0.5",
        "discrepancy",
    ):
        assert column in header.split(",")
