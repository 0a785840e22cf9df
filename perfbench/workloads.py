"""The three benchmark workloads: inputs from a seed, the run, the checks.

Each workload is one thing a user of ``coaxcasimir`` runs:

* ``quickstart`` -- the README quick-start commands through ``cli.main``;
* ``near-contact`` -- ``energy --alpha 1.01`` through ``cli.main``;
* ``cross-check`` -- the reduced and the double-integral energy routes
  at alpha = 2 through the Python API.

Seed 0 gives exactly those inputs.  Any other seed moves every radius
ratio alpha within a band of +-1% of its gap, ``alpha - 1``, so the cost
stays comparable (the angular order count grows like 1/(alpha - 1)).
The pinned values of the test suite are checked only at seed 0; the
checks that need no pin run at every seed.

``run`` returns the raw outputs (CLI text, result reprs), which must be
bitwise identical between a traced and an untraced run.  ``check``
turns them into a list of operations, each one checked result.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import warnings

from coaxcasimir import approx, cli, exact

NAMES = ("quickstart", "near-contact", "cross-check")

#: The seed whose inputs are exactly the documented ones.
DEFAULT_SEED = 0
#: Half-width of the seeded band, as a share of alpha - 1.
ALPHA_BAND = 0.01

# Pins copied from the test suite with its tolerances, never looser.
ENERGY_AT_2 = -0.1124314966388046            # tests/test_exact.py ENERGY_AT_2
ENERGY_AT_2_REL = 1e-9
PRESSURE_AT_2 = 0.416106818495               # tests/test_exact.py PRESSURE_AT_2
PRESSURE_AT_2_REL = 5e-6
PRESSURE_AT_4 = 0.008561170521398551         # tests/test_exact.py PRESSURE_AT_4
PRESSURE_AT_4_REL = 1e-6
MAX_DISCREPANCY_AT_4 = 0.11781892370395025   # tests/test_acceptance.py MAX_DISCREPANCY_AT_4
MAX_DISCREPANCY_AT_4_REL = 1e-3
BEST_EXPONENT_ENERGY = 0.6370657423223163    # tests/test_acceptance.py BEST_EXPONENT_ENERGY
BEST_EXPONENT_ENERGY_ABS = 2e-3
# Seed-independent bounds.
ROUTE_AGREEMENT = 1e-6     # tests/test_acceptance.py test_energy_reduction_identity
ECCENTRIC_AGREEMENT = 0.05  # tests/test_acceptance.py test_eccentric_routes_agree_...
# Near contact the exact energy and the geometric-mean proximity energy
# differ by 0.17 (alpha - 1)^2 relative (1.8e-5 at 1.01, 1.7e-3 at 1.1);
# the check allows 0.5 (alpha - 1)^2.
NEAR_CONTACT_BAND = 0.5


def _seeded(alpha: float, rng: random.Random | None) -> float:
    if rng is None:
        return alpha
    return 1.0 + (alpha - 1.0) * (1.0 + ALPHA_BAND * rng.uniform(-1.0, 1.0))


def inputs(name: str, seed: int, small: bool = False) -> dict:
    """The workload's inputs; ``small`` is the fast setting the test uses."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    rng = None if seed == DEFAULT_SEED else random.Random(f"{name}/{seed}")
    if name == "quickstart":
        return {
            "energy_alpha": _seeded(2.0, rng),
            "sweep_alpha_min": _seeded(1.25 if small else 1.1, rng),
            "sweep_alpha_max": _seeded(4.0, rng),
            "sweep_steps": 2 if small else 30,
            "fit_alpha_min": _seeded(1.5, rng),
            "fit_alpha_max": _seeded(3.0, rng),
            "ecc_inner": 0.01,
            "ecc_outer": 0.01 * _seeded(1.01, rng),
            "orbit_alpha": _seeded(2.0, rng),
        }
    if name == "near-contact":
        return {"alpha": _seeded(1.1 if small else 1.01, rng)}
    return {"alpha": _seeded(10.0 if small else 2.0, rng)}


def _cli(argv: list[str]) -> dict:
    """Run one CLI command in-process, capturing output and warnings."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "warnings": [str(w.message) for w in caught]}


def run(name: str, inp: dict) -> dict:
    """Execute the workload once; returns its raw outputs."""
    if name == "quickstart":
        return {
            "energy": _cli(["energy", "--alpha", repr(inp["energy_alpha"])]),
            "sweep": _cli([
                "sweep", "--alpha-min", repr(inp["sweep_alpha_min"]),
                "--alpha-max", repr(inp["sweep_alpha_max"]),
                "--steps", str(inp["sweep_steps"]), "--workers", "1",
            ]),
            "fit-p": _cli([
                "fit-p", "--alpha-min", repr(inp["fit_alpha_min"]),
                "--alpha-max", repr(inp["fit_alpha_max"]), "--steps", "4",
                "--mode", "energy", "--workers", "1",
            ]),
            "eccentric": _cli([
                "eccentric", "--inner-radius", repr(inp["ecc_inner"]),
                "--outer-radius", repr(inp["ecc_outer"]), "--length", "0.05",
                "--offset-fractions", "0,0.25,0.5",
            ]),
            "orbits": _cli([
                "orbits", "--alpha", repr(inp["orbit_alpha"]),
                "--length-cap", "20",
            ]),
        }
    if name == "near-contact":
        return {"energy": _cli(["energy", "--alpha", repr(inp["alpha"])])}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reduced = exact.interaction_energy(inp["alpha"], exact.ORACLE_NUMERICS)
        double = exact.interaction_energy_double_integral(inp["alpha"])
    return {"reduced": repr(reduced), "double": repr(double),
            "reduced_value": reduced.value, "double_value": double.value,
            "converged": [reduced.converged, double.converged],
            "warnings": [str(w.message) for w in caught]}


class _Ops(list):
    """Checked operations; one with any problem has failed."""

    def add(self, name: str, problems: list[str]) -> None:
        self.append({"op": name, "ok": not problems, "problems": problems})


def _rel(value: float, expected: float) -> float:
    return abs(value / expected - 1.0)


def _command_problems(result: dict) -> list[str]:
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}")
    problems += [f"warning: {w}" for w in result["warnings"]]
    return problems


def _pin(problems, what, value, expected, rel=None, abs_tol=None):
    if rel is not None and not _rel(value, expected) <= rel:
        problems.append(f"{what} {value!r} misses pin {expected!r} "
                        f"(rel {_rel(value, expected):.3g} > {rel})")
    if abs_tol is not None and not abs(value - expected) <= abs_tol:
        problems.append(f"{what} {value!r} misses pin {expected!r} "
                        f"(abs {abs(value - expected):.3g} > {abs_tol})")


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _check_energy(ops, out, pinned, near_contact_alpha=None):
    problems = _command_problems(out)
    payload = _json_or_none(out["stdout"])
    if payload is None:
        ops.add("energy", problems + ["output is not JSON"])
        return
    if payload.get("converged") is not True:
        problems.append("converged is not true")
    value = payload.get("interaction_energy")
    if not (isinstance(value, float) and math.isfinite(value) and value < 0):
        problems.append(f"energy {value!r} is not a finite negative number")
    elif near_contact_alpha is not None:
        model = approx.proximity_energy(near_contact_alpha, 0.5)
        band = NEAR_CONTACT_BAND * (near_contact_alpha - 1.0) ** 2
        if not _rel(value, model) <= band:
            problems.append(f"energy {value!r} is {_rel(value, model):.3g} "
                            f"from proximity {model!r}")
    elif pinned and payload.get("alpha") == 2.0:
        _pin(problems, "energy", value, ENERGY_AT_2, rel=ENERGY_AT_2_REL)
    ops.add("energy", problems)


def _check_quickstart(ops: _Ops, inp: dict, out: dict, pinned: bool) -> None:
    _check_energy(ops, out["energy"], pinned)

    sweep = out["sweep"]
    shared = _command_problems(sweep)
    rows = list(csv.DictReader(io.StringIO(sweep["stdout"])))
    # at seed 0 the grid must hold the pinned points
    missing = set()
    if pinned:
        missing = {2.0, 4.0} if inp["sweep_steps"] == 30 else {4.0}
    if not rows:
        ops.add("sweep", shared + ["no rows"])
    for row in rows:
        problems = list(shared)
        try:
            alpha = float(row["alpha"])
            energy = float(row["interaction_energy"])
            pressure = float(row["pressure"])
            discrepancy = float(row["discrepancy"])
        except (KeyError, ValueError) as exc:
            ops.add(f"sweep row {row.get('alpha')}", problems + [repr(exc)])
            continue
        if row["status"] != "ok":
            problems.append(f"status {row['status']}")
        if not (energy < 0.0 and pressure > 0.0
                and math.isfinite(discrepancy)):
            problems.append("energy or pressure has the wrong sign")
        if pinned and alpha == 2.0:
            _pin(problems, "energy", energy, ENERGY_AT_2, rel=ENERGY_AT_2_REL)
            _pin(problems, "pressure", pressure, PRESSURE_AT_2,
                 rel=PRESSURE_AT_2_REL)
        if pinned and alpha == 4.0:
            _pin(problems, "pressure", pressure, PRESSURE_AT_4,
                 rel=PRESSURE_AT_4_REL)
            _pin(problems, "discrepancy", discrepancy, MAX_DISCREPANCY_AT_4,
                 rel=MAX_DISCREPANCY_AT_4_REL)
        missing.discard(alpha)
        ops.add(f"sweep row {alpha!r}", problems)
    if missing:
        ops.add("sweep pins", [f"no row at alpha {a!r}" for a in sorted(missing)])

    fit = out["fit-p"]
    problems = _command_problems(fit)
    payload = _json_or_none(fit["stdout"]) or {}
    best = payload.get("best_exponent")
    if not isinstance(best, float):
        problems.append("no best_exponent")
    elif pinned:
        _pin(problems, "best exponent", best, BEST_EXPONENT_ENERGY,
             abs_tol=BEST_EXPONENT_ENERGY_ABS)
    if payload.get("unimodal") is not True or payload.get("flat") is not False:
        problems.append("objective is not unimodal or is flat")
    ops.add("fit-p", problems)

    ecc = out["eccentric"]
    shared = _command_problems(ecc)
    rows = list(csv.DictReader(io.StringIO(ecc["stdout"])))
    if len(rows) != 3:
        ops.add("eccentric", shared + [f"{len(rows)} rows, not 3"])
    for row in rows:
        problems = list(shared)
        try:
            numeric = float(row["force_numeric"])
            rel_diff = float(row["rel_diff"])
        except (KeyError, ValueError) as exc:
            ops.add("eccentric row", problems + [repr(exc)])
            continue
        if not (math.isfinite(numeric) and numeric >= 0.0):
            problems.append(f"force {numeric!r} is not finite and >= 0")
        if not rel_diff <= ECCENTRIC_AGREEMENT:
            problems.append(f"numeric and closed form differ by {rel_diff!r}")
        ops.add(f"eccentric row {row['offset_fraction']}", problems)

    orbits = out["orbits"]
    problems = _command_problems(orbits)
    table = orbits["stdout"].splitlines()
    if len(table) < 2 or not table[0].startswith("kind"):
        problems.append("orbit table is empty")
    ops.add("orbits", problems)


def check(name: str, inp: dict, out: dict, seed: int) -> list[dict]:
    """Every operation of the workload with its problems (empty if ok)."""
    ops = _Ops()
    pinned = seed == DEFAULT_SEED
    if name == "quickstart":
        _check_quickstart(ops, inp, out, pinned)
    elif name == "near-contact":
        _check_energy(ops, out["energy"], pinned,
                      near_contact_alpha=inp["alpha"])
    else:
        shared = [f"warning: {w}" for w in out["warnings"]]
        for route, converged in zip(("reduced", "double"), out["converged"]):
            ops.add(f"{route} route",
                    shared + ([] if converged else ["not converged"]))
        gap = _rel(out["double_value"], out["reduced_value"])
        ops.add("route agreement",
                [] if gap <= ROUTE_AGREEMENT
                else [f"routes differ by {gap:.3g} > {ROUTE_AGREEMENT}"])
    return ops
