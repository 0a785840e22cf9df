"""Command-line front end: sweeps, fits, orbit tables, offset-force curves.

Subcommands
-----------
energy      One-point interaction/total energy as JSON.
sweep       Grid over the radius ratio; CSV or JSON rows.
fit-p       Best-fit effective-area exponent against the exact values.
eccentric   Offset-cylinder force table (numeric vs closed form).
orbits      Closed-path catalog for the annulus cross-section.
freq-shift  Resonator frequency softening for a concentric pair.

Option values resolve with a fixed precedence: built-in defaults, then a
``--config`` JSON file, then explicit command-line flags.  Outputs are
byte-stable across runs: floats are rendered with ``repr`` (shortest
round-trip form), columns have a fixed documented order, JSON keys are
sorted, no timestamps are embedded, and files are written atomically
(temp file + rename) so an invalid invocation never leaves a partial
output behind.

Exit codes: 0 success; 2 usage or domain error; 3 numerical failure:
non-convergence (results are still emitted, flagged per row), or an
integrand that returned a non-finite value or a Bessel value that left
the double range (a JSON ``error`` only).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .approx import (
    enumerate_orbits,
    fit_p,
    proximity_energy,
    proximity_pressure,
    semiclassical_energy,
)
from .eccentric import (
    EccentricGeometry,
    ResonatorParams,
    eccentric_force_closed_form,
    eccentric_force_numeric,
    force_scale,
    frequency_shift,
)
from .exact import (
    SELF_ENERGY_COEFF,
    ConcentricGeometry,
    NumericsConfig,
    interaction_energy,
    pressure_inner,
)
from .quadrature import NonFiniteIntegrandError, QuadratureSpec

__all__ = ["main", "entrypoint"]

_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3

_QUANTITY_TOKENS = ("energy", "total", "pressure", "semiclassical",
                    "discrepancy", "proximity")


class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fail(message: str, code: int) -> int:
    sys.stdout.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    return code


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in header))
    return "\n".join(lines) + "\n"


def _load_config(path: str | None, allowed: set[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    if not isinstance(config, dict):
        raise _UsageError("config file must hold a JSON object")
    unknown = set(config) - allowed
    if unknown:
        raise _UsageError(
            "unknown config keys: " + ", ".join(sorted(unknown))
        )
    return config


def _resolve(args, config: dict, name: str, default):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        return config[name]
    return default


_QUAD_FIELDS = ("rel_tol", "abs_tol", "max_subdivisions")
_ORDER_FIELDS = ("order_tol", "order_cap")
_NUMERICS_KEYS = set(_QUAD_FIELDS + _ORDER_FIELDS)


def _field_values(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _add_field_flags(parser, obj, names) -> None:
    """One ``--name`` flag per named field of ``obj``, typed like it."""
    for name, default in _field_values(obj, names).items():
        parser.add_argument("--" + name.replace("_", "-"),
                            type=type(default), dest=name)


def _add_numerics_flags(parser) -> None:
    _add_field_flags(parser, QuadratureSpec(), _QUAD_FIELDS)
    _add_field_flags(parser, NumericsConfig(), _ORDER_FIELDS)


def _resolve_fields(args, config: dict, obj, names):
    """``obj`` with each named field taken from flag, config or default."""
    return replace(obj, **{
        name: type(default)(_resolve(args, config, name, default))
        for name, default in _field_values(obj, names).items()
    })


def _quad_spec(args, config: dict) -> QuadratureSpec:
    return _resolve_fields(args, config, QuadratureSpec(), _QUAD_FIELDS)


def _numerics(args, config: dict) -> NumericsConfig:
    cfg = _resolve_fields(args, config, NumericsConfig(), _ORDER_FIELDS)
    return replace(cfg, quad=_quad_spec(args, config))


def _numerics_echo(cfg: NumericsConfig) -> dict:
    return {**_field_values(cfg.quad, _QUAD_FIELDS),
            **_field_values(cfg, _ORDER_FIELDS)}


def _parse_quantities(raw: str):
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise _UsageError("quantities must be a non-empty comma list")
    names = []
    prox_exponent = None
    for token in tokens:
        base, _, arg = token.partition(":")
        if base not in _QUANTITY_TOKENS:
            raise _UsageError(f"unknown quantity {token!r}")
        if base == "proximity":
            exponent = float(arg) if arg else 0.5
            if not 0.0 <= exponent <= 1.0:
                raise _UsageError("proximity exponent must lie in [0, 1]")
            if prox_exponent is not None and prox_exponent != exponent:
                raise _UsageError("only one proximity exponent per run")
            prox_exponent = exponent
        elif arg:
            raise _UsageError(f"quantity {token!r} takes no argument")
        if base not in names:
            names.append(base)
    if "discrepancy" in names and prox_exponent is None:
        raise _UsageError("discrepancy requires a proximity quantity")
    return names, prox_exponent


def _sweep_columns(names, prox_exponent):
    columns = ["alpha"]
    if "energy" in names:
        columns += ["interaction_energy", "interaction_energy_err"]
    if "total" in names:
        columns.append("total_energy")
    if "pressure" in names:
        columns += ["pressure", "pressure_err"]
    if "proximity" in names:
        tag = repr(float(prox_exponent))
        columns += [f"proximity_energy_p{tag}", f"proximity_pressure_p{tag}"]
    if "semiclassical" in names:
        columns.append("semiclassical_energy")
    if "discrepancy" in names:
        columns.append("discrepancy")
    columns.append("status")
    return columns


def _sweep_row(alpha: float, names=(), prox_exponent=None,
               cfg: NumericsConfig = None) -> dict:
    """One sweep grid point; must stay a top-level function (pickled)."""
    row: dict = {"alpha": alpha, "status": "ok"}
    ok = True
    energy = pressure = None
    if "pressure" in names:
        pressure = pressure_inner(alpha, cfg)
        energy = pressure.energy_result
        ok = pressure.converged
        row["pressure"] = pressure.value
        row["pressure_err"] = pressure.error
    elif {"energy", "total", "discrepancy"} & set(names):
        energy = interaction_energy(alpha, cfg)
        ok = energy.converged
    if "energy" in names:
        row["interaction_energy"] = energy.value
        row["interaction_energy_err"] = (
            energy.quad_error + energy.truncation_error
        )
    if "total" in names:
        row["total_energy"] = (
            energy.value - SELF_ENERGY_COEFF * (1.0 + alpha**-2)
        )
    if "proximity" in names:
        tag = repr(float(prox_exponent))
        row[f"proximity_energy_p{tag}"] = proximity_energy(
            alpha, prox_exponent)
        row[f"proximity_pressure_p{tag}"] = proximity_pressure(
            alpha, prox_exponent)
    if "semiclassical" in names:
        row["semiclassical_energy"] = semiclassical_energy(alpha)
    if "discrepancy" in names:
        if "pressure" in names:
            exact = pressure.value
            model = proximity_pressure(alpha, prox_exponent)
        else:
            exact = energy.value
            model = proximity_energy(alpha, prox_exponent)
        row["discrepancy"] = abs(exact - model) / abs(exact)
    if not ok:
        row["status"] = "convergence"
    return row


def _run_rows(worker, grid, workers: int) -> list[dict]:
    if workers <= 1 or len(grid) <= 1:
        return [worker(alpha) for alpha in grid]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, grid))


def _alpha_grid(alpha_min: float, alpha_max: float, steps: int,
                spacing: str) -> list[float]:
    if spacing == "linear":
        grid = np.linspace(alpha_min, alpha_max, steps)
    elif spacing == "log":
        grid = 1.0 + np.geomspace(alpha_min - 1.0, alpha_max - 1.0, steps)
    else:
        raise _UsageError("spacing must be 'linear' or 'log'")
    return [float(a) for a in grid]


def _cmd_energy(args) -> int:
    config = _load_config(args.config, _NUMERICS_KEYS | {"alpha"})
    alpha = _resolve(args, config, "alpha", None)
    if alpha is None:
        raise _UsageError("--alpha is required")
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 1.0):
        return _fail("alpha must exceed 1", _EXIT_USAGE)
    cfg = _numerics(args, config)
    result = interaction_energy(alpha, cfg)
    payload = {
        "alpha": alpha,
        "interaction_energy": result.value,
        "interaction_energy_err": result.quad_error + result.truncation_error,
        "total_energy": result.value - SELF_ENERGY_COEFF * (1 + alpha**-2),
        "order_max": result.order_max,
        "converged": result.converged,
        "meta": {"version": __version__, "numerics": _numerics_echo(cfg)},
    }
    if args.per_order:
        payload["per_order"] = [[n, value] for n, value in result.per_order]
    if not result.converged:
        payload["error"] = "energy mode sum did not converge"
        _emit(_json_text(payload), args.out)
        return _EXIT_NUMERICAL
    _emit(_json_text(payload), args.out)
    return 0


_SWEEP_KEYS = _NUMERICS_KEYS | {
    "alpha_min", "alpha_max", "steps", "spacing", "quantities", "workers",
    "format",
}


def _cmd_sweep(args) -> int:
    config = _load_config(args.config, _SWEEP_KEYS)
    alpha_min = float(_resolve(args, config, "alpha_min", 1.1))
    alpha_max = float(_resolve(args, config, "alpha_max", 4.0))
    steps = int(_resolve(args, config, "steps", 30))
    spacing = str(_resolve(args, config, "spacing", "linear"))
    raw_quant = str(_resolve(args, config, "quantities",
                             "energy,pressure,proximity:0.5,discrepancy"))
    workers = int(_resolve(args, config, "workers", os.cpu_count() or 1))
    fmt = str(_resolve(args, config, "format", "csv"))
    if not (math.isfinite(alpha_min) and alpha_min > 1.0):
        return _fail("alpha must exceed 1", _EXIT_USAGE)
    if not alpha_min < alpha_max:
        return _fail("alpha_min must be below alpha_max", _EXIT_USAGE)
    if steps < 2:
        return _fail("steps must be at least 2", _EXIT_USAGE)
    if fmt not in ("csv", "json"):
        return _fail("format must be 'csv' or 'json'", _EXIT_USAGE)
    names, prox_exponent = _parse_quantities(raw_quant)
    cfg = _numerics(args, config)
    grid = _alpha_grid(alpha_min, alpha_max, steps, spacing)
    worker = partial(_sweep_row, names=tuple(names),
                     prox_exponent=prox_exponent, cfg=cfg)
    rows = _run_rows(worker, grid, workers)
    columns = _sweep_columns(names, prox_exponent)
    if fmt == "csv":
        text = _csv_text(columns, rows)
    else:
        meta = {
            "version": __version__,
            "command": "sweep",
            "alpha_min": alpha_min,
            "alpha_max": alpha_max,
            "steps": steps,
            "spacing": spacing,
            "quantities": raw_quant,
            "columns": columns,
            "numerics": _numerics_echo(cfg),
        }
        text = _json_text({"meta": meta, "rows": rows})
    _emit(text, args.out)
    if any(row["status"] != "ok" for row in rows):
        return _EXIT_NUMERICAL
    return 0


_FIT_KEYS = _NUMERICS_KEYS | {
    "alpha_min", "alpha_max", "steps", "mode", "workers",
}


def _cmd_fit_p(args) -> int:
    config = _load_config(args.config, _FIT_KEYS)
    alpha_min = float(_resolve(args, config, "alpha_min", 1.5))
    alpha_max = float(_resolve(args, config, "alpha_max", 3.0))
    steps = int(_resolve(args, config, "steps", 4))
    mode = str(_resolve(args, config, "mode", "energy"))
    workers = int(_resolve(args, config, "workers", os.cpu_count() or 1))
    if not (math.isfinite(alpha_min) and alpha_min > 1.0):
        return _fail("alpha must exceed 1", _EXIT_USAGE)
    if not alpha_min < alpha_max:
        return _fail("alpha_min must be below alpha_max", _EXIT_USAGE)
    if steps < 1:
        return _fail("steps must be at least 1", _EXIT_USAGE)
    if mode not in ("energy", "pressure"):
        return _fail("mode must be 'energy' or 'pressure'", _EXIT_USAGE)
    cfg = _numerics(args, config)
    if steps == 1:
        grid = [alpha_min]
    else:
        grid = _alpha_grid(alpha_min, alpha_max, steps, "linear")
    quantity = ("pressure",) if mode == "pressure" else ("energy",)
    worker = partial(_sweep_row, names=quantity, cfg=cfg)
    rows = _run_rows(worker, grid, workers)
    key = "pressure" if mode == "pressure" else "interaction_energy"
    exact = [row[key] for row in rows]
    fit = fit_p(grid, exact, mode=mode)
    payload = {
        "meta": {
            "version": __version__,
            "command": "fit-p",
            "mode": mode,
            "alpha_grid": grid,
            "numerics": _numerics_echo(cfg),
        },
        "best_exponent": fit.best_exponent,
        "objective": fit.objective,
        "flat": fit.flat,
        "unimodal": fit.unimodal,
        "objective_curve": [
            [p, o] for p, o in zip(fit.exponent_grid, fit.objective_grid)
        ],
        "exact_values": exact,
    }
    _emit(_json_text(payload), args.out)
    if any(row["status"] != "ok" for row in rows):
        return _EXIT_NUMERICAL
    return 0


_ECC_KEYS = {"inner_radius", "outer_radius", "length", "offset_fractions",
             "mass", "angular_frequency", "format", *_QUAD_FIELDS}


def _cmd_eccentric(args) -> int:
    config = _load_config(args.config, _ECC_KEYS)
    inner = _resolve(args, config, "inner_radius", None)
    outer = _resolve(args, config, "outer_radius", None)
    if inner is None or outer is None:
        raise _UsageError("--inner-radius and --outer-radius are required")
    inner, outer = float(inner), float(outer)
    length = float(_resolve(args, config, "length", 1.0))
    raw_fractions = str(_resolve(args, config, "offset_fractions",
                                 "0,0.1,0.2,0.3,0.4,0.5"))
    mass = _resolve(args, config, "mass", None)
    omega = _resolve(args, config, "angular_frequency", None)
    fmt = str(_resolve(args, config, "format", "csv"))
    if fmt not in ("csv", "json"):
        return _fail("format must be 'csv' or 'json'", _EXIT_USAGE)
    if not 0.0 < inner < outer:
        return _fail("require 0 < inner_radius < outer_radius", _EXIT_USAGE)
    if not length > 0.0:
        return _fail("length must be positive", _EXIT_USAGE)
    try:
        fractions = [float(tok) for tok in raw_fractions.split(",") if tok.strip()]
    except ValueError:
        return _fail("offset_fractions must be a comma list of numbers",
                     _EXIT_USAGE)
    if not fractions:
        return _fail("offset_fractions must be non-empty", _EXIT_USAGE)
    if any(not 0.0 <= f < 1.0 for f in fractions):
        return _fail("offset fractions must lie in [0, 1)", _EXIT_USAGE)
    if (mass is None) != (omega is None):
        return _fail("give both --mass and --angular-frequency or neither",
                     _EXIT_USAGE)
    resonator = None
    if mass is not None:
        try:
            resonator = ResonatorParams(float(mass), float(omega))
        except ValueError as exc:
            return _fail(str(exc), _EXIT_USAGE)
    spec = _quad_spec(args, config)
    base = ConcentricGeometry(inner, outer, length)
    gap = outer - inner
    rows = []
    for fraction in fractions:
        geom = EccentricGeometry(base, fraction * gap)
        force = eccentric_force_numeric(geom, spec)
        numeric = force.value
        closed = eccentric_force_closed_form(geom)
        if closed == 0.0 and numeric == 0.0:
            rel_diff = 0.0
        elif closed == 0.0:
            rel_diff = math.inf
        else:
            rel_diff = abs(numeric - closed) / abs(closed)
        row = {
            "offset_fraction": fraction,
            "force_numeric": numeric,
            "force_closed_form": closed,
            "rel_diff": rel_diff,
        }
        if resonator is not None:
            row["freq_shift"] = frequency_shift(geom, resonator)
        row["status"] = "ok" if force.converged else "unconverged"
        rows.append(row)
    columns = ["offset_fraction", "force_numeric", "force_closed_form",
               "rel_diff"]
    if resonator is not None:
        columns.append("freq_shift")
    columns.append("status")
    if fmt == "csv":
        text = _csv_text(columns, rows)
    else:
        meta = {
            "version": __version__,
            "command": "eccentric",
            "inner_radius": inner,
            "outer_radius": outer,
            "length": length,
            "columns": columns,
        }
        text = _json_text({"meta": meta, "rows": rows})
    _emit(text, args.out)
    if any(row["status"] != "ok" for row in rows):
        return _EXIT_NUMERICAL
    return 0


_ORBITS_KEYS = {"alpha", "length_cap", "max_bounces", "format"}


def _cmd_orbits(args) -> int:
    config = _load_config(args.config, _ORBITS_KEYS)
    alpha = _resolve(args, config, "alpha", None)
    cap = _resolve(args, config, "length_cap", None)
    if alpha is None or cap is None:
        raise _UsageError("--alpha and --length-cap are required")
    alpha, cap = float(alpha), float(cap)
    max_bounces = int(_resolve(args, config, "max_bounces", 64))
    fmt = str(_resolve(args, config, "format", "table"))
    if fmt not in ("table", "json"):
        return _fail("format must be 'table' or 'json'", _EXIT_USAGE)
    if not (math.isfinite(alpha) and alpha > 1.0):
        return _fail("alpha must exceed 1", _EXIT_USAGE)
    if not cap > 0.0:
        return _fail("length_cap must be positive", _EXIT_USAGE)
    try:
        orbits = enumerate_orbits(alpha, cap, max_bounces)
    except ValueError as exc:
        return _fail(str(exc), _EXIT_USAGE)
    rows = [
        {
            "kind": orbit.kind,
            "bounces": orbit.bounces,
            "windings": orbit.windings,
            "repeats": orbit.repeats,
            "length_over_b": orbit.length,
            "admissible": orbit.admissible,
        }
        for orbit in orbits
    ]
    if fmt == "json":
        meta = {
            "version": __version__,
            "command": "orbits",
            "alpha": alpha,
            "length_cap": cap,
            "max_bounces": max_bounces,
        }
        text = _json_text({"meta": meta, "rows": rows})
    else:
        header = ["kind", "bounces", "windings", "repeats", "length_over_b",
                  "admissible"]
        widths = [9, 9, 10, 9, 23, 10]
        lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            cells = [str(row["kind"]), str(row["bounces"]),
                     str(row["windings"]), str(row["repeats"]),
                     repr(row["length_over_b"]),
                     "yes" if row["admissible"] else "no"]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


_FREQ_KEYS = {"inner_radius", "outer_radius", "length", "mass",
              "angular_frequency"}


def _cmd_freq_shift(args) -> int:
    config = _load_config(args.config, _FREQ_KEYS)
    inner = _resolve(args, config, "inner_radius", None)
    outer = _resolve(args, config, "outer_radius", None)
    mass = _resolve(args, config, "mass", None)
    omega = _resolve(args, config, "angular_frequency", None)
    if None in (inner, outer, mass, omega):
        raise _UsageError(
            "--inner-radius, --outer-radius, --mass and "
            "--angular-frequency are required"
        )
    length = float(_resolve(args, config, "length", 1.0))
    try:
        geom = EccentricGeometry(
            ConcentricGeometry(float(inner), float(outer), length)
        )
        resonator = ResonatorParams(float(mass), float(omega))
    except ValueError as exc:
        return _fail(str(exc), _EXIT_USAGE)
    payload = {
        "meta": {"version": __version__, "command": "freq-shift"},
        "force_scale": force_scale(geom),
        "frequency_shift": frequency_shift(geom, resonator),
    }
    _emit(_json_text(payload), args.out)
    return 0


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="coaxcasimir",
                        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config")
        p.add_argument("--out")

    p_energy = sub.add_parser("energy", help="one-point energy as JSON")
    common(p_energy)
    p_energy.add_argument("--alpha", type=float)
    p_energy.add_argument("--per-order", action="store_true")
    _add_numerics_flags(p_energy)
    p_energy.set_defaults(func=_cmd_energy)

    p_sweep = sub.add_parser("sweep", help="radius-ratio grid to CSV/JSON")
    common(p_sweep)
    p_sweep.add_argument("--alpha-min", type=float, dest="alpha_min")
    p_sweep.add_argument("--alpha-max", type=float, dest="alpha_max")
    p_sweep.add_argument("--steps", type=int)
    p_sweep.add_argument("--spacing", choices=["linear", "log"])
    p_sweep.add_argument("--quantities")
    p_sweep.add_argument("--workers", type=int)
    p_sweep.add_argument("--format", choices=["csv", "json"])
    _add_numerics_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fit = sub.add_parser("fit-p", help="best effective-area exponent")
    common(p_fit)
    p_fit.add_argument("--alpha-min", type=float, dest="alpha_min")
    p_fit.add_argument("--alpha-max", type=float, dest="alpha_max")
    p_fit.add_argument("--steps", type=int)
    p_fit.add_argument("--mode", choices=["energy", "pressure"])
    p_fit.add_argument("--workers", type=int)
    _add_numerics_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit_p)

    p_ecc = sub.add_parser("eccentric", help="offset-force table")
    common(p_ecc)
    p_ecc.add_argument("--inner-radius", type=float, dest="inner_radius")
    p_ecc.add_argument("--outer-radius", type=float, dest="outer_radius")
    p_ecc.add_argument("--length", type=float)
    p_ecc.add_argument("--offset-fractions", dest="offset_fractions")
    p_ecc.add_argument("--mass", type=float)
    p_ecc.add_argument("--angular-frequency", type=float,
                       dest="angular_frequency")
    p_ecc.add_argument("--format", choices=["csv", "json"])
    _add_field_flags(p_ecc, QuadratureSpec(), _QUAD_FIELDS)
    p_ecc.set_defaults(func=_cmd_eccentric)

    p_orbits = sub.add_parser("orbits", help="closed-path catalog")
    common(p_orbits)
    p_orbits.add_argument("--alpha", type=float)
    p_orbits.add_argument("--length-cap", type=float, dest="length_cap")
    p_orbits.add_argument("--max-bounces", type=int, dest="max_bounces")
    p_orbits.add_argument("--format", choices=["table", "json"])
    p_orbits.set_defaults(func=_cmd_orbits)

    p_freq = sub.add_parser("freq-shift", help="resonator softening")
    common(p_freq)
    p_freq.add_argument("--inner-radius", type=float, dest="inner_radius")
    p_freq.add_argument("--outer-radius", type=float, dest="outer_radius")
    p_freq.add_argument("--length", type=float)
    p_freq.add_argument("--mass", type=float)
    p_freq.add_argument("--angular-frequency", type=float,
                        dest="angular_frequency")
    p_freq.set_defaults(func=_cmd_freq_shift)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        return _fail(str(exc), _EXIT_USAGE)
    except (NonFiniteIntegrandError, OverflowError) as exc:
        return _fail(str(exc), _EXIT_NUMERICAL)
    except ValueError as exc:
        return _fail(str(exc), _EXIT_USAGE)


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
