"""Command-line front end: sweeps, fits, orbit tables, offset-force curves.

``coaxcasimir --help`` lists the subcommands, and ``coaxcasimir <command>
--help`` each option with its default and choices.  Every subcommand
declares its options once, in the option table ``_COMMANDS``, from which
the flags, the ``--config`` keys and the help text are built.  A value
comes from its flag, else the ``--config`` JSON file, else the default;
flag strings and config values pass the same conversion and checks.

Outputs are byte-stable across runs: floats are rendered with ``repr``
(shortest round-trip form), columns have a fixed documented order, JSON
keys are sorted, no timestamps are embedded, and files are written
atomically (temp file + rename) so an invalid invocation never leaves a
partial output behind.

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
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import __version__
from .approx import (
    _validate_exponent,
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
    ConcentricGeometry,
    NumericsConfig,
    _total_energy,
    interaction_energy,
    pressure_inner,
)
from .quadrature import NonFiniteIntegrandError, QuadratureSpec

__all__ = ["main", "entrypoint"]

_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3

_QUANTITY_TOKENS = ("energy", "total", "pressure", "semiclassical",
                    "discrepancy", "proximity")


class _CliParser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise ValueError(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        raise ValueError(
            f"cannot write output: {out_path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _fail(message: str, code: int) -> int:
    sys.stdout.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    return code


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[dict]) -> str:
    # cells are floats and strings; str of a float is its repr
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def _load_config(path: str | None, allowed: set[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file: {exc}")
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(
            "unknown config keys: " + ", ".join(sorted(unknown))
        )
    return config


def _number_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


_TYPE_NAMES = {int: "an integer", float: "a number",
               _number_list: "a comma list of numbers"}


@dataclass(frozen=True)
class _Opt:
    """One option of a subcommand: flag ``--name``, config key ``name``.

    ``type`` is ``int``, ``float``, ``str`` or a parser of a string.  An
    option with neither a default nor ``required`` may stay unset (None).
    ``check`` is a (predicate, message) pair on the converted value.
    """

    name: str
    type: object = float
    default: object = None
    required: bool = False
    choices: tuple = ()
    check: tuple | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def convert(self, raw):
        """``raw``, a flag string or a config value, typed and checked."""
        numeric = self.type in (int, float)
        try:
            # bool is an int subclass, and int() would truncate 2.9 to 2
            # where a count was meant: both are rejected, not coerced.
            if numeric and isinstance(raw, bool) or (
                    self.type is int and isinstance(raw, float)
                    and not raw.is_integer()):
                raise TypeError(raw)
            value = self.type(raw if numeric else str(raw))
        except (TypeError, ValueError):
            raise ValueError(
                f"{self.name} must be {_TYPE_NAMES[self.type]}") from None
        if self.choices and value not in self.choices:
            raise ValueError(f"{self.name} must be "
                             + " or ".join(map(repr, self.choices)))
        if self.check is not None and not self.check[0](value):
            raise ValueError(self.check[1])
        return value


def _resolve_options(args) -> None:
    """Set each table option on ``args``: flag, else config, else default.

    A JSON ``null`` in the config counts as not given.
    """
    config = _load_config(args.config, {opt.name for opt in args.options})
    raws = {}
    for opt in args.options:
        raw = getattr(args, opt.name)
        if raw is None:
            raw = config.get(opt.name)
        raws[opt.name] = opt.default if raw is None else raw
    missing = [opt.flag for opt in args.options
               if opt.required and raws[opt.name] is None]
    if len(missing) == 1:
        raise ValueError(f"{missing[0]} is required")
    if missing:
        raise ValueError(", ".join(missing[:-1]) + " and " + missing[-1]
                         + " are required")
    for opt in args.options:
        raw = raws[opt.name]
        setattr(args, opt.name, None if raw is None else opt.convert(raw))


def _field_values(obj, cls) -> dict:
    """``obj``'s value of each field of the dataclass ``cls`` but ``quad``."""
    return {f.name: getattr(obj, f.name) for f in fields(cls)
            if f.name != "quad"}


def _field_opts(cls) -> tuple:
    """One option per field of ``cls``, typed and defaulted like it."""
    return tuple(_Opt(name, type(default), default)
                 for name, default in _field_values(cls(), cls).items())


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(**_field_values(args, QuadratureSpec))


def _numerics(args) -> NumericsConfig:
    return NumericsConfig(quad=_quad_spec(args),
                          **_field_values(args, NumericsConfig))


def _numerics_echo(cfg: NumericsConfig) -> dict:
    return {**_field_values(cfg.quad, QuadratureSpec),
            **_field_values(cfg, NumericsConfig)}


def _parse_quantities(raw: str):
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise ValueError("quantities must be a non-empty comma list")
    names = []
    prox_exponent = None
    for token in tokens:
        base, _, arg = token.partition(":")
        if base not in _QUANTITY_TOKENS:
            raise ValueError(f"unknown quantity {token!r}")
        if base == "proximity":
            exponent = _validate_exponent(arg) if arg else 0.5
            if prox_exponent is not None and prox_exponent != exponent:
                raise ValueError("only one proximity exponent per run")
            prox_exponent = exponent
        elif arg:
            raise ValueError(f"quantity {token!r} takes no argument")
        if base not in names:
            names.append(base)
    if "discrepancy" in names and prox_exponent is None:
        raise ValueError("discrepancy requires a proximity quantity")
    return names, prox_exponent


def _sweep_row(alpha: float, names=(), prox_exponent=None,
               cfg: NumericsConfig = None) -> dict:
    """One sweep grid point, its keys in column order.

    Must stay a top-level function: the worker pool pickles it.
    """
    energy = pressure = None
    if "pressure" in names:
        pressure = pressure_inner(alpha, cfg)
        energy = pressure.energy_result
    elif {"energy", "total", "discrepancy"} & set(names):
        energy = interaction_energy(alpha, cfg)
    row: dict = {"alpha": alpha}
    if "energy" in names:
        row["interaction_energy"] = energy.value
        row["interaction_energy_err"] = energy.error
    if "total" in names:
        row["total_energy"] = _total_energy(energy.value, alpha)
    if "pressure" in names:
        row["pressure"] = pressure.value
        row["pressure_err"] = pressure.error
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
    result = pressure if pressure is not None else energy
    ok = result is None or result.converged
    row["status"] = "ok" if ok else "unconverged"
    return row


def _run_rows(worker, grid, workers: int) -> list[dict]:
    """``worker`` at each ratio of ``grid``, in at most one process a row."""
    workers = min(workers, len(grid))
    if workers <= 1:
        return [worker(alpha) for alpha in grid]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, grid))


def _alpha_grid(args, log: bool = False) -> list[float]:
    """``args.steps`` radius ratios from ``alpha_min`` to ``alpha_max``.

    Linear in the ratio, or with ``log`` geometric in (ratio - 1).
    """
    if not args.alpha_min < args.alpha_max:
        raise ValueError("alpha_min must be below alpha_max")
    if log:
        grid = 1.0 + np.geomspace(args.alpha_min - 1.0,
                                  args.alpha_max - 1.0, args.steps)
    else:
        grid = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    return [float(a) for a in grid]


def _meta(args, **fields) -> dict:
    return {"version": __version__, "command": args.command, **fields}


def _exit_code(rows: list[dict]) -> int:
    """Exit 3 when any row did not converge; the rows are still written."""
    return _EXIT_NUMERICAL if any(r["status"] != "ok" for r in rows) else 0


def _emit_rows(args, rows: list[dict], meta: dict) -> int:
    """Rows as CSV, or as JSON under ``meta``; returns the exit code.

    Every row holds the same keys, in column order.
    """
    columns = list(rows[0])
    if args.format == "csv":
        text = _csv_text(columns, rows)
    else:
        text = _json_text({"meta": _meta(args, columns=columns, **meta),
                           "rows": rows})
    _emit(text, args.out)
    return _exit_code(rows)


def _cmd_energy(args) -> int:
    alpha = args.alpha
    cfg = _numerics(args)
    result = interaction_energy(alpha, cfg)
    payload = {
        "alpha": alpha,
        "interaction_energy": result.value,
        "interaction_energy_err": result.error,
        "total_energy": _total_energy(result.value, alpha),
        "order_max": result.order_max,
        "converged": result.converged,
        "meta": _meta(args, numerics=_numerics_echo(cfg)),
    }
    if args.per_order:
        payload["per_order"] = [[n, value] for n, value in result.per_order]
        if result.tail is not None:
            payload["per_order"].append(["tail", result.tail])
    if not result.converged:
        payload["error"] = "energy mode sum did not converge"
    _emit(_json_text(payload), args.out)
    return 0 if result.converged else _EXIT_NUMERICAL


def _cmd_sweep(args) -> int:
    grid = _alpha_grid(args, log=args.spacing == "log")
    names, prox_exponent = _parse_quantities(args.quantities)
    cfg = _numerics(args)
    worker = partial(_sweep_row, names=tuple(names),
                     prox_exponent=prox_exponent, cfg=cfg)
    rows = _run_rows(worker, grid, args.workers)
    return _emit_rows(args, rows, {
        "alpha_min": args.alpha_min,
        "alpha_max": args.alpha_max,
        "steps": args.steps,
        "spacing": args.spacing,
        "quantities": args.quantities,
        "numerics": _numerics_echo(cfg),
    })


def _cmd_fit_p(args) -> int:
    grid = _alpha_grid(args)
    cfg = _numerics(args)
    # the two modes are the sweep quantities of the same names
    worker = partial(_sweep_row, names=(args.mode,), cfg=cfg)
    rows = _run_rows(worker, grid, args.workers)
    key = "pressure" if args.mode == "pressure" else "interaction_energy"
    exact = [row[key] for row in rows]
    fit = fit_p(grid, exact, mode=args.mode)
    payload = {
        "meta": _meta(args, mode=args.mode, alpha_grid=grid,
                      numerics=_numerics_echo(cfg)),
        "best_exponent": fit.best_exponent,
        "objective": fit.objective,
        "flat": fit.flat,
        "unimodal": fit.unimodal,
        "objective_curve": [
            [p, o] for p, o in zip(fit.exponent_grid, fit.objective_grid)
        ],
        "exact_values": exact,
    }
    unconverged = [row["alpha"] for row in rows if row["status"] != "ok"]
    if unconverged:
        payload["error"] = ("mode sums did not converge at alpha "
                            + ", ".join(map(repr, unconverged)))
    _emit(_json_text(payload), args.out)
    return _exit_code(rows)


def _cmd_eccentric(args) -> int:
    base = ConcentricGeometry(args.inner_radius, args.outer_radius,
                              args.length)
    gap = base.outer_radius - base.inner_radius
    # every offset is validated before the first force is computed
    geoms = [EccentricGeometry(base, fraction * gap)
             for fraction in args.offset_fractions]
    spec = _quad_spec(args)
    rows = []
    for fraction, geom in zip(args.offset_fractions, geoms):
        force = eccentric_force_numeric(geom, spec)
        numeric = force.value
        closed = eccentric_force_closed_form(geom)
        if closed == 0.0 and numeric == 0.0:
            rel_diff = 0.0
        elif closed == 0.0:
            rel_diff = math.inf
        else:
            rel_diff = abs(numeric - closed) / abs(closed)
        rows.append({
            "offset_fraction": fraction,
            "force_numeric": numeric,
            "force_closed_form": closed,
            "rel_diff": rel_diff,
            "status": "ok" if force.converged else "unconverged",
        })
    return _emit_rows(args, rows, {
        "inner_radius": args.inner_radius,
        "outer_radius": args.outer_radius,
        "length": args.length,
    })


def _cmd_orbits(args) -> int:
    orbits = enumerate_orbits(args.alpha, args.length_cap, args.max_bounces)
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
    if args.format == "json":
        meta = _meta(args, alpha=args.alpha, length_cap=args.length_cap,
                     max_bounces=args.max_bounces)
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


def _cmd_freq_shift(args) -> int:
    geom = EccentricGeometry(ConcentricGeometry(
        args.inner_radius, args.outer_radius, args.length))
    resonator = ResonatorParams(args.mass, args.angular_frequency)
    payload = {
        "meta": _meta(args),
        "force_scale": force_scale(geom),
        "frequency_shift": frequency_shift(geom, resonator),
    }
    _emit(_json_text(payload), args.out)
    return 0


# Checks shared by several options; the domain objects
# (ConcentricGeometry, EccentricGeometry, ResonatorParams,
# enumerate_orbits) make their own, so none is restated here.
_ALPHA_CHECK = (lambda a: math.isfinite(a) and a > 1.0,
                "alpha must be finite and exceed 1")
_FINITE_MAX = (math.isfinite, "alpha_max must be finite")

_QUAD_OPTS = _field_opts(QuadratureSpec)
_NUMERICS_OPTS = _QUAD_OPTS + _field_opts(NumericsConfig)
_WORKERS = _Opt("workers", int, os.cpu_count() or 1,
                check=(lambda n: n >= 1, "workers must be at least 1"))
_ROWS_FORMAT = _Opt("format", str, "csv", choices=("csv", "json"))
_LENGTH = _Opt("length", float, 1.0)
_RADII = (_Opt("inner_radius", float, required=True),
          _Opt("outer_radius", float, required=True))

# command: (handler, one-line help, option table)
_COMMANDS = {
    "energy": (_cmd_energy, "one-point interaction/total energy as JSON", (
        _Opt("alpha", float, required=True, check=_ALPHA_CHECK),
        *_NUMERICS_OPTS,
    )),
    "sweep": (_cmd_sweep, "grid over the radius ratio; CSV or JSON rows", (
        _Opt("alpha_min", float, 1.1, check=_ALPHA_CHECK),
        _Opt("alpha_max", float, 4.0, check=_FINITE_MAX),
        _Opt("steps", int, 30,
             check=(lambda n: n >= 2, "steps must be at least 2")),
        _Opt("spacing", str, "linear", choices=("linear", "log")),
        _Opt("quantities", str, "energy,pressure,proximity:0.5,discrepancy"),
        _WORKERS,
        _ROWS_FORMAT,
        *_NUMERICS_OPTS,
    )),
    "fit-p": (_cmd_fit_p, "best-fit effective-area exponent", (
        _Opt("alpha_min", float, 1.5, check=_ALPHA_CHECK),
        _Opt("alpha_max", float, 3.0, check=_FINITE_MAX),
        _Opt("steps", int, 4,
             check=(lambda n: n >= 1, "steps must be at least 1")),
        _Opt("mode", str, "energy", choices=("energy", "pressure")),
        _WORKERS,
        *_NUMERICS_OPTS,
    )),
    "eccentric": (_cmd_eccentric, "offset-cylinder force table", (
        *_RADII,
        _LENGTH,
        _Opt("offset_fractions", _number_list, "0,0.1,0.2,0.3,0.4,0.5",
             check=(bool, "offset_fractions must be non-empty")),
        _ROWS_FORMAT,
        *_QUAD_OPTS,
    )),
    "orbits": (_cmd_orbits, "closed paths of the annulus cross-section", (
        _Opt("alpha", float, required=True, check=_ALPHA_CHECK),
        _Opt("length_cap", float, required=True),
        _Opt("max_bounces", int, 64),
        _Opt("format", str, "table", choices=("table", "json")),
    )),
    "freq-shift": (_cmd_freq_shift, "resonator frequency softening", (
        *_RADII,
        _LENGTH,
        _Opt("mass", float, required=True),
        _Opt("angular_frequency", float, required=True),
    )),
}


def _help(opt: _Opt) -> str | None:
    if opt.required:
        return "required"
    if opt.default is not None:
        return f"default: {opt.default}"
    return None


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="coaxcasimir",
                        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, description=summary)
        p.add_argument("--config", help="JSON object of option values; "
                       "flags override it")
        p.add_argument("--out", help="write here (atomically), not stdout")
        if name == "energy":
            p.add_argument("--per-order", action="store_true",
                           help="add each angular order's contribution")
        for opt in options:
            # no type or choices here: _Opt.convert handles flag strings
            # and config values alike
            choices = ",".join(opt.choices)
            p.add_argument(opt.flag, dest=opt.name, help=_help(opt),
                           metavar="{" + choices + "}" if choices else None)
        p.set_defaults(func=handler, options=options)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_options(args)
        return args.func(args)
    except (NonFiniteIntegrandError, ArithmeticError) as exc:
        return _fail(str(exc), _EXIT_NUMERICAL)
    except ValueError as exc:
        # a usage error: the parser's, an option's, or a domain object's
        return _fail(str(exc), _EXIT_USAGE)


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
