"""Tests for the command-line interface.

Commands run in-process through ``main(argv)``; stdout is captured and
parsed exactly as a shell consumer would see it.
"""

import ast
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from coaxcasimir import (
    SELF_ENERGY_COEFF,
    ConcentricGeometry,
    EccentricGeometry,
    NonFiniteIntegrandError,
    NumericsConfig,
    QuadratureSpec,
    ResonatorParams,
    frequency_shift,
    interaction_energy,
)
from coaxcasimir import cli, specfun
from coaxcasimir.approx import proximity_energy
from coaxcasimir.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


ORBIT_COLUMNS = ["kind", "bounces", "windings", "repeats", "length_over_b",
                 "admissible"]


@pytest.mark.parametrize("module", ["coaxcasimir", "coaxcasimir.cli"])
def test_module_entry_points_run_the_cli(module):
    """``python -m`` on the package or on the cli module runs a command."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", module, "energy", "--alpha", "2.0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["alpha"] == 2.0
    assert payload["converged"] is True


def test_package_import_loads_no_scipy():
    """A fresh interpreter imports the package and its cli without
    SciPy."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coaxcasimir, coaxcasimir.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == "
         "'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_source_file_imports_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), (
                path.name, node.lineno)


def test_no_arguments_is_usage_error(capsys):
    code, payload = run_json(capsys)
    assert code == 2
    assert "error" in payload


def test_unknown_command_is_usage_error(capsys):
    code, payload = run_json(capsys, "explode")
    assert code == 2
    assert "error" in payload


def test_energy_rejects_alpha_at_or_below_one(capsys):
    code, payload = run_json(capsys, "energy", "--alpha", "0.5")
    assert code == 2
    assert payload["error"] == "alpha must be finite and exceed 1"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command, option", [("energy", "--alpha"),
                                             ("sweep", "--alpha-min")])
def test_non_finite_alpha_is_usage_error(capsys, command, option, value):
    """A non-finite ratio exits 2 with a message that names the check."""
    code, payload = run_json(capsys, command, f"{option}={value}")
    assert code == 2
    assert payload["error"] == "alpha must be finite and exceed 1"


def test_energy_requires_alpha(capsys):
    code, payload = run_json(capsys, "energy")
    assert code == 2
    assert "alpha" in payload["error"]


def test_energy_matches_library_bitwise(capsys):
    code, payload = run_json(capsys, "energy", "--alpha", "2")
    expected = interaction_energy(2.0)
    assert code == 0
    assert payload["interaction_energy"] == expected.value
    assert payload["total_energy"] == expected.value - SELF_ENERGY_COEFF * (
        1.0 + 0.25
    )
    assert payload["converged"] is True
    assert payload["order_max"] == expected.order_max
    assert payload["meta"]["numerics"]["order_tol"] == 1e-10


def test_energy_echoes_dataclass_defaults(capsys):
    code, payload = run_json(capsys, "energy", "--alpha", "2.0")
    assert code == 0
    cfg = NumericsConfig()
    assert payload["meta"]["command"] == "energy"
    assert payload["meta"]["numerics"] == {
        "rel_tol": cfg.quad.rel_tol,
        "abs_tol": cfg.quad.abs_tol,
        "max_subdivisions": cfg.quad.max_subdivisions,
        "order_tol": cfg.order_tol,
    }


def test_no_numerics_setting_is_dropped():
    """Every numerics field is an option of the mode-sum commands, every
    quadrature field one of ``eccentric``, and the echo names them all."""
    quad = {f.name for f in fields(QuadratureSpec)}
    numerics = quad | {f.name for f in fields(NumericsConfig)} - {"quad"}
    for command in ("energy", "sweep", "fit-p", "eccentric"):
        names = {opt.name for opt in cli._COMMANDS[command][2]}
        expected = quad if command == "eccentric" else numerics
        assert names & numerics == expected, command
    assert set(cli._numerics_echo(NumericsConfig())) == numerics


@pytest.mark.parametrize("argv", [
    ["energy", "--alpha", "2", "--abs-tol", "nan"],
    ["energy", "--alpha", "2", "--rel-tol", "inf"],
    ["eccentric", "--inner-radius", "1", "--outer-radius", "1.01",
     "--offset-fractions", "0.5", "--rel-tol", "nan"],
], ids=["energy-abs-tol-nan", "energy-rel-tol-inf", "eccentric-rel-tol-nan"])
def test_non_finite_tolerance_is_usage_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out, parse_constant=_reject_constant)
    assert (code, payload) == (
        2, {"error": "tolerances must be finite and positive"})


def test_non_finite_integrand_exits_numerical(capsys, monkeypatch):
    def blow_up(alpha, cfg):
        raise NonFiniteIntegrandError(
            "integrand returned a non-finite value at x=1.0")

    monkeypatch.setattr(cli, "interaction_energy", blow_up)
    code, payload = run_json(capsys, "energy", "--alpha", "2.0")
    assert code == 3
    assert "non-finite" in payload["error"]


def test_bessel_overflow_exits_numerical(capsys, monkeypatch):
    def overflow(n, x):
        raise OverflowError(
            f"scaled Bessel pair left the double range at order {n}")

    monkeypatch.setattr(specfun, "_log_ik_scipy", overflow)
    code, payload = run_json(capsys, "energy", "--alpha", "2.0")
    assert code == 3
    assert "double range" in payload["error"]


@pytest.mark.parametrize("radii", [("1e-200", "2e-200"), ("1e200", "2e200")])
@pytest.mark.parametrize("command", [
    ["eccentric", "--offset-fractions", "0,0.5"],
    ["freq-shift", "--mass", "1", "--angular-frequency", "1"],
])
def test_force_scale_out_of_range_exits_numerical(capsys, command, radii):
    """A gap whose fourth power leaves the double range (underflow to 0
    or overflow) makes F0 unrepresentable: exit 3 with a JSON error that
    names the force scale, not a traceback."""
    inner, outer = radii
    code = main([*command, "--inner-radius", inner, "--outer-radius", outer])
    captured = capsys.readouterr()
    assert code == 3
    assert "force scale" in json.loads(captured.out)["error"]
    assert captured.err == ""


@pytest.mark.parametrize("resonator", [
    ["--mass", "1e-300", "--angular-frequency", "1e-200"],
], ids=["divisor-underflow"])
def test_frequency_shift_out_of_range_exits_numerical(capsys, resonator):
    """A shift above the double range exits 3 with a JSON error that
    names the frequency shift."""
    code = main(["freq-shift", "--inner-radius", "0.01",
                 "--outer-radius", "0.0101", *resonator])
    captured = capsys.readouterr()
    assert code == 3
    assert "frequency shift" in json.loads(captured.out)["error"]
    assert captured.err == ""


@pytest.mark.parametrize("resonator", [
    ["--mass", "1e300", "--angular-frequency", "1e10"],
    ["--mass", "1", "--angular-frequency", "1e200"],
], ids=["product-overflow", "frequency-overflow"])
def test_frequency_shift_below_double_range_is_negative_zero(
        capsys, resonator):
    """A shift below the double range rounds to -0.0, whether the mass or
    the squared frequency would leave the range: exit 0."""
    code, out = run_cli(capsys, "freq-shift", "--inner-radius", "0.01",
                        "--outer-radius", "0.0101", *resonator)
    assert code == 0
    shift = json.loads(out)["frequency_shift"]
    assert shift == 0.0 and math.copysign(1.0, shift) == -1.0
    assert '"frequency_shift": -0.0' in out


def test_energy_a_hair_from_contact_reports_its_quadrature_miss(capsys):
    """At alpha = 1 + 1e-7 the Bessel kernel covers every abscissa the
    sum asks for; the sum misses its tolerance, exits 3 as unconverged,
    and still lands near the proximity energy."""
    code, payload = run_json(capsys, "energy", "--alpha", "1.0000001")
    assert code == 3
    assert payload["error"] == "energy mode sum did not converge"
    assert payload["converged"] is False
    assert payload["interaction_energy"] == pytest.approx(
        proximity_energy(1.0000001, 0.5), rel=1e-9)


def test_energy_per_order_breakdown(capsys):
    code, payload = run_json(
        capsys, "energy", "--alpha", "2.5", "--per-order"
    )
    assert code == 0
    contributions = [value for _, value in payload["per_order"]]
    assert math.fsum(contributions) == pytest.approx(
        payload["interaction_energy"], rel=1e-12
    )


@pytest.mark.parametrize("alpha", ["1.005", "1.001", "1.0001"])
def test_energy_near_contact_converges(capsys, alpha):
    """Past order 144 the tail ends the sum."""
    code, payload = run_json(capsys, "energy", "--alpha", alpha)
    assert code == 0
    assert payload["converged"] is True
    assert payload["order_max"] == 144


def test_energy_per_order_shows_the_tail_after_order_144(capsys):
    code, payload = run_json(
        capsys, "energy", "--alpha", "1.01", "--per-order"
    )
    assert code == 0
    assert [n for n, _ in payload["per_order"]] == [*range(145), "tail"]
    contributions = [value for _, value in payload["per_order"]]
    assert math.fsum(contributions) == pytest.approx(
        payload["interaction_energy"], rel=1e-12
    )


def test_energy_non_convergence_exits_numerical(capsys):
    """Near unity an unconverged sum reaches the caller as exit 3 alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(
            capsys, "energy", "--alpha", "1.0005", "--max-subdivisions", "1"
        )
    assert code == 3
    assert payload["converged"] is False
    assert "did not converge" in payload["error"]


def test_sweep_non_convergence_exits_numerical(capsys):
    code, out = run_cli(
        capsys, "sweep", "--alpha-min", "1.1", "--alpha-max", "1.2",
        "--steps", "2", "--max-subdivisions", "1", "--workers", "1",
    )
    assert code == 3
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert header[-1] == "status"
    assert [row[-1] for row in rows] == ["unconverged", "unconverged"]


def test_fit_p_non_convergence_names_the_ratios(capsys):
    code, payload = run_json(capsys, "fit-p", "--max-subdivisions", "1",
                             "--workers", "1")
    assert code == 3
    assert payload["error"] == (
        "mode sums did not converge at alpha 1.5, 2.0, 2.5, 3.0")


@pytest.mark.parametrize("quantity", ["proximity:1.5", "proximity:nan",
                                      "proximity:abc"])
def test_sweep_rejects_bad_proximity_exponent(capsys, quantity):
    code, payload = run_json(
        capsys, "sweep", "--quantities", f"energy,{quantity}",
        "--steps", "2", "--workers", "1",
    )
    assert code == 2
    assert "error" in payload


def test_sweep_csv_structure(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys, "sweep", "--alpha-min", "1.5", "--alpha-max", "2.5",
        "--steps", "3", "--quantities", "energy,proximity:0.5",
        "--workers", "1", "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == (
        "alpha,interaction_energy,interaction_energy_err,"
        "proximity_energy_p0.5,proximity_pressure_p0.5,status"
    )
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 1.5
    assert float(first[1]) == interaction_energy(1.5).value
    assert first[-1] == "ok"


def test_sweep_cells_are_plain_numbers(capsys):
    code, out = run_cli(
        capsys, "sweep", "--alpha-min", "1.1", "--alpha-max", "1.5",
        "--steps", "2", "--quantities", "energy", "--workers", "1",
    )
    assert code == 0
    cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
    assert cells and not [cell for cell in cells if "np." in cell]


def test_sweep_json_carries_meta(capsys):
    code, payload = run_json(
        capsys, "sweep", "--alpha-min", "2", "--alpha-max", "3",
        "--steps", "2", "--quantities", "energy", "--workers", "1",
        "--format", "json",
    )
    assert code == 0
    assert payload["meta"]["steps"] == 2
    assert payload["meta"]["columns"][0] == "alpha"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["alpha"] == 2.0
    assert payload["rows"][1]["status"] == "ok"


def test_sweep_log_spacing_grid(capsys):
    code, payload = run_json(
        capsys, "sweep", "--alpha-min", "1.1", "--alpha-max", "2.6",
        "--steps", "3", "--spacing", "log", "--quantities", "semiclassical",
        "--workers", "1", "--format", "json",
    )
    assert code == 0
    alphas = [row["alpha"] for row in payload["rows"]]
    assert alphas[0] == pytest.approx(1.1)
    assert alphas[-1] == pytest.approx(2.6)
    # log spacing in (alpha - 1): midpoint is 1 + sqrt(0.1 * 1.6)
    assert alphas[1] == pytest.approx(1.0 + math.sqrt(0.16), rel=1e-12)


def test_sweep_rejects_empty_quantities(capsys):
    code, payload = run_json(
        capsys, "sweep", "--quantities", "", "--steps", "2",
        "--workers", "1",
    )
    assert code == 2
    assert "quantit" in payload["error"]


@pytest.mark.parametrize("command", ["sweep", "fit-p"])
@pytest.mark.parametrize("alpha_max", ["inf", "nan"])
def test_non_finite_alpha_max_is_usage_error(capsys, command, alpha_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, command, "--alpha-max", alpha_max,
                                 "--workers", "1")
    assert code == 2
    assert payload["error"] == "alpha_max must be finite"


def test_sweep_rejects_unknown_quantity(capsys):
    code, payload = run_json(
        capsys, "sweep", "--quantities", "energy,entropy", "--steps", "2",
        "--workers", "1",
    )
    assert code == 2
    assert "entropy" in payload["error"]


def test_sweep_discrepancy_requires_proximity(capsys):
    code, payload = run_json(
        capsys, "sweep", "--quantities", "energy,discrepancy",
        "--steps", "2", "--workers", "1",
    )
    assert code == 2
    assert "proximity" in payload["error"]


def test_config_file_overridden_by_flags(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"alpha_max": 2.0, "steps": 5, "quantities": "energy"}),
        encoding="utf-8",
    )
    code, payload = run_json(
        capsys, "sweep", "--config", str(config), "--alpha-min", "1.5",
        "--steps", "2", "--workers", "1", "--format", "json",
    )
    assert code == 0
    # steps came from the flag, alpha_max from the config file
    assert payload["meta"]["steps"] == 2
    assert payload["meta"]["alpha_max"] == 2.0
    assert [row["alpha"] for row in payload["rows"]] == [1.5, 2.0]


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"alpha_mx": 2.0}), encoding="utf-8")
    code, payload = run_json(capsys, "sweep", "--config", str(config),
                             "--workers", "1")
    assert code == 2
    assert "alpha_mx" in payload["error"]


def test_fd_step_config_key_is_rejected(capsys, tmp_path):
    """The pressure's derivative is analytic; there is no step to set."""
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"fd_step": 1e-4}), encoding="utf-8")
    code, payload = run_json(capsys, "energy", "--alpha", "2.0",
                             "--config", str(config))
    assert code == 2
    assert "fd_step" in payload["error"]


def test_order_cap_is_not_an_option(capsys, tmp_path):
    """The integer orders end at 144 on every route; there is no cap to
    set, by flag or by config key."""
    code, payload = run_json(capsys, "energy", "--alpha", "2.0",
                             "--order-cap", "2")
    assert code == 2
    assert "--order-cap" in payload["error"]
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"order_cap": 2000}), encoding="utf-8")
    code, payload = run_json(capsys, "energy", "--alpha", "2.0",
                             "--config", str(config))
    assert code == 2
    assert "order_cap" in payload["error"]


def test_sweep_output_is_byte_deterministic(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = [
        "sweep", "--alpha-min", "1.5", "--alpha-max", "3.0", "--steps", "4",
        "--quantities", "energy,semiclassical", "--workers", "2",
    ]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


class _RecordingPool:
    """An in-process stand-in for ProcessPoolExecutor that records its size."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("command, argv, started", [
    ("sweep", ["--steps", "3", "--workers", "64"], [3]),
    ("sweep", ["--steps", "3", "--workers", "2"], [2]),
    ("sweep", ["--steps", "3", "--workers", "1"], []),
    ("fit-p", ["--steps", "1", "--workers", "64"], []),
])
def test_worker_pool_is_capped_at_the_grid_size(capsys, monkeypatch,
                                                command, argv, started):
    """A pool never has more processes than the grid has rows."""
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(sizes, max_workers))
    if command == "sweep":
        argv = argv + ["--quantities", "semiclassical"]
    code, _ = run_cli(capsys, command, *argv)
    assert code == 0
    assert sizes == started


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_is_usage_error(capsys, monkeypatch, tmp_path,
                                          source, workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
    argv = ["sweep", "--steps", "2", "--quantities", "semiclassical"]
    if source == "flag":
        argv += ["--workers", str(workers)]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"workers": workers}))
        argv += ["--config", str(config)]
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload == {"error": "workers must be at least 1"}


def test_eccentric_force_table(capsys):
    code, payload = run_json(
        capsys, "eccentric", "--inner-radius", "1", "--outer-radius", "1.05",
        "--offset-fractions", "0,0.25,0.5", "--format", "json",
    )
    assert code == 0
    rows = payload["rows"]
    assert [row["offset_fraction"] for row in rows] == [0.0, 0.25, 0.5]
    assert rows[0]["force_numeric"] == 0.0
    assert rows[0]["force_closed_form"] == 0.0
    forces = [row["force_numeric"] for row in rows]
    assert forces == sorted(forces)
    assert all(row["rel_diff"] < 0.1 for row in rows[1:])
    assert all(row["status"] == "ok" for row in rows)
    assert "freq_shift" not in rows[0]


def test_eccentric_non_convergence_exits_numerical(capsys):
    code, out = run_cli(
        capsys, "eccentric", "--inner-radius", "1", "--outer-radius", "1.05",
        "--offset-fractions", "0,0.9", "--max-subdivisions", "1",
    )
    assert code == 3
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert header[-1] == "status"
    assert [row[-1] for row in rows] == ["ok", "unconverged"]
    # the force is still reported, as the converged table would give it
    assert float(rows[1][header.index("force_numeric")]) > 0.0


def test_eccentric_near_contact_exits_ok_without_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(
            capsys, "eccentric", "--inner-radius", "1",
            "--outer-radius", "1.01", "--offset-fractions", "0.99995",
            "--format", "json",
        )
    assert code == 0
    [row] = payload["rows"]
    assert row["status"] == "ok"
    assert row["force_numeric"] > 0.0


def test_eccentric_takes_no_resonator_parameters(capsys):
    """The frequency shift is the freq-shift command's alone."""
    code, payload = run_json(
        capsys, "eccentric", "--inner-radius", "1",
        "--outer-radius", "1.05", "--mass", "0.01",
    )
    assert code == 2
    assert "--mass" in payload["error"]


def test_eccentric_rejects_contact_fraction(capsys):
    code, payload = run_json(
        capsys, "eccentric", "--inner-radius", "1",
        "--outer-radius", "1.05", "--offset-fractions", "0,1.0",
    )
    assert code == 2
    assert "error" in payload


def test_orbits_json_catalog(capsys):
    code, payload = run_json(
        capsys, "orbits", "--alpha", "2", "--length-cap", "6",
        "--format", "json",
    )
    assert code == 0
    assert payload["meta"]["columns"] == ORBIT_COLUMNS
    rows = payload["rows"]
    radial = next(r for r in rows if r["kind"] == "radial")
    assert radial["length_over_b"] == 1.0
    assert radial["admissible"] is True
    diameter = next(
        r for r in rows
        if r["kind"] == "polygon" and r["bounces"] == 2
    )
    assert diameter["admissible"] is False
    lengths = [r["length_over_b"] for r in rows]
    assert lengths == sorted(lengths)


def test_orbits_csv_is_the_default(capsys):
    code, out = run_cli(capsys, "orbits", "--alpha", "2",
                        "--length-cap", "6")
    assert code == 0
    assert out.splitlines()[0] == ",".join(ORBIT_COLUMNS)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["kind"] for row in rows} == {"radial", "polygon"}
    assert {row["admissible"] for row in rows} == {"True", "False"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_orbits_none_below_cap_writes_header_only(capsys, fmt):
    """A cap below every orbit's length leaves no rows, but the header
    (or the JSON columns) is still written."""
    code, out = run_cli(capsys, "orbits", "--alpha", "2",
                        "--length-cap", "0.1", "--format", fmt)
    assert code == 0
    if fmt == "csv":
        assert out == ",".join(ORBIT_COLUMNS) + "\n"
    else:
        payload = json.loads(out)
        assert payload["rows"] == []
        assert payload["meta"]["columns"] == ORBIT_COLUMNS


def test_orbits_table_format_is_usage_error(capsys):
    code, payload = run_json(capsys, "orbits", "--alpha", "2",
                             "--length-cap", "6", "--format", "table")
    assert code == 2
    assert payload == {"error": "format must be 'csv' or 'json'"}


def test_orbits_requires_alpha(capsys):
    code, payload = run_json(capsys, "orbits", "--length-cap", "6")
    assert code == 2
    assert "alpha" in payload["error"]


def test_fit_p_pressure_mode_reports_best_exponent(capsys):
    code, payload = run_json(
        capsys, "fit-p", "--mode", "pressure", "--workers", "1",
    )
    assert code == 0
    assert "error" not in payload
    assert 0.4 <= payload["best_exponent"] <= 0.6
    assert payload["flat"] is False
    assert len(payload["objective_curve"]) > 10
    assert len(payload["exact_values"]) == 4


def test_freq_shift_matches_library(capsys):
    code, payload = run_json(
        capsys, "freq-shift", "--inner-radius", "0.01",
        "--outer-radius", "0.010001", "--length", "0.05",
        "--mass", "0.01",
        "--angular-frequency", str(2.0 * math.pi * 100.0),
    )
    assert code == 0
    geom = EccentricGeometry(ConcentricGeometry(0.01, 0.010001, 0.05))
    expected = frequency_shift(
        geom, ResonatorParams(0.01, 2.0 * math.pi * 100.0)
    )
    assert payload["frequency_shift"] == expected


def test_out_file_ends_with_single_newline(capsys, tmp_path):
    out_file = tmp_path / "energy.json"
    code, _ = run_cli(capsys, "energy", "--alpha", "3",
                      "--out", str(out_file))
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert not text.endswith("\n\n")
    json.loads(text)


@pytest.mark.parametrize("target", ["missing-dir/x.json", "a-directory"],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, target):
    (tmp_path / "a-directory").mkdir()
    code, payload = run_json(capsys, "energy", "--alpha", "2",
                             "--out", str(tmp_path / target))
    assert code == 2
    assert payload["error"].startswith("cannot write output: ")
    assert not list(tmp_path.rglob(".tmp-*"))


_INTEGER_OPTIONS = [
    ("sweep", "steps", "3", ["--alpha-min", "1.5", "--alpha-max", "2",
                             "--quantities", "semiclassical",
                             "--workers", "1"]),
    ("energy", "max_subdivisions", "200", ["--alpha", "2"]),
    ("orbits", "max_bounces", "8", ["--alpha", "2", "--length-cap", "6"]),
]


@pytest.mark.parametrize("command, key, integral, argv", _INTEGER_OPTIONS,
                         ids=[key for _, key, _, _ in _INTEGER_OPTIONS])
def test_integer_options_reject_non_integral_values(
        capsys, tmp_path, command, key, integral, argv):
    """Config values and flag strings pass the same integer conversion."""
    config = tmp_path / "config.json"
    rejected = (2, {"error": f"{key} must be an integer"})
    for bad in (2.9, 2.5, True):
        config.write_text(json.dumps({key: bad}), encoding="utf-8")
        assert run_json(capsys, command, *argv,
                        "--config", str(config)) == rejected
    flag = "--" + key.replace("_", "-")
    assert run_json(capsys, command, *argv, flag, "2.5") == rejected
    # an integer-valued JSON string is still an integer
    config.write_text(json.dumps({key: integral}), encoding="utf-8")
    code, _ = run_cli(capsys, command, *argv, "--config", str(config))
    assert code == 0


def _reject_constant(name):
    raise ValueError(f"output is not strict JSON: {name}")


@pytest.mark.parametrize("argv", [
    ["freq-shift", "--inner-radius", "0.01", "--outer-radius", "0.0101",
     "--length", "inf", "--mass", "0.01", "--angular-frequency", "600"],
    ["freq-shift", "--inner-radius", "0.01", "--outer-radius", "0.0101",
     "--mass", "0.01", "--angular-frequency", "inf"],
    ["eccentric", "--inner-radius", "0.01", "--outer-radius", "0.0101",
     "--length", "inf", "--offset-fractions", "0,0.25", "--format", "json"],
], ids=["freq-shift-length", "freq-shift-frequency", "eccentric-length"])
def test_non_finite_geometry_is_usage_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 2
    assert "finite" in payload["error"]


def test_orbits_rejects_infinite_length_cap(capsys):
    code, payload = run_json(capsys, "orbits", "--alpha", "2",
                             "--length-cap", "inf")
    assert code == 2
    assert payload["error"] == "length_cap must be finite"


def test_help_shows_each_default_and_choice(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["sweep", "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--alpha-min ALPHA_MIN default: 1.1" in text
    assert "--format {csv,json} default: csv" in text
    assert "--max-subdivisions MAX_SUBDIVISIONS default: 200" in text


def _readme_commands() -> list[str]:
    """Every ``coaxcasimir`` line of every ``sh`` block in README."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.strip()
             for line in readme.read_text(encoding="utf-8").splitlines()]
    commands, in_sh = [], False
    for line in lines:
        if line.startswith("```"):
            in_sh = not in_sh and line == "```sh"
        elif in_sh and line.startswith("coaxcasimir "):
            commands.append(line)
    return commands


def test_readme_lists_every_numerics_option():
    """README's "numerics flags and config keys" are the dataclass fields."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    listed = re.search(r"numerics flags and config keys \(([^)]*)\)", text)
    assert listed is not None
    expected = [f.name for cls in (QuadratureSpec, NumericsConfig)
                for f in fields(cls) if f.name != "quad"]
    assert re.findall(r"`(\w+)`", listed.group(1)) == expected


def test_readme_quick_start_commands_run_as_written(
        capsys, tmp_path, monkeypatch):
    """The quick start's commands and every other README command."""
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands
    for command in commands:
        code, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert (command, code) == (command, 0)
