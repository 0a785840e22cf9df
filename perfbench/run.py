"""The coaxcasimir benchmark command.

Usage:
    python3 perfbench/run.py --workload {quickstart,near-contact,cross-check}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, so there is nothing to build.  Workloads are
described in ``perfbench/workloads.py`` and ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics.  Each repetition of the
workload is a fresh interpreter (``perfbench/child.py``) running it once,
serially, with tracing off; repetitions go on while the next one is
expected to end within ``--seconds`` (there is always at least one).
Reported are the medians over repetitions of

* ``wall_s``      -- wall time of the workload alone, imports excluded,
  expressed at the reference speed (see below);
* ``peak_rss_mb`` -- peak resident memory of the workload's process;

and ``setup_s``, the median wall time, at the reference speed, of fresh
interpreters that do nothing but import ``coaxcasimir`` and
``coaxcasimir.cli``, sampled half before and half after the repetitions
(after one warm-up, so the bytecode cache is written once, as for any
user).

The host's speed drifts by up to 1.5 times over minutes, which no number
of repetitions averages out.  So the speed of a fixed reference loop
(``perfbench/reference.py``) that uses none of the package's code is
sampled every 0.5 s while each repetition runs, and the repetition's
time is multiplied by ``ROUND_S`` over the loop's mean time per round.
Each set-up sample is bracketed by passes of the loop instead.  The
report also prints the plain measured medians.

``--trace 1`` runs the workload once untraced and once under the tracer
(``perfbench/tracer.py``), each in its own interpreter, checks that both
produced bitwise identical outputs, and reports the per-layer metrics of
the traced run plus ``trace.overhead_s``, traced minus untraced wall at
the reference speed.

Every operation (a sweep row, the fit, an eccentric row, the orbit table,
an energy route) is checked; failures are listed, counted in ``failed``,
and make the command exit 1.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

WORKLOADS = ("quickstart", "near-contact", "cross-check")
SETUP_SAMPLES = 8
#: Every run must end within 180 s; leave room to report.
DEADLINE_S = 170.0
#: The workloads are serial; keep BLAS from starting a thread pool.
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0.0:
        raise BenchError("out of time before the run could finish")
    return left


def _child(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                              text=True, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _setup_time(deadline: float) -> float:
    """Wall time of a fresh interpreter importing the package and its CLI."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import coaxcasimir, coaxcasimir.cli")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                   check=True, timeout=_remaining(deadline))
    return time.perf_counter() - start


def _setup_times(samples: int, deadline: float) -> tuple[list, list]:
    """Measured and corrected set-up times of ``samples`` interpreters.

    Each one is bracketed by passes of the reference loop.
    """
    speeds = [reference.seconds_per_round()]
    times = []
    for _ in range(samples):
        times.append(_setup_time(deadline))
        speeds.append(reference.seconds_per_round())
    return times, [reference.corrected(t, 0.5 * (before + after))
                   for t, before, after in zip(times, speeds, speeds[1:])]


def _machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} ?")
    return (f"{os.cpu_count()} cpus, {cpu}, Python "
            f"{platform.python_version()}, " + ", ".join(versions))


def _corrected_wall(run: dict) -> float:
    return reference.corrected(run["wall_s"], run["seconds_per_round"])


def _same_outputs(runs: list[dict], what: str) -> list[dict]:
    """One operation per extra run: its outputs equal the first run's."""
    ops = []
    for run in runs[1:]:
        same = run["outputs"] == runs[0]["outputs"]
        ops.append({"op": what, "ok": same,
                    "problems": [] if same else ["outputs differ"]})
    return ops


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, operations, a note on what was run)."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        plain = _child(workload, seed, False, deadline)
        traced = _child(workload, seed, True, deadline)
        ops = (plain["ops"] + traced["ops"]
               + _same_outputs([plain, traced], "traced equals untraced"))
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = {
            "value": _corrected_wall(traced) - _corrected_wall(plain),
            "unit": "s"}
        return metrics, ops, "one untraced and one traced run"

    # Half the set-up samples before the repetitions and half after, so
    # they span the run; a first one only warms the bytecode cache.
    reference.warm_up()
    _setup_time(deadline)
    setup, setup_corrected = _setup_times(SETUP_SAMPLES // 2, deadline)
    runs = []
    start = time.monotonic()
    while True:
        before = time.monotonic()
        runs.append(_child(workload, seed, False, deadline))
        now = time.monotonic()
        last = now - before
        if now - start + last > seconds or now + last > deadline:
            break
    more, more_corrected = _setup_times(SETUP_SAMPLES - len(setup), deadline)
    setup += more
    setup_corrected += more_corrected
    ops = [op for run in runs for op in run["ops"]]
    ops += _same_outputs(runs, "repeat is byte-identical")
    walls = [r["wall_s"] for r in runs]
    metrics = {
        "wall_s": {"value": statistics.median(map(_corrected_wall, runs)),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(setup_corrected), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in runs),
            "unit": "MB"},
    }
    per_round = statistics.median(r["seconds_per_round"] for r in runs)
    note = (f"{len(runs)} repetition(s) with "
            f"{sum(r['speed_samples'] for r in runs)} speed samples; "
            f"setup median of {len(setup)}; measured medians: wall "
            f"{statistics.median(walls):.4f} s, setup "
            f"{statistics.median(setup):.4f} s; reference loop "
            f"{per_round * 1e6:.3f} us/round (ROUND_S "
            f"{reference.ROUND_S * 1e6:g} us)")
    return metrics, ops, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coaxcasimir" / "__init__.py").is_file():
        print(f"no coaxcasimir package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    try:
        metrics, ops, note = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = [op for op in ops if not op["ok"]]
    print(f"machine: {_machine()}")
    print(f"workload {args.workload}, seed {args.seed}: {note}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']!r:>24} {metric['unit']}")
    print(f"  {'ops_failed':28s} {len(failed)!r:>24} count "
          f"(of ops {len(ops)})")
    for op in failed:
        print(f"  FAILED {op['op']}: {'; '.join(op['problems'])}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
