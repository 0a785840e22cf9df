"""One workload in a fresh interpreter; prints one JSON line on stdout.

Usage: python3 perfbench/child.py --workload NAME --seed N [--trace]

The timed region covers the workload alone: imports happen before it and
the correctness checks after it.  The speed of the reference loop of
``perfbench/reference.py`` is sampled while it runs, so that the caller
can express the workload's time at the reference speed.  With
``--trace`` the workload runs under the tracer and the line carries its
per-layer metrics as ``layers``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def measure(name: str, seed: int, trace: bool, small: bool = False) -> dict:
    """Run the workload once, timed, and check its outputs."""
    inp = workloads.inputs(name, seed, small)
    tracer = tracing.Tracer() if trace else None
    reference.warm_up()
    # Traced, the speed samples would land in the layers' spans: there
    # they are taken only on entry and exit.
    with tracer or contextlib.nullcontext(), \
            reference.Sampler(active=not trace) as clock:
        out = workloads.run(name, inp)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": name, "seed": seed, "wall_s": clock.net_s,
        "peak_rss_mb": rss_mb,
        "seconds_per_round": clock.seconds_per_round(),
        "speed_samples": len(clock.samples),
        "ops": workloads.check(name, inp, out, seed),
        "outputs": out,
    }
    if tracer is not None:
        values = tracer.metrics(name)
        result["layers"] = {metric: {"value": values[metric], "unit": unit}
                            for metric, unit in tracing.METRICS
                            if metric in values}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
