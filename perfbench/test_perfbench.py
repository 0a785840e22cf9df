"""The benchmark's own test: exact counters repeat, the tracer fails loudly.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at its small setting (the same layers, fewer points),
traced, twice in this process.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import child  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Counters that must repeat exactly between two runs of the same inputs.
EXACT_COUNTERS = (
    "exact.evaluations", "exact.orders", "quadrature.integrals",
    "specfun.debye.calls", "specfun.debye.points",
    "specfun.scipy.calls", "specfun.scipy.points",
)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_exact_counters_repeat_and_checks_pass(name):
    first = child.measure(name, workloads.DEFAULT_SEED, trace=True, small=True)
    second = child.measure(name, workloads.DEFAULT_SEED, trace=True,
                           small=True)
    for run in (first, second):
        assert [op for op in run["ops"] if not op["ok"]] == []
    assert first["outputs"] == second["outputs"]
    for counter in EXACT_COUNTERS:
        assert first["layers"][counter] == second["layers"][counter], counter
    assert first["layers"]["exact.evaluations"]["value"] > 0


def test_traced_outputs_equal_untraced():
    plain = child.measure("near-contact", 5, trace=False, small=True)
    traced = child.measure("near-contact", 5, trace=True, small=True)
    assert traced["outputs"] == plain["outputs"]


def test_seeded_inputs_stay_in_band():
    for name in workloads.NAMES:
        base = workloads.inputs(name, workloads.DEFAULT_SEED)
        assert workloads.inputs(name, 7) == workloads.inputs(name, 7)
        moved = workloads.inputs(name, 7)
        assert moved != base
        for key, value in base.items():
            if "alpha" in key:
                gap = abs(moved[key] - value) / (value - 1.0)
                assert gap <= workloads.ALPHA_BAND


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + (
        (tracing.specfun, "_no_such_kernel", "specfun.debye", None),))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="_no_such_kernel"):
        tracer.install()
    # the wrappers installed before the failure are taken off again
    assert tracing.specfun._log_ik_debye.__module__ == "coaxcasimir.specfun"
    assert not hasattr(tracing.specfun._log_ik_debye, "__wrapped__")


def test_idle_expected_layer_fails_loudly():
    tracer = tracing.Tracer()
    with tracer:
        pass
    with pytest.raises(tracing.TraceError, match="specfun.debye"):
        tracer.metrics("near-contact")


def test_speed_samples_cover_the_block_and_are_left_out_of_it():
    busy_s = 1.3
    with reference.Sampler() as clock:
        end = time.perf_counter() + busy_s
        while time.perf_counter() < end:
            pass
    # one sample on entry, one on exit, two or more inside
    assert len(clock.samples) >= 4
    assert clock.inside_s > 0.0
    assert clock.net_s + clock.inside_s == pytest.approx(busy_s, abs=0.05)
    assert clock.seconds_per_round() > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_inactive_sampler_only_brackets():
    with reference.Sampler(active=False) as clock:
        time.sleep(0.6)
    assert len(clock.samples) == 2 and clock.inside_s == 0.0
    assert clock.net_s == pytest.approx(0.6, abs=0.05)
