"""Per-layer tracing from outside the package.

The tracer replaces functions at the module attributes their callers look
up (``exact.reflection_ratio_logs``, ``specfun._log_ik_debye``, ...) with
wrappers that record one span per call: layer, start, end and the span
that was open when the call began.  Spans are kept in memory; a layer's
self time is the sum over its spans of the span's duration minus that of
its direct child spans, so time lands in the innermost traced layer.
Counts (points, orders, evaluations, convergence) are taken from the
arguments and results at the same boundaries.

A wrapped name that no longer exists raises ``TraceError`` at install, and
``Tracer.metrics`` raises it when a layer the workload is expected to
reach recorded no calls, so a refactor cannot silently zero a layer.
"""

from __future__ import annotations

import functools
import time
from array import array

from coaxcasimir import cli, eccentric, exact, quadrature, specfun


class TraceError(RuntimeError):
    """The package no longer has the shape the tracer was written for."""


def _points(args, result):
    return {"points": args[1].size}


def _energy(args, result):
    return {"orders": len(result.per_order), "order_max": result.order_max,
            "evaluations": result.evaluations,
            "unconverged": int(not result.converged), "alpha": args[0]}


def _converged(args, result):
    return {"unconverged": int(not result.converged)}


def _integral(args, result):
    return {"integrals": 1, "evals": result.evaluations,
            "unconverged": int(not result.converged)}


# (module, attribute looked up by the caller, layer, counter callback)
WRAPS = (
    (cli, "main", "cli", None),
    (cli, "interaction_energy", "exact.energy", _energy),
    (cli, "pressure_inner", "exact.pressure", _converged),
    (cli, "fit_p", "approx", None),
    (cli, "proximity_energy", "approx", None),
    (cli, "proximity_pressure", "approx", None),
    (cli, "semiclassical_energy", "approx", None),
    (cli, "enumerate_orbits", "approx", None),
    (cli, "eccentric_force_numeric", "eccentric", None),
    (cli, "eccentric_force_closed_form", "eccentric", None),
    (cli, "frequency_shift", "eccentric", None),
    (eccentric, "integrate_finite", "quadrature", _integral),
    (exact, "interaction_energy", "exact.energy", _energy),
    (exact, "interaction_energy_double_integral", "exact.double", _energy),
    (exact, "integrate_semi_infinite", "quadrature", _integral),
    (exact, "log_mode_factor", "exact.mode_factor", None),
    (exact, "reflection_ratio_logs", "specfun", None),
    (quadrature, "integrate_finite", "quadrature", None),
    (specfun, "_log_ik_scipy", "specfun.scipy", _points),
    (specfun, "_log_ik_debye", "specfun.debye", _points),
)

#: Layers each workload must reach; zero calls to one of them is an error.
EXPECTED = {
    "quickstart": ("cli", "approx", "eccentric", "exact.energy",
                   "exact.pressure", "exact.mode_factor", "quadrature",
                   "specfun", "specfun.scipy", "specfun.debye"),
    "near-contact": ("cli", "exact.energy", "exact.mode_factor",
                     "quadrature", "specfun", "specfun.scipy",
                     "specfun.debye"),
    "cross-check": ("exact.energy", "exact.double", "exact.mode_factor",
                    "quadrature", "specfun", "specfun.scipy"),
}

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in WRAPS))

#: Per-layer metrics, with their units, in report order.
METRICS = (
    ("specfun.debye.s", "s"), ("specfun.debye.calls", "count"),
    ("specfun.debye.points", "count"),
    ("specfun.scipy.s", "s"), ("specfun.scipy.calls", "count"),
    ("specfun.scipy.points", "count"),
    ("specfun.points_per_call", "points/call"), ("specfun.self_s", "s"),
    ("exact.sums_per_pressure", "sums/call"),
    ("exact.pressure.calls", "count"),
    ("exact.energy.calls", "count"), ("exact.energy.useful_ratio", "ratio"),
    ("exact.self_s", "s"), ("exact.orders", "count"),
    ("exact.order_max", "count"), ("exact.evaluations", "count"),
    ("exact.unconverged", "count"),
    ("exact.mode_factor.self_s", "s"), ("exact.mode_factor.calls", "count"),
    ("quadrature.self_s", "s"), ("quadrature.integrals", "count"),
    ("quadrature.evals", "count"), ("quadrature.unconverged", "count"),
    ("cli.self_s", "s"), ("approx.s", "s"), ("approx.calls", "count"),
    ("eccentric.s", "s"), ("eccentric.calls", "count"),
    ("trace.overhead_s", "s"),
)

class Tracer:
    """Installs the wrappers, records spans and counts, derives metrics."""

    def __init__(self):
        self.layer = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []
        self.alphas = set()
        self.counts = {}

    def _wrap(self, fn, layer_id, count):
        stack = self._stack
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if count is not None:
                self._count(LAYERS[layer_id], count(args, result))
            return result

        return wrapper

    def _count(self, layer, values):
        alpha = values.pop("alpha", None)
        if alpha is not None and layer == "exact.energy":
            self.alphas.add(alpha)
        for key, value in values.items():
            name = f"{layer}.{key}"
            if key == "order_max":
                self.counts[name] = max(self.counts.get(name, 0), value)
            else:
                self.counts[name] = self.counts.get(name, 0) + value

    def install(self):
        for module, attr, layer, count in WRAPS:
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.uninstall()
                raise TraceError(
                    f"{module.__name__}.{attr} no longer exists; "
                    "update perfbench/tracer.py WRAPS")
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, LAYERS.index(layer), count))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _layers(self):
        """Calls and self time per layer, and energy sums inside pressures."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        pressure_id = LAYERS.index("exact.pressure")
        energy_id = LAYERS.index("exact.energy")
        sums_in_pressure = 0
        for i in range(n):
            name = LAYERS[self.layer[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if (self.layer[i] == energy_id and p >= 0
                    and self.layer[p] == pressure_id):
                sums_in_pressure += 1
        return calls, self_s, sums_in_pressure

    def metrics(self, workload: str) -> dict:
        """Per-layer metric values, all but ``trace.overhead_s``.

        Raises TraceError if a layer the workload must reach is idle.
        """
        calls, self_s, sums_in_pressure = self._layers()
        idle = [layer for layer in EXPECTED[workload] if calls[layer] == 0]
        if idle:
            raise TraceError(
                f"{workload}: no calls recorded in layer(s) "
                f"{', '.join(idle)}; a wrapped name is no longer on the "
                "call path")

        c = self.counts.get
        bessel_calls = calls["specfun.scipy"] + calls["specfun.debye"]
        bessel_points = c("specfun.scipy.points", 0) + c("specfun.debye.points", 0)
        return {
            "specfun.debye.s": self_s["specfun.debye"],
            "specfun.debye.calls": calls["specfun.debye"],
            "specfun.debye.points": c("specfun.debye.points", 0),
            "specfun.scipy.s": self_s["specfun.scipy"],
            "specfun.scipy.calls": calls["specfun.scipy"],
            "specfun.scipy.points": c("specfun.scipy.points", 0),
            "specfun.self_s": self_s["specfun"],
            "specfun.points_per_call":
                bessel_points / bessel_calls if bessel_calls else 0.0,
            "exact.sums_per_pressure":
                sums_in_pressure / calls["exact.pressure"]
                if calls["exact.pressure"] else 0.0,
            "exact.pressure.calls": calls["exact.pressure"],
            "exact.energy.calls": calls["exact.energy"],
            "exact.energy.useful_ratio":
                len(self.alphas) / calls["exact.energy"]
                if calls["exact.energy"] else 0.0,
            "exact.self_s": (self_s["exact.energy"] + self_s["exact.double"]
                             + self_s["exact.pressure"]),
            "exact.orders": c("exact.energy.orders", 0)
                + c("exact.double.orders", 0),
            "exact.order_max": max(c("exact.energy.order_max", 0),
                                   c("exact.double.order_max", 0)),
            "exact.evaluations": c("exact.energy.evaluations", 0)
                + c("exact.double.evaluations", 0),
            "exact.unconverged": c("exact.energy.unconverged", 0)
                + c("exact.double.unconverged", 0)
                + c("exact.pressure.unconverged", 0),
            "exact.mode_factor.self_s": self_s["exact.mode_factor"],
            "exact.mode_factor.calls": calls["exact.mode_factor"],
            "quadrature.self_s": self_s["quadrature"],
            "quadrature.integrals": c("quadrature.integrals", 0),
            "quadrature.evals": c("quadrature.evals", 0),
            "quadrature.unconverged": c("quadrature.unconverged", 0),
            "cli.self_s": self_s["cli"],
            "approx.s": self_s["approx"],
            "approx.calls": calls["approx"],
            "eccentric.s": self_s["eccentric"],
            "eccentric.calls": calls["eccentric"],
        }
