"""A fixed reference loop that measures how fast the host runs right now.

The machine is shared, and its speed moves: by about 12% from one second
to the next, and by up to 1.5 times over minutes, both CPUs together.
Repetitions inside one run average out the first but not the second.  So
timed work is expressed at the reference speed:

    corrected = measured * ROUND_S / (seconds per round of the loop now)

The loop does what the package's hot paths do -- scaled modified Bessel
functions from :mod:`scipy.special` on 15-point arrays, the elementwise
algebra of the uniform expansion, small NumPy reductions and a short
Python loop -- but it uses none of the package's code, so no change to
the package moves it.

Its speed "now" is sampled in two ways.  ``Sampler`` times a workload
and runs a short pass of the loop every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler while it runs, so the samples cover the workload's
own interval; the time they take is subtracted from the workload's.
``seconds_per_round`` times one longer pass; each set-up sample, which
runs in another process, is bracketed by two of them.

``ROUND_S`` is the loop's median time per round on the machine described
in ``perfbench/README.md``; there, corrected and measured times agree on
average.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy import special

#: Median seconds per round of the loop on the documented machine.
ROUND_S = 40e-6
#: Rounds of a long pass (about 0.1 s) and of one sample (about 15 ms).
LONG_ROUNDS = 2_500
SAMPLE_ROUNDS = 350
#: Wall time between two samples while a workload runs.
INTERVAL_S = 0.5
_X = np.linspace(0.2, 6.0, 15)


def _loop(rounds: int) -> float:
    total = 0.0
    for k in range(rounds):
        n = k % 30
        # as for low orders: scaled Bessel functions from SciPy
        total += float(np.sum(np.log(special.ive(n, _X))
                              + np.log(special.kve(n, _X))))
        # as for high orders: the uniform expansion's elementwise algebra
        t = 1.0 / np.sqrt(1.0 + (_X / (n + 1.0)) ** 2)
        total += float(np.sum(np.log1p(t * (0.125 - 0.2083 * t * t))))
        # as in the quadrature and order loops: plain Python arithmetic
        acc = 0.0
        for j in range(20):
            acc += j * 0.5
        total += acc
    return total


def _timed(rounds: int) -> float:
    start = time.perf_counter()
    _loop(rounds)
    return time.perf_counter() - start


def warm_up() -> None:
    """A short pass, so the first timed one does not pay first-call costs."""
    _loop(SAMPLE_ROUNDS)


def seconds_per_round() -> float:
    """Seconds per round over one long pass of the loop."""
    return _timed(LONG_ROUNDS) / LONG_ROUNDS


def corrected(measured: float, per_round: float) -> float:
    """``measured`` seconds expressed at the reference speed."""
    return measured * ROUND_S / per_round


class Sampler:
    """Times a block and samples the loop's speed while it runs.

    One sample is taken on entry and one on exit, outside the timed
    block, so even a short block gets two.  While ``active``, a sample is
    also taken every ``INTERVAL_S`` s inside the block; ``net_s`` is the
    block's wall time without the time those samples took.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.inside_s = 0.0
        self.net_s = 0.0
        self._previous = None
        self._start = 0.0

    def _sample(self) -> float:
        took = _timed(SAMPLE_ROUNDS)
        self.samples.append(took)
        return took

    def _inside(self, *_):
        self.inside_s += self._sample()

    def __enter__(self):
        self._sample()
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._inside)
        self._start = time.perf_counter()
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.net_s = time.perf_counter() - self._start - self.inside_s
        if self.active:
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def seconds_per_round(self) -> float:
        """Mean seconds per round over the samples."""
        return statistics.fmean(self.samples) / SAMPLE_ROUNDS
