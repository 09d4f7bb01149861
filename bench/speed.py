"""Machine-speed probe for the benchmark's timed passes.

The benchmark's host is a small virtual machine whose cores are shared
with other tenants: the same Python code runs up to about 1.9x slower
while a neighbour is busy, in phases that last from seconds to many
minutes.  Raw seconds over a 30 s run therefore spread by 17-33%
between runs of the same code, and no statistic over one run's passes
removes a phase longer than the run.

The probe measures the speed the program actually ran at.  While a pass
runs, an interval timer raises SIGALRM every ``INTERVAL_S`` of wall time,
and the handler, on the same thread between two bytecodes of the
program, times one run of a fixed exact-rational kernel (about 0.3 ms,
so about 1% of the pass).  A reference run between the jobs would miss
a phase that starts inside a job of several seconds; the samples taken
during the job do not.  A job's normalised time is its raw time times
``NOMINAL_S`` over the mean kernel time of the samples from the last one
before it to one taken right after it: the seconds it would have taken
at the speed at which the kernel takes ``NOMINAL_S``.  On the baseline
machine this cut the spread of a 10-run set from 0.11-0.30 raw to
0.015-0.104 (bench/baseline.json).

The kernel is frozen here and calls nothing of ``isopairs``, so a change
to the program moves the raw time and not the kernel, and the
normalised time moves by the program's change alone.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

# seconds of wall time between two samples
INTERVAL_S = 0.025

# the kernel time that defines a normalised second: about its median on
# the machine the baseline was taken on (bench/baseline.json)
NOMINAL_S = 0.0003

# Rational products and a dict update per operand pair, the two things
# the exact evaluator and the linear algebra spend their time on; the
# operands stay a fixed size, so every call does the same work.
_rng = random.Random(20261017)
_OPERANDS = [
    (Fraction(_rng.randrange(1 << 40, 1 << 64), _rng.randrange(1, 1 << 24)),
     Fraction(_rng.randrange(1, 1 << 34), _rng.randrange(1, 1 << 12)),
     (_rng.randrange(8), _rng.randrange(8), _rng.randrange(8)))
    for _ in range(64)
]


def kernel() -> int:
    acc: dict = {}
    for a, b, key in _OPERANDS:
        acc[key] = a * b - acc.get(key, 0) / 3
    return len(acc)


class SpeedProbe:
    """Samples the kernel's time while it is started.  ``start`` and
    ``stop`` each take one sample too, and ``sample`` takes one at any
    time, so a stretch shorter than the interval still has a speed;
    ``stop`` restores the previous SIGALRM handler."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self._previous = None

    def sample(self, *_):
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def start(self):
        self.samples = []
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()
        return self.samples


def factor(samples) -> float:
    """Multiply a raw time by this to get normalised seconds."""
    return NOMINAL_S * len(samples) / sum(samples)
