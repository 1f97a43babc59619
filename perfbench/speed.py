"""Host-speed probe: scale measured times to a nominal host speed.

On a shared 2-core VM the CPU runs in spells of different speed: identical
passes of heston_calibration took 2.7 s and 5.1 s two minutes apart, and a
run's median over its passes moved by 20% between runs.  No statistic over
one run's passes removes that, because spells last from seconds to minutes.

So the benchmark measures the host's speed while it works: a SIGALRM timer
runs a fixed pure-Python loop every ``PERIOD_S`` inside the measured work,
between bytecodes of the program.  A time is then reported as

    (wall time - time spent probing) * mean(NOMINAL_S / probe time),

the seconds the work would have taken with the host at the speed where the
probe takes ``NOMINAL_S``.  Over two minutes of mc_verify passes this cut
the pass-to-pass spread from 7% to 2%; probing costs ~1% of the time.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

LOOPS = 10_000
# Probe time with the host at full speed on the machine the baseline comes
# from (Intel Xeon, 2 vCPU, Python 3.11): the lowest of 2000 probes.
NOMINAL_S = 7.1e-4
PERIOD_S = 0.1
BRACKET = 5  # probes taken right before and right after a measured block


def probe() -> float:
    """Seconds for one run of the fixed reference loop."""
    start = perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return perf_counter() - start


class Sampler:
    """Probes taken around and during one measured block."""

    def __init__(self) -> None:
        self.inside: list[float] = []
        self.outside: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.inside.append(probe())

    @property
    def speed(self) -> float:
        """Mean host speed over the block, as a share of nominal."""
        return statistics.fmean(NOMINAL_S / p for p in self.inside + self.outside)

    def nominal(self, wall: float) -> float:
        """``wall`` less the probing inside it, scaled to nominal host speed."""
        return (wall - sum(self.inside)) * self.speed


@contextlib.contextmanager
def sampling(periodic: bool = True):
    """Probe right before and after the block and, if ``periodic``, every
    ``PERIOD_S`` inside it.  Time the block inside the ``with``."""
    sampler = Sampler()
    sampler.outside += [probe() for _ in range(BRACKET)]
    previous = signal.signal(signal.SIGALRM, sampler._on_alarm) if periodic else None
    if periodic:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield sampler
    finally:
        if periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        sampler.outside += [probe() for _ in range(BRACKET)]
