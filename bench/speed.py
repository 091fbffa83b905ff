"""CPU time measured at a fixed reference speed of the machine.

Two things move the time a piece of work takes on a shared host, and
neither belongs to the program. Other processes on the same CPU take
turns with it: that shows in wall time but not in CPU time, so every
interval here is the CPU time of the thread that serves the requests
(``time.thread_time``, which also leaves out time the virtual CPU was
stolen by the host; mxsum runs single-threaded with ``MXSUM_THREADS``
unset). And a core itself runs slower while another tenant uses the
same physical core: where this benchmark was written (2 vCPUs, x86-64, Python 3.11),
continuous probing showed a fast and a slow state, the slow one 1.5 to
2.3 times slower in CPU time too, switching every 0.1 to a few seconds;
in some minutes the slow state held 80 percent of the time, in others
10 percent.

So while a workload runs, a timer signal interrupts it every TICK_S
seconds and times small fixed probes, each the faster of two
runs (the first after an interruption runs cold). How much a slow state
slows code depends on the code: there, interpreted float work slowed
about 15 percent more than big-integer fraction work. So there are two
probes, one of each kind, and a workload weighs them like its own mix of
work (``MIXES``). A measured interval, less the time spent in probes, is
divided by the weighted mean slowdown of the probes inside it (or of the
last probe before it, at most TICK_S old), a probe's slowdown being its
time over its fastest time on that host: the result is the interval's
CPU time at the fast state's speed. A change to mxsum moves these times
as it moves CPU time; a change of the machine's speed mostly does not.
"""

from __future__ import annotations

import cmath
import math
import signal
from fractions import Fraction
from time import thread_time

TICK_S = 0.02
# a timed loop also ends after this many times its CPU-time budget in
# wall time, so that a starved run still ends in time
WALL_LIMIT = 6


def probe_float() -> float:
    """CPU seconds taken by a fixed piece of interpreted complex float work."""

    t0 = thread_time()
    z = 0j
    for i in range(200):
        z += cmath.exp(complex(-1e-3 * i, 1e-3 * i)) * (1.0 + i * 1e-6)
    return thread_time() - t0


_COEFFS = tuple(Fraction((-1) ** j * math.factorial(2 * j + 3), 3**j + 1) for j in range(14))
_POINT = Fraction(0.7615941559557649)


def probe_fraction() -> float:
    """CPU seconds taken by Horner's rule on big Fractions, the kind of
    arithmetic mxsum's exact coefficient code does."""

    t0 = thread_time()
    acc = Fraction(0)
    for c in _COEFFS:
        acc = acc * _POINT + c
    return thread_time() - t0


# probe -> its fastest time on the host where the benchmark was written
PROBES = {"float": (probe_float, 6.4e-5), "fraction": (probe_fraction, 4.6e-5)}
# workload -> weight of each probe: quadrature and K-Bessel are float
# work, the coefficient generators fraction work, a CLI process both
MIXES = {
    "full-points": {"float": 1.0},
    "expansion-points": {"fraction": 1.0},
    "cli-reports": {"float": 0.5, "fraction": 0.5},
}


class Clock:
    """Context manager that probes every TICK_S while it is open.

    ``mark()`` starts an interval and ``scaled(mark)`` gives its CPU
    time at the reference speed, in seconds. ``samples`` holds the
    weighted slowdown of each tick.
    """

    def __init__(self, mix: dict[str, float]):
        self.mix = [(PROBES[name], weight) for name, weight in mix.items()]
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _tick(self, signum, frame):
        t0 = thread_time()
        self.samples.append(
            sum(weight * min(run(), run()) / ref for (run, ref), weight in self.mix)
        )
        self.probe_s += thread_time() - t0

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        return thread_time(), self.probe_s, len(self.samples)

    def cpu(self, mark: tuple[float, float, int]) -> tuple[float, list[float]]:
        """CPU seconds since ``mark`` less probe time, and the slowdowns
        to scale by."""

        t0, probe_s, n = mark
        elapsed = thread_time() - t0 - (self.probe_s - probe_s)
        return elapsed, self.samples[n:] or self.samples[n - 1 : n]

    def scaled(self, mark: tuple[float, float, int]) -> float:
        return scale(*self.cpu(mark))


def scale(elapsed_s: float, slowdowns: list[float]) -> float:
    """``elapsed_s`` at the reference speed, given the slowdowns probed
    during it."""

    return elapsed_s * len(slowdowns) / sum(slowdowns)
