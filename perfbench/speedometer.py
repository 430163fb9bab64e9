"""CPU-speed probe that runs inside the timed command.

The 2-core VM this benchmark was sized on runs each vCPU in two states about
2x apart in speed, switching within a second, in a mix that drifts over
minutes (contention outside the VM).  Raw wall times of one command spread
by 0.2-0.4 (interquartile range over median) between fresh interpreters,
and per-run medians of a 40 s run by 0.15-0.35 between runs, which no
amount of repetition inside a run removes.

So every PERIOD_S a timer signal runs a fixed probe twice and times the
second, warm run.  The command's wall time is cut into the slices between
probes, and each slice is weighed by the probe duration measured at its
end: ``work = sum(slice_s / probe_s)``, the command's length in probe runs.
The driver reports ``work * PROBE_REF_S``: the wall time the command would
take at the speed where one probe takes PROBE_REF_S.  The probe repeats the
inner loop of ``BivarPoly.__mul__`` (Fraction products summed into a dict),
so it slows down with the program; a plain integer loop did not, and left
spreads of 0.1-0.25.  With this probe the same VM gave 0.03 between fresh
interpreters and at most 0.06 between runs.  The probe only reads its own
data, runs with the garbage collector paused so that collecting the
program's heap does not read as a slow CPU, and adds 1-2% to the raw wall
time, which the run record keeps.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from fractions import Fraction

PERIOD_S = 0.01
# the probe's duration at full speed on the VM the benchmark was sized on;
# work in probe units times this is seconds at that speed
PROBE_REF_S = 5.0e-5

# the probe mirrors BivarPoly.__mul__: Fraction products summed into a dict
# keyed by exponent pairs, so it slows down with the program it measures
_A = {(i, j): Fraction(i + 1, j + 2) for i in range(2) for j in range(2)}
_B = {(i, j): Fraction(2 * i + 3, j + 1) for i in range(2) for j in range(3)}


def _probe() -> dict:
    out: dict = {}
    for (i1, j1), v1 in _A.items():
        for (i2, j2), v2 in _B.items():
            key = (i1 + i2, j1 + j2)
            prod = v1 * v2
            acc = out.get(key)
            out[key] = prod if acc is None else acc + prod
    return out


class Speedometer:
    """Context manager around the command; records slices and probes."""

    def __init__(self):
        self.slices = array("d")
        self.probes = array("d")
        self._last = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        entry = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not CPU speed
        _probe()  # warm-up: only the second, warm run is timed
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.slices.append(entry - self._last)
        self.probes.append(t1 - t0)
        self._last = time.perf_counter()

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()  # the final slice is weighed by a probe at its end

    def work(self) -> float:
        """The command's wall time in units of one probe run."""
        return sum(s / p for s, p in zip(self.slices, self.probes))
