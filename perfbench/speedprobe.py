"""Host speed sampled during the timed ops, the unit of the end-to-end times.

On a shared 2-vCPU Xeon VM the host's speed changes by up to 2.7x, both
within seconds and over minutes, and CPU time changes with wall time: the
program runs slower, it does not wait.  A run of a minute cannot average
that out, so in seconds ten runs of the same code spread by more than any
usable bound.  While a round runs, ``SpeedProbe`` takes a ``SIGALRM`` every
``INTERVAL_S`` and times one fixed snippet inside the handler, so the
samples fall inside the ops they are compared with.  run.py divides each
round's time by the mean snippet time of that round.

The snippet runs no rdlab code, so a change to rdlab cannot move it.  It
mixes what the workloads spend time on: interpreted Python (ODE callbacks,
CLI glue), numpy on grid-sized arrays (a PDE step) and scattered reads
from a 4 MiB array, which slow down when other tenants contend for the
cache.  Of the snippets tried, this mix tracked the ops' own slowdowns
best.  It must never change, or the figures of two commits stop being
comparable.  ``spent`` returns the handler's own time, so that callers can
take it out of what they time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05

_GRID = np.linspace(0.0, 1.0, 514)
_BLOCK = np.linspace(0.0, 1.0, 1 << 19)
_READS = np.random.default_rng(0).integers(0, _BLOCK.size, 20_000)


def snippet() -> float:
    acc = 0.0
    for i in range(1500):
        acc += (i * 0.5) % 3.0
    b = _GRID.copy()
    for _ in range(30):
        b = 0.5 * _GRID * b + _GRID - b * b
    return acc + float(_BLOCK[_READS].sum()) + float(b[0])


class SpeedProbe:
    """Samples the snippet on a timer between ``start`` and ``stop``."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._spent = [0.0, 0.0]

    def _tick(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        snippet()
        t1, c1 = time.perf_counter(), time.process_time()
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self._spent[0] += t1 - t0
        self._spent[1] += c1 - c0

    def spent(self) -> tuple[float, float]:
        """Wall and CPU seconds spent in samples so far."""
        return self._spent[0], self._spent[1]

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
