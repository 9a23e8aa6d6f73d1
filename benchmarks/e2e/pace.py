"""Host-speed reference: scale measured times to a nominal host speed.

The machine this benchmark was built on is shared, and its speed drifts by
a factor of up to two within seconds: a fixed Python loop read 19 ms in one
2 s window and 27 ms a few windows later, and during one ten-minute spell
the same workload ran 1.1 to 2.3 times slower than nominal from run to
run.  CPU time drifts with wall time (the host runs the process slower; it
does not deschedule it), so neither clock separates the code's cost from
the host's, and a run that meets a slow spell reads as a regression.

So a child process runs a fixed pure-Python reference loop, which touches
no ``repro`` code, every ``PROBE_EVERY_S`` of wall time from an interval
timer -- during set-up, inside cells and between them -- and the benchmark
reports each gated time scaled to the loop's nominal speed::

    scaled = measured / (harmonic mean of nearby loop times / NOMINAL_S)

The harmonic mean is the right average: the work done over an interval is
the integral of speed, and the probes sample the loop's time, the inverse
of speed, at even steps.  Scaled times are seconds on a host that runs the
loop in ``NOMINAL_S``; the raw times are reported beside them.  Time spent
in probes is left out of every measured time.

The probe shares the measured process, so a program that thrashes the
caches or grows the heap could slow the loop as well, and the scaling
would then hide part of that program's cost.  ``probe_ab.py`` checks
this.  On the reference machine, random reads over a 170 MB heap moved
the probe by 0.3% and holding that heap moved it by 1.4%, the latter
known only to a few percent (see the README).  A probe in a sibling
process would be immune, but it runs on the other vCPU, whose contention
differs: it reduced the spread of a fixed workload's one-second times
only from 0.28 to 0.13, against 0.05 for the in-process probe.
"""

from __future__ import annotations

import array
import bisect
import gc
import signal
import statistics
import time

LOOP_N = 2000
# One ``_loop(LOOP_N)`` on the reference machine (a 2-vCPU Xeon VM,
# CPython 3.11) in a quiet spell.
NOMINAL_S = 3.0e-4
LOOPS_PER_PROBE = 3        # a probe is the median of this many loops
PROBE_EVERY_S = 0.05
WINDOW_S = 0.25            # probes this close to an interval describe it


def _loop(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= key
    return acc + len(table)


def probe() -> float:
    """Seconds for one reference loop now (median of a short burst).

    The collector is off during the burst, so the size of the program's
    heap cannot reach the loop through a collection it triggers.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(LOOPS_PER_PROBE):
            start = time.perf_counter()
            _loop(LOOP_N)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Probes the host every ``PROBE_EVERY_S`` from a ``SIGALRM`` interval
    timer while the ``with`` block runs, for at most ``seconds``.

    ``probes`` holds ``(time.perf_counter(), loop seconds)`` pairs.
    ``clock()`` is ``time.perf_counter()`` minus the time spent in probes,
    so an interval timed with it leaves out the probes that interrupted it.

    A tick leaves no new object behind: it writes into arrays allocated up
    front.  Small objects that outlive a tick would sit among a cell's
    large temporary data and keep the allocator from returning that memory
    to the system; with a list of tuples, the per-cell peak RSS of
    ``slt_power`` rose from 48 MB to 68 MB after its first large cell.
    """

    def __init__(self, seconds: float) -> None:
        self._slots = int(seconds / PROBE_EVERY_S) + 1
        self._data = array.array("d", bytes(16 * self._slots))
        self._state = array.array("d", [0.0, 0.0])  # probes, seconds spent
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        # A tick that arrives during a probe, or after ``seconds``, is
        # dropped.
        if self._busy or self._state[0] >= self._slots:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            slot = 2 * int(self._state[0])
            self._data[slot] = start
            self._data[slot + 1] = probe()
            self._state[0] += 1
        finally:
            self._state[1] += time.perf_counter() - start
            self._busy = False

    @property
    def probes(self) -> list[tuple[float, float]]:
        data = self._data[:2 * int(self._state[0])]
        return list(zip(data[::2], data[1::2]))

    def clock(self) -> float:
        return time.perf_counter() - self._state[1]


def slowdowns(probes: list[tuple[float, float]],
              intervals: list[tuple[float, float]]) -> list[float]:
    """How much slower than nominal the host ran over each ``(start, end)``
    interval: the harmonic mean of the probes (``(time, loop seconds)``,
    sorted by time) within ``WINDOW_S`` of the interval, over
    ``NOMINAL_S``.  With no probe that close (a long call into native code
    delays the timer's handler), the nearest probe speaks for it."""
    times = [t for t, _ in probes]
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        if lo == hi:
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(times)),
                     key=lambda i: abs(times[i] - start))
            hi = lo + 1
        out.append(statistics.harmonic_mean(s for _, s in probes[lo:hi])
                   / NOMINAL_S)
    return out
