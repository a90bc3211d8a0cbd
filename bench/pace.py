"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the same code runs tens of per cent faster or slower in
spells that last from seconds to minutes, longer than one benchmark run.
From set-up to the last request, `Pacer` interrupts the work on a timer
and runs a short fixed reference chunk; the benchmark takes the chunk's time
out of the set-up time and of each request's latency, and divides each by
the chunk's mean time inside it.  The chunk uses only the Python interpreter, never sodekit, so
a change to the program cannot change the reference, and it creates no
object the garbage collector tracks, so it never starts a collection that
would walk the program's objects.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Timer period of the reference chunk, in seconds.
INTERVAL_S = 0.02

# Seconds per chunk that paced times are scaled to: the time one chunk takes
# on a 2-vCPU shared KVM Intel Xeon host in a fast spell, so paced seconds
# read close to the wall seconds measured there.
NOMINAL_CHUNK_S = 0.0005

_TABLE = {i: (i * 2654435761) % 1000003 for i in range(64)}


def chunk() -> int:
    """Interpreter-bound work: integer arithmetic, dict lookups, calls."""
    acc = 0
    table = _TABLE
    for i in range(2000):
        acc = (acc * 31 + table[i & 63]) % 1000003
        acc ^= _mix(acc, i)
    return acc


def _mix(a: int, b: int) -> int:
    return (a >> 3) + (b << 1)


class Pacer:
    """Runs `chunk` every `INTERVAL_S` seconds of wall time while active.

    `runs` and `seconds` count the chunks run and the time they took.
    """

    def __init__(self):
        self.runs = 0
        self.seconds = 0.0
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        # A tick that arrives while a chunk runs would nest inside it and
        # count its time twice; it is dropped.
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        chunk()
        self.seconds += perf_counter() - t0
        self.runs += 1
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
