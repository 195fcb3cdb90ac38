"""Host speed, gauged by a fixed pure-Python loop, to steady the timings.

On a shared host the same code runs up to 1.7 times slower for minutes at a
time, and neither steal time nor CPU time shows it.  The benchmark therefore
runs ``reference_loop`` between timed calls, in the same process, and scales
each call's time by the speed the loop saw on either side of it:
``seconds * speed`` is the time the call would have taken on a host where
the loop runs NOMINAL_RATE iterations per second.  The loop allocates no
container objects, so it never triggers the garbage collector and its speed
does not depend on the heap the program left behind.
"""

from __future__ import annotations

import time

#: Iterations per second of ``reference_loop`` on the nominal host.  A
#: 2-vCPU shared x86-64 VM running CPython 3.11 did 0.7-1.0 times this.
NOMINAL_RATE = 1e7
#: After a timed call the loop runs for this share of the call's duration ...
SHARE = 0.1
#: ... and for at least this long.
MIN_S = 0.002
#: Before the first timed call the loop runs this long.
FIRST_S = 0.05
CHUNK = 2000


def reference_loop(budget_s: float) -> tuple[int, float]:
    """Run the loop in chunks until ``budget_s`` has passed; return the
    iterations done and the time they took."""
    table = tuple(range(64))
    acc, done = 0, 0
    start = time.perf_counter()
    while True:
        for i in range(done, done + CHUNK):
            acc = (acc + table[i & 63] * i) % 1000003
        done += CHUNK
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return done, elapsed


class Gauge:
    """Gauges the host between timed calls.  ``after(seconds)`` runs the
    loop after a call that took ``seconds`` and returns the host's speed
    relative to the nominal host around that call: the mean of the speeds
    gauged just before and just after it."""

    def __init__(self) -> None:
        self.spent_s = 0.0
        self.before = self._run(FIRST_S)

    def _run(self, budget_s: float) -> float:
        done, elapsed = reference_loop(budget_s)
        self.spent_s += elapsed
        return done / elapsed / NOMINAL_RATE

    def after(self, seconds: float) -> float:
        before, self.before = self.before, self._run(max(MIN_S, SHARE * seconds))
        return (before + self.before) / 2
