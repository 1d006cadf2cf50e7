"""Host speed: scales each timing to a fixed reference speed of the host.

The benchmark runs on shared virtual machines whose CPU speed changes by
up to 1.6 times for stretches of seconds to minutes: a fixed pure-Python
loop timed for 90 seconds had 5-second medians from 1.21 to 1.95 ms.
Every timing of a run moves with the share of its window spent in the
slow state, far beyond any bound a regression check could use.

:class:`HostSpeed` measures that speed next to the ops.  A *probe* is
fixed work of the benchmark's own that never calls the library:
relational work in the shape the library does, in its two halves, a hash
join, dedup and sort of string tuples in Python and an aggregate join on
an in-memory SQLite table.  One probe runs right after every op that
runs alone, and :data:`BURST` run between two cycles.  A timing is
divided by the host's slowness while it ran: the median of the probes
next to it, each probe's time over the reference time of its halves.  A
change to the library therefore shows in full, while a change of host
speed cancels.

The reported figures are *reference milliseconds*: the time the op would
take on a host where the probe's halves take :data:`REFERENCE_PYTHON_S`
and :data:`REFERENCE_SQLITE_S`, the fast state of the 2-vCPU machine the
benchmark was built on.
"""

from __future__ import annotations

import bisect
import random
import sqlite3
import statistics
import time
from typing import List, Tuple

#: Probes run back to back between two cycles.
BURST = 3

#: Probes on either side of a timing that estimate the slowness it ran at.
NEIGHBOURS = 2

#: Seconds each half of one probe takes on the reference host: the fast
#: state of the 2-vCPU machine the benchmark was built on.
REFERENCE_PYTHON_S = 0.00120
REFERENCE_SQLITE_S = 0.00055

#: Share of the slowness estimate that comes from the Python half of the
#: probe; the rest comes from the SQLite half.
PYTHON_WEIGHT = 0.75

#: Rows of the probe's Python join, and of its SQLite table.
PROBE_ROWS = 4000
SQLITE_ROWS = 1000


class HostSpeed:
    """The probes of one window, and the timings they scale."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.rows = [(f"a{rng.randrange(500)}", f"b{rng.randrange(200)}") for _ in range(PROBE_ROWS)]
        self.small = [(f"b{j}", f"c{j % 17}") for j in range(0, 200, 2)]
        self.connection = sqlite3.connect(":memory:")
        self.connection.execute("CREATE TABLE big (a TEXT, b TEXT)")
        self.connection.execute("CREATE TABLE small (b TEXT, c TEXT)")
        self.connection.executemany("INSERT INTO big VALUES (?, ?)", self.rows[:SQLITE_ROWS])
        self.connection.executemany("INSERT INTO small VALUES (?, ?)", self.small)
        #: End time and slowness (1.0 at the reference speed) of each probe.
        self.times: List[float] = []
        self.values: List[float] = []

    def _python_half(self) -> int:
        index: dict = {}
        for a, b in self.rows:
            index.setdefault(b, []).append(a)
        joined = {(a, c) for b, c in self.small for a in index.get(b, ())}
        return len(sorted(joined))

    def _sqlite_half(self) -> int:
        return len(
            self.connection.execute(
                "SELECT s.c, count(DISTINCT g.a) FROM big AS g JOIN small AS s ON g.b = s.b GROUP BY s.c"
            ).fetchall()
        )

    def _probe(self) -> Tuple[float, float]:
        started = time.perf_counter()
        self._python_half()
        middle = time.perf_counter()
        self._sqlite_half()
        return middle - started, time.perf_counter() - middle

    def probe(self, count: int = 1) -> None:
        """Run ``count`` probes back to back and record each."""
        for _ in range(count):
            python, sqlite = self._probe()
            self.times.append(time.perf_counter())
            self.values.append(
                PYTHON_WEIGHT * python / REFERENCE_PYTHON_S + (1.0 - PYTHON_WEIGHT) * sqlite / REFERENCE_SQLITE_S
            )

    def slowness(self, started: float, ended: float) -> float:
        """Host slowness over ``[started, ended]``.

        The median of the :data:`NEIGHBOURS` probes that ended last before
        ``started`` and the :data:`NEIGHBOURS` that ran first after ``ended``.
        """
        if not self.times:
            raise RuntimeError("no probe was run")
        before = bisect.bisect_right(self.times, started)
        after = bisect.bisect_left(self.times, ended)
        around = self.values[max(0, before - NEIGHBOURS):before] + self.values[after:after + NEIGHBOURS]
        return statistics.median(around)

    def scale(self, started: float, ended: float) -> float:
        """Seconds ``ended - started`` at the reference speed."""
        return (ended - started) / self.slowness(started, ended)

    def close(self) -> None:
        self.connection.close()
