"""A fixed pure-Python control that tracks the host's current speed.

Shared machines drift: the same pass can take 40% longer a minute
later.  The benchmark therefore runs one short control *slice* next to
every timed event -- outside its timed window -- and scales each
end-to-end time to a machine on which a slice takes ``REFERENCE_S``.
The control shares no code with the program, so no change to the
program moves it.  It does the program's kind of work on the program's
kind of memory: each slice runs one full list-backed Dijkstra over a
fixed random graph the size of the online topology and keeps the row in
a ring as large as the online VM-pool row cache (about 17 MB of float
objects), then reads one label from every kept row.  A control that
stayed in cache under-tracked the program whenever a neighbour
contended for memory.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Median slice time, in seconds, of the nominal machine the scaled
#: metrics are expressed on.  A 2.1 GHz x86-64 cloud core running
#: CPython 3.11 measured 3.8-5 ms per slice.
REFERENCE_S = 0.005
_NODES = 2700
_ROWS = 200


def _graph():
    """A connected random graph: a ring plus one chord per node."""
    adj = [[] for _ in range(_NODES)]
    state = 12345

    def draw():
        nonlocal state
        state = (1103515245 * state + 12345) % 2 ** 31
        return state

    for u in range(_NODES):
        for v in ((u + 1) % _NODES, draw() % _NODES):
            if v != u:
                weight = 1.0 + draw() / 2 ** 31
                adj[u].append((v, weight))
                adj[v].append((u, weight))
    return adj


def _row(adj, source):
    """One full single-source row, list-backed."""
    dist = [float("inf")] * _NODES
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


class Control:
    """Collects slice timings; ``factor()`` scales seconds to reference."""

    def __init__(self) -> None:
        self._adj = _graph()
        # Start with a full ring, as the program starts its timed loops
        # with a warm VM pool.
        self._rows = [_row(self._adj, s) for s in range(_ROWS)]
        self._next = 0
        self.samples = []

    def slice(self) -> float:
        """Run one slice; returns (and records) its duration."""
        source = (self._next * 7919) % _NODES
        start = time.perf_counter()
        self._rows[self._next % _ROWS] = _row(self._adj, source)
        total = 0.0
        for row in self._rows:
            total += row[source]
        elapsed = time.perf_counter() - start
        self._next += 1
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(slice_s: float) -> float:
        """Factor taking seconds measured at median slice ``slice_s`` to
        the reference machine."""
        return REFERENCE_S / slice_s

    def factor(self) -> float:
        """Scale factor over every slice of the run."""
        return self.scale(statistics.median(self.samples))
