"""Shortest-path primitives: Dijkstra, path reconstruction, distance oracle.

Every SOF algorithm in the paper is built on repeated shortest-path queries
(Procedure 1 computes a metric closure over the VM set; the baselines attach
chains and destinations via shortest paths).  :class:`DistanceOracle` caches
single-source Dijkstra runs so sweeps over many candidate last-VMs reuse
work.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph

Node = Hashable
INF = float("inf")


def dijkstra(
    graph: Graph,
    source: Node,
    targets: Optional[Iterable[Node]] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Single-source Dijkstra.

    Args:
        graph: the graph to search.
        source: start node.
        targets: optional set of nodes; the search stops early once all of
            them are settled.

    Returns:
        ``(dist, parent)`` where ``dist[v]`` is the shortest-path cost from
        ``source`` to ``v`` and ``parent`` maps each reached node (except the
        source) to its predecessor on a shortest path.
    """
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    pending = set(targets) if targets is not None else None
    if pending is not None:
        pending.discard(source)

    dist: Dict[Node, float] = {source: 0.0}
    parent: Dict[Node, Node] = {}
    settled = set()
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1  # tie-breaker so heterogeneous node ids never get compared
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if pending is not None:
            pending.discard(node)
            if not pending:
                break
        for neighbor, cost in graph.neighbor_items(node):
            nd = d + cost
            if nd < dist.get(neighbor, INF):
                dist[neighbor] = nd
                parent[neighbor] = node
                heapq.heappush(heap, (nd, counter, neighbor))
                counter += 1
    return dist, parent


def reconstruct_path(parent: Dict[Node, Node], source: Node, target: Node) -> List[Node]:
    """Rebuild the node sequence from a Dijkstra ``parent`` map."""
    if target == source:
        return [source]
    if target not in parent:
        raise ValueError(f"no path from {source!r} to {target!r}")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def shortest_path(graph: Graph, source: Node, target: Node) -> Tuple[List[Node], float]:
    """Return ``(path, cost)`` of a shortest path between two nodes."""
    dist, parent = dijkstra(graph, source, targets={target})
    if target not in dist:
        raise ValueError(f"no path from {source!r} to {target!r}")
    return reconstruct_path(parent, source, target), dist[target]


def walk_cost(graph: Graph, walk: Sequence[Node]) -> float:
    """Total edge cost of a walk, paying every traversal (clone semantics).

    This matches the paper's accounting: "the cost of a link in G is counted
    twice if the link is duplicated because its terminal nodes are cloned".
    """
    total = 0.0
    for u, v in zip(walk, walk[1:]):
        total += graph.cost(u, v)
    return total


class DistanceOracle:
    """Caching all-pairs shortest-path oracle over a fixed graph.

    Single-source Dijkstra results are computed lazily and memoised, so a
    sweep that queries distances from the same source to many targets costs
    one Dijkstra run.  Paths are reconstructed from the cached parent maps.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._dist: Dict[Node, Dict[Node, float]] = {}
        self._parent: Dict[Node, Dict[Node, Node]] = {}

    @property
    def graph(self) -> Graph:
        """The underlying graph (must not be mutated while cached)."""
        return self._graph

    def _ensure(self, source: Node) -> None:
        if source not in self._dist:
            dist, parent = dijkstra(self._graph, source)
            self._dist[source] = dist
            self._parent[source] = parent

    def distance(self, source: Node, target: Node) -> float:
        """Shortest-path cost; ``inf`` if unreachable.

        Undirected symmetry contract: ``distance(u, v) == distance(v, u)``,
        so the oracle may answer from a row rooted at either endpoint: the
        source's cached row, else the target's, else a newly computed row
        of the source -- the rule of
        :meth:`~repro.graph.indexed.FrozenOracle.distance`.
        """
        if source not in self._dist and target in self._dist:
            return self._dist[target].get(source, INF)
        self._ensure(source)
        return self._dist[source].get(target, INF)

    def path(self, source: Node, target: Node) -> List[Node]:
        """A shortest path as a node list; raises if unreachable."""
        self._ensure(source)
        if target not in self._dist[source]:
            raise ValueError(f"no path from {source!r} to {target!r}")
        return reconstruct_path(self._parent[source], source, target)

    def distances_from(self, source: Node) -> Dict[Node, float]:
        """All shortest-path costs from ``source`` (cached)."""
        self._ensure(source)
        return self._dist[source]

    def invalidate(self) -> None:
        """Drop all cached results (call after mutating the graph)."""
        self._dist.clear()
        self._parent.clear()
