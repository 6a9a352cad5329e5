"""Steiner-tree solvers.

The paper invokes "the ρST-approximation algorithm for the Steiner Tree
problem [20]" as a black box (Byrka et al.'s LP-based 1.39-approximation).
That algorithm is far outside the scope of a practical reproduction, so we
provide the standard substitutes documented in DESIGN.md:

- :func:`kmb_steiner_tree` -- the Kou--Markowsky--Berman 2-approximation
  (MST of the metric closure over terminals, expanded and pruned).
- :func:`mehlhorn_steiner_tree` -- Mehlhorn's faster variant using Voronoi
  regions (same 2-approximation guarantee, one Dijkstra overall).
- :func:`dreyfus_wagner_steiner_tree` -- the exact dynamic program, usable
  for small terminal sets (|terminals| <= ~10) and used by the test suite to
  verify the approximations empirically.

ρST enters the paper's bounds only as a multiplicative constant, so the
substitution preserves every structural claim.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph, canonical_edge
from repro.graph.indexed import FrozenOracle
from repro.graph.mst import kruskal_mst
from repro.graph.shortest_paths import DistanceOracle

Node = Hashable
INF = float("inf")


@dataclass
class SteinerResult:
    """A Steiner tree: its edges (as a :class:`Graph`) and total cost."""

    tree: Graph
    cost: float
    terminals: FrozenSet[Node] = field(default_factory=frozenset)


def metric_closure(
    graph: Graph,
    nodes: Sequence[Node],
    oracle: Optional[DistanceOracle] = None,
) -> Graph:
    """Complete graph over ``nodes`` with shortest-path distances as costs.

    Distances come from ``oracle``, or, when none is given, from a fresh
    :class:`FrozenOracle` over ``graph`` that is hot at ``nodes``, so
    contraction keeps them; it serves each pair from the row of the
    pair's earlier node in ``nodes``, built on first use.  SOFDA's
    KMB step never lets that default intern its auxiliary graph ``Ĝ``:
    it passes an oracle whose core is the instance oracle's, extended by
    ``Ĝ``'s virtual part (:meth:`FrozenOracle.extended`).
    """
    oracle = oracle or FrozenOracle(graph, hot=nodes)
    closure = Graph()
    node_list = list(nodes)
    for node in node_list:
        closure.add_node(node)
    for i, u in enumerate(node_list):
        for v in node_list[i + 1:]:
            d = oracle.distance(u, v)
            if d < INF:
                closure.add_edge(u, v, d)
    return closure


def _prune_nonterminal_leaves(tree: Graph, terminals: Iterable[Node]) -> None:
    """Iteratively remove degree-1 nodes that are not terminals (in place)."""
    terminal_set = set(terminals)
    changed = True
    while changed:
        changed = False
        for node in list(tree.nodes()):
            if node not in terminal_set and tree.degree(node) <= 1:
                tree.remove_node(node)
                changed = True


def kmb_steiner_tree(
    graph: Graph,
    terminals: Sequence[Node],
    oracle: Optional[DistanceOracle] = None,
) -> SteinerResult:
    """Kou--Markowsky--Berman 2-approximation.

    1. Build the metric closure over the terminals.
    2. Take its MST.
    3. Expand each closure edge to the underlying shortest path.
    4. Take the MST of the expansion and prune non-terminal leaves.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        return SteinerResult(Graph(), 0.0, frozenset())
    if len(terminal_list) == 1:
        tree = Graph()
        tree.add_node(terminal_list[0])
        return SteinerResult(tree, 0.0, frozenset(terminal_list))
    oracle = oracle or FrozenOracle(graph, hot=terminal_list)
    closure = metric_closure(graph, terminal_list, oracle)
    if not closure.is_connected():
        raise ValueError("terminals are not mutually reachable")
    closure_mst = kruskal_mst(closure)

    expanded = Graph()
    for u, v, _ in closure_mst.edges():
        path = oracle.path(u, v)
        for a, b in zip(path, path[1:]):
            expanded.add_edge(a, b, graph.cost(a, b))
    tree = kruskal_mst(expanded)
    _prune_nonterminal_leaves(tree, terminal_list)
    return SteinerResult(tree, tree.total_edge_cost(), frozenset(terminal_list))


def mehlhorn_steiner_tree(
    graph: Graph,
    terminals: Sequence[Node],
    oracle: Optional[DistanceOracle] = None,
) -> SteinerResult:
    """Mehlhorn's 2-approximation via Voronoi regions.

    A single multi-source Dijkstra partitions the graph into Voronoi regions
    around terminals; a reduced inter-terminal graph is built from boundary
    edges; its MST is expanded back and pruned.  Asymptotically faster than
    KMB and typically a slightly different (sometimes better) tree.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        return SteinerResult(Graph(), 0.0, frozenset())
    if len(terminal_list) == 1:
        tree = Graph()
        tree.add_node(terminal_list[0])
        return SteinerResult(tree, 0.0, frozenset(terminal_list))
    for t in terminal_list:
        if t not in graph:
            raise KeyError(f"terminal {t!r} not in graph")

    # Multi-source Dijkstra: dist to nearest terminal, owning terminal, parent.
    dist: Dict[Node, float] = {}
    owner: Dict[Node, Node] = {}
    parent: Dict[Node, Node] = {}
    heap: List[Tuple[float, int, Node, Node]] = []
    counter = 0
    for t in terminal_list:
        dist[t] = 0.0
        owner[t] = t
        heapq.heappush(heap, (0.0, counter, t, t))
        counter += 1
    settled = set()
    while heap:
        d, _, node, own = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        owner[node] = own
        for neighbor, cost in graph.neighbor_items(node):
            nd = d + cost
            if nd < dist.get(neighbor, INF):
                dist[neighbor] = nd
                parent[neighbor] = node
                heapq.heappush(heap, (nd, counter, neighbor, own))
                counter += 1

    # Reduced graph over terminals: for each edge crossing two regions, the
    # candidate connection cost is d(t1,u) + c(u,v) + d(v,t2).
    reduced = Graph()
    best_bridge: Dict[Tuple[Node, Node], Tuple[Node, Node]] = {}
    for t in terminal_list:
        reduced.add_node(t)
    for u, v, cost in graph.edges():
        if u not in owner or v not in owner:
            continue
        tu, tv = owner[u], owner[v]
        if tu == tv:
            continue
        weight = dist[u] + cost + dist[v]
        key = canonical_edge(tu, tv)
        if not reduced.has_edge(*key) or weight < reduced.cost(*key):
            reduced.add_edge(tu, tv, weight)
            best_bridge[key] = (u, v)
    if not reduced.is_connected():
        raise ValueError("terminals are not mutually reachable")
    reduced_mst = kruskal_mst(reduced)

    def walk_to_owner(node: Node) -> List[Node]:
        """Path from a node to its Voronoi-owning terminal."""
        path = [node]
        while path[-1] != owner[node]:
            path.append(parent[path[-1]])
        return path

    expanded = Graph()
    for t in terminal_list:
        expanded.add_node(t)
    for a, b, _ in reduced_mst.edges():
        u, v = best_bridge[canonical_edge(a, b)]
        chain = list(reversed(walk_to_owner(u))) + walk_to_owner(v)
        for x, y in zip(chain, chain[1:]):
            expanded.add_edge(x, y, graph.cost(x, y))
    tree = kruskal_mst(expanded)
    _prune_nonterminal_leaves(tree, terminal_list)
    return SteinerResult(tree, tree.total_edge_cost(), frozenset(terminal_list))


def dreyfus_wagner_steiner_tree(
    graph: Graph,
    terminals: Sequence[Node],
    oracle: Optional[DistanceOracle] = None,
) -> SteinerResult:
    """Exact Steiner tree via the Dreyfus--Wagner dynamic program.

    Runs in ``O(3^k n + 2^k n^2)``-ish time for ``k`` terminals, so it is
    only practical for small ``k``.  Used by tests and the CPLEX-substitute
    cross-checks.
    """
    terminal_list = list(dict.fromkeys(terminals))
    k = len(terminal_list)
    if k == 0:
        return SteinerResult(Graph(), 0.0, frozenset())
    if k == 1:
        tree = Graph()
        tree.add_node(terminal_list[0])
        return SteinerResult(tree, 0.0, frozenset(terminal_list))
    if k > 14:
        raise ValueError(f"Dreyfus-Wagner is impractical for {k} terminals")
    # The DP probes all node pairs: one full row per node serves them.
    oracle = oracle or FrozenOracle(graph)
    nodes = list(graph.nodes())
    node_index = {n: i for i, n in enumerate(nodes)}
    dist = [[oracle.distance(u, v) for v in nodes] for u in nodes]

    base = terminal_list[:-1]
    root = terminal_list[-1]
    full_mask = (1 << len(base)) - 1

    # dp[mask][v] = min cost of a tree spanning {base[i]: i in mask} U {v}.
    dp: List[List[float]] = [[INF] * len(nodes) for _ in range(full_mask + 1)]
    choice: Dict[Tuple[int, int], Tuple[str, object]] = {}
    for i, t in enumerate(base):
        ti = node_index[t]
        for vi in range(len(nodes)):
            dp[1 << i][vi] = dist[ti][vi]

    for mask in range(1, full_mask + 1):
        if mask & (mask - 1) == 0:
            continue
        # Merge two subtrees at v.
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # each unordered split once
                for vi in range(len(nodes)):
                    cost = dp[sub][vi] + dp[other][vi]
                    if cost < dp[mask][vi]:
                        dp[mask][vi] = cost
                        choice[(mask, vi)] = ("merge", (sub, other))
            sub = (sub - 1) & mask
        # Relax: connect v to the best u via a shortest path.
        order = sorted(range(len(nodes)), key=lambda vi: dp[mask][vi])
        for ui in order:
            if dp[mask][ui] == INF:
                break
            for vi in range(len(nodes)):
                cost = dp[mask][ui] + dist[ui][vi]
                if cost < dp[mask][vi]:
                    dp[mask][vi] = cost
                    choice[(mask, vi)] = ("extend", ui)

    root_i = node_index[root]
    tree = Graph()
    for t in terminal_list:
        tree.add_node(t)

    def build(mask: int, vi: int) -> None:
        """Reconstruct the DP solution's tree edges recursively."""
        if mask & (mask - 1) == 0:
            i = mask.bit_length() - 1
            path = oracle.path(base[i], nodes[vi])
            for a, b in zip(path, path[1:]):
                tree.add_edge(a, b, graph.cost(a, b))
            return
        kind, data = choice[(mask, vi)]
        if kind == "merge":
            sub, other = data  # type: ignore[misc]
            build(sub, vi)
            build(other, vi)
        else:
            ui = data  # type: ignore[assignment]
            path = oracle.path(nodes[ui], nodes[vi])
            for a, b in zip(path, path[1:]):
                tree.add_edge(a, b, graph.cost(a, b))
            build(mask, ui)

    if dp[full_mask][root_i] == INF:
        raise ValueError("terminals are not mutually reachable")
    build(full_mask, root_i)
    pruned = kruskal_mst(tree)
    _prune_nonterminal_leaves(pruned, terminal_list)
    return SteinerResult(pruned, pruned.total_edge_cost(), frozenset(terminal_list))


_METHODS = {
    "kmb": kmb_steiner_tree,
    "mehlhorn": mehlhorn_steiner_tree,
    "exact": dreyfus_wagner_steiner_tree,
}

#: ``auto`` uses the exact DP below these limits, KMB above.
AUTO_EXACT_MAX_TERMINALS = 6
AUTO_EXACT_MAX_NODES = 60


def resolve_steiner_method(
    graph: Graph, terminals: Sequence[Node], method: str
) -> str:
    """Resolve ``auto`` to a concrete solver name (shared dispatch rule).

    Callers that pre-select per-solver resources (e.g. SOFDA's assembled
    auxiliary-graph oracle, which it hands only to KMB) use this so their
    choice can never drift from :func:`steiner_tree`'s dispatch.
    """
    if method != "auto":
        return method
    if (
        len(set(terminals)) <= AUTO_EXACT_MAX_TERMINALS
        and len(graph) <= AUTO_EXACT_MAX_NODES
    ):
        return "exact"
    return "kmb"


def steiner_tree(
    graph: Graph,
    terminals: Sequence[Node],
    method: str = "kmb",
    oracle: Optional[DistanceOracle] = None,
) -> SteinerResult:
    """Dispatch to a Steiner-tree solver by name.

    Methods: ``kmb``, ``mehlhorn``, ``exact`` (Dreyfus--Wagner), or
    ``auto`` -- exact when the instance is small enough
    (<= :data:`AUTO_EXACT_MAX_TERMINALS` distinct terminals on a graph with
    <= :data:`AUTO_EXACT_MAX_NODES` nodes), KMB otherwise.
    """
    method = resolve_steiner_method(graph, terminals, method)
    try:
        solver = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown Steiner method {method!r}; choose from {sorted(_METHODS)}")
    return solver(graph, terminals, oracle=oracle)
