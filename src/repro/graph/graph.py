"""A minimal, explicit undirected weighted graph.

The SOF algorithms need only a handful of graph operations (neighbor
iteration, edge-cost lookup, node/edge enumeration, subgraphs), so the type
is deliberately small and dependency-free.  ``networkx`` is used in the test
suite as an independent cross-check, never in the library itself.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Tuple

Node = Hashable
Edge = Tuple[Node, Node]
INF = float("inf")


def cost_error(kind: str, cost: float, where: str) -> ValueError:
    """The one error for a cost that is not finite and non-negative.

    Edge, setup and source costs are all checked with the chained
    comparison ``0.0 <= cost < INF``, which is False for negatives,
    ``inf`` and NaN alike; this builds the message of a failed check.
    ``kind`` names the cost (``edge``, ``setup``, ``source``) and
    ``where`` the edge or node carrying it.
    """
    return ValueError(
        f"{kind} cost must be finite and non-negative, got {cost!r} "
        f"for {where}"
    )


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical (sorted) representation of an undirected edge.

    Node identifiers in one graph are expected to be mutually orderable
    (ints, strings or tuples of those).  Mixed types fall back to ordering
    on ``repr`` which is stable within a run.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


def node_sort_key(node: Node) -> Tuple:
    """Canonical sort key for nodes of arbitrary, possibly mixed types.

    Orders by type group first, then natively within numbers (ints and
    floats share one numeric group) and strings (recursively for
    tuples), falling back to ``repr`` for anything else.  Unlike sorting
    on raw ``repr``, numeric nodes keep numeric order (``repr`` puts 10
    before 9) and the order cannot shift with quoting or bracket
    characters when node types are mixed.
    """
    if isinstance(node, tuple):
        return ("tuple", tuple(node_sort_key(item) for item in node))
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return ("number", node)
    if isinstance(node, str):
        return ("str", node)
    return (type(node).__name__, repr(node))


def edge_sort_key(edge: Edge) -> Tuple:
    """Canonical sort key for (already canonical) undirected edges."""
    return (node_sort_key(edge[0]), node_sort_key(edge[1]))


class Graph:
    """Undirected graph with finite, nonnegative edge costs.

    Parallel edges are not supported: adding an existing edge overwrites its
    cost.  Self-loops are rejected because they never help a minimum-cost
    walk or tree.
    """

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[Node, Node, float]]) -> "Graph":
        """Build a graph from an iterable of ``(u, v, cost)`` triples."""
        graph = cls()
        for u, v, cost in edges:
            graph.add_edge(u, v, cost)
        return graph

    def add_node(self, node: Node) -> None:
        """Add an isolated node (no-op if it already exists)."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, cost: float) -> None:
        """Add the undirected edge ``{u, v}`` with a finite, nonnegative cost."""
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        if not 0.0 <= cost < INF:
            raise cost_error("edge", cost, f"edge ({u!r}, {v!r})")
        self._adj.setdefault(u, {})[v] = float(cost)
        self._adj.setdefault(v, {})[u] = float(cost)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        for neighbor in list(self._adj[node]):
            del self._adj[neighbor][node]
        del self._adj[node]

    def copy(self) -> "Graph":
        """Return a deep copy (nodes, edges and costs)."""
        clone = Graph()
        for node, neighbors in self._adj.items():
            clone._adj[node] = dict(neighbors)
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate over all undirected edges once as ``(u, v, cost)``.

        Each edge is yielded exactly once, from its lower-id endpoint --
        where a node's id is its insertion index, so every node is
        orderable regardless of type and no per-edge ``canonical_edge``
        tuple or seen-set entry is ever allocated.  The enumeration order
        (first encounter in adjacency order) is part of the contract:
        seeded cost assignment iterates edges in this order.
        """
        pos = {node: i for i, node in enumerate(self._adj)}
        for u, neighbors in self._adj.items():
            pu = pos[u]
            for v, cost in neighbors.items():
                if pu < pos[v]:
                    yield u, v, cost

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return v in self._adj.get(u, {})

    def cost(self, u: Node, v: Node) -> float:
        """Cost of edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._adj[u][v]

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``."""
        return iter(self._adj[node])

    def neighbor_items(self, node: Node) -> Iterator[Tuple[Node, float]]:
        """Iterate over ``(neighbor, edge_cost)`` pairs of ``node``."""
        return iter(self._adj[node].items())

    def degree(self, node: Node) -> int:
        """Number of incident edges of ``node``."""
        return len(self._adj[node])

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes``."""
        keep = set(nodes)
        missing = keep.difference(self._adj)
        if missing:
            node = min(missing, key=repr)
            raise KeyError(f"node {node!r} not in graph")
        sub = Graph()
        # Enumerate in the parent graph's (deterministic) insertion order,
        # not set order: the subgraph's node order seeds downstream index
        # interning and must not vary with PYTHONHASHSEED.
        for node in self._adj:
            if node in keep:
                sub.add_node(node)
        for u, v, cost in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, cost)
        return sub

    def connected_components(self) -> list:
        """Return connected components as a list of node sets."""
        remaining = set(self._adj)
        components = []
        while remaining:
            start = next(iter(remaining))
            stack = [start]
            component = {start}
            while stack:
                node = stack.pop()
                for neighbor in self._adj[node]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            components.append(component)
            remaining -= component
        return components

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected)."""
        return len(self) == 0 or len(self.connected_components()) == 1

    def total_edge_cost(self) -> float:
        """Sum of all edge costs."""
        return sum(cost for _, _, cost in self.edges())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={len(self)}, |E|={self.num_edges()})"
