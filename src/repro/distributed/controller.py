"""Per-domain SDN controller state.

Each controller sees only its own domain: the induced subgraph, the border
routers (nodes with an inter-domain link) and the local distance matrix
between border routers -- the abstraction the paper's Section VI has each
controller compute "over the Southbound interface within its domain" and
propagate east--west.

Intra-domain shortest paths are served by one per-domain
:class:`~repro.graph.FrozenOracle` (hot at the border routers, the nodes
every abstraction query touches) -- the domain-scoped analogue of the
single-oracle invariant the centralized pipeline follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graph import FrozenOracle, Graph

Node = Hashable
INF = float("inf")


@dataclass
class Controller:
    """One SDN controller and its domain-local knowledge."""

    controller_id: int
    domain: Set[Node]
    local_graph: Graph
    border_routers: List[Node] = field(default_factory=list)
    #: Per-domain row-cache residency budget in bytes (``None`` =
    #: unbounded); inherited from the instance oracle so a budgeted
    #: deployment bounds every controller's memory, not just the
    #: coordinator's.
    row_budget_bytes: Optional[int] = None
    #: Optional shared :class:`~repro.obs.recorder.Recorder`; ``None``
    #: (the default) keeps every query seam zero-overhead.
    metrics: Optional[object] = None
    #: Materialised oracle rows, keyed by source node.
    _local_dist: Dict[Node, Dict[Node, float]] = field(default_factory=dict, repr=False)
    _oracle: Optional[FrozenOracle] = field(default=None, repr=False)

    @classmethod
    def for_domain(
        cls, controller_id: int, domain: Set[Node], graph: Graph,
        row_budget_bytes: Optional[int] = None,
        metrics: Optional[object] = None,
    ) -> "Controller":
        """Build a controller from the global graph and its domain."""
        local = graph.subgraph(domain)
        borders = sorted(
            (
                n for n in domain
                if any(nb not in domain for nb in graph.neighbors(n))
            ),
            key=repr,
        )
        return cls(
            controller_id=controller_id,
            domain=set(domain),
            local_graph=local,
            border_routers=borders,
            row_budget_bytes=row_budget_bytes,
            metrics=metrics if metrics else None,
        )

    # ------------------------------------------------------------------
    def covers(self, node: Node) -> bool:
        """Whether this controller's domain contains ``node``."""
        return node in self.domain

    @property
    def oracle(self) -> FrozenOracle:
        """The per-domain distance oracle over the induced subgraph (lazy).

        One oracle serves every intra-domain query this controller answers
        (border matrices, node-to-border distances, verification samples);
        no component may build a second oracle over the same domain.
        """
        if self._oracle is None:
            self._oracle = FrozenOracle(
                self.local_graph, hot=self.border_routers,
                row_budget_bytes=self.row_budget_bytes,
                metrics=self.metrics,
            )
        return self._oracle

    def cache_snapshot(self) -> Dict[str, Optional[int]]:
        """The per-domain oracle's counters as a unified snapshot.

        Returns the unified snapshot shape documented in :mod:`repro.obs`
        with ``scope="controller"`` plus a ``domain`` key (this
        controller's id); a coordinator-level residency rebalancer reads
        these to apportion a global budget across domains.
        """
        snapshot = self.oracle.cache_snapshot(scope="controller")
        snapshot["domain"] = self.controller_id
        return snapshot

    def local_distances_from(self, node: Node) -> Dict[Node, float]:
        """Intra-domain shortest-path costs from ``node`` (an oracle row)."""
        if node not in self._local_dist:
            if self.metrics:
                self.metrics.inc(
                    "dist.query", domain=self.controller_id,
                    op="distances_from",
                )
            self._local_dist[node] = self.oracle.distances_from(node)
        return self._local_dist[node]

    def border_matrix(self) -> Dict[Tuple[Node, Node], float]:
        """The abstracted border-to-border distance matrix.

        This is the payload each controller propagates to its peers
        ("a matrix that consists of the lengths between every pair of
        border routers").
        """
        if self.metrics:
            self.metrics.inc(
                "dist.query", domain=self.controller_id, op="border_matrix"
            )
        matrix: Dict[Tuple[Node, Node], float] = {}
        for b1 in self.border_routers:
            dist = self.local_distances_from(b1)
            for b2 in self.border_routers:
                if b1 != b2:
                    matrix[(b1, b2)] = dist.get(b2, INF)
        return matrix

    def distance_to_borders(self, node: Node) -> Dict[Node, float]:
        """Intra-domain distances from a covered node to each border router."""
        if not self.covers(node):
            raise KeyError(f"{node!r} is outside domain {self.controller_id}")
        if self.metrics:
            self.metrics.inc(
                "dist.query", domain=self.controller_id,
                op="distance_to_borders",
            )
        dist = self.local_distances_from(node)
        return {b: dist.get(b, INF) for b in self.border_routers}

    def matrix_size(self) -> int:
        """Number of entries in the border matrix (message size)."""
        n = len(self.border_routers)
        return n * (n - 1)
