"""Load bookkeeping and load-to-cost conversion.

Two uses, matching Section VIII-A's two scenarios:

- **One-time deployment**: link usages are drawn uniformly in ``(0, 1)``
  and converted to edge costs once (:func:`assign_static_costs`).
- **Online deployment**: usages start at zero and each embedded request
  adds its demand to every link/VM it uses; costs are re-derived from the
  updated loads (:class:`LoadTracker`).

Tenant departures run the online bookkeeping in reverse:
:meth:`LoadTracker.release_link_load` / :meth:`LoadTracker.release_node_load`
subtract exactly the demand a departing forest's lease recorded, clamp
floating-point residue at zero, and mark released links dirty so the next
cost sync re-prices them *downward* -- the decrease-carrying edge-cost
patches of the churn workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Tuple

from repro.costmodel.fortz_thorup import fortz_thorup_cost
from repro.graph.graph import Graph, canonical_edge

Node = Hashable
Edge = Tuple[Node, Node]


def assign_static_costs(
    graph: Graph,
    rng: random.Random,
    capacity: float = 100.0,
    cost_scale: float = 1.0,
) -> None:
    """Draw a usage in ``(0, 1)`` per link and set its Fortz--Thorup cost.

    Mutates ``graph`` in place.  ``capacity`` is the paper's 100 Mbps link
    bandwidth; ``cost_scale`` rescales the resulting costs (shape-neutral).
    """
    for u, v, _ in list(graph.edges()):
        usage = rng.random()
        cost = fortz_thorup_cost(usage * capacity, capacity) * cost_scale
        graph.add_edge(u, v, cost)


@dataclass
class LoadTracker:
    """Per-link and per-node load state for the online scenario.

    Attributes:
        link_capacity: capacity of every link (100 Mbps in the paper).
        node_capacity: capacity of every VM host (request slots).
        cost_scale: scale factor applied to derived costs.
    """

    link_capacity: float = 100.0
    node_capacity: float = 5.0
    cost_scale: float = 1.0
    link_load: Dict[Edge, float] = field(default_factory=dict)
    node_load: Dict[Node, float] = field(default_factory=dict)
    #: Links whose load changed since the last :meth:`drain_dirty_links`
    #: call -- lets graph/oracle maintenance stay incremental.
    dirty_links: set = field(default_factory=set)

    #: Releases within this much of the recorded load are treated as
    #: exact (floating-point residue from repeated add/release cycles);
    #: anything further above the recorded load is a caller bug.
    _RELEASE_TOLERANCE = 1e-9

    def add_link_load(self, u: Node, v: Node, demand: float) -> None:
        """Add ``demand`` to link ``{u, v}`` (finite and >= 0).

        A negative, NaN or infinite demand would silently corrupt
        utilisation and cost, so it raises ``ValueError`` before the
        tracker changes; use :meth:`release_link_load` to take load off
        a link.
        """
        # ``not (demand >= 0)`` catches NaN too: every comparison against
        # NaN is False, so a ``demand < 0`` guard would let it through.
        if not (demand >= 0) or math.isinf(demand):
            raise ValueError(
                f"link demand must be >= 0 and finite, got {demand!r} for "
                f"({u!r}, {v!r}); use release_link_load to remove load"
            )
        key = canonical_edge(u, v)
        self.link_load[key] = self.link_load.get(key, 0.0) + demand
        self.dirty_links.add(key)

    def release_link_load(self, u: Node, v: Node, demand: float) -> None:
        """Remove ``demand`` from link ``{u, v}`` (a tenant departing).

        Releasing more than the link currently carries raises -- a lease
        can only give back what :meth:`add_link_load` accounted -- and
        the remaining load is clamped at zero so floating-point residue
        from repeated arrive/depart cycles never leaves a phantom
        utilisation.  The link is marked dirty, so the next cost sync
        re-prices it downward (a decrease-carrying oracle patch).
        """
        if not (demand >= 0) or math.isinf(demand):
            raise ValueError(
                f"released demand must be >= 0 and finite, got {demand!r} "
                f"for ({u!r}, {v!r})"
            )
        key = canonical_edge(u, v)
        load = self.link_load.get(key, 0.0)
        if demand > load + self._RELEASE_TOLERANCE:
            raise ValueError(
                f"cannot release {demand!r} Mbps from link {key!r} "
                f"carrying only {load!r} Mbps"
            )
        remaining = load - demand
        self.link_load[key] = remaining if remaining > self._RELEASE_TOLERANCE else 0.0
        self.dirty_links.add(key)

    def drain_dirty_links(self) -> set:
        """Links loaded since the last drain (and reset the dirty set)."""
        dirty = self.dirty_links
        self.dirty_links = set()
        return dirty

    def add_node_load(self, node: Node, demand: float = 1.0) -> None:
        """Add ``demand`` to a VM host (finite and >= 0, as for links)."""
        if not (demand >= 0) or math.isinf(demand):
            raise ValueError(
                f"node demand must be >= 0 and finite, got {demand!r} for "
                f"{node!r}; use release_node_load to remove load"
            )
        self.node_load[node] = self.node_load.get(node, 0.0) + demand

    def release_node_load(self, node: Node, demand: float = 1.0) -> None:
        """Remove ``demand`` from a VM host (slots freed by a departure).

        Same contract as :meth:`release_link_load`: over-releasing
        raises, residue clamps to zero.  Node costs are derived fresh at
        each instance materialisation, so no dirty marking is needed.
        """
        if not (demand >= 0) or math.isinf(demand):
            raise ValueError(
                f"released demand must be >= 0 and finite, got {demand!r} "
                f"for {node!r}"
            )
        load = self.node_load.get(node, 0.0)
        if demand > load + self._RELEASE_TOLERANCE:
            raise ValueError(
                f"cannot release {demand!r} slots from host {node!r} "
                f"carrying only {load!r}"
            )
        remaining = load - demand
        self.node_load[node] = remaining if remaining > self._RELEASE_TOLERANCE else 0.0

    def link_utilisation(self, u: Node, v: Node) -> float:
        """Current load of link {u, v} over its capacity."""
        return self.link_load.get(canonical_edge(u, v), 0.0) / self.link_capacity

    def node_utilisation(self, node: Node) -> float:
        """Current load of a VM host over its capacity."""
        return self.node_load.get(node, 0.0) / self.node_capacity

    def link_cost(self, u: Node, v: Node) -> float:
        """Fortz--Thorup cost of the link at its current load."""
        load = self.link_load.get(canonical_edge(u, v), 0.0)
        return fortz_thorup_cost(load, self.link_capacity) * self.cost_scale

    def node_cost(self, node: Node) -> float:
        """Fortz--Thorup cost of the VM host at its current load."""
        load = self.node_load.get(node, 0.0)
        return fortz_thorup_cost(load, self.node_capacity) * self.cost_scale

    def congested_links(self, threshold: float = 0.9) -> Iterable[Edge]:
        """Links *strictly* above ``threshold`` utilisation (VII-C case 5).

        Boundary semantics: a link at exactly ``threshold`` utilisation is
        NOT congested (strict ``>``).  Callers that phrase the trigger as
        "exceeds the threshold" -- the rerouting layer in
        :mod:`repro.online.rerouting` -- share this exact comparison, so a
        link loaded to precisely 0.9 never flips between the two layers.
        """
        return [
            edge for edge, load in self.link_load.items()
            if load / self.link_capacity > threshold
        ]

    def overloaded_nodes(self, threshold: float = 0.9) -> Iterable[Node]:
        """Hosts *strictly* above ``threshold`` utilisation (VII-C case 6).

        Same strict-``>`` boundary as :meth:`congested_links`: a host at
        exactly ``threshold`` utilisation is not overloaded.
        """
        return [
            node for node, load in self.node_load.items()
            if load / self.node_capacity > threshold
        ]

    def apply_to_graph(self, graph: Graph, floor: float = 0.01) -> None:
        """Write current link costs into ``graph`` (in place).

        ``floor`` keeps zero-load edges from being entirely free, so the
        embedder still prefers short routes among uncongested links.
        """
        for u, v, _ in list(graph.edges()):
            graph.add_edge(u, v, max(self.link_cost(u, v), floor))
