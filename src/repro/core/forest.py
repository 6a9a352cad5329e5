"""Service overlay forest representation and clone-aware cost accounting.

A solution is a set of *deployed chains* plus a set of *distribution-tree*
edges:

- A :class:`DeployedChain` is a walk in ``G`` from a source to the chain's
  last VM, together with the walk positions where the VNFs ``f1..f|C|`` run.
  Walks may revisit nodes (the paper's clones).  When a chain has been
  *attached* to another chain during VNF conflict resolution (Procedure
  4), its leading edges are physically the other chain's edges.
  ``paid_from_edge`` records where the attached chain's own edges start;
  it is informational (printed by :meth:`ServiceOverlayForest.describe`,
  range-checked by ``check_forest``) and the objective never reads it:
  the borrowed prefix carries the same stages as the chain it was
  borrowed from, so the stage rule of
  :meth:`ServiceOverlayForest.paid_edges` already leaves it unpaid.
- The forest's ``tree_edges`` are the multicast distribution part (the
  Steiner tree(s) connecting last VMs to destinations); each is paid once.

Total cost = VM setup of enabled VMs (once each) + the connection cost of
:meth:`ServiceOverlayForest.paid_edges`, each ``(stage, arc)`` once,
exactly matching Section III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.graph.graph import Graph, canonical_edge
from repro.core.problem import SOFInstance

Node = Hashable
Edge = Tuple[Node, Node]


@dataclass
class DeployedChain:
    """A deployed service chain: a walk plus VNF placements along it.

    Attributes:
        walk: node sequence in ``G``; consecutive nodes must be adjacent.
        placements: mapping from walk position to VNF index (0-based).
            Positions are strictly increasing with the VNF index and cover
            ``0..|C|-1`` exactly once for a complete chain.
        paid_from_edge: index of the first walk edge that is this chain's
            own: 0 for a standalone chain; >0 when the prefix is borrowed
            from another chain after conflict resolution.  Informational:
            the objective pays by stage (:meth:`ServiceOverlayForest
            .paid_edges`), not from this index.
        attached_to: index of the parent chain in the forest when the prefix
            is borrowed (informational; used by validation and pruning).
    """

    walk: List[Node]
    placements: Dict[int, int]
    paid_from_edge: int = 0
    attached_to: Optional[int] = None

    @property
    def source(self) -> Node:
        """The walk's origin."""
        return self.walk[0]

    @property
    def last_vm(self) -> Node:
        """The node running the final VNF (the chain's hand-off point)."""
        if not self.placements:
            raise ValueError("chain has no placements")
        last_pos = max(self.placements)
        return self.walk[last_pos]

    def vnf_positions(self) -> List[Tuple[int, int]]:
        """Placements as ``(position, vnf_index)`` sorted by position."""
        return sorted(self.placements.items())

    def vm_of_vnf(self, vnf_index: int) -> Node:
        """The node running VNF ``vnf_index``; raises if not placed."""
        for pos, idx in self.placements.items():
            if idx == vnf_index:
                return self.walk[pos]
        raise KeyError(f"VNF {vnf_index} is not placed on this chain")

    def stages(self) -> List[int]:
        """The processing stage at every walk position.

        Entry ``i`` is the number of VNFs applied at or before position
        ``i`` (placing ``f_{k+1}`` there sets it to ``k + 1``), so walk
        edge ``i`` carries stage-``stages()[i]`` content.
        """
        stages: List[int] = []
        stage = 0
        for i in range(len(self.walk)):
            if i in self.placements:
                stage = self.placements[i] + 1
            stages.append(stage)
        return stages

    def all_edges(self) -> Iterable[Tuple[Node, Node]]:
        """All walk edges (including any borrowed prefix)."""
        for i in range(len(self.walk) - 1):
            yield self.walk[i], self.walk[i + 1]

    def copy(self) -> "DeployedChain":
        """Deep copy."""
        return DeployedChain(
            walk=list(self.walk),
            placements=dict(self.placements),
            paid_from_edge=self.paid_from_edge,
            attached_to=self.attached_to,
        )


@dataclass
class ServiceOverlayForest:
    """A candidate SOF solution over a given instance."""

    instance: SOFInstance
    chains: List[DeployedChain] = field(default_factory=list)
    tree_edges: Set[Edge] = field(default_factory=set)
    enabled: Dict[Node, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_chain(self, chain: DeployedChain) -> int:
        """Append a deployed chain, registering its VNF enablings.

        Raises ``ValueError`` on a VNF conflict (a placement on a VM already
        enabled with a different VNF) -- conflict *resolution* happens in
        :mod:`repro.core.conflict` before chains are added.
        """
        for pos, vnf in chain.placements.items():
            node = chain.walk[pos]
            current = self.enabled.get(node)
            if current is not None and current != vnf:
                raise ValueError(
                    f"VNF conflict at {node!r}: enabled f{current + 1}, "
                    f"requested f{vnf + 1}"
                )
        for pos, vnf in chain.placements.items():
            self.enabled[chain.walk[pos]] = vnf
        self.chains.append(chain)
        return len(self.chains) - 1

    def add_tree(self, tree: Graph) -> None:
        """Merge a distribution tree's edges into the forest (paid once)."""
        for u, v, _ in tree.edges():
            self.tree_edges.add(canonical_edge(u, v))

    def add_tree_edge(self, u: Node, v: Node) -> None:
        """Add one distribution edge."""
        self.tree_edges.add(canonical_edge(u, v))

    # ------------------------------------------------------------------
    # cost accounting (Section III objective)
    # ------------------------------------------------------------------
    def setup_cost(self) -> float:
        """Total setup cost of enabled VMs plus any source setup costs."""
        cost = sum(self.instance.setup_cost(node) for node in self.enabled)
        # Sorted so the float accumulation order (hence the last-ulp
        # rounding) does not follow the set's hash-salted iteration.
        cost += sum(
            self.instance.source_setup_cost(s)
            for s in sorted(self.used_sources(), key=repr)
        )
        return cost

    def paid_edges(self) -> List[Tuple[int, Node, Node]]:
        """The ``(stage, u, v)`` arcs the objective pays, in payment order.

        All destinations request the *same* demand, so the content carried
        over an edge is fully determined by the processing stage: how many
        of ``f1..f|C|`` have been applied so far.  The paper's IP therefore
        pays each ``(stage f, arc)`` once (variable ``τ_{f,u,v}``), and a
        clone pass of the same physical edge at a *different* stage pays
        again (Fig. 1(b)).  Every walk-edge traversal is keyed by its stage
        (:meth:`DeployedChain.stages`) and listed at its first traversal,
        chain by chain in walk order; distribution-tree edges follow in
        repr order, carrying final-stage content, each skipped when a
        final-stage walk traversal crossed it in either direction.  The
        connection cost and the online simulator's bandwidth charges
        both read this list.
        """
        num_functions = len(self.instance.chain)
        paid: Set[Tuple[int, Node, Node]] = set()
        arcs: List[Tuple[int, Node, Node]] = []
        for chain in self.chains:
            walk = chain.walk
            for i, stage in enumerate(chain.stages()[:-1]):
                key = (stage, walk[i], walk[i + 1])
                if key not in paid:
                    paid.add(key)
                    arcs.append(key)
        # Sorted so the float accumulation order (hence the last-ulp
        # rounding) does not follow the set's hash-salted iteration.
        for u, v in sorted(self.tree_edges, key=repr):
            if (num_functions, u, v) in paid or (num_functions, v, u) in paid:
                continue
            paid.add((num_functions, u, v))
            arcs.append((num_functions, u, v))
        return arcs

    def connection_cost(self) -> float:
        """Stage-keyed connection cost: :meth:`paid_edges` folded left."""
        graph = self.instance.graph
        cost = 0.0
        for _, u, v in self.paid_edges():
            cost += graph.cost(u, v)
        return cost

    def total_cost(self) -> float:
        """The SOF objective: setup cost + connection cost."""
        return self.setup_cost() + self.connection_cost()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def used_sources(self) -> Set[Node]:
        """Sources actually rooting a chain (after attachments)."""
        return {chain.walk[0] for chain in self.chains}

    def used_vms(self) -> Set[Node]:
        """VMs enabled with some VNF."""
        return set(self.enabled)

    def num_trees(self) -> int:
        """Number of distinct used sources (= service trees in the forest)."""
        return len(self.used_sources())

    def delivery_points(self) -> Dict[Node, int]:
        """Nodes holding fully processed content, each with its first chain.

        A chain with placements delivers at its last VM and at every walk
        node after it (its delivery tail); the value is the index of the
        first chain that delivers at the node.
        """
        points: Dict[Node, int] = {}
        for index, chain in enumerate(self.chains):
            if chain.placements:
                for node in chain.walk[max(chain.placements):]:
                    points.setdefault(node, index)
        return points

    def distribution_graph(self) -> Graph:
        """The tree-edge part as a :class:`Graph` (costs from the instance)."""
        graph = Graph()
        for u, v in self.tree_edges:
            graph.add_edge(u, v, self.instance.graph.cost(u, v))
        return graph

    def copy(self) -> "ServiceOverlayForest":
        """Deep copy (shares the instance)."""
        return ServiceOverlayForest(
            instance=self.instance,
            chains=[c.copy() for c in self.chains],
            tree_edges=set(self.tree_edges),
            enabled=dict(self.enabled),
        )

    # ------------------------------------------------------------------
    def prune_tree_edges(self) -> None:
        """Remove distribution edges not needed to reach any destination.

        Keeps, for every destination, the edges on its path to the closest
        complete-chain hand-off point inside the tree-edge subgraph.  A pure
        cost improvement; never changes feasibility.
        """
        if not self.tree_edges:
            return
        graph = self.distribution_graph()
        anchors = self.delivery_points()
        needed: Set[Edge] = set()
        import heapq

        for dest in self.instance.destinations:
            if dest in anchors:
                continue
            if dest not in graph:
                continue
            # Dijkstra from dest until an anchor is reached.
            dist = {dest: 0.0}
            parent: Dict[Node, Node] = {}
            heap: List[Tuple[float, int, Node]] = [(0.0, 0, dest)]
            counter = 1
            found = None
            settled = set()
            while heap:
                d, _, node = heapq.heappop(heap)
                if node in settled:
                    continue
                settled.add(node)
                if node in anchors:
                    found = node
                    break
                for neighbor, cost in graph.neighbor_items(node):
                    nd = d + cost
                    if nd < dist.get(neighbor, float("inf")):
                        dist[neighbor] = nd
                        parent[neighbor] = node
                        heapq.heappush(heap, (nd, counter, neighbor))
                        counter += 1
            if found is None:
                # Destination not served through tree edges (may sit on a
                # walk); keep everything touching it untouched.
                continue
            node = found
            while node != dest:
                prev = parent[node]
                needed.add(canonical_edge(node, prev))
                node = prev
        self.tree_edges = needed

    def describe(self) -> str:
        """Human-readable multi-line summary of the forest."""
        lines = [
            f"ServiceOverlayForest: {len(self.chains)} chain(s), "
            f"{len(self.tree_edges)} tree edge(s), "
            f"cost={self.total_cost():.3f} "
            f"(setup={self.setup_cost():.3f}, "
            f"connection={self.connection_cost():.3f})"
        ]
        for i, chain in enumerate(self.chains):
            placement_str = ", ".join(
                f"f{vnf + 1}@{chain.walk[pos]!r}" for pos, vnf in chain.vnf_positions()
            )
            lines.append(
                f"  chain {i}: source={chain.source!r} walk={chain.walk} "
                f"[{placement_str}] paid_from_edge={chain.paid_from_edge}"
            )
        if self.tree_edges:
            lines.append(f"  tree edges: {sorted(map(str, self.tree_edges))}")
        return "\n".join(lines)
