"""The Service Overlay Forest problem input (Section III of the paper).

An instance bundles the network ``G = {V = M ∪ U, E}``, the VM setup costs,
the source and destination sets and the demanded VNF chain
``C = (f1, ..., f|C|)``.  Switches carry cost 0; every VM may run at most
one VNF (the paper handles multi-VNF hosts by replicating the VM node,
see :meth:`SOFInstance.replicate_vms`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.graph import FrozenOracle, Graph
from repro.graph.graph import INF, cost_error

Node = Hashable


@dataclass(frozen=True)
class ServiceChain:
    """An ordered chain of VNF names, e.g. ``("transcoder", "watermarker")``.

    Functions are identified by *position*: the i-th entry is the paper's
    ``f_{i+1}``.  Names need not be unique -- a chain may legitimately
    demand the same function type twice -- so algorithms always reference
    functions by index.
    """

    functions: Tuple[str, ...]

    def __init__(self, functions: Iterable[str]) -> None:
        object.__setattr__(self, "functions", tuple(functions))
        if not self.functions:
            raise ValueError("a service chain must contain at least one VNF")

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, index: int) -> str:
        return self.functions[index]

    @classmethod
    def of_length(cls, length: int, prefix: str = "f") -> "ServiceChain":
        """Build a generic chain ``(f1, ..., f_length)``."""
        if length < 1:
            raise ValueError("chain length must be >= 1")
        return cls(f"{prefix}{i + 1}" for i in range(length))


@dataclass
class SOFInstance:
    """A complete SOF problem instance.

    Attributes:
        graph: the network ``G``; edge costs are the connection costs.
        vms: the VM node set ``M`` (must be a subset of the graph nodes).
        sources: candidate sources ``S``.
        destinations: destinations ``D``.
        chain: the demanded VNF chain ``C``.
        node_costs: setup cost of each VM; nodes absent from the mapping
            (switches, sources, destinations) cost 0.
        source_costs: optional per-source setup cost (Appendix D); the main
            body of the paper assumes these are 0.
    """

    graph: Graph
    vms: FrozenSet[Node]
    sources: FrozenSet[Node]
    destinations: FrozenSet[Node]
    chain: ServiceChain
    node_costs: Dict[Node, float] = field(default_factory=dict)
    source_costs: Dict[Node, float] = field(default_factory=dict)
    _oracle: Optional[FrozenOracle] = field(default=None, repr=False, compare=False)

    def __init__(
        self,
        graph: Graph,
        vms: Iterable[Node],
        sources: Iterable[Node],
        destinations: Iterable[Node],
        chain: ServiceChain,
        node_costs: Optional[Dict[Node, float]] = None,
        source_costs: Optional[Dict[Node, float]] = None,
    ) -> None:
        self.graph = graph
        self.vms = frozenset(vms)
        self.sources = frozenset(sources)
        self.destinations = frozenset(destinations)
        self.chain = chain
        self.node_costs = dict(node_costs or {})
        self.source_costs = dict(source_costs or {})
        self._oracle = None
        self._metric_block = None
        self._metric_rows = None
        self._source_vm_rows = {}
        self._procedure1_rows = {}
        self._sorted_vms = None
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness; raises ``ValueError`` on error."""
        for name, nodes in (("VM", self.vms), ("source", self.sources),
                            ("destination", self.destinations)):
            for node in nodes:
                if node not in self.graph:
                    raise ValueError(f"{name} node {node!r} is not in the graph")
        if not self.sources:
            raise ValueError("at least one source is required")
        if not self.destinations:
            raise ValueError("at least one destination is required")
        for kind, costs in (("setup", self.node_costs),
                            ("source", self.source_costs)):
            for node, cost in costs.items():
                if not 0.0 <= cost < INF:
                    raise cost_error(kind, cost, f"node {node!r}")
        if len(self.vms) < len(self.chain):
            raise ValueError(
                f"chain of length {len(self.chain)} cannot be embedded with "
                f"only {len(self.vms)} VMs (one VNF per VM)"
            )

    # ------------------------------------------------------------------
    @property
    def oracle(self) -> FrozenOracle:
        """Shared shortest-path oracle over the instance graph (lazy).

        One oracle serves the whole pipeline (Procedure 1 sweeps, conflict
        repairs, Steiner closures, baselines).  The hot set -- sources, VMs
        and destinations -- keeps every node the sweeps can query out of
        contraction and decides which endpoint's row a cold query builds.
        """
        if self._oracle is None:
            self._oracle = FrozenOracle(
                self.graph, hot=self.vms | self.sources | self.destinations
            )
        return self._oracle

    def invalidate_oracle(self) -> None:
        """Drop cached shortest paths (after graph/cost mutation)."""
        self._oracle = None
        self._metric_block = None
        self._metric_rows = None
        self._source_vm_rows = {}
        self._procedure1_rows = {}

    def sorted_vms(self) -> list:
        """The VM set in canonical (repr) order, cached."""
        if self._sorted_vms is None:
            self._sorted_vms = sorted(self.vms, key=repr)
        return self._sorted_vms

    def procedure1_rows(self, source: Node) -> Dict[Node, Dict[Node, float]]:
        """Mutable per-source copies of :meth:`metric_block`'s dict rows.

        ``rows[v1][v2]`` is ``metric_block()[i1, i2]`` for every VM pair
        but ``source``'s own row.  ``build_kstroll_instance`` stamps the
        Procedure-1 source column into these rows in place, one
        ``last_vm`` at a time -- its callers consume each instance before
        requesting the next, so a single copy per source replaces one
        copy per (source, last_vm) pair.  Only the scalar Procedure-2 path
        asks for them, so the dict rows are derived from the array at the
        first such request; Procedure 3's block path reads the array.
        """
        rows = self._procedure1_rows.get(source)
        if rows is None:
            block = self.metric_block()
            if self._metric_rows is None:
                vms = self.sorted_vms()
                self._metric_rows = {
                    v: {w: cost for w, cost in zip(vms, values) if w != v}
                    for v, values in zip(vms, block.tolist())
                }
            rows = {
                v: dict(r) for v, r in self._metric_rows.items()
                if v != source
            }
            self._procedure1_rows[source] = rows
        return rows

    def source_vm_distances(self, source: Node) -> Dict[Node, float]:
        """Base-graph distances from ``source`` to every VM (cached).

        One row per source serves the whole |S| x |M| Procedure-1 sweep:
        the distances are pure graph distances (no setup terms), so they
        are shared by every ``last_vm`` choice.
        """
        row = self._source_vm_rows.get(source)
        if row is None:
            vms = self.sorted_vms()
            row = dict(zip(vms, self.oracle.distances_to(source, vms)))
            self._source_vm_rows[source] = row
        return row

    def metric_block(self) -> np.ndarray:
        """The source-independent Procedure-1 cost block over the VM set.

        A float64 ``|M| x |M|`` array in :meth:`sorted_vms` order whose
        entry ``[i, j]`` is ``d(v_i, v_j) + (setup(v_i) + setup(v_j)) / 2``
        (``inf`` when ``v_j`` is unreachable) -- the Procedure-1 edge cost
        of every VM pair that involves neither the chain's source nor a
        setup-cost override; the diagonal is ``0``.  Those entries do not
        depend on the ``(source, last_vm)`` pair, so one block serves the
        entire |S| x |M| auxiliary-graph sweep.  Entry ``[i, j]`` with
        ``i < j`` comes from row ``v_i`` (the oracle's symmetry contract)
        and is mirrored to ``[j, i]``.  Invalidated together with the
        oracle.
        """
        if self._metric_block is None:
            oracle = self.oracle
            vms = self.sorted_vms()
            # One row per VM up front: every later distance query that
            # touches a VM is then served by undirected symmetry, and the
            # per-pair reads batch into one gather per row.
            oracle.prefetch_rows(vms)
            setups = np.array([self.setup_cost(v) for v in vms])
            block = np.zeros((len(vms), len(vms)))
            for i, v1 in enumerate(vms):
                ds = oracle.distances_to(v1, vms[i + 1:])
                # Elementwise IEEE doubles in the scalar association,
                # ``base + ((s1 + s2) / 2.0)``; ``inf`` stays ``inf``.
                costs = np.asarray(ds) + (setups[i] + setups[i + 1:]) / 2.0
                block[i, i + 1:] = costs
                block[i + 1:, i] = costs
            self._metric_block = block
        return self._metric_block

    def setup_cost(self, node: Node) -> float:
        """Setup cost of ``node`` (0 for switches/non-VMs)."""
        return self.node_costs.get(node, 0.0)

    def source_setup_cost(self, node: Node) -> float:
        """Setup cost of enabling ``node`` as a source (Appendix D; default 0)."""
        return self.source_costs.get(node, 0.0)

    def switches(self) -> FrozenSet[Node]:
        """The switch set ``U = V \\ M``."""
        return frozenset(self.graph.nodes()) - self.vms

    # ------------------------------------------------------------------
    def replicate_vms(self, copies: int, attach_cost: float = 0.0) -> "SOFInstance":
        """Return a new instance where each VM is replicated ``copies`` times.

        Implements the paper's remark that a host able to run multiple VNFs
        is modelled "by first replicating the VM multiple times in the input
        graph".  Each replica ``(vm, i)`` is attached to the original VM
        node with an ``attach_cost`` edge and inherits its setup cost.
        """
        if copies < 1:
            raise ValueError("copies must be >= 1")
        graph = self.graph.copy()
        new_vms = set(self.vms)
        node_costs = dict(self.node_costs)
        # Sorted so replica nodes enter the graph (and its adjacency
        # order) deterministically rather than in salted set order.
        for vm in sorted(self.vms, key=repr):
            for i in range(1, copies):
                replica = (vm, f"replica{i}")
                graph.add_node(replica)
                graph.add_edge(vm, replica, attach_cost)
                new_vms.add(replica)
                node_costs[replica] = self.setup_cost(vm)
        return SOFInstance(
            graph=graph,
            vms=new_vms,
            sources=self.sources,
            destinations=self.destinations,
            chain=self.chain,
            node_costs=node_costs,
            source_costs=self.source_costs,
        )

    def with_chain(self, chain: ServiceChain) -> "SOFInstance":
        """Return a copy of the instance demanding a different chain."""
        clone = SOFInstance(
            graph=self.graph,
            vms=self.vms,
            sources=self.sources,
            destinations=self.destinations,
            chain=chain,
            node_costs=self.node_costs,
            source_costs=self.source_costs,
        )
        clone._oracle = self._oracle  # shortest paths do not depend on the chain
        clone._metric_block = self._metric_block
        clone._metric_rows = self._metric_rows
        clone._source_vm_rows = self._source_vm_rows
        clone._procedure1_rows = self._procedure1_rows
        return clone

    def restrict_sources(self, sources: Iterable[Node]) -> "SOFInstance":
        """Return a copy restricted to a subset of the sources."""
        clone = SOFInstance(
            graph=self.graph,
            vms=self.vms,
            sources=sources,
            destinations=self.destinations,
            chain=self.chain,
            node_costs=self.node_costs,
            source_costs=self.source_costs,
        )
        clone._oracle = self._oracle
        clone._metric_block = self._metric_block
        clone._metric_rows = self._metric_rows
        clone._source_vm_rows = self._source_vm_rows
        clone._procedure1_rows = self._procedure1_rows
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SOFInstance(|V|={len(self.graph)}, |E|={self.graph.num_edges()}, "
            f"|M|={len(self.vms)}, |S|={len(self.sources)}, "
            f"|D|={len(self.destinations)}, |C|={len(self.chain)})"
        )
