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
        for node, cost in self.node_costs.items():
            if cost < 0:
                raise ValueError(f"negative setup cost on {node!r}")
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
        and destinations -- lets it early-terminate each single-source
        search once every node the sweeps can query is settled.
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
        self._source_vm_rows = {}
        self._procedure1_rows = {}

    def sorted_vms(self) -> list:
        """The VM set in canonical (repr) order, cached."""
        if self._sorted_vms is None:
            self._sorted_vms = sorted(self.vms, key=repr)
        return self._sorted_vms

    def procedure1_rows(self, source: Node) -> Dict[Node, Dict[Node, float]]:
        """Mutable per-source copies of :meth:`metric_block` rows.

        ``build_kstroll_instance`` stamps the Procedure-1 source column
        into these rows in place, one ``last_vm`` at a time -- the sweep
        consumes each instance before requesting the next, so a single
        copy per source replaces one copy per (source, last_vm) pair.
        """
        rows = self._procedure1_rows.get(source)
        if rows is None:
            block = self.metric_block()
            rows = {v: dict(r) for v, r in block.items() if v != source}
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

    def metric_block(self) -> Dict[Node, Dict[Node, float]]:
        """The source-independent Procedure-1 cost block over the VM set.

        ``block[v1][v2]`` is ``d(v1, v2) + (setup(v1) + setup(v2)) / 2`` --
        the Procedure-1 edge cost of every VM pair that involves neither
        the chain's source nor a setup-cost override.  Those entries do not
        depend on the ``(source, last_vm)`` pair, so one block is shared by
        the entire |S| x |M| auxiliary-graph sweep instead of being
        re-derived per pair.  Invalidated together with the oracle.
        """
        if self._metric_block is None:
            oracle = self.oracle
            setup = self.setup_cost
            vms = self.sorted_vms()
            # One row per VM up front: every later distance query that
            # touches a VM is then served by undirected symmetry, and the
            # per-pair reads batch into one gather per row.
            oracle.prefetch_rows(vms)
            setups = [setup(v) for v in vms]
            block: Dict[Node, Dict[Node, float]] = {v: {} for v in vms}
            for i, v1 in enumerate(vms):
                row1 = block[v1]
                s1 = setup(v1)
                rest = vms[i + 1:]
                ds = oracle.distances_to(v1, rest)
                if len(rest) > 16:
                    # Elementwise IEEE doubles in the scalar branch's
                    # association, ``base + ((s1 + s2) / 2.0)``, with
                    # ``inf`` rows passed through verbatim -- the costs
                    # are bit-identical to the loop below.
                    base = np.asarray(ds)
                    costs = np.where(
                        np.isinf(base), base,
                        base + (s1 + np.asarray(setups[i + 1:])) / 2.0,
                    ).tolist()
                else:
                    costs = [
                        base if base == float("inf")
                        else base + (s1 + setup(v2)) / 2.0
                        for v2, base in zip(rest, ds)
                    ]
                for v2, cost in zip(rest, costs):
                    row1[v2] = cost
                    block[v2][v1] = cost
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
        clone._source_vm_rows = self._source_vm_rows
        clone._procedure1_rows = self._procedure1_rows
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SOFInstance(|V|={len(self.graph)}, |E|={self.graph.num_edges()}, "
            f"|M|={len(self.vms)}, |S|={len(self.sources)}, "
            f"|D|={len(self.destinations)}, |C|={len(self.chain)})"
        )
