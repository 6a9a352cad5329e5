"""SOFDA: the general multi-source ``3ρST``-approximation (Section V).

Algorithm 2 of the paper:

1. **Procedure 3** -- build the auxiliary Steiner instance ``Ĝ``:
   duplicate every source ``v`` as ``v̂`` and every VM ``u`` as ``û``; add a
   virtual super-source ``ŝ``; connect ``ŝ -- v̂`` and ``u -- û`` with
   zero-cost edges and ``v̂ -- û`` with a *virtual edge* whose cost is the
   best candidate service chain from ``v`` to ``u`` (Procedure 2 k-stroll,
   setup costs included).
2. Find a Steiner tree ``T`` in ``Ĝ`` spanning ``{ŝ} ∪ D``.  Lemma 2 bounds
   its cost by ``3·c(F_OPT)``; the ρST-approximate tree by ``3ρST·c(F_OPT)``.
3. Deploy the walk behind every selected virtual edge into the forest,
   resolving VNF conflicts with Procedure 4 (:mod:`repro.core.conflict`).
4. Add every real edge of ``T ∩ G`` as distribution (tree) edges.

The returned forest is feasibility-checked and lightly pruned (distribution
edges that serve no destination are dropped -- a pure improvement).

Performance: the whole pipeline shares the instance's single
:class:`~repro.graph.indexed.FrozenOracle`.  Procedure 3 batches the
|S| x |M| sweep through the instance-wide Procedure-1 metric block, and the
Steiner step never runs Dijkstra on ``Ĝ`` itself -- an
:class:`AuxiliaryOracle` answers terminal distance/path queries on ``Ĝ``
from base-graph oracle rows over a condensed graph of the virtual part
(see "Performance architecture" in ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph import FrozenOracle, Graph, steiner_tree
from repro.graph.shortest_paths import dijkstra, reconstruct_path
from repro.graph.steiner import resolve_steiner_method
from repro.core.conflict import (
    ResolutionStats,
    repair_chain,
    resolve_and_add_chain,
)
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.transform import ChainWalk, PoolCap, chain_walk
from repro.core.validation import check_forest

Node = Hashable
INF = float("inf")

_VSRC = "__sof_virtual_source__"


def _src_dup(v: Node) -> Tuple[str, Node]:
    return ("src^", v)


def _vm_dup(u: Node) -> Tuple[str, Node]:
    return ("vm^", u)


class AuxiliaryOracle:
    """Distance/path oracle for ``Ĝ`` served from base-graph oracle rows.

    Every ``Ĝ`` shortest path between real nodes (or ``ŝ``) decomposes into
    real segments whose endpoints are VMs or query terminals, joined by
    hops through the virtual part (``ŝ``, source duplicates, VM
    duplicates).  A condensed graph over those ~|S| + |M| anchor nodes --
    with real segments replaced by base-graph shortest-path distances --
    therefore has *exactly* the ``Ĝ`` distances, and a Dijkstra on it costs
    microseconds instead of a full sweep of the 5000-node auxiliary graph.

    Queries whose endpoints are not registered terminals (e.g. the exact
    Dreyfus--Wagner solver probing interior nodes) fall back to a
    :class:`FrozenOracle` over ``Ĝ`` itself, which is always exact.
    """

    def __init__(
        self,
        instance: SOFInstance,
        aux_graph: Graph,
        virtual_source: Node,
        terminals: List[Node],
    ) -> None:
        self._instance = instance
        self._aux_graph = aux_graph
        self._virtual_source = virtual_source
        self._terminals = set(terminals)
        self._condensed: Optional[Graph] = None
        self._rows: Dict[Node, Tuple[Dict[Node, float], Dict[Node, Node]]] = {}
        self._fallback: Optional[FrozenOracle] = None

    @property
    def graph(self) -> Graph:
        """The auxiliary graph this oracle answers queries about."""
        return self._aux_graph

    # ------------------------------------------------------------------
    def _build_condensed(self) -> Graph:
        """The anchor graph: virtual part verbatim + metric real segments."""
        if self._condensed is not None:
            return self._condensed
        instance = self._instance
        base = instance.oracle
        aux = self._aux_graph
        vsrc = self._virtual_source
        condensed = Graph()
        condensed.add_node(vsrc)
        # Virtual part verbatim: s^ -- v^ -- u^ -- u edges.
        for nbr, cost in aux.neighbor_items(vsrc):
            condensed.add_edge(vsrc, nbr, cost)
        for v in sorted(instance.sources, key=repr):
            vdup = _src_dup(v)
            if vdup not in aux:
                continue
            for nbr, cost in aux.neighbor_items(vdup):
                if nbr != vsrc:
                    condensed.add_edge(vdup, nbr, cost)
        anchors: List[Node] = []
        for u in sorted(instance.vms, key=repr):
            udup = _vm_dup(u)
            if udup not in aux:
                continue
            condensed.add_edge(udup, u, aux.cost(udup, u))
            anchors.append(u)
        # Real segments between anchors (VM attachment points and query
        # terminals) become metric edges from the shared base oracle.
        reals = anchors + sorted(
            (t for t in self._terminals if t != vsrc and t not in anchors),
            key=repr,
        )
        for node in reals:
            condensed.add_node(node)  # keep unreachable terminals queryable
        for i, a in enumerate(reals):
            rest = reals[i + 1:]
            for b, d in zip(rest, base.distances_to(a, rest)):
                if d < INF and a != b:
                    condensed.add_edge(a, b, d)
        self._condensed = condensed
        return condensed

    def _condensed_row(
        self, source: Node
    ) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        row = self._rows.get(source)
        if row is None:
            row = dijkstra(self._build_condensed(), source)
            self._rows[source] = row
        return row

    def _serves(self, node: Node) -> bool:
        return node == self._virtual_source or node in self._terminals

    def _ensure_fallback(self) -> FrozenOracle:
        if self._fallback is None:
            base = self._instance.oracle
            self._fallback = FrozenOracle(
                self._aux_graph,
                row_budget_bytes=base.row_budget_bytes,
                metrics=base.metrics,
            )
        return self._fallback

    # ------------------------------------------------------------------
    def distance(self, source: Node, target: Node) -> float:
        """Shortest-path cost in ``Ĝ``; ``inf`` if unreachable."""
        if not (self._serves(source) and self._serves(target)):
            return self._ensure_fallback().distance(source, target)
        dist, _ = self._condensed_row(source)
        return dist.get(target, INF)

    def path(self, source: Node, target: Node) -> List[Node]:
        """A shortest ``Ĝ`` path, with real segments expanded through the
        base oracle."""
        if not (self._serves(source) and self._serves(target)):
            return self._ensure_fallback().path(source, target)
        dist, parent = self._condensed_row(source)
        if target not in dist:
            raise ValueError(f"no path from {source!r} to {target!r}")
        condensed_path = reconstruct_path(parent, source, target)
        aux = self._aux_graph
        base = self._instance.oracle
        out: List[Node] = [condensed_path[0]]
        for a, b in zip(condensed_path, condensed_path[1:]):
            if aux.has_edge(a, b) and aux.cost(a, b) == self._condensed.cost(a, b):
                out.append(b)
            else:
                out.extend(base.path(a, b)[1:])
        return out

    def distances_from(self, source: Node) -> Dict[Node, float]:
        """All ``Ĝ`` shortest-path costs from ``source``."""
        return self._ensure_fallback().distances_from(source)

    def invalidate(self) -> None:
        """Drop all cached state."""
        self._condensed = None
        self._rows.clear()
        self._fallback = None


@dataclass
class AuxiliaryGraph:
    """Procedure 3 output: the Steiner instance plus the walk behind each
    virtual edge and the condensed oracle that answers ``Ĝ`` queries."""

    graph: Graph
    virtual_source: Node
    walks: Dict[Tuple[Node, Node], ChainWalk] = field(default_factory=dict)
    oracle: Optional[AuxiliaryOracle] = None

    def walk_for(self, source: Node, last_vm: Node) -> ChainWalk:
        """The candidate chain represented by virtual edge ``(v̂, û)``."""
        return self.walks[(source, last_vm)]


def build_auxiliary_graph(
    instance: SOFInstance,
    kstroll_method: str = "auto",
) -> AuxiliaryGraph:
    """Procedure 3: construct the auxiliary Steiner-tree instance ``Ĝ``.

    The |S| x |M| candidate-chain sweep runs on the instance's shared
    oracle: each source and VM costs one Dijkstra in total, and the
    VM-pair block of every Procedure-1 instance is reused across all
    pairs (:meth:`SOFInstance.metric_block`).  One :class:`PoolCap` per
    source caps the VM pools of all its pairs, so the pool-cap scores
    of a source's last VMs come from one numpy block; each pair's
    ``chain_walk`` receives its capped pool as ``candidate_vms``.
    """
    if instance.oracle.contracted is not None:
        # Continuous-cost instance: shortest-path ties are measure-zero,
        # so the bulk copy's different adjacency order cannot change any
        # downstream tie-break.
        aux = instance.graph.copy()
    else:
        # Tie-heavy instance: rebuild edge by edge so the auxiliary
        # graph's enumeration order -- and with it every equal-cost
        # tie-break downstream -- matches the historical construction.
        aux = Graph()
        for u, v, cost in instance.graph.edges():
            aux.add_edge(u, v, cost)
        for node in instance.graph.nodes():
            aux.add_node(node)

    aux.add_node(_VSRC)
    walks: Dict[Tuple[Node, Node], ChainWalk] = {}
    for v in sorted(instance.sources, key=repr):
        aux.add_edge(_VSRC, _src_dup(v), 0.0)
    for u in sorted(instance.vms, key=repr):
        aux.add_edge(u, _vm_dup(u), 0.0)
    vms = instance.sorted_vms()
    for v in sorted(instance.sources, key=repr):
        last_vms = [u for u in vms if u != v]
        caps = PoolCap(instance, v, last_vms)
        for u in last_vms:
            cw = chain_walk(
                instance, v, u, candidate_vms=caps.select(u),
                kstroll_method=kstroll_method,
            )
            if cw is None:
                continue
            key = (_src_dup(v), _vm_dup(u))
            existing = walks.get((v, u))
            if existing is None or cw.total_cost < existing.total_cost:
                walks[(v, u)] = cw
                aux.add_edge(key[0], key[1], cw.total_cost)
    if not walks:
        raise RuntimeError("no candidate service chain exists for any (source, VM) pair")
    terminals = [_VSRC] + sorted(instance.destinations, key=repr)
    oracle = AuxiliaryOracle(instance, aux, _VSRC, terminals)
    return AuxiliaryGraph(
        graph=aux, virtual_source=_VSRC, walks=walks, oracle=oracle
    )


def _selected_virtual_edges(
    tree: Graph, instance: SOFInstance
) -> List[Tuple[Node, Node]]:
    """Extract the ``(source, last_vm)`` pairs of virtual edges used by ``T``."""
    pairs = []
    for a, b, _ in tree.edges():
        for x, y in ((a, b), (b, a)):
            if (
                isinstance(x, tuple) and len(x) == 2 and x[0] == "src^"
                and isinstance(y, tuple) and len(y) == 2 and y[0] == "vm^"
            ):
                pairs.append((x[1], y[1]))
    return sorted(pairs, key=repr)


@dataclass
class SOFDAResult:
    """SOFDA output: the forest plus diagnostics used by experiments."""

    forest: ServiceOverlayForest
    stats: ResolutionStats
    num_virtual_edges: int

    @property
    def cost(self) -> float:
        """Total cost of the embedded forest."""
        return self.forest.total_cost()


def sofda(
    instance: SOFInstance,
    steiner_method: str = "kmb",
    kstroll_method: str = "auto",
    resolve_conflicts: bool = True,
    prune: bool = True,
    validate: bool = True,
) -> SOFDAResult:
    """Run SOFDA (Algorithm 2) and return the embedded forest.

    Args:
        instance: the SOF instance.
        steiner_method: Steiner solver for the auxiliary instance.
        kstroll_method: k-stroll solver for candidate chains.
        resolve_conflicts: when ``False``, conflicting chains go straight to
            the repair path (the ablation in DESIGN.md §5.3).
        prune: drop distribution edges that serve no destination.
        validate: run the feasibility checker on the result.
    """
    aux = build_auxiliary_graph(instance, kstroll_method=kstroll_method)
    terminals = [aux.virtual_source] + sorted(instance.destinations, key=repr)
    # The condensed oracle serves KMB's terminal-only queries; the exact DP
    # probes interior nodes pair-by-pair, where per-solver caching wins.
    # It may pick a different (equally short) Ĝ path when shortest paths
    # tie, so it engages only alongside the contracted instance oracle --
    # i.e. on large continuous-cost graphs where ties are measure-zero.
    resolved = resolve_steiner_method(aux.graph, terminals, steiner_method)
    aux_oracle = (
        aux.oracle
        if resolved == "kmb" and instance.oracle.contracted is not None
        else None
    )
    tree = steiner_tree(
        aux.graph, terminals, method=steiner_method, oracle=aux_oracle
    ).tree

    forest = ServiceOverlayForest(instance=instance)
    stats = ResolutionStats()

    # Deploy the chain behind every selected virtual edge.  Cheaper chains
    # first: they seed the forest that later chains attach to.
    pairs = _selected_virtual_edges(tree, instance)
    pairs.sort(key=lambda p: aux.walks[p].total_cost)
    for v, u in pairs:
        candidate = aux.walks[(v, u)]
        if resolve_conflicts:
            resolve_and_add_chain(forest, candidate, stats)
        else:
            chain = candidate.to_deployed_chain()
            conflicted = any(
                forest.enabled.get(chain.walk[pos]) not in (None, vnf)
                for pos, vnf in chain.placements.items()
            )
            if conflicted:
                repair_chain(forest, candidate, stats)
            else:
                forest.add_chain(chain)
                stats.clean += 1

    # Real edges of T ∩ G become distribution edges.
    real_nodes = set(instance.graph.nodes())
    real_nodes.discard(_VSRC)
    for a, b, _ in tree.edges():
        if a in real_nodes and b in real_nodes:
            forest.add_tree_edge(a, b)

    if prune:
        forest.prune_tree_edges()
    if validate:
        check_forest(instance, forest)
    return SOFDAResult(
        forest=forest, stats=stats, num_virtual_edges=len(pairs)
    )
