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
|S| x |M| sweep per source: one :class:`~repro.core.transform.PoolCap`
caps the VM pools of the source's pairs from one score block and solves
their k-strolls in numpy blocks over the instance-wide Procedure-1 metric
block (one gather per VM row); pairs the block does not cover (uncapped
pools among them) run the scalar ``chain_walk``.  ``Ĝ`` needs every
candidate chain's cost but step 3 needs only the walks ``T`` selects, so
the sweep keeps each pair's cost and stroll, and step 3 expands only the
selected strolls, through the oracle's ``path``.  On an uncontracted
oracle with no row budget the sweep builds no block pair's walk: it
prices them from the oracle rows in one compiled call
(:class:`~repro.graph.indexed.WalkBatch`).  ``Ĝ`` is never copied from
``G``: an :class:`AuxiliaryView` reads ``G`` live and records only the
virtual part.  KMB's Steiner step searches it without interning ``Ĝ`` either,
through an oracle whose core is the instance oracle's core -- contracted
or not -- extended in numpy by the virtual part
(:meth:`~repro.graph.indexed.FrozenOracle.extended`).  Only other
Steiner methods materialize ``Ĝ`` as a :class:`Graph` (see
"Performance architecture" in ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Hashable, Iterator, List, Optional, Tuple, Union

from repro.graph import FrozenOracle, Graph, steiner_tree
from repro.graph.graph import cost_error
from repro.graph.indexed import WalkBatch
from repro.graph.steiner import resolve_steiner_method
from repro.core.conflict import (
    ResolutionStats,
    repair_chain,
    resolve_and_add_chain,
)
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.transform import ChainWalk, PoolCap, chain_walk, expand_stroll
from repro.core.validation import check_forest

Node = Hashable
INF = float("inf")

_VSRC = "__sof_virtual_source__"


def _src_dup(v: Node) -> Tuple[str, Node]:
    return ("src^", v)


def _vm_dup(u: Node) -> Tuple[str, Node]:
    return ("vm^", u)


class AuxiliaryView:
    """``Ĝ`` as a read-only view: the instance graph ``G`` plus its
    virtual part, without a copy of ``G``.

    The virtual part -- ``ŝ``, the source and VM duplicates and every
    edge touching them -- is recorded in insertion order.  Reads answer
    as the materialized ``Ĝ`` does (``cost``, ``has_edge``, ``in``,
    ``len``, ``neighbor_items``), except that a real node lists its
    ``G`` neighbours in ``G``'s order and then its virtual ones.  ``G``
    is read live, so the view must not outlive a mutation of ``G``.

    :meth:`materialize` builds ``Ĝ`` as the :class:`Graph` SOFDA used to
    copy on every solve, in its per-mode order; :meth:`search_oracle`
    builds the KMB oracle over ``Ĝ`` from the instance oracle's core.
    """

    def __init__(self, instance: SOFInstance) -> None:
        self._base = instance.graph
        self._oracle = instance.oracle
        #: Adjacency of the virtual edges, keyed by both endpoints.
        self._adj: Dict[Node, Dict[Node, float]] = {}
        #: Nodes not in ``G``, in order of first appearance.
        self._nodes: List[Node] = []
        self._heads: List[Node] = []
        self._tails: List[Node] = []
        self._costs: List[float] = []
        self._graph: Optional[Graph] = None

    def _neighbors(self, node: Node) -> Dict[Node, float]:
        nbrs = self._adj.get(node)
        if nbrs is None:
            nbrs = self._adj[node] = {}
            if node not in self._base:
                self._nodes.append(node)
        return nbrs

    def add_edge(self, u: Node, v: Node, cost: float) -> None:
        """Add a virtual edge; at least one endpoint must be new to ``G``."""
        if not 0.0 <= cost < INF:
            raise cost_error("edge", cost, f"edge ({u!r}, {v!r})")
        cost = float(cost)
        self._neighbors(u)[v] = cost
        self._neighbors(v)[u] = cost
        self._heads.append(u)
        self._tails.append(v)
        self._costs.append(cost)
        self._graph = None

    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj or node in self._base

    def __len__(self) -> int:
        return len(self._base) + len(self._nodes)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` is in ``Ĝ``."""
        return v in self._adj.get(u, ()) or self._base.has_edge(u, v)

    def cost(self, u: Node, v: Node) -> float:
        """Cost of edge ``{u, v}`` of ``Ĝ``; raises ``KeyError`` if absent."""
        nbrs = self._adj.get(u)
        if nbrs is not None and v in nbrs:
            return nbrs[v]
        return self._base.cost(u, v)

    def neighbor_items(self, node: Node) -> Iterator[Tuple[Node, float]]:
        """Iterate over ``(neighbor, edge_cost)`` pairs of ``node`` in ``Ĝ``."""
        extra = self._adj.get(node)
        if node in self._base:
            items = self._base.neighbor_items(node)
            return items if extra is None else chain(items, extra.items())
        if extra is None:
            raise KeyError(node)
        return iter(extra.items())

    # ------------------------------------------------------------------
    def materialize(self) -> Graph:
        """``Ĝ`` as a :class:`Graph`, built on the first call.

        ``G`` is copied as the instance oracle's mode asks: in bulk on a
        contracted (continuous-cost) instance, whose ties are
        measure-zero, and otherwise edge by edge, so the copy's
        enumeration order -- and every equal-cost tie-break a search of
        it makes -- is the historical one.  The virtual part follows in
        insertion order.
        """
        if self._graph is None:
            base = self._base
            if self._oracle.contracted is not None:
                graph = base.copy()
            else:
                graph = Graph()
                for u, v, cost in base.edges():
                    graph.add_edge(u, v, cost)
                for node in base.nodes():
                    graph.add_node(node)
            for node in self._nodes:
                graph.add_node(node)
            for u, v, cost in zip(self._heads, self._tails, self._costs):
                graph.add_edge(u, v, cost)
            self._graph = graph
        return self._graph

    def search_oracle(self) -> FrozenOracle:
        """KMB's oracle over ``Ĝ``: the instance oracle's core extended by
        the virtual part (:meth:`FrozenOracle.extended`).

        On an uncontracted instance it serves bit for bit what a fresh
        ``FrozenOracle(materialize())`` would; on a contracted one it
        searches the contracted core plus the virtual part, with exact
        distances.
        """
        return self._oracle.extended(
            self, self._nodes, (self._heads, self._tails, self._costs)
        )


@dataclass
class AuxiliaryGraph:
    """Procedure 3 output: the Steiner instance ``Ĝ`` as a view, and the
    cost and stroll behind each virtual edge.

    ``view`` is what the Steiner step reads (KMB through
    :meth:`AuxiliaryView.search_oracle`); :attr:`graph` materializes
    ``Ĝ`` as a :class:`Graph` on first read, for the readers that need
    one (Steiner methods other than KMB).

    ``costs`` and ``strolls`` hold every ``(source, last_vm)`` pair's
    virtual-edge cost and Procedure-2 stroll, in sweep order.  No walk
    is kept: :meth:`walk_for` builds one from its stroll on demand.
    """

    view: AuxiliaryView
    virtual_source: Node
    costs: Dict[Tuple[Node, Node], float]
    strolls: Dict[Tuple[Node, Node], List[Node]]
    instance: SOFInstance = field(repr=False, compare=False)

    @property
    def graph(self) -> Graph:
        """``Ĝ`` as a :class:`Graph` (:meth:`AuxiliaryView.materialize`)."""
        return self.view.materialize()

    def walk_for(self, source: Node, last_vm: Node) -> ChainWalk:
        """The candidate chain represented by virtual edge ``(v̂, û)``:
        the pair's stroll expanded through the instance oracle's
        ``path`` (:func:`expand_stroll`), anew on every call."""
        return expand_stroll(self.instance, self.strolls[(source, last_vm)])


def build_auxiliary_graph(
    instance: SOFInstance,
    kstroll_method: str = "auto",
) -> AuxiliaryGraph:
    """Procedure 3: construct the auxiliary Steiner-tree instance ``Ĝ``.

    The |S| x |M| candidate-chain sweep runs on the instance's shared
    oracle: each source and VM costs one Dijkstra in total, and every
    Procedure-1 instance reads the same VM-pair cost block
    (:meth:`SOFInstance.metric_block`).  One :class:`PoolCap` per source
    caps the VM pools of all its pairs and, for the pairs its gather
    covers, solves their k-strolls in one numpy block
    (:meth:`PoolCap.stroll`).  On an uncontracted instance oracle such a
    pair's walk is not built: at the pair's place in the sweep a
    :class:`~repro.graph.indexed.WalkBatch` replays the row lookups its
    ``expand_stroll`` would make, and after the sweep one compiled call
    prices every added walk -- its edges' live weights folded left to
    right, plus its setup costs -- bit for bit
    ``expand_stroll(...).total_cost``.  On a contracted one, or one
    with a row budget (whose evictions would strand the batch's parent
    buffers outside the budget), each stroll is expanded at once
    (:func:`expand_stroll`), with the same lookups.  A pair the block does
    not cover runs the scalar ``chain_walk`` with its capped pool: an
    uncapped pool, a ``kstroll_method`` other than ``auto``, or a source
    with an Appendix-D setup cost.  With a recorder on the instance
    oracle, each pair counts as ``sofda.procedure2{path=block}`` or
    ``sofda.procedure2{path=scalar,reason=...}``, and each block pair's
    walk as ``sofda.walk{path=priced}`` or
    ``sofda.walk{path=expanded,reason}`` (``reason`` ``contracted`` or
    ``row_budget``).

    ``Ĝ`` is not a copy of ``G``: it is an :class:`AuxiliaryView` of
    ``G`` plus its virtual part -- ``ŝ``, the source and VM duplicates
    and their edges, the virtual edges added after the sweep in sweep
    order.  Nothing here reads the oracle before the sweep, so a cold
    instance oracle is built by the sweep's first query.

    The sweep keeps every pair's cost (:attr:`AuxiliaryGraph.costs`)
    and stroll (:attr:`AuxiliaryGraph.strolls`), and no walk:
    :meth:`AuxiliaryGraph.walk_for` expands a stroll through the
    oracle's ``path``, and :func:`sofda` expands only the pairs its
    Steiner tree selects.  A walk expanded after a patch of the oracle
    follows the patched rows (``path`` raises ``ValueError`` where a hop
    became unreachable); the costs stay those the sweep read.
    """
    vms = instance.sorted_vms()
    aux = AuxiliaryView(instance)
    for v in sorted(instance.sources, key=repr):
        aux.add_edge(_VSRC, _src_dup(v), 0.0)
    for u in vms:
        aux.add_edge(u, _vm_dup(u), 0.0)
    oracle = instance.oracle
    mx = oracle.metrics
    k = len(instance.chain) + 1
    setup_of = instance.setup_cost
    costs: Dict[Tuple[Node, Node], float] = {}
    strolls: Dict[Tuple[Node, Node], List[Node]] = {}
    priced: List[Tuple[Node, Node]] = []
    batch: Optional[WalkBatch] = None
    for v in sorted(instance.sources, key=repr):
        last_vms = [u for u in vms if u != v]
        caps = PoolCap(instance, v, last_vms)
        refusal = caps.block_refusal(kstroll_method)
        for u in last_vms:
            if not caps.capped(u):
                reason, pool = "uncapped_pool", None
            elif refusal is None:
                reason, stroll = None, caps.stroll(u, k)
                if stroll is not None and batch is None:
                    # The stroll's gate has built the oracle by now.
                    batch = oracle.walk_batch(k - 1)
            else:
                reason, pool = refusal, caps.select(u)
            if mx:
                if reason is not None:
                    mx.inc("sofda.procedure2", path="scalar", reason=reason)
                else:
                    mx.inc("sofda.procedure2", path="block")
                    if stroll is not None and batch is not None:
                        mx.inc("sofda.walk", path="priced")
                    elif stroll is not None:
                        mx.inc("sofda.walk", path="expanded", reason=(
                            "contracted" if oracle.contracted is not None
                            else "row_budget"
                        ))
            if reason is not None:
                cw = chain_walk(
                    instance, v, u, candidate_vms=pool,
                    kstroll_method=kstroll_method,
                )
            elif stroll is None:
                cw = None
            elif batch is not None:
                batch.add(stroll, [setup_of(m) for m in stroll[1:]])
                priced.append((v, u))
                strolls[(v, u)] = stroll
                costs[(v, u)] = INF  # priced after the sweep
                continue
            else:
                cw = expand_stroll(instance, stroll)
            if cw is not None:
                strolls[(v, u)] = cw.stroll
                costs[(v, u)] = cw.total_cost
    if not costs:
        raise RuntimeError("no candidate service chain exists for any (source, VM) pair")
    if batch is not None:
        costs.update(zip(priced, batch.costs()))
    for (v, u), cost in costs.items():
        aux.add_edge(_src_dup(v), _vm_dup(u), cost)
    return AuxiliaryGraph(
        view=aux, virtual_source=_VSRC, costs=costs, strolls=strolls,
        instance=instance,
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


def _steiner_search(
    instance: SOFInstance,
    aux: AuxiliaryGraph,
    terminals: List[Node],
    steiner_method: str,
) -> Tuple[Union[AuxiliaryView, Graph], Optional[FrozenOracle]]:
    """The graph and oracle the Steiner step searches ``Ĝ`` through.

    KMB asks only terminal distances and paths, which it reads from the
    view's assembled oracle (:meth:`AuxiliaryView.search_oracle`, the
    instance oracle's core extended by the virtual part;
    ``path=assembled``).  Any other Steiner method materializes ``Ĝ``
    and builds its own oracle (``path=materialized``,
    ``reason=steiner_method``).  With a recorder on the instance oracle
    the choice counts as ``sofda.steiner_oracle{path,reason}``.
    """
    mx = instance.oracle.metrics
    if resolve_steiner_method(aux.view, terminals, steiner_method) != "kmb":
        if mx:
            mx.inc("sofda.steiner_oracle", path="materialized",
                   reason="steiner_method")
        return aux.graph, None
    if mx:
        mx.inc("sofda.steiner_oracle", path="assembled")
    return aux.view, aux.view.search_oracle()


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
) -> SOFDAResult:
    """Run SOFDA (Algorithm 2) and return the embedded forest.

    Args:
        instance: the SOF instance.
        steiner_method: Steiner solver for the auxiliary instance.
        kstroll_method: k-stroll solver for candidate chains.
        resolve_conflicts: when ``False``, conflicting chains go straight to
            the repair path (the ablation in DESIGN.md §5.3).
        prune: drop distribution edges that serve no destination.
    """
    aux = build_auxiliary_graph(instance, kstroll_method=kstroll_method)
    terminals = [aux.virtual_source] + sorted(instance.destinations, key=repr)
    graph, oracle = _steiner_search(instance, aux, terminals, steiner_method)
    tree = steiner_tree(
        graph, terminals, method=steiner_method, oracle=oracle
    ).tree

    # Build only the walks behind the selected virtual edges.
    pairs = _selected_virtual_edges(tree, instance)
    walks = {pair: aux.walk_for(*pair) for pair in pairs}

    forest = ServiceOverlayForest(instance=instance)
    stats = ResolutionStats()

    # Deploy the chain behind every selected virtual edge.  Cheaper chains
    # first: they seed the forest that later chains attach to.
    pairs.sort(key=lambda p: walks[p].total_cost)
    for v, u in pairs:
        candidate = walks[(v, u)]
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
    check_forest(instance, forest)
    return SOFDAResult(
        forest=forest, stats=stats, num_virtual_edges=len(pairs)
    )
