"""Indexed graph core: node interning, CSR adjacency and array Dijkstra.

The dict-of-dicts :class:`~repro.graph.graph.Graph` is convenient for
construction and small instances, but every Dijkstra relaxation pays a hash
of an arbitrary node key and every heap entry carries a Python object.  The
paper-scale sweeps (Table I: |V| up to 5000, |S| up to 26) run dozens of
single-source searches per SOFDA call, so this module provides a compact
core the hot paths share:

- :class:`IndexedGraph` -- interns nodes into dense int ids and stores the
  adjacency as CSR ``array('q')``/``array('d')`` buffers
  (``indptr``/``indices``/``weights``).
- :meth:`IndexedGraph.dijkstra` -- array Dijkstra whose ``dist`` and
  ``parent`` are ``array('d')``/``array('q')`` buffers indexed by int id,
  so no node ``repr`` tie-breaking ever runs.  Its push-counter
  tie-break replicates :func:`repro.graph.shortest_paths.dijkstra`'s
  relaxation order exactly, so the two return identical distances *and*
  identical shortest-path trees.
- :class:`FrozenOracle` -- a drop-in replacement for
  :class:`~repro.graph.shortest_paths.DistanceOracle` over a graph that is
  not mutated while cached.  Rows are computed lazily and cached as
  ``array('d')``/``array('q')`` label buffers, which batch queries read
  through zero-copy numpy views; a ``hot`` node set names the nodes the
  workload queries repeatedly.

Every search in this module runs one settle loop,
:func:`repro.graph.kernel.settle` (compiled C, with a bit-identical
Python twin): cold row builds over both cores, the decrease sweep, and
the boundary-seeded re-search that ends every region repair
(:func:`repro.graph.kernel.repair`, compiled the same way).

On large instances the oracle additionally *contracts* the search graph:
ISP-style topologies (Euclidean MST plus shortest extra links, Inet
preferential attachment) are dominated by degree-2 relay nodes, so every
maximal chain of non-hot degree-2 nodes is spliced into a single weighted
edge before Dijkstra runs.  On the Table-I instances this halves the node
count and removes a third of the edges while distances stay exact; paths
are re-expanded through the stored chain interiors on reconstruction.
Contraction only engages above :data:`CONTRACT_MIN_INTERIOR` interior
nodes -- small (typically integer-weighted, tie-heavy) graphs keep the
exact dict-Dijkstra relaxation order, bit for bit.

One FrozenOracle per :class:`~repro.core.problem.SOFInstance` is shared by
the whole SOFDA pipeline (Procedure 1 sweeps, conflict repairs, Steiner
closures, the baselines and the online simulator) -- the single-oracle
invariant documented in ROADMAP.md.

Edge-*cost* patches (:meth:`FrozenOracle.patch_edge_costs`) of the
uncontracted core repair cached rows instead of recomputing them, in
Ramalingam--Reps order, in one pass over the rows
(:meth:`FrozenOracle._patch_rows`).  Every cached row ran
to exhaustion, so every live row is repaired in place.  Each
repaired row first relaxes the batch's decreases outward from the
decreased edges (:func:`_relax_decreases`); then every increased pair
that is one of its tree edges roots a region, and one
:func:`repro.graph.kernel.repair` call marks the union of the roots'
subtrees, reseeds it from its intact boundary and re-searches it.  The
equivalence reference is the cold rebuild: a fresh oracle over the
patched graph.

Edge-*topology* patches (:meth:`FrozenOracle.patch_topology`) extend the
same repair engine to link failure and recovery.  A removed edge is a
*tombstone*: its CSR slots keep their positions (marked with an ``inf``
weight, which no live edge can carry -- costs are validated finite) and
node ids stay stable, so every cached row array stays addressable; the
removal reaches cached rows as an increase-to-infinity, whose detached
region repairs from its boundary and may legitimately end *unreachable*
(``dist=inf``, parent cleared -- the one outcome a pure cost patch can
never produce).  A reinserted edge un-tombstones its slots and reaches
rows as a decrease-from-infinity through the decrease pass.  The
tombstone repair is the only in-place topology path; its equivalence
reference is again the cold rebuild.

Only the uncontracted core repairs in place.  A cost or topology patch
of a built *contracted* oracle writes the graph and then calls
:meth:`FrozenOracle.invalidate`, so the next query contracts the
patched graph afresh and serves exactly what a fresh oracle would.  No
workload pays for that rebuild: offline solves contract but never
patch, and the online simulator patches floor-cost graphs, which never
contract.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import itemgetter
from typing import (
    Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.graph import kernel
from repro.graph.graph import Graph, canonical_edge, cost_error
from repro.graph.rowcache import RowCache
from repro.graph.shortest_paths import dijkstra as _dict_dijkstra
from repro.obs import CACHE_SNAPSHOT_SCHEMA

Node = Hashable
INF = float("inf")

#: Minimum number of contractible (non-hot, degree-2) nodes before the
#: oracle switches to the contracted search core.  Below this the exact
#: dict-Dijkstra relaxation order is replicated instead, which keeps
#: tie-breaking on small integer-weighted graphs byte-compatible.
CONTRACT_MIN_INTERIOR = 64

#: Minimum fraction of distinct edge costs for contraction to engage.
#: Continuous (randomly drawn) costs make equal-cost shortest-path ties
#: measure-zero, so the contracted core's different -- but equally valid --
#: tie choices can never change a result.  Repeated-cost graphs (e.g. the
#: online simulator's uniform floor costs) keep the replicated relaxation
#: order instead.
CONTRACT_MIN_DISTINCT_COSTS = 0.5


#: How many edges the continuity probe inspects (deterministic prefix of
#: the enumeration order) -- plenty to separate drawn-cost graphs from
#: uniform/integer-cost ones without an O(E) scan per oracle build.
_DISTINCT_COST_SAMPLE = 2048


def _target_ids(index: Dict, targets: Sequence) -> Optional[List[int]]:
    """Resolve ``targets`` against ``index`` in one C-speed gather.

    Returns the id list when every target is present, ``None`` when any
    target is missing -- callers then run their exact per-target slow
    path.  ``operator.itemgetter`` keeps the per-element cost out of the
    interpreter on the batched query paths, where a ~1000-candidate pool
    is resolved on every Procedure-2 call.
    """
    try:
        if len(targets) == 1:
            return [index[targets[0]]]
        return list(itemgetter(*targets)(index))
    except KeyError:
        return None


def _costs_mostly_distinct(graph: Graph) -> bool:
    """Whether the graph's edge costs look continuously distributed."""
    seen = set()
    count = 0
    for _, _, cost in graph.edges():
        seen.add(cost)
        count += 1
        if count >= _DISTINCT_COST_SAMPLE:
            break
    return count > 0 and len(seen) >= CONTRACT_MIN_DISTINCT_COSTS * count


class IndexedGraph:
    """A frozen, int-indexed view of an undirected weighted graph.

    Attributes:
        nodes: intern table; ``nodes[i]`` is the original node of id ``i``.
        index: reverse mapping ``node -> id``.
        indptr, indices, weights: CSR adjacency as ``array('q')``,
            ``array('q')`` and ``array('d')`` buffers -- the neighbors of
            node ``i`` are ``indices[indptr[i]:indptr[i+1]]`` with edge
            costs in the matching slice of ``weights``; a tombstoned
            (removed) edge keeps its slots at weight ``inf``.
    """

    __slots__ = ("nodes", "index", "indptr", "indices", "weights")

    def __init__(
        self,
        nodes: List[Node],
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Sequence[float],
    ) -> None:
        self.nodes = nodes
        self.index = {node: i for i, node in enumerate(nodes)}
        self.indptr = array("q", indptr)
        self.indices = array("q", indices)
        self.weights = array("d", weights)

    @classmethod
    def from_graph(cls, graph: Graph) -> "IndexedGraph":
        """Intern ``graph`` preserving node and per-node neighbor order."""
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        indptr = [0]
        indices: List[int] = []
        weights: List[float] = []
        for node in nodes:
            for neighbor, cost in graph.neighbor_items(node):
                indices.append(index[neighbor])
                weights.append(cost)
            indptr.append(len(indices))
        return cls(nodes, indptr, indices, weights)

    @property
    def csr(self) -> Tuple[array, array, array]:
        """``(indptr, indices, weights)``, the :func:`kernel.settle` input."""
        return self.indptr, self.indices, self.weights

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self.index

    def num_edges(self) -> int:
        """Number of *live* undirected edges (tombstones excluded)."""
        dead = sum(1 for w in self.weights if w == INF)
        return (len(self.indices) - dead) // 2

    def id_of(self, node: Node) -> int:
        """Int id of ``node``; raises ``KeyError`` if absent."""
        return self.index[node]

    def node_of(self, node_id: int) -> Node:
        """Original node of int id ``node_id``."""
        return self.nodes[node_id]

    def patch_edges(self, updates: Iterable[Tuple[int, int, float]]) -> None:
        """Overwrite edge *costs* in place; the topology must not change.

        ``updates`` holds ``(u_id, v_id, new_cost)`` triples for existing
        edges; both CSR directions are written.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        for u, v, cost in updates:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b:
                        weights[pos] = cost
                        break
                else:
                    raise KeyError(f"no edge between ids {u} and {v}")

    def remove_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Tombstone edges in place: weight becomes ``inf``, slots persist.

        The CSR slots keep their positions, so node ids and every cached
        row array stay stable; an ``inf`` slot never relaxes anything, so
        the absent edge costs every search and repair nothing.  Raises
        ``KeyError`` for a missing or already-removed edge.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        for u, v in pairs:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b and weights[pos] != INF:
                        weights[pos] = INF
                        break
                else:
                    raise KeyError(f"no live edge between ids {u} and {v}")

    def restore_edges(self, updates: Iterable[Tuple[int, int, float]]) -> None:
        """Un-tombstone edges: write a finite cost back into dead slots.

        The inverse of :meth:`remove_edges`; the edge must currently be
        tombstoned (both CSR directions at ``inf``).  Raises ``KeyError``
        when no tombstoned slot exists for a pair.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        for u, v, cost in updates:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b and weights[pos] == INF:
                        weights[pos] = cost
                        break
                else:
                    raise KeyError(
                        f"no tombstoned edge between ids {u} and {v}"
                    )

    # ------------------------------------------------------------------
    def dijkstra(self, source: int) -> Tuple[array, array]:
        """Full single-source Dijkstra over int ids.

        Push-counter ties (:func:`kernel.settle`) replicate the dict
        Dijkstra's relaxation order, so labels *and* parents equal
        :func:`repro.graph.shortest_paths.dijkstra`'s.  Returns the
        ``array('d')``/``array('q')`` label buffers indexed by node id
        (``parent[i] == -1`` for the source and unreached nodes).
        """
        dist, parent = kernel.new_labels(len(self.nodes))
        dist[source] = 0.0
        kernel.settle(self.csr, dist, parent, (source,), counter=True)
        return dist, parent


class _ContractedCore:
    """The degree-2-contracted search graph behind a :class:`FrozenOracle`.

    Built once from the graph and never patched: a patch of the graph
    drops the core (:meth:`FrozenOracle.invalidate`) and the next query
    contracts the patched graph afresh.

    Attributes:
        nodes / index: intern table over the *core* nodes (hot nodes and
            every node of degree != 2).
        indptr, indices, weights: the core adjacency as CSR buffers, the
            :func:`kernel.settle` input; parallel candidates (an original
            edge and/or several spliced chains between the same core
            pair) are reduced to the cheapest one.
        meta: ``(a_cid, b_cid) -> interior node tuple`` for every kept
            spliced edge, in a->b order (both orientations stored), used to
            re-expand reconstructed paths.
        chains: every discovered chain (kept or not, including self-loop
            chains) as ``(a_cid, b_cid, interiors, prefix, total)`` where
            ``prefix[i]`` is the along-chain distance from ``a`` to
            ``interiors[i]`` -- enough to serve ``distances_from`` for the
            contracted interiors exactly.
        interior: every node outside the core (chain interiors and nodes
            of isolated relay cycles), which queries serve on the slow
            path.
    """

    __slots__ = (
        "nodes", "index", "meta", "chains", "interior",
        "indptr", "indices", "weights",
    )

    def __init__(self, graph: Graph, protected: set) -> None:
        # The raw adjacency dicts: this is a sibling module of Graph inside
        # the graph package, and dropping the per-edge method dispatch
        # matters at 10k+ edges.
        adj = graph._adj
        is_core = {
            node for node, neighbors in adj.items()
            if len(neighbors) != 2 or node in protected
        }
        self.nodes: List[Node] = [n for n in adj if n in is_core]
        self.index: Dict[Node, int] = {n: i for i, n in enumerate(self.nodes)}
        self.interior: set = set()

        # Candidate core-core connections: original edges first (in
        # enumeration order), then spliced chains -- the min per pair wins,
        # first encountered on ties, which keeps construction deterministic.
        candidates: Dict[Tuple[int, int], Tuple[float, Tuple[Node, ...]]] = {}

        def offer(a: int, b: int, weight: float, interiors: Tuple[Node, ...]) -> None:
            key = (a, b) if a <= b else (b, a)
            kept = candidates.get(key)
            if kept is None or weight < kept[0]:
                candidates[key] = (
                    weight, interiors if key == (a, b) else tuple(reversed(interiors))
                )

        index = self.index
        for u in self.nodes:
            ui = index[u]
            for v, cost in adj[u].items():
                vi = index.get(v)
                if vi is not None and ui < vi:
                    offer(ui, vi, cost, ())

        self.chains: List[
            Tuple[int, int, Tuple[Node, ...], Tuple[float, ...], float]
        ] = []
        visited: set = set()
        for a in self.nodes:
            for first, w0 in adj[a].items():
                if first in is_core or first in visited:
                    continue
                # Walk the chain of degree-2 interiors until a core node.
                interiors = [first]
                weights = [w0]
                prev, cur = a, first
                while True:
                    visited.add(cur)
                    n1, n2 = adj[cur]
                    nxt = n2 if n1 == prev else n1
                    weights.append(adj[cur][nxt])
                    if nxt in is_core:
                        b = nxt
                        break
                    interiors.append(nxt)
                    prev, cur = cur, nxt
                prefix: List[float] = []
                acc = 0.0
                for w in weights[:-1]:
                    acc += w
                    prefix.append(acc)
                total = acc + weights[-1]
                a_cid, b_cid = index[a], index[b]
                self.chains.append(
                    (a_cid, b_cid, tuple(interiors), tuple(prefix), total)
                )
                self.interior.update(interiors)
                if a_cid != b_cid:  # self-loop chains never shorten paths
                    offer(a_cid, b_cid, total, tuple(interiors))
        # Interior cycles with no core anchor stay out of the core; slow
        # queries about them fall back to the dict Dijkstra.
        for node in adj:
            if node not in is_core and node not in visited:
                self.interior.add(node)

        adjacency: List[List[Tuple[float, int]]] = [[] for _ in self.nodes]
        self.meta: Dict[Tuple[int, int], Tuple[Node, ...]] = {}
        for (a, b), (weight, interiors) in candidates.items():
            adjacency[a].append((weight, b))
            adjacency[b].append((weight, a))
            if interiors:
                self.meta[(a, b)] = interiors
                self.meta[(b, a)] = tuple(reversed(interiors))
        self.indptr = array("q", accumulate(map(len, adjacency), initial=0))
        self.indices = array("q", [nb for row in adjacency for _, nb in row])
        self.weights = array("d", [w for row in adjacency for w, _ in row])

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def csr(self) -> Tuple[array, array, array]:
        """``(indptr, indices, weights)``, the :func:`kernel.settle` input."""
        return self.indptr, self.indices, self.weights

    def dijkstra(self, source: int) -> Tuple[array, array]:
        """Full single-source Dijkstra over the contracted core.

        Ties break on the node id, not an insertion counter: the
        contracted core only engages on continuous-cost instances, where
        exact distance ties are measure-zero.
        """
        dist, parent = kernel.new_labels(len(self.nodes))
        dist[source] = 0.0
        kernel.settle(self.csr, dist, parent, (source,))
        return dist, parent

    def expand(self, core_path: List[int]) -> List[Node]:
        """Re-insert chain interiors into a path of core ids."""
        nodes = self.nodes
        meta = self.meta
        out: List[Node] = [nodes[core_path[0]]]
        for a, b in zip(core_path, core_path[1:]):
            interiors = meta.get((a, b))
            if interiors is not None:
                out.extend(interiors)
            out.append(nodes[b])
        return out


def _relax_decreases(
    csr: Tuple[array, array, array],
    row: "_Row",
    decreases: List[Tuple[int, int, float]],
) -> None:
    """Propagate one batch's cost decreases through a full row in place.

    The decrease half of Ramalingam--Reps.  ``csr`` must already carry
    the *new* weights.  Every decreased edge that now shortens a path
    seeds one label-correcting sweep (:func:`kernel.settle`) outward
    from its improved endpoint.

    :meth:`FrozenOracle._patch_rows` runs this on every repaired row
    before it looks for the batch's increased tree edges, because a
    decrease moves parents.  The ``fork-mutation-window`` lint rule
    counts a call to it (like one to :func:`kernel.repair`) as a row
    write-back.
    """
    dist = row.dist
    parent = row.parent
    seeds: List[int] = []
    for a, b, w in decreases:
        if dist[a] + w < dist[b]:
            dist[b] = dist[a] + w
            parent[b] = a
            seeds.append(b)
        elif dist[b] + w < dist[a]:
            dist[a] = dist[b] + w
            parent[a] = b
            seeds.append(a)
    if seeds:
        kernel.settle(csr, dist, parent, seeds)


class _PatchPlan:
    """The direction split of one edge-weight change batch.

    - ``increases``: the ``(a, b)`` pairs whose weight grew (a removal
      grows it to ``inf``).  In each repaired row, every one that is a
      tree edge roots a :func:`kernel.repair` region at its child end.
    - ``decreases``: ``(a, b, new_w)`` for the pairs whose weight fell
      (a reinsertion falls from ``inf``), which :func:`_relax_decreases`
      relaxes into each repaired row first.
    """

    __slots__ = ("increases", "decreases")

    def __init__(
        self, changes: Iterable[Tuple[int, int, float, float]]
    ) -> None:
        self.increases: List[Tuple[int, int]] = []
        self.decreases: List[Tuple[int, int, float]] = []
        for a, b, old, new in changes:
            if new > old:
                self.increases.append((a, b))
            elif new < old:
                self.decreases.append((a, b, new))


class _Row:
    """One cached single-source result inside :class:`FrozenOracle`.

    Every row ran to exhaustion and is exact for every node.  On the
    uncontracted core a patch repairs it in place -- its distances stay
    exact and its parent tree stays a valid shortest-path tree under the
    new costs, with equal-cost tie-breaks possibly differing from a cold
    rebuild's.  A patch of a contracted oracle drops every row.
    """

    __slots__ = ("dist", "parent", "used")

    def __init__(self, dist: array, parent: array) -> None:
        self.dist = dist
        self.parent = parent
        #: Served since the last patch?  Rows idle across a whole patch
        #: interval are dropped rather than repaired -- dead rows (e.g. a
        #: past request's terminals) would otherwise be repaired forever.
        #: Caller contract: a query-free interval between two patches
        #: still counts as idle, so a caller with a standing working set
        #: touches it (:meth:`FrozenOracle.prefetch_rows`) in every such
        #: interval -- after a patch no query follows, and between two
        #: back-to-back patches -- not once before a run of patches.
        self.used = True


class FrozenOracle:
    """Caching shortest-path oracle with an interned fast core.

    API-compatible with :class:`~repro.graph.shortest_paths.DistanceOracle`
    (``graph``, ``distance``, ``path``, ``distances_from``, ``invalidate``).
    On small graphs it returns bit-identical distances *and* paths, because
    the underlying array Dijkstra replicates the dict implementation's
    relaxation order; on large graphs (>= :data:`CONTRACT_MIN_INTERIOR`
    contractible relay nodes) it switches to the degree-2-contracted core,
    which keeps distances exact but may pick a different -- equally short
    -- path when several shortest paths tie.

    The ``hot`` set names the nodes a workload will query repeatedly (for a
    SOF instance: sources, VMs and destinations).  Hot nodes are never
    contracted away, and a query with no cached endpoint row builds the
    row of its hot endpoint.  Every row runs to exhaustion.

    Undirected symmetry contract: ``distance(u, v) == distance(v, u)``, and
    the oracle is free to answer either direction from whichever row is
    cheapest to obtain.

    Cost and topology patches of the uncontracted core repair cached
    rows in place through one engine (:meth:`_patch_rows`), whose
    equivalence reference is the cold rebuild: a fresh oracle over the
    patched graph.  A patch of a built contracted oracle *is* the cold
    rebuild: it writes the graph and calls :meth:`invalidate`, and the
    next query contracts the patched graph afresh.  Offline solves
    contract but never patch, and the online simulator's floor-cost
    graphs never contract, so no workload takes that path.
    """

    def __init__(
        self,
        graph: Graph,
        hot: Optional[Iterable[Node]] = None,
        row_budget_bytes: Optional[int] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self._graph = graph
        self._hot: set = set(hot) if hot is not None else set()
        #: Observability (PR 10): ``metrics=`` carries a
        #: :class:`~repro.obs.recorder.Recorder` that the instrumented
        #: seams (cold builds, patch repairs, cache snapshots, batch
        #: queries) report into.  ``None`` (the default) and the falsy
        #: :data:`~repro.obs.recorder.NULL_RECORDER` keep every hot
        #: path on a single truthiness check -- zero-overhead and
        #: bit-identical, the same flag-gated-reference discipline as
        #: the other knobs.  Recording never feeds back into algorithm
        #: state, so served values are identical either way.
        self._metrics = metrics if metrics else None
        #: Canonical node pairs currently tombstoned in the built
        #: uncontracted core.  A removed edge's CSR slots persist at
        #: weight ``inf``, so an edge may only be (re)inserted in place
        #: while its slots still exist -- i.e. while its pair is recorded
        #: here.  A contracted oracle keeps none: its patches rebuild.
        self._tombstones: set = set()
        self._core: Optional[IndexedGraph] = None
        self._contracted: Optional[_ContractedCore] = None
        self._built = False
        #: The row store (:class:`~repro.graph.rowcache.RowCache`): owns
        #: per-row byte accounting and every eviction policy -- the
        #: idle-at-patch drop and the budget eviction under
        #: ``row_budget_bytes``.  ``None`` (the default) keeps today's
        #: unbounded behavior bit-identically; with a budget, residency
        #: is enforced at the oracle's consistency boundaries (after each
        #: row install, at the end of each patch), so a budgeted oracle
        #: serves the same values and only residency/recompute work
        #: differ.
        self._rows: RowCache = RowCache(row_budget_bytes)
        self._slow_rows: Dict[Node, Tuple[Dict[Node, float], Dict[Node, Node]]] = {}
        #: Per-node query counters of the uncontracted core, indexed by
        #: node id (see :meth:`_reset_queries`).  An ``array('q')`` so
        #: the batched entry points bump a whole target list through one
        #: numpy view; the contracted core counts nothing.
        self._queries = array("q")
        self._paths: Dict[Tuple[Node, Node], List[Node]] = {}

    @property
    def graph(self) -> Graph:
        """The underlying graph (must not be mutated while cached)."""
        return self._graph

    @property
    def row_budget_bytes(self) -> Optional[int]:
        """Row-cache residency budget in bytes (``None`` = unbounded)."""
        return self._rows.budget_bytes

    @property
    def metrics(self):
        """The attached recorder, or ``None`` when observability is off."""
        return self._metrics

    def cache_snapshot(self, scope: str = "oracle") -> Dict[str, Optional[int]]:
        """Unified cache snapshot, the shape every layer shares.

        The :meth:`RowCache.stats` counters (rows resident, accounted
        bytes, peak, hits/misses, evictions by policy, budget
        overshoots), tagged with the schema version
        (:data:`~repro.obs.CACHE_SNAPSHOT_SCHEMA`) and the reporting
        ``scope``; :mod:`repro.obs` documents the full key table.  When
        a recorder is attached, the same numbers are also folded into
        the registry as ``<scope>.cache.*`` gauges.
        """
        stats = self._rows.stats()
        mx = self._metrics
        if mx:
            self._rows.publish(mx, prefix=f"{scope}.cache")
        stats["schema"] = CACHE_SNAPSHOT_SCHEMA
        stats["scope"] = scope
        return stats

    def _build(self) -> None:
        if self._built:
            return
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        if self._hot and _costs_mostly_distinct(self._graph):
            contracted = _ContractedCore(self._graph, self._hot)
            if len(contracted.interior) >= CONTRACT_MIN_INTERIOR:
                self._contracted = contracted
        if self._contracted is None:
            self._core = IndexedGraph.from_graph(self._graph)
            self._reset_queries()
        self._built = True
        if mx:
            mx.span(
                "oracle.build", t0,
                kind="contracted" if self._contracted is not None else "core",
            )

    @property
    def core(self) -> IndexedGraph:
        """The uncontracted interned core (built on demand)."""
        if self._core is None:
            self._core = IndexedGraph.from_graph(self._graph)
            self._reset_queries()
            self._built = True
        return self._core

    def _reset_queries(self) -> None:
        """Zero the query counters: one per node of the uncontracted core.

        Called wherever the core is (re)built and wherever a rebuild
        would start counting afresh (every patch).
        """
        size = len(self._core) if self._core is not None else 0
        self._queries = array("q", bytes(8 * size))

    @property
    def contracted(self) -> Optional[_ContractedCore]:
        """The contracted core, or ``None`` when contraction is inactive."""
        self._build()
        return self._contracted

    def prefetch_rows(self, nodes: Iterable[Node]) -> None:
        """Precompute rows for ``nodes``: touch the cached, build the rest.

        Cached rows are touched (``used``), missing rows are built and
        installed in the callers' node order, each once.  Sweeps that
        will query *from or to* every node of a set prefetch it first:
        afterwards any ``distance`` query touching the set is served from
        an existing row by undirected symmetry.  Callers that know their
        working set up front
        (:meth:`~repro.core.problem.SOFInstance.metric_block`, the online
        simulator's VM-pool warms) route here.
        """
        self._build()
        if self._contracted is not None:
            index = self._contracted.index
            missing: List[int] = []
            seen: set = set()
            for node in nodes:
                cid = index.get(node)
                if cid is None:
                    continue
                row = self._rows.get(cid)
                if row is None:
                    if cid not in seen:
                        seen.add(cid)
                        missing.append(cid)
                else:
                    row.used = True
            for cid in missing:
                self._build_row(cid)
            return
        index = self.core.index
        missing = []
        seen = set()
        for node in nodes:
            node_id = index.get(node)
            if node_id is None:
                continue
            row = self._rows.get(node_id)
            if row is None:
                if node_id not in seen:
                    seen.add(node_id)
                    missing.append(node_id)
            else:
                row.used = True
        for node_id in missing:
            self._build_row(node_id)

    def extend_hot(self, nodes: Iterable[Node]) -> None:
        """Add nodes to the hot set (affects future row computations).

        If a newly hot node was contracted away, the core is rebuilt so
        the node becomes a first-class anchor again.
        """
        fresh = set(nodes) - self._hot
        self._hot |= fresh
        contracted = self._contracted
        if contracted is not None and not fresh.isdisjoint(contracted.interior):
            self.invalidate()

    def invalidate(self) -> None:
        """Drop all cached state (call after mutating the graph)."""
        self._core = None
        self._contracted = None
        self._built = False
        self._tombstones.clear()
        self._rows.clear()
        self._slow_rows.clear()
        self._reset_queries()
        self._paths.clear()

    # ------------------------------------------------------------------
    # incremental edge-cost patching
    # ------------------------------------------------------------------
    def patch_edge_costs(
        self, changed: Mapping[Tuple[Node, Node], float]
    ) -> int:
        """Apply pure edge-*cost* updates without a full rebuild.

        ``changed`` maps ``(u, v)`` pairs to new costs.  Pairs are
        deduplicated by canonical edge key first: a batch naming the same
        edge twice (typically once per orientation) applies only the
        *last* mapping-order entry -- the same last-write-wins rule a
        caller looping ``graph.add_edge`` would get -- so the batch can
        never double-patch CSR weights or hand the repair plan two
        contradictory ``old`` costs for one edge.  Every pair must
        already be an edge (:meth:`patch_topology` adds and removes
        edges), and the whole batch is validated before anything is
        written.  New costs are written into the underlying graph.

        On a built uncontracted core the CSR weights are then patched in
        place and cached rows are *repaired* (Ramalingam--Reps style:
        only the region below a changed tree edge or reachable from a
        decreased edge is recomputed) instead of recomputed from
        scratch; each repaired row takes the batch's decreases first,
        then its increases (see :meth:`_patch_rows`).  A built
        contracted oracle calls :meth:`invalidate` instead, and the next
        query contracts the patched graph afresh.  A metered patch
        records ``oracle.patch.edges`` and an ``oracle.patch.costs``
        span either way; only a repair records an ``oracle.repair``
        span.

        Returns the number of (deduplicated) edges whose cost actually
        changed.
        """
        graph = self._graph
        merged: Dict[Tuple[Node, Node], Tuple[Node, Node, float]] = {}
        for (u, v), cost in changed.items():
            merged[canonical_edge(u, v)] = (u, v, float(cost))
        # Validate the whole batch before writing anything: a missing edge
        # or an invalid cost must not leave the graph half-mutated with
        # the oracle unpatched.  The comparison is False for NaN too,
        # which would otherwise slip through the ``cost != old`` gate.
        applied: List[Tuple[Node, Node, float, float]] = []
        for u, v, cost in merged.values():
            if not 0.0 <= cost < INF:
                raise cost_error("edge", cost, f"edge ({u!r}, {v!r})")
            old = graph.cost(u, v)
            if cost != old:
                applied.append((u, v, old, cost))
        for u, v, _, cost in applied:
            graph.add_edge(u, v, cost)
        if not applied or not self._built:
            # Unbuilt oracles carry no interned core or rows yet: the
            # graph now holds the patched costs, and the eventual
            # ``_build`` (and its contraction/continuity probes) reads
            # them from there, exactly as if the oracle had been
            # constructed over the patched graph.
            return len(applied)
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        if self._contracted is not None:
            self.invalidate()
        else:
            # The row-root heuristic counts are reset exactly as a rebuild
            # would, so both paths grow the same row set afterwards.
            self._reset_queries()
            core = self._core
            index = core.index
            core.patch_edges(
                (index[u], index[v], cost) for u, v, _, cost in applied
            )
            self._patch_rows([
                (index[u], index[v], old, cost) for u, v, old, cost in applied
            ])
        if mx:
            mx.inc("oracle.patch.edges", len(applied))
            mx.span("oracle.patch.costs", t0,
                    trace_args={"edges": len(applied)})
            self._rows.publish(mx)
        return len(applied)

    # ------------------------------------------------------------------
    # incremental edge-topology patching (link failure / recovery)
    # ------------------------------------------------------------------
    def insertable(self, u: Node, v: Node) -> bool:
        """Can ``patch_topology(inserted={(u, v): ...})`` apply?

        True while the oracle is unbuilt and on a built contracted
        oracle: both read the mutated graph at their next build.  A
        built uncontracted core repairs in place, so there it is True
        only when the edge holds a tombstoned CSR slot from an earlier
        removal -- the frozen core cannot grow slots for brand-new
        edges, so reviving an edge that died *before* the first build
        needs an :meth:`invalidate`.
        """
        if not self._built or self._contracted is not None:
            return True
        return canonical_edge(u, v) in self._tombstones

    def patch_topology(
        self,
        removed: Iterable[Tuple[Node, Node]] = (),
        inserted: Optional[Mapping[Tuple[Node, Node], float]] = None,
    ) -> int:
        """Remove and/or (re)insert edges without a full rebuild.

        ``removed`` names existing edges to delete; ``inserted`` maps
        ``(u, v)`` pairs to the cost of edges to (re)insert.  Both are
        canonicalised and deduplicated first (last write wins for
        ``inserted``, exactly as :meth:`patch_edge_costs`); a pair in
        both collections is rejected.  The whole batch is validated
        before anything mutates -- a bad entry leaves graph and oracle
        untouched.

        A built uncontracted core is edited through a *tombstone mask*:
        a removed edge's CSR slots persist at weight ``inf`` (node ids
        and row arrays stay stable, and an ``inf`` slot never relaxes),
        so cached rows repair through the ordinary increase machinery --
        the detached region reconnects through surviving edges or
        legitimately ends *unreachable* (``dist=inf``, parent cleared).
        Reinsertion is a decrease-from-infinity over the same slots, and
        therefore requires the pair to be a previously removed
        (tombstoned) edge: the frozen CSR cannot grow new slots
        (:meth:`insertable`).  The equivalence reference is the cold
        rebuild: a fresh oracle over the mutated graph.

        A built contracted oracle writes the graph and calls
        :meth:`invalidate` instead, so it needs no tombstones and takes
        any insert.  A metered patch records
        ``oracle.patch.topology_changes`` and an
        ``oracle.patch.topology`` span either way; only a repair records
        an ``oracle.repair`` span.

        Returns the number of applied topology changes.
        """
        graph = self._graph
        dead: Dict[Tuple[Node, Node], Tuple[Node, Node]] = {}
        for u, v in removed:
            dead.setdefault(canonical_edge(u, v), (u, v))
        born: Dict[Tuple[Node, Node], Tuple[Node, Node, float]] = {}
        if inserted:
            for (u, v), cost in inserted.items():
                born[canonical_edge(u, v)] = (u, v, float(cost))
        overlap = dead.keys() & born.keys()
        if overlap:
            raise ValueError(
                f"edges named as both removed and inserted: {sorted(overlap, key=repr)!r}"
            )
        # Validate the whole batch before writing anything.
        removals: List[Tuple[Node, Node, float]] = []
        for key, (u, v) in dead.items():
            removals.append((u, v, graph.cost(u, v)))  # KeyError if absent
        for u, v, cost in born.values():
            if not 0.0 <= cost < INF:
                raise cost_error("edge", cost, f"edge ({u!r}, {v!r})")
            if graph.has_edge(u, v):
                raise ValueError(
                    f"({u!r}, {v!r}) is already an edge; use "
                    f"patch_edge_costs for cost changes"
                )
            if not self.insertable(u, v):
                raise ValueError(
                    f"({u!r}, {v!r}) was never removed from this oracle: "
                    f"the frozen CSR core cannot grow new edge slots "
                    f"(invalidate() to rebuild over new topology)"
                )
        if not removals and not born:
            return 0
        for u, v, _ in removals:
            graph.remove_edge(u, v)
        for u, v, cost in born.values():
            graph.add_edge(u, v, cost)
        count = len(removals) + len(born)
        if not self._built:
            # The eventual ``_build`` reads the mutated graph directly.
            return count
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        if self._contracted is not None:
            self.invalidate()
        else:
            self._tombstones.update(dead)
            self._tombstones.difference_update(born)
            self._reset_queries()
            core = self._core
            index = core.index
            core.remove_edges((index[u], index[v]) for u, v, _ in removals)
            core.restore_edges(
                (index[u], index[v], cost) for u, v, cost in born.values()
            )
            self._patch_rows([
                (index[u], index[v], old, INF) for u, v, old in removals
            ] + [
                (index[u], index[v], INF, cost)
                for u, v, cost in born.values()
            ])
        if mx:
            mx.inc("oracle.patch.topology_changes", count)
            mx.span("oracle.patch.topology", t0, trace_args={
                "removed": len(removals), "inserted": len(born),
            })
            self._rows.publish(mx)
        return count

    def _patch_rows(
        self, changes: Iterable[Tuple[int, int, float, float]]
    ) -> None:
        """Repair (or evict) every cached row after a weight-change batch.

        ``changes`` holds ``(a, b, old_w, new_w)`` in the id space of the
        uncontracted core, the only one that repairs, whose CSR weights
        are already patched.  One pass over the cached rows, in row
        order:

        - a row idle since the previous patch is evicted (reason
          ``"idle"``) and recomputed on demand, exactly the rebuild
          path, instead of being repaired forever;
        - every other row is repaired in place, in Ramalingam--Reps
          order.  The batch's decreases are relaxed into it first
          (:func:`_relax_decreases`), because a decrease moves parents.
          Then every increased pair that is a tree edge of the relaxed
          row contributes its child end as a root -- a degree-1 leaf
          edge's root is the leaf itself -- and one :func:`kernel.repair`
          call recomputes the union of the roots' subtrees from its
          boundary.  Finding the roots costs O(changes) per row.

        Every repaired row keeps exact distances and a valid
        shortest-path tree under the new costs, with equal-cost
        tie-breaks possibly differing from a cold rebuild's.
        """
        plan = _PatchPlan(changes)
        increases, decreases = plan.increases, plan.decreases
        if not increases and not decreases:
            return
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        csr = self._core.csr
        rows = self._rows
        live = repaired = 0
        for sid, row in list(rows.items()):
            if not row.used:
                rows.evict(sid, "idle")
                continue
            live += 1
            row.used = False
            if decreases:
                _relax_decreases(csr, row, decreases)
            parent = row.parent
            roots: List[int] = []
            for a, b in increases:
                if parent[b] == a:
                    roots.append(b)
                elif parent[a] == b:
                    roots.append(a)
            if roots:
                kernel.repair(csr, row.dist, parent, roots)
                repaired += 1
                if mx:
                    mx.inc("oracle.repair.rows", path="planned")

        # Budgeted oracles settle residency at the patch boundary: the
        # accounting invariant is "never over budget *between* patches"
        # (repairs rewrite labels in place and cannot grow a row, so
        # this is a no-op unless the idle drop was outweighed by the
        # interval's installs).
        rows.enforce()
        if mx:
            mx.span("oracle.repair", t0, mode="planned",
                    trace_args={"live": live, "repaired": repaired})

    def rebased(
        self, graph: Graph, changed: Mapping[Tuple[Node, Node], float]
    ) -> "FrozenOracle":
        """A new, unbuilt oracle over ``graph`` with ``changed`` applied.

        ``graph`` must be a copy of this oracle's graph -- identical nodes
        in the same enumeration order and identical edges, still carrying
        the *old* costs -- to which ``changed`` (the
        :meth:`patch_edge_costs` contract) is then applied.  The dynamic
        adjustments use this to reroute on updated costs while leaving the
        original instance and its oracle untouched.

        The clone keeps this oracle's hot set, row budget and recorder,
        and nothing of its caches: it builds its core and rows on demand
        from the patched graph, exactly as a fresh oracle would.
        """
        clone = FrozenOracle(
            graph, hot=self._hot, row_budget_bytes=self._rows.budget_bytes,
            metrics=self._metrics,
        )
        clone.patch_edge_costs(changed)
        return clone

    # ------------------------------------------------------------------
    # contracted-core machinery
    # ------------------------------------------------------------------
    def _slow_row(self, source: Node) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        """Exact dict-Dijkstra row on the original graph (rare queries)."""
        row = self._slow_rows.get(source)
        if row is None:
            row = _dict_dijkstra(self._graph, source)
            self._slow_rows[source] = row
        return row

    def _build_row(self, sid: int) -> _Row:
        """Build, cache and record the cold row of ``sid`` on the active core.

        The one install path of every row: it replaces any previous row
        of ``sid``, and a budgeted oracle enforces residency right here,
        protecting the row the caller is about to serve from.
        """
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        core = self._contracted if self._contracted is not None else self._core
        row = _Row(*core.dijkstra(sid))
        rows = self._rows
        rows[sid] = row
        if rows.budget_bytes is not None:
            rows.enforce(protect=(sid,))
        if mx:
            mx.inc("oracle.rows.cold")
            mx.span("oracle.row_build", t0, kind="cold")
        return row

    def _row(self, sid: int) -> _Row:
        """The cached row of ``sid`` (built cold on a miss), marked used."""
        row = self._rows.get(sid)
        if row is None:
            row = self._build_row(sid)
        row.used = True
        return row

    # ------------------------------------------------------------------
    def distance(self, source: Node, target: Node) -> float:
        """Shortest-path cost; ``inf`` if unreachable.

        The graph is undirected, so ``distance(u, v) == distance(v, u)``
        and the answer may be served from a row rooted at either endpoint;
        when neither endpoint has a cached row, the row is computed from
        the endpoint more likely to be reused (hot beats cold, then the
        historically more-queried endpoint).
        """
        self._build()
        contracted = self._contracted
        if contracted is not None:
            index = contracted.index
            source_id = index.get(source)
            tid = index.get(target)
            if source_id is None or tid is None:
                if source not in self._graph:
                    raise KeyError(f"source {source!r} not in graph")
                if target not in self._graph:
                    return INF
                # An endpoint was contracted away (or sits on an isolated
                # relay cycle): exact but uncached-core slow path.
                dist, _ = self._slow_row(source)
                return dist.get(target, INF)
            row = self._rows.get(source_id)
            if row is None:
                row = self._rows.get(tid)
                if row is not None:
                    row.used = True
                    return row.dist[source_id]
                row = self._build_row(source_id)
            row.used = True
            return row.dist[tid]

        core = self.core
        index = core.index
        source_id = index[source]
        tid = index.get(target)
        if tid is None:
            return INF
        queries = self._queries
        queries[source_id] += 1
        queries[tid] += 1
        rows = self._rows
        row = rows.get(source_id)
        if row is None:
            row = rows.get(tid)
            if row is not None:
                row.used = True
                return row.dist[source_id]
            # Pick the root more likely to serve future queries.
            hot = self._hot
            su, sv = source in hot, target in hot
            if sv and not su:
                source_id, tid = tid, source_id
            elif su == sv and queries[tid] > queries[source_id]:
                source_id, tid = tid, source_id
            return self._build_row(source_id).dist[tid]
        row.used = True
        return row.dist[tid]

    def distances_to(self, source: Node, targets: Sequence[Node]) -> List[float]:
        """Shortest-path costs from ``source`` to each of ``targets``.

        Semantically ``[self.distance(source, t) for t in targets]``.
        When ``source`` has a cached row, which the scalar loop would
        serve every target from, the answer is one zero-copy numpy
        gather over the row's ``dist`` buffer instead of
        ``len(targets)`` dict/attribute walks, replicating the per-query
        side effects exactly: the same query counters, the same ``used``
        mark, ``inf`` (and no counters) for targets absent from the
        graph.  Any other cache state falls back to the per-query loop,
        so no code path ever computes or serves a row the scalar calls
        would not have (the row-serving identity).
        """
        mx = self._metrics
        if not mx:
            return self._distances_to_impl(source, targets)
        t0 = mx.clock()
        out = self._distances_to_impl(source, targets)
        mx.span("oracle.query", t0, op="distances_to",
                trace_args={"targets": len(out)})
        return out

    def _distances_to_impl(
        self, source: Node, targets: Sequence[Node]
    ) -> List[float]:
        targets = list(targets)
        if not targets:
            return []
        self._build()
        contracted = self._contracted
        mx = self._metrics
        if contracted is not None:
            index = contracted.index
            source_id = index.get(source)
            row = self._rows.get(source_id) if source_id is not None else None
            if row is None:
                if mx:
                    mx.inc("oracle.fallback", site="distances_to",
                           reason="endpoint_missing" if source_id is None
                           else "row_not_cached")
                return [self.distance(source, t) for t in targets]
            tids = _target_ids(index, targets)
            if tids is None:
                # A contracted-away target takes the exact slow path;
                # keep the whole batch on per-query serving.
                if mx:
                    mx.inc("oracle.fallback", site="distances_to",
                           reason="target_missing")
                return [self.distance(source, t) for t in targets]
            row.used = True
            tid_arr = np.fromiter(tids, np.int64, len(tids))
            return kernel.f8_view(row.dist)[tid_arr].tolist()
        core = self.core
        index = core.index
        source_id = index[source]
        row = self._rows.get(source_id)
        if row is None:
            if mx:
                mx.inc("oracle.fallback", site="distances_to",
                       reason="row_not_cached")
            return [self.distance(source, t) for t in targets]
        tids = _target_ids(index, targets)
        if tids is None:
            tids = [index.get(t) for t in targets]
            present = [tid for tid in tids if tid is not None]
        else:
            present = tids
        if not present:
            return [INF] * len(targets)
        tid_arr = np.fromiter(present, np.int64, len(present))
        self._queries[source_id] += len(present)
        np.add.at(np.frombuffer(self._queries, np.int64), tid_arr, 1)
        row.used = True
        vals = kernel.f8_view(row.dist)[tid_arr].tolist()
        if len(present) == len(tids):
            return vals
        out: List[float] = []
        k = 0
        for tid in tids:
            if tid is None:
                out.append(INF)
            else:
                out.append(vals[k])
                k += 1
        return out

    def detour_distances(
        self, source: Node, last_vms: Sequence[Node], targets: Sequence[Node]
    ) -> "DetourBlock":
        """Batched ``d(source, t)`` and ``d(u, t)`` for corridor-detour scans.

        The batch entry point of Procedure 2's pool cap, which scores
        every candidate VM ``t`` in ``targets`` (distinct) against both
        corridor endpoints: ``source`` and, pair by pair, each last VM
        ``u`` of ``last_vms``.  The returned :class:`DetourBlock` gates
        and serves the pairs one at a time, in the caller's order,
        exactly as the scalar ``distance`` loop of each pair would be
        served and counted; the distances of a whole run of pairs come
        from one gather.
        """
        return DetourBlock(self, source, last_vms, targets)

    def path(self, source: Node, target: Node) -> List[Node]:
        """A shortest path as a node list; raises if unreachable."""
        self._build()
        contracted = self._contracted
        if contracted is not None:
            # Stroll expansions re-request the same few anchor pairs many
            # times, so reconstructed paths are memoised.  Callers receive
            # a fresh copy: walks get extended in place downstream.
            cached = self._paths.get((source, target))
            if cached is not None:
                return list(cached)
            index = contracted.index
            source_id = index.get(source)
            tid = index.get(target)
            if source_id is None or tid is None:
                return self._slow_path(source, target)
            if tid == source_id:
                return [source]
            row = self._rows.get(source_id)
            if row is not None:
                row.used = True
                if row.dist[tid] == INF:
                    raise ValueError(f"no path from {source!r} to {target!r}")
                out = contracted.expand(
                    self._core_chain(row.parent, source_id, tid)
                )
            else:
                rev = self._rows.get(tid)
                if rev is not None:
                    # Serve the reverse row's tree and flip it (symmetry).
                    rev.used = True
                    if rev.dist[source_id] == INF:
                        raise ValueError(
                            f"no path from {source!r} to {target!r}"
                        )
                    chain = self._core_chain(rev.parent, tid, source_id)
                    chain.reverse()
                    out = contracted.expand(chain)
                else:
                    row = self._build_row(source_id)
                    if row.dist[tid] == INF:
                        raise ValueError(
                            f"no path from {source!r} to {target!r}"
                        )
                    out = contracted.expand(
                        self._core_chain(row.parent, source_id, tid)
                    )
            self._paths[(source, target)] = out
            return list(out)

        core = self.core
        index = core.index
        source_id = index[source]
        tid = index.get(target)
        if tid is None:
            raise ValueError(f"no path from {source!r} to {target!r}")
        if tid == source_id:
            return [source]
        row = self._row(source_id)
        if row.dist[tid] == INF:
            raise ValueError(f"no path from {source!r} to {target!r}")
        nodes = core.nodes
        parent = row.parent
        out = [nodes[tid]]
        cursor = tid
        while cursor != source_id:
            cursor = parent[cursor]
            out.append(nodes[cursor])
        out.reverse()
        return out

    @staticmethod
    def _core_chain(parent: List[int], source_id: int, tid: int) -> List[int]:
        """Core-id path ``source_id -> tid`` from a parent array."""
        chain = [tid]
        cursor = tid
        while cursor != source_id:
            cursor = parent[cursor]
            chain.append(cursor)
        chain.reverse()
        return chain

    def _slow_path(self, source: Node, target: Node) -> List[Node]:
        if target not in self._graph:
            raise ValueError(f"no path from {source!r} to {target!r}")
        if source == target:
            return [source]
        dist, parent = self._slow_row(source)
        if target not in dist:
            raise ValueError(f"no path from {source!r} to {target!r}")
        out = [target]
        while out[-1] != source:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    def distances_from(self, source: Node) -> Dict[Node, float]:
        """All shortest-path costs from ``source`` (a full row, cached)."""
        mx = self._metrics
        if not mx:
            return self._distances_from_impl(source)
        t0 = mx.clock()
        out = self._distances_from_impl(source)
        mx.span("oracle.query", t0, op="distances_from",
                trace_args={"targets": len(out)})
        return out

    def _distances_from_impl(self, source: Node) -> Dict[Node, float]:
        self._build()
        contracted = self._contracted
        if contracted is not None:
            source_id = contracted.index.get(source)
            if source_id is None:
                if source not in self._graph:
                    raise KeyError(f"source {source!r} not in graph")
                dist, _ = self._slow_row(source)
                return dict(dist)
            row = self._row(source_id)
            dist = row.dist
            out = {
                node: d
                for node, d in zip(contracted.nodes, dist)
                if d != INF
            }
            # Expand the chain interiors: an interior is reached through
            # whichever chain endpoint is closer along the chain.
            for a, b, interiors, prefix, total in contracted.chains:
                da, db = dist[a], dist[b]
                for node, pref in zip(interiors, prefix):
                    d = min(da + pref, db + (total - pref))
                    if d != INF:
                        known = out.get(node)
                        if known is None or d < known:
                            out[node] = d
            return out

        core = self.core
        row = self._row(core.index[source])
        nodes = core.nodes
        return {
            nodes[i]: d for i, d in enumerate(row.dist) if d != INF
        }


class DetourBlock:
    """Pool-cap distances of one source against a run of last VMs.

    Made by :meth:`FrozenOracle.detour_distances`.  Pair ``i`` stands
    for the scalar loop of Procedure 2's pool cap: ``distance(source,
    t)`` and ``distance(last_vms[i], t)`` for every target ``t`` other
    than ``last_vms[i]``.  :meth:`serve` is the pair's row-serving
    gate.  It answers only when both endpoint rows are cached -- the
    rows that loop would serve every target from -- and every target
    is in the core, and then leaves exactly the loop's side effects:
    the two counted row-store lookups, both ``used`` marks and the
    query counters (+1 per endpoint per target, +2 per target).
    Otherwise it returns ``None`` after the lookups alone, and the
    caller runs the loop.

    The distances come from a gather that counts nothing: at the first
    pair whose gate passes, ``d(source, t)`` and ``d(u, t)`` for that
    pair and every later last VM ``u`` with a cached row are read into
    one block.  A pair is served from the block only when its gate
    returns the very rows the block read; otherwise (a row not cached
    when the block was read, or evicted and rebuilt since under a
    budget) the block is regathered from that pair on.
    """

    __slots__ = (
        "_oracle", "_source_id", "_last_ids", "_tids", "_present",
        "_source_row", "_gathered", "_slots", "_da", "_db", "pairs",
    )

    def __init__(
        self,
        oracle: FrozenOracle,
        source: Node,
        last_vms: Sequence[Node],
        targets: Sequence[Node],
    ) -> None:
        oracle._build()
        contracted = oracle._contracted
        index = contracted.index if contracted is not None else oracle.core.index
        targets = list(targets)
        self._oracle = oracle
        self._source_id = index.get(source)
        self._last_ids = [index.get(u) for u in last_vms]
        tids = _target_ids(index, targets) if targets else []
        #: ``None`` when a target is not in the core (contracted away,
        #: or not in the graph): the scalar loop serves it on its exact
        #: per-target path, so every gate fails.
        self._tids = (
            None if tids is None else np.fromiter(tids, np.int64, len(tids))
        )
        #: The target ids, whose query counters a served pair bumps;
        #: ``None`` on the contracted core, which counts no queries.
        self._present = (
            set(tids) if tids is not None and contracted is None else None
        )
        self._source_row: Optional[_Row] = None
        self._gathered: List[_Row] = []
        self._slots: Dict[int, int] = {}
        #: The pair behind each row of the current gather's ``db``.
        self.pairs: List[int] = []
        self._da: Optional[np.ndarray] = None
        self._db: Optional[np.ndarray] = None

    def serve(self, i: int) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """Gate pair ``i``: its distances, or ``None`` to fall back.

        Returns ``(da, db, j)``, where ``da[k]`` is ``d(source,
        targets[k])`` and ``db[j, k]`` is ``d(last_vms[i], targets[k])``.
        Every pair served from one gather gets the same ``da`` and ``db``
        arrays.
        """
        oracle = self._oracle
        mx = oracle._metrics
        t0 = mx.clock() if mx else 0.0
        source_id = self._source_id
        last_id = self._last_ids[i]
        if source_id is None or last_id is None:
            if mx:
                mx.inc("oracle.fallback", site="detour_distances",
                       reason="endpoint_missing")
            return None
        rows = oracle._rows
        source_row = rows.get(source_id)
        last_row = rows.get(last_id)
        if source_row is None or last_row is None:
            if mx:
                mx.inc("oracle.fallback", site="detour_distances",
                       reason="row_not_cached")
            return None
        tids = self._tids
        if tids is None:
            if mx:
                mx.inc("oracle.fallback", site="detour_distances",
                       reason="target_missing")
            return None
        source_row.used = True
        last_row.used = True
        present = self._present
        if present is not None:
            own = last_id in present
            served = len(tids) - own
            queries = oracle._queries
            np.frombuffer(queries, np.int64)[tids] += 2
            queries[source_id] += served
            queries[last_id] += served - 2 * own
        j = self._slots.get(i)
        if (
            j is None or source_row is not self._source_row
            or self._gathered[j] is not last_row
        ):
            self._gather(i, source_row)
            j = self._slots[i]
        if mx:
            mx.span("oracle.query", t0, op="detour_distances",
                    trace_args={"targets": len(tids)})
        return self._da, self._db, j

    def _gather(self, first: int, source_row: _Row) -> None:
        """Read the source row and every cached row from pair ``first`` on."""
        peek = self._oracle._rows.peek
        last_ids = self._last_ids
        gathered: List[_Row] = []
        slots: Dict[int, int] = {}
        pairs: List[int] = []
        for i in range(first, len(last_ids)):
            row = peek(last_ids[i])
            if row is not None:
                slots[i] = len(gathered)
                gathered.append(row)
                pairs.append(i)
        tids = self._tids
        da = kernel.f8_view(source_row.dist)[tids]
        db = np.empty((len(gathered), len(tids)))
        for j, row in enumerate(gathered):
            db[j] = kernel.f8_view(row.dist)[tids]
        self._source_row = source_row
        self._gathered = gathered
        self._slots = slots
        self.pairs = pairs
        self._da = da
        self._db = db
