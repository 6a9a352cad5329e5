"""Indexed graph core: node interning, CSR adjacency and array Dijkstra.

The dict-of-dicts :class:`~repro.graph.graph.Graph` is convenient for
construction and small instances, but every Dijkstra relaxation pays a hash
of an arbitrary node key and every heap entry carries a Python object.  The
paper-scale sweeps (Table I: |V| up to 5000, |S| up to 26) run dozens of
single-source searches per SOFDA call, so this module provides a compact
core the hot paths share:

- :class:`IndexedGraph` -- interns nodes into dense int ids and stores the
  adjacency as CSR ``array('q')``/``array('d')`` buffers
  (``indptr``/``indices``/``weights``) plus per-node ``(weight,
  neighbor_id)`` rows for the repair walks.
- :meth:`IndexedGraph.dijkstra` -- array Dijkstra whose ``dist`` and
  ``parent`` are ``array('d')``/``array('q')`` buffers indexed by int id,
  so no node ``repr`` tie-breaking ever runs.  Its push-counter
  tie-break replicates :func:`repro.graph.shortest_paths.dijkstra`'s
  relaxation order exactly, so the two return identical distances *and*
  identical shortest-path trees.
- :class:`FrozenOracle` -- a drop-in replacement for
  :class:`~repro.graph.shortest_paths.DistanceOracle` over a graph that is
  not mutated while cached.  Rows are computed lazily and cached as
  ``array('d')``/``array('q')`` label buffers, which batch queries and
  repair scans read through zero-copy numpy views; a ``hot`` node set
  names the nodes the workload queries repeatedly.

Every search in this module except the single-boundary shared-region
solve runs one settle loop, :func:`repro.graph.kernel.settle` (compiled
C, with a bit-identical Python twin): cold row builds over both cores,
the decrease sweep and the region repair's boundary-seeded re-search.

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

Edge-*cost* patches (:meth:`FrozenOracle.patch_edge_costs`) repair cached
rows instead of recomputing them, in Ramalingam--Reps order through one
engine.  Only exhaustive rows are repaired: a patch evicts every live
early-stopped row first.  A batch carrying a cost decrease then relaxes
every live row outward from the decreased edges
(:func:`_relax_decreases`).  The batch's increases go through a
*planner* -- one shared :class:`_PatchPlan` per patch that classifies
them (degree-1 leaf edges versus general pairs), plus one scan pass over
the live rows that finds the rows using each changed pair as a tree
edge -- and one *repairer* (:func:`_repair_row`) that applies the plan
to one row.  The equivalence reference is the cold rebuild: a fresh
oracle over the patched graph.

*Dense* patches -- a changed edge sitting in most rows' shortest-path
trees, the online workload's hot shared links -- additionally share the
repair bookkeeping across rows: rows detaching the same region (same
detached child, same detached-side node set; the region is the child's
subtree regardless of which changed pair detached it) are grouped
behind one :class:`_SharedRegion`, whose node list, membership mask
and boundary seed lists are computed once per group and reused by every
member row's re-search.  Observed row
density alone engages it (see :data:`PLANNER_SHARE_MIN_ROWS` /
:data:`PLANNER_SHARE_DENSITY`); the repairer walks any root without a
shared region per row, and shared repairs are bit-identical to that
walk.

Edge-*topology* patches (:meth:`FrozenOracle.patch_topology`) extend the
same repair engine to link failure and recovery.  A removed edge is a
*tombstone*: its CSR slots keep their positions (marked with an ``inf``
weight, which no live edge can carry -- costs are validated finite) and
node ids stay stable, so every cached row array stays addressable; the
removal reaches cached rows as an increase-to-infinity, whose detached
region repairs from its boundary and may legitimately end *unreachable*
(``dist=inf``, parent cleared -- the one outcome a pure cost patch can
never produce).  A reinserted edge un-tombstones its slots and reaches
rows as a decrease-from-infinity through the decrease pass.  In the
contracted core a failed edge keeps its chain intact and poisons the
chain's prefix sums and total to ``inf`` instead (infinite candidates
never win a relaxation, and interior queries expand through per-side
prefix walks), so no global recontraction ever runs.  The tombstone
repair is the only topology path; its equivalence reference is again
the cold rebuild.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter
from itertools import accumulate
from operator import itemgetter
from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.graph import kernel
from repro.graph.graph import Graph, canonical_edge
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

#: Region-sharing policy for dense patches.  A changed pair whose
#: detached child is a tree-edge child in at least
#: :data:`PLANNER_SHARE_MIN_ROWS` rows *and* at least
#: :data:`PLANNER_SHARE_DENSITY` of the live rows gets a shared-region
#: group: the detached region's node set, boundary seed lists and
#: internal adjacency are computed once per (pair, region signature) and
#: reused by every member row instead of being rediscovered per row.
#: Below the thresholds the per-patch group bookkeeping would cost more
#: than the per-row walks it replaces.
PLANNER_SHARE_MIN_ROWS = 24
PLANNER_SHARE_DENSITY = 0.5

#: How many distinct region variants one dense root may accumulate per
#: patch before later non-matching rows fall back to the per-row walk
#: (equal-cost ties or mid-stream repairs can fragment the region
#: signature across rows; unbounded variants would turn the
#: verification scan into the dominant cost).
_PLANNER_SHARE_MAX_VARIANTS = 4


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

#: Relative slack (in units of one ulp) granted per tree level when the
#: single-boundary offset solve checks whether a shared region's
#: separation margin survives re-running the same float additions from a
#: per-row base distance: each accumulated label carries at most one
#: rounding per tree level, both compared labels drift, plus slack for
#: the base seed add itself.  See :meth:`_SharedRegion.apply_offset`.
_OFFSET_ULPS_PER_LEVEL = 2
_OFFSET_ULPS_BASE = 4
_EPS = 2.0 ** -52


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

    __slots__ = ("nodes", "index", "indptr", "indices", "weights", "_rows")

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
        # Per-node (weight, neighbor) tuples of the live edges: the CSR
        # slices pre-zipped for the repair walks, where tuple unpacking
        # beats two indexed loads per edge in CPython.
        self._rows: List[Tuple[Tuple[float, int], ...]] = [
            tuple(zip(weights[indptr[i]:indptr[i + 1]],
                      indices[indptr[i]:indptr[i + 1]]))
            for i in range(len(nodes))
        ]

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

    def neighbor_items(self, node_id: int) -> Tuple[Tuple[float, int], ...]:
        """``(edge_cost, neighbor_id)`` pairs of ``node_id``."""
        return self._rows[node_id]

    def patch_edges(self, updates: Iterable[Tuple[int, int, float]]) -> None:
        """Overwrite edge *costs* in place; the topology must not change.

        ``updates`` holds ``(u_id, v_id, new_cost)`` triples for existing
        edges.  Both CSR directions and the pre-zipped Dijkstra rows of the
        touched endpoints are refreshed.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        touched = set()
        for u, v, cost in updates:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b:
                        weights[pos] = cost
                        break
                else:
                    raise KeyError(f"no edge between ids {u} and {v}")
            touched.add(u)
            touched.add(v)
        self._rebuild_live_rows(touched)

    def _rebuild_live_rows(self, touched: Iterable[int]) -> None:
        """Refresh the pre-zipped rows of ``touched``, skipping tombstones."""
        indptr, indices, weights = self.indptr, self.indices, self.weights
        for node in touched:
            self._rows[node] = tuple(
                (w, nb)
                for w, nb in zip(weights[indptr[node]:indptr[node + 1]],
                                 indices[indptr[node]:indptr[node + 1]])
                if w != INF
            )

    def remove_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Tombstone edges in place: weight becomes ``inf``, slots persist.

        The CSR slots keep their positions (so node ids and every cached
        row array stay stable) but the pre-zipped Dijkstra rows of the
        touched endpoints drop the dead entries entirely -- an absent edge
        must cost the search nothing.  Raises ``KeyError`` for a missing
        or already-removed edge.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        touched = set()
        for u, v in pairs:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b and weights[pos] != INF:
                        weights[pos] = INF
                        break
                else:
                    raise KeyError(f"no live edge between ids {u} and {v}")
            touched.add(u)
            touched.add(v)
        self._rebuild_live_rows(touched)

    def restore_edges(self, updates: Iterable[Tuple[int, int, float]]) -> None:
        """Un-tombstone edges: write a finite cost back into dead slots.

        The inverse of :meth:`remove_edges`; the edge must currently be
        tombstoned (both CSR directions at ``inf``).  Raises ``KeyError``
        when no tombstoned slot exists for a pair.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        touched = set()
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
            touched.add(u)
            touched.add(v)
        self._rebuild_live_rows(touched)

    def clone(self) -> "IndexedGraph":
        """A patchable copy sharing the frozen topology arrays.

        The intern table and CSR structure (``nodes``/``index``/``indptr``/
        ``indices``) are shared -- they only depend on the topology -- while
        ``weights`` and the per-node rows are copied so :meth:`patch_edges`
        on the clone leaves the original untouched.
        """
        dup = object.__new__(IndexedGraph)
        dup.nodes = self.nodes
        dup.index = self.index
        dup.indptr = self.indptr
        dup.indices = self.indices
        dup.weights = self.weights[:]
        dup._rows = list(self._rows)
        return dup

    # ------------------------------------------------------------------
    def dijkstra(
        self,
        source: int,
        targets: Optional[Iterable[int]] = None,
    ) -> Tuple[array, array, bytearray, bool]:
        """Single-source Dijkstra over int ids.

        Push-counter ties (:func:`kernel.settle`) replicate the dict
        Dijkstra's relaxation order, so labels *and* parents equal
        :func:`repro.graph.shortest_paths.dijkstra`'s.

        Args:
            source: start node id.
            targets: optional ids; the search stops once all are settled.

        Returns:
            ``(dist, parent, settled, exhausted)`` -- ``array('d')``/
            ``array('q')`` label buffers indexed by node id (``parent[i]
            == -1`` for the source and unreached nodes), the settled
            flags, and whether the search ran to exhaustion (i.e. the row
            is valid for *every* node, not just the settled ones).  An
            early stop leaves the last settled node's out-edges
            unrelaxed, so the row is then exact on the settled set only.
        """
        n = len(self.nodes)
        dist, parent = kernel.new_labels(n)
        settled = bytearray(n)
        dist[source] = 0.0
        is_target = None
        remaining = 0
        if targets is not None:
            is_target = bytearray(n)
            for t in targets:
                if t != source and not is_target[t]:
                    is_target[t] = 1
                    remaining += 1
        exhausted = kernel.settle(
            self.csr, dist, parent, (source,), settled=settled,
            targets=is_target, remaining=remaining, counter=True,
        )
        return dist, parent, settled, exhausted


class _ContractedCore:
    """The degree-2-contracted search graph behind a :class:`FrozenOracle`.

    Attributes:
        nodes / index: intern table over the *core* nodes (hot nodes and
            every node of degree != 2).
        rows: per-core-node ``(weight, neighbor_cid)`` adjacency; parallel
            candidates (an original edge and/or several spliced chains
            between the same core pair) are reduced to the cheapest one.
        indptr, indices, weights: the CSR mirror of ``rows`` (same
            per-node order) that :func:`kernel.settle` searches.
        meta: ``(a_cid, b_cid) -> interior node tuple`` for every kept
            spliced edge, in a->b order (both orientations stored), used to
            re-expand reconstructed paths.
        chains: every discovered chain (kept or not, including self-loop
            chains) as ``(a_cid, b_cid, interiors, prefix, total)`` where
            ``prefix[i]`` is the along-chain distance from ``a`` to
            ``interiors[i]`` -- enough to serve ``distances_from`` for the
            contracted interiors exactly.
        chain_weights: the original per-edge weights of every chain, in
            walk order -- ``prefix``/``total`` are recomputed from these
            when an interior edge cost is patched.
        pair_direct: ``pairkey -> cost`` of the original core-core edges.
        chain_by_pair: ``pairkey -> chain indices`` connecting that pair,
            in discovery order -- together with ``pair_direct`` the full
            candidate set per pair, so the kept minimum can be re-decided
            after a cost patch.
        edge_loc: original edge (as a node frozenset) -> where it lives in
            the core: ``("d", pairkey)`` for direct core-core edges,
            ``("c", chain_index, position)`` for chain edges.  Edges on
            isolated relay cycles are absent (they never touch the core).
            Purely topological and only needed by patching, so it is built
            lazily on first use (``None`` until then).
    """

    __slots__ = (
        "nodes", "index", "rows", "meta", "chains", "interior",
        "chain_weights", "pair_direct", "chain_by_pair", "edge_loc",
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

        self.pair_direct: Dict[Tuple[int, int], float] = {}
        self.chain_by_pair: Dict[Tuple[int, int], List[int]] = {}
        # Edge -> core-location map; pure topology, so built lazily by the
        # first patch (one-shot pipelines never pay for it).
        self.edge_loc: Optional[Dict[FrozenSet[Node], Tuple]] = None

        index = self.index
        for u in self.nodes:
            ui = index[u]
            for v, cost in adj[u].items():
                vi = index.get(v)
                if vi is not None and ui < vi:
                    offer(ui, vi, cost, ())
                    self.pair_direct[(ui, vi)] = cost

        self.chains: List[
            Tuple[int, int, Tuple[Node, ...], Tuple[float, ...], float]
        ] = []
        self.chain_weights: List[List[float]] = []
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
                chain_index = len(self.chains)
                self.chains.append(
                    (a_cid, b_cid, tuple(interiors), tuple(prefix), total)
                )
                self.chain_weights.append(weights)
                self.interior.update(interiors)
                if a_cid != b_cid:  # self-loop chains never shorten paths
                    offer(a_cid, b_cid, total, tuple(interiors))
                    key = (a_cid, b_cid) if a_cid <= b_cid else (b_cid, a_cid)
                    self.chain_by_pair.setdefault(key, []).append(chain_index)
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
        self.rows: List[Tuple[Tuple[float, int], ...]] = [
            tuple(row) for row in adjacency
        ]
        rows = self.rows
        self.indptr = array("q", accumulate(map(len, rows), initial=0))
        self.indices = array("q", [nb for row in rows for _, nb in row])
        self.weights = array("d", [w for row in rows for w, _ in row])

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

    # ------------------------------------------------------------------
    # incremental cost patching
    # ------------------------------------------------------------------
    def _ensure_edge_loc(self) -> Dict[FrozenSet[Node], Tuple]:
        """Build (once) the original-edge -> core-location map.

        ``("d", pairkey)`` for direct core-core edges, ``("c",
        chain_index, position)`` for chain edges; isolated relay-cycle
        edges stay absent.  Purely topological, so it is derived from the
        candidate bookkeeping on first use and shared by clones.
        """
        if self.edge_loc is None:
            nodes = self.nodes
            loc: Dict[FrozenSet[Node], Tuple] = {}
            for key in self.pair_direct:
                loc[frozenset((nodes[key[0]], nodes[key[1]]))] = ("d", key)
            for chain_index, (a_cid, b_cid, interiors, _, _) in enumerate(
                self.chains
            ):
                walk = [nodes[a_cid], *interiors, nodes[b_cid]]
                for pos, (x, y) in enumerate(zip(walk, walk[1:])):
                    loc[frozenset((x, y))] = ("c", chain_index, pos)
            self.edge_loc = loc
        return self.edge_loc

    def _kept_weight(self, key: Tuple[int, int]) -> float:
        """The currently kept core-edge weight of a candidate pair."""
        a, b = key
        for w, nb in self.rows[a]:
            if nb == b:
                return w
        raise KeyError(f"core pair {key} has no kept edge")

    def _recompute_kept(
        self, key: Tuple[int, int]
    ) -> Tuple[float, Tuple[Node, ...]]:
        """Re-decide the kept candidate of a pair after a cost change.

        Candidates are evaluated in construction order (the direct edge,
        then chains in discovery order) with a strict minimum, replicating
        the constructor's first-encountered-wins tie-break.
        """
        best = self.pair_direct.get(key, INF)
        best_interiors: Tuple[Node, ...] = ()
        for chain_index in self.chain_by_pair.get(key, ()):
            a_cid, _, interiors, _, total = self.chains[chain_index]
            if total < best:
                best = total
                best_interiors = (
                    interiors if a_cid == key[0] else tuple(reversed(interiors))
                )
        return best, best_interiors

    def _set_row_weight(self, a: int, b: int, weight: float) -> None:
        """Set the kept ``a -> b`` weight in ``rows`` and its CSR slot."""
        row = self.rows[a]
        for k, (_, nb) in enumerate(row):
            if nb == b:
                self.rows[a] = row[:k] + ((weight, b),) + row[k + 1:]
                self.weights[self.indptr[a] + k] = weight
                return

    def patch_edges(
        self, changes: Iterable[Tuple[Node, Node, float]]
    ) -> List[Tuple[int, int, float, float]]:
        """Apply original-edge cost updates to the contracted structures.

        Chain prefix sums and totals are recomputed from the stored
        per-edge weights, and for every core pair one of the changed edges
        participates in, the kept candidate is re-decided in construction
        order.  Returns ``(a_cid, b_cid, old_kept, new_kept)`` per affected
        pair, for the caller's row-cache eviction.
        """
        edge_loc = self._ensure_edge_loc()
        affected: Dict[Tuple[int, int], float] = {}
        for u, v, cost in changes:
            loc = edge_loc.get(frozenset((u, v)))
            if loc is None:
                continue  # an isolated relay-cycle edge: slow path only
            if loc[0] == "d":
                key = loc[1]
                if key not in affected:
                    affected[key] = self._kept_weight(key)
                self.pair_direct[key] = cost
            else:
                chain_index, pos = loc[1], loc[2]
                weights = self.chain_weights[chain_index]
                weights[pos] = cost
                a_cid, b_cid, interiors, _, _ = self.chains[chain_index]
                prefix: List[float] = []
                acc = 0.0
                for w in weights[:-1]:
                    acc += w
                    prefix.append(acc)
                self.chains[chain_index] = (
                    a_cid, b_cid, interiors, tuple(prefix), acc + weights[-1]
                )
                if a_cid != b_cid:
                    key = (a_cid, b_cid) if a_cid <= b_cid else (b_cid, a_cid)
                    if key not in affected:
                        affected[key] = self._kept_weight(key)
        out: List[Tuple[int, int, float, float]] = []
        for key, old_weight in affected.items():
            a, b = key
            new_weight, interiors = self._recompute_kept(key)
            if new_weight != old_weight:
                self._set_row_weight(a, b, new_weight)
                self._set_row_weight(b, a, new_weight)
            # The winning candidate may switch even on equal weight (the
            # direct edge wins ties); refresh the expansion map either way.
            if interiors:
                self.meta[(a, b)] = interiors
                self.meta[(b, a)] = tuple(reversed(interiors))
            else:
                self.meta.pop((a, b), None)
                self.meta.pop((b, a), None)
            out.append((a, b, old_weight, new_weight))
        return out

    def clone(self) -> "_ContractedCore":
        """A patchable copy sharing every topology-only structure."""
        self._ensure_edge_loc()  # build once here, share with every clone
        dup = object.__new__(_ContractedCore)
        dup.nodes = self.nodes
        dup.index = self.index
        dup.interior = self.interior
        dup.rows = list(self.rows)
        dup.indptr = self.indptr
        dup.indices = self.indices
        dup.weights = self.weights[:]
        dup.meta = dict(self.meta)
        dup.chains = list(self.chains)
        dup.chain_weights = [list(w) for w in self.chain_weights]
        dup.pair_direct = dict(self.pair_direct)
        dup.chain_by_pair = self.chain_by_pair
        dup.edge_loc = self.edge_loc
        return dup


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

    :meth:`FrozenOracle._patch_rows` runs this over every live row before
    it classifies the batch's increases, because a decrease moves
    parents.  Its label writes stay in this function, so the
    ``fork-mutation-window`` lint rule, which guards the patch against
    a reintroduced fork, sees only the increase write-back there.
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
    """Row-independent classification of one edge-cost change batch.

    The online workload (edge-cost churn) repairs every cached row per
    patch, and most of the *classification* work -- which changed pairs
    can be tree edges, and with which endpoint as the child -- does not
    depend on the row at all.  The plan hoists it:

    - ``increases`` / ``decreases``: the direction partition of the batch
      (the decreases feed :func:`_relax_decreases`, the increases
      :func:`_repair_row`).
    - ``classified`` (lazy): per increased pair ``(a, b, leaf)`` where
      ``leaf`` is the degree-1 endpoint id, or ``-1`` for a general pair.
      A degree-1 node can only ever be the *child* of its single edge (no
      shortest path routes through it), and its detached "region" is the
      node itself, so every row repairs it with one relaxation instead of
      the full region machinery.  In the online simulator the per-request
      VM attachment edges are exactly such leaf edges, and they appear in
      every cached row's tree.

    The remaining per-row fact (is the pair a tree edge *in this row*)
    is answered by one scan pass over the live rows -- see
    :meth:`FrozenOracle._patch_rows`.
    """

    __slots__ = ("increases", "decreases", "_adjacency", "_classified")

    def __init__(
        self,
        adjacency: List[Tuple[Tuple[float, int], ...]],
        changes: Iterable[Tuple[int, int, float, float]],
    ) -> None:
        self.increases: List[Tuple[int, int]] = []
        self.decreases: List[Tuple[int, int, float]] = []
        self._adjacency = adjacency
        self._classified: Optional[List[Tuple[int, int, int]]] = None
        for a, b, old, new in changes:
            if new > old:
                self.increases.append((a, b))
            elif new < old:
                self.decreases.append((a, b, new))

    @property
    def classified(self) -> List[Tuple[int, int, int]]:
        """Leaf-classified increases, built on first use.

        Deferred so topology patches, which preset every removal to the
        general region repair (see :meth:`FrozenOracle.patch_topology`),
        skip the degree lookups.
        """
        if self._classified is None:
            adjacency = self._adjacency
            out = []
            for a, b in self.increases:
                if len(adjacency[b]) == 1:
                    leaf = b
                elif len(adjacency[a]) == 1:
                    leaf = a
                else:
                    leaf = -1
                out.append((a, b, leaf))
            self._classified = out
        return self._classified


def _route_tree_edge(
    row: "_Row",
    sid: int,
    a: int,
    b: int,
    leaf: int,
    general_roots: Dict[int, List[int]],
    leaf_jobs: Dict[int, List[Tuple[int, int]]],
) -> None:
    """Route one changed pair of ``row`` to its repair job, if a tree edge.

    The per-row, per-pair step of :meth:`FrozenOracle._patch_rows`'s
    scan pass: verify the pair against ``row.parent``, then queue the
    detached child either as a ``(leaf, anchor)`` fast job (increased
    degree-1 edge) or as a general region root.
    """
    parent = row.parent
    if parent[b] == a:
        child = b
    elif parent[a] == b:
        child = a
    else:
        return
    if child == leaf:
        leaf_jobs.setdefault(sid, []).append((child, a if child == b else b))
    else:
        general_roots.setdefault(sid, []).append(child)


class _SharedRegion:
    """One detached region -- a dense root's subtree -- shared across rows.

    Scoped to a single patch (the stored boundary/internal weights are
    only valid until the next weight change).  Built from the first
    member row's child walk; every later row *verifies* membership in
    O(region + boundary) -- strictly less than rediscovering the region
    from the adjacency -- and then reuses:

    - ``member``: node-membership bytearray, served read-only as the
      row's ``affect`` set when the row repairs nothing else;
    - ``nodes``: the region's node list (walk order; order is
      outcome-irrelevant, every consumer is value-ordered or idempotent);
    - ``seed_items``: the boundary nodes with their ``(weight,
      neighbor)`` pairs in adjacency order -- the repair's seed scan
      touches only these instead of every region node's full adjacency
      (a node with no boundary edge can never be seeded).

    :meth:`solo_solve` searches the region-internal edges of the patch's
    ``adjacency``, which the region keeps a reference to.

    A row's region equals this one iff every non-root member's parent is
    a member, the root's parent is not, and no boundary edge points
    *into* the region (``parent[outside] == inside``): the first two make
    the member set a subset of the root's subtree (parent chains cannot
    leave it except through the root), the last makes it a superset
    (a subtree node outside the member set would have to enter through a
    boundary edge).
    """

    __slots__ = ("root", "member", "nodes", "seed_items", "adjacency",
                 "_mask", "_reach_mask", "_arrays", "_solo")

    def __init__(
        self,
        adjacency: List[Tuple[Tuple[float, int], ...]],
        parent: List[int],
        root: int,
        n: int,
    ) -> None:
        member = bytearray(n)
        nodes: List[int] = [root]
        member[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for w, u in adjacency[v]:
                if parent[u] == v and not member[u]:
                    member[u] = 1
                    nodes.append(u)
                    stack.append(u)
        seed_items: List[Tuple[int, Tuple[Tuple[float, int], ...]]] = []
        for v in nodes:
            out_row = tuple(
                pair for pair in adjacency[v] if not member[pair[1]]
            )
            if out_row:
                seed_items.append((v, out_row))
        self.root = root
        self.member = member
        self.nodes = nodes
        self.seed_items = seed_items
        self.adjacency = adjacency
        self._mask = None
        self._reach_mask = None
        self._arrays = None
        self._solo = None

    def matches(self, parent: array) -> bool:
        """Whether ``parent``'s subtree below ``root`` is exactly this region.

        Whole-array ops over the row's parent buffer.  A ``-1`` parent
        wraps to the last member byte under numpy fancy indexing, but its
        conjunct is already False, so the wrapped read can never flip the
        outcome.
        """
        p = parent[self.root]
        if p >= 0 and self.member[p]:
            return False
        tail_np, member_view, seed_u, seed_v_rep = self.arrays()[:4]
        pview = kernel.i8_view(parent)
        tp = pview[tail_np]
        if not ((tp >= 0) & (member_view[tp] == 1)).all():
            return False
        if seed_u.size and (pview[seed_u] == seed_v_rep).any():
            return False
        return True

    def arrays(self):
        """Numpy companions of the region structures (lazy, per patch).

        ``(tail_np, member_view, seed_u, seed_v_rep, nodes_np, seed_v,
        seed_w, seed_starts, seed_lens)`` -- the membership/boundary data
        re-expressed as flat arrays so :meth:`matches` and the repair's
        reset and seed scans run as whole-array ops on the rows' label
        buffers.
        """
        arrays = self._arrays
        if arrays is None:
            nodes_np = np.fromiter(self.nodes, np.int64, len(self.nodes))
            tail_np = nodes_np[1:]
            member_view = kernel.u8_view(self.member)
            seed_v = [v for v, _ in self.seed_items]
            lens = np.fromiter(
                (len(seed) for _, seed in self.seed_items),
                np.int64, len(seed_v),
            )
            flat_u: List[int] = []
            flat_w: List[float] = []
            for _, seed in self.seed_items:
                for w, u in seed:
                    flat_u.append(u)
                    flat_w.append(w)
            seed_u = np.fromiter(flat_u, np.int64, len(flat_u))
            seed_w = np.fromiter(flat_w, np.float64, len(flat_w))
            starts = np.zeros(len(seed_v), dtype=np.int64)
            if len(seed_v) > 1:
                np.cumsum(lens[:-1], out=starts[1:])
            seed_v_rep = (
                np.repeat(np.fromiter(seed_v, np.int64, len(seed_v)), lens)
                if len(seed_v) else seed_u
            )
            arrays = self._arrays = (
                tail_np, member_view, seed_u, seed_v_rep, nodes_np,
                seed_v, seed_w, starts, lens,
            )
        return arrays

    def solo_solve(self):
        """The region solved once from its single boundary node (cached).

        Only meaningful for bridge-detached regions (exactly one boundary
        node ``v0``): a Dijkstra over the region-internal edges from
        ``dist[v0] = 0`` whose acceptance order, final tree and
        *separation margin* let :meth:`apply_offset` replay the identical
        float additions per member row from the row's own seed distance.
        Returns ``(order, margin, maxd, depth)`` where ``order`` lists
        ``(node, parent, edge_weight)`` in a topological order of the
        final tree, or ``None`` when the region is not offset-eligible
        (several boundary nodes, or an exact tie makes the margin zero).

        The margin is the smallest nonzero gap between any two candidate
        labels the solve ever computed: every comparison the per-row
        re-dijkstra makes is between two such labels, so a margin wider
        than the accumulated-rounding drift bound guarantees no
        comparison outcome can flip when the whole solve is re-run from a
        nonzero base -- float addition is monotone, so strict orders can
        only collapse, never invert, and the margin rules collapses out.
        A zero margin (an exact tie between distinct labels) disables the
        offset: two different summation paths that tie at base zero may
        round apart at a nonzero base.
        """
        solo = self._solo
        if solo is None:
            if len(self.seed_items) != 1:
                solo = self._solo = (None,)
                return None
            v0 = self.seed_items[0][0]
            adjacency = self.adjacency
            member = self.member
            dist: Dict[int, float] = {v0: 0.0}
            parent: Dict[int, int] = {}
            depth: Dict[int, int] = {v0: 0}
            labels: List[float] = [0.0]
            heap: List[Tuple[float, int]] = [(0.0, v0)]
            push = heapq.heappush
            pop = heapq.heappop
            order: List[Tuple[int, int, float]] = []
            while heap:
                d, v = pop(heap)
                if d > dist[v]:
                    continue
                for w, u in adjacency[v]:
                    if not member[u]:
                        continue
                    nd = d + w
                    labels.append(nd)
                    known = dist.get(u)
                    if known is None or nd < known:
                        dist[u] = nd
                        parent[u] = v
                        depth[u] = depth[v] + 1
                        push(heap, (nd, u))
            labels.sort()
            margin = INF
            for a, b in zip(labels, labels[1:]):
                gap = b - a
                if gap < margin:
                    margin = gap
                    if margin == 0.0:
                        break
            if margin == 0.0:
                # An exact tie between two independently-summed labels:
                # they may round apart once re-based, so no margin bound
                # can clear the offset replay.
                solo = self._solo = (None,)
                return None
            # Topological application order: sort members by final label
            # (parents settle strictly before children -- weights with a
            # zero-weight inner edge would tie, but a tie already zeroed
            # the margin above), tie-impossible hence deterministic.
            ordered = sorted(
                ((d, u) for u, d in dist.items() if u != v0)
            )
            for d, u in ordered:
                p = parent[u]
                for w, x in adjacency[u]:
                    if x == p and dist[p] + w == d:
                        order.append((u, p, w))
                        break
                else:  # pragma: no cover - tree edge always present
                    solo = self._solo = (None,)
                    return None
            maxd = max(dist.values())
            max_depth = max(depth.values())
            solo = self._solo = (order, margin, maxd, max_depth)
        return None if solo[0] is None else solo

    def apply_offset(self, dist, parent) -> bool:
        """Repair one row's copy of this region by per-row offsets.

        The row-side half of the single-boundary shared solve: scan the
        lone boundary node's seed candidates exactly as the heap path
        would (first strict minimum over the intact neighbors), then --
        if the solo margin survives the drift bound at this base --
        replay the solo tree's additions ``dist[child] = dist[parent] +
        w`` in topological order, which is literally the same float
        expression sequence the per-row re-dijkstra evaluates.  Returns
        ``False`` when the caller must fall back to heap seeding for
        this region (margin too small for this row's base, or no cached
        solo); the region's labels are untouched in that case (still at
        the caller's INF/-1 reset).  On a full row the boundary node
        always has a reachable neighbor; without one, ``best`` and the
        drift bound would be ``inf`` and send the region to the heap path.
        """
        solo = self.solo_solve()
        if solo is None:
            return False
        order, margin, maxd, depth = solo
        v0, seed = self.seed_items[0]
        best = INF
        best_parent = -1
        for w, u in seed:
            nd = dist[u] + w
            if nd < best:
                best = nd
                best_parent = u
        drift = (
            (best + maxd) * _EPS * (_OFFSET_ULPS_PER_LEVEL * (depth + 1)
                                    + _OFFSET_ULPS_BASE)
        )
        if margin <= drift:
            return False
        dist[v0] = best
        parent[v0] = best_parent
        for u, p, w in order:
            dist[u] = dist[p] + w
            parent[u] = p
        return True

    @property
    def mask(self) -> int:
        """The member set as a big int (one byte per node, 0/1 values)."""
        if self._mask is None:
            self._mask = int.from_bytes(self.member, "little")
        return self._mask

    @property
    def reach_mask(self) -> int:
        """``mask`` extended by the boundary targets (adjacency closure)."""
        if self._reach_mask is None:
            reach = bytearray(self.member)
            for _, seed in self.seed_items:
                for _, u in seed:
                    reach[u] = 1
            self._reach_mask = int.from_bytes(reach, "little")
        return self._reach_mask


def _combine_regions(
    regions: List[_SharedRegion], n: int
) -> Tuple[bytearray, bool]:
    """Merge several shared regions into one read-only repair context.

    Returns ``(member, mergeable)``: the union membership bytearray
    (valid for any region combination, including nested subtrees) and
    whether the regions are pairwise disjoint *and* non-adjacent -- so
    no repair path can cross between them directly, and each one may be
    seeded and solved as an island.  The adjacency test is one-sided on
    purpose: an edge between two regions appears in both boundaries, so
    accumulating ``reach_mask`` and testing each next region's ``mask``
    against it sees every offending pair.
    """
    union = 0
    for region in regions:
        union |= region.mask
    member = bytearray(union.to_bytes(n, "little"))
    acc = 0
    for region in regions:
        if acc & region.mask:
            return member, False
        acc |= region.reach_mask
    return member, True


def _repair_row(
    adjacency: List[Tuple[Tuple[float, int], ...]],
    csr: Tuple[array, array, array],
    row: "_Row",
    hits: Sequence[_SharedRegion],
    walk_roots: Sequence[int],
    leafs: Iterable[Tuple[int, int]],
    union_cache: Optional[Dict],
) -> None:
    """Apply one plan's increase repairs to a single full cached row.

    The increase half of Ramalingam--Reps: only descendants of a
    detached tree edge can change, so exactly that region is recomputed
    from its boundary of intact nodes.  ``hits`` are the row's shared
    regions (verified to equal its subtrees by
    :meth:`FrozenOracle._resolve_shared`), ``walk_roots`` the detached
    children without one, and ``leafs`` ``(leaf, anchor)`` jobs for
    increased degree-1 edges.  The seeded boundary nodes then run one
    :func:`kernel.settle` over ``csr``, masked to the affected region.

    - ``walk_roots`` regions are discovered per row by scanning
      ``adjacency`` for ``parent[u] == v`` children, so no per-row
      children lists are built or maintained.
    - Shared regions supply the affected set and the boundary seed lists
      instead; seeding and the settle loop perform the same
      value-ordered relaxations as the walk, so shared and walked
      repairs are bit-identical.  Overlapping (nested-subtree) hits may
      seed a node twice -- idempotent, the second pass recomputes the
      same minimum from the same intact neighbors.
    - Bridge-detached regions -- exactly one boundary node -- repair
      through :meth:`_SharedRegion.apply_offset`: the region is solved
      once and each row replays the solve's additions from its own
      boundary seed distance, skipping the per-row settle.  Only engaged
      when the regions are mergeable (independent islands, so removing
      one from the merged settle cannot perturb another), and only when
      the region's separation margin provably survives the re-based
      rounding; every other case takes the settle path.  The shared
      regions' reset scan runs as a whole-array numpy op over the row's
      label buffers, and so does their boundary-seed scan when the
      regions are mergeable (same values: pure gathers/constant stores,
      and the seed scan keeps the first-strict-minimum selection rule);
      non-mergeable region unions keep the scalar seed scan, which must
      skip affected neighbors.
    - Leaf jobs whose anchor is outside every detached region bypass the
      region machinery: the leaf's one edge is relaxed in place
      (``dist[leaf] = dist[anchor] + w``), its parent unchanged.  A leaf
      whose anchor *is* detached was already swept into that region, and
      is repaired there.
    """
    dist = row.dist
    parent = row.parent
    n = len(dist)

    mergeable = False
    walked: List[int] = []
    if hits and not walk_roots:
        if len(hits) == 1:
            affect = hits[0].member  # read-only
            mergeable = True
        else:
            # Hits follow the plan's classification order, which is the
            # same for every row, so a plain tuple key hits the cache.
            key = tuple(map(id, hits))
            cached = union_cache.get(key)
            if cached is None:
                cached = _combine_regions(hits, n)
                union_cache[key] = cached
            affect, mergeable = cached  # read-only
    else:
        if hits:
            mask = 0
            for region in hits:
                mask |= region.mask
            affect = bytearray(mask.to_bytes(n, "little"))
        else:
            affect = bytearray(n)
        stack = []
        for r in walk_roots:
            if not affect[r]:
                affect[r] = 1
                stack.append(r)
        while stack:
            v = stack.pop()
            walked.append(v)
            for w, u in adjacency[v]:
                if parent[u] == v and not affect[u]:
                    affect[u] = 1
                    stack.append(u)

    if hits:
        dview = kernel.f8_view(dist)
        pview = kernel.i8_view(parent)
        for region in hits:
            nodes_np = region.arrays()[4]
            dview[nodes_np] = INF
            pview[nodes_np] = -1
    for v in walked:
        dist[v] = INF
        parent[v] = -1

    seeds: List[int] = []
    if mergeable:
        # Bridge-detached regions solve once and replay per row; a region
        # whose margin check fails stays at the INF/-1 reset and falls
        # back to the ordinary seeding below.  Island independence
        # (pairwise disjoint, non-adjacent regions) makes the partition
        # exact: the merged settle's relaxations never cross regions, so
        # removing one region's seeds cannot change any other's repair.
        settle_hits = []
        for region in hits:
            if len(region.seed_items) == 1 and region.apply_offset(
                dist, parent
            ):
                continue
            settle_hits.append(region)
        # Whole-array boundary seeding.  Mergeable regions guarantee
        # every seed target lies outside all regions (``not affect[u]``
        # is vacuously true), so the scan reduces to a gather plus a
        # first-strict-minimum per boundary segment -- exactly the
        # selection the scalar loop makes.
        for region in settle_hits:
            arrays = region.arrays()
            seed_u, seed_v, seed_w, starts, lens = (
                arrays[2], arrays[5], arrays[6], arrays[7], arrays[8]
            )
            if not seed_v:
                continue
            vals = dview[seed_u] + seed_w
            mins = np.minimum.reduceat(vals, starts)
            size = vals.size
            firsts = np.minimum.reduceat(
                np.where(
                    vals == np.repeat(mins, lens), np.arange(size), size
                ),
                starts,
            )
            for k, v in enumerate(seed_v):
                best = mins[k]
                if best < INF:
                    dist[v] = float(best)
                    parent[v] = int(seed_u[firsts[k]])
                    seeds.append(v)
    else:
        for region in hits:
            for v, seed in region.seed_items:
                best = INF
                best_parent = -1
                for w, u in seed:
                    if not affect[u]:
                        nd = dist[u] + w
                        if nd < best:
                            best = nd
                            best_parent = u
                if best_parent >= 0:
                    dist[v] = best
                    parent[v] = best_parent
                    seeds.append(v)
    for v in walked:
        best = INF
        best_parent = -1
        for w, u in adjacency[v]:
            if not affect[u]:
                nd = dist[u] + w
                if nd < best:
                    best = nd
                    best_parent = u
        if best_parent >= 0:
            dist[v] = best
            parent[v] = best_parent
            seeds.append(v)
    if seeds:
        kernel.settle(csr, dist, parent, seeds, mask=affect)

    for leaf, anchor in leafs:
        if affect[leaf]:
            continue  # swept into a region; repaired there
        d = dist[anchor]
        if d == INF:
            # The anchor itself is unreachable; mirror the region
            # seeding, which finds no boundary parent and leaves the leaf
            # detached.
            dist[leaf] = INF
            parent[leaf] = -1
        else:
            dist[leaf] = d + adjacency[leaf][0][0]


class _Row:
    """One cached single-source result inside :class:`FrozenOracle`.

    ``full`` rows ran to exhaustion and are exact for every node;
    early-stopped rows are exact on their ``settled`` nodes only.  A
    patch repairs full rows in place -- their distances stay exact and
    their parent tree stays a valid shortest-path tree under the new
    costs, with equal-cost tie-breaks possibly differing from a cold
    rebuild's -- and evicts every early-stopped row.
    """

    __slots__ = ("dist", "parent", "settled", "full", "used")

    def __init__(
        self,
        dist: array,
        parent: array,
        settled: Optional[bytearray],
        full: bool,
    ) -> None:
        self.dist = dist
        self.parent = parent
        self.settled = settled
        self.full = full
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
    contracted away, and uncontracted rows are computed with early
    termination once every hot node is settled.

    Undirected symmetry contract: ``distance(u, v) == distance(v, u)``, and
    the oracle is free to answer either direction from whichever row is
    cheapest to obtain.

    Cost and topology patches repair cached rows in place through one
    engine (:meth:`_patch_rows`), whose equivalence reference is the cold
    rebuild: a fresh oracle over the patched graph.
    """

    def __init__(
        self,
        graph: Graph,
        hot: Optional[Iterable[Node]] = None,
        patchable: bool = False,
        row_budget_bytes: Optional[int] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self._graph = graph
        self._hot: set = set(hot) if hot is not None else set()
        #: Patchable oracles expect edge-cost churn: rows run to exhaustion
        #: instead of early-stopping at the hot set, so they survive
        #: patches (a patch repairs only exhaustive rows and evicts the
        #: early-stopped ones).  Served values are bit-identical either
        #: way -- exhaustion only extends the relaxation sequence beyond
        #: the early stop point.
        self._patchable = patchable
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
        if self._metrics is not None and getattr(
            self._metrics, "registry", None
        ) is not None:
            # Region-share group sizes are row counts, not durations;
            # give their histogram size-flavoured buckets.
            self._metrics.registry.declare_histogram(
                "oracle.repair.share_group_rows",
                (1, 4, 16, 64, 256, 1024, 4096),
            )
        #: Canonical node pairs currently tombstoned in the built cores.
        #: A removed edge's CSR slots persist at weight ``inf``, so an
        #: edge may only be (re)inserted while its slots still exist --
        #: i.e. while its pair is recorded here.
        self._tombstones: set = set()
        self._core: Optional[IndexedGraph] = None
        self._contracted: Optional[_ContractedCore] = None
        self._built = False
        self._hot_ids: List[int] = []
        #: The row store (:class:`~repro.graph.rowcache.RowCache`): owns
        #: per-row byte accounting and every eviction policy -- the
        #: idle-at-patch drop, unbounded-repair drops and cost-aware
        #: budget eviction under ``row_budget_bytes``.  ``None`` (the
        #: default) keeps today's unbounded behavior bit-identically;
        #: with a budget, residency is enforced at the oracle's
        #: consistency boundaries (after each row install, at the end of
        #: each patch), so a budgeted oracle serves the same values and
        #: only residency/recompute work differ.
        self._rows: RowCache = RowCache(row_budget_bytes)
        self._slow_rows: Dict[Node, Tuple[Dict[Node, float], Dict[Node, Node]]] = {}
        #: Per-node query counters.  A ``Counter`` rather than a plain
        #: dict so the batched entry points can bump a whole target list
        #: with one C-speed ``update`` -- reads stay dict-compatible.
        self._queries: Counter = Counter()
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
            index = self._core.index
            self._hot_ids = [index[n] for n in self._hot if n in index]
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
            if self._contracted is None:
                index = self._core.index
                self._hot_ids = [index[n] for n in self._hot if n in index]
            self._built = True
        return self._core

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
                self._contracted_row(cid)
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
            self._compute(node_id, None)

    def extend_hot(self, nodes: Iterable[Node]) -> None:
        """Add nodes to the hot set (affects future row computations).

        If a newly hot node was contracted away, the core is rebuilt so
        the node becomes a first-class anchor again.
        """
        fresh = set(nodes) - self._hot
        if not fresh:
            return
        self._hot |= fresh
        if not self._built:
            return
        if self._contracted is not None:
            if any(n in self._contracted.interior for n in fresh):
                self.invalidate()
            return
        index = self._core.index
        # Sorted so the target list is hash-seed-independent; dijkstra
        # flattens targets into per-id flags, so order never reaches rows.
        self._hot_ids.extend(sorted(index[n] for n in fresh if n in index))

    def invalidate(self) -> None:
        """Drop all cached state (call after mutating the graph)."""
        self._core = None
        self._contracted = None
        self._built = False
        self._tombstones.clear()
        self._hot_ids = []
        self._rows.clear()
        self._slow_rows.clear()
        self._queries.clear()
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
        already be an edge: topology changes still require
        :meth:`invalidate`.  New costs are written into the underlying
        graph, the CSR weight arrays and contracted chain weights are
        patched in place, and cached full rows are *repaired*
        (Ramalingam--Reps style: only the region below a changed tree
        edge or reachable from a decreased edge is recomputed) instead
        of recomputed from scratch; early-stopped rows are evicted.  The
        changed batch is partitioned once per patch into a shared
        :class:`_PatchPlan`: its decreases are relaxed into every live
        row first, then its increases drive the region repairs (see
        :meth:`_patch_rows`).

        Returns the number of (deduplicated) edges whose cost actually
        changed.
        """
        graph = self._graph
        merged: Dict[Tuple[Node, Node], Tuple[Node, Node, float]] = {}
        for (u, v), cost in changed.items():
            merged[canonical_edge(u, v)] = (u, v, float(cost))
        # Validate the whole batch before writing anything: a missing edge
        # or an invalid cost must not leave the graph half-mutated with
        # the oracle unpatched.  ``not (cost >= 0.0)`` catches NaN too --
        # every comparison against NaN is False, so it would otherwise
        # slip through the ``cost != old`` gate and poison CSR weights.
        applied: List[Tuple[Node, Node, float, float]] = []
        for u, v, cost in merged.values():
            if not (cost >= 0.0) or math.isinf(cost):
                raise ValueError(
                    f"edge cost must be finite and non-negative, got "
                    f"{cost!r} for edge ({u!r}, {v!r})"
                )
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
        # Exact-but-uncached side caches cannot be patched selectively, and
        # the row-root heuristic counts are reset exactly as a rebuild
        # would, so both paths grow the same row set afterwards.
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        self._slow_rows.clear()
        self._paths.clear()
        self._queries.clear()
        if self._core is not None:
            index = self._core.index
            self._core.patch_edges(
                (index[u], index[v], cost) for u, v, _, cost in applied
            )
        if self._contracted is not None:
            changes = self._contracted.patch_edges(
                (u, v, cost) for u, v, _, cost in applied
            )
        else:
            changes = [
                (index[u], index[v], old, cost) for u, v, old, cost in applied
            ]
        self._patch_rows(changes)
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
        """Can ``patch_topology(inserted={(u, v): ...})`` apply in place?

        True while the oracle is unbuilt (the build reads the mutated
        graph), and otherwise only when the edge holds a tombstoned CSR
        slot from an earlier removal -- the frozen core cannot grow slots
        for brand-new edges, so reviving an edge that died *before* the
        first build needs an :meth:`invalidate`.
        """
        if not self._built:
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

        The built cores are edited through a *tombstone mask*: a removed
        edge's CSR slots persist at weight ``inf`` (node ids and row
        arrays stay stable) while the search-facing adjacency drops the
        entry, so cached rows repair through the ordinary increase
        machinery -- the detached region reconnects through surviving
        edges or legitimately ends *unreachable* (``dist=inf``, parent
        cleared).  Reinsertion is a decrease-from-infinity over the same
        slots, and therefore -- on a built oracle -- requires the pair to
        be a previously removed (tombstoned) edge: the frozen CSR cannot
        grow new slots.  In the contracted core a failed chain edge
        poisons its chain's prefix sums and kept candidate to ``inf``
        locally; no global recontraction runs.  Removal-driven region
        repairs bypass the planner's degree-1 leaf fast path (an
        endpoint's *surviving* degree says nothing about the dead edge),
        always taking the general boundary re-seeding.  The equivalence
        reference is the cold rebuild: a fresh oracle over the mutated
        graph.

        Returns the number of applied topology changes.
        """
        graph = self._graph
        # (``insertable`` answers whether an insert can apply without a
        # rebuild -- callers that may revive edges removed before the
        # first build should check it and fall back to invalidate.)
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
        for key, (u, v, cost) in born.items():
            if not (cost >= 0.0) or math.isinf(cost):
                raise ValueError(
                    f"edge cost must be finite and non-negative, got "
                    f"{cost!r} for edge ({u!r}, {v!r})"
                )
            if graph.has_edge(u, v):
                raise ValueError(
                    f"({u!r}, {v!r}) is already an edge; use "
                    f"patch_edge_costs for cost changes"
                )
            if self._built and key not in self._tombstones:
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
        for key in dead:
            self._tombstones.add(key)
        for key in born:
            self._tombstones.discard(key)
        self._slow_rows.clear()
        self._paths.clear()
        self._queries.clear()
        if self._core is not None:
            index = self._core.index
            self._core.remove_edges(
                (index[u], index[v]) for u, v, _ in removals
            )
            self._core.restore_edges(
                (index[u], index[v], cost) for u, v, cost in born.values()
            )
        if self._contracted is not None:
            changes = self._contracted.patch_edges(
                [(u, v, INF) for u, v, _ in removals]
                + [(u, v, cost) for u, v, cost in born.values()]
            )
        else:
            changes = [
                (index[u], index[v], old, INF) for u, v, old in removals
            ] + [
                (index[u], index[v], INF, cost)
                for u, v, cost in born.values()
            ]
        plan = _PatchPlan(self._search_graph()[0], changes)
        # Force the general region repair: the leaf classification reads
        # *surviving* degrees, which misattribute a removed pair's repair
        # to the wrong (still-live) edge.
        plan._classified = [(a, b, -1) for a, b in plan.increases]
        self._patch_rows(changes, plan=plan)
        if mx:
            mx.inc("oracle.patch.topology_changes", count)
            mx.span("oracle.patch.topology", t0, trace_args={
                "removed": len(removals), "inserted": len(born),
            })
            self._rows.publish(mx)
        return count

    def _search_graph(self) -> Tuple[List, Tuple[array, array, array]]:
        """The active core's per-node ``(weight, neighbor)`` rows and CSR."""
        if self._contracted is not None:
            return self._contracted.rows, self._contracted.csr
        return self._core._rows, self._core.csr

    def _patch_rows(
        self,
        changes: Iterable[Tuple[int, int, float, float]],
        plan: Optional[_PatchPlan] = None,
    ) -> None:
        """Repair (or evict) every cached row after a weight-change batch.

        ``changes`` holds ``(a, b, old_w, new_w)`` in the active core's id
        space, whose adjacency and CSR weights are already patched.
        Only exhaustive rows are repaired: every live early-stopped row
        is evicted first (reason ``"repair"``), since its unsettled
        labels are mere upper bounds that no repair could bound, and
        rows idle since the previous patch are evicted as ``"idle"``.
        Every survivor keeps exact distances and a valid shortest-path
        tree under the new costs, with tie-breaks possibly differing
        from a cold rebuild's.

        One engine serves every batch, in Ramalingam--Reps order.  A batch
        carrying a decrease first runs :func:`_relax_decreases` over every
        live row: a decrease moves parents, so increases can only be
        classified against the relaxed trees.  The increases are
        classified once into the shared :class:`_PatchPlan`, and only
        rows that actually use an increased edge as a tree edge are
        repaired.  One scan pass over the live rows finds them, checking
        each increased pair against the row's parent array (O(rows x
        changes)).

        Detached roots dense enough to clear
        :data:`PLANNER_SHARE_MIN_ROWS` / :data:`PLANNER_SHARE_DENSITY` get
        per-patch shared-region groups: member rows verify against
        (instead of rediscovering) the detached region.  Every other
        root is walked per row by the same repairer, :func:`_repair_row`.

        The repairs form one job list, built in row order together with
        the idle evictions, the shared-region resolution and the repair
        counters, and then run in job order, repairing rows in place.
        """
        adjacency, csr = self._search_graph()
        if plan is None:
            plan = _PatchPlan(adjacency, changes)
        decreases = plan.decreases
        if not plan.increases and not decreases:
            return
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        rows = self._rows
        for sid, row in list(rows.items()):
            if row.used and not row.full:
                rows.evict(sid, "repair")
        if decreases:
            for row in rows.values():
                if row.used:
                    _relax_decreases(csr, row, decreases)

        # Classify the increases once, then scan the live rows for the
        # ones whose tree uses an increased pair.
        general_roots: Dict[int, List[int]] = {}
        leaf_jobs: Dict[int, List[Tuple[int, int]]] = {}
        classified = plan.classified
        for sid, row in rows.items():
            if not row.used:
                continue
            for a, b, leaf in classified:
                _route_tree_edge(
                    row, sid, a, b, leaf, general_roots, leaf_jobs
                )

        live = sum(1 for row in rows.values() if row.used)

        # Dense-patch region sharing: a root detaching the same region in
        # many rows gets a per-patch group whose structures every member
        # row reuses.  Groups are scoped to this patch -- their cached
        # boundary/internal weights go stale at the next weight change.
        share_groups: Optional[Dict[int, List[_SharedRegion]]] = None
        union_cache: Optional[Dict] = None
        if general_roots:
            counts: Dict[int, int] = {}
            for roots in general_roots.values():
                # dict.fromkeys dedups a row's roots in first-appearance
                # order (set order would be hash-bucket order).
                for c in dict.fromkeys(roots):
                    counts[c] = counts.get(c, 0) + 1
            threshold = max(
                PLANNER_SHARE_MIN_ROWS, PLANNER_SHARE_DENSITY * live
            )
            dense = [c for c, k in counts.items() if k >= threshold]
            if dense:
                share_groups = {c: [] for c in dense}
                union_cache = {}
                if mx:
                    # Region-share group sizes: rows per dense root.
                    for c in dense:
                        mx.observe("oracle.repair.share_group_rows", counts[c])

        # One job per row to repair, in row order.  Shared regions are
        # resolved here, before any increase repair writes a row: variant
        # founding is order-dependent.
        jobs: List[Tuple] = []
        for sid, row in list(rows.items()):
            if not row.used:
                # Idle for a whole patch interval: recompute on demand
                # (exactly the rebuild path) instead of repairing forever.
                rows.evict(sid, "idle")
                continue
            row.used = False
            roots = general_roots.get(sid, ())
            leafs = leaf_jobs.get(sid, ())
            if roots or leafs:
                if share_groups is not None and roots:
                    hits, walk_roots = self._resolve_shared(
                        adjacency, row, roots, share_groups
                    )
                else:
                    hits, walk_roots = (), roots
                jobs.append((row, hits, walk_roots, leafs))
                if mx:
                    mx.inc("oracle.repair.rows",
                           path="shared" if hits else "planned")

        for row, hits, walk_roots, leafs in jobs:
            _repair_row(
                adjacency, csr, row, hits, walk_roots, leafs, union_cache
            )

        # Budgeted oracles settle residency at the patch boundary: the
        # accounting invariant is "never over budget *between* patches"
        # (repairs rewrite labels in place and cannot grow a row, so
        # this is a no-op unless the idle drop was outweighed by the
        # interval's installs).
        rows.enforce()
        if mx:
            mx.span("oracle.repair", t0, mode="planned",
                    trace_args={"live": live, "repaired": len(jobs)})

    def _resolve_shared(
        self,
        adjacency: List[Tuple[Tuple[float, int], ...]],
        row: _Row,
        roots: List[int],
        groups: Dict[int, List[_SharedRegion]],
    ) -> Tuple[List[_SharedRegion], List[int]]:
        """Split a row's detached roots into shared-region hits and walks.

        A dense root joins the first group variant whose region matches
        the row's subtree; a non-matching row founds a new variant from
        its own walk (the "region signature" grouping: same detached
        child, same detached node set) until
        :data:`_PLANNER_SHARE_MAX_VARIANTS`, after which it falls back
        to the per-row walk.  Non-dense roots always walk.  Groups are
        keyed by the detached child alone -- a child's region is its
        subtree regardless of which changed pair detached it, so two
        changed pairs sharing a child pool their rows (and their density
        count) into one group.
        """
        hits: List[_SharedRegion] = []
        walk_roots: List[int] = []
        seen: set = set()
        parent = row.parent
        n = len(adjacency)
        for c in roots:
            if c in seen:
                continue  # duplicate root: one region either way
            seen.add(c)
            variants = groups.get(c)
            if variants is None:
                walk_roots.append(c)
                continue
            for region in variants:
                if region.matches(parent):
                    hits.append(region)
                    break
            else:
                if len(variants) < _PLANNER_SHARE_MAX_VARIANTS:
                    region = _SharedRegion(adjacency, parent, c, n)
                    variants.append(region)
                    hits.append(region)
                else:
                    walk_roots.append(c)
        return hits, walk_roots

    def rebased(
        self, graph: Graph, changed: Mapping[Tuple[Node, Node], float]
    ) -> "FrozenOracle":
        """A new oracle over ``graph``, seeded from this oracle's caches.

        ``graph`` must be a copy of this oracle's graph -- identical nodes
        in the same enumeration order and identical edges, still carrying
        the *old* costs -- to which ``changed`` (the
        :meth:`patch_edge_costs` contract) is then applied.  The dynamic
        adjustments use this to reroute on updated costs while leaving the
        original instance and its oracle untouched.

        The clone inherits every constructor knob (``patchable``, the
        row budget and the recorder), the tombstones and the built
        cores, and copies each seeded row's label buffers; its immediate
        patch repairs them like any other.

        A budgeted oracle's clone inherits ``row_budget_bytes`` and
        seeds through the same policy: rows are copied in retention
        order (the reverse of the eviction order) and only while they
        fit the clone's budget, so a dynamic-adjustment clone can never
        double peak residency.  Unbounded oracles copy every row in
        insertion order, exactly as before.
        """
        clone = FrozenOracle(
            graph, hot=self._hot, patchable=self._patchable,
            row_budget_bytes=self._rows.budget_bytes,
            metrics=self._metrics,
        )
        if self._built:
            clone._built = True
            clone._tombstones = set(self._tombstones)
            clone._hot_ids = list(self._hot_ids)
            if self._core is not None:
                clone._core = self._core.clone()
            if self._contracted is not None:
                clone._contracted = self._contracted.clone()
            if self._rows.budget_bytes is None:
                seed_ids = list(self._rows)
            else:
                seed_ids = self._rows.retention_order()
            for source_id in seed_ids:
                row = self._rows[source_id]
                if not clone._rows.would_fit(row):
                    continue  # seed only what fits the clone's budget
                # Deep copies: patching repairs row buffers in place, and
                # the original oracle must keep serving its own graph.
                # Slicing an array buffer copies it as a buffer.
                dup = _Row(
                    row.dist[:],
                    row.parent[:],
                    None if row.settled is None else bytearray(row.settled),
                    row.full,
                )
                dup.used = row.used
                clone._rows[source_id] = dup
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

    def _install_row(self, source_id: int, row: _Row) -> None:
        """Cache ``row``, replacing any previous row of ``source_id``.

        The one install path of every row-replacing recompute (cold
        misses, prefetch batches, full-row upgrades).
        """
        self._rows[source_id] = row
        if self._rows.budget_bytes is not None:
            # Budgeted oracles enforce residency at every install,
            # protecting the row the caller is about to serve from.
            self._rows.enforce(protect=(source_id,))

    def _contracted_row(self, cid: int) -> _Row:
        row = self._rows.get(cid)
        if row is None:
            mx = self._metrics
            t0 = mx.clock() if mx else 0.0
            dist, parent = self._contracted.dijkstra(cid)
            row = _Row(dist, parent, None, True)
            self._install_row(cid, row)
            if mx:
                mx.inc("oracle.rows.cold")
                mx.span("oracle.row_build", t0, kind="cold")
        row.used = True
        return row


    # ------------------------------------------------------------------
    # uncontracted-core machinery
    # ------------------------------------------------------------------
    def _build_row(
        self,
        source_id: int,
        kind: str,
        targets: Optional[List[int]] = None,
    ) -> _Row:
        """Run, install and record one uncontracted row build.

        ``targets`` early-stops the search once they are all settled;
        ``None`` runs it to exhaustion.  ``kind`` labels the
        ``oracle.row_build`` span: ``"cold"`` where no row was cached
        (also counted in ``oracle.rows.cold``), ``"upgrade"`` for a full
        row replacing a cached early-stopped one.
        """
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        dist, parent, settled, exhausted = self.core.dijkstra(
            source_id, targets
        )
        row = _Row(dist, parent, settled, exhausted)
        self._install_row(source_id, row)
        if mx:
            if kind == "cold":
                mx.inc("oracle.rows.cold")
            mx.span("oracle.row_build", t0, kind=kind)
        return row

    def _compute(self, source_id: int, target_id: Optional[int]) -> _Row:
        """Compute and cache a cold row, early-stopped at the hot set if any."""
        targets = None
        if self._hot_ids and not self._patchable:
            targets = (
                self._hot_ids if target_id is None
                else self._hot_ids + [target_id]
            )
        return self._build_row(source_id, "cold", targets)

    def _row_serving(self, source_id: int, target_id: int) -> _Row:
        """A row from ``source_id`` whose entry for ``target_id`` is final."""
        row = self._rows.get(source_id)
        if row is None:
            return self._compute(source_id, target_id)
        if row.full or row.settled[target_id]:
            row.used = True
            return row
        # Cached but early-stopped short of the target: upgrade in full so
        # repeated cold queries never re-run the search.
        return self._build_row(source_id, "upgrade")

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
                row = self._contracted_row(source_id)
            row.used = True
            return row.dist[tid]

        core = self.core
        index = core.index
        source_id = index[source]
        tid = index.get(target)
        if tid is None:
            return INF
        queries = self._queries
        queries[source_id] = queries.get(source_id, 0) + 1
        queries[tid] = queries.get(tid, 0) + 1
        rows = self._rows
        row = rows.get(source_id)
        if row is not None and (row.full or row.settled[tid]):
            row.used = True
            return row.dist[tid]
        rev = rows.get(tid)
        if rev is not None and (rev.full or rev.settled[source_id]):
            rev.used = True
            return rev.dist[source_id]
        if row is None and rev is None:
            # Pick the root more likely to serve future queries.
            hot = self._hot
            su, sv = source in hot, target in hot
            if sv and not su:
                source_id, tid = tid, source_id
            elif su == sv and queries.get(tid, 0) > queries.get(source_id, 0):
                source_id, tid = tid, source_id
            return self._compute(source_id, tid).dist[tid]
        return self._row_serving(source_id, tid).dist[tid]

    def distances_to(self, source: Node, targets: Sequence[Node]) -> List[float]:
        """Shortest-path costs from ``source`` to each of ``targets``.

        Semantically ``[self.distance(source, t) for t in targets]``.
        When the cached ``source`` row already serves every target (full,
        or early-stopped with all targets settled) the answer is one
        zero-copy numpy gather over the row's ``dist`` buffer instead of
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
        if contracted is not None:
            index = contracted.index
            source_id = index.get(source)
            row = self._rows.get(source_id) if source_id is not None else None
            if row is None:
                return [self.distance(source, t) for t in targets]
            tids = _target_ids(index, targets)
            if tids is None:
                # A contracted-away target takes the exact slow path;
                # keep the whole batch on per-query serving.
                return [self.distance(source, t) for t in targets]
            row.used = True
            tid_arr = np.fromiter(tids, np.int64, len(tids))
            return kernel.f8_view(row.dist)[tid_arr].tolist()
        core = self.core
        index = core.index
        source_id = index[source]
        row = self._rows.get(source_id)
        if row is None:
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
        if not row.full:
            sview = kernel.u8_view(row.settled)
            if not (sview[tid_arr] != 0).all():
                return [self.distance(source, t) for t in targets]
        queries = self._queries
        queries[source_id] = queries.get(source_id, 0) + len(present)
        queries.update(present)
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
        self, a: Node, b: Node, targets: Sequence[Node]
    ) -> Optional[Tuple[List[float], List[float]]]:
        """Batched ``d(a, m)`` and ``d(b, m)`` for corridor-detour scans.

        The batch entry point for Procedure 2's pool-cap filter, which
        scores every candidate VM against both corridor endpoints.
        Returns ``(da, db)`` aligned with ``targets`` -- two zero-copy
        numpy gathers over the endpoint rows' ``dist`` buffers -- when
        the two cached endpoint rows can serve every target as-is,
        replicating exactly
        the side effects ``2 * len(targets)`` scalar ``distance`` calls
        would have (counters: +1 per endpoint per served target, +2 per
        target; ``used`` marks; ``inf`` and no counters for targets
        absent from the graph).  Returns ``None`` -- with **no** side
        effects -- whenever any scalar call would have computed, upgraded
        or rev-served a row, so callers fall back to the legacy loop and
        the oracle's cache evolves identically either way.
        """
        mx = self._metrics
        if not mx:
            return self._detour_distances_impl(a, b, targets)
        t0 = mx.clock()
        out = self._detour_distances_impl(a, b, targets)
        if out is not None:
            mx.span("oracle.query", t0, op="detour_distances",
                    trace_args={"targets": len(out[0])})
        return out

    def _detour_distances_impl(
        self, a: Node, b: Node, targets: Sequence[Node]
    ) -> Optional[Tuple[List[float], List[float]]]:
        targets = list(targets)
        if not targets:
            return [], []
        self._build()
        contracted = self._contracted
        if contracted is not None:
            index = contracted.index
            aid = index.get(a)
            bid = index.get(b)
            if aid is None or bid is None:
                return None
            arow = self._rows.get(aid)
            brow = self._rows.get(bid)
            if arow is None or brow is None:
                return None
            tids = _target_ids(index, targets)
            if tids is None:
                return None
            arow.used = True
            brow.used = True
            tid_arr = np.fromiter(tids, np.int64, len(tids))
            return (kernel.f8_view(arow.dist)[tid_arr].tolist(),
                    kernel.f8_view(brow.dist)[tid_arr].tolist())
        core = self.core
        index = core.index
        if a not in index or b not in index:
            return None
        aid = index[a]
        bid = index[b]
        arow = self._rows.get(aid)
        brow = self._rows.get(bid)
        if arow is None or brow is None:
            return None
        tids = _target_ids(index, targets)
        if tids is None:
            tids = [index.get(t) for t in targets]
            present = [tid for tid in tids if tid is not None]
        else:
            present = tids
        tid_arr = np.fromiter(present, np.int64, len(present))
        if present:
            if not arow.full:
                sview = kernel.u8_view(arow.settled)
                if not (sview[tid_arr] != 0).all():
                    return None
            if not brow.full:
                sview = kernel.u8_view(brow.settled)
                if not (sview[tid_arr] != 0).all():
                    return None
        queries = self._queries
        npres = len(present)
        queries[aid] = queries.get(aid, 0) + npres
        queries[bid] = queries.get(bid, 0) + npres
        queries.update(present)
        queries.update(present)
        arow.used = True
        brow.used = True
        da = kernel.f8_view(arow.dist)[tid_arr].tolist()
        db = kernel.f8_view(brow.dist)[tid_arr].tolist()
        if npres != len(tids):
            fa: List[float] = []
            fb: List[float] = []
            k = 0
            for tid in tids:
                if tid is None:
                    fa.append(INF)
                    fb.append(INF)
                else:
                    fa.append(da[k])
                    fb.append(db[k])
                    k += 1
            da, db = fa, fb
        return da, db

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
                    row = self._contracted_row(source_id)
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
        row = self._row_serving(source_id, tid)
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
            row = self._contracted_row(source_id)
            dist = row.dist
            out = {
                node: d
                for node, d in zip(contracted.nodes, dist)
                if d != INF
            }
            # Expand the chain interiors: an interior is reached through
            # whichever chain endpoint is closer along the chain.
            for ci, (a, b, interiors, prefix, total) in enumerate(
                contracted.chains
            ):
                da, db = dist[a], dist[b]
                if total == INF:
                    # A tombstoned (failed) edge sits on this chain:
                    # ``total - pref`` would be ``inf - inf = nan`` for
                    # interiors beyond it, silently dropping nodes still
                    # reachable from the ``b`` side.  Walk explicit
                    # suffix sums instead; ``inf`` weights propagate so
                    # each side sees exactly its reachable stretch.
                    weights = contracted.chain_weights[ci]
                    acc = 0.0
                    suffix = [0.0] * len(interiors)
                    for i in range(len(interiors) - 1, -1, -1):
                        acc += weights[i + 1]
                        suffix[i] = acc
                    for node, pref, suf in zip(interiors, prefix, suffix):
                        d = min(da + pref, db + suf)
                        if d != INF:
                            known = out.get(node)
                            if known is None or d < known:
                                out[node] = d
                    continue
                for node, pref in zip(interiors, prefix):
                    d = min(da + pref, db + (total - pref))
                    if d != INF:
                        known = out.get(node)
                        if known is None or d < known:
                            out[node] = d
            return out

        core = self.core
        source_id = core.index[source]
        row = self._rows.get(source_id)
        if row is None:
            row = self._build_row(source_id, "cold")
        elif not row.full:
            row = self._build_row(source_id, "upgrade")
        row.used = True
        nodes = core.nodes
        return {
            nodes[i]: d for i, d in enumerate(row.dist) if d != INF
        }
