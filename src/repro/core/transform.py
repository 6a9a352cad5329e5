"""Graph transformations: Procedures 1 and 2 of the paper.

Procedure 1 turns the network ``G`` into a complete metric instance ``G``
(script-G in the paper) over ``M ∪ {s}`` whose edge costs fold the VM setup
costs in half onto incident edges, so that a path with ``|C|+1`` nodes in
the instance costs exactly (connection cost of the underlying shortest
paths) + (setup costs of the ``|C|`` visited VMs).  Lemma 1 shows the
instance is metric, which the k-stroll heuristics rely on.

Procedure 2 solves k-stroll on that instance (``k = |C|+1``) and expands the
resulting node sequence back into a walk in ``G`` by concatenating shortest
paths, yielding a candidate service chain from ``s`` to the designated last
VM ``u``.  :func:`chain_walk` does both for one pair; Procedure 3's sweep
solves the capped pairs of a source in numpy blocks (:meth:`PoolCap.stroll`)
and keeps each pair's stroll and cost, and SOFDA expands only the strolls
its Steiner tree selects, through the same :func:`expand_stroll`.  On an
uncontracted oracle with no row budget the sweep prices those strolls'
walks from the oracle rows without building them (see
:func:`~repro.core.sofda.build_auxiliary_graph`).  A walk's costs are
explicit left folds over its edges and VMs, which that pricing equals
bit for bit.

Every scalar Procedure-1 instance is one read-only nested dict.  Over a
pool of VMs it shares the metric block's rows
(:meth:`SOFInstance.metric_rows`) and builds only its source row; a pool
with a non-VM node, or a source with an Appendix-D setup cost
(:meth:`SOFInstance.source_setup_cost`), gets every row priced from the
oracle with Appendix D's sharing, which is the main body's at a zero
source cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph import KStrollInstance, solve_kstroll
from repro.graph.kstroll import solve_kstroll_block
from repro.core.forest import DeployedChain
from repro.core.problem import SOFInstance

Node = Hashable
INF = float("inf")


def build_kstroll_instance(
    instance: SOFInstance,
    source: Node,
    last_vm: Node,
    candidate_vms: Optional[Iterable[Node]] = None,
) -> KStrollInstance:
    """Procedure 1: construct the metric k-stroll instance.

    Args:
        instance: the SOF instance (provides graph, VM set, setup costs
            and the source's Appendix-D setup cost).
        source: the chain's source ``s``.
        last_vm: the designated last VM ``u``.
        candidate_vms: VM pool to draw intermediate VMs from; defaults to
            ``instance.vms``.  ``last_vm`` is always included.

    Returns:
        The complete metric instance over the candidate pool plus ``s``.
        Its cost dict is read only: over a pool of VMs with no source
        setup cost, every pool VM maps to its shared row of
        :meth:`SOFInstance.metric_rows` and only the source row is built
        here.  Procedure 3's block path builds no such instance:
        :meth:`PoolCap.stroll` reads the metric block directly.
    """
    pool = set(candidate_vms) if candidate_vms is not None else set(instance.vms)
    pool.add(last_vm)
    pool.discard(source)
    source_cost = instance.source_setup_cost(source)
    setup_of = instance.setup_cost
    cu = setup_of(last_vm)

    if source_cost == 0.0 and pool <= instance.vms:
        # The |S| x |M| sweep's path: every edge between two VMs is the
        # same for all (source, last_vm) pairs, so share the metric
        # block's rows and price only the source row.  The rows come
        # first: the block's prefetch decides which row serves each
        # source distance.
        rows = instance.metric_rows()
        sorted_vms = instance.sorted_vms()
        if len(pool) == len(sorted_vms) - (source in instance.vms):
            ordered = [v for v in sorted_vms if v != source]
        else:
            ordered = sorted(pool, key=repr)
        base_row = instance.source_vm_distances(source)
        matrix = {v: rows[v] for v in ordered}
        matrix[source] = {
            v: base_row[v] + (cu + setup_of(v)) / 2.0 for v in ordered
        }
    else:
        ordered = sorted(pool, key=repr)
        distance = instance.oracle.distance

        def price(v1: Node, v2: Node) -> float:
            """Appendix D's sharing: an edge end at ``s`` or ``u`` adds
            half of ``c(s) + c(u)``, a VM end half of its setup cost."""
            base = distance(v1, v2)
            if v1 == source:
                if v2 == last_vm:
                    return base + source_cost + cu
                return base + (source_cost + cu + setup_of(v2)) / 2.0
            if last_vm in (v1, v2):
                other = v2 if v1 == last_vm else v1
                return base + (setup_of(other) + source_cost + cu) / 2.0
            return base + (setup_of(v1) + setup_of(v2)) / 2.0

        matrix = {
            v1: {v2: price(v1, v2) for v2 in ordered if v2 != v1}
            for v1 in [source] + ordered
        }
    return KStrollInstance(
        nodes=[source] + ordered, source=source, target=last_vm, cost=matrix
    )


@dataclass
class ChainWalk:
    """Procedure 2 output: a candidate service chain from ``s`` to ``u``.

    Attributes:
        walk: the full walk in ``G`` (shortest-path expansion of the stroll).
        stroll: the stroll node sequence ``(s, m1, ..., m|C|)`` -- the VMs
            that will run ``f1..f|C|`` in order (``m|C|`` is the last VM).
        positions: walk index of each stroll node, aligned with ``stroll``.
        connection_cost: total edge cost of the walk (per traversal).
        setup_cost: total setup cost of the ``|C|`` VMs on the stroll.
    """

    walk: List[Node]
    stroll: List[Node]
    positions: List[int]
    connection_cost: float
    setup_cost: float

    @property
    def total_cost(self) -> float:
        """Connection + setup cost of the candidate chain."""
        return self.connection_cost + self.setup_cost

    @property
    def source(self) -> Node:
        """The chain's source node."""
        return self.stroll[0]

    @property
    def last_vm(self) -> Node:
        """The chain's last VM (runs f_|C|)."""
        return self.stroll[-1]

    def to_deployed_chain(self) -> DeployedChain:
        """Convert to a :class:`DeployedChain` (VNF ``i`` on stroll node ``i+1``)."""
        placements = {self.positions[i + 1]: i for i in range(len(self.stroll) - 1)}
        return DeployedChain(walk=list(self.walk), placements=placements)


#: Above this pool size, chain_walk keeps only the lowest-detour VMs.
POOL_CAP = 24

#: Pairs :meth:`PoolCap.stroll` solves in the first block of a gather.
#: Each later block of the same gather is twice the one before, so a
#: regather discards at most one block, and stroll work stays linear in
#: the pairs however often a row budget forces regathers.
STROLL_BLOCK = 32


class PoolCap:
    """Procedure 2's pool cap for one source across a run of last VMs.

    A pair ``(source, u)`` whose VM pool holds more than :data:`POOL_CAP`
    candidates keeps only the :data:`POOL_CAP` with the lowest corridor
    detour ``(d(s, m) + setup(m)) + d(u, m)``, ties in pool order: the
    repr order of the candidates (``instance.sorted_vms()`` when
    ``candidate_vms`` is ``None``), without ``s`` and ``u``.

    :meth:`select` caps one pair.  Its distances come through the
    oracle's row-serving gate (:meth:`FrozenOracle.detour_distances`):
    when the gate refuses, the pair runs the scalar ``distance`` loop;
    otherwise its scores are one row of a block covering the run's
    remaining last VMs -- the source row plus the setup vector,
    broadcast against the last VMs' rows -- and one stable argsort of
    that row ranks them, so a pair's own interpreter work is bounded by
    the cap, not by the pool.  The stable argsort of a whole row,
    with ``u`` dropped afterwards, orders the pool exactly as sorting
    the pair's own list would, ``inf`` scores of unreachable VMs tying
    in pool order.

    :meth:`stroll` also solves the capped pair's k-stroll (Procedures 1
    and 2) for Procedure 3's sweep: the pools of the pairs a gather
    covers come from one row-wise stable argsort of the score block,
    whose sorted column indices are each pool's repr order, and their
    strolls from one :func:`~repro.graph.kstroll.solve_kstroll_block`
    call over Procedure 1's costs -- the source column against
    :meth:`SOFInstance.metric_block`.  A pair whose gate refuses solves
    its scalar-selected pool as a one-pair block.
    """

    def __init__(
        self,
        instance: SOFInstance,
        source: Node,
        last_vms: Sequence[Node],
        candidate_vms: Optional[Iterable[Node]] = None,
    ) -> None:
        if candidate_vms is None:
            pool = [m for m in instance.sorted_vms() if m != source]
        else:
            wanted = set(candidate_vms)
            wanted.discard(source)
            # Deterministic sweep order: a set's hash-salted iteration
            # order would leak PYTHONHASHSEED into oracle query order
            # (hence row-install order and equal-score tie-breaks).
            pool = sorted(wanted, key=repr)
        self._instance = instance
        self._source = source
        self._last_vms = list(last_vms)
        self._position = {u: i for i, u in enumerate(self._last_vms)}
        self._pool = pool
        self._column = {m: k for k, m in enumerate(pool)}
        self._setups = [instance.setup_cost(m) for m in pool]
        self._block = None
        self._db: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None
        # :meth:`stroll` state: Procedure 1's costs over the pool, read
        # at the first stroll, and the solved block of the current gather
        # (its results for slots ``_solved_first`` on).
        self._procedure1: Optional[Tuple[np.ndarray, ...]] = None
        self._solved_db: Optional[np.ndarray] = None
        self._solved_first = 0
        self._solved: List[Optional[List[Node]]] = []

    def capped(self, last_vm: Node) -> bool:
        """Whether the pool of ``(source, last_vm)`` exceeds the cap."""
        column = self._column.get(last_vm)
        return len(self._pool) - (column is not None) > POOL_CAP

    def select(self, last_vm: Node) -> Optional[Set[Node]]:
        """The capped pool of ``(source, last_vm)``, ``last_vm`` one of
        the run's last VMs; ``None`` when the pool fits the cap."""
        if not self.capped(last_vm):
            return None
        j = self._serve(last_vm)
        if j is None:
            return self._select_scalar(last_vm)
        column = self._column.get(last_vm)
        order = np.argsort(self._scores[j], kind="stable")[:POOL_CAP + 1]
        kept = [k for k in order.tolist() if k != column][:POOL_CAP]
        pool = self._pool
        return {pool[k] for k in kept}

    def block_refusal(self, kstroll_method: str) -> Optional[str]:
        """Why :meth:`stroll` cannot serve this source's pairs, or ``None``.

        The block runs the ``auto`` dispatcher's heuristics on Procedure
        1's main-body costs.  The heuristics are what ``auto`` runs on a
        capped pool (its ``POOL_CAP + 2`` nodes exceed
        :data:`~repro.graph.kstroll.EXACT_DP_NODE_LIMIT`), and the costs
        hold without an Appendix-D source cost.
        """
        if kstroll_method != "auto":
            return "kstroll_method"
        if self._instance.source_setup_cost(self._source):
            return "source_cost"
        return None

    def stroll(self, last_vm: Node, k: int) -> Optional[List[Node]]:
        """Procedure 2's k-stroll of the capped pair ``(source, last_vm)``.

        For a source :meth:`block_refusal` clears and a pool of VMs.  The
        pair passes its gate exactly as in :meth:`select`, and the first
        call reads :meth:`SOFInstance.metric_block` and the source's
        :meth:`SOFInstance.source_vm_distances` after it, where the scalar
        path's ``build_kstroll_instance`` reads them, so every oracle
        side effect happens in the scalar path's order.

        Returns the stroll node list ``chain_walk`` would expand, or
        ``None`` when ``chain_walk`` would return ``None`` -- an
        unreachable last VM, or no feasible k-stroll in the capped pool.
        """
        j = self._serve(last_vm)
        if j is None:
            pool = self._select_scalar(last_vm)
            pool.add(last_vm)
            columns = sorted(self._column[m] for m in pool)
            self._procedure1_costs()
            return self._solve(
                np.array([columns]), np.array([self._column[last_vm]]), k
            )[0]
        self._procedure1_costs()
        if self._db is not self._solved_db:
            self._solved_db = self._db
            self._solved_first = j
            self._solved = []
        offset = j - self._solved_first
        if not 0 <= offset < len(self._solved):
            # Solve lazily, from this pair on, doubling the block.
            size = max(STROLL_BLOCK, 2 * len(self._solved))
            stop = min(len(self._db), j + size)
            pairs = self._block.pairs[j:stop]
            last_columns = np.array(
                [self._column[self._last_vms[i]] for i in pairs]
            )
            order = np.argsort(self._scores[j:stop], axis=1, kind="stable")
            order = order[:, :POOL_CAP + 1]
            # The pool is the cap + 1 best with ``u``, or the cap best
            # and ``u``: its sorted columns are its repr order.
            missing = ~(order == last_columns[:, None]).any(axis=1)
            order[missing, POOL_CAP] = last_columns[missing]
            order.sort(axis=1)
            self._solved_first = j
            self._solved = self._solve(order, last_columns, k)
            offset = 0
        return self._solved[offset]

    def _serve(self, last_vm: Node) -> Optional[int]:
        """Pass the pair's gate: its score row, or ``None`` on refusal."""
        block = self._block
        if block is None:
            block = self._block = self._instance.oracle.detour_distances(
                self._source, self._last_vms, self._pool
            )
        served = block.serve(self._position[last_vm])
        if served is None:
            return None
        da, db, j = served
        if db is not self._db:
            # Elementwise IEEE doubles in the scalar loop's association,
            # ``(d1 + setup) + d2``, so scores are bit-identical.
            self._db = db
            self._scores = (da + np.asarray(self._setups)) + db
        return j

    def _select_scalar(self, last_vm: Node) -> Set[Node]:
        """The cap through per-candidate ``distance`` calls."""
        distance = self._instance.oracle.distance
        source = self._source

        def detour(item: Tuple[Node, float]) -> float:
            """Corridor detour score of a candidate intermediate VM."""
            m, setup = item
            # Query from the endpoints so only two Dijkstras are cached.
            return distance(source, m) + setup + distance(last_vm, m)

        ranked = sorted(
            (item for item in zip(self._pool, self._setups)
             if item[0] != last_vm),
            key=detour,
        )
        return {m for m, _ in ranked[:POOL_CAP]}

    def _procedure1_costs(self) -> None:
        """Read Procedure 1's source-independent costs over the pool."""
        if self._procedure1 is not None:
            return
        instance = self._instance
        block = instance.metric_block()
        distances = instance.source_vm_distances(self._source)
        position = {m: i for i, m in enumerate(instance.sorted_vms())}
        self._procedure1 = (
            block,
            np.array([position[m] for m in self._pool]),
            np.array([distances[m] for m in self._pool]),
        )

    def _solve(
        self, columns: np.ndarray, last_columns: np.ndarray, k: int
    ) -> List[Optional[List[Node]]]:
        """:meth:`stroll`'s results for pools given as sorted columns."""
        count, size = columns.shape
        if k > size + 1:
            return [None] * count
        block, index, base = self._procedure1
        setups = np.asarray(self._setups)
        vms = index[columns]
        # Node 0 is the source, node ``c + 1`` the pool's ``c``-th VM.
        cost = np.empty((count, size + 1, size + 1))
        cost[:, 1:, 1:] = block[vms[:, :, None], vms[:, None, :]]
        # ``build_kstroll_instance``'s source column for last VM ``u``:
        # ``d(s, m) + (setup(u) + setup(m)) / 2``, ``inf`` kept.
        source = base[columns] + (
            setups[last_columns][:, None] + setups[columns]
        ) / 2.0
        cost[:, 0, 0] = 0.0
        cost[:, 0, 1:] = source
        cost[:, 1:, 0] = source
        target = (columns == last_columns[:, None]).argmax(axis=1) + 1
        paths, costs, solved = solve_kstroll_block(cost, target, k)
        direct = cost[np.arange(count), 0, target] < INF
        pool = self._pool
        out: List[Optional[List[Node]]] = []
        for p in range(count):
            if not direct[p] or not solved[p] or costs[p] == INF:
                out.append(None)
            else:
                stroll = [self._source]
                steps = columns[p, paths[p, 1:] - 1].tolist()
                stroll.extend(pool[c] for c in steps)
                out.append(stroll)
        return out


def expand_stroll(instance: SOFInstance, stroll: Sequence[Node]) -> ChainWalk:
    """Procedure 2's walk behind a stroll ``(s, m1, ..., m|C|)``.

    Concatenates one ``oracle.path`` per hop, then folds the walk's edge
    costs and the setup costs of the stroll's VMs, each left to right
    from ``0``.  The folds are explicit: ``sum`` of floats is compensated
    since Python 3.12, and :meth:`WalkBatch.costs` must equal this walk's
    ``total_cost`` bit for bit.
    """
    path = instance.oracle.path
    walk: List[Node] = [stroll[0]]
    positions: List[int] = [0]
    for a, b in zip(stroll, stroll[1:]):
        walk.extend(path(a, b)[1:])
        positions.append(len(walk) - 1)
    cost = instance.graph.cost
    connection = 0
    for u, v in zip(walk, walk[1:]):
        connection += cost(u, v)
    setup = 0
    for node in stroll[1:]:
        setup += instance.setup_cost(node)
    return ChainWalk(
        walk=walk,
        stroll=list(stroll),
        positions=positions,
        connection_cost=connection,
        setup_cost=setup,
    )


def chain_walk(
    instance: SOFInstance,
    source: Node,
    last_vm: Node,
    candidate_vms: Optional[Iterable[Node]] = None,
    kstroll_method: str = "auto",
    num_vms: Optional[int] = None,
) -> Optional[ChainWalk]:
    """Procedure 2: find a walk from ``source`` through ``num_vms`` VMs to ``last_vm``.

    ``num_vms`` defaults to ``|C|``.  Returns ``None`` when the pool is too
    small or endpoints are unreachable (callers treat the candidate as
    unavailable rather than failing the whole embedding).

    When the VM pool exceeds :data:`POOL_CAP`, only the :data:`POOL_CAP`
    candidates with the lowest detour ``d(s, m) + setup(m) + d(m, u)``
    are kept: a cheap walk never strays far from the source--last-VM
    corridor, so the restriction is empirically lossless while bounding
    the k-stroll cost independently of ``|M|``.  The cap runs through a one-pair
    :class:`PoolCap`.  Procedure 3's sweep caps all the pairs of a source
    through one :class:`PoolCap` instead and solves the strolls of their
    capped pools there (:meth:`PoolCap.stroll`); it calls this function,
    with the capped pool as ``candidate_vms``, only for the pairs that
    block does not cover.
    """
    chain_len = num_vms if num_vms is not None else len(instance.chain)
    if chain_len < 1:
        raise ValueError("chain length must be >= 1")
    if last_vm == source:
        return None
    pool = set(candidate_vms) if candidate_vms is not None else set(instance.vms)
    pool.discard(source)
    pool.discard(last_vm)
    if len(pool) > POOL_CAP:
        pool = PoolCap(
            instance, source, [last_vm],
            candidate_vms=None if candidate_vms is None else pool,
        ).select(last_vm)
    kinst = build_kstroll_instance(
        instance, source, last_vm, candidate_vms=pool
    )
    k = chain_len + 1  # |C| VMs plus the source itself
    if k > len(kinst.nodes):
        return None
    if kinst.edge(source, last_vm) == INF:
        return None
    try:
        stroll, stroll_cost = solve_kstroll(kinst, k, method=kstroll_method)
    except ValueError:
        return None
    if stroll_cost == INF:
        return None

    return expand_stroll(instance, stroll)
