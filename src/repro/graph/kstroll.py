"""k-stroll solvers over metric instances.

Definition 2 of the paper: given a weighted graph and two nodes ``s`` and
``u``, find the shortest walk from ``s`` to ``u`` visiting at least ``k``
distinct nodes (including ``s`` and ``u``).  SOFDA only ever solves k-stroll
on the *metric* instances produced by Procedure 1 (complete graphs whose
edge costs satisfy the triangle inequality, Lemma 1), where the optimal
walk can be taken to be a simple path with exactly ``k`` nodes.

The paper cites the Chaudhuri--Godfrey--Rao--Talwar (FOCS'03)
2-approximation as a black box.  Per DESIGN.md we substitute:

- :func:`solve_kstroll_exact` -- Held--Karp style subset DP, optimal, used
  whenever the candidate pool is small (the common case: ``|M|+1 <= 15``).
- :func:`solve_kstroll_insertion` -- cheapest-insertion heuristic (the
  classic metric path-TSP relaxation).
- :func:`solve_kstroll_greedy` -- nearest-extension heuristic, used as a
  second candidate; the dispatcher keeps the better of the two heuristics.
- :func:`solve_kstroll_block` -- the ``auto`` dispatcher's two heuristics
  over a stack of instances at once, in numpy, bit for bit.

All solvers return a simple path ``s = v1, v2, ..., vk = u`` over distinct
nodes; by the triangle inequality its cost lower-bounds any longer walk that
visits the same node set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

Node = Hashable
INF = float("inf")

#: Largest candidate-pool size for which the exact DP is attempted by the
#: ``auto`` dispatcher.  2^15 * 15^2 ~ 7.4M relaxations is still snappy.
EXACT_DP_NODE_LIMIT = 15


@dataclass
class KStrollInstance:
    """A metric k-stroll instance: endpoints plus a complete cost matrix.

    Attributes:
        nodes: all candidate nodes (must include ``source`` and ``target``).
        source: the walk's start node (the chain's source in SOF).
        target: the walk's end node (the chain's last VM in SOF).
        cost: either a symmetric nested-dict lookup ``cost[u][v]`` or a
            callable ``cost(u, v)`` evaluated lazily -- large SOF sweeps use
            the callable form to avoid materialising |M|^2 matrices per
            (source, last-VM) pair.
    """

    nodes: List[Node]
    source: Node
    target: Node
    cost: object

    def __post_init__(self) -> None:
        if self.source not in self.nodes:
            raise ValueError("source must be among the instance nodes")
        if self.target not in self.nodes:
            raise ValueError("target must be among the instance nodes")

    def edge(self, u: Node, v: Node) -> float:
        """Cost of the (complete-graph) edge between ``u`` and ``v``."""
        if callable(self.cost):
            return self.cost(u, v)
        return self.cost[u][v]

    def path_cost(self, path: Sequence[Node]) -> float:
        """Total cost of a path in the instance."""
        return sum(self.edge(a, b) for a, b in zip(path, path[1:]))


def _validate_k(instance: KStrollInstance, k: int) -> List[Node]:
    """Common argument checks; returns the intermediate candidate pool."""
    if k < 2:
        raise ValueError(f"k must be >= 2 (got {k})")
    if instance.source == instance.target and k > 1:
        raise ValueError("source and target must differ for k >= 2")
    pool = [n for n in instance.nodes if n not in (instance.source, instance.target)]
    if k - 2 > len(pool):
        raise ValueError(
            f"cannot visit {k} distinct nodes: only {len(pool) + 2} available"
        )
    return pool


def solve_kstroll_exact(instance: KStrollInstance, k: int) -> Tuple[List[Node], float]:
    """Optimal k-stroll path via Held--Karp subset DP.

    ``dp[S][v]`` is the cheapest simple path from the source through the
    intermediate subset ``S`` ending at ``v`` (``v`` in ``S``); the answer
    appends the final hop to the target and minimises over ``|S| = k - 2``.
    Exponential in the candidate-pool size -- guard with
    :data:`EXACT_DP_NODE_LIMIT`.
    """
    pool = _validate_k(instance, k)
    s, t = instance.source, instance.target
    need = k - 2
    if need == 0:
        return [s, t], instance.edge(s, t)

    n = len(pool)
    index = {node: i for i, node in enumerate(pool)}
    # dp maps (mask, last_index) -> cost; parent for reconstruction.
    dp: List[List[float]] = [[INF] * n for _ in range(1 << n)]
    parent: Dict[Tuple[int, int], int] = {}
    for i, node in enumerate(pool):
        dp[1 << i][i] = instance.edge(s, node)

    best_cost = INF
    best_state: Optional[Tuple[int, int]] = None
    for mask in range(1, 1 << n):
        count = mask.bit_count()
        if count > need:
            continue
        row = dp[mask]
        for last in range(n):
            cost = row[last]
            if cost == INF or not (mask >> last) & 1:
                continue
            if count == need:
                total = cost + instance.edge(pool[last], t)
                if total < best_cost:
                    best_cost = total
                    best_state = (mask, last)
                continue
            for nxt in range(n):
                if (mask >> nxt) & 1:
                    continue
                ncost = cost + instance.edge(pool[last], pool[nxt])
                nmask = mask | (1 << nxt)
                if ncost < dp[nmask][nxt]:
                    dp[nmask][nxt] = ncost
                    parent[(nmask, nxt)] = last

    if best_state is None:
        raise ValueError("no feasible k-stroll found")
    mask, last = best_state
    order = [pool[last]]
    while mask.bit_count() > 1:
        prev = parent[(mask, last)]
        mask ^= 1 << last
        last = prev
        order.append(pool[last])
    order.reverse()
    path = [s] + order + [t]
    return path, best_cost


def solve_kstroll_insertion(instance: KStrollInstance, k: int) -> Tuple[List[Node], float]:
    """Cheapest-insertion heuristic.

    Starts from the direct ``s -> t`` edge and repeatedly inserts the
    candidate node whose best insertion position increases the path cost
    least, until ``k`` distinct nodes are on the path.  This is the standard
    metric path-TSP construction; on triangle-inequality instances it is the
    practical stand-in for the cited 2-approximation.
    """
    pool = _validate_k(instance, k)
    s, t = instance.source, instance.target
    path = [s, t]
    # Keep the pool's (deterministic) order: a set here would break
    # equal-delta ties in hash-salted iteration order.
    remaining = list(pool)
    cost = instance.cost
    matrix = None if callable(cost) else cost
    edge = instance.edge
    while len(path) < k:
        best_delta = INF
        best_node: Optional[Node] = None
        best_pos = -1
        # Hoist the per-position hop costs and cost rows: they are
        # identical for every candidate node of this round.
        positions = range(len(path) - 1)
        hop = [edge(path[pos], path[pos + 1]) for pos in positions]
        if matrix is not None:
            rows = [matrix[path[pos]] for pos in positions]
            for node in remaining:
                row_n = matrix[node]
                for pos in positions:
                    delta = rows[pos][node] + row_n[path[pos + 1]] - hop[pos]
                    if delta < best_delta:
                        best_delta, best_node, best_pos = delta, node, pos
        else:
            for node in remaining:
                for pos in positions:
                    delta = edge(path[pos], node) + edge(node, path[pos + 1]) - hop[pos]
                    if delta < best_delta:
                        best_delta, best_node, best_pos = delta, node, pos
        assert best_node is not None
        path.insert(best_pos + 1, best_node)
        remaining.remove(best_node)
    return path, instance.path_cost(path)


def solve_kstroll_greedy(instance: KStrollInstance, k: int) -> Tuple[List[Node], float]:
    """Nearest-extension heuristic.

    Grows the path from the source, always stepping to the cheapest unused
    candidate, then closes to the target.  Cheap and occasionally better
    than insertion on strongly clustered instances; the ``auto`` dispatcher
    keeps the better of the two.
    """
    pool = _validate_k(instance, k)
    s, t = instance.source, instance.target
    path = [s]
    # Keep the pool's (deterministic) order: ``min`` over a set breaks
    # equal-cost ties in hash-salted iteration order.
    remaining = list(pool)
    cost = instance.cost
    matrix = None if callable(cost) else cost
    while len(path) < k - 1:
        current = path[-1]
        if matrix is not None:
            nxt = min(remaining, key=matrix[current].__getitem__)
        else:
            nxt = min(remaining, key=lambda node: instance.edge(current, node))
        path.append(nxt)
        remaining.remove(nxt)
    path.append(t)
    return path, instance.path_cost(path)


def solve_kstroll(
    instance: KStrollInstance,
    k: int,
    method: str = "auto",
) -> Tuple[List[Node], float]:
    """Solve a metric k-stroll instance.

    Args:
        instance: the metric instance (Procedure 1 output).
        k: minimum number of distinct nodes to visit, including endpoints.
        method: ``exact``, ``insertion``, ``greedy``, or ``auto`` (exact when
            the pool is small, otherwise the better of the two heuristics).

    Returns:
        ``(path, cost)`` -- a simple path with exactly ``k`` distinct nodes.
    """
    if method == "exact":
        return solve_kstroll_exact(instance, k)
    if method == "insertion":
        return solve_kstroll_insertion(instance, k)
    if method == "greedy":
        return solve_kstroll_greedy(instance, k)
    if method != "auto":
        raise ValueError(f"unknown k-stroll method {method!r}")
    if len(instance.nodes) <= EXACT_DP_NODE_LIMIT:
        return solve_kstroll_exact(instance, k)
    insertion = solve_kstroll_insertion(instance, k)
    greedy = solve_kstroll_greedy(instance, k)
    return insertion if insertion[1] <= greedy[1] else greedy


def solve_kstroll_block(
    cost: np.ndarray, target: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``auto`` dispatcher's heuristic branch over a stack of instances.

    ``cost[p]`` is instance ``p``'s ``n x n`` cost matrix (``cost[p, a,
    b]`` the edge from node ``a`` to node ``b``; entries non-negative or
    ``inf``), node ``0`` its source and node ``target[p]`` its target.
    Every other node is a candidate, in index order: the order in which
    :func:`solve_kstroll_insertion` and :func:`solve_kstroll_greedy`
    meet them, and so break ties.  Both heuristics run on every instance
    at once with the scalar solvers' IEEE association (``(a + b) - hop``
    deltas, path costs summed left to right from ``0``), first-minimum
    tie-breaks (candidate-major, then position) and the dispatcher's
    rule (insertion when its cost is ``<=`` greedy's), so a solved
    instance's stroll and cost equal ``solve_kstroll(instance, k)`` on an
    instance of more than :data:`EXACT_DP_NODE_LIMIT` nodes bit for bit.

    Returns ``(paths, costs, solved)``: ``paths[p]`` holds the ``k`` node
    indices of instance ``p``'s stroll and ``costs[p]`` its cost where
    ``solved[p]``.  ``solved[p]`` is ``False`` where the direct edge
    ``cost[p, 0, target[p]]`` is ``inf`` (the scalar caller rejects the
    pair before solving) or an insertion round finds no finite delta
    (the scalar insertion fails its assertion); those rows of ``paths``
    and ``costs`` mean nothing.
    """
    count, n, _ = cost.shape
    if not 2 <= k <= n:
        raise ValueError(f"cannot visit {k} distinct nodes out of {n}")
    inserted, solved = _insertion_block(cost, target, k)
    greedy = _greedy_block(cost, target, k)
    inserted_cost = _path_costs(cost, inserted)
    greedy_cost = _path_costs(cost, greedy)
    keep = inserted_cost <= greedy_cost
    paths = np.where(keep[:, None], inserted, greedy)
    return paths, np.where(keep, inserted_cost, greedy_cost), solved


def _insertion_block(
    cost: np.ndarray, target: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`solve_kstroll_insertion` on every instance of the stack.

    Returns ``(paths, solved)``.  An instance leaves the working set as
    soon as it is unsolved, so every hop cost the rounds subtract stays
    finite and no ``inf - inf`` is ever formed.
    """
    count, n, _ = cost.shape
    paths = np.zeros((count, k), np.int64)
    paths[:, 1] = target
    solved = np.isfinite(cost[np.arange(count), 0, target])
    live = np.flatnonzero(solved)
    c = cost[live]
    ct = c.transpose(0, 2, 1)
    path = paths[live]
    free = np.ones((len(live), n), bool)
    free[:, 0] = False
    free[np.arange(len(live)), target[live]] = False
    for length in range(2, k):
        rows = np.arange(len(live))[:, None]
        heads, tails = path[:, :length - 1], path[:, 1:length]
        hop = c[rows, heads, tails]
        # delta[p, pos, node]: ``(c(head, node) + c(node, tail)) - hop``.
        delta = (c[rows, heads] + ct[rows, tails]) - hop[:, :, None]
        delta = np.where(free[:, None, :], delta, INF)
        # Candidate-major, then position: the scalar loop's nesting.
        flat = delta.transpose(0, 2, 1).reshape(len(live), n * (length - 1))
        best = flat.argmin(axis=1)
        ok = flat[rows[:, 0], best] < INF
        if not ok.all():
            solved[live[~ok]] = False
            live, c, ct = live[ok], c[ok], ct[ok]
            path, free, best = path[ok], free[ok], best[ok]
            rows = rows[:len(live)]
        node, pos = np.divmod(best, length - 1)
        # Shift everything after ``pos`` one slot right, then drop the
        # node into the gap.
        cols = np.arange(length + 1)
        grown = np.take_along_axis(
            path, cols - (cols > pos[:, None] + 1), axis=1
        )
        grown[rows[:, 0], pos + 1] = node
        path[:, :length + 1] = grown
        free[rows[:, 0], node] = False
    paths[live] = path
    return paths, solved


def _greedy_block(cost: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """:func:`solve_kstroll_greedy` on every instance of the stack."""
    count, n, _ = cost.shape
    rows = np.arange(count)
    path = np.zeros((count, k), np.int64)
    path[:, k - 1] = target
    free = np.ones((count, n), bool)
    free[:, 0] = False
    free[rows, target] = False
    current = path[:, 0]
    for step in range(1, k - 1):
        step_cost = np.where(free, cost[rows, current], INF)
        nxt = step_cost.argmin(axis=1)
        # ``min`` over an all-``inf`` pool keeps its first candidate.
        stuck = step_cost[rows, nxt] == INF
        nxt[stuck] = free[stuck].argmax(axis=1)
        path[:, step] = nxt
        free[rows, nxt] = False
        current = nxt
    return path


def _path_costs(cost: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """:meth:`KStrollInstance.path_cost` of each row: ``sum`` from ``0``."""
    rows = np.arange(len(paths))
    total = np.zeros(len(paths))
    for i in range(paths.shape[1] - 1):
        total = total + cost[rows, paths[:, i], paths[:, i + 1]]
    return total
