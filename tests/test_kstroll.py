"""k-stroll solver tests."""

import itertools
import random

import numpy as np
import pytest

from repro.graph import KStrollInstance, solve_kstroll
from repro.graph.kstroll import (
    EXACT_DP_NODE_LIMIT,
    solve_kstroll_block,
    solve_kstroll_exact,
    solve_kstroll_greedy,
    solve_kstroll_insertion,
)

INF = float("inf")


def _metric_instance(seed: int, n: int) -> KStrollInstance:
    """Random points on a line -> metric (absolute difference) costs."""
    rng = random.Random(seed)
    points = {i: rng.uniform(0, 100) for i in range(n)}
    cost = {
        u: {v: abs(points[u] - points[v]) for v in points if v != u}
        for u in points
    }
    return KStrollInstance(nodes=list(points), source=0, target=n - 1, cost=cost)


def _brute_force(instance: KStrollInstance, k: int) -> float:
    pool = [n for n in instance.nodes if n not in (instance.source, instance.target)]
    best = float("inf")
    for subset in itertools.combinations(pool, k - 2):
        for order in itertools.permutations(subset):
            path = [instance.source] + list(order) + [instance.target]
            best = min(best, instance.path_cost(path))
    return best


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_exact_matches_brute_force(seed, k):
    instance = _metric_instance(seed, 8)
    path, cost = solve_kstroll_exact(instance, k)
    assert cost == pytest.approx(_brute_force(instance, k))
    assert len(path) == k
    assert len(set(path)) == k
    assert path[0] == instance.source and path[-1] == instance.target
    assert instance.path_cost(path) == pytest.approx(cost)


@pytest.mark.parametrize("solver", [solve_kstroll_insertion, solve_kstroll_greedy])
@pytest.mark.parametrize("seed", range(5))
def test_heuristics_return_valid_paths(solver, seed):
    instance = _metric_instance(seed + 50, 12)
    for k in (2, 4, 6):
        path, cost = solver(instance, k)
        assert len(path) == k
        assert len(set(path)) == k
        assert path[0] == instance.source and path[-1] == instance.target
        assert instance.path_cost(path) == pytest.approx(cost)


@pytest.mark.parametrize("seed", range(8))
def test_insertion_within_2x_of_exact_on_metric(seed):
    instance = _metric_instance(seed + 200, 10)
    for k in (3, 5, 7):
        _, exact_cost = solve_kstroll_exact(instance, k)
        _, ins_cost = solve_kstroll_insertion(instance, k)
        assert ins_cost >= exact_cost - 1e-9
        if exact_cost > 0:
            assert ins_cost <= 2 * exact_cost + 1e-9


def test_k2_is_direct_edge():
    instance = _metric_instance(3, 6)
    path, cost = solve_kstroll(instance, 2, method="exact")
    assert path == [0, 5]
    assert cost == pytest.approx(instance.edge(0, 5))


def test_k_too_large_raises():
    instance = _metric_instance(0, 4)
    with pytest.raises(ValueError):
        solve_kstroll(instance, 6, method="exact")


def test_k_below_two_raises():
    instance = _metric_instance(0, 4)
    with pytest.raises(ValueError):
        solve_kstroll(instance, 1)


def test_auto_dispatch_small_uses_exact():
    instance = _metric_instance(9, 8)
    auto_path, auto_cost = solve_kstroll(instance, 4, method="auto")
    _, exact_cost = solve_kstroll_exact(instance, 4)
    assert auto_cost == pytest.approx(exact_cost)


def test_auto_dispatch_large_uses_better_heuristic():
    instance = _metric_instance(10, 20)
    _, auto_cost = solve_kstroll(instance, 5, method="auto")
    _, ins = solve_kstroll_insertion(instance, 5)
    _, grd = solve_kstroll_greedy(instance, 5)
    assert auto_cost == pytest.approx(min(ins, grd))


def test_unknown_method_raises():
    instance = _metric_instance(0, 5)
    with pytest.raises(ValueError):
        solve_kstroll(instance, 3, method="oracle")


def test_callable_cost_form():
    cost_fn = lambda u, v: abs(u - v)  # noqa: E731
    instance = KStrollInstance(nodes=[0, 1, 2, 3], source=0, target=3, cost=cost_fn)
    path, cost = solve_kstroll_exact(instance, 4)
    assert path == [0, 1, 2, 3]
    assert cost == pytest.approx(3.0)


def test_endpoints_must_be_in_nodes():
    with pytest.raises(ValueError):
        KStrollInstance(nodes=[1, 2], source=0, target=2, cost=lambda u, v: 1.0)


# ----------------------------------------------------------------------
# block heuristics against the scalar dispatcher
# ----------------------------------------------------------------------

def _random_stack(rng, count, n, symmetric):
    """Integer costs 0..4 (many ties), with ``inf`` entries; some rows
    sparse enough that greedy meets an all-``inf`` pool."""
    cost = np.zeros((count, n, n))
    target = np.array([rng.randrange(1, n) for _ in range(count)])
    for p in range(count):
        gap = 0.2 if p % 3 else 0.7
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if symmetric and b < a:
                    cost[p, a, b] = cost[p, b, a]
                else:
                    cost[p, a, b] = INF if rng.random() < gap else rng.randrange(5)
    # Row 0: every candidate unreachable, so a k >= 3 insertion finds no
    # finite delta; row 1: no direct edge, which the scalar caller rejects.
    cost[0, 1:, :] = cost[0, :, 1:] = INF
    cost[0, 0, target[0]] = cost[0, target[0], 0] = 3.0
    cost[1, 0, target[1]] = cost[1, target[1], 0] = INF
    return cost, target


def _dict_instance(cost, target):
    n = len(cost)
    matrix = {a: {b: float(cost[a, b]) for b in range(n) if b != a} for a in range(n)}
    return KStrollInstance(nodes=list(range(n)), source=0, target=int(target), cost=matrix)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_block_heuristics_match_scalar_dispatch(k, symmetric):
    """Stroll and cost bit for bit, instance by instance; an instance
    whose insertion finds no finite delta comes back unsolved, where the
    scalar insertion fails its assertion."""
    rng = random.Random(31 * k + symmetric)
    n = EXACT_DP_NODE_LIMIT + 3  # ``auto`` runs the heuristics
    cost, target = _random_stack(rng, 40, n, symmetric)
    paths, costs, solved = solve_kstroll_block(cost, target, k)
    unsolved = 0
    for p in range(len(cost)):
        if cost[p, 0, target[p]] == INF:
            assert not solved[p]
            continue
        try:
            path, value = solve_kstroll(_dict_instance(cost[p], target[p]), k)
        except AssertionError:
            assert not solved[p]
            unsolved += 1
            continue
        assert solved[p]
        assert paths[p].tolist() == path
        assert costs[p] == value
    assert unsolved > 0 or k == 2


def test_block_rejects_k_beyond_the_nodes():
    with pytest.raises(ValueError):
        solve_kstroll_block(np.zeros((1, 4, 4)), np.array([3]), 5)
