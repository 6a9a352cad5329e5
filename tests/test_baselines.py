"""Tests for the ST / eST / eNEMP baselines."""

import statistics

import pytest

from helpers import random_instance
from repro import check_forest, sofda
from repro.baselines import enemp_baseline, est_baseline, st_baseline
from repro.baselines.common import assemble_forest, chain_total_cost, greedy_chain


@pytest.mark.parametrize("baseline", [st_baseline, est_baseline, enemp_baseline])
@pytest.mark.parametrize("seed", range(6))
def test_baselines_feasible(baseline, seed):
    instance = random_instance(seed, n=18, num_vms=7, num_sources=3,
                               num_dests=4, chain_len=3)
    forest = baseline(instance)
    check_forest(instance, forest)


def test_st_single_tree(fig2_instance):
    forest = st_baseline(fig2_instance)
    check_forest(fig2_instance, forest)
    assert forest.num_trees() == 1


@pytest.mark.parametrize("baseline", [est_baseline, enemp_baseline])
def test_single_source_mode(baseline, fig2_instance):
    single = baseline(fig2_instance, multi_source=False)
    multi = baseline(fig2_instance, multi_source=True)
    check_forest(fig2_instance, single)
    assert single.num_trees() == 1
    assert multi.total_cost() <= single.total_cost() + 1e-9


def test_greedy_chain_structure(fig2_instance):
    chain = greedy_chain(fig2_instance, 1, fig2_instance.vms)
    assert chain is not None
    assert chain.source == 1
    assert [v for _, v in chain.vnf_positions()] == [0, 1]
    for a, b in chain.all_edges():
        assert fig2_instance.graph.has_edge(a, b)


def test_greedy_chain_pool_too_small(fig2_instance):
    assert greedy_chain(fig2_instance, 1, {2}) is None


def test_chain_total_cost(fig2_instance):
    chain = greedy_chain(fig2_instance, 1, fig2_instance.vms)
    cost = chain_total_cost(fig2_instance, chain)
    edges = sum(fig2_instance.graph.cost(a, b) for a, b in chain.all_edges())
    setups = sum(
        fig2_instance.setup_cost(chain.walk[p]) for p in chain.placements
    )
    assert cost == pytest.approx(edges + setups)


def test_assemble_forest_assigns_nearest(fig2_instance):
    from repro.baselines.common import SingleTree

    chain = greedy_chain(fig2_instance, 1, fig2_instance.vms)
    tree = SingleTree(source=1, chain=chain,
                      chain_cost=chain_total_cost(fig2_instance, chain))
    forest = assemble_forest(fig2_instance, [tree])
    check_forest(fig2_instance, forest)


def test_sofda_beats_baselines_on_average():
    """The paper's headline: SOFDA is the cheapest heuristic on average."""
    sofda_costs, other = [], {"eNEMP": [], "eST": [], "ST": []}
    for seed in range(10):
        instance = random_instance(seed + 700, n=20, num_vms=8,
                                   num_sources=3, num_dests=4, chain_len=3)
        sofda_costs.append(sofda(instance).cost)
        other["eNEMP"].append(enemp_baseline(instance).total_cost())
        other["eST"].append(est_baseline(instance).total_cost())
        other["ST"].append(st_baseline(instance).total_cost())
    mean_sofda = statistics.mean(sofda_costs)
    for name, costs in other.items():
        assert mean_sofda <= statistics.mean(costs) * 1.02, (
            f"SOFDA ({mean_sofda:.2f}) should not lose to {name} "
            f"({statistics.mean(costs):.2f}) on average"
        )


def test_st_is_worst_on_average():
    est_costs, st_costs = [], []
    for seed in range(10):
        instance = random_instance(seed + 800, n=20, num_vms=8,
                                   num_sources=3, num_dests=4, chain_len=3)
        est_costs.append(est_baseline(instance).total_cost())
        st_costs.append(st_baseline(instance).total_cost())
    assert statistics.mean(st_costs) >= statistics.mean(est_costs)


def _scans(calls, skip=None):
    """Group recorded ``distance(u, v)`` calls into per-hop pool scans."""
    scans = []
    for u, v in calls:
        if v == skip:
            continue
        if not scans or scans[-1][0] != u:
            scans.append((u, []))
        scans[-1][1].append(v)
    return [vms for _, vms in scans]


@pytest.mark.parametrize("anchored", [False, True])
def test_greedy_chains_scan_the_pool_in_repr_order(anchored, monkeypatch):
    """Each greedy hop visits the VM pool in repr order, not set order.

    The scan order decides which oracle rows get built first, and so
    which endpoint's row serves later symmetric queries.  Scanning the
    pool as a set made eST's online costs depend on PYTHONHASHSEED.
    Integer VMs iterate a set in hash-bucket order, which is not repr
    order, so a set scan fails here under every hash seed.
    """
    instance = random_instance(1, n=30, num_vms=12, num_sources=2,
                               num_dests=3, chain_len=3)
    source = min(instance.sources)
    pool = sorted(instance.vms)
    anchor = None
    if anchored:
        anchor = sorted(pool, key=repr)[-1]
        pool.remove(anchor)
    assert list(set(pool)) != sorted(pool, key=repr)

    calls = []
    real_distance = instance.oracle.distance

    def spy(u, v):
        calls.append((u, v))
        return real_distance(u, v)

    monkeypatch.setattr(instance.oracle, "distance", spy)
    chain = greedy_chain(instance, source, pool, anchor=anchor)
    assert chain is not None
    scans = _scans(calls, skip=anchor)
    assert len(scans) == len(instance.chain) - (1 if anchored else 0)
    assert scans[0] == sorted(pool, key=repr)
    for scan in scans:
        assert scan == sorted(scan, key=repr)
