"""Tests for SOFDA (Algorithm 2, general case)."""

import pytest

from helpers import random_instance
from repro import Graph, ServiceChain, SOFInstance, check_forest, sofda
from repro.core.sofda import build_auxiliary_graph
from repro.core.transform import POOL_CAP
from repro.ilp import solve_sof_ilp
from repro.obs import MetricsRegistry, Recorder
from repro.topology import softlayer_network


def test_fig2_matches_optimum(fig2_instance):
    result = sofda(fig2_instance)
    check_forest(fig2_instance, result.forest)
    opt = solve_sof_ilp(fig2_instance)
    assert opt.objective == pytest.approx(28.0)
    assert result.cost == pytest.approx(28.0)


def test_auxiliary_graph_structure(fig2_instance):
    aux = build_auxiliary_graph(fig2_instance)
    g = aux.graph
    assert aux.virtual_source in g
    # Source duplicates hang off the virtual source with cost 0.
    for s in fig2_instance.sources:
        assert g.cost(aux.virtual_source, ("src^", s)) == 0.0
    # VM duplicates hang off their VM with cost 0.
    for u in fig2_instance.vms:
        assert g.cost(u, ("vm^", u)) == 0.0
    # Virtual edges price complete candidate chains.
    for (v, u), cost in aux.costs.items():
        walk = aux.walk_for(v, u)
        assert g.cost(("src^", v), ("vm^", u)) == cost == walk.total_cost
        assert len(walk.stroll) == len(fig2_instance.chain) + 1


def test_virtual_edge_cost_equals_chain_cost(fig2_instance):
    aux = build_auxiliary_graph(fig2_instance)
    for pair in aux.costs:
        walk = aux.walk_for(*pair)
        recomputed = sum(
            fig2_instance.graph.cost(a, b)
            for a, b in zip(walk.walk, walk.walk[1:])
        ) + sum(fig2_instance.setup_cost(m) for m in walk.stroll[1:])
        assert walk.total_cost == pytest.approx(recomputed)


@pytest.mark.parametrize("seed", range(12))
def test_feasible_on_random_instances(seed):
    instance = random_instance(seed, n=18, num_vms=7, num_sources=3,
                               num_dests=4, chain_len=3)
    result = sofda(instance)
    check_forest(instance, result.forest)


@pytest.mark.parametrize("seed", range(8))
def test_never_below_optimum_and_within_bound(seed):
    instance = random_instance(seed + 90, n=14, num_vms=5, num_sources=2,
                               num_dests=3, chain_len=2)
    result = sofda(instance)
    opt = solve_sof_ilp(instance).objective
    assert result.cost >= opt - 1e-6
    # Theorem 3: 3 * rho_ST with rho_ST = 2 for KMB -> factor 6.
    assert result.cost <= 6 * opt + 1e-6


def test_multi_tree_on_separated_clusters():
    """Two far-apart clusters force a two-tree forest."""
    g = Graph()
    # Cluster A: source sA, VMs a1 a2, dests dA1 dA2.
    for u, v, c in [("sA", "a1", 1), ("a1", "a2", 1), ("a2", "dA1", 1),
                    ("a2", "dA2", 1)]:
        g.add_edge(u, v, float(c))
    # Cluster B mirrors A.
    for u, v, c in [("sB", "b1", 1), ("b1", "b2", 1), ("b2", "dB1", 1),
                    ("b2", "dB2", 1)]:
        g.add_edge(u, v, float(c))
    # One very expensive bridge.
    g.add_edge("a2", "b2", 100.0)
    instance = SOFInstance(
        graph=g, vms={"a1", "a2", "b1", "b2"}, sources={"sA", "sB"},
        destinations={"dA1", "dA2", "dB1", "dB2"},
        chain=ServiceChain.of_length(2),
        node_costs={"a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0},
    )
    result = sofda(instance)
    check_forest(instance, result.forest)
    assert result.forest.num_trees() == 2
    assert result.cost < 100.0  # never crosses the bridge


def test_deterministic(fig2_instance):
    a = sofda(fig2_instance)
    b = sofda(fig2_instance)
    assert a.cost == b.cost
    assert [c.walk for c in a.forest.chains] == [c.walk for c in b.forest.chains]


def test_prune_flag(fig2_instance):
    pruned = sofda(fig2_instance, prune=True)
    raw = sofda(fig2_instance, prune=False)
    assert pruned.cost <= raw.cost + 1e-9
    check_forest(fig2_instance, raw.forest)


def test_single_source_instance_degenerates_to_one_tree(fig3_instance):
    result = sofda(fig3_instance)
    check_forest(fig3_instance, result.forest)
    assert result.forest.num_trees() == 1


def test_result_diagnostics(fig2_instance):
    result = sofda(fig2_instance)
    assert result.num_virtual_edges >= 1
    stats = result.stats.as_dict()
    assert stats["clean"] >= 1
    assert result.stats.total_conflicted() + stats["clean"] >= result.num_virtual_edges


# ----------------------------------------------------------------------
# Forest costs pinned on the scalar Procedure-1 paths
# ----------------------------------------------------------------------

#: Forest costs of the k-stroll ablation's first SoftLayer instance
#: (``benchmarks/bench_ablation_kstroll.py``, seed 0) per k-stroll
#: method, recorded before Procedure 1 shared the metric rows.
KSTROLL_METHOD_COSTS = {
    "exact": 1407.7372205741617,
    "insertion": 1407.7372205741617,
    "greedy": 1372.7134731092863,
}


@pytest.mark.parametrize("method", sorted(KSTROLL_METHOD_COSTS))
def test_forest_cost_per_kstroll_method(method):
    instance = softlayer_network(seed=1).make_instance(
        num_sources=6, num_destinations=4, num_vms=12,
        chain=ServiceChain.of_length(4), seed=0,
    )
    result = sofda(instance, kstroll_method=method)
    check_forest(instance, result.forest)
    assert result.cost == KSTROLL_METHOD_COSTS[method]


def test_forest_cost_with_source_costs_on_capped_pools():
    """Appendix-D source setup costs send every swept pair down the
    scalar path, whose capped pools are priced from the oracle; the
    forest cost was recorded before Procedure 1 shared the metric rows."""
    base = softlayer_network(seed=1).make_instance(
        num_sources=4, num_destinations=4, num_vms=30,
        chain=ServiceChain.of_length(3), seed=2,
    )
    sources = sorted(base.sources, key=repr)
    instance = base.derive(
        source_costs={s: 3.5 + 1.25 * i for i, s in enumerate(sources)}
    )
    assert len(instance.vms) - 1 > POOL_CAP
    recorder = Recorder(registry=MetricsRegistry())
    instance.oracle._metrics = recorder
    result = sofda(instance)
    check_forest(instance, result.forest)
    assert result.cost == 388.2317244317428
    counters = recorder.snapshot()["counters"]
    assert {
        key: value for key, value in counters.items()
        if key.startswith("sofda.procedure2")
    } == {
        "sofda.procedure2{path=scalar,reason=source_cost}":
            len(sources) * len(instance.vms),
    }
