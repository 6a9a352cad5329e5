"""Procedure 2's pool cap: one block per source against the per-pair walk.

Procedure 3 caps the VM pools of all the pairs of one source through one
:class:`~repro.core.transform.PoolCap`, whose scores come from one numpy
block; ``chain_walk`` on its own caps its single pair through the same
class.  The differential tests run ``build_auxiliary_graph`` on one
simulator or instance and a local loop of per-pair ``chain_walk`` calls
on its twin, and require the same oracle state right after the sweep
(row labels and trees, ``used`` marks, cache counters and resident
rows), then the same costs, strolls and walks.  The scalar-reference
tests pin every pair's capped pool to the first ``POOL_CAP`` of the pool
stably sorted by scalar ``distance`` scores.  The last tests pin the
``sofda.procedure2`` count of each swept pair's path (block or scalar,
with its reason) and the ``sofda.walk`` count of each block pair's walk
against spies.
"""

import importlib

import numpy as np
import pytest

from helpers import row_states
from repro.core.problem import ServiceChain, SOFInstance
from repro.core.sofda import build_auxiliary_graph
from repro.core.transform import POOL_CAP, PoolCap, chain_walk
from repro.core.validation import check_forest
from repro.graph import FrozenOracle
from repro.graph.indexed import DetourBlock, WalkBatch
from repro.graph.kstroll import EXACT_DP_NODE_LIMIT
from repro.graph.rowcache import row_nbytes
from repro.obs import MetricsRegistry, Recorder
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import inet_network, softlayer_network

# ``repro.core`` re-exports the function ``sofda`` under the module's name.
sofda_module = importlib.import_module("repro.core.sofda")


def _simulator(row_budget_bytes=None):
    """A softlayer simulator with 34 VMs (> POOL_CAP) and one request."""
    network = softlayer_network(seed=1)
    simulator = OnlineSimulator(
        network, vms_per_datacenter=2, row_budget_bytes=row_budget_bytes,
    )
    request = RequestGenerator(
        network, seed=3, destinations_range=(3, 4), sources_range=(2, 2),
    ).next_request()
    return simulator, simulator.current_instance(request)


def _cut_first_datacenter(simulator):
    """Fail every link of the datacenter hosting the VMs ``("vm", 0, k)``."""
    network = softlayer_network(seed=1)
    cut = network.datacenters[0]
    for neighbor in sorted(network.graph.neighbors(cut), key=repr):
        simulator.fail_link(cut, neighbor)


def _with_sources(instance, sources):
    """``instance``'s request from ``sources`` with a 3-VNF chain, on the
    instance's oracle."""
    out = SOFInstance(
        graph=instance.graph, vms=instance.vms, sources=sources,
        destinations=instance.destinations, chain=ServiceChain.of_length(3),
        node_costs=instance.node_costs,
    )
    out._oracle = instance.oracle
    return out


def _inet_instance():
    """A contracted Inet instance with 30 VMs (> POOL_CAP + 1)."""
    network = inet_network(num_nodes=400, num_links=800,
                           num_datacenters=60, seed=3)
    return network.make_instance(
        num_sources=2, num_destinations=4, num_vms=30,
        chain=ServiceChain.of_length(3), seed=5,
    )


def _per_pair_walks(instance):
    """Procedure 3's sweep as separate ``chain_walk`` calls."""
    walks = {}
    for v in sorted(instance.sources, key=repr):
        for u in instance.sorted_vms():
            if u != v:
                cw = chain_walk(instance, v, u)
                if cw is not None:
                    walks[(v, u)] = cw
    return walks


def _oracle_state(oracle):
    return {
        "rows": row_states(oracle),
        "used": {sid: row.used for sid, row in oracle._rows.items()},
        "resident": list(oracle._rows),
        "cache": oracle.cache_snapshot(),
    }


def _spy_walks(monkeypatch):
    """Log the walks ``sofda`` prices or expands: ``added`` holds each
    ``WalkBatch.add``, ``swept`` each ``expand_stroll`` call inside
    ``build_auxiliary_graph`` and ``deployed`` each one after it."""
    log = {"added": [], "swept": [], "deployed": []}
    phase = ["swept"]
    add, expand = WalkBatch.add, sofda_module.expand_stroll
    build = sofda_module.build_auxiliary_graph

    def spy_add(self, nodes, setups):
        log["added"].append(tuple(nodes))
        return add(self, nodes, setups)

    def spy_expand(instance, stroll, *args, **kwargs):
        log[phase[0]].append(tuple(stroll))
        return expand(instance, stroll, *args, **kwargs)

    def spy_build(*args, **kwargs):
        phase[0] = "swept"
        aux = build(*args, **kwargs)
        phase[0] = "deployed"
        return aux

    monkeypatch.setattr(WalkBatch, "add", spy_add)
    monkeypatch.setattr(sofda_module, "expand_stroll", spy_expand)
    monkeypatch.setattr(sofda_module, "build_auxiliary_graph", spy_build)
    return log


def _assert_walks_match(aux, walks):
    """Every pair's virtual-edge cost, stroll and walk equal the
    per-pair ones, bit for bit and in sweep order."""
    assert list(aux.costs) == list(aux.strolls) == list(walks)
    for pair, walk in walks.items():
        assert aux.costs[pair] == walk.total_cost
        assert aux.strolls[pair] == walk.stroll
        assert aux.walk_for(*pair) == walk


def _assert_sweep_matches_per_pair(monkeypatch, make):
    """The sweep leaves the oracle as the per-pair loop does, before
    any walk is expanded, and ``walk_for`` then builds the per-pair
    walks.  Returns the swept instance and how many walks the sweep
    priced without building them."""
    swept, per_pair = make(), make()
    log = _spy_walks(monkeypatch)
    aux = sofda_module.build_auxiliary_graph(swept)
    walks = _per_pair_walks(per_pair)
    assert _oracle_state(swept.oracle) == _oracle_state(per_pair.oracle)
    _assert_walks_match(aux, walks)
    return swept, len(log["added"])


def test_sweep_matches_per_pair_walks_uncontracted(monkeypatch):
    def make():
        return _simulator()[1]

    instance, priced = _assert_sweep_matches_per_pair(monkeypatch, make)
    assert instance.oracle.contracted is None
    assert len(instance.vms) - 2 > POOL_CAP
    # Every pair's walk was priced from the rows, none expanded.
    assert not instance.sources & instance.vms
    assert priced == len(instance.sources) * len(instance.vms)


def test_sweep_matches_per_pair_walks_contracted(monkeypatch):
    instance, priced = _assert_sweep_matches_per_pair(
        monkeypatch, _inet_instance
    )
    assert instance.oracle.contracted is not None
    assert len(instance.vms) > POOL_CAP + 1
    assert priced == 0  # a contracted core expands every walk eagerly


def test_sweep_matches_per_pair_walks_under_a_tight_budget(monkeypatch):
    """Under a budget smaller than the VM pool, rows are evicted and
    rebuilt mid-sweep: pairs fall back, and a pair whose rows the block
    did not read (evicted, or not cached yet at the gather) regathers.
    Nothing is priced: a budgeted oracle makes no ``WalkBatch``, whose
    kept parent buffers would outlive their rows' evictions, so every
    walk is expanded at once, with the same lookups.  A deployed walk
    whose hop rows were evicted since is built from cold rebuilds."""
    gathers = []
    gather = DetourBlock._gather

    def spy(self, first, source_row):
        gathers.append(first)
        return gather(self, first, source_row)

    monkeypatch.setattr(DetourBlock, "_gather", spy)
    swept, priced = _assert_sweep_matches_per_pair(
        monkeypatch, _tight_budget_instance
    )
    regathers = len(gathers) - len(swept.sources)
    assert priced == 0
    snapshot = swept.oracle.cache_snapshot()
    assert snapshot["budget_evictions"] > 0
    assert snapshot["overshoots"] == 0
    assert regathers > 0


def _metric_block_per_row(instance):
    """``SOFInstance.metric_block`` as it was built before its gather:
    one ``distances_to`` call per VM row."""
    oracle = instance.oracle
    vms = instance.sorted_vms()
    oracle.prefetch_rows(vms)
    setups = np.array([instance.setup_cost(v) for v in vms])
    block = np.zeros((len(vms), len(vms)))
    for i, v1 in enumerate(vms):
        ds = oracle.distances_to(v1, vms[i + 1:])
        costs = np.asarray(ds) + (setups[i] + setups[i + 1:]) / 2.0
        block[i, i + 1:] = costs
        block[i + 1:, i] = costs
    return block


def _tight_budget_instance():
    """``_simulator()``'s request under a budget of 20 rows: the VM
    pool does not fit, so rows are evicted while the block is read."""
    budget = 20 * row_nbytes(len(_simulator()[1].graph))
    return _simulator(row_budget_bytes=budget)[1]


@pytest.mark.parametrize("case", ["uncontracted", "contracted",
                                  "tight_budget"])
def test_metric_block_matches_the_per_row_loop(monkeypatch, case):
    """The metric block's one gather per VM row equals the per-row
    ``distances_to`` loop bit for bit, with the same lookups, ``used``
    marks, residency and cache counters, on both cores; under a tight
    budget some rows are refused and run the scalar loop, each counted
    once as ``oracle.fallback{site=pairwise_distances}``."""
    make = {
        "uncontracted": lambda: _simulator()[1],
        "contracted": _inet_instance,
        "tight_budget": _tight_budget_instance,
    }[case]
    refused = []
    gate = FrozenOracle._batch_row

    def spy(self, source_id, targets_in_core, site):
        row = gate(self, source_id, targets_in_core, site)
        if row is None and site == "pairwise_distances":
            refused.append(source_id)
        return row

    monkeypatch.setattr(FrozenOracle, "_batch_row", spy)
    gathered, looped = make(), make()
    recorder = Recorder(registry=MetricsRegistry())
    gathered.oracle._metrics = recorder
    block = gathered.metric_block()
    assert block.tobytes() == _metric_block_per_row(looped).tobytes()
    assert _oracle_state(gathered.oracle) == _oracle_state(looped.oracle)
    assert (gathered.oracle.contracted is not None) == (case == "contracted")
    counters = recorder.snapshot()["counters"]
    assert counters.get(
        "oracle.fallback{reason=row_not_cached,site=pairwise_distances}", 0
    ) == len(refused)
    assert bool(refused) == (case == "tight_budget")


# ----------------------------------------------------------------------
# scalar reference
# ----------------------------------------------------------------------

def _reference_pool(instance, source, last_vm):
    """The first POOL_CAP of the pool, stably sorted by scalar scores."""
    oracle = instance.oracle
    pool = [m for m in instance.sorted_vms() if m not in (source, last_vm)]
    scores = [
        oracle.distance(source, m) + instance.setup_cost(m)
        + oracle.distance(last_vm, m)
        for m in pool
    ]
    order = sorted(range(len(pool)), key=scores.__getitem__)
    return {pool[k] for k in order[:POOL_CAP]}


def _assert_caps_match_reference(instance, source):
    """Every pair of ``source`` is served from the block and matches."""
    oracle = instance.oracle
    oracle.prefetch_rows([source] + instance.sorted_vms())
    last_vms = [u for u in instance.sorted_vms() if u != source]
    caps = PoolCap(instance, source, last_vms)
    misses = oracle._rows.misses
    for u in last_vms:
        assert caps.select(u) == _reference_pool(instance, source, u)
    # Every gate passed and every pair was served from one gather.
    assert oracle._rows.misses == misses
    assert caps._db.shape == (len(last_vms), len(caps._pool))


def test_caps_match_scalar_reference_with_unreachable_vms():
    """A datacenter cut off by link failures leaves VMs at ``inf``:
    their scores tie and keep pool order, in and out of the cap."""
    simulator, instance = _simulator()
    _cut_first_datacenter(simulator)
    oracle = instance.oracle
    source = sorted(instance.sources, key=repr)[0]
    unreachable = [
        vm for vm in simulator.vms if oracle.distance(source, vm) == float("inf")
    ]
    assert unreachable
    _assert_caps_match_reference(instance, source)
    # From a cut-off VM every other VM outside its datacenter scores inf.
    inside = unreachable[0]
    caps = PoolCap(instance, source, [inside])
    assert caps.select(inside) == _reference_pool(instance, source, inside)


def test_caps_match_scalar_reference_for_a_vm_source():
    instance = _inet_instance()
    vm = instance.sorted_vms()[3]
    as_source = SOFInstance(
        graph=instance.graph, vms=instance.vms, sources=[vm],
        destinations=instance.destinations, chain=instance.chain,
        node_costs=instance.node_costs,
    )
    as_source._oracle = instance.oracle
    _assert_caps_match_reference(as_source, vm)


def test_capped_pools_are_past_the_exact_dp():
    """A capped pool's k-stroll instance (source, last VM and
    ``POOL_CAP`` more) is too large for the exact DP, so ``auto`` runs
    the heuristics the block replays and never the DP it does not."""
    assert POOL_CAP + 2 > EXACT_DP_NODE_LIMIT


def test_pool_that_fits_is_not_capped():
    """A pair whose pool holds ``POOL_CAP`` candidates is not capped and
    looks no row up; one more candidate makes the gate run."""
    instance = _inet_instance()
    source = sorted(instance.sources, key=repr)[0]
    vms = [vm for vm in instance.sorted_vms() if vm != source]
    instance.oracle.prefetch_rows([source] + vms)
    caps = PoolCap(instance, source, vms, candidate_vms=vms[:POOL_CAP + 1])
    rows = instance.oracle._rows
    lookups = rows.hits + rows.misses
    assert caps.select(vms[0]) is None  # POOL_CAP candidates besides it
    assert rows.hits + rows.misses == lookups
    assert len(caps.select(vms[-1])) == POOL_CAP  # POOL_CAP + 1 candidates
    assert rows.hits + rows.misses == lookups + 2


# ----------------------------------------------------------------------
# Procedure 2's path per swept pair
# ----------------------------------------------------------------------

def _metered(vms_per_datacenter=2):
    """``_simulator()``'s request on a simulator carrying a recorder."""
    network = softlayer_network(seed=1)
    recorder = Recorder(registry=MetricsRegistry())
    simulator = OnlineSimulator(
        network, vms_per_datacenter=vms_per_datacenter, metrics=recorder,
    )
    request = RequestGenerator(
        network, seed=3, destinations_range=(3, 4), sources_range=(2, 2),
    ).next_request()
    return recorder, simulator, simulator.current_instance(request)


def _spied_sweep(monkeypatch, instance, **kwargs):
    """Run the sweep; returns (pairs the block solved, scalar walks)."""
    solved, scalar = [], []
    stroll = PoolCap.stroll

    def spy_stroll(self, last_vm, k):
        solved.append(last_vm)
        return stroll(self, last_vm, k)

    def spy_walk(*args, **kw):
        scalar.append(args[2])
        return chain_walk(*args, **kw)

    monkeypatch.setattr(PoolCap, "stroll", spy_stroll)
    monkeypatch.setattr(sofda_module, "chain_walk", spy_walk)
    build_auxiliary_graph(instance, **kwargs)
    return solved, scalar


def _procedure2_counts(recorder):
    return {
        key: value for key, value in recorder.snapshot()["counters"].items()
        if key.startswith("sofda.procedure2")
    }


@pytest.mark.parametrize("case", [
    "block", "kstroll_method", "source_cost", "uncapped_pool",
])
def test_procedure2_paths_are_counted(monkeypatch, case):
    """Each swept pair counts once, as served from the block or as
    scalar with its reason, matching what a spy sees run."""
    recorder, simulator, instance = _metered(
        vms_per_datacenter=1 if case == "uncapped_pool" else 2
    )
    kwargs = {"kstroll_method": "insertion"} if case == "kstroll_method" else {}
    first, second = sorted(instance.sources, key=repr)
    if case == "source_cost":
        priced = SOFInstance(
            graph=instance.graph, vms=instance.vms, sources=instance.sources,
            destinations=instance.destinations, chain=instance.chain,
            node_costs=instance.node_costs, source_costs={first: 1.0},
        )
        priced._oracle = instance.oracle
        instance = priced
    pairs = len(simulator.vms)
    assert (pairs > POOL_CAP + 1) == (case != "uncapped_pool")
    solved, scalar = _spied_sweep(monkeypatch, instance, **kwargs)
    scalar_key = f"sofda.procedure2{{path=scalar,reason={case}}}"
    expected = {
        "block": {"sofda.procedure2{path=block}": 2 * pairs},
        "source_cost": {"sofda.procedure2{path=block}": pairs,
                        scalar_key: pairs},
    }.get(case, {scalar_key: 2 * pairs})
    assert _procedure2_counts(recorder) == expected
    assert len(solved) == expected.get("sofda.procedure2{path=block}", 0)
    assert len(scalar) == expected.get(scalar_key, 0)


def test_procedure2_counts_a_pair_with_no_finite_insertion(monkeypatch):
    """A VM source in a cut-off datacenter reaches one other VM: the
    pair to it has no finite insertion, so its capped pool has no
    feasible k-stroll.  The block finds no stroll for it, as
    ``chain_walk`` does, and counts it as ``block`` like every other
    pair; with no other source, no candidate chain is left."""
    recorder, simulator, instance = _metered()
    _cut_first_datacenter(simulator)
    inside = _with_sources(instance, [("vm", 0, 0)])
    with pytest.raises(RuntimeError, match="no candidate service chain"):
        _spied_sweep(monkeypatch, inside)
    assert _procedure2_counts(recorder) == {
        "sofda.procedure2{path=block}": len(inside.vms) - 1,
    }
    assert chain_walk(inside, ("vm", 0, 0), ("vm", 0, 1)) is None


def test_a_source_with_no_feasible_stroll_leaves_the_others_serving():
    """A request with one source inside a cut-off datacenter and one
    healthy source is served from the healthy one: the cut-off source's
    pairs find no k-stroll instead of aborting the solve."""
    simulator, instance = _simulator()
    _cut_first_datacenter(simulator)
    healthy = sorted(instance.sources, key=repr)[0]
    request = _with_sources(instance, [("vm", 0, 0), healthy])
    forest = sofda_module.sofda(request).forest
    check_forest(request, forest)
    assert forest.used_sources() == {healthy}


def _walk_counts(recorder):
    return {
        key: value for key, value in recorder.snapshot()["counters"].items()
        if key.startswith("sofda.walk")
    }


@pytest.mark.parametrize("contracted", [False, True])
def test_block_walks_are_counted(monkeypatch, contracted):
    """Every block pair with a stroll counts its walk once: priced from
    the rows on an uncontracted core (one ``WalkBatch.add`` each), and
    expanded at once on a contracted one (one ``expand_stroll`` each),
    as spies see them run inside ``build_auxiliary_graph``.  After it,
    only the deployed pairs' walks are expanded, one each."""
    recorder = Recorder(registry=MetricsRegistry())
    if contracted:
        instance = _inet_instance()
        instance._oracle = FrozenOracle(
            instance.graph,
            hot=instance.vms | instance.sources | instance.destinations,
            metrics=recorder,
        )
    else:
        recorder, _, instance = _metered()
    log = _spy_walks(monkeypatch)
    result = sofda_module.sofda(instance)
    if contracted:
        assert _walk_counts(recorder) == {
            "sofda.walk{path=expanded,reason=contracted}": len(log["swept"]),
        }
        assert log["swept"] and not log["added"]
    else:
        assert _walk_counts(recorder) == {
            "sofda.walk{path=priced}": len(log["added"]),
        }
        assert log["added"] and not log["swept"]
    assert len(log["deployed"]) == result.num_virtual_edges > 0


def test_budgeted_block_walks_are_expanded_at_once(monkeypatch):
    """An oracle with a row budget makes no ``WalkBatch``: each block
    pair's walk is expanded at its place in the sweep and counted as
    ``sofda.walk{path=expanded,reason=row_budget}``, and after the sweep
    only the deployed pairs' walks are expanded again."""
    instance = _tight_budget_instance()
    recorder = Recorder(registry=MetricsRegistry())
    instance.oracle._metrics = recorder
    log = _spy_walks(monkeypatch)
    result = sofda_module.sofda(instance)
    check_forest(instance, result.forest)
    assert instance.oracle.contracted is None
    assert _walk_counts(recorder) == {
        "sofda.walk{path=expanded,reason=row_budget}": len(log["swept"]),
    }
    assert log["swept"] and not log["added"]
    assert len(log["deployed"]) == result.num_virtual_edges > 0


def test_a_walk_expanded_after_a_patch_follows_the_live_graph():
    """``Ĝ`` keeps strolls, not walks, so a pair expanded after a link
    failure reads the patched rows: once the failure cuts the first
    source off, each of its pairs raises ``ValueError`` and every other
    pair's walk crosses only live links."""
    simulator, instance = _simulator()
    aux = build_auxiliary_graph(instance)
    graph = instance.graph
    cut = sorted(instance.sources, key=repr)[0]
    simulator.fail_link(cut, next(iter(graph.neighbors(cut))))
    raised = set()
    for pair in aux.costs:
        try:
            walk = aux.walk_for(*pair)
        except ValueError:
            raised.add(pair)
            continue
        assert all(graph.has_edge(a, b)
                   for a, b in zip(walk.walk, walk.walk[1:]))
    assert raised == {pair for pair in aux.costs if pair[0] == cut}
    assert 0 < len(raised) < len(aux.costs)
