"""Procedure 2's pool cap: one block per source against the per-pair walk.

Procedure 3 caps the VM pools of all the pairs of one source through one
:class:`~repro.core.transform.PoolCap`, whose scores come from one numpy
block; ``chain_walk`` on its own caps its single pair through the same
class.  The differential tests run ``build_auxiliary_graph`` on one
simulator or instance and a local loop of per-pair ``chain_walk`` calls
on its twin, and require the same walks and the same oracle state:
query counters, ``used`` marks, cache counters and resident rows.  The
scalar-reference tests pin every pair's capped pool to the first
``POOL_CAP`` of the pool stably sorted by scalar ``distance`` scores.
The last tests pin the ``sofda.procedure2`` count of each swept pair's
path (block or scalar, with its reason) against spies.
"""

import importlib

import pytest

from repro.core.problem import ServiceChain, SOFInstance
from repro.core.sofda import build_auxiliary_graph
from repro.core.transform import POOL_CAP, PoolCap, chain_walk
from repro.graph.indexed import DetourBlock
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
        "queries": oracle._queries.tolist(),
        "used": {sid: row.used for sid, row in oracle._rows.items()},
        "resident": list(oracle._rows),
        "cache": oracle.cache_snapshot(),
    }


def _assert_sweep_matches_per_pair(make):
    swept, per_pair = make(), make()
    aux = build_auxiliary_graph(swept)
    walks = _per_pair_walks(per_pair)
    assert aux.walks == walks
    assert _oracle_state(swept.oracle) == _oracle_state(per_pair.oracle)
    return swept


def test_sweep_matches_per_pair_walks_uncontracted():
    def make():
        return _simulator()[1]

    instance = _assert_sweep_matches_per_pair(make)
    assert instance.oracle.contracted is None
    assert len(instance.vms) - 2 > POOL_CAP
    assert any(instance.oracle._queries)


def test_sweep_matches_per_pair_walks_contracted():
    instance = _assert_sweep_matches_per_pair(_inet_instance)
    assert instance.oracle.contracted is not None
    assert len(instance.vms) > POOL_CAP + 1


def test_sweep_matches_per_pair_walks_under_a_tight_budget(monkeypatch):
    """Under a budget smaller than the VM pool, rows are evicted and
    rebuilt mid-sweep: pairs fall back, and a pair whose rows the block
    did not read (evicted, or not cached yet at the gather) regathers."""
    gathers = []
    gather = DetourBlock._gather

    def spy(self, first, source_row):
        gathers.append(first)
        return gather(self, first, source_row)

    monkeypatch.setattr(DetourBlock, "_gather", spy)
    rows = 20  # of 34 VM rows and the request's endpoint rows
    budget = rows * row_nbytes(len(_simulator()[1].graph))
    swept = _simulator(row_budget_bytes=budget)[1]
    per_pair = _simulator(row_budget_bytes=budget)[1]
    aux = build_auxiliary_graph(swept)
    regathers = len(gathers) - len(swept.sources)
    assert aux.walks == _per_pair_walks(per_pair)
    assert _oracle_state(swept.oracle) == _oracle_state(per_pair.oracle)
    snapshot = swept.oracle.cache_snapshot()
    assert snapshot["budget_evictions"] > 0
    assert snapshot["overshoots"] == 0
    assert regathers > 0


# ----------------------------------------------------------------------
# scalar reference
# ----------------------------------------------------------------------

def _reference_pool(instance, source, last_vm, setup_costs=None):
    """The first POOL_CAP of the pool, stably sorted by scalar scores."""
    oracle = instance.oracle
    pool = [m for m in instance.sorted_vms() if m not in (source, last_vm)]

    def setup(m):
        if setup_costs is not None and m in setup_costs:
            return setup_costs[m]
        return instance.setup_cost(m)

    scores = [
        oracle.distance(source, m) + setup(m) + oracle.distance(last_vm, m)
        for m in pool
    ]
    order = sorted(range(len(pool)), key=scores.__getitem__)
    return {pool[k] for k in order[:POOL_CAP]}


def _assert_caps_match_reference(instance, source, setup_costs=None):
    """Every pair of ``source`` is served from the block and matches."""
    oracle = instance.oracle
    oracle.prefetch_rows([source] + instance.sorted_vms())
    last_vms = [u for u in instance.sorted_vms() if u != source]
    caps = PoolCap(instance, source, last_vms, setup_costs=setup_costs)
    misses = oracle._rows.misses
    for u in last_vms:
        assert caps.select(u) == _reference_pool(
            instance, source, u, setup_costs
        )
    # Every gate passed and every pair was served from one gather.
    assert oracle._rows.misses == misses
    assert caps._db.shape == (len(last_vms), len(caps._pool))


def test_caps_match_scalar_reference_with_unreachable_vms():
    """A datacenter cut off by link failures leaves VMs at ``inf``:
    their scores tie and keep pool order, in and out of the cap."""
    simulator, instance = _simulator()
    network = softlayer_network(seed=1)
    cut = network.datacenters[0]  # hosts the VMs ("vm", 0, k)
    for neighbor in sorted(network.graph.neighbors(cut), key=repr):
        simulator.fail_link(cut, neighbor)
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


@pytest.mark.parametrize("contracted", [False, True])
def test_caps_match_scalar_reference_with_setup_overrides(contracted):
    instance = _inet_instance() if contracted else _simulator()[1]
    vms = instance.sorted_vms()
    overrides = {vm: 0.0 for vm in vms[::3]}
    overrides[vms[1]] = 1e6
    source = sorted(instance.sources, key=repr)[-1]
    _assert_caps_match_reference(instance, source, setup_costs=overrides)


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
        out = stroll(self, last_vm, k)
        if out[1] is None:
            solved.append(last_vm)
        return out

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
    pair to it has no finite insertion, so the block leaves it to the
    scalar path, which fails as it always has."""
    recorder, simulator, instance = _metered()
    network = softlayer_network(seed=1)
    cut = network.datacenters[0]  # hosts the VMs ("vm", 0, k)
    for neighbor in sorted(network.graph.neighbors(cut), key=repr):
        simulator.fail_link(cut, neighbor)
    inside = SOFInstance(
        graph=instance.graph, vms=instance.vms, sources=[("vm", 0, 0)],
        destinations=instance.destinations, chain=ServiceChain.of_length(3),
        node_costs=instance.node_costs,
    )
    inside._oracle = instance.oracle
    with pytest.raises(AssertionError):
        _spied_sweep(monkeypatch, inside)
    assert _procedure2_counts(recorder) == {
        "sofda.procedure2{path=scalar,reason=no_finite_insertion}": 1,
    }
