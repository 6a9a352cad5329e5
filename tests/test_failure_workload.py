"""Tests for link-failure injection through the online stack.

Covers the seeded :class:`LinkFailureProcess`, the fail/recover event
kinds in the workload engine and trace codec (version 2, with version-1
churn-only back-compat), the simulator's graceful-degradation hooks
(mass rerouting, disrupted-lease release), and the equivalence of every
acceptance/reroute/disruption decision between incremental topology
patching and the invalidate-and-rebuild reference.
"""

import json
import random

import pytest

from repro import sofda
from repro.online import FailureImpact, RequestGenerator
from repro.online.simulator import OnlineSimulator
from repro.topology import inet_network, softlayer_network
from repro.workload import (
    ExponentialHolding,
    LinkFailureProcess,
    PoissonArrivals,
    WorkloadEngine,
    build_schedule,
    dump_trace,
    load_trace,
)

EMBED = lambda inst: sofda(inst).forest  # noqa: E731


def physical_links(network):
    return sorted(((u, v) for u, v, _ in network.graph.edges()), key=repr)


# ----------------------------------------------------------------------
# LinkFailureProcess
# ----------------------------------------------------------------------
def test_failure_process_is_deterministic():
    links = [(0, 1), (1, 2), (2, 3)]
    a = LinkFailureProcess(links, mtbf=10.0, mttr=1.0, seed=3).events(50.0)
    b = LinkFailureProcess(links, mtbf=10.0, mttr=1.0, seed=3).events(50.0)
    assert a == b
    c = LinkFailureProcess(links, mtbf=10.0, mttr=1.0, seed=4).events(50.0)
    assert a != c


def test_failure_process_pairs_fail_with_recover():
    links = [(0, 1), (1, 2)]
    events = LinkFailureProcess(links, mtbf=5.0, mttr=2.0, seed=1).events(40.0)
    assert events == sorted(events, key=lambda e: e.time)
    open_links = set()
    per_link = {}
    for event in events:
        if event.kind == "fail":
            assert event.link not in open_links
            assert event.time <= 40.0
            open_links.add(event.link)
        else:
            assert event.kind == "recover"
            assert event.link in open_links
            open_links.remove(event.link)
        per_link.setdefault(event.link, []).append(event)
    # Every failure recovered, even if the repair lands past the horizon.
    assert not open_links
    for seq in per_link.values():
        kinds = [e.kind for e in sorted(seq, key=lambda e: e.time)]
        assert kinds == ["fail", "recover"] * (len(kinds) // 2)


def test_failure_process_validation():
    with pytest.raises(ValueError):
        LinkFailureProcess([(0, 1)], mtbf=0.0, mttr=1.0)
    with pytest.raises(ValueError):
        LinkFailureProcess([(0, 1)], mtbf=1.0, mttr=-1.0)
    with pytest.raises(ValueError):
        LinkFailureProcess([], mtbf=1.0, mttr=1.0)
    with pytest.raises(ValueError):
        LinkFailureProcess([(0, 1)], mtbf=1.0, mttr=1.0).events(0.0)


# ----------------------------------------------------------------------
# trace codec: version 2 + version-1 back-compat
# ----------------------------------------------------------------------
def make_failure_schedule(network, horizon=15.0, seed=0):
    generator = RequestGenerator(network, seed=seed)
    process = PoissonArrivals(generator, rate=1.5, seed=seed + 1)
    holding = ExponentialHolding(mean=4.0, seed=seed + 2)
    failures = LinkFailureProcess(
        physical_links(network)[:12], mtbf=12.0, mttr=1.5, seed=seed + 3
    )
    return build_schedule(process, horizon=horizon, holding=holding,
                          failures=failures)


def test_trace_round_trip_version2():
    network = softlayer_network(seed=3)
    schedule = make_failure_schedule(network)
    assert any(e.kind == "fail" for e in schedule)
    lines = list(dump_trace(schedule))
    assert json.loads(lines[0])["version"] == 2
    replayed = load_trace(lines)
    assert len(replayed) == len(schedule)
    for original, copy in zip(schedule, replayed):
        assert copy.time == original.time
        assert copy.kind == original.kind
        assert copy.link == original.link


def test_churn_only_trace_stays_version1():
    network = softlayer_network(seed=3)
    generator = RequestGenerator(network, seed=0)
    process = PoissonArrivals(generator, rate=1.0, seed=1)
    schedule = build_schedule(
        process, horizon=10.0, holding=ExponentialHolding(3.0, seed=2)
    )
    lines = list(dump_trace(schedule))
    assert json.loads(lines[0])["version"] == 1
    replayed = load_trace(lines)
    assert len(replayed) == len(schedule)
    assert all(e.kind == "arrive" for e in replayed)


def test_unsupported_trace_version_rejected():
    lines = [json.dumps({"record": "sof-workload-trace", "version": 3})]
    with pytest.raises(ValueError, match="unsupported trace version"):
        load_trace(lines)


# ----------------------------------------------------------------------
# simulator failure hooks
# ----------------------------------------------------------------------
@pytest.fixture
def loaded_simulator():
    network = softlayer_network(seed=3)
    simulator = OnlineSimulator(network)
    generator = RequestGenerator(network, seed=11)
    leases = []
    for _ in range(6):
        cost, lease = simulator.embed_leased(generator.next_request(), EMBED)
        assert cost is not None
        leases.append(lease)
    return network, simulator, leases


def carried_physical_link(leases):
    for lease in leases:
        for (u, v), _ in lease.link_loads:
            if not (isinstance(u, tuple) and u and u[0] == "vm") and \
                    not (isinstance(v, tuple) and v and v[0] == "vm"):
                return (u, v)
    raise AssertionError("no physical link carried by any lease")


def test_fail_link_reroutes_or_disrupts(loaded_simulator):
    network, simulator, leases = loaded_simulator
    link = carried_physical_link(leases)
    impact = simulator.fail_link(*link)
    assert isinstance(impact, FailureImpact)
    assert impact.crossing == len(impact.rerouted) + len(impact.disrupted)
    assert impact.crossing >= 1
    # Disrupted tenants were released; rerouted ones still hold loads
    # and no lease still charges the dead link.
    for lease in leases:
        if lease.request_index in impact.disrupted:
            assert lease.released
        else:
            assert not lease.released
            assert all(edge != impact.link for edge, _ in lease.link_loads)


def test_fail_link_rejects_dead_or_unknown_links(loaded_simulator):
    network, simulator, leases = loaded_simulator
    link = carried_physical_link(leases)
    simulator.fail_link(*link)
    with pytest.raises(ValueError, match="already failed"):
        simulator.fail_link(*link)
    with pytest.raises(ValueError, match="not a live link"):
        simulator.fail_link("nope", "nada")
    with pytest.raises(ValueError, match="not a failed link"):
        simulator.recover_link("nope", "nada")


def test_recover_link_restores_embedding(loaded_simulator):
    network, simulator, leases = loaded_simulator
    link = carried_physical_link(leases)
    simulator.fail_link(*link)
    simulator.recover_link(*link)
    generator = RequestGenerator(network, seed=99)
    cost, lease = simulator.embed_leased(generator.next_request(), EMBED)
    assert cost is not None
    simulator.release(lease)


def test_double_release_raises(loaded_simulator):
    network, simulator, leases = loaded_simulator
    simulator.release(leases[0])
    with pytest.raises(ValueError, match="already released"):
        simulator.release(leases[0])


def test_release_after_disruption_raises(loaded_simulator):
    network, simulator, leases = loaded_simulator
    link = carried_physical_link(leases)
    impact = simulator.fail_link(*link)
    for lease in leases:
        if lease.request_index in impact.disrupted:
            with pytest.raises(ValueError, match="already released"):
                simulator.release(lease)


def test_loads_conserved_after_full_churn(loaded_simulator):
    network, simulator, leases = loaded_simulator
    link = carried_physical_link(leases)
    impact = simulator.fail_link(*link)
    simulator.recover_link(*link)
    for lease in leases:
        if not lease.released:
            simulator.release(lease)
    tracker = simulator.tracker
    for load in tracker.link_load.values():
        assert load == pytest.approx(0.0, abs=1e-9)
    for load in tracker.node_load.values():
        assert load == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------------------
# engine equivalence: incremental vs invalidate, failures interleaved
# ----------------------------------------------------------------------
def run_engine(network, schedule, **simulator_kwargs):
    simulator = OnlineSimulator(network, **simulator_kwargs)
    return WorkloadEngine(simulator, EMBED, name="x").run(schedule), simulator


@pytest.mark.parametrize("reference_kwargs", [
    {"incremental": False},
])
def test_engine_failures_match_rebuild_reference(reference_kwargs):
    network = inet_network(
        num_nodes=100, num_links=200, num_datacenters=25, seed=3
    )
    schedule = make_failure_schedule(network, horizon=12.0, seed=5)
    assert any(e.kind == "fail" for e in schedule)
    patched, _ = run_engine(network, schedule)
    reference, _ = run_engine(network, schedule, **reference_kwargs)
    assert patched.accepted == reference.accepted
    assert patched.rejected == reference.rejected
    assert patched.rerouted == reference.rerouted
    assert patched.disrupted == reference.disrupted
    assert patched.departures == reference.departures
    assert patched.failures == reference.failures
    assert patched.recoveries == reference.recoveries
    assert patched.recovery_latencies == reference.recovery_latencies
    for ours, theirs in zip(patched.per_request_cost,
                            reference.per_request_cost):
        if ours is None or theirs is None:
            assert ours is None and theirs is None
        else:
            assert ours == pytest.approx(theirs, rel=0, abs=1e-9)


def test_engine_counts_disruptions():
    """A disrupted tenant's scheduled departure must not double-release."""
    network = softlayer_network(seed=3)
    # Hammer a small link subset so some reroutes fail.
    generator = RequestGenerator(network, seed=11)
    process = PoissonArrivals(generator, rate=1.2, seed=7)
    holding = ExponentialHolding(mean=8.0, seed=5)
    rng = random.Random(9)
    links = rng.sample(physical_links(network), 14)
    failures = LinkFailureProcess(links, mtbf=15.0, mttr=2.0, seed=13)
    schedule = build_schedule(process, horizon=30.0, holding=holding,
                              failures=failures)
    result, simulator = run_engine(network, schedule)
    assert result.failures > 0 and result.recoveries == result.failures
    assert result.rerouted + result.disrupted > 0
    assert len(result.recovery_latencies) == result.recoveries
    assert all(latency > 0 for latency in result.recovery_latencies)
    # Conservation: everything accepted either departed, was disrupted,
    # or is still active at the end of the run.
    assert result.accepted \
        == result.departures + result.disrupted + result.final_active
    assert 0.0 <= result.disruption_rate <= 1.0
