"""Tests for the tenant-churn workload engine (arrivals/departures/trace)."""

import re

import pytest

from repro import sofda
from repro.baselines import est_baseline
from repro.core.problem import ServiceChain
from repro.costmodel import LoadTracker
from repro.experiments import run_churn_comparison
from repro.online import OnlineSimulator, Request, RequestGenerator
from repro.topology import softlayer_network
from repro.workload import (
    BackgroundChurn,
    read_trace_metadata,
    DiurnalArrivals,
    ExponentialHolding,
    FixedHolding,
    FlashCrowdArrivals,
    PoissonArrivals,
    WorkloadEngine,
    WorkloadEvent,
    build_schedule,
    dump_trace,
    load_trace,
    read_trace,
    write_trace,
)

SOFDA = lambda inst: sofda(inst).forest  # noqa: E731


@pytest.fixture
def network():
    return softlayer_network(seed=3)


def _generator(network, seed=7):
    return RequestGenerator(network, seed=seed, destinations_range=(3, 4),
                            sources_range=(2, 2))


def _schedule(network, horizon=20.0, rate=0.5, hold_mean=4.0, seed=1,
              background=None):
    process = PoissonArrivals(_generator(network), rate=rate, seed=seed)
    holding = ExponentialHolding(mean=hold_mean, seed=seed + 1)
    return build_schedule(process, horizon=horizon, holding=holding,
                          background=background)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
def test_poisson_arrivals_deterministic(network):
    def draw(seed):
        process = PoissonArrivals(_generator(network), rate=1.0, seed=seed)
        return [(a.time, a.request.sources, a.request.destinations)
                for a in process.arrivals(30.0)]

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_arrival_times_increase_within_horizon(network):
    process = PoissonArrivals(_generator(network), rate=2.0, seed=0)
    arrivals = process.take(15.0)
    times = [a.time for a in arrivals]
    assert times == sorted(times)
    assert all(0 < t <= 15.0 for t in times)
    # Request indices follow the generator's stream in arrival order.
    assert [a.request.index for a in arrivals] == list(range(len(arrivals)))


def test_diurnal_rate_modulates_arrivals(network):
    # Peak quarter (around period/4) vs trough quarter (around 3*period/4)
    # over many periods: the peak must collect far more arrivals.
    process = DiurnalArrivals(_generator(network), base_rate=1.0,
                              amplitude=1.0, period=8.0, seed=3)
    peak = trough = 0
    for arrival in process.arrivals(400.0):
        phase = (arrival.time % 8.0) / 8.0
        if phase < 0.5:
            peak += 1
        else:
            trough += 1
    assert peak > 2 * trough


def test_flash_crowd_concentrates_in_burst(network):
    process = FlashCrowdArrivals(_generator(network), base_rate=0.5,
                                 burst_start=10.0, burst_duration=5.0,
                                 burst_factor=8.0, seed=4)
    inside = outside = 0
    for arrival in process.arrivals(40.0):
        if 10.0 <= arrival.time < 15.0:
            inside += 1
        else:
            outside += 1
    # 5 burst units at 4.0/unit vs 35 base units at 0.5/unit.
    assert inside > outside / 2


def test_process_parameter_validation(network):
    generator = _generator(network)
    with pytest.raises(ValueError):
        PoissonArrivals(generator, rate=0.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(generator, base_rate=1.0, amplitude=1.5)
    with pytest.raises(ValueError):
        FlashCrowdArrivals(generator, base_rate=1.0, burst_start=0.0,
                           burst_duration=-1.0)
    with pytest.raises(ValueError):
        FlashCrowdArrivals(generator, base_rate=1.0, burst_start=0.0,
                           burst_duration=1.0, burst_factor=0.5)


def test_request_stream_independent_of_timing(network):
    """Two processes over same-seed generators draw identical requests."""
    poisson = PoissonArrivals(_generator(network, seed=9), rate=1.0, seed=1)
    diurnal = DiurnalArrivals(_generator(network, seed=9), base_rate=1.0,
                              seed=2)
    a = [x.request for x in poisson.arrivals(20.0)]
    b = [x.request for x in diurnal.arrivals(20.0)]
    shared = min(len(a), len(b))
    assert shared > 0
    assert a[:shared] == b[:shared]


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_build_schedule_sorted_with_holds(network):
    churn = BackgroundChurn(
        period=5.0,
        link_batches=(((0, 1),), ((1, 2),)),
        demand_mbps=2.0,
    )
    schedule = _schedule(network, background=churn)
    times = [e.time for e in schedule]
    assert times == sorted(times)
    kinds = {e.kind for e in schedule}
    assert kinds == {"arrive", "background"}
    for event in schedule:
        if event.kind == "arrive":
            assert event.hold is not None and event.hold > 0
            assert event.request is not None
        else:
            assert event.links and event.demand_mbps == 2.0


def test_background_churn_cycles_batches():
    churn = BackgroundChurn(
        period=2.0,
        link_batches=((("a", "b"),), (("c", "d"),)),
        demand_mbps=1.0,
    )
    events = churn.events(9.0)
    assert [e.time for e in events] == [2.0, 4.0, 6.0, 8.0]
    assert events[0].links == (("a", "b"),)
    assert events[1].links == (("c", "d"),)
    assert events[2].links == (("a", "b"),)


def test_background_churn_validated_at_construction():
    with pytest.raises(ValueError, match="period must be positive"):
        BackgroundChurn(period=0.0, link_batches=(((0, 1),),),
                        demand_mbps=1.0)
    with pytest.raises(ValueError, match="at least one batch"):
        BackgroundChurn(period=1.0, link_batches=(), demand_mbps=1.0)
    with pytest.raises(ValueError, match="must be >= 0"):
        BackgroundChurn(period=1.0, link_batches=(((0, 1),),),
                        demand_mbps=-1.0)


def test_fixed_holding_and_no_departures(network):
    process = PoissonArrivals(_generator(network), rate=0.5, seed=1)
    fixed = build_schedule(process, horizon=10.0, holding=FixedHolding(3.5))
    assert all(e.hold == 3.5 for e in fixed)
    process = PoissonArrivals(_generator(network), rate=0.5, seed=1)
    forever = build_schedule(process, horizon=10.0, holding=None)
    assert all(e.hold is None for e in forever)


# ----------------------------------------------------------------------
# the engine: leases, departures, load conservation
# ----------------------------------------------------------------------
def test_commit_returns_lease_release_reverses(network):
    simulator = OnlineSimulator(network)
    request = _generator(network, seed=2).next_request()
    instance = simulator.current_instance(request)
    forest = SOFDA(instance)
    first_cost = forest.total_cost()
    lease = simulator.commit(forest, request)
    assert lease.link_loads and lease.node_loads
    assert any(simulator.tracker.link_load.values())
    simulator.release(lease)
    assert all(v == 0.0 for v in simulator.tracker.link_load.values())
    assert all(v == 0.0 for v in simulator.tracker.node_load.values())
    # With every lease released the simulator re-prices back to the
    # unloaded state: the same request embeds at its original cost.
    second_cost = simulator.embed(request, SOFDA)
    assert second_cost == first_cost


def test_embed_leased_rejection(network):
    simulator = OnlineSimulator(network)
    request = _generator(network, seed=2).next_request()

    def broken(instance):
        raise RuntimeError("embedder exploded")

    assert simulator.embed_leased(request, broken) == (None, None)
    cost, lease = simulator.embed_leased(request, SOFDA)
    assert cost is not None and lease is not None


def test_release_is_single_shot(network):
    simulator = OnlineSimulator(network)
    request = _generator(network, seed=2).next_request()
    forest = SOFDA(simulator.current_instance(request))
    lease = simulator.commit(forest, request)
    simulator.release(lease)
    with pytest.raises(ValueError, match="already released"):
        simulator.release(lease)


def test_engine_drains_all_departures(network):
    schedule = _schedule(network, horizon=15.0)
    engine = WorkloadEngine(OnlineSimulator(network), SOFDA, name="SOFDA")
    result = engine.run(schedule)
    arrivals = [e for e in schedule if e.kind == "arrive"]
    assert result.accepted + result.rejected == len(arrivals)
    # Every accepted tenant eventually departs (the heap drains fully,
    # even past the arrival horizon), so the network ends empty.
    assert result.departures == result.accepted
    assert result.final_active == 0
    assert result.peak_active >= 1
    assert len(result.per_request_cost) == len(arrivals)


def test_engine_conserves_load_over_full_churn(network):
    simulator = OnlineSimulator(network)
    engine = WorkloadEngine(simulator, SOFDA)
    engine.run(_schedule(network, horizon=15.0))
    assert all(v == 0.0 for v in simulator.tracker.link_load.values())
    assert all(v == 0.0 for v in simulator.tracker.node_load.values())


def test_engine_counts_rejections(network):
    def broken(instance):
        raise RuntimeError("embedder exploded")

    schedule = _schedule(network, horizon=10.0)
    result = WorkloadEngine(OnlineSimulator(network), broken).run(schedule)
    assert result.accepted == 0
    assert result.departures == 0
    assert result.acceptance_rate == 0.0
    assert all(c is None for c in result.per_request_cost)


def test_engine_incremental_matches_invalidate(network):
    """Churn (decrease patches included) must not depend on the oracle mode."""
    schedule = _schedule(network, horizon=18.0, hold_mean=3.0)

    def run(incremental):
        simulator = OnlineSimulator(softlayer_network(seed=3),
                                    incremental=incremental)
        return WorkloadEngine(simulator, SOFDA).run(schedule)

    fast, reference = run(True), run(False)
    assert fast.per_request_cost == reference.per_request_cost
    assert fast.departures == reference.departures


# ----------------------------------------------------------------------
# load-tracker release semantics
# ----------------------------------------------------------------------
def test_release_link_load_guard_and_clamp():
    tracker = LoadTracker()
    tracker.add_link_load(0, 1, 5.0)
    with pytest.raises(ValueError, match="cannot release"):
        tracker.release_link_load(0, 1, 6.0)
    tracker.drain_dirty_links()
    tracker.release_link_load(1, 0, 5.0)  # canonical: same undirected link
    assert tracker.link_load[(0, 1)] == 0.0
    # Released links are marked dirty so the next sync re-prices them.
    assert (0, 1) in tracker.drain_dirty_links()
    with pytest.raises(ValueError, match="cannot release"):
        tracker.release_link_load(0, 1, 1.0)


def test_release_clamps_float_residue():
    tracker = LoadTracker()
    for _ in range(10):
        tracker.add_link_load(0, 1, 0.1)
    tracker.release_link_load(0, 1, 1.0)  # 10 * 0.1 != 1.0 in floats
    assert tracker.link_load[(0, 1)] == 0.0
    tracker.add_node_load("vm", 0.3)
    tracker.release_node_load("vm", 0.1)
    tracker.release_node_load("vm", 0.1)
    tracker.release_node_load("vm", 0.1)
    assert tracker.node_load["vm"] == 0.0


def test_negative_demand_rejected(network):
    tracker = LoadTracker()
    with pytest.raises(ValueError, match="must be >= 0"):
        tracker.add_link_load(0, 1, -1.0)
    with pytest.raises(ValueError, match="must be >= 0"):
        tracker.add_node_load("vm", -1.0)
    with pytest.raises(ValueError, match="must be >= 0"):
        tracker.release_link_load(0, 1, -1.0)
    with pytest.raises(ValueError, match="must be >= 0"):
        tracker.release_node_load("vm", -1.0)
    simulator = OnlineSimulator(network)
    link = next(iter(network.graph.edges()))[:2]
    with pytest.raises(ValueError, match="must be >= 0"):
        simulator.apply_background_load([link], demand_mbps=-2.0)


NON_FINITE = pytest.mark.parametrize(
    "bad", [float("nan"), float("inf")], ids=["nan", "inf"]
)


@NON_FINITE
def test_non_finite_demand_leaves_tracker_unchanged(bad):
    """NaN slips past a ``< 0`` guard and inf past a ``>= 0`` one; both
    must raise before the tracker records anything."""
    tracker = LoadTracker()
    tracker.add_link_load(0, 1, 2.0)
    tracker.add_node_load("vm", 1.0)
    tracker.drain_dirty_links()
    for call in (tracker.add_link_load, tracker.release_link_load):
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            call(0, 1, bad)
    for call in (tracker.add_node_load, tracker.release_node_load):
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            call("vm", bad)
    assert tracker.link_load == {(0, 1): 2.0}
    assert tracker.node_load == {"vm": 1.0}
    assert tracker.dirty_links == set()


@NON_FINITE
def test_non_finite_background_load_leaves_simulator_unchanged(network, bad):
    simulator = OnlineSimulator(network)
    links = sorted(((u, v) for u, v, _ in network.graph.edges()), key=repr)
    loads = dict(simulator.tracker.link_load)
    costs = sorted(simulator._graph.edges(), key=repr)
    with pytest.raises(ValueError, match="must be >= 0 and finite"):
        simulator.apply_background_load(links[:3], bad)
    assert simulator.tracker.link_load == loads
    assert simulator.tracker.dirty_links == set()
    assert sorted(simulator._graph.edges(), key=repr) == costs
    # The simulator still works afterwards.
    simulator.apply_background_load(links[:3], 2.0)
    assert sum(simulator.tracker.link_load.values()) == 6.0


@NON_FINITE
def test_non_finite_background_churn_rejected(bad):
    with pytest.raises(ValueError, match="must be >= 0 and finite"):
        BackgroundChurn(period=1.0, link_batches=(((0, 1),),),
                        demand_mbps=bad)


def _bad_demand_events(bad):
    request = Request(
        index=0, sources=(0,), destinations=(1,),
        chain=ServiceChain.of_length(2), demand_mbps=bad,
    )
    return [
        WorkloadEvent(time=1.0, kind="arrive", request=request, hold=2.0),
        WorkloadEvent(time=1.0, kind="background", links=((0, 1),),
                      demand_mbps=bad),
    ]


@NON_FINITE
def test_trace_rejects_non_finite_demand(bad):
    """Python's JSON reader accepts NaN/Infinity, so the decoder checks."""
    for event in _bad_demand_events(bad):
        lines = list(dump_trace([event]))
        with pytest.raises(ValueError, match=f"{event.kind} event at time"):
            load_trace(lines)


@NON_FINITE
def test_cli_replay_of_non_finite_demand_exits_2(capsys, tmp_path, bad):
    from repro.cli import main

    path = tmp_path / "bad.jsonl"
    write_trace(_bad_demand_events(bad), path,
                meta={"topology": "softlayer", "topology_seed": 1})
    assert main(["workload", "--replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "must be >= 0 and finite" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_release_node_load_guard():
    tracker = LoadTracker()
    tracker.add_node_load("vm", 1.0)
    with pytest.raises(ValueError, match="cannot release"):
        tracker.release_node_load("vm", 2.0)
    tracker.release_node_load("vm", 1.0)
    assert tracker.node_load["vm"] == 0.0


# ----------------------------------------------------------------------
# trace record/replay
# ----------------------------------------------------------------------
def test_trace_round_trip_preserves_events(network):
    churn = BackgroundChurn(
        period=6.0, link_batches=(((0, 1), (2, 3)),), demand_mbps=1.5
    )
    schedule = _schedule(network, background=churn)
    assert load_trace(dump_trace(schedule)) == schedule


def test_trace_round_trips_tuple_nodes():
    request = Request(
        index=3,
        sources=(("vm", 0, 1), "gw"),
        destinations=((("pod", 2), 4),),
        chain=ServiceChain(["transcode", "cache"]),
        demand_mbps=2.5,
    )
    schedule = [
        WorkloadEvent(time=1.5, kind="arrive", request=request, hold=4.0),
        WorkloadEvent(time=2.0, kind="background",
                      links=((("vm", 0, 1), "gw"),), demand_mbps=0.5),
    ]
    replayed = load_trace(dump_trace(schedule))
    assert replayed == schedule
    assert isinstance(replayed[0].request.sources[0], tuple)


def test_trace_encodes_infinite_hold_as_null(network):
    """`inf` holds must not leak the non-JSON `Infinity` token."""
    request = _generator(network).next_request()
    schedule = [WorkloadEvent(time=1.0, kind="arrive", request=request,
                              hold=float("inf"))]
    lines = list(dump_trace(schedule))
    assert "Infinity" not in "\n".join(lines)
    # The engine treats a null hold exactly like an infinite one
    # (the tenant never departs), so the encoding is lossless.
    assert load_trace(lines)[0].hold is None


def test_trace_metadata_round_trip(tmp_path):
    path = tmp_path / "meta.jsonl"
    write_trace([], path, meta={"topology": "cogent", "topology_seed": 4})
    assert read_trace_metadata(path) == {
        "topology": "cogent", "topology_seed": 4,
    }
    assert read_trace(path) == []
    # Traces recorded without metadata read back an empty mapping.
    write_trace([], path)
    assert read_trace_metadata(path) == {}


def test_trace_header_validation():
    with pytest.raises(ValueError, match="empty trace"):
        load_trace([])
    with pytest.raises(ValueError, match="not a workload trace"):
        load_trace(['{"record": "something-else", "version": 1}'])
    with pytest.raises(ValueError, match="unsupported trace version"):
        load_trace(['{"record": "sof-workload-trace", "version": 99}'])
    with pytest.raises(ValueError, match="unknown event kind"):
        load_trace([
            '{"record": "sof-workload-trace", "version": 1}',
            '{"time": 1.0, "kind": "depart"}',
        ])


def test_trace_file_replay_is_deterministic(network, tmp_path):
    """Recording a run and replaying its JSONL yields identical results."""
    path = tmp_path / "churn.jsonl"
    schedule = _schedule(network, horizon=15.0)
    write_trace(schedule, path)
    replayed = read_trace(path)
    assert replayed == schedule

    def run(events):
        simulator = OnlineSimulator(softlayer_network(seed=3))
        return WorkloadEngine(simulator, SOFDA).run(events)

    recorded_run, replayed_run = run(schedule), run(replayed)
    assert recorded_run.per_request_cost == replayed_run.per_request_cost
    assert [c is None for c in recorded_run.per_request_cost] == \
        [c is None for c in replayed_run.per_request_cost]
    assert recorded_run.departures == replayed_run.departures


# ----------------------------------------------------------------------
# harness + CLI integration
# ----------------------------------------------------------------------
def test_run_churn_comparison_isolates_state(network):
    schedule = _schedule(network, horizon=12.0)
    results = run_churn_comparison(
        lambda: softlayer_network(seed=3),
        {"SOFDA": SOFDA, "eST": est_baseline},
        schedule,
    )
    assert set(results) == {"SOFDA", "eST"}
    arrivals = sum(1 for e in schedule if e.kind == "arrive")
    for result in results.values():
        assert result.accepted + result.rejected == arrivals
        assert 0.0 <= result.acceptance_rate <= 1.0


def test_cli_workload_record_replay(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "cli.jsonl"
    assert main([
        "workload", "--process", "poisson", "--rate", "0.4",
        "--horizon", "10", "--hold-mean", "4", "--seed", "1",
        "--topology-seed", "2", "--record", str(trace_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "SOFDA" in out and "recorded trace" in out
    assert read_trace_metadata(trace_path) == {
        "topology": "softlayer", "topology_seed": 2,
    }
    # Replay reconstructs the recorded topology even though the flags
    # would default to topology seed 1.
    assert main(["workload", "--replay", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "replaying" in out and "SOFDA" in out
    assert "topology softlayer, seed 2" in out


def test_cli_workload_prints_eviction_split(capsys):
    """The row-cache line prints without a budget, and its idle and
    budget parts add up to the eviction total."""
    from repro.cli import main

    assert main(["workload", "--rate", "0.5", "--horizon", "8",
                 "--hold-mean", "3", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "row-cache residency (unbounded):" in out
    line = next(l for l in out.splitlines() if l.startswith("SOFDA ")
                and "evictions=" in l)
    fields = {k: int(v) for k, v in re.findall(r"(\w+)=\s*(\d+)", line)}
    assert fields["evictions"] > 0
    assert fields["budget"] == 0
    assert fields["idle"] + fields["budget"] == fields["evictions"]


def test_cli_workload_holding_flags_exclusive():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["workload", "--no-departures", "--hold-fixed", "5",
              "--horizon", "4"])


def test_cli_workload_replay_rejects_unknown_topology(tmp_path):
    from repro.cli import main

    path = tmp_path / "alien.jsonl"
    write_trace([], path, meta={"topology": "inet5000"})
    with pytest.raises(SystemExit, match="inet5000"):
        main(["workload", "--replay", str(path)])


def test_cli_workload_flash_with_baselines(capsys):
    from repro.cli import main

    assert main([
        "workload", "--process", "flash", "--rate", "0.3",
        "--burst-start", "2", "--burst-duration", "3",
        "--burst-factor", "4", "--horizon", "8", "--hold-fixed", "3",
        "--seed", "2", "--baselines",
    ]) == 0
    out = capsys.readouterr().out
    for name in ("SOFDA", "eNEMP", "eST", "ST"):
        assert name in out
