"""Seeded inputs and single passes for the three benchmark workloads.

A *pass* replays one seed's complete input from fresh program state:

* ``churn`` / ``failover`` build a new ``OnlineSimulator`` (the set-up
  the ``setup_s`` metric times), warm its VM pool, and hand the seed's
  schedule to one ``WorkloadEngine`` -- a closed loop with one caller:
  the engine pops the next event only after the previous one returned,
  and the schedule's trace-time rates decide the event mix, never the
  wall-clock pacing.
* ``offline`` draws a fresh ``make_instance`` per solve (the set-up) and
  times one cold ``sofda()`` per instance.

The topologies, the failing links and the event timeline (arrival,
holding and failure times) are part of each workload and fixed, so a
run's seed changes the requests (sources and destinations) and the
offline instance draws.  Every schedule holds exactly its
``ARRIVALS`` (and ``FAILURES`` failures) over a fixed horizon.
"""

from __future__ import annotations

import gc
import importlib
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.problem import ServiceChain
from repro.core.validation import ForestInfeasible, check_forest
from repro.graph.graph import canonical_edge, edge_sort_key
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import inet_network
from repro.workload import (
    BackgroundChurn,
    ExponentialHolding,
    LinkFailureProcess,
    PoissonArrivals,
    WorkloadEngine,
    build_schedule,
)

# ``repro.core`` re-exports the *function* ``sofda`` under the module's
# name, so ``import repro.core.sofda as m`` would bind the function.
SOFDA_MODULE = importlib.import_module("repro.core.sofda")
FrozenOracle = importlib.import_module("repro.graph.indexed").FrozenOracle

# Online shape (churn and failover): the paper's Section VIII-A setup.
ONLINE_NODES, ONLINE_LINKS, ONLINE_DCS, VMS_PER_DC = 2500, 5000, 40, 5
ARRIVAL_RATE, HOLD_MEAN = 0.9, 3.0
#: Arrivals per schedule.  A failover arrival costs about twice a churn
#: arrival (each failure may rebuild the VM-pool rows), so its schedule
#: is shorter and both runs fit the same time.
ARRIVALS = {"churn": 16, "failover": 8}
BACKGROUND_LINKS, BACKGROUND_BATCHES, BACKGROUND_MBPS = 24, 6, 2.0
FAILURE_LINKS, MTBF, MTTR = 32, 25.0, 1.0
#: Seeds the event timeline.  Timelines drawn per run seed changed the
#: work in a pass by up to 40%, far beyond any bound a run could hold.
TIMING_SEED = 1
#: Failures per schedule: about the expected count over the horizon.
FAILURES = round(
    FAILURE_LINKS * ARRIVALS["failover"] / ARRIVAL_RATE / (MTBF + MTTR)
)

# Offline shape: the Table-I (5000, 26) cell.
OFFLINE_NODES, OFFLINE_LINKS, OFFLINE_DCS = 5000, 10000, 2000
OFFLINE_SOURCES, OFFLINE_DESTINATIONS, OFFLINE_VMS, OFFLINE_CHAIN = 26, 6, 25, 3
OFFLINE_SOLVES = 20


def embed(instance):
    """The library-default embedder, looked up at call time."""
    return SOFDA_MODULE.sofda(instance).forest


@dataclass
class Inputs:
    """Everything a pass consumes; a pure function of (workload, seed)."""

    workload: str
    seed: int
    network: object
    schedule: list = field(default_factory=list)
    instance_seeds: List[int] = field(default_factory=list)
    #: Background demand each link carries once every tenant has left.
    background_load: Dict[tuple, float] = field(default_factory=dict)


@dataclass
class PassResult:
    """One pass: timings, decisions and correctness findings."""

    setup_s: List[float] = field(default_factory=list)
    loop_s: float = 0.0
    #: Median control slice of this pass (see ``control.py``).
    control_s: float = 0.0
    ops: int = 0
    embed_s: List[float] = field(default_factory=list)
    fail_s: List[float] = field(default_factory=list)
    #: Per-arrival (or per-solve) cost; ``None`` marks a rejection.
    costs: List[Optional[float]] = field(default_factory=list)
    events: Dict[str, int] = field(default_factory=dict)
    accepted: int = 0
    rejected: int = 0
    disrupted: int = 0
    rerouted: int = 0
    invalidate_calls: int = 0
    cache_delta: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _conditioned(rng: random.Random, draw: Callable, count: int) -> int:
    """A sub-seed for which ``draw(sub_seed)`` yields exactly ``count``.

    Rejection sampling: the accepted process is the seeded process
    conditioned on its event count, so every seed gives the same amount
    of work and only the event times and contents vary.
    """
    while True:
        sub = rng.randrange(2 ** 31)
        if len(draw(sub)) == count:
            return sub


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate one workload's inputs from ``seed`` (not timed)."""
    rng = random.Random(seed)
    timing = random.Random(TIMING_SEED)
    if workload == "offline":
        network = inet_network(
            num_nodes=OFFLINE_NODES, num_links=OFFLINE_LINKS,
            num_datacenters=OFFLINE_DCS, seed=0,
        )
        base = rng.randrange(2 ** 31)
        return Inputs(
            workload, seed, network,
            instance_seeds=[base + i for i in range(OFFLINE_SOLVES)],
        )
    network = inet_network(
        num_nodes=ONLINE_NODES, num_links=ONLINE_LINKS,
        num_datacenters=ONLINE_DCS, seed=0,
    )
    arrivals = ARRIVALS[workload]
    horizon = arrivals / ARRIVAL_RATE
    s_req, s_hold = rng.randrange(2 ** 31), timing.randrange(2 ** 31)

    def process(s_arr):
        generator = RequestGenerator(
            network, seed=s_req, destinations_range=(3, 4),
            sources_range=(2, 2),
        )
        return PoissonArrivals(generator, rate=ARRIVAL_RATE, seed=s_arr)

    s_arr = _conditioned(
        timing, lambda sub: process(sub).take(horizon), arrivals
    )
    holding = ExponentialHolding(mean=HOLD_MEAN, seed=s_hold)
    inputs = Inputs(workload, seed, network)
    if workload == "churn":
        # The lowest-key links sit on the Inet seed hubs: every VM-pool
        # row's tree uses them, so each tick is a dense repair.
        hubs = sorted(
            (tuple(e[:2]) for e in network.graph.edges()), key=edge_sort_key
        )[:BACKGROUND_LINKS]
        batches = tuple(
            tuple(hubs[i::BACKGROUND_BATCHES])
            for i in range(BACKGROUND_BATCHES)
        )
        background = BackgroundChurn(
            period=1.0, link_batches=batches, demand_mbps=BACKGROUND_MBPS
        )
        inputs.schedule = build_schedule(
            process(s_arr), horizon=horizon, holding=holding,
            background=background,
        )
        for event in inputs.schedule:
            for u, v in event.links:
                key = canonical_edge(u, v)
                inputs.background_load[key] = (
                    inputs.background_load.get(key, 0.0) + event.demand_mbps
                )
    else:  # failover
        # The failing links are part of the network, like the topology:
        # a fixed sample of datacenter-incident links, which tenants'
        # chains use to reach the VMs.
        datacenters = set(network.datacenters)
        incident = sorted(
            (
                (u, v) for u, v, _ in network.graph.edges()
                if u in datacenters or v in datacenters
            ),
            key=edge_sort_key,
        )
        links = random.Random(6).sample(incident, FAILURE_LINKS)

        def failures(sub):
            return LinkFailureProcess(links, mtbf=MTBF, mttr=MTTR, seed=sub)

        s_fail = _conditioned(
            timing,
            lambda sub: [
                e for e in failures(sub).events(horizon) if e.kind == "fail"
            ],
            FAILURES,
        )
        inputs.schedule = build_schedule(
            process(s_arr), horizon=horizon, holding=holding,
            failures=failures(s_fail),
        )
    return inputs


def _cache_delta(before: dict, after: dict) -> Dict[str, float]:
    out = {
        key: after[key] - before[key]
        for key in ("hits", "misses", "idle_evictions")
    }
    out["peak_bytes"] = after["peak_bytes"]
    return out


def online_pass(
    inputs: Inputs, control, around_loop: Callable = nullcontext,
    metrics=None,
) -> PassResult:
    """Replay the schedule once through a fresh simulator.

    ``control`` runs one slice before every engine call it can see;
    slice time is taken out of the loop time.  ``around_loop`` (a
    context-manager factory) wraps only the event loop -- the traced run
    installs its span wrappers there.
    """
    out = PassResult()
    gc.collect()
    t0 = time.perf_counter()
    simulator = OnlineSimulator(
        inputs.network, vms_per_datacenter=VMS_PER_DC, metrics=metrics
    )
    simulator.apply_background_load((), 0.0)  # warm the VM-pool rows
    out.setup_s.append(time.perf_counter() - t0)
    engine = WorkloadEngine(simulator, embed)

    # The engine calls the simulator through its instance, so instance
    # attributes shadow the methods.  Each one looks the class attribute
    # up per call, so span wrappers installed on the class still see it.
    # ``release`` is left alone: ``fail_link`` calls it from inside.
    committed = []
    slices = []
    cls = type(simulator)

    def timed(name, samples=None):
        def call(*args):
            slices.append(control.slice())
            start = time.perf_counter()
            result = getattr(cls, name)(simulator, *args)
            if samples is not None:
                samples.append(time.perf_counter() - start)
            return result

        return call

    embed_leased = timed("embed_leased", out.embed_s)

    def arrive(request, embedder):
        cost, lease = embed_leased(request, embedder)
        if lease is not None:
            committed.append((lease, lease.forest))
        return cost, lease

    simulator.embed_leased = arrive
    simulator.fail_link = timed("fail_link", out.fail_s)
    simulator.recover_link = timed("recover_link")
    simulator.apply_background_load = timed("apply_background_load")
    invalidate_calls = count_calls(FrozenOracle, "invalidate")
    before = simulator.cache_snapshot()
    with invalidate_calls, around_loop():
        start = time.perf_counter()
        result = engine.run(inputs.schedule)
        out.loop_s = time.perf_counter() - start - sum(slices)
    out.control_s = statistics.median(slices)
    for name in ("embed_leased", "fail_link", "recover_link",
                 "apply_background_load"):
        delattr(simulator, name)
    out.cache_delta = _cache_delta(before, simulator.cache_snapshot())
    out.invalidate_calls = invalidate_calls.calls

    out.costs = list(result.per_request_cost)
    out.accepted, out.rejected = result.accepted, result.rejected
    out.disrupted, out.rerouted = result.disrupted, result.rerouted
    kinds = [event.kind for event in inputs.schedule]
    out.events = {
        "arrive": kinds.count("arrive"),
        "depart": result.departures,
        "background": kinds.count("background"),
        "fail": result.failures,
        "recover": result.recoveries,
    }
    out.ops = sum(out.events.values())
    _check_online(inputs, simulator, result, committed, out.problems)
    return out


def _check_online(inputs, simulator, result, committed, problems) -> None:
    """Correctness gate for one online pass (outside the timed loop)."""
    for lease, forest in committed:
        for f in {id(forest): forest, id(lease.forest): lease.forest}.values():
            try:
                check_forest(f.instance, f)
            except ForestInfeasible as exc:
                problems.append(
                    f"request {lease.request_index}: forest fails "
                    f"check_forest: {exc}"
                )
    if result.final_active != 0:
        problems.append(f"{result.final_active} tenants still active at end")
    tracker = simulator.tracker
    for node, load in tracker.node_load.items():
        if load != 0.0:
            problems.append(f"node {node!r} keeps load {load!r} after drain")
    for key, load in tracker.link_load.items():
        expected = inputs.background_load.get(key, 0.0)
        if abs(load - expected) > 1e-6 * max(1.0, expected):
            problems.append(
                f"link {key!r} keeps load {load!r}, background is {expected!r}"
            )


def offline_pass(
    inputs: Inputs, control, around_solve: Callable = nullcontext
) -> PassResult:
    """Solve every seeded instance once, cold, and check each forest."""
    out = PassResult()
    network = inputs.network
    chain = ServiceChain.of_length(OFFLINE_CHAIN)
    invalidate_calls = count_calls(FrozenOracle, "invalidate")
    cache = {"hits": 0, "misses": 0, "idle_evictions": 0, "peak_bytes": 0}
    slices = []
    gc.collect()
    for instance_seed in inputs.instance_seeds:
        t0 = time.perf_counter()
        instance = network.make_instance(
            num_sources=OFFLINE_SOURCES, num_destinations=OFFLINE_DESTINATIONS,
            num_vms=OFFLINE_VMS, chain=chain, seed=instance_seed,
        )
        out.setup_s.append(time.perf_counter() - t0)
        slices.append(control.slice())
        with invalidate_calls, around_solve():
            start = time.perf_counter()
            forest = embed(instance)
            elapsed = time.perf_counter() - start
        out.embed_s.append(elapsed)
        out.loop_s += elapsed
        out.costs.append(forest.total_cost())
        try:
            check_forest(instance, forest)
        except ForestInfeasible as exc:
            out.problems.append(f"instance seed {instance_seed}: {exc}")
        stats = instance.oracle.cache_snapshot()
        for key in ("hits", "misses", "idle_evictions"):
            cache[key] += stats[key]
        cache["peak_bytes"] = max(cache["peak_bytes"], stats["peak_bytes"])
    out.cache_delta = cache
    out.control_s = statistics.median(slices)
    out.invalidate_calls = invalidate_calls.calls
    out.accepted = out.ops = len(out.costs)
    out.events = {"arrive": out.ops}
    return out


class count_calls:
    """Re-entrant context that counts calls to one class attribute."""

    def __init__(self, owner, name: str) -> None:
        self._owner, self._name = owner, name
        self.calls = 0

    def __enter__(self):
        original = getattr(self._owner, self._name)
        self._original = original

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        setattr(self._owner, self._name, counted)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self._owner, self._name, self._original)
