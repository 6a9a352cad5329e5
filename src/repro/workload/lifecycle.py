"""Tenant lifecycle engine: arrivals, holds, departures, background churn.

The paper's online scenario (Section VIII-A) only ever *adds* load: each
embedded request charges its demand to every link and VM it uses and the
Fortz--Thorup costs ratchet upward forever.  Real tenants leave.  This
module closes the loop: every arrival that embeds successfully holds its
resources for a (seeded) holding time and then departs, releasing exactly
the loads its :class:`~repro.online.simulator.Lease` recorded.  Released
links re-price *downward*, so departures reach the oracle as
decrease-carrying batches of
:meth:`~repro.graph.indexed.FrozenOracle.patch_edge_costs` -- the repair
path that routes through the per-row reference (a decrease moves parents
mid-repair, so the cross-row plan does not apply) and that no
arrivals-only workload ever exercises.

A *schedule* is an embedder-independent list of :class:`WorkloadEvent`\\ s
(arrivals with pre-drawn holding times, plus background-load ticks), so
competing embedders and simulator configurations replay the identical
event sequence; :class:`WorkloadEngine` interleaves the schedule with the
departures it spawns in deterministic timestamp order.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.online.requests import Request
from repro.online.simulator import OnlineSimulator
from repro.workload.processes import ArrivalProcess

Embedder = Callable[[SOFInstance], ServiceOverlayForest]

#: Same-time tie-break: departures free capacity first, recoveries bring
#: links back before new failures hit (a same-instant recover+fail of one
#: link is a flap, not a double-fail), background ticks re-price next,
#: and arrivals see the settled state last.
_PRIORITY = {"depart": 0, "recover": 1, "fail": 2, "background": 3, "arrive": 4}


# ----------------------------------------------------------------------
# holding-time policies
# ----------------------------------------------------------------------
class FixedHolding:
    """Every tenant holds for the same ``duration`` (``inf`` = forever)."""

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        self._duration = duration

    def draw(self) -> float:
        return self._duration


class ExponentialHolding:
    """Memoryless holding times with the given ``mean``.

    Draws are seeded and happen once per arrival at *schedule build*
    time, so the holding-time stream never depends on which requests an
    embedder accepts -- a prerequisite for replaying one schedule through
    several algorithms.
    """

    def __init__(self, mean: float, seed: int = 0) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        self._mean = mean
        self._rng = random.Random(seed)

    def draw(self) -> float:
        return self._rng.expovariate(1.0 / self._mean)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadEvent:
    """One embedder-independent schedule entry.

    ``kind`` is ``"arrive"`` (carries ``request`` and the pre-drawn
    ``hold``; ``hold=None`` or ``inf`` means the tenant never departs),
    ``"background"`` (carries ``links`` and ``demand_mbps`` for an
    :meth:`OnlineSimulator.apply_background_load` tick), or ``"fail"`` /
    ``"recover"`` (carry ``link``, the physical link that dies or comes
    back -- :meth:`OnlineSimulator.fail_link` /
    :meth:`OnlineSimulator.recover_link`).
    """

    time: float
    kind: str
    request: Optional[Request] = None
    hold: Optional[float] = None
    links: Tuple[Tuple[object, object], ...] = ()
    demand_mbps: float = 0.0
    link: Optional[Tuple[object, object]] = None


@dataclass(frozen=True)
class BackgroundChurn:
    """Periodic cross-tenant load ticks cycling through link batches."""

    period: float
    link_batches: Tuple[Tuple[Tuple[object, object], ...], ...]
    demand_mbps: float

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period!r}")
        if not self.link_batches:
            raise ValueError("link_batches must contain at least one batch")
        if not (self.demand_mbps >= 0) or math.isinf(self.demand_mbps):
            raise ValueError(
                f"demand_mbps must be >= 0 and finite, got "
                f"{self.demand_mbps!r}"
            )

    def events(self, horizon: float) -> List[WorkloadEvent]:
        out = []
        tick = 0
        while (tick + 1) * self.period <= horizon:
            batch = self.link_batches[tick % len(self.link_batches)]
            out.append(WorkloadEvent(
                time=(tick + 1) * self.period, kind="background",
                links=tuple(batch), demand_mbps=self.demand_mbps,
            ))
            tick += 1
        return out


def build_schedule(
    process: ArrivalProcess,
    horizon: float,
    holding,
    background: Optional[BackgroundChurn] = None,
    failures=None,
) -> List[WorkloadEvent]:
    """Materialise one embedder-independent schedule up to ``horizon``.

    Holding times are drawn from ``holding`` (an object with ``draw()``,
    or ``None`` for tenants that never depart) at build time, one per
    arrival, so the schedule is a pure function of its seeds.
    ``failures`` (a :class:`~repro.workload.processes.LinkFailureProcess`,
    or any object with ``events(horizon)`` yielding timestamped
    fail/recover link events) interleaves link failures and recoveries
    with the churn; recoveries scheduled past the horizon are kept so no
    trace ends with a permanently dead link.
    """
    events = [
        WorkloadEvent(
            time=arrival.time, kind="arrive", request=arrival.request,
            hold=holding.draw() if holding is not None else None,
        )
        for arrival in process.arrivals(horizon)
    ]
    if background is not None:
        events.extend(background.events(horizon))
    if failures is not None:
        events.extend(
            WorkloadEvent(time=e.time, kind=e.kind, link=tuple(e.link))
            for e in failures.events(horizon)
        )
    events.sort(key=lambda e: (e.time, _PRIORITY[e.kind]))
    return events


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclass
class ChurnResult:
    """Outcome of one schedule replayed through one embedder."""

    name: str = ""
    #: Embedding-time cost per arrival, in arrival order; ``None`` marks
    #: a rejected request.
    per_request_cost: List[Optional[float]] = field(default_factory=list)
    request_indices: List[int] = field(default_factory=list)
    arrival_times: List[float] = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    departures: int = 0
    peak_active: int = 0
    final_active: int = 0
    #: Availability accounting (link-failure events).  ``rerouted`` and
    #: ``disrupted`` count lease outcomes across all failures: a tenant
    #: moved to surviving paths versus released mid-lease.
    failures: int = 0
    recoveries: int = 0
    rerouted: int = 0
    disrupted: int = 0
    #: Per-recovery downtime (recover time minus fail time), in trace
    #: time units, in recovery order.
    recovery_latencies: List[float] = field(default_factory=list)
    #: The simulator's unified cache snapshot at end of run (rows
    #: resident, bytes, hits/misses, evictions), from
    #: :meth:`~repro.online.simulator.OnlineSimulator.cache_snapshot`;
    #: ``None`` until :meth:`WorkloadEngine.run` finishes.
    cache_stats: Optional[dict] = None

    @property
    def acceptance_rate(self) -> float:
        """Accepted arrivals over all arrivals (1.0 on an empty run)."""
        total = self.accepted + self.rejected
        return self.accepted / total if total else 1.0

    @property
    def disruption_rate(self) -> float:
        """Disrupted tenants over all accepted tenants (0.0 on empty)."""
        return self.disrupted / self.accepted if self.accepted else 0.0

    @property
    def mean_recovery_latency(self) -> float:
        """Mean link downtime per recovery (0.0 with no recoveries)."""
        if not self.recovery_latencies:
            return 0.0
        return sum(self.recovery_latencies) / len(self.recovery_latencies)

    @property
    def total_cost(self) -> float:
        """Sum of embedding-time costs over accepted requests."""
        return sum(c for c in self.per_request_cost if c is not None)


class WorkloadEngine:
    """Replay one schedule through one simulator, spawning departures.

    The event loop pops ``(time, kind-priority, sequence)``-ordered
    events from a heap: schedule entries enter with their build order as
    the sequence, accepted arrivals push a departure event at
    ``time + hold``, and every pop is therefore deterministic for a given
    schedule and embedder.  Departures release the arrival's
    :class:`~repro.online.simulator.Lease`, which flows back to the
    oracle as a decrease patch at the next cost sync.

    ``fail`` / ``recover`` schedule entries call
    :meth:`OnlineSimulator.fail_link` / :meth:`recover_link` and fold the
    returned :class:`~repro.online.simulator.FailureImpact` into the
    availability counters (``rerouted``, ``disrupted``,
    ``recovery_latencies``).  A tenant disrupted by a failure is released
    at failure time; its scheduled departure becomes a no-op (the engine
    checks :attr:`Lease.released` before releasing again).
    """

    def __init__(
        self,
        simulator: OnlineSimulator,
        embedder: Embedder,
        name: str = "",
        metrics: Optional[object] = None,
    ) -> None:
        self._simulator = simulator
        self._embedder = embedder
        self._name = name
        # ``metrics=None`` inherits the simulator's recorder, so one
        # ``OnlineSimulator(metrics=...)`` instruments the whole stack;
        # the engine stays zero-overhead when neither carries one.
        mx = metrics if metrics is not None else getattr(
            simulator, "metrics", None
        )
        self._metrics = mx if mx else None

    def run(self, schedule: Sequence[WorkloadEvent]) -> ChurnResult:
        result = ChurnResult(name=self._name)
        mx = self._metrics
        heap: List[Tuple[float, int, int, WorkloadEvent, object]] = []
        sequence = 0
        for event in schedule:
            heapq.heappush(
                heap, (event.time, _PRIORITY[event.kind], sequence, event, None)
            )
            sequence += 1
        active = 0
        fail_times: dict = {}
        while heap:
            time, _, _, event, lease = heapq.heappop(heap)
            t0 = mx.clock() if mx else 0.0
            if event.kind == "depart":
                if lease.released:
                    # A link failure already disrupted this tenant; its
                    # loads went back at release time, so the scheduled
                    # departure is a no-op.
                    pass
                else:
                    self._simulator.release(lease)
                    result.departures += 1
                    active -= 1
            elif event.kind == "fail":
                impact = self._simulator.fail_link(*event.link)
                result.failures += 1
                result.rerouted += len(impact.rerouted)
                result.disrupted += len(impact.disrupted)
                active -= len(impact.disrupted)
                fail_times[tuple(event.link)] = time
            elif event.kind == "recover":
                self._simulator.recover_link(*event.link)
                result.recoveries += 1
                failed_at = fail_times.pop(tuple(event.link), None)
                if failed_at is not None:
                    result.recovery_latencies.append(time - failed_at)
            elif event.kind == "background":
                self._simulator.apply_background_load(
                    event.links, event.demand_mbps
                )
            elif event.kind == "arrive":
                cost = self._arrive(event, heap, sequence)
                sequence += 1
                result.per_request_cost.append(cost)
                result.request_indices.append(event.request.index)
                result.arrival_times.append(time)
                if cost is None:
                    result.rejected += 1
                    if mx:
                        mx.inc("workload.rejected", algo=self._name)
                else:
                    result.accepted += 1
                    active += 1
                    result.peak_active = max(result.peak_active, active)
                    if mx:
                        mx.inc("workload.accepted", algo=self._name)
            else:
                raise ValueError(f"unknown event kind {event.kind!r}")
            if mx:
                mx.span("workload.event", t0, kind=event.kind)
        result.final_active = active
        result.cache_stats = self._simulator.cache_snapshot()
        return result

    def _arrive(self, event, heap, sequence) -> Optional[float]:
        """Embed one arrival; schedule its departure on acceptance."""
        cost, lease = self._simulator.embed_leased(
            event.request, self._embedder
        )
        if cost is None:
            return None
        if event.hold is not None and math.isfinite(event.hold):
            departure = WorkloadEvent(
                time=event.time + event.hold, kind="depart",
                request=event.request,
            )
            heapq.heappush(
                heap,
                (departure.time, _PRIORITY["depart"], sequence, departure,
                 lease),
            )
        return cost
