"""The online embedding loop (Fig. 12) with tenant lifecycles.

Each algorithm runs in its own :class:`OnlineSimulator`, which owns a
topology copy with 5 VMs per data center (the paper's Section VIII-A
online setup), a :class:`~repro.costmodel.LoadTracker`, and the
accumulative cost series.  Replaying the same
:class:`~repro.online.requests.Request` list into several simulators
compares algorithms on identical workloads.

Beyond the paper's arrivals-only model, committed forests are leased,
not permanent: :meth:`OnlineSimulator.commit` returns a :class:`Lease`
recording exactly the link/node loads it accounted, and
:meth:`OnlineSimulator.release` hands them back when the tenant departs.
Released links re-price downward at the next cost sync, reaching the
shared oracle as *decrease*-carrying
:meth:`~repro.graph.indexed.FrozenOracle.patch_edge_costs` batches: the
oracle relaxes the decreases into every live row first, then repairs the
batch's increases through the same planned path arrivals take.

The oracle drops, at each patch, every row left unserved since its
previous patch.  An arrival's sync is followed by the request's own
queries, but a background tick, a link failure and a link recovery
patch with no query after them, and a failure or recovery patches twice
in a row (cost sync, then topology).  The simulator therefore touches
its VM pool -- the rows every SOFDA request's Procedure-1 sweep reads --
after each of those patches and between the two patches of a failure
or recovery, so the pool stays resident and is repaired in place
instead of rebuilt cold.  Arrival syncs touch nothing: embedders that
read only part of the pool keep the oracle's idle drop of the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.costmodel import LoadTracker
from repro.graph import FrozenOracle
from repro.graph.graph import canonical_edge, edge_sort_key
from repro.online.requests import Request
from repro.topology.network import CloudNetwork

Node = Hashable
Edge = Tuple[Node, Node]

#: An embedding algorithm: SOFInstance -> ServiceOverlayForest.
Embedder = Callable[[SOFInstance], ServiceOverlayForest]


@dataclass
class Lease:
    """The exact loads one committed forest holds until it departs.

    ``link_loads`` maps canonical edges to the *total* demand
    :meth:`OnlineSimulator.commit` accounted on them (an edge reused by
    several chain stages is charged once per stage, and the lease records
    the sum); ``node_loads`` records the slot demand per enabled VM.
    :meth:`OnlineSimulator.release` reverses precisely these amounts, so
    arrive/depart cycles are lossless.
    """

    request_index: int
    link_loads: Tuple[Tuple[Edge, float], ...]
    node_loads: Tuple[Tuple[Node, float], ...]
    released: bool = False
    #: The committed request and its embedded forest, kept so link
    #: failures can identify and reroute the tenants crossing a dead
    #: link (:meth:`OnlineSimulator.fail_link`).
    request: Optional[Request] = None
    forest: Optional[ServiceOverlayForest] = None


@dataclass(frozen=True)
class FailureImpact:
    """What one :meth:`OnlineSimulator.fail_link` did to active tenants.

    ``rerouted`` and ``disrupted`` hold the request indices of the
    crossing leases that were moved onto surviving paths versus released
    (the tenant dropped); ``crossing = len(rerouted) + len(disrupted)``.
    """

    link: Edge
    rerouted: Tuple[int, ...] = ()
    disrupted: Tuple[int, ...] = ()

    @property
    def crossing(self) -> int:
        """Number of active leases whose forests used the dead link."""
        return len(self.rerouted) + len(self.disrupted)


@dataclass
class OnlineResult:
    """Per-algorithm outcome of an online run."""

    name: str
    per_request_cost: List[float] = field(default_factory=list)
    accumulative_cost: List[float] = field(default_factory=list)
    rejected: int = 0

    @property
    def total_cost(self) -> float:
        """Final accumulative cost of the run."""
        return self.accumulative_cost[-1] if self.accumulative_cost else 0.0


class OnlineSimulator:
    """Stateful online embedder for one algorithm over one topology."""

    def __init__(
        self,
        network: CloudNetwork,
        vms_per_datacenter: int = 5,
        link_capacity: float = 100.0,
        vm_capacity: float = 5.0,
        cost_floor: float = 0.01,
        incremental: bool = True,
        row_budget_bytes: Optional[int] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self._network = network
        self._tracker = LoadTracker(
            link_capacity=link_capacity, node_capacity=vm_capacity
        )
        self._cost_floor = cost_floor
        # ``incremental=False`` falls back to a full oracle rebuild per
        # cost change -- the pre-patch behaviour, kept as the benchmark
        # and equivalence-test reference.  Incremental simulators repair
        # the oracle's cached rows in place through its one repair engine
        # (arrivals and background load reach it as cost increases,
        # departures and link recoveries as decreases).  Link failures
        # and recoveries reach it as tombstone topology patches.
        # ``row_budget_bytes`` caps the oracle row cache's accounted
        # residency (see :mod:`repro.graph.rowcache`): long-lived
        # simulators over large topologies bound memory by evicting
        # low-retention rows, which recompute to bit-identical labels on
        # demand.  ``None`` (the default) keeps today's unbounded cache.
        # ``metrics`` is an optional :class:`~repro.obs.recorder.Recorder`
        # shared with the oracle; ``None`` (the default) keeps every
        # instrumented seam a single falsy check -- zero-overhead and
        # bit-identical, the same flag-gated-reference discipline as the
        # knobs above.
        self._metrics = metrics if metrics else None
        self._incremental = incremental
        #: Canonical keys of currently failed links.
        self._failed: set = set()
        #: Live leases by identity, for failure-impact scans.
        self._active: Dict[int, Lease] = {}

        # Build the working graph once: access topology + fixed VM pool.
        graph = network.graph.copy()
        self._vms: List[Node] = []
        hosts = network.datacenters or network.access_nodes()
        for dc_index, dc in enumerate(hosts):
            for k in range(vms_per_datacenter):
                vm = ("vm", dc_index, k)
                graph.add_node(vm)
                graph.add_edge(vm, dc, cost_floor)
                self._vms.append(vm)
        self._graph = graph
        # The simulator owns ONE load-bearing graph and ONE shared oracle
        # for its whole lifetime.  Requests see the live graph (embedders
        # must not mutate it); commits update only the edges whose loads
        # changed and patch the oracle only when a cost really moved.
        self._tracker.apply_to_graph(graph, floor=cost_floor)
        self._oracle = FrozenOracle(
            graph, hot=self._vms, row_budget_bytes=row_budget_bytes,
            metrics=metrics,
        )

    @property
    def tracker(self) -> LoadTracker:
        """The simulator's load state."""
        return self._tracker

    @property
    def metrics(self):
        """The attached recorder, or ``None`` when observability is off."""
        return self._metrics

    def cache_snapshot(self) -> Dict[str, Optional[int]]:
        """The shared oracle's cache counters as a unified snapshot.

        Returns the unified snapshot shape documented in :mod:`repro.obs`,
        with ``scope="simulator"``; the workload engine and benches read
        this to track resident row bytes and eviction counts over a
        trace.
        """
        return self._oracle.cache_snapshot(scope="simulator")

    @property
    def vms(self) -> List[Node]:
        """The fixed VM pool (copies)."""
        return list(self._vms)

    def _sync_costs(self) -> None:
        """Fold tracker load changes into the graph and patch the oracle.

        Only links whose load moved since the last sync are touched, and
        failed links are skipped: commits and releases move edge *costs*
        only, while link failure and recovery change the topology through
        :meth:`fail_link` / :meth:`recover_link`.  The default path hands
        the changed costs to :meth:`FrozenOracle.patch_edge_costs`, which
        updates the graph and the oracle's weight arrays in place and
        repairs the cached rows.  With ``incremental=False`` the costs
        are written directly and the whole oracle is rebuilt.

        The batch is built in canonical edge order
        (:func:`~repro.graph.graph.edge_sort_key`), not in the dirty
        set's hash order: the VM attachment edges are keyed by tuples
        holding a ``str``, whose hash is salted per process, and the
        batch order decides which parent a repaired row keeps on an
        equal-cost tie.
        """
        changed = {}
        dirty = sorted(self._tracker.drain_dirty_links(), key=edge_sort_key)
        for u, v in dirty:
            if canonical_edge(u, v) in self._failed:
                # A dead link has no cost to sync; its tracker load still
                # updates (crossing leases release through it) and is
                # folded back in at recovery repricing.
                continue
            cost = max(self._tracker.link_cost(u, v), self._cost_floor)
            if self._graph.cost(u, v) != cost:
                changed[(u, v)] = cost
        if not changed:
            return
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        if self._incremental:
            self._oracle.patch_edge_costs(changed)
        else:
            for (u, v), cost in changed.items():
                self._graph.add_edge(u, v, cost)
            self._oracle.invalidate()
        if mx:
            mx.inc("sim.sync.edges", len(changed))
            mx.span("sim.sync", t0, trace_args={"edges": len(changed)})

    def apply_background_load(
        self, links: Sequence, demand_mbps: float
    ) -> None:
        """Account non-request load on ``links`` and reprice immediately.

        Models the paper's load-driven cost growth happening *between*
        embeddings: hot shared links gain load from traffic outside the
        simulated workload (other tenants, background flows), and the
        live graph/oracle must track the new costs before the next
        request is materialised.  The VM pool's rows are touched after
        the repricing, whatever the mode: no query follows this patch,
        so without the touch the next one would drop the pool as idle
        (see the module docstring).  The same touch builds a fresh
        simulator's pool (``apply_background_load((), 0.0)`` is the
        pool warm-up).

        ``demand_mbps`` must be finite and non-negative; a bad value
        raises ``ValueError`` before the tracker or the graph changes.
        """
        if not (demand_mbps >= 0) or math.isinf(demand_mbps):
            raise ValueError(
                f"background demand must be >= 0 and finite, got "
                f"{demand_mbps!r}; "
                "departures release load through Lease/release instead"
            )
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        for u, v in links:
            self._tracker.add_link_load(u, v, demand_mbps)
        self._sync_costs()
        self._oracle.prefetch_rows(self._vms)
        if mx:
            mx.span("sim.background", t0, trace_args={"links": len(links)})

    def current_instance(self, request: Request) -> SOFInstance:
        """Materialise the SOF instance for ``request`` at current loads.

        The instance shares the simulator's live graph and oracle;
        embedders must treat the graph as read-only.  Forests embedded on
        it are therefore *views* over live costs, not snapshots: evaluate
        ``forest.total_cost()`` before the next request is materialised
        (as :meth:`embed` does), because later requests re-price loaded
        edges in place.
        """
        self._sync_costs()
        node_costs = {vm: self._tracker.node_cost(vm) for vm in self._vms}
        instance = SOFInstance(
            graph=self._graph,
            vms=self._vms,
            sources=request.sources,
            destinations=request.destinations,
            chain=request.chain,
            node_costs=node_costs,
        )
        self._oracle.extend_hot(instance.sources | instance.destinations)
        instance._oracle = self._oracle
        return instance

    def commit(self, forest: ServiceOverlayForest, request: Request) -> Lease:
        """Account the embedded forest's bandwidth and host load.

        Returns a :class:`Lease` recording exactly what was accounted, so
        the tenant's departure can hand the same loads back through
        :meth:`release`.
        """
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        link_totals = self._charge_links(forest, request.demand_mbps)
        node_totals: Dict[Node, float] = {}
        for vm in forest.enabled:
            self._tracker.add_node_load(vm, 1.0)
            node_totals[vm] = node_totals.get(vm, 0.0) + 1.0
        lease = Lease(
            request_index=request.index,
            link_loads=tuple(link_totals.items()),
            node_loads=tuple(node_totals.items()),
            request=request,
            forest=forest,
        )
        self._active[id(lease)] = lease
        if mx:
            mx.inc("sim.commits")
            mx.span("sim.commit", t0,
                    trace_args={"request": request.index,
                                "links": len(link_totals)})
        return lease

    def _charge_links(
        self, forest: ServiceOverlayForest, demand_mbps: float
    ) -> Dict[Edge, float]:
        """Charge ``demand_mbps`` on every arc ``forest`` pays for.

        One charge per :meth:`ServiceOverlayForest.paid_edges` entry, so
        a link carries one stream copy per stage the objective pays it
        at.  Returns the per-canonical-edge totals charged -- exactly the
        amounts a lease must hand back on release.
        """
        link_totals: Dict[Edge, float] = {}
        for _, u, v in forest.paid_edges():
            self._tracker.add_link_load(u, v, demand_mbps)
            key = canonical_edge(u, v)
            link_totals[key] = link_totals.get(key, 0.0) + demand_mbps
        return link_totals

    def release(self, lease: Lease) -> None:
        """Reverse a committed lease (the tenant departs).

        Hands back exactly the link bandwidth and VM slots the lease
        recorded, through :meth:`LoadTracker.release_link_load` /
        :meth:`LoadTracker.release_node_load` (over-release raises,
        residue clamps at zero, released links are marked dirty).  The
        next cost sync then re-prices the freed links downward -- a
        decrease-carrying oracle patch.

        Release is single-shot by contract: a double release would hand
        the same loads back twice and corrupt the tracker, so it raises
        a ``ValueError`` naming the lease instead.  Callers replaying
        departure events against leases that a link failure may already
        have disrupted should check :attr:`Lease.released` first.
        """
        if lease.released:
            raise ValueError(
                f"lease for request {lease.request_index} already released"
            )
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        for (u, v), demand in lease.link_loads:
            self._tracker.release_link_load(u, v, demand)
        for node, demand in lease.node_loads:
            self._tracker.release_node_load(node, demand)
        lease.released = True
        self._active.pop(id(lease), None)
        if mx:
            mx.inc("sim.releases")
            mx.span("sim.release", t0,
                    trace_args={"request": lease.request_index})

    # ------------------------------------------------------------------
    # link failure / recovery
    # ------------------------------------------------------------------
    def fail_link(self, u: Node, v: Node) -> FailureImpact:
        """Kill a live link and degrade gracefully.

        The topology change reaches the shared oracle as a
        :meth:`~repro.graph.indexed.FrozenOracle.patch_topology` removal
        (``incremental=True``) or a graph mutation plus full invalidate
        (``incremental=False``) -- identical served state either way.
        Every active lease whose forest crossed the dead link is then
        handled in ``request_index`` order: the simulator attempts
        :func:`~repro.core.dynamic.reroute_failed_link` mass recovery
        onto surviving paths (re-accounting the lease's bandwidth on the
        new links), and releases-and-counts-as-disrupted any tenant that
        cannot be rerouted.  All reroutes see failure-time prices: costs
        are synced once before the link dies, not between reroutes.

        Returns the :class:`FailureImpact`; raises ``ValueError`` if the
        link does not exist or already failed.
        """
        from repro.core.dynamic import DynamicError, reroute_failed_link
        from repro.core.validation import ForestInfeasible

        key = canonical_edge(u, v)
        if key in self._failed:
            raise ValueError(f"link {key!r} already failed")
        if not self._graph.has_edge(u, v):
            raise ValueError(f"({u!r}, {v!r}) is not a live link")
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        self._sync_costs()
        if self._incremental:
            # The cost sync above may itself have patched, and no query
            # follows the removal patch: touch the pool on both sides so
            # neither patch drops it as idle (see the module docstring).
            self._oracle.prefetch_rows(self._vms)
            self._oracle.patch_topology(removed=[(u, v)])
            self._oracle.prefetch_rows(self._vms)
        else:
            self._graph.remove_edge(u, v)
            self._oracle.invalidate()
        self._failed.add(key)

        crossing = sorted(
            (
                lease for lease in self._active.values()
                if lease.forest is not None
                and any(edge == key for edge, _ in lease.link_loads)
            ),
            key=lambda lease: lease.request_index,
        )
        rerouted: List[int] = []
        disrupted: List[int] = []
        for lease in crossing:
            try:
                new_forest = reroute_failed_link(lease.forest, (u, v))
            except (DynamicError, ForestInfeasible):
                self.release(lease)
                disrupted.append(lease.request_index)
            else:
                self._recommit(lease, new_forest)
                rerouted.append(lease.request_index)
        if mx:
            mx.inc("sim.failures")
            if rerouted:
                mx.inc("sim.reroutes", len(rerouted), outcome="rerouted")
            if disrupted:
                mx.inc("sim.reroutes", len(disrupted), outcome="disrupted")
            mx.span("sim.fail", t0,
                    trace_args={"rerouted": len(rerouted),
                                "disrupted": len(disrupted)})
        return FailureImpact(
            link=key, rerouted=tuple(rerouted), disrupted=tuple(disrupted)
        )

    def _recommit(self, lease: Lease, forest: ServiceOverlayForest) -> None:
        """Swap a live lease's forest after a reroute.

        Link loads are released and recharged from the new walks; node
        loads stay -- rerouting preserves every VNF placement, only the
        connecting paths move.
        """
        for (a, b), demand in lease.link_loads:
            self._tracker.release_link_load(a, b, demand)
        link_totals = self._charge_links(forest, lease.request.demand_mbps)
        lease.link_loads = tuple(link_totals.items())
        lease.forest = forest

    def recover_link(self, u: Node, v: Node) -> None:
        """Bring a failed link back at its load-derived cost.

        The reinsertion reaches the oracle as a decrease-from-infinity
        (:meth:`~repro.graph.indexed.FrozenOracle.patch_topology` with
        ``inserted=``) or a graph mutation plus invalidate, matching the
        failure path's mode split.  The revived cost is re-derived from
        the tracker's current load on the link (crossing tenants moved
        away or dropped at failure time, so this is usually the floor
        plus any background load).  Raises ``ValueError`` if the link is
        not currently failed.

        A link that died *before* the oracle's first build has no
        tombstoned CSR slot to revive (:meth:`FrozenOracle.insertable`),
        so that rare case falls back to invalidate-and-rebuild, counted
        as ``oracle.fallback{site=insertable,reason=not_tombstoned}``
        (the reference mode, which always rebuilds, counts nothing).
        """
        key = canonical_edge(u, v)
        if key not in self._failed:
            raise ValueError(f"link {key!r} is not a failed link")
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        self._sync_costs()
        cost = max(self._tracker.link_cost(u, v), self._cost_floor)
        if self._incremental:
            # Touch the pool on both sides of the reinsert patch (see
            # :meth:`fail_link`).  The touch may build the oracle, so it
            # must precede the ``insertable`` check.
            self._oracle.prefetch_rows(self._vms)
        if self._incremental and self._oracle.insertable(u, v):
            self._oracle.patch_topology(inserted={(u, v): cost})
            self._oracle.prefetch_rows(self._vms)
        else:
            if mx and self._incremental:
                mx.inc("oracle.fallback", site="insertable",
                       reason="not_tombstoned")
            self._graph.add_edge(u, v, cost)
            self._oracle.invalidate()
        self._failed.discard(key)
        if mx:
            mx.inc("sim.recoveries")
            mx.span("sim.recover", t0)

    def embed_leased(
        self, request: Request, embedder: Embedder
    ) -> Tuple[Optional[float], Optional[Lease]]:
        """Embed one request; returns ``(cost, lease)``.

        ``(None, None)`` marks a rejection (the embedder raised).  This
        is the one place the rejection policy and the evaluate-cost-
        before-commit ordering live; :meth:`embed` and the workload
        engine's arrival path both delegate here, so online-comparison
        and churn runs can never diverge in acceptance semantics.  Any
        exception rejects, so a recorder counts each rejection under the
        exception's type name (``sim.embeds{outcome=rejected,reason=...}``):
        an embedder bug shows there, not only as a lower acceptance rate.
        """
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        instance = self.current_instance(request)
        try:
            forest = embedder(instance)
        except Exception as exc:
            if mx:
                mx.inc("sim.embeds", outcome="rejected",
                       reason=type(exc).__name__)
                mx.span("sim.embed", t0,
                        trace_args={"request": request.index,
                                    "outcome": "rejected"})
            return None, None
        cost = forest.total_cost()
        lease = self.commit(forest, request)
        if mx:
            mx.inc("sim.embeds", outcome="accepted")
            mx.span("sim.embed", t0,
                    trace_args={"request": request.index,
                                "outcome": "accepted"})
        return cost, lease

    def embed(self, request: Request, embedder: Embedder) -> Optional[float]:
        """Embed one request; returns its cost, or ``None`` on rejection."""
        cost, _ = self.embed_leased(request, embedder)
        return cost


def run_online_comparison(
    network_factory: Callable[[], CloudNetwork],
    embedders: Dict[str, Embedder],
    requests: Sequence[Request],
    vms_per_datacenter: int = 5,
    **simulator_kwargs,
) -> Dict[str, OnlineResult]:
    """Replay one request sequence through every algorithm (Fig. 12).

    Each algorithm gets a fresh simulator over an identical topology, so
    load state never leaks between competitors.  Extra keyword arguments
    (``row_budget_bytes``, ``metrics``, the equivalence-reference flags)
    pass straight through to every :class:`OnlineSimulator`.
    """
    results: Dict[str, OnlineResult] = {}
    for name, embedder in embedders.items():
        simulator = OnlineSimulator(
            network_factory(), vms_per_datacenter=vms_per_datacenter,
            **simulator_kwargs,
        )
        result = OnlineResult(name=name)
        total = 0.0
        for request in requests:
            cost = simulator.embed(request, embedder)
            if cost is None:
                result.rejected += 1
                cost = 0.0
            total += cost
            result.per_request_cost.append(cost)
            result.accumulative_cost.append(total)
        results[name] = result
    return results
