"""The phased distributed-SOFDA protocol (Section VI).

Phases, each charged to the :class:`~repro.distributed.messages.MessageBus`:

1. **matrix-exchange** -- every controller broadcasts its border-router
   distance matrix (SDNi east--west).
2. **chain-construction** -- every controller covering a source queries
   remote controllers for VM-to-border distances and reports its candidate
   service chains (the virtual links of the auxiliary graph) to the leader.
3. **steiner** -- the controllers jointly compute the Steiner tree over
   the auxiliary graph; we charge the standard distributed-MST message
   pattern (edges examined per merge round, [34]) while computing the tree
   itself with the same solver as centralized SOFDA -- the border
   abstraction is lossless, so both reach the same tree.
4. **conflict-elimination** -- controllers observing a VNF conflict
   notify the peer owning the other walk (one round trip per conflict).
5. **rule-installation** -- the leader tells each controller which
   forwarding rules to install (one message per controller whose domain
   the forest touches).

The result carries the forest (identical to centralized SOFDA by
construction -- asserted in tests) plus the message statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List

from repro.core.conflict import ResolutionStats
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.sofda import SOFDAResult, sofda
from repro.distributed.controller import Controller
from repro.distributed.domains import partition_domains
from repro.distributed.messages import MessageBus

Node = Hashable


@dataclass
class DistributedResult:
    """Outcome of a distributed embedding."""

    forest: ServiceOverlayForest
    stats: ResolutionStats
    bus: MessageBus
    leader: int
    num_domains: int

    @property
    def cost(self) -> float:
        """Total cost of the embedded forest."""
        return self.forest.total_cost()


class DistributedSOFDA:
    """Distributed SOFDA over a domain-partitioned network."""

    def __init__(
        self,
        instance: SOFInstance,
        num_domains: int,
        seed: int = 0,
    ) -> None:
        if num_domains < 1:
            raise ValueError("need at least one domain")
        self.instance = instance
        self.domains = partition_domains(instance.graph, num_domains, seed=seed)
        # Per-domain oracles inherit the instance oracle's row budget and
        # recorder, as ``FrozenOracle.rebased`` clones do.
        base = instance.oracle
        self._metrics = base.metrics
        self.controllers = [
            Controller.for_domain(
                i, domain, instance.graph,
                row_budget_bytes=base.row_budget_bytes,
                metrics=base.metrics,
            )
            for i, domain in enumerate(self.domains)
        ]
        self.bus = MessageBus()

    # ------------------------------------------------------------------
    def controller_of(self, node: Node) -> Controller:
        """The controller covering ``node``."""
        for controller in self.controllers:
            if controller.covers(node):
                return controller
        raise KeyError(f"{node!r} is not covered by any controller")

    # ------------------------------------------------------------------
    def run(
        self,
        steiner_method: str = "kmb",
        kstroll_method: str = "auto",
    ) -> DistributedResult:
        """Execute the five protocol phases and return the forest."""
        instance = self.instance
        controllers = self.controllers
        ids = [c.controller_id for c in controllers]
        leader = self.controller_of(
            sorted(instance.sources, key=repr)[0]
        ).controller_id

        # Phase 1: border-matrix exchange (full mesh, as SDNi floods
        # reachability + the abstracted matrices).
        for c in controllers:
            self.bus.broadcast(
                c.controller_id,
                [i for i in ids if i != c.controller_id],
                "matrix-exchange",
                c.matrix_size(),
            )

        # Phase 2: candidate-chain construction.  The controller of each
        # source needs distances to every VM; VMs in remote domains cost a
        # query/response pair with the remote controller.
        vm_by_controller: Dict[int, List[Node]] = {}
        for vm in sorted(instance.vms, key=repr):
            vm_by_controller.setdefault(
                self.controller_of(vm).controller_id, []
            ).append(vm)
        for source in sorted(instance.sources, key=repr):
            source_ctrl = self.controller_of(source).controller_id
            for ctrl_id, vms in vm_by_controller.items():
                if ctrl_id != source_ctrl:
                    self.bus.send(
                        source_ctrl, ctrl_id, "chain-query",
                        len(self.controllers[source_ctrl].border_routers),
                    )
                    self.bus.send(
                        ctrl_id, source_ctrl, "chain-response", len(vms)
                    )
            # Report the candidate virtual links to the leader.
            self.bus.send(
                source_ctrl, leader, "chain-report", len(instance.vms)
            )

        # Phases 3-4: the actual embedding.  The border abstraction is
        # lossless (intra-domain matrices are exact and inter-domain
        # composition preserves shortest paths), so running the
        # centralized algorithm on the global instance yields exactly the
        # forest the controllers would agree on; we charge the
        # distributed-computation messages alongside.
        result: SOFDAResult = sofda(
            instance,
            steiner_method=steiner_method,
            kstroll_method=kstroll_method,
        )

        # Distributed Steiner ([34]-style GHS merging): O(rounds) merges,
        # each examining the frontier edges of every fragment.
        tree_nodes = (
            {n for chain in result.forest.chains for n in chain.walk}
            | {n for e in result.forest.tree_edges for n in e}
        )
        touched = sorted(
            {self.controller_of(n).controller_id for n in tree_nodes}
        )
        num_terminals = len(instance.destinations) + 1
        rounds = max(1, math.ceil(math.log2(max(2, num_terminals))))
        for _ in range(rounds):
            for i in touched:
                self.bus.broadcast(
                    i, [j for j in touched if j != i], "steiner-merge",
                    len(self.controllers[i].border_routers),
                )

        # Conflict elimination: one notify/ack pair per resolved conflict.
        conflicts = (
            result.stats.case1 + result.stats.case2 + result.stats.case3
            + result.stats.repairs + result.stats.grafts
        )
        for k in range(conflicts):
            a = touched[k % len(touched)]
            b = touched[(k + 1) % len(touched)]
            if a != b:
                self.bus.send(a, b, "conflict-notify", 2)
                self.bus.send(b, a, "conflict-ack", 1)

        # Phase 5: rule installation fan-out from the leader.
        for i in touched:
            self.bus.send(leader, i, "rule-install", len(tree_nodes))

        mx = self._metrics
        if mx:
            # Mirror the bus's per-kind accounting into the registry so
            # one snapshot covers the whole run (the bus keeps the
            # authoritative log; these counters are a read-only view).
            for kind, (count, size) in sorted(self.bus.by_kind().items()):
                mx.inc("dist.messages", count, kind=kind)
                mx.inc("dist.message_entries", size, kind=kind)

        return DistributedResult(
            forest=result.forest,
            stats=result.stats,
            bus=self.bus,
            leader=leader,
            num_domains=len(self.controllers),
        )

    # ------------------------------------------------------------------
    def abstract_border_graph(self):
        """The inter-domain abstraction: border matrices + physical links.

        Nodes are border routers; edges are the abstracted intra-domain
        lengths each controller propagated plus the physical inter-domain
        links, parallel candidates reduced to the cheapest.
        """
        from repro.graph import Graph as _Graph

        instance = self.instance
        abstract = _Graph()
        for c in self.controllers:
            for (b1, b2), d in c.border_matrix().items():
                if d < float("inf"):
                    if abstract.has_edge(b1, b2):
                        d = min(d, abstract.cost(b1, b2))
                    abstract.add_edge(b1, b2, d)
        for u, v, cost in instance.graph.edges():
            cu, cv = self.controller_of(u), self.controller_of(v)
            if cu.controller_id != cv.controller_id:
                if abstract.has_edge(u, v):
                    cost = min(cost, abstract.cost(u, v))
                abstract.add_edge(u, v, cost)
        return abstract

    def verify_abstraction(self, samples: int = 50, seed: int = 0) -> bool:
        """Check the border abstraction is lossless on sampled node pairs.

        For random pairs (s, t), compare the true shortest-path cost with
        the composed estimate: intra-domain when co-located, otherwise
        ``min over borders (local(s,b1) + inter(b1,b2) + local(b2,t))``
        where ``inter`` runs over the abstract border graph.  Every
        distance is served from oracle rows: ground truth from the
        instance's shared oracle, intra-domain legs from the per-domain
        controller oracles, and the abstract-graph legs from one oracle
        over the border graph.  Used by the test suite; returns True when
        every sample matches.
        """
        import random

        from repro.graph import FrozenOracle as _FrozenOracle

        instance = self.instance
        rng = random.Random(seed)
        nodes = sorted(instance.graph.nodes(), key=repr)

        abstract = self.abstract_border_graph()
        abstract_oracle = _FrozenOracle(abstract)

        for _ in range(samples):
            s, t = rng.sample(nodes, 2)
            truth = instance.oracle.distance(s, t)
            cs, ct = self.controller_of(s), self.controller_of(t)
            best = float("inf")
            if cs.controller_id == ct.controller_id:
                best = cs.local_distances_from(s).get(t, float("inf"))
            s_border = cs.distance_to_borders(s)
            t_border = ct.distance_to_borders(t)
            if s_border and t_border and len(abstract) > 0:
                for b1, d1 in s_border.items():
                    if d1 == float("inf") or b1 not in abstract:
                        continue
                    inter = abstract_oracle.distances_from(b1)
                    for b2, d2 in t_border.items():
                        if d2 == float("inf"):
                            continue
                        mid = 0.0 if b1 == b2 else inter.get(b2, float("inf"))
                        best = min(best, d1 + mid + d2)
            if not math.isclose(best, truth, rel_tol=1e-9, abs_tol=1e-9):
                return False
        return True
