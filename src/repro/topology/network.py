"""The :class:`CloudNetwork` container and SOF-instance sampling.

A cloud network is an access-node topology plus a set of data-center
nodes.  Instances are sampled the way Section VIII-A describes:

- link usages drawn uniformly in ``(0, 1)`` and converted to edge costs
  with the Fortz--Thorup function (100 Mbps capacity, 5 Mbps demands);
- ``num_vms`` VM nodes, each attached to a uniformly random data center;
- VM setup costs derived from random host utilisation through the same
  convex cost shape ([48]);
- sources and destinations sampled uniformly from the access nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional

from repro.core.problem import ServiceChain, SOFInstance
from repro.costmodel import assign_static_costs, fortz_thorup_cost
from repro.graph import Graph

Node = Hashable


@dataclass
class CloudNetwork:
    """An access-node topology with designated data centers.

    Attributes:
        name: topology name (used in reports).
        graph: the access-node graph; edge costs are placeholders until
            :meth:`make_instance` draws usage-based costs.
        datacenters: the access nodes hosting data centers.
    """

    name: str
    graph: Graph
    datacenters: List[Node] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        """Number of access nodes."""
        return len(self.graph)

    @property
    def num_links(self) -> int:
        """Number of links."""
        return self.graph.num_edges()

    def access_nodes(self) -> List[Node]:
        """All access nodes, in deterministic order."""
        return sorted(self.graph.nodes(), key=repr)

    def check_instance_sizes(
        self,
        num_sources: int,
        num_destinations: int,
        num_vms: int,
        chain_length: int,
    ) -> None:
        """Raise ``ValueError`` unless :meth:`make_instance` can draw these.

        Builds nothing, so a sweep can reject a bad grid before its
        first solve.
        """
        if num_sources < 1:
            raise ValueError("at least one source is required")
        if num_destinations < 1:
            raise ValueError("at least one destination is required")
        if chain_length < 1:
            raise ValueError("chain length must be >= 1")
        if max(num_sources, num_destinations) > self.num_nodes:
            raise ValueError(
                f"{self.name}: cannot draw {num_sources} sources and "
                f"{num_destinations} destinations from {self.num_nodes} nodes"
            )
        if num_vms < chain_length:
            raise ValueError(
                f"{num_vms} VMs cannot host a chain of length {chain_length}"
            )

    # ------------------------------------------------------------------
    def make_instance(
        self,
        num_sources: int,
        num_destinations: int,
        num_vms: int,
        chain: ServiceChain,
        seed: int = 0,
        link_capacity: float = 100.0,
        vm_capacity: float = 5.0,
        setup_cost_multiplier: float = 1.0,
        graph: Optional[Graph] = None,
    ) -> SOFInstance:
        """Sample a SOF instance with the paper's workload recipe.

        Args:
            num_sources: size of the candidate source set ``S``.
            num_destinations: size of ``D`` (disjoint from ``S``).
            num_vms: number of VM nodes, attached to random data centers.
            chain: the demanded VNF chain.
            seed: RNG seed (controls costs, VM placement and S/D choice).
            link_capacity: link bandwidth (100 Mbps in the paper).
            vm_capacity: host capacity used for the setup-cost draw.
            setup_cost_multiplier: scales VM setup costs (the Fig. 11
                1x..9x sweep).
            graph: use an externally prepared cost-bearing graph instead of
                drawing fresh static costs (the online simulator does this).

        Returns:
            A fully-populated :class:`SOFInstance`.
        """
        self.check_instance_sizes(
            num_sources, num_destinations, num_vms, len(chain)
        )
        # Independent RNG streams so that sweeping one dimension (say the
        # VM count) does not perturb the others (link costs, S/D draw) --
        # the standard variance-reduction for parameter sweeps.
        rng_links = random.Random(seed * 3 + 0)
        rng = random.Random(seed * 3 + 1)
        rng_sd = random.Random(seed * 3 + 2)
        if graph is None:
            work = self.graph.copy()
            assign_static_costs(work, rng_links, capacity=link_capacity)
        else:
            work = graph.copy()

        # Attach VMs to random data centers (or any node when the topology
        # declares no data centers, e.g. tiny test networks).
        hosts = self.datacenters or self.access_nodes()
        vms: List[Node] = []
        node_costs = {}
        for i in range(num_vms):
            dc = rng.choice(hosts)
            vm = ("vm", i)
            # The VM's attachment link is an intra-DC hop: cheap but not
            # free, drawn from the low end of the usage distribution.
            attach_usage = rng.random() * 0.3
            work.add_node(vm)
            work.add_edge(
                vm, dc,
                fortz_thorup_cost(attach_usage * link_capacity, link_capacity),
            )
            host_utilisation = rng.random()
            node_costs[vm] = (
                fortz_thorup_cost(host_utilisation * vm_capacity, vm_capacity)
                * setup_cost_multiplier
            )
            vms.append(vm)

        population = self.access_nodes()
        # Disjoint S and D when the topology is large enough; independent
        # draws otherwise (the paper sweeps |S| to 26 on the 27-node
        # SoftLayer map, which cannot stay disjoint from 6 destinations).
        # Destinations first: growing the source count then extends the
        # sample without re-drawing the destination set.
        if num_sources + num_destinations <= len(population):
            picks = rng_sd.sample(population, num_sources + num_destinations)
            destinations = picks[:num_destinations]
            sources = picks[num_destinations:]
        else:
            destinations = rng_sd.sample(population, num_destinations)
            sources = rng_sd.sample(population, num_sources)
        return SOFInstance(
            graph=work,
            vms=vms,
            sources=sources,
            destinations=destinations,
            chain=chain,
            node_costs=node_costs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CloudNetwork({self.name!r}, |V|={self.num_nodes}, "
            f"|E|={self.num_links}, DCs={len(self.datacenters)})"
        )
