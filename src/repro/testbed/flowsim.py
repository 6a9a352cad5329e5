"""Flow-level bandwidth simulation over an embedded forest.

Each physical link has a time-varying *available bandwidth* (the paper
emulates congestion by capping links at 4.5--9 Mbps).  A multicast forest
consumes one stream share per distinct ``(stage, link)`` use -- a walk
that crosses the same physical link at two processing stages (a clone
pass) carries two copies and halves the per-copy bandwidth.  A
destination's instantaneous goodput is the minimum share along its
delivery path.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.forest import ServiceOverlayForest
from repro.graph.graph import canonical_edge

Node = Hashable
Edge = Tuple[Node, Node]


def destination_paths(forest: ServiceOverlayForest) -> Dict[Node, List[Edge]]:
    """Physical delivery path (edge list) of every destination.

    The path is the serving chain's walk plus the distribution-tree hops
    from the chain's delivery segment to the destination (shortest in hop
    count within the tree edges, mirroring how rules are installed).
    """
    instance = forest.instance
    paths: Dict[Node, List[Edge]] = {}

    point_chain = forest.delivery_points()

    tree_adj: Dict[Node, List[Node]] = {}
    for u, v in forest.tree_edges:
        tree_adj.setdefault(u, []).append(v)
        tree_adj.setdefault(v, []).append(u)

    for dest in sorted(instance.destinations, key=repr):
        if dest in point_chain:
            chain = forest.chains[point_chain[dest]]
            cut = chain.walk.index(dest)
            paths[dest] = [
                (chain.walk[i], chain.walk[i + 1]) for i in range(cut)
            ]
            continue
        # BFS through tree edges from the destination to a delivery point.
        parent: Dict[Node, Node] = {}
        queue = deque([dest])
        seen = {dest}
        hit: Optional[Node] = None
        while queue and hit is None:
            node = queue.popleft()
            for nxt in tree_adj.get(node, ()):
                if nxt in seen:
                    continue
                seen.add(nxt)
                parent[nxt] = node
                if nxt in point_chain:
                    hit = nxt
                    break
                queue.append(nxt)
        if hit is None:
            raise ValueError(f"destination {dest!r} is not served by the forest")
        tail: List[Edge] = []
        node = hit
        while node != dest:
            tail.append((node, parent[node]))
            node = parent[node]
        chain = forest.chains[point_chain[hit]]
        cut = chain.walk.index(hit)
        paths[dest] = [
            (chain.walk[i], chain.walk[i + 1]) for i in range(cut)
        ] + tail
    return paths


def stream_multiplicity(forest: ServiceOverlayForest) -> Dict[Edge, int]:
    """Distinct stream copies per physical link (stage-keyed, Section III).

    One copy per stage at which :meth:`ServiceOverlayForest.paid_edges`
    crosses the link, in either direction.
    """
    uses = {(stage, canonical_edge(u, v)) for stage, u, v in forest.paid_edges()}
    return dict(Counter(edge for _, edge in uses))


@dataclass
class FlowSimulator:
    """Per-second link bandwidth draws plus per-destination goodput.

    Attributes:
        forest: the embedded forest to simulate.
        bandwidth_range: clamp range of per-link available bandwidth
            (Mbps) -- the paper's 4.5--9 Mbps congestion emulation.
        base_bandwidth: the congestion state each link was in when the
            forest was embedded (canonical edge -> Mbps).  Per-second
            bandwidth jitters around this base, so congestion-aware
            embeddings (which avoided low-bandwidth links via their costs)
            genuinely see better links -- the effect Table II measures.
            Links absent from the map draw uniformly from the range.
        jitter_mbps: amplitude of the per-second uniform jitter.
        seed: RNG seed for the bandwidth process.
    """

    forest: ServiceOverlayForest
    bandwidth_range: Tuple[float, float] = (4.5, 9.0)
    base_bandwidth: Optional[Dict[Edge, float]] = None
    jitter_mbps: float = 1.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _paths: Dict[Node, List[Edge]] = field(init=False, repr=False)
    _multiplicity: Dict[Edge, int] = field(init=False, repr=False)
    _base: Dict[Edge, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._paths = destination_paths(self.forest)
        self._multiplicity = stream_multiplicity(self.forest)
        self._base = {}
        if self.base_bandwidth:
            for (u, v), bw in self.base_bandwidth.items():
                self._base[canonical_edge(u, v)] = bw

    @property
    def paths(self) -> Dict[Node, List[Edge]]:
        """Per-destination delivery paths (edge lists)."""
        return self._paths

    def step_goodput(self) -> Dict[Node, float]:
        """Draw one second of link bandwidths; return per-destination goodput.

        All destinations observe the *same* bandwidth draw within a step
        (they share the physical links); the per-destination goodput is the
        bottleneck share along the delivery path.
        """
        lo, hi = self.bandwidth_range
        link_bw: Dict[Edge, float] = {}
        goodput: Dict[Node, float] = {}
        for dest, path in self._paths.items():
            rate = float("inf")
            for u, v in path:
                edge = canonical_edge(u, v)
                if edge not in link_bw:
                    base = self._base.get(edge)
                    if base is None:
                        link_bw[edge] = self._rng.uniform(lo, hi)
                    else:
                        jitter = self._rng.uniform(
                            -self.jitter_mbps, self.jitter_mbps
                        )
                        link_bw[edge] = max(0.1, base + jitter)
                share = link_bw[edge] / max(1, self._multiplicity.get(edge, 1))
                rate = min(rate, share)
            goodput[dest] = hi if rate == float("inf") else max(0.0, rate)
        return goodput
