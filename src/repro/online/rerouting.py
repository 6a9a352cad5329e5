"""Online congestion rerouting (Section VII-B, last paragraph).

"When a node or link becomes congested, SOFDA reroutes the service forest
by letting the users downstream to the above node or link re-join the
forest again, where the current path in the forest is removed only after
the new join path is created to avoid service interruption."

:func:`reroute_forest_around_congestion` applies exactly that make-before-
break repair to an embedded forest: congested links get their updated
(exploded) cost, affected chain segments and distribution paths are
re-connected through the now-cheapest routes, and the old paths are
dropped afterwards.  It wraps the Section VII-C primitives
(:func:`repro.core.dynamic.reroute_congested_link`).
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.core.dynamic import DynamicError, reroute_congested_link
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.validation import ForestInfeasible
from repro.costmodel import LoadTracker
from repro.graph.graph import canonical_edge, edge_sort_key

Node = Hashable


def congested_forest_links(
    forest: ServiceOverlayForest,
    tracker: LoadTracker,
    threshold: float = 0.9,
) -> List[Tuple[Node, Node]]:
    """Links of the forest whose utilisation *strictly* exceeds ``threshold``.

    The boundary matches :meth:`~repro.costmodel.LoadTracker
    .congested_links` exactly: a link sitting precisely at ``threshold``
    utilisation is NOT congested, so the tracker and the rerouting layer
    can never disagree about it.  The result is ordered by the canonical
    edge key (:func:`~repro.graph.graph.edge_sort_key`), which stays
    deterministic across mixed node types -- sorting on ``repr`` would,
    e.g., order an integer link ``(2, 10)`` before ``(2, 9)`` and shuffle
    tuple-named VM links among plain switch ids.
    """
    used = set(forest.tree_edges)
    for chain in forest.chains:
        for a, b in chain.all_edges():
            used.add(canonical_edge(a, b))
    hot = set(tracker.congested_links(threshold))
    return sorted(used & hot, key=edge_sort_key)


def reroute_forest_around_congestion(
    forest: ServiceOverlayForest,
    tracker: LoadTracker,
    threshold: float = 0.9,
    max_links: int = 5,
) -> Tuple[SOFInstance, ServiceOverlayForest, int]:
    """Make-before-break reroute of every congested link the forest uses.

    A link counts as congested when its utilisation is *strictly* above
    ``threshold`` (the :class:`LoadTracker` boundary; exactly-at-threshold
    links are left alone).  Returns ``(instance, forest,
    links_rerouted)``; the instance carries the updated link costs.
    Congested links are processed worst-first and at most ``max_links``
    per invocation (the controller batches repairs, as the paper's
    adaptive-routing references do).
    """
    instance = forest.instance
    current = forest
    rerouted = 0
    hot = congested_forest_links(current, tracker, threshold)
    hot.sort(key=lambda e: -tracker.link_utilisation(*e))
    for link in hot[:max_links]:
        new_cost = tracker.link_cost(*link)
        try:
            instance, current = reroute_congested_link(current, link, new_cost)
        except (DynamicError, ForestInfeasible, ValueError):
            # A link with no alternative stays in place; its cost update
            # still steers future requests away.
            continue
        rerouted += 1
    return instance, current, rerouted
