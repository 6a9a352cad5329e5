"""ST baseline: one Steiner tree plus one greedily-appended service chain.

The paper's weakest comparator ("a special case with only one Steiner tree
connected with a service chain"): pick the source whose Steiner tree over
the destinations is cheapest, build a service chain with the sequential
nearest-VM heuristic, and attach the chain's last VM to the nearest tree
node.  No joint optimisation, no multiple sources.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.baselines.common import extend_to, greedy_chain
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.validation import check_forest
from repro.graph import steiner_tree

Node = Hashable


def st_baseline(
    instance: SOFInstance,
    steiner_method: str = "kmb",
) -> ServiceOverlayForest:
    """Run the ST baseline and return its (single-tree) forest."""
    oracle = instance.oracle
    destinations = sorted(instance.destinations, key=repr)

    best_source: Optional[Node] = None
    best_tree = None
    best_cost = float("inf")
    for s in sorted(instance.sources, key=repr):
        try:
            result = steiner_tree(
                instance.graph, [s] + destinations,
                method=steiner_method, oracle=oracle,
            )
        except ValueError:
            continue
        if result.cost < best_cost:
            best_source, best_tree, best_cost = s, result, result.cost
    if best_tree is None:
        raise RuntimeError("ST: no source can reach all destinations")

    chain = greedy_chain(instance, best_source, instance.vms)
    if chain is None:
        raise RuntimeError("ST: cannot build a service chain")

    # ST hangs the chain off the tree's root: the processed content is
    # routed from the last VM back to the source, which then feeds the
    # predetermined tree (Fig. 1(b)'s "Steiner tree with predetermined
    # VMs" shape).  eST improves on this with nearest-node attachment.
    chain = extend_to(instance, chain, best_source)

    forest = ServiceOverlayForest(instance=instance)
    forest.add_chain(chain)
    forest.add_tree(best_tree.tree)
    forest.prune_tree_edges()
    check_forest(instance, forest)
    return forest
