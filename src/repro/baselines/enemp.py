"""eNEMP baseline: enhanced NFV-enabled multicast (Section VIII-A).

NEMP (Zhang et al. [27]) routes a multicast tree *through* a single chosen
VM.  The paper extends it to chains and multiple sources: pick the anchor
VM ``u`` minimising (distance from the source) + (Steiner tree over ``u``
and the destinations), route the full service chain from the source to
``u`` (the chain "spans the VM that has been chosen in the tree"), and add
further trees with the iterative wrapper.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.baselines.common import SingleTree, chain_total_cost, greedy_chain
from repro.baselines.multi_source import iterative_multi_source
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.graph import steiner_tree

Node = Hashable


def _enemp_single_tree(
    instance: SOFInstance,
    source: Node,
    allowed_vms: Iterable[Node],
    steiner_method: str = "kmb",
) -> Optional[SingleTree]:
    """The eNEMP single-tree builder used by the multi-source wrapper."""
    oracle = instance.oracle
    destinations = sorted(instance.destinations, key=repr)
    allowed = set(allowed_vms)
    if len(allowed) < len(instance.chain):
        return None

    # NEMP anchor selection: the VM minimising source distance + setup +
    # tree cost hosts the last VNF, so the multicast tree hangs off a VM
    # the chain is guaranteed to span.
    best_anchor: Optional[Node] = None
    best_score = float("inf")
    for u in sorted(allowed, key=repr):
        d = oracle.distance(source, u)
        if d == float("inf"):
            continue
        try:
            tree = steiner_tree(
                instance.graph, [u] + destinations,
                method=steiner_method, oracle=oracle,
            )
        except ValueError:
            continue
        score = d + instance.setup_cost(u) + tree.cost
        if score < best_score:
            best_anchor, best_score = u, score
    if best_anchor is None:
        return None

    # Chain construction "similar to the above extension" (sequential
    # deployment in the style of [13]), but *anchored*: every hop scores
    # (distance + setup + remaining distance to the anchor), so the chain
    # heads toward the VM the tree hangs off; the anchor runs f_|C|.
    chain = greedy_chain(instance, source, allowed, anchor=best_anchor)
    if chain is None:
        return None
    return SingleTree(
        source=source, chain=chain,
        chain_cost=chain_total_cost(instance, chain),
    )


def enemp_baseline(
    instance: SOFInstance,
    steiner_method: str = "kmb",
    multi_source: bool = True,
) -> ServiceOverlayForest:
    """Run eNEMP (optionally with the iterative multi-source extension)."""
    return iterative_multi_source(
        instance,
        _enemp_single_tree,
        steiner_method=steiner_method,
        multi_source=multi_source,
    )
