"""SOFDA-SS: the single-source ``(2+ρST)``-approximation (Section IV).

Algorithm 1 of the paper: for every candidate last VM ``u``, find a
minimum-cost service chain from the source to ``u`` (Procedure 2 /
k-stroll on the Procedure-1 instance), then span ``u`` and all destinations
with a Steiner tree; keep the cheapest assembled forest.

The selection of the last VM is the crux: a VM close to the source gives a
short chain but possibly a large tree, and a cheap VM may sit far from the
destinations.  Examining every candidate yields the approximation bound
(Theorem 2).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.graph import steiner_tree
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.transform import chain_walk
from repro.core.validation import check_forest

Node = Hashable


def sofda_ss(
    instance: SOFInstance,
    source: Optional[Node] = None,
    steiner_method: str = "kmb",
    kstroll_method: str = "auto",
    candidate_last_vms: Optional[Iterable[Node]] = None,
) -> ServiceOverlayForest:
    """Run SOFDA-SS and return the best single-tree forest.

    Args:
        instance: the SOF instance.
        source: the tree's source.  When ``None`` and the instance has
            several candidate sources, every source is tried and the overall
            cheapest forest returned (the natural single-tree baseline).
        steiner_method: Steiner solver (``kmb``/``mehlhorn``/``exact``).
        kstroll_method: k-stroll solver (``auto``/``exact``/``insertion``/``greedy``).
        candidate_last_vms: restrict the last-VM sweep (used by tests and
            the online simulator); defaults to all VMs.

    Returns:
        The minimum-cost forest over all examined last VMs.

    Raises:
        RuntimeError: if no candidate last VM yields a feasible embedding.
    """
    if source is None:
        sources = sorted(instance.sources, key=repr)
    else:
        if source not in instance.sources:
            raise ValueError(f"{source!r} is not a source of the instance")
        sources = [source]

    candidates = list(candidate_last_vms) if candidate_last_vms is not None \
        else sorted(instance.vms, key=repr)
    terminals_base = sorted(instance.destinations, key=repr)

    best: Optional[ServiceOverlayForest] = None
    best_cost = float("inf")
    for s in sources:
        for u in candidates:
            if u == s:
                continue
            cw = chain_walk(
                instance, s, u, kstroll_method=kstroll_method
            )
            if cw is None:
                continue
            try:
                tree = steiner_tree(
                    instance.graph,
                    [u] + terminals_base,
                    method=steiner_method,
                    oracle=instance.oracle,
                )
            except ValueError:
                continue  # destinations unreachable from this VM
            forest = ServiceOverlayForest(instance=instance)
            forest.add_chain(cw.to_deployed_chain())
            forest.add_tree(tree.tree)
            cost = forest.total_cost()
            if cost < best_cost:
                best, best_cost = forest, cost

    if best is None:
        raise RuntimeError("SOFDA-SS found no feasible embedding")
    check_forest(instance, best)
    return best
