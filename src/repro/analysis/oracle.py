"""Oracle-invariant rules: one oracle per graph, patch instead of rebuild.

The single-oracle invariant (PR 1) is the architectural backbone of the
reproduction: one :class:`~repro.graph.indexed.FrozenOracle` per
instance serves Procedure-1 sweeps, conflict repairs, Steiner closures
and baselines, and its core, extended by the auxiliary graph's virtual
part, serves the SOFDA Steiner step; the distributed layer follows the
same rule per scope.  Building a second oracle over the same
graph silently forks the cache state and spends a full Dijkstra sweep
the shared rows already paid for.

- ``oracle-second-build`` -- a ``FrozenOracle``/``DistanceOracle``
  construction outside the whitelisted factory sites.  Allowed are the
  known factories (``FrozenOracle.rebased``, ``FrozenOracle.extended``,
  ``OnlineSimulator.__init__``, ``Controller.oracle``,
  ``SOFInstance.oracle``, ``DistributedSOFDA.verify_abstraction`` --
  each owns a *different* graph) and the lazy default-factory idiom
  (``oracle = oracle or FrozenOracle(...)`` or construction guarded by
  ``if <name> is None``), which only builds when the caller supplied
  none.  Anything else must receive an oracle from its instance.
- ``oracle-invalidate-rebuild`` -- an ``.invalidate()`` call in a module
  that must *patch* (``online``/``workload``/``distributed``), outside a
  branch guarded by one of the reference-mode flags (``incremental``,
  ``insertable``).  The invalidate-and-rebuild path is
  legal only as the explicit equivalence and benchmark reference; PR 2
  exists because an unguarded invalidate in the online loop silently
  cost a full rebuild per cost change.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.analysis.framework import (
    Checker, Finding, Rule, SourceFile, call_name,
)

SECOND_BUILD = Rule(
    "oracle-second-build",
    "oracle constructed outside the whitelisted factory sites",
    origin="PR 1",
)
INVALIDATE_REBUILD = Rule(
    "oracle-invalidate-rebuild",
    "unguarded invalidate() in a module that must patch",
    origin="PR 2",
)

#: Class names whose construction the single-oracle rule governs.
ORACLE_CLASS_NAMES = frozenset({"FrozenOracle", "DistanceOracle"})

#: ``Class.method`` factory sites allowed to construct an oracle; each
#: builds over a graph no other oracle serves.
ALLOWED_FACTORY_QUALNAMES = frozenset({
    "FrozenOracle.rebased",
    # SOFDA's KMB oracle over the auxiliary graph Ĝ (the instance graph
    # plus its virtual part), which no other oracle serves.
    "FrozenOracle.extended",
    "OnlineSimulator.__init__",
    "Controller.oracle",
    "SOFInstance.oracle",
    "DistributedSOFDA.verify_abstraction",
})

#: Identifier fragments that mark an ``if`` test as a reference-mode
#: guard (``if self._incremental: ... else: oracle.invalidate()``).
_GUARD_TOKENS = ("incremental", "insertable")

#: Module segments where cost/topology changes must go through
#: ``patch_edge_costs``/``patch_topology``, not invalidate-and-rebuild.
_PATCHING_SEGMENTS = frozenset({"online", "workload", "distributed"})


class OracleChecker(Checker):
    rules = (SECOND_BUILD, INVALIDATE_REBUILD)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if "tests" in source.roles:
            return
        tree = source.tree
        assert tree is not None
        oracle_names = _oracle_aliases(tree)
        patching = _is_patching_module(source)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in oracle_names:
                yield from self._check_construction(source, node, name)
            elif name == "invalidate" and patching:
                yield from self._check_invalidate(source, node)

    # ------------------------------------------------------------------
    def _check_construction(
        self, source: SourceFile, node: ast.Call, name: str
    ) -> Iterator[Finding]:
        qualname = source.qualname(node)
        tail = ".".join(qualname.split(".")[-2:])
        if tail in ALLOWED_FACTORY_QUALNAMES:
            return
        if _is_default_factory(source, node):
            return
        yield source.finding(
            SECOND_BUILD.rule_id, node,
            f"{name}(...) constructed outside the whitelisted factory "
            "sites; the single-oracle invariant requires serving every "
            "query over a graph from its one shared oracle "
            "(use instance.oracle / Controller.oracle, or an "
            "`oracle or ...` default factory)",
        )

    def _check_invalidate(
        self, source: SourceFile, node: ast.Call
    ) -> Iterator[Finding]:
        for ancestor in source.ancestors(node):
            if isinstance(ancestor, ast.If) and _mentions_guard(ancestor.test):
                return
        yield source.finding(
            INVALIDATE_REBUILD.rule_id, node,
            "invalidate() outside a reference-mode guard; online cost and "
            "topology changes must go through patch_edge_costs/"
            "patch_topology, with invalidate-and-rebuild reserved for the "
            "incremental=False (or non-insertable) reference branch",
        )


def _oracle_aliases(tree: ast.AST) -> Set[str]:
    """Local names bound to an oracle class (imports and their aliases)."""
    names: Set[str] = set(ORACLE_CLASS_NAMES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in ORACLE_CLASS_NAMES and alias.asname:
                    names.add(alias.asname)
    return names


def _is_patching_module(source: SourceFile) -> bool:
    parts = {p.lower() for p in source.relpath.replace("\\", "/").split("/")}
    return bool(parts & _PATCHING_SEGMENTS)


def _is_default_factory(source: SourceFile, node: ast.Call) -> bool:
    """Whether the construction only runs when no oracle was supplied.

    Recognizes ``x or FrozenOracle(...)`` (the call must not be the
    first operand) and any construction lexically inside an
    ``if <expr> is None`` branch.
    """
    parent = source.parents.get(node)
    if (
        isinstance(parent, ast.BoolOp)
        and isinstance(parent.op, ast.Or)
        and parent.values
        and parent.values[0] is not node
    ):
        return True
    for ancestor in source.ancestors(node):
        if isinstance(ancestor, ast.If) and _is_none_test(ancestor.test):
            return True
    return False


def _is_none_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], (ast.Is, ast.Eq)):
            comparands: Tuple[ast.expr, ast.expr] = (test.left, test.comparators[0])
            return any(
                isinstance(c, ast.Constant) and c.value is None
                for c in comparands
            )
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return True
    return False


def _mentions_guard(test: ast.expr) -> bool:
    for node in ast.walk(test):
        name = ""
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Call):
            name = call_name(node)
        if name and any(token in name for token in _GUARD_TOKENS):
            return True
    return False
