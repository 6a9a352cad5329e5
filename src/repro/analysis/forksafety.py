"""Fork-safety rules for the fork-pool pattern of :mod:`repro.graph.kernel`.

PR 7's fork-inheritance invariant: a forked worker sees the parent's
memory exactly as it was at pool creation, so code may only fork while
its shared structures are consistent.  The oracle no longer forks (its
one pool user is ``run_sweep``'s cell pool, which forks between
independently built cells); the rules keep a fork from being
reintroduced where it would break that invariant.

- ``fork-mutation-window`` -- a ``fork_map``/``prefetch_rows`` call
  lexically inside a patch mutation window: in a function that builds a
  ``_PatchPlan``, any fork call at or after the first row-label
  write-back (an assignment into ``dist[...]``/``parent[...]``/
  ``settled[...]``) is flagged.  Workers forked there would inherit
  half-written rows.
- ``fork-raw-pool`` -- a ``multiprocessing`` pool created directly
  outside ``graph/kernel.py``, which owns the pattern.  Every consumer
  (the sweep harness included) goes through
  :func:`repro.graph.kernel.fork_map`, which gets the
  worker-installation ordering, the daemonic/no-fork fallbacks, and the
  one-time warning right once.
- ``fork-worker-order`` -- inside a function that declares a module
  ``global`` and creates a pool, any non-constant assignment to that
  global must come *before* the pool creation: the fork pattern only
  works because the worker function (and everything it closes over) is
  installed in the module global pre-fork, so workers inherit it by
  memory copy.  Resetting the global to a constant (``None``) afterwards
  is legal cleanup.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.framework import (
    Checker, Finding, Rule, SourceFile, call_name,
)

MUTATION_WINDOW = Rule(
    "fork-mutation-window",
    "fork inside a patch mutation window (after row write-back began)",
    origin="PR 7",
)
RAW_POOL = Rule(
    "fork-raw-pool",
    "direct multiprocessing pool outside kernel.fork_map",
    origin="PR 7",
)
WORKER_ORDER = Rule(
    "fork-worker-order",
    "pool created before the worker global was installed",
    origin="PR 7",
)

#: Callables whose invocation forks (or enqueues onto) the worker pool.
_FORK_CALLS = frozenset({"fork_map", "prefetch_rows"})

#: Names whose subscript assignment is a row-label write-back.
_ROW_LABEL_NAMES = frozenset({"dist", "parent", "settled"})

#: Modules allowed to create pools directly.
_POOL_OWNERS = ("graph/kernel.py",)


class ForkSafetyChecker(Checker):
    rules = (MUTATION_WINDOW, RAW_POOL, WORKER_ORDER)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if "tests" in source.roles:
            return
        tree = source.tree
        assert tree is not None
        pool_owner = source.relpath.replace("\\", "/").endswith(_POOL_OWNERS)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_mutation_window(source, node)
                yield from self._check_worker_order(source, node)
            elif isinstance(node, ast.Call) and not pool_owner:
                if _is_pool_creation(node):
                    yield source.finding(
                        RAW_POOL.rule_id, node,
                        "multiprocessing pool created directly; use "
                        "repro.graph.kernel.fork_map, which owns the "
                        "worker-install ordering and the no-fork/daemonic "
                        "fallbacks",
                    )

    # ------------------------------------------------------------------
    def _check_mutation_window(
        self, source: SourceFile, func: ast.AST
    ) -> Iterator[Finding]:
        plan_line: Optional[int] = None
        write_lines: List[int] = []
        fork_calls: List[ast.Call] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name == "_PatchPlan" or name.endswith("PatchPlan"):
                    if plan_line is None or node.lineno < plan_line:
                        plan_line = node.lineno
                elif name in _FORK_CALLS:
                    fork_calls.append(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if _is_row_label_write(target):
                        write_lines.append(node.lineno)
        if plan_line is None or not write_lines or not fork_calls:
            return
        window_start = min(
            (line for line in write_lines if line >= plan_line),
            default=None,
        )
        if window_start is None:
            return
        for call in fork_calls:
            if call.lineno >= window_start:
                yield source.finding(
                    MUTATION_WINDOW.rule_id, call,
                    f"{call_name(call)}() at or after the first row-label "
                    f"write-back (line {window_start}) of a _PatchPlan "
                    "repair; forked workers would inherit half-written "
                    "rows -- fork before any row is written, after the "
                    "plan and shared regions are resolved",
                )

    def _check_worker_order(
        self, source: SourceFile, func: ast.AST
    ) -> Iterator[Finding]:
        global_names: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        if not global_names:
            return
        pool_line: Optional[int] = None
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _is_pool_creation(node):
                if pool_line is None or node.lineno < pool_line:
                    pool_line = node.lineno
        if pool_line is None:
            return
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in global_names
                    and not isinstance(node.value, ast.Constant)
                    and node.lineno > pool_line
                ):
                    yield source.finding(
                        WORKER_ORDER.rule_id, node,
                        f"worker global {target.id!r} installed after the "
                        f"pool creation on line {pool_line}; forked workers "
                        "inherit memory at pool creation, so the worker "
                        "function must be installed first",
                    )


def _is_pool_creation(node: ast.Call) -> bool:
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr == "Pool"


def _is_row_label_write(target: ast.expr) -> bool:
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_is_row_label_write(t) for t in target.elts)
    if not isinstance(target, ast.Subscript):
        return False
    value = target.value
    if isinstance(value, ast.Name):
        return value.id in _ROW_LABEL_NAMES
    if isinstance(value, ast.Attribute):
        return value.attr in _ROW_LABEL_NAMES
    return False
