"""Determinism rules: no hash-salted orders, ambient RNG, or wall clocks.

PR 8 removed the last hash-salted iteration orders from the solver
pipeline by hand audit; these rules keep them out.  All four rules are
scoped to *solver* modules (``graph``, ``core``, ``online``,
``workload``, ``distributed``, ``baselines``, ``costmodel``,
``topology`` -- see :data:`~repro.analysis.framework.SOLVER_SEGMENTS`),
where iteration order reaches forest costs, cache evolution, and the
byte-stable bench anchors.

- ``det-set-iter`` -- a ``for`` loop (or list/generator/dict
  comprehension, or an order-preserving call like ``list``/``tuple``/
  ``sum``/``join``/``enumerate``) iterating a provably set-typed
  expression without an enclosing ``sorted(...)``.  Set and frozenset
  iteration order is salted by PYTHONHASHSEED, so any order-sensitive
  consumer drifts across processes.  Building another ``set`` from a set
  (a set comprehension, ``set(...)``/``frozenset(...)``, unions) is
  order-insensitive and exempt.  A call counts as set-typed when every
  function or method of its name in the linted tree is annotated to
  return ``set``, ``Set[...]``, ``frozenset`` or ``FrozenSet[...]``, so
  this rule runs over the whole tree at once
  (:class:`SetIterationChecker`).
- ``det-unseeded-rng`` -- module-level ``random.*`` calls (shared global
  state, order-dependent across call sites) and ``random.Random()``
  constructed without a seed.  Every RNG in the pipeline must be a
  ``random.Random(seed)`` instance.
- ``det-wallclock`` -- ``time.time``/``time.time_ns`` and
  ``datetime.now``/``utcnow``/``today`` inside solver or experiment
  code: wall-clock values must never feed algorithm decisions or
  recorded artefacts.  ``time.perf_counter``/``monotonic`` stay legal --
  they only measure durations.
- ``det-ambient-sort-key`` -- ``id()`` or ``hash()`` inside a sort key
  (``sorted``/``list.sort``/``min``/``max``): both are
  interpreter-run-dependent, so the resulting order is not reproducible
  (the PR-3 congested-link sort drifted exactly this way via ``repr`` of
  ids before it was fixed).
"""

from __future__ import annotations

import ast
from typing import (
    AbstractSet, Dict, Iterator, List, Optional, Sequence, Set,
)

from repro.analysis.framework import (
    Checker, Finding, ProjectChecker, Rule, SourceFile, call_name,
    dotted_base, module_aliases,
)

SET_ITER = Rule(
    "det-set-iter",
    "iteration over a set/frozenset without an enclosing sorted()",
    origin="PR 8",
)
UNSEEDED_RNG = Rule(
    "det-unseeded-rng",
    "module-level random.* call or unseeded random.Random()",
    origin="PR 5",
)
WALLCLOCK = Rule(
    "det-wallclock",
    "wall-clock read (time.time/datetime.now) in solver or timed code",
    origin="PR 5",
)
AMBIENT_SORT_KEY = Rule(
    "det-ambient-sort-key",
    "id()/hash() used inside a sort key",
    origin="PR 3",
)

#: Calls that consume their iterable in order (flagged over sets) ...
_ORDER_SENSITIVE_CALLS = frozenset({
    "list", "tuple", "sum", "join", "enumerate", "reversed", "zip", "map",
    "filter", "fsum",
})
#: ... and calls whose result does not depend on iteration order.
_ORDER_FREE_CALLS = frozenset({
    "sorted", "set", "frozenset", "len", "min", "max", "any", "all",
})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})

#: Return annotations (bare or subscripted) that make a call set-typed.
_SET_TYPES = frozenset({"set", "Set", "frozenset", "FrozenSet"})

_WALLCLOCK_TIME = frozenset({"time", "time_ns"})
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: ``random`` module functions that draw from the shared global RNG.
_GLOBAL_RNG_FNS = frozenset({
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "triangular", "vonmisesvariate", "getrandbits",
    "seed", "setstate", "randbytes",
})


class DeterminismChecker(Checker):
    rules = (UNSEEDED_RNG, WALLCLOCK, AMBIENT_SORT_KEY)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        roles = source.roles
        if "tests" in roles:
            return
        if "solver" not in roles and "experiments" not in roles:
            return
        tree = source.tree
        assert tree is not None
        random_mods, random_members = module_aliases(tree, "random")
        time_mods, time_members = module_aliases(tree, "time")
        dt_mods, dt_members = module_aliases(tree, "datetime")

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_rng(
                source, node, random_mods, random_members
            )
            yield from self._check_wallclock(
                source, node, time_mods, time_members, dt_mods, dt_members
            )
            yield from self._check_sort_key(source, node)

    # ------------------------------------------------------------------
    def _check_rng(
        self, source: SourceFile, node: ast.Call,
        mods: Set[str], members: Dict[str, str],
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and dotted_base(func) in mods:
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    yield source.finding(
                        UNSEEDED_RNG.rule_id, node,
                        "random.Random() without a seed draws from OS "
                        "entropy; pass an explicit seed",
                    )
            elif func.attr in _GLOBAL_RNG_FNS:
                yield source.finding(
                    UNSEEDED_RNG.rule_id, node,
                    f"module-level random.{func.attr}() uses the shared "
                    "global RNG; use a seeded random.Random(seed) instance",
                )
        elif isinstance(func, ast.Name) and func.id in members:
            original = members[func.id]
            if original == "Random":
                if not node.args and not node.keywords:
                    yield source.finding(
                        UNSEEDED_RNG.rule_id, node,
                        "Random() without a seed draws from OS entropy; "
                        "pass an explicit seed",
                    )
            elif original in _GLOBAL_RNG_FNS:
                yield source.finding(
                    UNSEEDED_RNG.rule_id, node,
                    f"module-level random.{original}() uses the shared "
                    "global RNG; use a seeded random.Random(seed) instance",
                )

    def _check_wallclock(
        self, source: SourceFile, node: ast.Call,
        time_mods: Set[str], time_members: Dict[str, str],
        dt_mods: Set[str], dt_members: Dict[str, str],
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = dotted_base(func)
            if base in time_mods and func.attr in _WALLCLOCK_TIME:
                yield source.finding(
                    WALLCLOCK.rule_id, node,
                    f"time.{func.attr}() reads the wall clock; solver and "
                    "timed code must be input-deterministic "
                    "(use time.perf_counter for duration measurement)",
                )
            elif func.attr in _WALLCLOCK_DATETIME:
                # datetime.datetime.now(), datetime.now(), date.today(),
                # or an alias of either class imported from datetime.
                if base in dt_mods or base in dt_members or base in (
                    "datetime", "date"
                ):
                    yield source.finding(
                        WALLCLOCK.rule_id, node,
                        f"{base}.{func.attr}() reads the wall clock; pass "
                        "timestamps in explicitly",
                    )
        elif isinstance(func, ast.Name):
            if time_members.get(func.id) in _WALLCLOCK_TIME:
                yield source.finding(
                    WALLCLOCK.rule_id, node,
                    f"time.{time_members[func.id]}() reads the wall clock; "
                    "solver and timed code must be input-deterministic",
                )

    def _check_sort_key(
        self, source: SourceFile, node: ast.Call
    ) -> Iterator[Finding]:
        name = call_name(node)
        if name not in ("sorted", "sort", "min", "max"):
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            bad: Optional[str] = None
            if isinstance(kw.value, ast.Name) and kw.value.id in ("id", "hash"):
                bad = kw.value.id
            elif isinstance(kw.value, ast.Lambda):
                for sub in ast.walk(kw.value.body):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("id", "hash")
                    ):
                        bad = sub.func.id
                        break
            if bad is not None:
                yield source.finding(
                    AMBIENT_SORT_KEY.rule_id, node,
                    f"sort key uses {bad}(), which varies across "
                    "interpreter runs; key on stable content "
                    "(e.g. node_sort_key/edge_sort_key) instead",
                )


# ----------------------------------------------------------------------
# set-iteration analysis
# ----------------------------------------------------------------------

class SetIterationChecker(ProjectChecker):
    """``det-set-iter`` over every solver module of the linted tree.

    Whole-tree, because a set can come from a call into another module:
    the functions and methods annotated to return a set type are
    collected from every linted file first (:func:`_set_functions`).
    """

    rules = (SET_ITER,)

    def check_project(
        self, sources: Sequence[SourceFile]
    ) -> Iterator[Finding]:
        parsed = [s for s in sources if s.tree is not None]
        set_calls = _set_functions(parsed)
        for source in parsed:
            if "solver" in source.roles and "tests" not in source.roles:
                yield from self._check_source(source, set_calls)

    def _check_source(
        self, source: SourceFile, set_calls: AbstractSet[str]
    ) -> Iterator[Finding]:
        # Scopes are module + each function; a name counts as set-typed
        # only when *every* assignment to it in its scope is a provably
        # set-typed expression (conservative against false positives).
        tree = source.tree
        scopes: List[ast.AST] = [tree] + [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            set_names = _infer_set_names(scope, set_calls)
            for node in _scope_walk(scope):
                yield from self._check_iter_node(
                    source, node, set_names, set_calls
                )

    def _check_iter_node(
        self, source: SourceFile, node: ast.AST, set_names: Set[str],
        set_calls: AbstractSet[str],
    ) -> Iterator[Finding]:
        def flag(iter_node: ast.expr, context: str) -> Iterator[Finding]:
            if _is_set_expr(iter_node, set_names, set_calls):
                yield source.finding(
                    SET_ITER.rule_id, iter_node,
                    f"{context} iterates a set in PYTHONHASHSEED-salted "
                    "order; wrap it in sorted(...) or iterate a stable "
                    "container",
                )

        if isinstance(node, ast.For):
            yield from flag(node.iter, "for loop")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # Set comprehensions build an unordered result and are exempt,
            # as is a generator consumed by an order-free reduction
            # (any/all/min-without-key/sum-of-constant/...).
            if isinstance(node, ast.GeneratorExp) and _order_free_consumer(
                source, node
            ):
                return
            for gen in node.generators:
                yield from flag(gen.iter, "comprehension")
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name in _ORDER_SENSITIVE_CALLS and name not in _ORDER_FREE_CALLS:
                for arg in node.args:
                    yield from flag(arg, f"{name}(...)")


def _order_free_consumer(source: SourceFile, gen: ast.GeneratorExp) -> bool:
    """True when ``gen`` feeds a call whose result ignores element order.

    ``any(...)``, ``all(...)``, ``len``, ``sorted``, ``set``/``frozenset``
    never depend on order.  ``min``/``max`` only without a ``key`` (a key
    can tie, and ties resolve to the first-seen element).  ``sum`` only
    when the generator yields a constant (counting), since float addition
    is order-sensitive.
    """
    parent = source.parents.get(gen)
    if not isinstance(parent, ast.Call) or gen not in parent.args:
        return False
    name = call_name(parent)
    if name in ("any", "all", "len", "sorted", "set", "frozenset"):
        return True
    if name in ("min", "max"):
        return not any(kw.arg == "key" for kw in parent.keywords)
    if name == "sum":
        return isinstance(gen.elt, ast.Constant)
    return False


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _set_functions(sources: Sequence[SourceFile]) -> AbstractSet[str]:
    """Names whose every definition in ``sources`` returns a set type.

    A call is matched by its trailing name (``obj.drain()`` ->
    ``drain``), so a name that any definition does not annotate as a
    set (or annotates otherwise) never counts: no false positive from a
    same-named method of another class.
    """
    typed: Set[str] = set()
    other: Set[str] = set()
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _returns_set(node.returns):
                    typed.add(node.name)
                else:
                    other.add(node.name)
    return frozenset(typed - other)


def _returns_set(annotation: Optional[ast.expr]) -> bool:
    """Whether a return annotation names ``set``/``Set[...]``/``frozenset``/
    ``FrozenSet[...]`` (bare, dotted as ``typing.Set``, or quoted)."""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_TYPES
    return isinstance(annotation, ast.Name) and annotation.id in _SET_TYPES


def _infer_set_names(
    scope: ast.AST, set_calls: AbstractSet[str]
) -> Set[str]:
    assigned_set: Set[str] = set()
    assigned_other: Set[str] = set()
    seen: Set[str] = set()

    def record(target: ast.expr, value: Optional[ast.expr]) -> None:
        if not isinstance(target, ast.Name):
            return
        seen.add(target.id)
        if value is not None and _is_set_expr(
            value, assigned_set, set_calls
        ):
            assigned_set.add(target.id)
        else:
            assigned_other.add(target.id)

    for node in _scope_walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, ast.AnnAssign):
            record(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                # x |= ... keeps a set a set; anything else demotes it.
                if not isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                            ast.Sub, ast.BitXor)):
                    assigned_other.add(node.target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    assigned_other.add(name.id)
    return assigned_set - assigned_other


def _is_set_expr(
    node: ast.expr, set_names: Set[str], set_calls: AbstractSet[str]
) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        name = call_name(node)
        if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
            return True
        if name in set_calls:
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and name in _SET_METHODS
            and _is_set_expr(node.func.value, set_names, set_calls)
        )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return (
            _is_set_expr(node.left, set_names, set_calls)
            or _is_set_expr(node.right, set_names, set_calls)
        )
    return False
