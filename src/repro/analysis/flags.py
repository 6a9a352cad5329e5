"""Flag-threading rule: every oracle knob reaches every threading site.

PRs 4 and 7 each shipped a bugfix for a *half-plumbed* oracle flag -- a
new ``FrozenOracle.__init__`` knob that reached some construction sites
but silently fell back to its default at others, so A/B comparisons
quietly compared different configurations.  This checker parses the
live ``FrozenOracle.__init__`` signature and asserts each knob appears
at every threading site:

====================  =====================================================
site                  satisfied when
====================  =====================================================
FrozenOracle.rebased  the clone construction passes the flag by keyword
OnlineSimulator       its oracle construction passes the flag
Controller            its per-domain oracle construction passes the flag
DistributedSOFDA      its ``Controller.for_domain`` calls pass the flag
run_online_comparison a ``**simulator_kwargs`` forward reaches the
run_churn_comparison  simulator construction (forwards every flag)
====================  =====================================================

Every flag is required at every site; a flag that is genuinely
irrelevant at a site needs a baselined finding with a justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.framework import (
    Finding, ProjectChecker, Rule, SourceFile,
)

FLAG_THREADING = Rule(
    "thread-oracle-flag",
    "FrozenOracle flag missing at a threading site",
    origin="PRs 4, 7",
)

#: ``FrozenOracle.__init__`` parameters that are not behavior flags.
_NON_FLAG_PARAMS = ("self", "graph", "hot")

#: (site name, kind) -- classes are searched as ClassDef, functions as
#: top-level FunctionDef; ``FrozenOracle.rebased`` is the method inside
#: the oracle class itself.
_SITES: Tuple[Tuple[str, str], ...] = (
    ("FrozenOracle.rebased", "method"),
    ("OnlineSimulator", "class"),
    ("Controller", "class"),
    ("DistributedSOFDA", "class"),
    ("run_online_comparison", "function"),
    ("run_churn_comparison", "function"),
)


class FlagThreadingChecker(ProjectChecker):
    rules = (FLAG_THREADING,)

    def check_project(
        self, sources: Sequence[SourceFile]
    ) -> Iterator[Finding]:
        oracle = _find_oracle_class(sources)
        if oracle is None:
            return
        source, class_node = oracle
        flags = _oracle_flags(class_node)
        if not flags:
            return
        for site_name, kind in _SITES:
            located = _find_site(sources, class_node, site_name, kind)
            if located is None:
                continue
            site_source, site_node = located
            threaded = _threaded_flags(site_node)
            for flag in flags:
                if flag in threaded:
                    continue
                yield Finding(
                    rule=FLAG_THREADING.rule_id,
                    path=site_source.relpath,
                    line=site_node.lineno, col=site_node.col_offset,
                    symbol=site_source.qualname(site_node),
                    message=(
                        f"FrozenOracle.__init__ flag {flag!r} is not "
                        f"threaded through site {site_name!r}; every "
                        "oracle knob must reach rebased clones, the "
                        "auxiliary fallback, the online simulator, the "
                        "distributed controllers, and the comparison "
                        "runners (half-plumbed flags silently compare "
                        "different configurations)"
                    ),
                )


def _find_oracle_class(
    sources: Sequence[SourceFile],
) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
    """The ``FrozenOracle`` class definition, preferring the real module."""
    candidates: List[Tuple[SourceFile, ast.ClassDef]] = []
    for source in sources:
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == "FrozenOracle":
                candidates.append((source, node))
    if not candidates:
        return None
    for source, node in candidates:
        if source.relpath.replace("\\", "/").endswith("graph/indexed.py"):
            return source, node
    return min(candidates, key=lambda c: (c[0].relpath, c[1].lineno))


def _oracle_flags(class_node: ast.ClassDef) -> List[str]:
    for node in class_node.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            args = node.args
            names = [a.arg for a in args.args] + [a.arg for a in args.kwonlyargs]
            return [n for n in names if n not in _NON_FLAG_PARAMS]
    return []


def _find_site(
    sources: Sequence[SourceFile],
    oracle_class: ast.ClassDef,
    site_name: str,
    kind: str,
) -> Optional[Tuple[SourceFile, ast.AST]]:
    if kind == "method":
        class_name, method_name = site_name.split(".")
        for node in oracle_class.body:
            if isinstance(node, ast.FunctionDef) and node.name == method_name:
                for source in sources:
                    if source.tree is not None and _contains(
                        source.tree, oracle_class
                    ):
                        return source, node
        return None
    wanted = ast.ClassDef if kind == "class" else ast.FunctionDef
    for source in sources:
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, wanted) and node.name == site_name:
                if node is oracle_class:
                    continue
                return source, node
    return None


def _contains(tree: ast.AST, target: ast.AST) -> bool:
    return any(node is target for node in ast.walk(tree))


def _threaded_flags(site_node: ast.AST) -> set:
    """Flag names passed by keyword in any call inside the site.

    A ``**<name>kwargs`` expansion (the comparison runners'
    ``**simulator_kwargs``) forwards everything and satisfies every flag.
    """
    threaded: set = set()
    for node in ast.walk(site_node):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                threaded.add(kw.arg)
            elif "kwargs" in _expr_name(kw.value):
                threaded.add("**")
    if "**" in threaded:

        class _Everything(set):
            def __contains__(self, item: object) -> bool:  # noqa: D401
                return True

        return _Everything()
    return threaded


def _expr_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""
