"""Tests for :mod:`repro.analysis`, the AST-based invariant linter.

Fixture snippets are written into per-test temp trees whose directory
names (``graph/``, ``online/``, ...) drive the same path-role
classification as the real layout, so each rule is exercised with a
true positive, a true negative, a suppression, and a baseline
round-trip.  The integration tests at the bottom assert the live tree
is clean under ``--strict`` and that a *fake* oracle flag injected into
a copy of the real sources is reported at every threading site.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis import (
    Baseline,
    all_rules,
    analyze,
    default_baseline_path,
)
from repro.analysis.cli import main as analysis_main
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def write_tree(root: Path, files: Dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def lint(root: Path, baseline: Baseline = None):
    return analyze([str(root)], baseline=baseline or Baseline())


def rules_found(result) -> List[str]:
    return sorted(f.rule for f in result.findings)


# ----------------------------------------------------------------------
# determinism rules
# ----------------------------------------------------------------------

SET_ITER_TP = """
    def consume(xs, out):
        items = set(xs)
        for x in items:
            out.append(x)
"""


def test_det_set_iter_true_positive(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": SET_ITER_TP})
    result = lint(tmp_path)
    assert rules_found(result) == ["det-set-iter"]
    (finding,) = result.findings
    assert finding.symbol == "consume"
    assert finding.line == 4


def test_det_set_iter_sorted_is_clean(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": """
        def consume(xs, out):
            items = set(xs)
            for x in sorted(items):
                out.append(x)
    """})
    assert not lint(tmp_path).findings


def test_det_set_iter_only_in_solver_modules(tmp_path):
    # Same snippet outside the solver segments: not in scope.
    write_tree(tmp_path, {"util/mod.py": SET_ITER_TP})
    assert not lint(tmp_path).findings


def test_det_set_iter_order_free_consumers_exempt(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": """
        def probe(xs, d):
            items = set(xs)
            hit = any(x in d for x in items)
            k = sum(1 for x in items)
            lo = min(x for x in items)
            return hit, k, lo
    """})
    assert not lint(tmp_path).findings


def test_det_set_iter_float_sum_still_flagged(tmp_path):
    # sum of non-constant elements is order-sensitive (float addition).
    write_tree(tmp_path, {"graph/mod.py": """
        def total(xs):
            items = set(xs)
            return sum(x for x in items)
    """})
    assert rules_found(lint(tmp_path)) == ["det-set-iter"]


def test_det_set_iter_set_comprehension_exempt(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": """
        def rebuild(xs):
            items = set(xs)
            return {x for x in items}
    """})
    assert not lint(tmp_path).findings


def test_det_unseeded_rng(tmp_path):
    write_tree(tmp_path, {"core/mod.py": """
        import random

        def draw(xs):
            r = random.Random()
            return random.choice(xs), r
    """})
    result = lint(tmp_path)
    assert rules_found(result) == ["det-unseeded-rng", "det-unseeded-rng"]


def test_seeded_rng_is_clean(tmp_path):
    write_tree(tmp_path, {"core/mod.py": """
        import random

        def draw(xs, seed):
            rng = random.Random(seed)
            return rng.choice(xs)
    """})
    assert not lint(tmp_path).findings


def test_det_wallclock(tmp_path):
    write_tree(tmp_path, {"experiments/mod.py": """
        import time

        def stamp():
            return time.time()
    """})
    assert rules_found(lint(tmp_path)) == ["det-wallclock"]


def test_perf_counter_is_clean(tmp_path):
    write_tree(tmp_path, {"experiments/mod.py": """
        import time

        def measure():
            return time.perf_counter()
    """})
    assert not lint(tmp_path).findings


def test_det_ambient_sort_key(tmp_path):
    write_tree(tmp_path, {"core/mod.py": """
        def order(xs):
            return sorted(xs, key=id)

        def order2(xs):
            return sorted(xs, key=lambda x: hash(x))
    """})
    result = lint(tmp_path)
    assert rules_found(result) == [
        "det-ambient-sort-key", "det-ambient-sort-key",
    ]


def test_content_sort_key_is_clean(tmp_path):
    write_tree(tmp_path, {"core/mod.py": """
        def order(xs):
            return sorted(xs, key=repr)
    """})
    assert not lint(tmp_path).findings


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

def test_inline_suppression(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": """
        def consume(xs, out):
            items = set(xs)
            for x in items:  # repro-lint: disable=det-set-iter -- order sunk
                out.append(x)
    """})
    result = lint(tmp_path)
    assert not result.findings
    assert result.suppressed == 1


def test_standalone_suppression_comment_spans_its_block(tmp_path):
    # A multi-line justification comment still covers the next code line.
    write_tree(tmp_path, {"graph/mod.py": """
        def consume(xs, out):
            items = set(xs)
            # repro-lint: disable=det-set-iter -- the accumulator below is
            # order-insensitive, kept unsorted to match the reference.
            for x in items:
                out.append(x)
    """})
    result = lint(tmp_path)
    assert not result.findings
    assert result.suppressed == 1


def test_suppression_is_rule_specific(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": """
        def consume(xs, out):
            items = set(xs)
            for x in items:  # repro-lint: disable=det-wallclock
                out.append(x)
    """})
    result = lint(tmp_path)
    assert rules_found(result) == ["det-set-iter"]
    assert result.suppressed == 0


# ----------------------------------------------------------------------
# oracle rules
# ----------------------------------------------------------------------

def test_oracle_second_build(tmp_path):
    write_tree(tmp_path, {"online/mod.py": """
        from repro.graph.indexed import FrozenOracle

        def build(graph):
            return FrozenOracle(graph)
    """})
    result = lint(tmp_path)
    assert rules_found(result) == ["oracle-second-build"]
    assert result.findings[0].symbol == "build"


def test_oracle_second_build_sees_import_alias(tmp_path):
    write_tree(tmp_path, {"online/mod.py": """
        from repro.graph.indexed import FrozenOracle as _FO

        def build(graph):
            return _FO(graph)
    """})
    assert rules_found(lint(tmp_path)) == ["oracle-second-build"]


def test_oracle_factory_sites_allowed(tmp_path):
    write_tree(tmp_path, {"online/mod.py": """
        from repro.graph.indexed import FrozenOracle

        class OnlineSimulator:
            def __init__(self, graph):
                self._oracle = FrozenOracle(graph)
    """})
    assert not lint(tmp_path).findings


def test_oracle_default_factory_idiom_allowed(tmp_path):
    write_tree(tmp_path, {"online/mod.py": """
        from repro.graph.indexed import FrozenOracle

        def serve(graph, oracle=None):
            oracle = oracle or FrozenOracle(graph)
            if oracle is None:
                oracle = FrozenOracle(graph)
            return oracle
    """})
    assert not lint(tmp_path).findings


def test_oracle_invalidate_rebuild(tmp_path):
    write_tree(tmp_path, {"online/mod.py": """
        class Sim:
            def on_change(self):
                self._oracle.invalidate()
    """})
    assert rules_found(lint(tmp_path)) == ["oracle-invalidate-rebuild"]


def test_oracle_invalidate_guarded_is_clean(tmp_path):
    write_tree(tmp_path, {"online/mod.py": """
        class Sim:
            def on_change(self, pairs):
                if self._incremental:
                    self._oracle.patch_edge_costs(pairs)
                else:
                    self._oracle.invalidate()
    """})
    assert not lint(tmp_path).findings


def test_oracle_invalidate_outside_patching_modules_is_clean(tmp_path):
    # graph/ owns the oracle; its own invalidate() is the implementation.
    write_tree(tmp_path, {"graph/mod.py": """
        class Cache:
            def drop(self):
                self._oracle.invalidate()
    """})
    assert not lint(tmp_path).findings


# ----------------------------------------------------------------------
# flag threading (project-wide)
# ----------------------------------------------------------------------

FLAG_FIXTURE = {
    "graph/indexed.py": """
        class FrozenOracle:
            def __init__(self, graph, hot=None, alpha=False, beta=0,
                         patchable=False):
                self._alpha = alpha
                self._beta = beta
                self._patchable = patchable

            def rebased(self, graph):
                return FrozenOracle(
                    graph, alpha=self._alpha, beta=self._beta,
                    patchable=self._patchable,
                )
    """,
    "online/simulator.py": """
        from repro.graph.indexed import FrozenOracle

        class OnlineSimulator:
            def __init__(self, graph):
                self._oracle = FrozenOracle(graph, alpha=True)
    """,
    "distributed/controller.py": """
        from repro.graph.indexed import FrozenOracle

        class Controller:
            def oracle(self, graph):
                return FrozenOracle(graph, alpha=True, beta=2)
    """,
    "experiments/harness.py": """
        from repro.online.simulator import OnlineSimulator

        def run_churn_comparison(graph, **simulator_kwargs):
            return OnlineSimulator(graph, **simulator_kwargs)
    """,
}


def test_flag_threading_reports_missing_flags(tmp_path):
    write_tree(tmp_path, FLAG_FIXTURE)
    result = lint(tmp_path)
    findings = [f for f in result.findings if f.rule == "thread-oracle-flag"]
    # OnlineSimulator threads alpha but not beta/patchable.
    missing = {
        (f.symbol, flag)
        for f in findings
        for flag in ("alpha", "beta", "patchable")
        if f"'{flag}'" in f.message
    }
    assert missing == {
        ("OnlineSimulator", "beta"), ("OnlineSimulator", "patchable"),
    }
    # Nothing else slipped in (constructions are at factory sites).
    assert len(result.findings) == len(findings)


def test_flag_threading_repair_flags_exempt_at_serve_only_sites(tmp_path):
    # Controller omits `patchable` (repair-only) but threads the rest:
    # clean, because per-domain oracles are never patched.
    fixture = dict(FLAG_FIXTURE)
    fixture["online/simulator.py"] = """
        from repro.graph.indexed import FrozenOracle

        class OnlineSimulator:
            def __init__(self, graph):
                self._oracle = FrozenOracle(
                    graph, alpha=True, beta=1, patchable=True,
                )
    """
    write_tree(tmp_path, fixture)
    assert not lint(tmp_path).findings


def test_flag_threading_kwargs_forward_satisfies_all(tmp_path):
    # run_churn_comparison forwards **simulator_kwargs: every flag passes.
    write_tree(tmp_path, FLAG_FIXTURE)
    result = lint(tmp_path)
    assert not any(
        f.symbol == "run_churn_comparison" for f in result.findings
    )


# ----------------------------------------------------------------------
# fork safety
# ----------------------------------------------------------------------

def test_fork_mutation_window(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": """
        from repro.graph import kernel

        def repair(rows, adjacency, changes, job):
            plan = _PatchPlan(adjacency, changes)
            dist = {}
            for v, val in rows:
                dist[v] = val
            return kernel.fork_map(job, rows)
    """})
    assert rules_found(lint(tmp_path)) == ["fork-mutation-window"]


def test_fork_before_write_back_is_clean(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": """
        from repro.graph import kernel

        def repair(rows, adjacency, changes, job):
            plan = _PatchPlan(adjacency, changes)
            repaired = kernel.fork_map(job, rows)
            dist = {}
            for v, val in repaired:
                dist[v] = val
            return dist
    """})
    assert not lint(tmp_path).findings


def test_fork_raw_pool(tmp_path):
    write_tree(tmp_path, {"core/mod.py": """
        import multiprocessing

        def sweep(fn, items):
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(2) as pool:
                return pool.map(fn, items)
    """})
    assert rules_found(lint(tmp_path)) == ["fork-raw-pool"]


def test_raw_pool_allowed_in_kernel(tmp_path):
    write_tree(tmp_path, {"graph/kernel.py": """
        import multiprocessing

        def fork_map(fn, items):
            global _WORKER_FN
            _WORKER_FN = fn
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(2) as pool:
                return pool.map(_call_worker, items)
    """})
    assert not lint(tmp_path).findings


def test_raw_pool_flagged_in_sweep_harness(tmp_path):
    # The sweep harness farms its cells through kernel.fork_map, so a
    # raw pool there is no longer grandfathered.
    write_tree(tmp_path, {"experiments/harness.py": """
        import multiprocessing

        def _map_cells(cells, workers):
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=workers) as pool:
                return pool.map(_sweep_cell, cells, chunksize=1)
    """})
    assert rules_found(lint(tmp_path)) == ["fork-raw-pool"]


def test_fork_worker_order(tmp_path):
    write_tree(tmp_path, {"graph/kernel.py": """
        import multiprocessing

        def fork_map(fn, items):
            global _WORKER_FN
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(2) as pool:
                _WORKER_FN = fn
                return pool.map(_call_worker, items)
    """})
    assert rules_found(lint(tmp_path)) == ["fork-worker-order"]


def test_constant_reset_after_pool_is_clean(tmp_path):
    write_tree(tmp_path, {"graph/kernel.py": """
        import multiprocessing

        def fork_map(fn, items):
            global _WORKER_FN
            _WORKER_FN = fn
            ctx = multiprocessing.get_context("fork")
            try:
                with ctx.Pool(2) as pool:
                    return pool.map(_call_worker, items)
            finally:
                _WORKER_FN = None
    """})
    assert not lint(tmp_path).findings


# ----------------------------------------------------------------------
# framework: parse errors and baseline round-trip
# ----------------------------------------------------------------------

def test_parse_error_is_a_finding(tmp_path):
    write_tree(tmp_path, {"graph/mod.py": "def broken(:\n"})
    assert rules_found(lint(tmp_path)) == ["parse-error"]


def test_baseline_round_trip(tmp_path):
    root = write_tree(tmp_path / "tree", {"graph/mod.py": SET_ITER_TP})
    result = lint(root)
    assert len(result.findings) == 1

    baseline_file = tmp_path / "baseline.json"
    baseline = Baseline(path=str(baseline_file))
    baseline.write(result.findings)

    reloaded = Baseline.load(str(baseline_file))
    assert reloaded.covers(result.findings[0])

    rerun = lint(root, baseline=reloaded)
    assert not rerun.findings
    assert len(rerun.baselined) == 1
    assert rerun.clean  # clean == no *actionable* findings


def test_baseline_keeps_justifications_on_rewrite(tmp_path):
    root = write_tree(tmp_path / "tree", {"graph/mod.py": SET_ITER_TP})
    finding = lint(root).findings[0]
    baseline_file = tmp_path / "baseline.json"

    baseline = Baseline(path=str(baseline_file))
    baseline.write([finding])
    key = (finding.rule, finding.path, finding.symbol)
    assert baseline.entries[key].startswith("TODO")

    baseline.entries[key] = "intentional: reference implementation"
    baseline.write([finding])
    reloaded = Baseline.load(str(baseline_file))
    assert reloaded.entries[key] == "intentional: reference implementation"


def test_committed_baseline_is_empty():
    # Every finding on the live tree is fixed or justified inline; the
    # shipped baseline must not quietly grandfather anything.
    committed = Baseline.load(default_baseline_path())
    assert committed.entries == {}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_strict_exit_code_and_message(tmp_path, capsys):
    write_tree(tmp_path, {"graph/mod.py": SET_ITER_TP})
    rc = analysis_main(["--strict", "--no-baseline", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "det-set-iter" in out
    assert "mod.py:4" in out


def test_cli_non_strict_exit_zero(tmp_path, capsys):
    write_tree(tmp_path, {"graph/mod.py": SET_ITER_TP})
    rc = analysis_main(["--no-baseline", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0


def test_cli_json_output(tmp_path, capsys):
    write_tree(tmp_path, {"graph/mod.py": SET_ITER_TP})
    rc = analysis_main(["--json", "--no-baseline", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["checked_files"] == 1
    assert payload["clean"] is False
    assert [f["rule"] for f in payload["findings"]] == ["det-set-iter"]


def test_cli_list_rules(capsys):
    rc = analysis_main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for rule_id in (
        "det-set-iter", "det-unseeded-rng", "det-wallclock",
        "det-ambient-sort-key", "oracle-second-build",
        "oracle-invalidate-rebuild", "thread-oracle-flag",
        "fork-mutation-window", "fork-raw-pool", "fork-worker-order",
    ):
        assert rule_id in out


def test_cli_baseline_rewrite_then_strict_passes(tmp_path, capsys):
    root = write_tree(tmp_path / "tree", {"graph/mod.py": SET_ITER_TP})
    baseline_file = str(tmp_path / "baseline.json")
    rc = analysis_main([
        "--baseline", "--baseline-file", baseline_file, str(root),
    ])
    assert rc == 0
    rc = analysis_main([
        "--strict", "--baseline-file", baseline_file, str(root),
    ])
    capsys.readouterr()
    assert rc == 0


def test_repro_cli_analysis_subcommand(tmp_path, capsys):
    write_tree(tmp_path, {"graph/mod.py": SET_ITER_TP})
    rc = repro_main([
        "analysis", str(tmp_path), "--strict", "--no-baseline",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "det-set-iter" in out

    rc = repro_main(["analysis", "--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "thread-oracle-flag" in out


def test_all_rules_are_documented_in_readme():
    readme = (SRC / "repro" / "analysis" / "README.md").read_text()
    for rule in all_rules():
        assert rule.rule_id in readme


# ----------------------------------------------------------------------
# obs-null-guard
# ----------------------------------------------------------------------

def test_obs_null_guard_raw_clock_true_positive(tmp_path):
    write_tree(tmp_path, {"graph/fast.py": """
        import time

        def repair(rows):
            t0 = time.perf_counter()
            for row in rows:
                row.fix()
            return time.perf_counter() - t0
    """})
    result = lint(tmp_path)
    assert rules_found(result) == ["obs-null-guard", "obs-null-guard"]
    assert all("perf_counter" in f.message for f in result.findings)


def test_obs_null_guard_imported_clock_true_positive(tmp_path):
    write_tree(tmp_path, {"online/sim.py": """
        from time import monotonic

        def step():
            return monotonic()
    """})
    assert rules_found(lint(tmp_path)) == ["obs-null-guard"]


def test_obs_null_guard_recorder_construction_true_positive(tmp_path):
    write_tree(tmp_path, {"workload/engine.py": """
        from repro.obs import MetricsRegistry, Recorder

        def run(schedule):
            mx = Recorder(registry=MetricsRegistry())
            return mx
    """})
    result = lint(tmp_path)
    assert rules_found(result) == ["obs-null-guard", "obs-null-guard"]
    assert any("Recorder(...)" in f.message for f in result.findings)


def test_obs_null_guard_injected_recorder_is_clean(tmp_path):
    # The blessed discipline: injected recorder, guarded clock reads.
    write_tree(tmp_path, {"graph/fast.py": """
        class Oracle:
            def __init__(self, graph, metrics=None):
                self._metrics = metrics if metrics else None

            def repair(self, rows):
                mx = self._metrics
                t0 = mx.clock() if mx else 0.0
                for row in rows:
                    row.fix()
                if mx:
                    mx.span("oracle.repair", t0, rows=len(rows))
    """})
    assert not lint(tmp_path).findings


def test_obs_null_guard_out_of_scope_modules_are_clean(tmp_path):
    # experiments/ keeps raw timers (measured runtime is its output) and
    # tests are never linted for this rule.
    write_tree(tmp_path, {
        "experiments/bench.py": """
            import time

            def measure(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
        """,
        "tests/test_mod.py": """
            import time

            def test_clock():
                assert time.perf_counter() >= 0
        """,
    })
    assert not lint(tmp_path).findings


def test_obs_null_guard_suppression(tmp_path):
    write_tree(tmp_path, {"graph/fast.py": """
        import time

        def boot():
            # repro-lint: disable=obs-null-guard -- one-time cold-start
            # stamp outside any hot path.
            return time.perf_counter()
    """})
    assert not lint(tmp_path).findings


# ----------------------------------------------------------------------
# integration: the live tree, and the fake-flag regression
# ----------------------------------------------------------------------

def test_live_tree_is_clean_under_strict():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--strict", "src", "tests"],
        cwd=str(REPO_ROOT), env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


#: The real modules that carry the flag-threading sites, copied (not
#: imported) so the regression test can mutate the oracle signature.
_SITE_FILES = (
    "repro/graph/indexed.py",
    "repro/core/sofda.py",
    "repro/online/simulator.py",
    "repro/distributed/controller.py",
    "repro/distributed/coordinator.py",
    "repro/experiments/harness.py",
)

_INIT_TAIL = "        metrics: Optional[object] = None,\n    ) -> None:"


def test_fake_flag_is_reported_at_every_threading_site(tmp_path):
    """Injecting a new FrozenOracle knob must flag every missed site.

    This is the regression the rule exists for: PRs 4 and 7 each added a
    flag that silently failed to reach some construction sites.  A fake
    ``fake_knob`` added only to ``__init__`` must surface one finding
    per non-forwarding site, each naming the site.
    """
    for rel in _SITE_FILES:
        dst = tmp_path / Path(rel).relative_to("repro")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(SRC / rel, dst)

    indexed = tmp_path / "graph" / "indexed.py"
    text = indexed.read_text(encoding="utf-8")
    assert text.count(_INIT_TAIL) == 1, "FrozenOracle.__init__ moved"
    indexed.write_text(text.replace(
        _INIT_TAIL,
        "        row_budget_bytes: Optional[int] = None,\n"
        "        fake_knob: bool = False,\n"
        "    ) -> None:",
    ), encoding="utf-8")

    result = lint(tmp_path)
    findings = [f for f in result.findings if f.rule == "thread-oracle-flag"]
    assert result.findings == findings, rules_found(result)
    assert all("'fake_knob'" in f.message for f in findings)

    flagged_sites = {
        site for f in findings
        for site in (
            "FrozenOracle.rebased", "AuxiliaryOracle", "OnlineSimulator",
            "Controller", "DistributedSOFDA",
        )
        if f"'{site}'" in f.message
    }
    assert flagged_sites == {
        "FrozenOracle.rebased", "AuxiliaryOracle", "OnlineSimulator",
        "Controller", "DistributedSOFDA",
    }
    # The comparison runners forward **simulator_kwargs and stay clean.
    assert not any("run_online_comparison" in f.message for f in findings)
    assert not any("run_churn_comparison" in f.message for f in findings)


def test_unpatched_copy_of_site_files_is_clean(tmp_path):
    for rel in _SITE_FILES:
        dst = tmp_path / Path(rel).relative_to("repro")
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(SRC / rel, dst)
    result = lint(tmp_path)
    assert not result.findings, rules_found(result)
