"""Tests for the command-line interface."""

import importlib

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_solve_small(capsys):
    assert main([
        "solve", "--topology", "softlayer", "--sources", "3",
        "--destinations", "3", "--vms", "8", "--chain", "2", "--seed", "4",
    ]) == 0
    out = capsys.readouterr().out
    for name in ("SOFDA", "eNEMP", "eST", "ST"):
        assert name in out
    assert "cost=" in out


def test_solve_with_ilp_and_verbose(capsys):
    assert main([
        "solve", "--sources", "2", "--destinations", "2", "--vms", "6",
        "--chain", "2", "--ilp", "--verbose",
    ]) == 0
    out = capsys.readouterr().out
    assert "CPLEX" in out
    assert "chain 0" in out


@pytest.mark.parametrize("flags, message", [
    (["--chain", "4", "--vms", "2"], "cannot host a chain of length 4"),
    (["--destinations", "0"], "at least one destination is required"),
    (["--sources", "100"], "cannot draw 100 sources"),
])
def test_solve_rejects_inconsistent_sizes(capsys, flags, message):
    """Bad sizes end in one ``error:`` line and exit status 2, not a
    traceback from inside the instance builder."""
    assert main(["solve", "--topology", "softlayer", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags, message", [
    (["--rate", "0"], "--rate must be positive"),
    (["--rate", "-1"], "--rate must be positive"),
    (["--fail-links", "3", "--mtbf", "0"], "--mtbf must be positive"),
    (["--fail-links", "3", "--mttr", "-1"], "--mttr must be positive"),
    (["--row-budget-mb", "0"], "--row-budget-mb must be"),
    (["--row-budget-mb", "-2"], "--row-budget-mb must be"),
    (["--row-budget-mb", "1e-9"], "--row-budget-mb must be"),
    (["--hold-mean", "-3"], "--hold-mean must be positive"),
    (["--hold-fixed", "0"], "--hold-fixed must be positive"),
    (["--process", "diurnal", "--amplitude", "2"], "--amplitude must be in"),
    (["--process", "diurnal", "--period", "0"], "--period must be positive"),
    (["--process", "flash", "--burst-factor", "0"],
     "--burst-factor must be at least 1"),
    (["--process", "flash", "--burst-duration", "-1"],
     "--burst-duration must be non-negative"),
    (["--horizon", "-5"], "--horizon must be a finite positive"),
    (["--fail-links", "-2"], "--fail-links must be non-negative"),
], ids=["rate-zero", "rate-negative", "mtbf-zero", "mttr-negative",
        "budget-zero", "budget-negative", "budget-under-one-byte",
        "hold-mean-negative", "hold-fixed-zero", "amplitude-above-one",
        "period-zero", "burst-factor-zero", "burst-duration-negative",
        "horizon-negative", "fail-links-negative"])
def test_workload_rejects_bad_inputs(capsys, tmp_path, flags, message):
    """Bad workload flags end in one ``error:`` line and exit status 2
    before anything is built -- ``--record`` writes no trace."""
    trace = tmp_path / "trace.jsonl"
    assert main([
        "workload", "--horizon", "2", "--record", str(trace), *flags,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not trace.exists()


def test_fig12_rejects_no_requests(capsys):
    """``--requests`` below 1 ends in one ``error:`` line and exit
    status 2 instead of printing empty rows."""
    assert main(["fig12", "--requests", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--requests must be at least 1" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["fig8", "--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["fig11", "--seeds", "-1"], "--seeds must be at least 1, got -1"),
    (["table2", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["fig7", "--samples", "0"], "--samples must be at least 2, got 0"),
    (["fig10", "--nodes", "5", "--seeds", "1"],
     "cannot draw 2 sources and 6 destinations from 5 nodes"),
    (["table1", "--nodes", "0"], "inet topology needs at least 3 nodes"),
    (["table1", "--nodes", "100", "--sources", "0"],
     "--sources must be at least 1, got 0"),
], ids=["fig8-seeds", "fig11-seeds", "table2-trials", "fig7-samples",
        "fig10-nodes", "table1-nodes", "table1-sources"])
def test_experiments_reject_bad_sizes(capsys, monkeypatch, argv, message):
    """Bad counts and sizes end in one ``error:`` line and exit status 2
    before any solve, not in a traceback from inside an experiment."""
    sofda_module = importlib.import_module("repro.core.sofda")

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the size check")

    monkeypatch.setattr(sofda_module, "build_auxiliary_graph", no_solve)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_fig7(capsys):
    assert main(["fig7", "--samples", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].split()[0] == "0.0000"


def test_fig12(capsys):
    assert main(["fig12", "--requests", "2"]) == 0
    out = capsys.readouterr().out
    assert "SOFDA" in out and "ST" in out


def test_table2(capsys):
    assert main(["table2", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "startup(s)" in out and "SOFDA" in out


def test_table1_tiny(capsys):
    assert main(["table1", "--nodes", "200", "--sources", "2"]) == 0
    out = capsys.readouterr().out
    assert "|S|=  2" in out
