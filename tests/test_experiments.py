"""Tests for the experiment harness and reporting."""

import pytest

from repro.experiments import (
    fig7_cost_function,
    render_series,
    render_table,
    run_sweep,
)
from repro.experiments.harness import DEFAULTS, SweepResult, default_algorithms
from repro.topology import softlayer_network


def test_fig7_series():
    curve = fig7_cost_function(samples=13)
    assert len(curve) == 13
    assert curve[0] == (0.0, 0.0)
    assert curve[-1][0] == pytest.approx(1.2)


def test_default_algorithms_names():
    algos = default_algorithms()
    assert set(algos) == {"SOFDA", "eNEMP", "eST", "ST"}
    with_ilp = default_algorithms(include_ilp=True)
    assert "CPLEX" in with_ilp


def test_run_sweep_structure():
    network = softlayer_network(seed=1)
    result = run_sweep(
        network, "num_vms", [5, 10], seeds=2,
        overrides={"num_sources": 3, "num_destinations": 3,
                   "chain_length": 2},
    )
    assert result.parameter == "num_vms"
    assert result.values == [5, 10]
    for name in ("SOFDA", "eNEMP", "eST", "ST"):
        assert len(result.mean_cost[name]) == 2
        assert len(result.mean_vms_used[name]) == 2
        assert all(c > 0 for c in result.mean_cost[name])
    assert len(result.winner_per_value()) == 2


def test_run_sweep_unknown_parameter():
    with pytest.raises(ValueError):
        run_sweep(softlayer_network(seed=1), "frobnication", [1, 2])


def test_run_sweep_custom_algorithms():
    from repro.core.sofda import sofda

    network = softlayer_network(seed=1)
    result = run_sweep(
        network, "chain_length", [2], seeds=1,
        algorithms={"only": lambda inst: sofda(inst).forest},
        overrides={"num_sources": 2, "num_destinations": 2, "num_vms": 6},
    )
    assert list(result.mean_cost) == ["only"]


def test_run_sweep_workers_matches_serial():
    """The pooled sweep must reproduce the serial output exactly."""
    network = softlayer_network(seed=1)
    kwargs = dict(
        parameter="num_vms", values=[5, 10], seeds=2,
        overrides={"num_sources": 3, "num_destinations": 3,
                   "chain_length": 2},
    )
    serial = run_sweep(network, **kwargs)
    pooled = run_sweep(network, workers=4, **kwargs)
    assert pooled.values == serial.values
    assert pooled.mean_cost == serial.mean_cost
    assert pooled.mean_vms_used == serial.mean_vms_used
    # Runtimes are measured per cell, so both modes report sane values.
    for name in serial.mean_cost:
        assert all(t >= 0 for t in pooled.mean_runtime_s[name])


def test_run_sweep_warns_once_without_fork(monkeypatch):
    """Platforms without fork fall back to serial -- loudly, once."""
    import warnings

    from repro.graph import kernel

    monkeypatch.setattr(
        kernel.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    monkeypatch.setattr(kernel, "_warned_no_fork", False)
    network = softlayer_network(seed=1)
    kwargs = dict(
        parameter="num_vms", values=[5, 10], seeds=1,
        overrides={"num_sources": 2, "num_destinations": 2,
                   "chain_length": 2},
    )
    with pytest.warns(RuntimeWarning, match="run_sweep.*fork.*unavailable"):
        fallback = run_sweep(network, workers=4, **kwargs)
    # The fallback still evaluates every cell -- serially and exactly.
    serial = run_sweep(network, **kwargs)
    assert fallback.mean_cost == serial.mean_cost
    # Only the first sweep reports; repeats stay quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_sweep(network, workers=4, **kwargs)


def test_run_sweep_workers_custom_algorithms():
    """Fork inheritance carries even lambda embedders to the workers."""
    from repro.core.sofda import sofda

    network = softlayer_network(seed=1)
    kwargs = dict(
        parameter="chain_length", values=[2], seeds=2,
        algorithms={"only": lambda inst: sofda(inst).forest},
        overrides={"num_sources": 2, "num_destinations": 2, "num_vms": 6},
    )
    serial = run_sweep(network, **kwargs)
    pooled = run_sweep(network, workers=2, **kwargs)
    assert pooled.mean_cost == serial.mean_cost


def test_defaults_match_paper():
    assert DEFAULTS == {
        "num_sources": 14, "num_destinations": 6,
        "num_vms": 25, "chain_length": 3,
    }


def test_render_series():
    result = SweepResult(
        parameter="num_vms", values=[5, 10],
        mean_cost={"A": [3.0, 2.0], "B": [4.0, 1.0]},
    )
    text = render_series(result, title="demo")
    assert "demo" in text
    assert "num_vms" in text
    assert "winner" in text
    assert result.winner_per_value() == ["A", "B"]


def test_render_table():
    text = render_table(
        {"SOFDA": {"startup": 2.5, "label": "x"}},
        headers=["startup", "label"],
        title="QoE",
    )
    assert "QoE" in text and "SOFDA" in text and "2.500" in text
