"""Pytest plugin: run the suite on the pure-Python search loops.

    python -m pytest -p tests.force_python_settle -x -q

Points :func:`repro.graph.kernel.settle`,
:func:`repro.graph.kernel.repair` and
:func:`repro.graph.kernel.walk_costs` at their Python twins before any
test runs, so the fallback a machine without a C compiler takes stays
covered by the whole suite.  The differential tests in
``tests/test_settle.py`` still call the compiled loops directly.
"""

from __future__ import annotations


def pytest_configure(config):
    from repro.graph import kernel

    kernel.settle = kernel.settle_python
    kernel.repair = kernel.repair_python
    kernel.walk_costs = kernel.walk_costs_python
