"""Pytest plugin: run the suite on the pure-Python search loops.

    python -m pytest -p tests.force_python_settle -x -q

Points :func:`repro.graph.kernel.settle` and
:func:`repro.graph.kernel.repair` at their Python twins before any test
runs, so the fallback a machine without a C compiler takes stays
covered by the whole suite.  The differential tests in
``tests/test_settle.py`` still call the compiled loops directly.
"""

from __future__ import annotations


def pytest_configure(config):
    from repro.graph import kernel

    kernel.settle = kernel.settle_python
    kernel.repair = kernel.repair_python
