"""Pytest plugin: run the suite on the pure-Python settle loop.

    python -m pytest -p tests.force_python_settle -x -q

Points :func:`repro.graph.kernel.settle` at its Python twin before any
test runs, so the fallback a machine without a C compiler takes stays
covered by the whole suite.  The differential tests in
``tests/test_settle.py`` still call the compiled loop directly.
"""

from __future__ import annotations


def pytest_configure(config):
    from repro.graph import kernel

    kernel.settle = kernel.settle_python
