"""Shared helpers for the benchmark harness.

Every benchmark prints its reproduced table and also writes it to
``benchmarks/results/<name>.txt`` so the output survives pytest's capture.

The conformance plugin is loaded here too, so benchmark assertions on
stochastic rates go through ``@statistical_test`` + ``stat`` calibrated
checks (docs/TESTING.md) instead of bare point-estimate thresholds.

The frozen references that only tests use live in ``tests/_reference.py``;
the ``frozen_reference`` fixture hands that module to a benchmark.
"""

from __future__ import annotations

from pathlib import Path

import pytest

pytest_plugins = ["repro.conformance.pytest_plugin"]

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def crp_cache():
    """A persistent artifact store under ``benchmarks/results/crp_cache``.

    Surviving across runs is the point: the first benchmark invocation
    pays CRP generation, later ones replay the memoised pools.
    """
    from repro.runtime import ArtifactStore

    return ArtifactStore(RESULTS_DIR / "crp_cache")


@pytest.fixture
def frozen_reference():
    """The test-only frozen references (``tests/_reference.py``)."""
    from tests import _reference

    return _reference


@pytest.fixture
def report():
    """Write a named report file and echo it to stdout."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _report
