"""Repository tooling: docs generation and docstring-coverage linting.

Small, dependency-free helpers behind the ``python -m repro`` maintenance
subcommands:

* :mod:`repro.tooling.docscov` — an AST-based docstring-coverage linter
  (an ``interrogate`` equivalent; nothing beyond the stdlib is assumed),
  wired into CI as ``python -m repro lint-docstrings``.
* :mod:`repro.tooling.benchdocs` — renders ``docs/BENCHMARKS.md`` from the
  machine-readable ``benchmarks/results/BENCH_*.json`` baselines
  (``python -m repro docs-bench``), with a ``--check`` mode CI uses to
  fail on drift between committed docs and committed baselines.
* :mod:`repro.tooling.bench` — the one harness behind
  ``python -m repro bench <suite>``, which writes those baselines.
"""

from repro.tooling.benchdocs import render_benchmarks_markdown
from repro.tooling.docscov import CoverageReport, measure_docstring_coverage

__all__ = [
    "CoverageReport",
    "measure_docstring_coverage",
    "render_benchmarks_markdown",
]
