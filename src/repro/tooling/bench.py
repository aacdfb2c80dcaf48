"""The one harness behind ``python -m repro bench <suite>``.

Each suite module in :data:`SUITES` holds only its cases and what is
particular to it: the case dataclass(es), ``default_cases()`` (the
committed baseline's matrix), ``smoke_cases()`` (the seconds-fast CI
subset), ``run_case(case)`` returning one JSON record with an
``equivalent`` flag, and ``gate(records, smoke)`` naming its extra
failure criterion.  Everything else lives here once: best-of-N timing,
the payload every ``benchmarks/results/BENCH_<suite>.json`` baseline
holds, the equivalence check over every record, and the payload writer.

Suite modules are imported on use, so ``bench --help`` loads none of
them.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, List, Tuple, Union

import numpy as np

from repro.persist import write_atomic

#: Suite name -> the module holding its cases, ``run_case`` and ``gate``.
SUITES: Dict[str, str] = {
    "active": "repro.learning.active_bench",
    "fleet": "repro.kernels.fleet_bench",
    "kernels": "repro.kernels.bench",
    "store": "repro.runtime.store_bench",
}


def load_suite(suite: str) -> ModuleType:
    """The module behind ``suite`` (a key of :data:`SUITES`)."""
    return importlib.import_module(SUITES[suite])


def best_time(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Best-of-``repeats`` wall time and the last result (single-core
    machines jitter a lot, so the minimum is the stable statistic)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_suite(suite: str, smoke: bool = False) -> Dict[str, object]:
    """Run the suite's full matrix, or its smoke subset, into a payload.

    The payload names the command that reproduces it and the
    environment the timings were taken in: numpy version, kernel
    backend (whose name carries its thread count) and usable CPUs.
    """
    from repro.kernels.backend import get_backend

    module = load_suite(suite)
    cases = module.smoke_cases() if smoke else module.default_cases()
    return {
        "generated_by": f"python -m repro bench {suite}"
        + (" --smoke" if smoke else ""),
        "numpy": np.__version__,
        "backend": get_backend().name,
        "nproc": _nproc(),
        "cases": [module.run_case(case) for case in cases],
    }


def failures(suite: str, payload: Dict[str, object], smoke: bool) -> List[str]:
    """Every reason ``payload`` fails: a record that is not equivalent
    to its reference path, then the suite's own ``gate``."""
    records = payload["cases"]
    found = [
        f"{rec['name']}: not equivalent to its reference path"
        for rec in records
        if not rec["equivalent"]
    ]
    return found + load_suite(suite).gate(records, smoke)


def write_payload(payload: Dict[str, object], path: Union[str, Path]) -> None:
    """Write ``payload`` as indented JSON, creating parent directories."""
    write_atomic(path, json.dumps(payload, indent=2) + "\n")
