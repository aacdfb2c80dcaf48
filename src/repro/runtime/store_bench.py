"""Artifact-store and process-pool benchmarks behind ``python -m repro bench store``.

Two case families, matching the two halves of the store/runner layer:

* **Warm start** — run a generation-heavy fleet sweep twice against one
  :class:`~repro.runtime.store.ArtifactStore`: the cold pass pays full
  BR-PUF response-plane generation, the warm pass replays the memoised
  entries.  Reports the wall-clock speedup and checks the two
  passes' trial values are bit-identical (the store hit path consumes no
  randomness, so they must be).
* **Pooling** — run a skewed sleep-bound trial mix (all slow trials
  clustered at the front) serially and on one pool of four workers at
  one trial per chunk, and report the scaling.  Sleeps overlap across
  workers regardless of core count, so the case is meaningful on
  single-CPU CI hosts too.  Values must again be bit-identical across
  worker counts.

Results serialise to ``benchmarks/results/BENCH_store.json`` and render
into ``docs/BENCHMARKS.md`` via ``python -m repro docs-bench``.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.runtime.runner import TrialReport, TrialRunner
from repro.runtime.store import ArtifactStore
from repro.runtime.workloads import (
    FleetEvalSpec,
    SkewedSleepSpec,
    fleet_eval_trial,
    skewed_sleep_trial,
)


@dataclasses.dataclass(frozen=True)
class WarmStartCase:
    """One cold-vs-warm fleet sweep against a fresh artifact store."""

    name: str
    trials: int = 6
    n: int = 64
    size: int = 192
    m: int = 3000
    seed: int = 11


@dataclasses.dataclass(frozen=True)
class PoolCase:
    """One serial-vs-pool run of the skewed sleep mix."""

    name: str
    trials: int = 16
    slow_count: int = 4
    slow_seconds: float = 0.5
    fast_seconds: float = 0.01
    workers: int = 4
    seed: int = 12


def default_cases() -> List[object]:
    """The full benchmark matrix (sweep-scale generation costs)."""
    return [
        WarmStartCase(name="warm_start_fleet_br"),
        PoolCase(
            name="pooled_skewed_sleep",
            trials=16,
            slow_count=4,
            slow_seconds=0.5,
            fast_seconds=0.01,
        ),
    ]


def smoke_cases() -> List[object]:
    """Seconds-fast subset for CI: asserts equivalence and speedup >= 1."""
    return [
        WarmStartCase(name="warm_start_fleet_br_smoke", trials=3, n=32, size=48, m=600),
        PoolCase(
            name="pooled_skewed_sleep_smoke",
            trials=8,
            slow_count=2,
            slow_seconds=0.25,
            fast_seconds=0.01,
            workers=2,
        ),
    ]


def _values_identical(a: TrialReport, b: TrialReport) -> bool:
    """Whether two reports carry bit-identical per-trial values."""
    return len(a.results) == len(b.results) and all(
        ra.ok and rb.ok and bool(np.array_equal(ra.value, rb.value))
        for ra, rb in zip(a.results, b.results)
    )


def _run_warm_start(case: WarmStartCase) -> Dict[str, object]:
    """Time the cold and warm passes of one cached fleet sweep.

    The BR family is the generation-heavy one (its response plane needs
    a settled-state evaluation per challenge), so the cold pass is
    dominated by exactly the work the store memoises; ``noise_sigma=0``
    keeps the trial deterministic given the store (reliability needs no
    fresh noisy draws).
    """
    spec = FleetEvalSpec(
        family="br",
        n=case.n,
        size=case.size,
        m=case.m,
        noise_sigma=0.0,
        repetitions=1,
    )
    runner = TrialRunner(workers=1)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store_dir:
        kwargs = {"spec": spec, "cache_dir": store_dir}
        t0 = time.perf_counter()
        cold = runner.run(fleet_eval_trial, case.trials, case.seed, kwargs)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = runner.run(fleet_eval_trial, case.trials, case.seed, kwargs)
        warm_s = time.perf_counter() - t0
        stats = ArtifactStore(store_dir).stats()
    cold.raise_failures()
    warm.raise_failures()
    identical = _values_identical(cold, warm)
    return {
        "name": case.name,
        "params": {
            "trials": case.trials,
            "family": "br",
            "n": case.n,
            "size": case.size,
            "m": case.m,
        },
        "warm_start": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / max(warm_s, 1e-12),
        },
        "store": {
            "entries": stats["entries"],
            "total_bytes": stats["total_bytes"],
        },
        "bit_identical": identical,
        "equivalent": identical,
    }


def _run_pool(case: PoolCase) -> Dict[str, object]:
    """Time the skewed sleep mix serially vs on ``case.workers`` workers.

    ``chunk_size=1`` hands out one trial at a time, so the slow trials
    at the front spread over the workers instead of sharing a chunk.
    """
    spec = SkewedSleepSpec(
        slow_count=case.slow_count,
        slow_seconds=case.slow_seconds,
        fast_seconds=case.fast_seconds,
    )
    kwargs = {"spec": spec}
    t0 = time.perf_counter()
    serial = TrialRunner(workers=1).run(
        skewed_sleep_trial, case.trials, case.seed, kwargs
    )
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = TrialRunner(workers=case.workers, chunk_size=1).run(
        skewed_sleep_trial, case.trials, case.seed, kwargs
    )
    pool_s = time.perf_counter() - t0
    serial.raise_failures()
    pooled.raise_failures()
    identical = _values_identical(serial, pooled)
    return {
        "name": case.name,
        "params": {
            "trials": case.trials,
            "slow_count": case.slow_count,
            "slow_seconds": case.slow_seconds,
            "fast_seconds": case.fast_seconds,
            "workers": case.workers,
        },
        "pooling": {
            "serial_s": serial_s,
            "pool_s": pool_s,
            "speedup": serial_s / max(pool_s, 1e-12),
        },
        "executor": pooled.executor,
        "bit_identical": identical,
        "equivalent": identical,
    }


def run_case(case: Union[WarmStartCase, PoolCase]) -> Dict[str, object]:
    """Time one warm-start or pool case and check bit-identity."""
    if isinstance(case, WarmStartCase):
        return _run_warm_start(case)
    if isinstance(case, PoolCase):
        return _run_pool(case)
    raise TypeError(f"unknown bench case type {type(case).__name__}")


def gate(records: Sequence[Dict[str, object]], smoke: bool) -> List[str]:
    """Under ``--smoke``, a warm pass or a pooled run with no speedup fails."""
    if not smoke:
        return []
    found = []
    for rec in records:
        speedup = (rec.get("warm_start") or rec.get("pooling"))["speedup"]
        if speedup < 1.0:
            found.append(f"{rec['name']}: no speedup ({speedup:.2f}x)")
    return found
