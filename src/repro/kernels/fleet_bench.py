"""Fleet-vs-loop benchmark cases behind ``python -m repro bench-fleet``.

Each case evaluates the same fleet two ways on the same challenges —
the per-instance Python loop (one feature build + one gemv per
instance, the pre-fleet hot path) and the stacked
``(M, d) @ (d, N)`` GEMM of :mod:`repro.kernels.fleet` — checks the
response planes are identical, and reports the speedup.  The default
matrix covers the N >= 1024 population sizes ROADMAP item 2 needs plus
the three dtype tiers; ``smoke_cases`` is the seconds-fast subset CI
asserts on (equivalence and speedup >= 1).

Results serialise to ``benchmarks/results/BENCH_fleet.json``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels.backend import get_backend
from repro.pufs.crp import uniform_challenges
from repro.pufs.fleet import Fleet, FleetSpec, eval_instance


@dataclasses.dataclass(frozen=True)
class FleetBenchCase:
    """One timed per-instance-loop-vs-stacked-GEMM comparison.

    ``k`` is an XOR case's chain count: a scalar, or one count per
    instance for a mixed-k fleet (see :func:`mixed_k`).
    """

    name: str
    family: str
    n: int
    size: int
    m: int
    k: Union[int, Tuple[int, ...]] = 1
    correlation: float = 0.0
    tier: str = "float64"
    repeats: int = 3
    seed: int = 4


def mixed_k(size: int, top: int) -> Tuple[int, ...]:
    """Per-instance chain counts cycling 1, 2, ..., ``top``."""
    return tuple(1 + i % top for i in range(size))


def default_cases() -> List[FleetBenchCase]:
    """The full benchmark matrix (populations at sweep scale)."""
    return [
        FleetBenchCase(
            name="arbiter_n64_N1024", family="arbiter", n=64, size=1024, m=2000,
        ),
        FleetBenchCase(
            name="arbiter_n64_N4096", family="arbiter", n=64, size=4096, m=1000,
            repeats=2,
        ),
        FleetBenchCase(
            name="arbiter_n64_N1024_f32", family="arbiter", n=64, size=1024,
            m=2000, tier="float32",
        ),
        FleetBenchCase(
            name="arbiter_n64_N1024_i8", family="arbiter", n=64, size=1024,
            m=2000, tier="int8",
        ),
        FleetBenchCase(
            name="xor_n64_k4_N1024", family="xor", n=64, size=1024, m=1000, k=4,
            repeats=2,
        ),
        FleetBenchCase(
            name="xor_n64_k1-5_N1024", family="xor", n=64, size=1024, m=1000,
            k=mixed_k(1024, 5), repeats=2,
        ),
        FleetBenchCase(
            name="br_n64_N256", family="br", n=64, size=256, m=1000, repeats=2,
        ),
    ]


def smoke_cases() -> List[FleetBenchCase]:
    """Seconds-fast subset for CI: asserts equivalence and speedup >= 1."""
    return [
        FleetBenchCase(
            name="arbiter_n32_N128_smoke", family="arbiter", n=32, size=128,
            m=512, repeats=3,
        ),
        FleetBenchCase(
            name="xor_n32_k3_N64_smoke", family="xor", n=32, size=64, m=256,
            k=3, repeats=3,
        ),
        FleetBenchCase(
            name="xor_n32_k1-4_N64_smoke", family="xor", n=32, size=64, m=256,
            k=mixed_k(64, 4), repeats=3,
        ),
        FleetBenchCase(
            name="arbiter_n32_N128_i8_smoke", family="arbiter", n=32, size=128,
            m=512, tier="int8", repeats=3,
        ),
    ]


def _best_time(fn: Callable[[], np.ndarray], repeats: int) -> Tuple[float, np.ndarray]:
    """Best-of-``repeats`` wall time (single-core machines jitter a lot)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_case(case: FleetBenchCase) -> Dict[str, object]:
    """Time one case on both paths and check exact response equality."""
    spec = FleetSpec(
        family=case.family,
        n=case.n,
        size=case.size,
        k=case.k if case.family == "xor" else 1,
        correlation=case.correlation,
        tier=case.tier,
    )
    fleet = Fleet.build(spec, case.seed)
    challenges = uniform_challenges(
        case.m, case.n, np.random.default_rng(case.seed + 1)
    )
    # Comparators are built once, outside the timed region: the loop being
    # displaced evaluates pre-built instances, it does not rebuild them.
    instances = fleet.instances()

    def loop() -> np.ndarray:
        return np.stack(
            [eval_instance(p, challenges) for p in instances], axis=1
        )

    def stacked() -> np.ndarray:
        return fleet.eval(challenges)

    t_old, out_old = _best_time(loop, case.repeats)
    t_new, out_new = _best_time(stacked, case.repeats)
    identical = bool(np.array_equal(out_old, out_new))
    return {
        "name": case.name,
        "params": {
            "family": case.family,
            "n": case.n,
            "size": case.size,
            "m": case.m,
            "k": _describe_k(case.k),
            "tier": case.tier,
            "repeats": case.repeats,
        },
        "eval": {
            "old_s": t_old,
            "new_s": t_new,
            "speedup": t_old / max(t_new, 1e-12),
        },
        "responses_identical": identical,
        "equivalent": identical,
    }


def _describe_k(k: Union[int, Tuple[int, ...]]) -> Union[int, str]:
    """A scalar k as is; a mixed-k tuple as its distinct counts."""
    if isinstance(k, int):
        return k
    return "mixed " + "/".join(str(v) for v in sorted(set(k)))


def run_fleet_bench(
    cases: Optional[Sequence[FleetBenchCase]] = None,
) -> Dict[str, object]:
    """Run a case list and assemble the serialisable payload."""
    cases = default_cases() if cases is None else list(cases)
    return {
        "generated_by": "python -m repro bench-fleet",
        "numpy": np.__version__,
        "backend": get_backend().name,
        "cases": [run_case(case) for case in cases],
    }


def render_table(payload: Dict[str, object]) -> str:
    """Human-readable summary of a fleet benchmark payload."""
    from repro.analysis.tables import TableBuilder

    table = TableBuilder(
        ["case", "N", "m", "tier", "loop [s]", "fleet [s]", "speedup",
         "identical"],
        title="fleet speedups (per-instance loop vs stacked GEMM)",
    )
    for rec in payload["cases"]:
        ev = rec["eval"]
        table.add_row(
            rec["name"],
            rec["params"]["size"],
            rec["params"]["m"],
            rec["params"]["tier"],
            f"{ev['old_s']:.4f}",
            f"{ev['new_s']:.4f}",
            f"{ev['speedup']:.1f}",
            "yes" if rec["equivalent"] else "NO",
        )
    return table.render()


def write_results(payload: Dict[str, object], path: Path) -> None:
    """Write the benchmark payload as indented JSON, creating parents."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
