"""Kernel-vs-naive benchmark cases behind ``python -m repro bench kernels``.

Each case times the frozen per-subset loops from
:mod:`repro.kernels.reference` against the blocked-GEMM kernel on the
same data, checks exact equivalence, and reports speedups.  The default
case list covers the scales the benchmarks actually run at (the E4 LMN
configuration, wider XOR PUFs, the BR-PUF Chow estimation of E11) plus a
batched-FWHT case; ``smoke_cases`` is the small, seconds-fast subset CI
runs on every push.

Results serialise to ``benchmarks/results/BENCH_kernels.json`` through
the shared harness in :mod:`repro.tooling.bench`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.kernels import reference
from repro.kernels.character import CharacterBasis
from repro.kernels.fwht import fwht
from repro.tooling.bench import best_time


@dataclasses.dataclass(frozen=True)
class KernelBenchCase:
    """One timed old-path-vs-kernel comparison.

    ``kind`` selects the data source and measured operation:

    * ``"lmn_xor"`` — LMN coefficient estimation + hypothesis evaluation
      on a k-XOR Arbiter PUF over parity features (n = stages = feature
      dim); the ``lmn_xor12_e4`` case is exactly the E4 configuration.
    * ``"km_br"`` — degree-1 (Chow) coefficient estimation + sign
      evaluation on a Bistable Ring PUF, the E11 shape.
    * ``"fwht"`` — a batch of ``2^n`` truth tables through the old
      one-table copying butterfly vs one batched in-place transform.
    """

    name: str
    kind: str
    n: int
    degree: int = 3
    m_fit: int = 25_000
    m_eval: int = 25_000
    k: int = 2
    batch: int = 256  # fwht only
    repeats: int = 3
    seed: int = 4


def default_cases() -> List[KernelBenchCase]:
    """The full benchmark matrix (E4/E11 scales; ~a minute total)."""
    return [
        KernelBenchCase(
            name="lmn_xor12_e4", kind="lmn_xor", n=12, degree=3, k=2,
            m_fit=25_000, m_eval=25_000, repeats=5,
        ),
        KernelBenchCase(
            name="lmn_xor24_deg3", kind="lmn_xor", n=24, degree=3, k=2,
            m_fit=16_384, m_eval=16_384, repeats=2,
        ),
        KernelBenchCase(
            name="lmn_xor64_deg2", kind="lmn_xor", n=64, degree=2, k=2,
            m_fit=16_384, m_eval=16_384, repeats=2,
        ),
        KernelBenchCase(
            name="km_br64_chow", kind="km_br", n=64, degree=1,
            m_fit=32_768, m_eval=32_768, repeats=3,
        ),
        KernelBenchCase(
            name="fwht_n8_batch2048", kind="fwht", n=8, batch=2048, repeats=3,
        ),
    ]


def smoke_cases() -> List[KernelBenchCase]:
    """Seconds-fast subset for CI: asserts equivalence and speedup >= 1."""
    return [
        KernelBenchCase(
            name="lmn_xor10_smoke", kind="lmn_xor", n=10, degree=3, k=2,
            m_fit=8_192, m_eval=8_192, repeats=3,
        ),
        KernelBenchCase(
            name="fwht_n8_smoke", kind="fwht", n=8, batch=64, repeats=3,
        ),
    ]


def _case_data(
    case: KernelBenchCase,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x_fit, y_fit, x_eval, y_eval) in the +/-1 feature space."""
    rng = np.random.default_rng(case.seed)
    if case.kind == "lmn_xor":
        from repro.pufs.arbiter import parity_transform
        from repro.pufs.xor_arbiter import XORArbiterPUF

        puf = XORArbiterPUF(case.n, case.k, np.random.default_rng(10 + case.k))

        def draw(m: int) -> Tuple[np.ndarray, np.ndarray]:
            c = (1 - 2 * rng.integers(0, 2, size=(m, case.n))).astype(np.int8)
            return parity_transform(c)[:, :-1].astype(np.int8), puf.eval(c)

        x_fit, y_fit = draw(case.m_fit)
        x_eval, y_eval = draw(case.m_eval)
        return x_fit, y_fit, x_eval, y_eval
    if case.kind == "km_br":
        from repro.pufs.bistable_ring import BistableRingPUF

        puf = BistableRingPUF(case.n, np.random.default_rng(11))

        def draw(m: int) -> Tuple[np.ndarray, np.ndarray]:
            c = (1 - 2 * rng.integers(0, 2, size=(m, case.n))).astype(np.int8)
            return c, puf.eval(c)

        x_fit, y_fit = draw(case.m_fit)
        x_eval, y_eval = draw(case.m_eval)
        return x_fit, y_fit, x_eval, y_eval
    raise ValueError(f"no sample data for case kind {case.kind!r}")


def _run_fwht_case(case: KernelBenchCase) -> Dict[str, object]:
    rng = np.random.default_rng(case.seed)
    tables = (1 - 2 * rng.integers(0, 2, size=(case.batch, 2**case.n))).astype(
        np.float64
    )

    def old() -> np.ndarray:
        return np.stack([reference.naive_walsh_hadamard(t) for t in tables])

    def new() -> np.ndarray:
        return fwht(tables)

    t_old, out_old = best_time(old, case.repeats)
    t_new, out_new = best_time(new, case.repeats)
    identical = bool(np.array_equal(out_old, out_new))
    return {
        "name": case.name,
        "kind": case.kind,
        "params": {"n": case.n, "batch": case.batch, "repeats": case.repeats},
        "transform": {
            "old_s": t_old,
            "new_s": t_new,
            "speedup": t_old / max(t_new, 1e-12),
        },
        "spectra_identical": identical,
        "equivalent": identical,
    }


def run_case(case: KernelBenchCase) -> Dict[str, object]:
    """Time one case on both paths and check exact equivalence."""
    if case.kind == "fwht":
        return _run_fwht_case(case)

    x_fit, y_fit, x_eval, y_eval = _case_data(case)
    basis = CharacterBasis.low_degree(x_fit.shape[1], case.degree)
    subsets = list(basis.subsets)

    t_fit_old, est_old = best_time(
        lambda: reference.naive_estimate_coefficients(x_fit, y_fit, subsets),
        case.repeats,
    )
    t_fit_new, est_new = best_time(
        lambda: basis.estimate_coefficients(x_fit, y_fit), case.repeats
    )
    spectra_identical = bool(np.array_equal(est_old, est_new))

    spectrum = dict(zip(subsets, est_old))
    t_eval_old, pred_old = best_time(
        lambda: reference.naive_sign_of_expansion(x_eval, spectrum), case.repeats
    )
    t_eval_new, pred_new = best_time(
        lambda: basis.predict_sign(x_eval, est_new), case.repeats
    )
    predictions_identical = bool(np.array_equal(pred_old, pred_new))

    return {
        "name": case.name,
        "kind": case.kind,
        "params": {
            "n": x_fit.shape[1],
            "degree": case.degree,
            "k": case.k,
            "m_fit": case.m_fit,
            "m_eval": case.m_eval,
            "coefficients": len(subsets),
            "repeats": case.repeats,
        },
        "fit": {
            "old_s": t_fit_old,
            "new_s": t_fit_new,
            "speedup": t_fit_old / max(t_fit_new, 1e-12),
        },
        "eval": {
            "old_s": t_eval_old,
            "new_s": t_eval_new,
            "speedup": t_eval_old / max(t_eval_new, 1e-12),
        },
        "spectra_identical": spectra_identical,
        "predictions_identical": predictions_identical,
        "accuracy_old": float(np.mean(pred_old == y_eval)),
        "accuracy_new": float(np.mean(pred_new == y_eval)),
        "equivalent": spectra_identical and predictions_identical,
    }


def gate(records: Sequence[Dict[str, object]], smoke: bool) -> List[str]:
    """Under ``--smoke``, a kernel slower than the naive path fails."""
    if not smoke:
        return []
    found = []
    for rec in records:
        speedup = (rec.get("fit") or rec.get("transform"))["speedup"]
        if speedup < 1.0:
            found.append(f"{rec['name']}: kernel slower than naive ({speedup:.2f}x)")
    return found
