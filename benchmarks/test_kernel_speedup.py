"""Kernel-vs-naive speedup harness (the perf baseline of the kernels PR).

Times the frozen per-subset loops (``repro.kernels.reference``) against
the blocked-GEMM character kernel at the scales the benchmarks actually
run — the E4 LMN configuration (12-bit XOR Arbiter PUF, degree 3,
25 000 CRPs), wider XOR PUFs, BR-PUF Chow estimation, batched FWHT —
asserts exact equivalence plus the targeted speedups, and writes the
machine-readable ``benchmarks/results/BENCH_kernels.json`` through the
same harness as ``python -m repro bench kernels``.

A second test re-runs the E4 sweep end-to-end through the rewired
learners and pins the published ``benchmarks/results/lmn_xorpuf.txt``
numbers: the kernel must not move a single reported digit.
"""

from pathlib import Path

import pytest

from repro.tooling.bench import run_suite, write_payload
from repro.tooling.benchdocs import case_table

RESULTS_DIR = Path(__file__).parent / "results"

# The E4 sweep as published in benchmarks/results/lmn_xorpuf.txt:
# (k, correlated) -> (captured weight, accuracy %).  Estimates are
# bit-identical to the pre-kernel loops, so the printed digits must not
# move; tolerances are half an ulp of the printed rounding.
PINNED_E4 = {
    (1, False): (0.819, 96.62),
    (2, False): (0.590, 87.48),
    (4, False): (0.153, 66.16),
    (7, False): (0.123, 62.30),
    (7, True): (0.685, 87.32),
}
PINNED_COEFFICIENTS = 299


@pytest.fixture(scope="module")
def payload():
    return run_suite("kernels")


def test_kernel_speedup(payload, report):
    report("BENCH_kernels", "\n".join(case_table(payload["cases"])))
    write_payload(payload, RESULTS_DIR / "BENCH_kernels.json")

    by_name = {rec["name"]: rec for rec in payload["cases"]}
    e4 = by_name["lmn_xor12_e4"]

    # Exactness at the acceptance configuration: same spectrum, same
    # predictions, same accuracy — bit for bit.
    assert e4["spectra_identical"]
    assert e4["predictions_identical"]
    assert e4["accuracy_old"] == e4["accuracy_new"]

    # The headline targets: >=5x coefficient estimation at n=12, d=3,
    # m=25k (the acceptance criterion; steady-state is ~8x) and a
    # comfortable multiple on hypothesis evaluation.
    assert e4["fit"]["speedup"] >= 5.0, e4["fit"]
    assert e4["eval"]["speedup"] >= 3.0, e4["eval"]

    # Every case must be exactly equivalent and at least not slower.
    for rec in payload["cases"]:
        assert rec["equivalent"], rec["name"]
        timing = rec.get("fit") or rec.get("transform")
        assert timing["speedup"] >= 1.0, (rec["name"], timing)


def test_e4_regression_pinned():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "lmn_xorpuf_bench", Path(__file__).parent / "test_lmn_xorpuf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    rows = {
        (row["k"], row["correlation"] > 0): row for row in module.run_lmn_sweep()
    }
    assert set(rows) == set(PINNED_E4)
    for key, (weight, accuracy_pct) in PINNED_E4.items():
        row = rows[key]
        assert row["coefficients"] == PINNED_COEFFICIENTS
        assert row["captured_weight"] == pytest.approx(weight, abs=5e-4), key
        assert 100 * row["accuracy"] == pytest.approx(accuracy_pct, abs=5e-3), key
