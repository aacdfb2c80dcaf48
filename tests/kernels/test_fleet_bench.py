"""``bench-fleet`` cases: the smoke set covers a mixed-k XOR fleet, and a
case checks the stacked path against the per-instance loop."""

from repro.kernels.fleet_bench import FleetBenchCase, mixed_k, run_case, smoke_cases


def test_smoke_cases_include_a_mixed_k_xor_fleet():
    mixed = [
        case for case in smoke_cases()
        if case.family == "xor" and not isinstance(case.k, int)
    ]
    assert mixed and all(len(case.k) == case.size for case in mixed)
    assert all(1 in case.k and len(set(case.k)) > 1 for case in mixed)


def test_mixed_k_case_matches_the_per_instance_loop():
    case = FleetBenchCase(
        name="tiny_mixed", family="xor", n=12, size=7, m=40,
        k=mixed_k(7, 3), repeats=1,
    )
    record = run_case(case)
    assert record["equivalent"] and record["responses_identical"]
    assert record["params"]["k"] == "mixed 1/2/3"
