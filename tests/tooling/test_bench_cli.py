"""``python -m repro bench <suite>``: the equivalence check, each suite's
gate and the payload writer, with ``run_case`` replaced by a fake so that
nothing is timed."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.tooling.bench import SUITES, load_suite
from repro.tooling.benchdocs import render_benchmarks_markdown

TIMED_SUITES = ["fleet", "kernels", "store"]
RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _timing_key(suite, case):
    """Where a real record of ``case`` keeps its old/new timing."""
    if suite == "kernels":
        return "transform" if case.kind == "fwht" else "fit"
    if suite == "store":
        return "pooling" if hasattr(case, "workers") else "warm_start"
    return "eval"


def fake_suite(monkeypatch, suite, *, equivalent=True, speedup=2.0, beats=True):
    """Make ``suite``'s ``run_case`` return a record without running it."""

    def run_case(case):
        record = {"name": case.name, "equivalent": equivalent}
        if suite == "active":
            record["atlas"] = {"adaptive_beats_passive": beats}
        else:
            record[_timing_key(suite, case)] = {
                "old_s": 0.2,
                "new_s": 0.2 / speedup,
                "speedup": speedup,
            }
        return record

    monkeypatch.setattr(load_suite(suite), "run_case", run_case)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_passing_run_prints_the_case_table(monkeypatch, capsys, suite):
    fake_suite(monkeypatch, suite)
    assert main(["bench", suite, "--smoke"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| name |")
    assert "FAIL:" not in out


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_record_not_equivalent_fails(monkeypatch, capsys, suite, smoke):
    fake_suite(monkeypatch, suite, equivalent=False)
    assert main(["bench", suite] + (["--smoke"] if smoke else [])) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(
        line.startswith("FAIL:") and "not equivalent" in line for line in lines
    )


@pytest.mark.parametrize("suite", TIMED_SUITES)
def test_speedup_below_one_fails_under_smoke_only(monkeypatch, capsys, suite):
    fake_suite(monkeypatch, suite, speedup=0.5)
    assert main(["bench", suite]) == 0
    assert "FAIL:" not in capsys.readouterr().out

    assert main(["bench", suite, "--smoke"]) == 1
    failures = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL:")
    ]
    # Every smoke case is too slow, whichever timing block it carries.
    assert len(failures) == len(load_suite(suite).smoke_cases())
    assert all("(0.50x)" in line for line in failures)


@pytest.mark.parametrize("smoke", [False, True])
def test_active_without_an_adaptive_cell_fails(monkeypatch, capsys, smoke):
    fake_suite(monkeypatch, "active", beats=False)
    assert main(["bench", "active"] + (["--smoke"] if smoke else [])) == 1
    out = capsys.readouterr().out
    assert "FAIL: no atlas cell shows an adaptive strategy" in out


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_out_writes_a_payload_docs_bench_renders(
    monkeypatch, capsys, tmp_path, suite, smoke
):
    fake_suite(monkeypatch, suite)
    out = tmp_path / "results" / f"BENCH_{suite}.json"
    flags = ["--smoke"] if smoke else []
    assert main(["bench", suite, *flags, "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out

    payload = json.loads(out.read_text())
    producer = " ".join(["python -m repro bench", suite, *flags])
    assert payload["generated_by"] == producer
    assert {"numpy", "backend", "nproc"} <= set(payload)
    assert payload["nproc"] >= 1
    module = load_suite(suite)
    cases = module.smoke_cases() if smoke else module.default_cases()
    assert [rec["name"] for rec in payload["cases"]] == [c.name for c in cases]
    page = render_benchmarks_markdown(out.parent)
    assert f"Producer: `{producer}`" in page


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_committed_payload_is_a_full_run_that_names_its_host(suite):
    """Each committed ``BENCH_<suite>.json`` is a full run of the suite's
    current matrix and records where it ran: numpy, backend and CPUs."""
    payload = json.loads((RESULTS / f"BENCH_{suite}.json").read_text())
    assert payload["generated_by"] == f"python -m repro bench {suite}"
    assert payload["numpy"] and payload["backend"] == "numpy"
    assert isinstance(payload["nproc"], int) and payload["nproc"] >= 1
    names = [case.name for case in load_suite(suite).default_cases()]
    assert [rec["name"] for rec in payload["cases"]] == names
    assert all(rec["equivalent"] for rec in payload["cases"])


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
