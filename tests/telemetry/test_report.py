"""The report closes the loop: measured meters vs pac.bounds predictions."""

import dataclasses

import pytest

from repro.runtime import TrialRunner
from repro.runtime.workloads import (
    FleetEvalSpec,
    LearningCurveSpec,
    SQTrialSpec,
    fleet_eval_trial,
    learning_curve_trial,
    sq_trial,
)
from repro.telemetry import RunLedger
from repro.telemetry.report import build_report, generate_report, render_markdown


def run_workload(tmp_path, name, trial_fn, spec, trials=2, **meta_extra):
    ledger = RunLedger(tmp_path / f"{name}-run")
    meta = {
        "workload": name,
        "spec": dataclasses.asdict(spec),
        "trials": trials,
        "workers": 1,
        "master_seed": 0,
        "eps": 0.05,
        "delta": 0.05,
    }
    meta.update(meta_extra)
    ledger.write_meta(meta)
    TrialRunner(workers=1).run(
        trial_fn, trials, master_seed=0, trial_kwargs={"spec": spec}, ledger=ledger
    )
    return ledger


def test_curve_within_vc_bound(tmp_path):
    spec = LearningCurveSpec(n=16, budgets=(30, 60), test_size=50)
    ledger = run_workload(tmp_path, "curve", learning_curve_trial, spec)
    report = build_report(ledger.run_dir)
    (check,) = report["bound_checks"]
    assert check["kind"] == "ex"
    assert check["measured_max"] == 60  # the largest budget, exactly
    assert check["within"] and report["all_within_bounds"]
    assert 0 < check["ratio"] < 1


def test_sq_lands_exactly_on_both_bounds(tmp_path):
    spec = SQTrialSpec(n=8, tau=0.2, mode="sampling", test_size=50)
    ledger = run_workload(tmp_path, "sq", sq_trial, spec)
    report = build_report(ledger.run_dir)
    by_label = {c["label"]: c for c in report["bound_checks"]}
    queries = next(c for c in by_label.values() if "n + 1" in c["label"])
    assert queries["measured_max"] == queries["bound"] == 9
    assert queries["ratio"] == pytest.approx(1.0)
    assert report["all_within_bounds"]


def test_fleet_run_splits_build_eval_and_measure_spans(tmp_path):
    spec = FleetEvalSpec(family="xor", n=16, size=6, k=3, m=64, repetitions=3)
    ledger = run_workload(tmp_path, "fleet", fleet_eval_trial, spec)
    spans = build_report(ledger.run_dir)["spans"]
    for name in ("fleet.build", "fleet.eval", "fleet.measure"):
        assert spans[name]["count"] == 2
    assert "| fleet.eval |" in render_markdown(build_report(ledger.run_dir))


def test_violation_detected_and_rendered(tmp_path):
    """A meter spending past its bound must flag the run, not pass quietly."""
    ledger = RunLedger(tmp_path / "bad-run")
    ledger.write_meta(
        {"workload": "sq", "spec": {"n": 4, "tau": 0.5, "mode": "adversarial"}}
    )
    ledger.append(
        {
            "index": 0,
            "seconds": 0.1,
            "telemetry": {
                "queries": {
                    "queries": {"sq": {"queries": 99, "examples": 0}},
                },
                "spans": {},
            },
        }
    )
    payload, markdown = generate_report(ledger.run_dir)
    assert not payload["all_within_bounds"]
    assert "BOUND VIOLATION" in markdown
    assert (ledger.run_dir / "report.json").exists()
    assert (ledger.run_dir / "report.md").exists()


def test_markdown_mentions_spans_and_counters(tmp_path):
    spec = LearningCurveSpec(n=16, budgets=(30,), test_size=50)
    ledger = run_workload(tmp_path, "curve", learning_curve_trial, spec)
    report = build_report(ledger.run_dir)
    markdown = render_markdown(report)
    assert "logistic.fit" in markdown
    assert "Measured queries" in markdown
    assert report["spans"]["logistic.fit"]["count"] == 2  # 2 trials x 1 budget


def test_cli_report_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    spec = SQTrialSpec(n=8, tau=0.2, mode="sampling", test_size=50)
    ledger = run_workload(tmp_path, "sq", sq_trial, spec)
    assert main(["report", str(ledger.run_dir), "--no-write"]) == 0
    out = capsys.readouterr().out
    assert "within their predicted budgets" in out


def _fake_run(tmp_path, meta):
    ledger = RunLedger(tmp_path / "run")
    ledger.write_meta(meta)
    ledger.append({"index": 0, "seconds": 0.1, "telemetry": {"spans": {}}})
    return ledger


def test_header_omits_pac_params_absent_from_meta(tmp_path):
    """Atlas and fleet runs record no eps/delta; the header must not invent them."""
    ledger = _fake_run(
        tmp_path, {"workload": "atlas", "workers": 2, "master_seed": 7}
    )
    markdown = render_markdown(build_report(ledger.run_dir))
    header = markdown.splitlines()[2]
    assert header == "workload `atlas`, 1 trials, workers 2, master seed 7"
    assert "eps" not in markdown.split("##")[0]
    assert "?" not in header


def test_header_renders_pac_params_present_in_meta(tmp_path):
    ledger = _fake_run(
        tmp_path,
        {
            "workload": "toy",
            "workers": 1,
            "master_seed": 0,
            "eps": 0.1,
            "delta": 0.02,
        },
    )
    header = render_markdown(build_report(ledger.run_dir)).splitlines()[2]
    assert header.endswith("master seed 0, eps 0.1, delta 0.02")
