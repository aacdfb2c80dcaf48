"""Ledger aggregation: measured query counts vs the Table I predictions.

``python -m repro report runs/<run_id>`` reads a run directory written by
:class:`~repro.runtime.runner.TrialRunner` (via
:class:`~repro.telemetry.ledger.RunLedger`), sums the per-trial query
meters, and compares each workload's *measured* per-trial query count
against the *predicted* budget from :mod:`repro.pac.bounds` — the
empirical closing of the loop the paper asks for: a bound that is never
checked against what an attack actually spent is just a formula.

Each workload maps to one adversary setting:

===========  ======  ==================================================
workload     kind    bound checked (per trial)
===========  ======  ==================================================
``curve``    ex      ``general_vc_bound(n, k)`` — Table I row 2
``lmn``      ex      ``lmn_sample_size(n, degree)`` — the Corollary 1
                     algorithm's concrete Hoeffding+union sample size
``km``       mq      ``km_query_bound(...)`` — the poly(n, 1/theta)
                     membership-query budget (access-model row)
``sq``       sq      ``sq_chow_query_count(n)`` = n + 1, exactly
===========  ======  ==================================================

The report renders to markdown (``report.md``) and JSON (``report.json``)
inside the run directory; a measured count above its bound makes
:func:`generate_report` flag the run (non-zero CLI exit).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.telemetry.ledger import RunLedger

#: workload -> the query kind its bound is stated in.
WORKLOAD_KIND = {
    "curve": "ex",
    "lmn": "ex",
    "km": "mq",
    "sq": "sq",
    "active": "mq",
    "atlas": "ex",
}


@dataclasses.dataclass
class BoundCheck:
    """One measured-vs-predicted comparison for a run."""

    workload: str
    kind: str
    label: str
    measured_mean: float
    measured_max: float
    bound: float
    within: bool

    @property
    def ratio(self) -> float:
        """measured_max / bound (the headroom; > 1 means a violation)."""
        if not math.isfinite(self.bound) or self.bound <= 0:
            return 0.0
        return self.measured_max / self.bound

    def as_dict(self) -> Dict[str, object]:
        """The JSON form, with the derived ``ratio`` included."""
        record = dataclasses.asdict(self)
        record["ratio"] = self.ratio
        return record


def _kind_stats(records: List[dict], kind: str, field: str = "queries") -> Dict[str, float]:
    """Per-trial mean/max/total of one kind's counter across records."""
    values = []
    for record in records:
        telemetry = record.get("telemetry") or {}
        queries = (telemetry.get("queries") or {}).get("queries") or {}
        values.append(float((queries.get(kind) or {}).get(field, 0)))
    if not values:
        return {"mean": 0.0, "max": 0.0, "total": 0.0}
    return {
        "mean": float(np.mean(values)),
        "max": float(np.max(values)),
        "total": float(np.sum(values)),
    }


def _bound_checks(meta: dict, records: List[dict]) -> List[BoundCheck]:
    """The workload's measured-vs-bound comparisons (empty when unknown)."""
    from repro.pac import PACParameters
    from repro.pac.bounds import (
        general_vc_bound,
        km_query_bound,
        sq_chow_example_bound,
        sq_chow_query_count,
    )

    workload = meta.get("workload")
    spec = meta.get("spec") or {}
    params = PACParameters(
        eps=float(meta.get("eps", 0.05)), delta=float(meta.get("delta", 0.05))
    )
    checks: List[BoundCheck] = []

    def add(kind: str, label: str, bound: float, field: str = "queries") -> None:
        stats = _kind_stats(records, kind, field)
        checks.append(
            BoundCheck(
                workload=workload,
                kind=kind,
                label=label,
                measured_mean=stats["mean"],
                measured_max=stats["max"],
                bound=float(bound),
                within=stats["max"] <= bound,
            )
        )

    if workload == "curve":
        bound = general_vc_bound(int(spec["n"]), int(spec["k"]), params)
        add("ex", "Table I row 2: general VC bound (uniform examples)", bound)
    elif workload == "active":
        # The passive sample-complexity ceiling is the bar an adaptive
        # strategy must stay under to claim a query saving: both the
        # metered membership queries (adaptive strategies) and any EX
        # draws (the passive baseline strategy) are checked against it.
        bound = general_vc_bound(int(spec["n"]), int(spec["k"]), params)
        add(
            "mq",
            "Table I row 2 ceiling: adaptive MQ budget vs passive VC bound",
            bound,
        )
        add(
            "ex",
            "Table I row 2: general VC bound (passive baseline strategy)",
            bound,
        )
    elif workload == "lmn":
        from repro.learning.lmn import lmn_sample_size

        bound = lmn_sample_size(
            int(spec["n"]), int(spec["degree"]), params.eps, params.delta
        )
        add("ex", "Corollary 1: LMN concrete sample size (uniform examples)", bound)
    elif workload == "km":
        bound = km_query_bound(
            int(spec["n"]) + 1,
            float(spec["theta"]),
            int(spec["bucket_samples"]),
            int(spec["coefficient_samples"]),
        )
        add("mq", "KM membership-query budget, poly(n, 1/theta)", bound)
    elif workload == "atlas":
        # Every atlas cell spends at most its declared budget: m examples
        # for gradient cells, m x repetitions noisy measurements for
        # reliability cells.  The grid-wide ceiling is the largest budget
        # times the repetition count — a trial above it means a learner
        # queried outside its cell's declared spend.
        budgets = [int(b) for b in (spec.get("budgets") or [0])]
        ceiling = max(budgets) * int(spec.get("repetitions", 1) or 1)
        add(
            "ex",
            "atlas grid ceiling: per-trial EX <= max budget x repetitions",
            ceiling,
        )
    elif workload == "sq":
        n = int(spec["n"])
        add("sq", "SQ Chow: n + 1 correlational queries (exact)", sq_chow_query_count(n))
        if spec.get("mode", "sampling") == "sampling":
            add(
                "sq",
                "SQ Chow: sampling-oracle example cost (exact)",
                sq_chow_example_bound(n, float(spec["tau"])),
                field="examples",
            )
    return checks


def _reliability_stats(records: List[dict]) -> Dict[str, object]:
    """Failure/retry/resume accounting across trial records.

    ``attempts_total`` counts executions including retries; a run with no
    infrastructure trouble has ``attempts_total == trials`` and zeros
    everywhere else.
    """
    stats = {
        "trials": len(records),
        "ok": 0,
        "trial_errors": 0,
        "timeouts": 0,
        "infra_failures": 0,
        "retried_trials": 0,
        "attempts_total": 0,
    }
    error_samples: List[str] = []
    for record in records:
        attempts = int(record.get("attempts", 1))
        stats["attempts_total"] += attempts
        if attempts > 1:
            stats["retried_trials"] += 1
        error = record.get("error")
        if not error:
            stats["ok"] += 1
            continue
        category = error.get("category", "trial")
        if category == "timeout":
            stats["timeouts"] += 1
        elif category == "infra":
            stats["infra_failures"] += 1
        else:
            stats["trial_errors"] += 1
        if len(error_samples) < 5:
            error_samples.append(
                f"trial {record.get('index')}: {error.get('exc_type')} "
                f"({category}): {error.get('message', '')}"
            )
    stats["error_samples"] = error_samples
    return stats


def _timing_stats(records: List[dict]) -> Dict[str, float]:
    """Aggregate wall/CPU/queue-wait timings across trial records."""
    def col(name: str) -> List[float]:
        return [float(r.get(name, 0.0)) for r in records]

    seconds = col("seconds")
    return {
        "trials": len(records),
        "wall_mean_s": float(np.mean(seconds)) if seconds else 0.0,
        "wall_max_s": float(np.max(seconds)) if seconds else 0.0,
        "cpu_total_s": float(np.sum(col("cpu_seconds"))),
        "queue_wait_mean_s": float(np.mean(col("queue_wait"))) if records else 0.0,
    }


def _merge_spans(records: List[dict]) -> Dict[str, Dict[str, float]]:
    """Sum per-name span aggregates across all trial records."""
    merged: Dict[str, Dict[str, float]] = {}
    for record in records:
        spans = (record.get("telemetry") or {}).get("spans") or {}
        for name, agg in spans.items():
            out = merged.setdefault(name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0})
            out["count"] += agg.get("count", 0)
            out["wall_s"] += agg.get("wall_s", 0.0)
            out["cpu_s"] += agg.get("cpu_s", 0.0)
    return merged


def _merge_counters(records: List[dict]) -> Dict[str, int]:
    """Sum free-form counters (cache hits/misses, ...) across records."""
    merged: Dict[str, int] = {}
    for record in records:
        counters = ((record.get("telemetry") or {}).get("queries") or {}).get(
            "counters"
        ) or {}
        for name, amount in counters.items():
            merged[name] = merged.get(name, 0) + int(amount)
    return merged


def build_report(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Aggregate a run directory into the serialisable report payload.

    Uses the *latest* record per trial index: a resumed or retried run
    appends fresh records after the originals, and counting both would
    double-bill queries the adversary only spent once.
    """
    ledger = RunLedger.open_existing(run_dir)
    latest = ledger.read_latest()
    records = [latest[index] for index in sorted(latest)]
    meta = ledger.read_meta() or {}
    checks = _bound_checks(meta, records)

    query_stats = {
        kind: {
            "queries": _kind_stats(records, kind, "queries"),
            "examples": _kind_stats(records, kind, "examples"),
        }
        for kind in ("ex", "mq", "eq", "sq")
    }
    distinct = sum(
        int(((r.get("telemetry") or {}).get("queries") or {}).get("distinct_challenges", 0))
        for r in records
    )
    repeated = sum(
        int(((r.get("telemetry") or {}).get("queries") or {}).get("repeated_challenges", 0))
        for r in records
    )
    crp_bytes = sum(
        int(((r.get("telemetry") or {}).get("queries") or {}).get("crp_bytes", 0))
        for r in records
    )
    return {
        "run_id": ledger.run_id,
        "meta": meta,
        "trials": len(records),
        "bound_checks": [c.as_dict() for c in checks],
        "all_within_bounds": all(c.within for c in checks),
        "query_stats": query_stats,
        "distinct_challenges": distinct,
        "repeated_challenges": repeated,
        "crp_bytes": crp_bytes,
        "timings": _timing_stats(records),
        "reliability": _reliability_stats(records),
        "spans": _merge_spans(records),
        "counters": _merge_counters(records),
    }


def _fmt(value: float) -> str:
    """Compact numeric formatting for the markdown tables."""
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or (0 < abs(value) < 1e-3):
        return f"{value:.3g}"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:,.1f}"


def render_markdown(report: Dict[str, object]) -> str:
    """The human-readable face of :func:`build_report`."""
    meta = report.get("meta") or {}
    header = (
        f"workload `{meta.get('workload', '?')}`, {report['trials']} trials, "
        f"workers {meta.get('workers', '?')}, master seed {meta.get('master_seed', '?')}"
    )
    # PAC accuracy/confidence exist only for the learning-curve workloads;
    # atlas and fleet runs record neither.
    for field in ("eps", "delta"):
        if field in meta:
            header += f", {field} {meta[field]}"
    lines = [
        f"# Query-accounting report — `{report['run_id']}`",
        "",
        header,
        "",
        "## Measured queries vs. `pac.bounds` predictions (per trial)",
        "",
    ]
    checks = report.get("bound_checks") or []
    if checks:
        lines += [
            "| adversary setting | kind | measured mean | measured max | bound | measured/bound | within |",
            "|---|---|---:|---:|---:|---:|---|",
        ]
        for c in checks:
            lines.append(
                f"| {c['label']} | {c['kind'].upper()} | {_fmt(c['measured_mean'])} "
                f"| {_fmt(c['measured_max'])} | {_fmt(c['bound'])} "
                f"| {c['ratio']:.3g} | {'yes' if c['within'] else '**NO**'} |"
            )
        lines.append("")
        if report.get("all_within_bounds"):
            lines.append(
                "All measured query counts are within their predicted budgets."
            )
        else:
            lines.append(
                "**BOUND VIOLATION**: at least one measured count exceeds its "
                "predicted budget — the implementation spends more queries "
                "than the adversary model it claims to run under."
            )
    else:
        lines.append(
            f"_no bound mapping for workload `{meta.get('workload', '?')}`_"
        )
    lines += ["", "## Query totals (all trials)", ""]
    lines += [
        "| kind | queries | examples |",
        "|---|---:|---:|",
    ]
    for kind in ("ex", "mq", "eq", "sq"):
        stats = report["query_stats"][kind]
        lines.append(
            f"| {kind.upper()} | {_fmt(stats['queries']['total'])} "
            f"| {_fmt(stats['examples']['total'])} |"
        )
    lines += [
        "",
        f"distinct challenges {_fmt(report['distinct_challenges'])}, "
        f"repeated {_fmt(report['repeated_challenges'])}, "
        f"CRP payload {_fmt(report['crp_bytes'])} bytes",
        "",
        "## Timings",
        "",
    ]
    t = report["timings"]
    lines.append(
        f"per-trial wall mean {t['wall_mean_s']:.3f}s (max {t['wall_max_s']:.3f}s), "
        f"CPU total {t['cpu_total_s']:.2f}s, "
        f"queue wait mean {t['queue_wait_mean_s']:.3f}s"
    )
    rel = report.get("reliability")
    if rel:
        lines += ["", "## Reliability", ""]
        lines.append(
            f"{rel['ok']} of {rel['trials']} trials completed clean; "
            f"{rel['trial_errors']} trial error(s), "
            f"{rel['timeouts']} timeout(s), "
            f"{rel['infra_failures']} infrastructure failure(s); "
            f"{rel['retried_trials']} trial(s) retried "
            f"({rel['attempts_total']} execution attempts total)"
        )
        for sample in rel.get("error_samples", []):
            lines.append(f"* `{sample}`")
    spans = report.get("spans") or {}
    if spans:
        lines += ["", "## Spans (summed over trials)", "",
                  "| span | count | wall [s] | cpu [s] |", "|---|---:|---:|---:|"]
        for name in sorted(spans, key=lambda n: -spans[n]["wall_s"]):
            agg = spans[name]
            lines.append(
                f"| {name} | {agg['count']} | {agg['wall_s']:.3f} | {agg['cpu_s']:.3f} |"
            )
    counters = report.get("counters") or {}
    if counters:
        lines += ["", "## Counters", ""]
        for name in sorted(counters):
            lines.append(f"* `{name}` = {counters[name]}")
    return "\n".join(lines) + "\n"


def generate_report(
    run_dir: Union[str, Path], write: bool = True
) -> "tuple[Dict[str, object], str]":
    """Build, render, and (optionally) persist a run's report.

    Writes ``report.json`` and ``report.md`` next to the ledger when
    ``write`` is true.  Returns ``(payload, markdown)``; callers should
    treat ``payload["all_within_bounds"] == False`` as a failure.
    """
    run_dir = Path(run_dir)
    payload = build_report(run_dir)
    markdown = render_markdown(payload)
    if write:
        (run_dir / "report.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
        )
        (run_dir / "report.md").write_text(markdown)
    return payload, markdown
