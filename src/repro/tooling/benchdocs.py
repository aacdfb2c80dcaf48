"""Render ``docs/BENCHMARKS.md`` from the committed benchmark baselines.

The machine-readable baselines under ``benchmarks/results/BENCH_*.json``
are the source of truth; the markdown page is *generated* from them by
``python -m repro docs-bench`` and committed alongside.  CI re-renders
the page and fails on any diff (``--check``), so the docs can never
silently drift from the numbers they claim to describe.

Rendering is deterministic: files and keys are sorted, floats use fixed
formats, and nothing environment-dependent (timestamps, hostnames) is
emitted — the same JSON always produces byte-identical markdown.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

HEADER = """\
# Benchmarks

**Generated file — do not edit.**  This page is rendered from the
machine-readable baselines in `benchmarks/results/BENCH_*.json` by
`python -m repro docs-bench`; CI regenerates it and fails on drift.
To refresh after changing a kernel, rerun the producing command noted in
each section and then `python -m repro docs-bench`.
"""


def _fmt(value: object) -> str:
    """Deterministic cell formatting (fixed float precision)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.001 or abs(value) >= 1e6:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def _flatten(record: Dict[str, object], prefix: str = "") -> Dict[str, object]:
    """One level of dotted flattening: {'fit': {'speedup': 2}} -> 'fit.speedup'."""
    flat: Dict[str, object] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            for sub, subvalue in value.items():
                if not isinstance(subvalue, (dict, list)):
                    flat[f"{name}.{sub}"] = subvalue
        elif not isinstance(value, list):
            flat[name] = value
    return flat


def case_table(cases: List[Dict[str, object]]) -> List[str]:
    """A markdown table over the union of the cases' flattened scalar keys.

    ``python -m repro bench`` prints its run through this table too, so
    a suite's terminal output and its ``docs/BENCHMARKS.md`` section
    have the same columns.
    """
    flats = [_flatten(case) for case in cases]
    columns: List[str] = []
    for flat in flats:
        for key in flat:
            if key not in columns:
                columns.append(key)
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for flat in flats:
        lines.append(
            "| " + " | ".join(_fmt(flat.get(c, "")) for c in columns) + " |"
        )
    return lines


def _render_payload(name: str, payload: Dict[str, object]) -> List[str]:
    lines = [f"## `{name}`", ""]
    producer = payload.get("generated_by")
    if producer:
        lines += [f"Producer: `{producer}`", ""]
    scalars = {
        k: v
        for k, v in payload.items()
        if k not in ("cases", "generated_by") and not isinstance(v, (dict, list))
    }
    for key in sorted(scalars):
        lines.append(f"* `{key}` = {_fmt(scalars[key])}")
    if scalars:
        lines.append("")
    cases = payload.get("cases")
    if isinstance(cases, list) and cases and isinstance(cases[0], dict):
        lines += case_table(cases)
    elif isinstance(payload.get("results"), dict):
        results = payload["results"]
        lines += ["| metric | value |", "|---|---|"]
        for key in sorted(results):
            lines.append(f"| {key} | {_fmt(results[key])} |")
    lines.append("")
    return lines


def render_benchmarks_markdown(results_dir: Union[str, Path]) -> str:
    """The full BENCHMARKS.md content for every ``BENCH_*.json`` baseline."""
    results_dir = Path(results_dir)
    baselines = sorted(results_dir.glob("BENCH_*.json"))
    lines = [HEADER]
    if not baselines:
        lines.append("_No `BENCH_*.json` baselines found._\n")
    for path in baselines:
        payload = json.loads(path.read_text())
        lines += _render_payload(path.name, payload)
    return "\n".join(lines).rstrip() + "\n"
