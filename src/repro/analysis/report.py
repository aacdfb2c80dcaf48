"""Aggregate benchmark result files into one experiment report.

The benchmark harness drops every reproduced table into
``benchmarks/results/*.txt``; :func:`aggregate_results` stitches them into
a single markdown report (used to refresh the summary that EXPERIMENTS.md
quotes).  Usable programmatically or via::

    python -m repro.analysis.report benchmarks/results REPORT.md
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional, Union

from repro.persist import write_atomic

#: Preferred section order; anything unlisted is appended alphabetically.
SECTION_ORDER = [
    "table1_bounds",
    "table2_chow_brpuf",
    "table3_halfspace",
    "table3_control_ltf",
    "lmn_xorpuf",
    "membership_queries",
    "sat_appsat",
    "sarlock_resilience",
    "locking_scheme_comparison",
    "lstar_fsm",
    "sequential_unrolling",
    "brpuf_ltf_cap",
    "lockdown_protocol",
    "distribution_pitfall",
    "learning_curves",
    "ac0_bounds",
    "interpose_splitting",
    "reliability_side_channel",
    "ablation_brpuf",
    "ablation_lmn_degree",
    "ablation_eq_simulation",
]


def aggregate_results(
    results_dir: Union[str, Path],
    title: str = "Benchmark results",
) -> str:
    """Concatenate all result files into one markdown document."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"no results directory at {results_dir}")
    files = {p.stem: p for p in sorted(results_dir.glob("*.txt"))}
    if not files:
        raise FileNotFoundError(f"no result files in {results_dir}")
    ordered: List[str] = [s for s in SECTION_ORDER if s in files]
    ordered.extend(s for s in sorted(files) if s not in SECTION_ORDER)

    parts = [f"# {title}", ""]
    for stem in ordered:
        parts.append(f"## {stem}")
        parts.append("")
        parts.append("```")
        parts.append(files[stem].read_text().rstrip())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def write_report(
    results_dir: Union[str, Path],
    output_path: Union[str, Path],
    title: str = "Benchmark results",
) -> Path:
    """Write the aggregated report; returns the output path."""
    output_path = Path(output_path)
    write_atomic(output_path, aggregate_results(results_dir, title) + "\n")
    return output_path


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m repro.analysis.report <results_dir> <output.md>")
        return 2
    path = write_report(argv[0], argv[1])
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
