"""The security-boundary atlas: a declarative sweep over adversary models.

An *atlas* expands a declarative grid spec — axes over PUF family,
learner, challenge representation, n, k, noise sigma, and sample budget
m — into one flat sequence of
:class:`~repro.runtime.runner.TrialRunner` trials (cell-major, replicate
minor), runs them with the standard crash-safe ledger / ``--resume`` /
process-pool / ``ArtifactStore`` warm-start machinery, and reduces the
per-trial accuracies into per-cell **boundary maps**: for every
(family, learner, representation, n, sigma) slice, a (k x m) grid of
mean held-out accuracy plus the *accuracy frontier* — the smallest
budget at which the attack crosses the break threshold for each k.

Three scenario families feed the grid:

* ``lr`` / ``mlp`` — the gradient-trained learners, fitted directly:
  :class:`~repro.learning.logistic.LogisticAttack` at k = 1, the
  product-of-margins :class:`~repro.learning.xor_logistic.XorLogisticAttack`
  at k >= 2, and the one-hidden-layer
  :class:`~repro.learning.mlp.MLPAttack`, swept over parity vs raw
  challenge representations (the representation is the learner's
  ``feature_map``: ``parity_transform`` or none);
* ``reliability`` — the CMA-style multi-measurement reliability
  side channel of
  :class:`~repro.learning.reliability_attack.CMAReliabilityAttack`;
* PUF families ``xor`` (plain k-XOR arbiter) and ``cdc_xor``
  (component-differentially-challenged, :mod:`repro.pufs.cdc_xor`).

Everything reduces deterministically: trial values are pure functions of
``(master_seed, index)``, cells are enumerated in one canonical axis
order regardless of how the spec listed its axes, and the boundary-map
payload carries a sha256 digest — a killed-and-resumed sweep proves
bit-identity with a clean run by a single string compare (the same
contract the service layer uses for jobs).

The grid spec :class:`AtlasTrialSpec`, the cell trial :func:`atlas_trial`
and :func:`smoke_spec` live in :mod:`repro.analysis.atlas_spec`, so the
workload registry can list the atlas without importing this module;
they are re-exported here.  See docs/ATLAS.md for the operator's view.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.atlas_spec import AtlasTrialSpec, atlas_trial, smoke_spec
from repro.runtime.runner import TrialRunner

#: The accuracy at which a cell counts as broken (the frontier default).
DEFAULT_FRONTIER = 0.75

#: Ridge penalty of the ``lr`` cells' fits (both LR learners).
LR_L2 = 1e-5
#: Minibatch size of the ``mlp`` cells' Adam fits.
MLP_BATCH_SIZE = 64


@dataclasses.dataclass(frozen=True)
class AtlasCell:
    """One grid cell: a (family, learner, representation, n, k, sigma, m)."""

    family: str
    learner: str
    representation: str
    n: int
    k: int
    noise_sigma: float
    m: int

    def key(self) -> Dict[str, object]:
        """The cell coordinates as a JSON-plain dict (digest material)."""
        return dataclasses.asdict(self)

    def digest(self) -> str:
        """A short content digest of the cell coordinates."""
        material = json.dumps(self.key(), sort_keys=True)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@functools.lru_cache(maxsize=32)
def expand_grid(spec: AtlasTrialSpec) -> Tuple[AtlasCell, ...]:
    """Every feasible cell of ``spec``, in canonical enumeration order.

    Feasibility filters (both are physics, not policy): the reliability
    side channel needs a noisy device, so ``reliability`` cells skip
    ``noise_sigma == 0``; and the reliability attack correlates against
    parity-space margins by construction, so its representation axis is
    pinned to ``"parity"`` (one cell, never a duplicate per listed
    representation).
    """
    cells: List[AtlasCell] = []
    for family in spec.families:
        for learner in spec.learners:
            reps = (
                ("parity",)
                if learner == "reliability"
                else spec.representations
            )
            for representation in reps:
                for n in spec.ns:
                    for k in spec.ks:
                        for sigma in spec.noise_sigmas:
                            if learner == "reliability" and sigma <= 0:
                                continue
                            for m in spec.budgets:
                                cells.append(
                                    AtlasCell(
                                        family,
                                        learner,
                                        representation,
                                        n,
                                        k,
                                        sigma,
                                        m,
                                    )
                                )
    if not cells:
        raise ValueError(
            "the grid is empty — a reliability-only atlas needs at least "
            "one noise_sigma > 0"
        )
    return tuple(cells)


def num_trials(spec: AtlasTrialSpec) -> int:
    """The trial count an atlas run must schedule: cells x replicates."""
    return len(expand_grid(spec)) * spec.replicates


def cell_of_trial(spec: AtlasTrialSpec, index: int) -> Tuple[AtlasCell, int]:
    """Map a flat trial index to ``(cell, replicate)`` (cell-major)."""
    cells = expand_grid(spec)
    total = len(cells) * spec.replicates
    if not 0 <= index < total:
        raise ValueError(
            f"trial index {index} outside the grid ({total} trials: "
            f"{len(cells)} cells x {spec.replicates} replicates)"
        )
    return cells[index // spec.replicates], index % spec.replicates


def _build_puf(cell: AtlasCell, rng: np.random.Generator):
    """Instantiate the cell's device family."""
    from repro.pufs.cdc_xor import CDCXORArbiterPUF
    from repro.pufs.xor_arbiter import XORArbiterPUF

    if cell.family == "cdc_xor":
        return CDCXORArbiterPUF(
            cell.n, cell.k, rng, noise_sigma=cell.noise_sigma
        )
    return XORArbiterPUF(cell.n, cell.k, rng, noise_sigma=cell.noise_sigma)


# ----------------------------------------------------------------------
# Reduction: ledger values -> boundary maps
# ----------------------------------------------------------------------
def check_frontier(frontier: float) -> None:
    """Raise ``ValueError`` unless ``0.5 < frontier <= 1``: a frontier at
    or below chance would count an unlearned cell as broken."""
    if not 0.5 < frontier <= 1.0:
        raise ValueError(f"frontier must be in (0.5, 1], got {frontier!r}")


def reduce_atlas(
    spec: AtlasTrialSpec,
    values: Dict[int, Sequence[float]],
    frontier: float = DEFAULT_FRONTIER,
) -> Dict[str, object]:
    """Reduce per-trial values into the boundary-map payload.

    ``values`` maps trial index -> the trial's ``[accuracy, queries]``
    (missing indices — failed or not-yet-run trials — leave their cell
    with fewer replicates and are counted in ``missing_trials``).  The
    reduction is a pure function of the *set* of (index, value) pairs:
    arrival order never matters, so a pooled, killed-and-resumed run
    reduces to the same ``digest`` as a serial one.
    """
    check_frontier(frontier)
    cells = expand_grid(spec)
    cell_rows: List[Dict[str, object]] = []
    mean_by_cell: Dict[Tuple, Optional[float]] = {}
    missing = 0
    for ci, cell in enumerate(cells):
        accs: List[float] = []
        qs: List[float] = []
        for rep in range(spec.replicates):
            value = values.get(ci * spec.replicates + rep)
            if value is None:
                missing += 1
                continue
            accs.append(float(value[0]))
            qs.append(float(value[1]))
        mean = sum(accs) / len(accs) if accs else None
        mean_by_cell[
            (cell.family, cell.learner, cell.representation, cell.n,
             cell.noise_sigma, cell.k, cell.m)
        ] = mean
        row = dict(cell.key())
        row.update(
            {
                "digest": cell.digest(),
                "replicates": len(accs),
                "mean_accuracy": mean,
                "min_accuracy": min(accs) if accs else None,
                "max_accuracy": max(accs) if accs else None,
                "mean_queries": sum(qs) / len(qs) if qs else None,
                "broken": bool(mean is not None and mean >= frontier),
            }
        )
        cell_rows.append(row)

    maps: List[Dict[str, object]] = []
    seen_slices = []
    for cell in cells:
        slice_key = (
            cell.family,
            cell.learner,
            cell.representation,
            cell.n,
            cell.noise_sigma,
        )
        if slice_key in seen_slices:
            continue
        seen_slices.append(slice_key)
        family, learner, representation, n, sigma = slice_key
        ks = [
            k
            for k in spec.ks
            if any(
                (family, learner, representation, n, sigma, k, m) in mean_by_cell
                for m in spec.budgets
            )
        ]
        grid = [
            [
                mean_by_cell.get(
                    (family, learner, representation, n, sigma, k, m)
                )
                for m in spec.budgets
            ]
            for k in ks
        ]
        frontier_m: Dict[str, Optional[int]] = {}
        broken_cells = 0
        for k, row in zip(ks, grid):
            crossing = None
            for m, acc in zip(spec.budgets, row):
                if acc is not None and acc >= frontier:
                    broken_cells += 1
                    if crossing is None:
                        crossing = m
            frontier_m[str(k)] = crossing
        maps.append(
            {
                "family": family,
                "learner": learner,
                "representation": representation,
                "n": n,
                "noise_sigma": sigma,
                "ks": list(ks),
                "budgets": list(spec.budgets),
                "accuracy": grid,
                "frontier": frontier_m,
                "broken_cells": broken_cells,
            }
        )

    body = {"cells": cell_rows, "maps": maps}
    digest = (
        "sha256:"
        + hashlib.sha256(
            json.dumps(body, sort_keys=True).encode("utf-8")
        ).hexdigest()
    )
    return {
        "workload": "atlas",
        "frontier_accuracy": frontier,
        "num_cells": len(cells),
        "num_trials": len(cells) * spec.replicates,
        "missing_trials": missing,
        "cells": cell_rows,
        "maps": maps,
        "digest": digest,
    }


def render_markdown(payload: Dict[str, object]) -> str:
    """Boundary maps as markdown heatmap tables (one per grid slice).

    Accuracy cells at or above the frontier threshold are bolded — the
    broken region; the frontier line below each table names the smallest
    breaking budget per k (or reports the slice held within budget).
    """
    lines = [
        "# Security-boundary atlas",
        "",
        f"{payload['num_cells']} cells, frontier accuracy "
        f"{payload['frontier_accuracy']:g} "
        f"(**bold** = broken), digest `{payload['digest']}`.",
        "",
    ]
    for map_ in payload["maps"]:
        lines.append(
            f"## {map_['family']} / {map_['learner']} / "
            f"{map_['representation']} — n={map_['n']}, "
            f"sigma={map_['noise_sigma']:g}"
        )
        lines.append("")
        header = "| k \\ m | " + " | ".join(str(m) for m in map_["budgets"]) + " |"
        lines.append(header)
        lines.append("|" + "---|" * (len(map_["budgets"]) + 1))
        for k, row in zip(map_["ks"], map_["accuracy"]):
            cells = []
            for acc in row:
                if acc is None:
                    cells.append("—")
                elif acc >= payload["frontier_accuracy"]:
                    cells.append(f"**{acc:.3f}**")
                else:
                    cells.append(f"{acc:.3f}")
            lines.append(f"| {k} | " + " | ".join(cells) + " |")
        lines.append("")
        frontier_bits = []
        for k in map_["ks"]:
            crossing = map_["frontier"][str(k)]
            if crossing is None:
                frontier_bits.append(f"k={k}: holds within budget")
            else:
                frontier_bits.append(f"k={k}: broken at m={crossing}")
        lines.append("Frontier: " + "; ".join(frontier_bits) + ".")
        lines.append("")
    return "\n".join(lines)


def bench_cases(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """One flat bench case per boundary-map slice (BENCH_atlas.json)."""
    cases = []
    for map_ in payload["maps"]:
        accs = [a for row in map_["accuracy"] for a in row if a is not None]
        cases.append(
            {
                "family": map_["family"],
                "learner": map_["learner"],
                "representation": map_["representation"],
                "n": map_["n"],
                "noise_sigma": map_["noise_sigma"],
                "cells": sum(len(row) for row in map_["accuracy"]),
                "max_mean_accuracy": round(max(accs), 4) if accs else None,
                "broken_cells": map_["broken_cells"],
            }
        )
    return cases


# ----------------------------------------------------------------------
# The end-to-end engine
# ----------------------------------------------------------------------
def run_atlas(
    spec: AtlasTrialSpec,
    master_seed: int = 0,
    workers: int = 1,
    ledger=None,
    resume: bool = False,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    frontier: float = DEFAULT_FRONTIER,
    retry=None,
):
    """Run the full grid and reduce it; returns ``(payload, report)``.

    ``ledger`` is an optional :class:`~repro.telemetry.ledger.RunLedger`;
    with ``resume=True`` completed trials replay from it bit-identically
    and only the missing indices execute (exactly the ``repro trials``
    semantics — the atlas is one ordinary ``TrialRunner`` run).
    """
    trials = num_trials(spec)
    kwargs: Dict[str, object] = {"spec": spec}
    if cache_dir is not None:
        kwargs["cache_dir"] = cache_dir
        kwargs["cache_max_bytes"] = cache_max_bytes
    report = TrialRunner(workers=workers).run(
        atlas_trial,
        trials,
        master_seed,
        kwargs,
        ledger=ledger,
        resume_from=ledger if resume else None,
        retry=retry,
    )
    values = {r.index: r.value for r in report.results if r.ok}
    payload = reduce_atlas(spec, values, frontier=frontier)
    return payload, report
