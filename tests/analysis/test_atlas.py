"""Unit tests for the security-boundary atlas engine (ISSUE 10)."""

import json

import numpy as np
import pytest

from repro.analysis.atlas import (
    AtlasTrialSpec,
    atlas_trial,
    bench_cases,
    expand_grid,
    reduce_atlas,
    render_markdown,
    run_atlas,
    smoke_spec,
)
from repro.runtime.runner import TrialRunner
from repro.telemetry.ledger import RunLedger

TINY = AtlasTrialSpec(
    families=("xor",),
    learners=("lr",),
    representations=("parity",),
    ns=(16,),
    ks=(1, 2),
    noise_sigmas=(0.0, 0.3),
    budgets=(40, 100),
    test_size=300,
    lr_restarts=2,
    lr_max_iter=60,
)


class TestSpec:
    def test_axes_are_canonicalised(self):
        spec = AtlasTrialSpec(
            families=("cdc_xor", "xor"),
            ks=(3, 1, 1),
            budgets=(400, 150, 150),
        )
        assert spec.families == ("xor", "cdc_xor")
        assert spec.ks == (1, 3)
        assert spec.budgets == (150, 400)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown learner"):
            AtlasTrialSpec(learners=("svm",))
        with pytest.raises(ValueError, match="unknown representation"):
            AtlasTrialSpec(representations=("fourier",))
        with pytest.raises(ValueError, match="n >= 4"):
            AtlasTrialSpec(ns=(2,))
        with pytest.raises(ValueError, match="m >= 10"):
            AtlasTrialSpec(budgets=(5,))
        with pytest.raises(ValueError, match="empty"):
            expand_grid(
                AtlasTrialSpec(learners=("reliability",), noise_sigmas=(0.0,))
            )

    def test_smoke_spec_covers_all_three_scenario_families(self):
        spec = smoke_spec()
        cells = expand_grid(spec)
        assert len(cells) >= 100
        assert {c.family for c in cells} == {"xor", "cdc_xor"}
        assert {c.learner for c in cells} == {"lr", "mlp", "reliability"}
        assert {c.representation for c in cells} == {"parity", "raw"}


class TestTrial:
    def _run(self, spec, trials=None, **kwargs):
        return TrialRunner(workers=1).run(
            atlas_trial,
            trials if trials is not None else len(expand_grid(spec)),
            7,
            {"spec": spec, **kwargs},
        )

    def test_trial_value_shape_and_range(self):
        report = self._run(TINY, trials=2)
        for result in report.results:
            assert result.ok, result.error
            acc, queries = result.value
            assert 0.0 <= acc <= 1.0
            assert queries in (40.0, 100.0)

    def test_trials_are_deterministic_given_seed_and_index(self):
        a = self._run(TINY, trials=3)
        b = self._run(TINY, trials=3)
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.value, rb.value)

    def test_artifact_cache_does_not_change_values(self, tmp_path):
        plain = self._run(TINY, trials=2)
        cached = self._run(TINY, trials=2, cache_dir=str(tmp_path / "crp"))
        warm = self._run(TINY, trials=2, cache_dir=str(tmp_path / "crp"))
        for a, b, c in zip(plain.results, cached.results, warm.results):
            assert np.array_equal(a.value, b.value)
            assert np.array_equal(a.value, c.value)


class TestReduce:
    def test_frontier_is_smallest_breaking_budget(self):
        values = {0: [0.6, 40.0], 1: [0.9, 100.0], 2: [0.5, 40.0], 3: [0.55, 100.0]}
        spec = AtlasTrialSpec(
            families=("xor",), learners=("lr",), ns=(16,), ks=(1, 2),
            noise_sigmas=(0.0,), budgets=(40, 100),
        )
        payload = reduce_atlas(spec, values, frontier=0.75)
        (map_,) = payload["maps"]
        assert map_["frontier"] == {"1": 100, "2": None}
        assert map_["broken_cells"] == 1

    def test_rejects_silly_frontier(self):
        with pytest.raises(ValueError, match="frontier"):
            reduce_atlas(TINY, {}, frontier=0.4)

    def test_markdown_and_bench_cases_render(self):
        values = {i: [0.5 + 0.1 * i, 40.0] for i in range(4)}
        payload = reduce_atlas(TINY, values)
        text = render_markdown(payload)
        assert "# Security-boundary atlas" in text
        assert payload["digest"] in text
        cases = bench_cases(payload)
        assert len(cases) == len(payload["maps"])
        assert all("max_mean_accuracy" in case for case in cases)
        json.dumps(payload)  # the whole payload must be JSON-plain


class TestRunAtlas:
    def test_end_to_end_and_resume_bit_identity(self, tmp_path):
        clean, _ = run_atlas(TINY, master_seed=3)
        assert clean["missing_trials"] == 0

        ledger = RunLedger(tmp_path / "run")
        first, _ = run_atlas(TINY, master_seed=3, ledger=ledger)
        assert first["digest"] == clean["digest"]
        resumed, report = run_atlas(
            TINY, master_seed=3, ledger=ledger, resume=True
        )
        assert "replayed" in report.summary()
        assert resumed["digest"] == clean["digest"]

    def test_pool_does_not_change_the_digest(self):
        serial, _ = run_atlas(TINY, master_seed=5)
        pooled, _ = run_atlas(TINY, master_seed=5, workers=2)
        assert pooled["digest"] == serial["digest"]


class TestServiceRegistration:
    def test_atlas_is_a_servable_workload(self):
        from repro.service.jobs import WORKLOADS, build_workload

        assert "atlas" in WORKLOADS
        trial_fn, spec = build_workload(
            "atlas",
            {"families": ["xor"], "learners": ["lr"], "ns": [16],
             "ks": [1], "noise_sigmas": [0.0], "budgets": [50]},
        )
        assert trial_fn is atlas_trial
        assert spec.families == ("xor",)
        assert spec.budgets == (50,)
