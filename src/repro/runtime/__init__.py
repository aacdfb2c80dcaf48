"""Parallel experiment runtime: deterministic trial fan-out and on-disk
artifact memoisation.

The pieces compose into the standard experiment loop:

* :mod:`repro.runtime.seeding` — ``SeedSequence``-based fan-out so trial
  ``i`` owns a stream independent of worker count and scheduling order;
* :mod:`repro.runtime.runner` — :class:`TrialRunner`, the executor for
  independent trials: per-trial timing, structured :class:`TrialError`
  capture, infrastructure-only retries (:class:`RetryPolicy`), and
  crash-safe resume from a run ledger;
* :mod:`repro.runtime.store` — :class:`ArtifactStore`, content-addressed
  memoisation of generated artifacts (CRP sets, fleet response planes,
  one flat bit-packed file each) keyed by :func:`artifact_digest`, with
  one ``get_or_generate`` lookup for every kind, LRU eviction and
  hit/miss/bytes stats; trials reach it through
  :func:`repro.runtime.store.trial_artifact`;
* :mod:`repro.runtime.pool` — the one dispatch loop behind every
  ``TrialRunner`` run: serial, or one process pool of ``workers``
  processes; worker-death retry, per-trial timeouts with pool rebuild,
  and the serial fallback live here.

Picklable standard workloads live in :mod:`repro.runtime.workloads`
(imported explicitly, not re-exported, to keep this package import-light).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "pool": ("default_chunk", "run_pool"),
        "runner": (
            "RetryPolicy",
            "TrialContext",
            "TrialError",
            "TrialFailure",
            "TrialReport",
            "TrialResult",
            "TrialRunner",
            "result_from_record",
            "trial_record",
        ),
        "seeding": ("as_seed_sequence", "fan_out", "trial_rng", "trial_seed"),
        "store": ("ArtifactStore", "artifact_digest"),
    },
)
