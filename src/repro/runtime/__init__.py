"""Parallel experiment runtime: deterministic trial fan-out, chunked CRP
evaluation, and on-disk artifact memoisation.

The pieces compose into the standard experiment loop:

* :mod:`repro.runtime.seeding` — ``SeedSequence``-based fan-out so trial
  ``i`` owns a stream independent of worker count and scheduling order;
* :mod:`repro.runtime.runner` — :class:`TrialRunner`, the executor for
  independent trials: per-trial timing, structured :class:`TrialError`
  capture, infrastructure-only retries (:class:`RetryPolicy`), and
  crash-safe resume from a run ledger;
* :mod:`repro.runtime.chunking` — blocked CRP generation/evaluation that
  keeps the working set cache-resident;
* :mod:`repro.runtime.store` — :class:`ArtifactStore`, content-addressed
  memoisation of generated artifacts (CRP sets, fleet response planes,
  one flat bit-packed file each) keyed by :func:`artifact_digest`, with
  LRU eviction and hit/miss/bytes stats;
* :mod:`repro.runtime.sharding` — the one dispatch loop behind every
  ``TrialRunner`` run: serial, a single process pool, or work-stealing
  shards (``TrialRunner(shards=N)``) with per-shard mergeable ledgers;
  worker-death retry, per-trial timeouts with pool rebuild, and the
  serial fallback live here.

Picklable standard workloads live in :mod:`repro.runtime.workloads`
(imported explicitly, not re-exported, to keep this package import-light).
"""

from repro.runtime.chunking import (
    DEFAULT_BLOCK_SIZE,
    eval_blocked,
    eval_noisy_blocked,
    generate_crps_blocked,
    iter_blocks,
)
from repro.runtime.runner import (
    RetryPolicy,
    TrialContext,
    TrialError,
    TrialFailure,
    TrialReport,
    TrialResult,
    TrialRunner,
    result_from_record,
    trial_record,
)
from repro.runtime.seeding import as_seed_sequence, fan_out, trial_rng, trial_seed
from repro.runtime.sharding import (
    WorkStealingScheduler,
    partition_items,
    run_sharded,
)
from repro.runtime.store import ArtifactStore, artifact_digest, hash_challenges

__all__ = [
    "ArtifactStore",
    "artifact_digest",
    "hash_challenges",
    "WorkStealingScheduler",
    "partition_items",
    "run_sharded",
    "DEFAULT_BLOCK_SIZE",
    "eval_blocked",
    "eval_noisy_blocked",
    "generate_crps_blocked",
    "iter_blocks",
    "RetryPolicy",
    "TrialContext",
    "TrialError",
    "TrialFailure",
    "TrialReport",
    "TrialResult",
    "TrialRunner",
    "result_from_record",
    "trial_record",
    "as_seed_sequence",
    "fan_out",
    "trial_rng",
    "trial_seed",
]
