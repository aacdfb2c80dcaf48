"""The parallel trial runner.

A *trial* is one independent repetition of an experiment: build a fresh
PUF instance, draw CRPs, fit a learner, score it.  Table I assessments,
the BR PUF Chow/LTF experiments, learning curves and noise-tolerance
ablations are all loops of such trials, so this one abstraction is the
scaling point for the whole reproduction.

Determinism contract
--------------------
``TrialRunner.run(fn, num_trials, master_seed)`` yields *bit-identical*
results for any ``workers`` and ``shards`` setting: every trial's
randomness comes from its own :class:`~numpy.random.SeedSequence` child
(see :mod:`repro.runtime.seeding`), results are re-ordered by trial
index, and nothing a trial computes may depend on shared mutable state.  Trial
functions must be picklable (module-level) to run on a pool; closures
and lambdas degrade to serial execution with a warning.

Failure semantics
-----------------
Failures split into two disjoint classes with opposite handling:

*Trial errors* — the trial function itself raised.  The exception is a
deterministic function of ``(master_seed, index)``, so it is **never
retried**: it is captured *inside* the worker as a structured
:class:`TrialError` (exception type, message, traceback, seed identity)
and returned as a failed :class:`TrialResult`, leaving every other trial
untouched.  Serial and pooled runs produce identical trial errors.

*Infrastructure failures* — the machinery around the trial broke: a
worker died (``BrokenProcessPool``), a worker hung past ``trial_timeout``
(the pool is killed and rebuilt), or the function/arguments could not be
pickled.  Worker death and hangs are transient, so the affected trials
are resubmitted under a :class:`RetryPolicy` (capped exponential backoff
whose jitter derives from the trial's own seed, keeping reruns
deterministic); pickling failures are deterministic, so the runner falls
back to in-process serial execution instead.  A trial whose retry budget
is exhausted is recorded as a ``category="infra"`` / ``"timeout"``
:class:`TrialError` rather than crashing the run.  This module defines
the trial, result and retry types; the one dispatch loop that applies
the policy — serial, single-pool and sharded alike — is
:mod:`repro.runtime.sharding`.

With a ledger attached, each record is appended as its trial completes
(parent-side), so a killed run can be restarted with
``run(..., resume_from=ledger)``: completed trials replay bit-identically
from the ledger and only the missing (or infrastructure-failed) indices
re-execute.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback as _traceback
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.runtime.seeding import SeedLike, as_seed_sequence, fan_out
from repro.telemetry.meter import QueryMeter, metered
from repro.telemetry.spans import SpanRecorder, recording

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.telemetry.ledger import RunLedger


@dataclasses.dataclass
class TrialContext:
    """What a trial function receives: its index and its private stream."""

    index: int
    seed: np.random.SeedSequence

    def __post_init__(self) -> None:
        self._rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        """The trial's Generator (created once, then reused)."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def spawn_rngs(self, k: int) -> List[np.random.Generator]:
        """``k`` further independent Generators (e.g. one per learner)."""
        return [np.random.default_rng(s) for s in self.seed.spawn(k)]


#: A trial function: (context, **kwargs) -> any picklable result.
TrialFn = Callable[..., Any]

#: Maximum traceback characters kept on a TrialError (ledger size guard).
_TRACEBACK_LIMIT = 16_384

#: spawn_key domain separating retry-backoff jitter from trial streams.
_RETRY_JITTER_DOMAIN = 0x52455452  # "RETR"


@dataclasses.dataclass
class TrialError:
    """Structured record of one failed trial.

    ``category`` states which failure class produced it:

    * ``"trial"`` — the trial function raised; deterministic, never
      retried, replayed as-is on resume;
    * ``"timeout"`` — the trial exceeded ``trial_timeout`` and its worker
      was killed; re-executed on resume;
    * ``"infra"`` — the worker died and the retry budget ran out;
      re-executed on resume.

    ``entropy``/``spawn_key`` identify the trial's SeedSequence so the
    failure can be reproduced in isolation with
    ``np.random.SeedSequence(int(entropy), spawn_key=spawn_key)``.
    """

    exc_type: str
    message: str
    traceback: str = ""
    category: str = "trial"
    entropy: Optional[str] = None
    spawn_key: Tuple[int, ...] = ()

    @classmethod
    def from_exception(
        cls, exc: BaseException, seed: Optional[np.random.SeedSequence] = None
    ) -> "TrialError":
        """Capture a raised exception as a deterministic trial error."""
        tb = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback=tb[-_TRACEBACK_LIMIT:],
            category="trial",
            **_seed_identity(seed),
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (JSON-ready, ledger record form)."""
        record = dataclasses.asdict(self)
        record["spawn_key"] = list(self.spawn_key)
        return record

    def summary(self) -> str:
        """One-line digest: ``ValueError (trial): message``."""
        return f"{self.exc_type} ({self.category}): {self.message}"


def _seed_identity(seed: Optional[np.random.SeedSequence]) -> Dict[str, object]:
    """The TrialError fields that pin down a trial's SeedSequence."""
    if seed is None:
        return {"entropy": None, "spawn_key": ()}
    return {"entropy": str(seed.entropy), "spawn_key": tuple(seed.spawn_key)}


def _canonical_seed(seed: SeedLike) -> Tuple[object, Tuple[int, ...]]:
    """A seed's ``(entropy, spawn_key)`` identity, for cross-run comparison.

    Canonicalising through :class:`~numpy.random.SeedSequence` lets an
    ``int``, an entropy sequence, and an equivalent ``SeedSequence``
    compare equal regardless of which form each run was launched with.
    """
    sequence = as_seed_sequence(seed)
    entropy = sequence.entropy
    if isinstance(entropy, (list, tuple, np.ndarray)):
        entropy = tuple(int(word) for word in entropy)
    return entropy, tuple(sequence.spawn_key)


def _seed_mismatch(current: SeedLike, recorded: object) -> bool:
    """Whether a recorded master seed disagrees with the current one.

    An unintelligible recorded seed counts as a mismatch — resuming is
    refused rather than guessed at.
    """
    try:
        return _canonical_seed(current) != _canonical_seed(recorded)
    except Exception:
        return True


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff for *infrastructure* failures only.

    Deterministic trial exceptions are never retried — re-running a pure
    function of ``(master_seed, index)`` re-raises the same error and
    re-bills every oracle query it made.  Retries apply to worker death
    (``BrokenProcessPool``) and per-trial timeouts, where a second
    attempt can genuinely succeed.

    ``max_attempts`` counts total executions (1 = no retry).  Backoff for
    attempt ``a`` is ``min(max_delay, base_delay * 2**(a-1))`` stretched
    by up to ``jitter`` (a fraction), with the jitter drawn from a stream
    derived from the trial's own SeedSequence under a fixed domain tag —
    so delays are reproducible and never perturb the trial's results.
    """

    max_attempts: int = 3
    base_delay: float = 0.25
    max_delay: float = 8.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, seed: np.random.SeedSequence) -> float:
        """Seconds to back off after ``attempt`` completed executions."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        if base <= 0 or self.jitter <= 0:
            return base
        jitter_seed = np.random.SeedSequence(
            seed.entropy,
            spawn_key=tuple(seed.spawn_key) + (_RETRY_JITTER_DOMAIN, attempt),
        )
        u = float(np.random.default_rng(jitter_seed).random())
        return base * (1.0 + self.jitter * u)


@dataclasses.dataclass
class TrialResult:
    """One trial's outcome plus its in-worker timing and telemetry.

    ``seconds`` is in-worker wall time, ``cpu_seconds`` in-worker process
    CPU time, and ``queue_wait`` the delay between submission in the
    parent and execution start in the worker (0 on the serial path).
    ``telemetry`` is ``{"queries": <QueryMeter snapshot>, "spans": <span
    summary>}`` — picklable dicts, so pool workers ship them back intact.
    A failed trial carries its :class:`TrialError` in ``error`` (and
    ``value`` is None); ``attempts`` counts executions including retries,
    and ``replayed`` marks results reconstructed from a resume ledger
    rather than executed.
    """

    index: int
    value: Any
    seconds: float
    cpu_seconds: float = 0.0
    queue_wait: float = 0.0
    telemetry: Optional[Dict[str, Any]] = None
    error: Optional[TrialError] = None
    attempts: int = 1
    replayed: bool = False

    @property
    def ok(self) -> bool:
        """Whether the trial completed without error."""
        return self.error is None


@dataclasses.dataclass
class TrialReport:
    """All trial results (ordered by index) plus timing aggregates.

    ``cancelled`` marks a run stopped early through the ``cancel`` event
    of :meth:`TrialRunner.run`: the results list then holds only the
    trials that completed (or replayed) before the stop was observed,
    and a later ``resume_from`` run picks up exactly the missing ones.
    """

    results: List[TrialResult]
    workers: int
    wall_seconds: float
    #: What ran: "serial", "process-pool", "mixed" (pool, then a serial
    #: fallback), "sharded(SxW[, steals=N])[-mixed]" or "replay".
    executor: str
    cancelled: bool = False

    def values(self) -> List[Any]:
        """Trial values in index order (None for failed trials)."""
        return [r.value for r in self.results]

    def failures(self) -> List[TrialResult]:
        """The failed trials, in index order."""
        return [r for r in self.results if not r.ok]

    @property
    def replayed_count(self) -> int:
        """How many results were replayed from a resume ledger."""
        return sum(1 for r in self.results if r.replayed)

    @property
    def retried_count(self) -> int:
        """How many trials needed more than one execution attempt."""
        return sum(1 for r in self.results if r.attempts > 1)

    def raise_failures(self) -> "TrialReport":
        """Raise ``TrialFailure`` if any trial failed; else return self.

        For callers (learning-curve averaging, table builders) whose
        downstream math cannot represent a missing trial — the structured
        errors become one exception instead of NaN-poisoned aggregates.
        """
        failed = self.failures()
        if failed:
            raise TrialFailure(failed)
        return self

    def trial_seconds(self) -> np.ndarray:
        """Per-trial in-worker durations, index order."""
        return np.array([r.seconds for r in self.results])

    @property
    def total_trial_seconds(self) -> float:
        """Sum of per-trial durations (the serial-equivalent work)."""
        return float(np.sum(self.trial_seconds()))

    def summary(self) -> str:
        """One-line digest: trial count, workers, wall clock, per-trial stats."""
        if not self.results:
            return (
                f"0 trials on {self.workers} worker(s) [{self.executor}]: "
                f"wall {self.wall_seconds:.2f}s"
                + (", cancelled" if self.cancelled else "")
            )
        secs = self.trial_seconds()
        base = (
            f"{len(self.results)} trials on {self.workers} worker(s) "
            f"[{self.executor}]: wall {self.wall_seconds:.2f}s, "
            f"per-trial mean {np.mean(secs):.3f}s "
            f"(min {np.min(secs):.3f}s, max {np.max(secs):.3f}s)"
        )
        extras = []
        if self.cancelled:
            extras.append("cancelled")
        if self.failures():
            extras.append(f"{len(self.failures())} failed")
        if self.retried_count:
            extras.append(f"{self.retried_count} retried")
        if self.replayed_count:
            extras.append(f"{self.replayed_count} replayed")
        return base + (", " + ", ".join(extras) if extras else "")


class TrialFailure(RuntimeError):
    """Raised by :meth:`TrialReport.raise_failures` when trials failed."""

    def __init__(self, failures: List[TrialResult]) -> None:
        self.failures = failures
        first = failures[0]
        detail = first.error.summary() if first.error else "unknown error"
        super().__init__(
            f"{len(failures)} of the trials failed; "
            f"first: trial {first.index} — {detail}"
        )


# ----------------------------------------------------------------------
# Ledger record round-trip (crash-safe resume).
# ----------------------------------------------------------------------
def trial_record(result: TrialResult) -> Dict[str, object]:
    """The JSONL ledger record for one trial result.

    ``value_meta`` preserves ndarray dtype/shape so a replayed value is
    bit-identical to the executed one (JSON floats round-trip exactly).
    """
    value, value_meta = result.value, None
    if isinstance(value, np.ndarray):
        value_meta = {"dtype": str(value.dtype), "shape": list(value.shape)}
        value = value.tolist()
    record: Dict[str, object] = {
        "index": result.index,
        "status": "ok" if result.ok else "error",
        "attempts": result.attempts,
        "seconds": result.seconds,
        "cpu_seconds": result.cpu_seconds,
        "queue_wait": result.queue_wait,
        "telemetry": result.telemetry,
        "value": value,
    }
    if value_meta is not None:
        record["value_meta"] = value_meta
    if result.error is not None:
        record["error"] = result.error.as_dict()
    return record


def result_from_record(record: Dict[str, object]) -> TrialResult:
    """Reconstruct a replayed :class:`TrialResult` from a ledger record."""
    value = record.get("value")
    meta = record.get("value_meta")
    if meta is not None and value is not None:
        value = np.asarray(value, dtype=meta["dtype"]).reshape(meta["shape"])
    error = None
    raw_error = record.get("error")
    if raw_error:
        error = TrialError(
            exc_type=str(raw_error.get("exc_type", "Exception")),
            message=str(raw_error.get("message", "")),
            traceback=str(raw_error.get("traceback", "")),
            category=str(raw_error.get("category", "trial")),
            entropy=raw_error.get("entropy"),
            spawn_key=tuple(raw_error.get("spawn_key", ())),
        )
    return TrialResult(
        index=int(record["index"]),
        value=value,
        seconds=float(record.get("seconds", 0.0)),
        cpu_seconds=float(record.get("cpu_seconds", 0.0)),
        queue_wait=float(record.get("queue_wait", 0.0)),
        telemetry=record.get("telemetry"),
        error=error,
        attempts=int(record.get("attempts", 1)),
        replayed=True,
    )


# ----------------------------------------------------------------------
# Worker-side execution (module-level for pool pickling).
# ----------------------------------------------------------------------
def _execute_trial(
    trial_fn: TrialFn,
    index: int,
    seed: np.random.SeedSequence,
    kwargs: Dict[str, Any],
    submitted_at: Optional[float] = None,
    attempts: int = 1,
) -> TrialResult:
    """Run one trial, metered and timed; exceptions become TrialErrors.

    Installs a fresh :class:`QueryMeter` and :class:`SpanRecorder` around
    the trial, so every oracle draw and kernel span inside lands on this
    trial's telemetry — in the worker process under the pool, or inline on
    the serial fallback; either way the snapshot returns in the result.
    An exception raised by ``trial_fn`` is deterministic (the trial is a
    pure function of its seed), so it is captured as a ``category="trial"``
    :class:`TrialError` — with the telemetry spent up to the raise, which
    is real adversary spend — instead of escaping to the pool machinery.
    ``submitted_at`` is a ``time.time()`` stamp from the parent (wall
    clock, comparable across processes), giving the queue-wait estimate.
    """
    queue_wait = 0.0 if submitted_at is None else max(0.0, time.time() - submitted_at)
    meter = QueryMeter()
    spans = SpanRecorder()
    value: Any = None
    error: Optional[TrialError] = None
    start = time.perf_counter()
    cpu_start = time.process_time()
    with metered(meter), recording(spans):
        try:
            value = trial_fn(TrialContext(index, seed), **kwargs)
        except Exception as exc:
            error = TrialError.from_exception(exc, seed)
    return TrialResult(
        index=index,
        value=value,
        seconds=time.perf_counter() - start,
        cpu_seconds=time.process_time() - cpu_start,
        queue_wait=queue_wait,
        telemetry={"queries": meter.snapshot(), "spans": spans.summary()},
        error=error,
        attempts=attempts,
    )


class TrialRunner:
    """Fan independent trials out over process pools, deterministically.

    Every executing run goes through one driver loop,
    :func:`repro.runtime.sharding.run_sharded`; the constructor arguments
    only pick its shape.

    Parameters
    ----------
    workers:
        Worker processes per shard.  ``1`` (the default) with
        ``shards=1`` runs serially in the current process — no pool, no
        pickling requirements, ``on_result`` in index order.
    chunk_size:
        Trials per pool task.  Defaults to
        :func:`~repro.runtime.sharding.default_shard_chunk`,
        ``ceil(num_trials / (8 * shards * workers))``, so every worker
        slot turns over several times.  Results do not depend on it.
        Retry and timeout act at chunk granularity: a smaller
        ``chunk_size`` narrows the blast radius of a dead or hung worker.
        At most ``workers`` chunks per pool are in flight at once (the
        rest wait in the scheduler), so a chunk's ``trial_timeout``
        deadline starts when it starts executing, not when the run was
        launched.
    shards:
        Number of independent process pools.  ``1`` (the default) is the
        single pool (or the serial run); more splits the trials across
        shards whose idle drivers steal queued trials from the tail of
        busy ones, and with a ledger attached each shard appends to its
        own ``ledger-shardNN.jsonl`` instead of ``ledger.jsonl``.
        Results stay bit-identical to the serial run for any shard count.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        shards: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.shards = shards

    # ------------------------------------------------------------------
    def run(
        self,
        trial_fn: TrialFn,
        num_trials: int,
        master_seed: SeedLike = 0,
        trial_kwargs: Optional[Dict[str, Any]] = None,
        ledger: Optional["RunLedger"] = None,
        resume_from: Optional[Union[str, Path, "RunLedger"]] = None,
        retry: Optional[RetryPolicy] = None,
        trial_timeout: Optional[float] = None,
        on_result: Optional[Callable[[TrialResult], None]] = None,
        cancel: Optional[threading.Event] = None,
    ) -> TrialReport:
        """Run ``num_trials`` independent trials of ``trial_fn``.

        ``trial_fn`` is called as ``trial_fn(ctx, **trial_kwargs)`` where
        ``ctx`` is a :class:`TrialContext`; it must draw all randomness
        from ``ctx.rng`` / ``ctx.spawn_rngs`` for the determinism
        contract to hold.  Results are returned in trial-index order and
        are bit-identical for every ``workers`` value.

        With ``ledger`` set, one JSONL record per trial is appended *as
        that trial completes* (written here in the parent, never
        concurrently from workers), so a killed run leaves every finished
        trial on disk.  ``resume_from`` — a run directory, ledger path,
        or :class:`RunLedger` — replays the recorded results for
        already-completed trial indices bit-identically and executes only
        the missing ones (infrastructure/timeout failures re-execute;
        deterministic trial errors replay).  ``retry`` (default
        :class:`RetryPolicy`) governs resubmission after worker death,
        and ``trial_timeout`` (seconds per trial; pooled runs only) kills
        and rebuilds the pool when a worker hangs.

        ``on_result`` is called in the parent process as each trial
        completes — replayed results first (in index order), then
        executed ones in completion order — which is the progress hook
        the assessment service streams WebSocket events from.  With
        ``shards > 1`` it also fires from shard driver threads, so the
        callback must be thread-safe (the service marshals onto its event
        loop with ``call_soon_threadsafe``).  ``cancel`` is a cooperative
        stop: once the event is set no further trials start, in-flight
        pool chunks finish and are recorded, and the report comes back
        with ``cancelled=True`` holding only the completed results —
        a later ``resume_from`` run finishes exactly the missing trials.
        """
        if trial_timeout is not None and trial_timeout <= 0:
            raise ValueError(f"trial_timeout must be positive, got {trial_timeout}")
        kwargs = dict(trial_kwargs or {})
        seeds = fan_out(master_seed, num_trials)
        start = time.perf_counter()

        replayed: Dict[int, TrialResult] = {}
        if resume_from is not None:
            replayed = self._load_resume(resume_from, num_trials, master_seed)
        items = [
            (index, seed)
            for index, seed in enumerate(seeds)
            if index not in replayed
        ]
        if on_result is not None:
            for index in sorted(replayed):
                on_result(replayed[index])

        executed: List[TrialResult] = []
        if not items or (cancel is not None and cancel.is_set()):
            executor = "serial" if items and not replayed else "replay"
        else:
            from repro.runtime.sharding import run_sharded

            run = run_sharded(
                trial_fn,
                items,
                kwargs,
                shards=self.shards,
                workers=self.workers,
                chunk_size=self.chunk_size,
                retry=retry,
                trial_timeout=trial_timeout,
                ledger=ledger,
                on_result=on_result,
                cancel=cancel,
            )
            executed, executor = run.results, run.executor

        results = executed + list(replayed.values())
        results.sort(key=lambda r: r.index)
        return TrialReport(
            results=results,
            workers=self.workers,
            wall_seconds=time.perf_counter() - start,
            executor=executor,
            cancelled=bool(
                cancel is not None
                and cancel.is_set()
                and len(results) < num_trials
            ),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _load_resume(
        resume_from: Union[str, Path, "RunLedger"],
        num_trials: int,
        master_seed: SeedLike,
    ) -> Dict[int, TrialResult]:
        """Replayable results from a prior run's ledger, keyed by index.

        Accepts a run directory, a ``ledger.jsonl`` path, or an open
        :class:`RunLedger`; a directory with no ledger yet resumes to an
        empty replay set, so passing ``resume_from`` unconditionally is
        safe for idempotent launchers.  Raises ``ValueError`` when the
        ledger's recorded ``master_seed`` disagrees with this run's
        (compared canonically, so an int and an equivalent SeedSequence
        match) and warns when the recorded trial count differs.
        """
        from repro.telemetry.ledger import LEDGER_NAME, RunLedger

        if isinstance(resume_from, RunLedger):
            ledger = resume_from
        else:
            path = Path(resume_from)
            if path.name == LEDGER_NAME:
                path = path.parent
            ledger = RunLedger(path)
        meta = ledger.read_meta() or {}
        recorded_seed = meta.get("master_seed")
        if recorded_seed is not None and _seed_mismatch(master_seed, recorded_seed):
            raise ValueError(
                f"cannot resume from {ledger.run_dir}: ledger was written "
                f"with master_seed={recorded_seed!r}, this run uses "
                f"master_seed={master_seed!r}"
            )
        recorded_trials = meta.get("trials")
        if isinstance(recorded_trials, int) and recorded_trials != num_trials:
            warnings.warn(
                f"resuming {ledger.run_dir} with num_trials={num_trials} "
                f"but its ledger was written for trials={recorded_trials}; "
                "only overlapping indices replay",
                RuntimeWarning,
                stacklevel=3,
            )
        replayed: Dict[int, TrialResult] = {}
        for index, record in ledger.read_latest().items():
            if not 0 <= index < num_trials:
                continue
            result = result_from_record(record)
            if result.error is not None and result.error.category != "trial":
                continue  # infra/timeout failures get a fresh execution
            replayed[index] = result
        return replayed
