"""Trial dispatch: one driver loop for serial, single-pool and sharded runs.

Every :meth:`~repro.runtime.runner.TrialRunner.run` that executes trials
goes through :func:`run_sharded`.  The trial set is split across
``shards`` drivers with a :class:`WorkStealingScheduler` between them:
every shard owns a deque of trial items, takes chunks from its *head*,
and — when its own deque runs dry — steals a chunk from the *tail* of
the longest remaining deque.  Skewed trial mixes therefore rebalance
automatically: a shard that drew the slow trials keeps grinding while
idle shards drain its tail, and a pool rebuild (timeout, dead worker)
only stalls one shard.

The common cases are the degenerate shapes of that one loop:

* ``shards=1, workers=1`` — the serial run: one driver in the calling
  thread, no pool, trials in index order (the same serial drain that
  serves as the pickling fallback);
* ``shards=1, workers>1`` — the single process pool;
* ``shards>1`` — shard 0 is driven in the calling thread and shards
  1…N−1 in their own threads, each with a pool of ``workers`` processes.

Fault policy, identical for every shape, because trials stay pure
functions of ``(master_seed, index)``:

* **Bit-identical replay** — which shard or worker executes a trial is
  unobservable in its result; the caller re-orders by index.
* **Trial errors** are captured in-worker and never retried.
* **Worker death and hangs** — at most ``workers`` chunks are in flight
  per pool, so a chunk's ``trial_timeout`` deadline (armed at submit)
  measures execution, not backlog; a hang or a dead worker kills the
  workers *then* shuts the pool down, harvests futures that already hold
  results, and resubmits the lost chunks under the
  :class:`~repro.runtime.runner.RetryPolicy` with seed-derived backoff.
* **Pickling failures** are deterministic, so the shard drains its
  leftovers and queue serially in its driver thread, checking ``cancel``
  before every trial.
* **Crash-safe resume** — a one-shard run appends to the main
  ``ledger.jsonl``; with ``shards > 1`` each shard appends to its own
  ``ledger-shardNN.jsonl`` (:meth:`repro.telemetry.ledger.RunLedger.shard`),
  so shards never contend on one file.  ``RunLedger.read_latest`` merges
  the files by trial index, so ``--resume`` works on either layout.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.runner import (
    RetryPolicy,
    TrialError,
    TrialFn,
    TrialResult,
    _execute_trial,
    _seed_identity,
    trial_record,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.telemetry.ledger import RunLedger

#: One schedulable unit: ``(trial index, its SeedSequence)``.
TrialItem = Tuple[int, "np.random.SeedSequence"]


def partition_items(items: List[TrialItem], shards: int) -> List[List[TrialItem]]:
    """Split ``items`` into ``shards`` contiguous, near-equal slices.

    Contiguity keeps each shard's initial deque a run of consecutive
    trial indices — the natural unit for ledger inspection — and any
    imbalance in *cost* (as opposed to count) is what the stealing
    scheduler exists to fix at runtime.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(len(items), shards)
    parts: List[List[TrialItem]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        parts.append(items[start : start + size])
        start += size
    return parts


class WorkStealingScheduler:
    """Per-shard deques with tail-stealing for idle shards.

    All operations run under one lock — the unit of work is a whole
    chunk of trials (each worth milliseconds to minutes), so lock
    traffic is negligible.  A shard acquires from the *head* of its own
    deque; an empty shard steals from the *tail* of the longest other
    deque, preserving the victim's cheap-to-reach head locality and
    taking the work it was furthest from starting.
    """

    def __init__(self, partitions: List[List[TrialItem]]) -> None:
        self._lock = threading.Lock()
        self._deques: List[deque] = [deque(part) for part in partitions]
        self.steals = [0 for _ in partitions]
        self.executed = [0 for _ in partitions]

    @property
    def shards(self) -> int:
        """How many shard deques the scheduler manages."""
        return len(self._deques)

    def acquire(self, shard_id: int, chunk: int) -> List[TrialItem]:
        """Up to ``chunk`` items for ``shard_id``; steals when it is dry.

        Returns an empty list only when every deque is empty — the
        shard's signal to finish its in-flight work and exit.
        """
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        with self._lock:
            own = self._deques[shard_id]
            if own:
                taken = [own.popleft() for _ in range(min(chunk, len(own)))]
                self.executed[shard_id] += len(taken)
                return taken
            victim = max(
                (d for i, d in enumerate(self._deques) if i != shard_id),
                key=len,
                default=None,
            )
            if victim is None or not victim:
                return []
            stolen = [victim.pop() for _ in range(min(chunk, len(victim)))]
            stolen.reverse()  # restore ascending-index order within the chunk
            self.steals[shard_id] += 1
            self.executed[shard_id] += len(stolen)
            return stolen

    def remaining(self) -> int:
        """How many items are still queued across all deques."""
        with self._lock:
            return sum(len(d) for d in self._deques)


# ----------------------------------------------------------------------
# Pool plumbing (module-level so the pool can pickle it).
# ----------------------------------------------------------------------
def _execute_chunk(
    trial_fn: TrialFn,
    items: List[TrialItem],
    kwargs: Dict[str, Any],
    submitted_at: Optional[float],
    attempts: int,
) -> List[TrialResult]:
    """Run one pool task's worth of trials (module-level for pickling)."""
    return [
        _execute_trial(trial_fn, index, seed, kwargs, submitted_at, attempts)
        for index, seed in items
    ]


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: kill the workers, then join the machinery.

    Used when a worker hung past its deadline (a cooperative shutdown
    would block on it forever) or after the pool broke; the executor
    object is discarded afterwards.  The workers are killed *first* so
    the executor's manager thread — still in its normal wait, watching
    the worker sentinels — observes their death and exits through its
    broken-pool path; shutting down before killing can instead park the
    manager in a wait nothing will ever wake, which then deadlocks
    interpreter exit (concurrent.futures joins manager threads atexit).
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown on a broken pool
        pass


def _failed_results(
    items: List[TrialItem],
    attempts: int,
    category: str,
    exc_type: str,
    message: str,
    seconds: float = 0.0,
) -> List[TrialResult]:
    """Parent-side TrialError results for trials the pool lost."""
    return [
        TrialResult(
            index=index,
            value=None,
            seconds=seconds,
            telemetry=None,
            error=TrialError(
                exc_type=exc_type,
                message=message,
                category=category,
                **_seed_identity(seed),
            ),
            attempts=attempts,
        )
        for index, seed in items
    ]


class _ShardDriver:
    """One shard: chunks from the scheduler, run on a pool or in-thread.

    With ``pooled`` set the driver feeds a process pool of ``workers``
    processes — at most ``workers`` chunks in flight, kill-then-shutdown
    rebuild on hangs, completed-future harvest before a broken-pool
    rebuild, retry with seed-derived backoff — and falls back to the
    serial drain when the pool cannot be used.  Without it the serial
    drain is the whole run.  Chunks are acquired dynamically from the
    :class:`WorkStealingScheduler`, which is what makes stealing
    possible mid-run.
    """

    def __init__(
        self,
        shard_id: int,
        scheduler: WorkStealingScheduler,
        trial_fn: TrialFn,
        kwargs: Dict[str, Any],
        workers: int,
        chunk: int,
        retry: RetryPolicy,
        trial_timeout: Optional[float],
        emit: Callable[[TrialResult], None],
        cancel: Optional[threading.Event] = None,
        pooled: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.scheduler = scheduler
        self.trial_fn = trial_fn
        self.kwargs = kwargs
        self.workers = workers
        self.chunk = chunk
        self.retry = retry
        self.trial_timeout = trial_timeout
        self.emit = emit
        self.cancel = cancel
        self.pooled = pooled
        self.results: List[TrialResult] = []
        self.fallback: Optional[str] = None
        #: Results the pool produced before the serial drain took over.
        self.pool_results = 0
        self.error: Optional[BaseException] = None

    def _cancelled(self) -> bool:
        """Whether the run's cooperative stop event has been set."""
        return self.cancel is not None and self.cancel.is_set()

    # -- bookkeeping ----------------------------------------------------
    def _finish(self, chunk_results: List[TrialResult]) -> None:
        for result in chunk_results:
            self.emit(result)
        self.results.extend(chunk_results)

    def _drain_serially(self, leftovers: List[List[TrialItem]]) -> None:
        """Run every leftover and still-queued trial in this thread.

        The serial drain still participates in stealing: after its own
        leftovers it keeps acquiring from the scheduler, so a shard that
        lost its pool degrades to one in-thread worker instead of
        stranding queued trials.  ``cancel`` is checked before every
        trial, leftovers included.
        """
        self.pool_results = len(self.results)
        queued = iter(lambda: self.scheduler.acquire(self.shard_id, self.chunk), [])
        for items in itertools.chain(leftovers, queued):
            for index, seed in items:
                if self._cancelled():
                    return
                self._finish([_execute_trial(self.trial_fn, index, seed, self.kwargs)])

    def _lose(self, items: List[TrialItem], category: str, attempts: int) -> bool:
        """Handle a chunk lost with its pool after ``attempts`` executions.

        Warns and backs off, returning True, while the retry budget
        lasts; then records the chunk's final ``category`` failure
        (``"infra"``: the worker died, ``"timeout"``: it hung) and
        returns False.
        """
        died = category == "infra"
        reason = (
            "worker process died"
            if died
            else f"worker hung past {self.trial_timeout}s"
        )
        if attempts < self.retry.max_attempts:
            warnings.warn(
                f"shard {self.shard_id}: {reason} on trials "
                f"{[i for i, _ in items]}; pool rebuilt, retrying "
                f"(attempt {attempts + 1})",
                RuntimeWarning,
            )
            delay = self.retry.delay(attempts, items[0][1])
            if delay > 0:
                time.sleep(delay)
            return True
        if died:
            message = (
                f"shard {self.shard_id}: {reason}; retry budget exhausted "
                f"after {attempts} attempt(s)"
            )
        else:
            message = (
                f"trial exceeded trial_timeout={self.trial_timeout}s on every "
                f"one of {attempts} attempt(s); shard {self.shard_id} worker killed"
            )
        self._finish(
            _failed_results(
                items,
                attempts,
                category=category,
                exc_type="BrokenProcessPool" if died else "TimeoutError",
                message=message,
                seconds=0.0 if died else float(self.trial_timeout),
            )
        )
        return False

    # -- the drive loop -------------------------------------------------
    def drive(self) -> None:
        """Run this shard to completion (thread entry point)."""
        try:
            self._drive()
        except BaseException as exc:  # pragma: no cover - defensive
            self.error = exc

    def _drive(self) -> None:
        if not self.pooled:
            self._drain_serially([])
            return
        try:
            pool = ProcessPoolExecutor(max_workers=self.workers)
        except Exception as exc:  # no POSIX semaphores, fork failure, ...
            self.fallback = f"{type(exc).__name__}: {exc}"
            self._drain_serially([])
            return

        pending: Dict[Future, List[TrialItem]] = {}
        deadlines: Dict[Future, float] = {}
        attempts: Dict[int, int] = {}  # keyed by the chunk's first index

        def submit(items: List[TrialItem], charge: bool = True) -> None:
            ckey = items[0][0]
            if charge:
                attempts[ckey] = attempts.get(ckey, 0) + 1
            future = pool.submit(
                _execute_chunk,
                self.trial_fn,
                items,
                self.kwargs,
                time.time(),
                attempts[ckey],
            )
            pending[future] = items
            if self.trial_timeout is not None:
                deadlines[future] = (
                    time.monotonic() + self.trial_timeout * len(items)
                )

        def pump() -> None:
            # At most `workers` chunks are in flight, so a chunk's
            # deadline (armed at submit) measures execution: nothing
            # queues behind other chunks inside the pool.  A set cancel
            # event stops acquisition; in-flight chunks drain.
            while not self._cancelled() and len(pending) < self.workers:
                items = self.scheduler.acquire(self.shard_id, self.chunk)
                if not items:
                    return
                submit(items)

        def rebuild(lost: List[List[TrialItem]], category: str) -> None:
            # Everything in flight dies with the pool.  The `lost` chunks
            # are charged an attempt; innocents resubmit uncharged.
            nonlocal pool
            lost_keys = {items[0][0] for items in lost}
            victims = {items[0][0]: items for items in [*pending.values(), *lost]}
            _stop_pool(pool)
            pending.clear()
            deadlines.clear()
            pool = ProcessPoolExecutor(max_workers=self.workers)
            for ckey in sorted(victims):
                if ckey not in lost_keys:
                    submit(victims[ckey], charge=False)
                elif self._lose(victims[ckey], category, attempts[ckey]):
                    submit(victims[ckey])

        while True:
            pump()
            if not pending:
                break  # scheduler dry and nothing in flight
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                now = time.monotonic()
                overdue = [pending[f] for f, d in deadlines.items() if d <= now]
                if overdue:
                    # A worker hung past its deadline: this shard's pool
                    # dies and is rebuilt; other shards are untouched.
                    rebuild(overdue, "timeout")
                continue
            for future in done:
                items = pending.pop(future, None)
                if items is None:
                    continue  # belonged to a pool torn down this round
                deadlines.pop(future, None)
                try:
                    chunk_results = future.result()
                except BrokenProcessPool:
                    # A worker died (SIGKILL, OOM, segfault).  Chunks
                    # whose futures already hold a result are harvested
                    # first; only the chunks genuinely lost are charged.
                    lost = [items]
                    for other, oitems in list(pending.items()):
                        harvest = None
                        if other.done():
                            try:
                                harvest = other.result()
                            except Exception:
                                harvest = None
                        if harvest is None:
                            lost.append(oitems)
                        else:
                            pending.pop(other)
                            deadlines.pop(other, None)
                            self._finish(harvest)
                    rebuild(lost, "infra")
                    break  # remaining `done` futures died with the pool
                except Exception as exc:
                    # Deterministic plumbing failure (the function, kwargs
                    # or result cannot cross the process boundary):
                    # retrying cannot help, drain serially instead.
                    self.fallback = f"{type(exc).__name__}: {exc}"
                    leftovers = sorted(
                        [items, *pending.values()], key=lambda c: c[0][0]
                    )
                    _stop_pool(pool)
                    self._drain_serially(leftovers)
                    return
                else:
                    self._finish(chunk_results)

        pool.shutdown()


def default_shard_chunk(remaining: int, shards: int, workers: int) -> int:
    """The default per-acquisition chunk: ``ceil(remaining / (8·S·W))``.

    Small enough that every (shard, worker) slot turns over several
    times — stealing needs unclaimed tail work to exist, and retry and
    timeout act per chunk — while still amortising pool submission
    overhead.
    """
    return max(1, -(-remaining // (8 * max(1, shards) * max(1, workers))))


@dataclasses.dataclass
class ShardedRun:
    """What :func:`run_sharded` executed.

    ``results`` are unordered (the caller sorts by index); ``scheduler``
    holds the steal/executed accounting; ``fallbacks`` is each shard's
    serial-fallback reason (None when its pool stayed healthy, or when
    the run used no pool); ``executor`` is the label
    :attr:`~repro.runtime.runner.TrialReport.executor` reports.
    """

    results: List[TrialResult]
    scheduler: WorkStealingScheduler
    fallbacks: List[Optional[str]]
    executor: str


def run_sharded(
    trial_fn: TrialFn,
    items: List[TrialItem],
    kwargs: Dict[str, Any],
    shards: int,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    trial_timeout: Optional[float] = None,
    ledger: Optional["RunLedger"] = None,
    on_result: Optional[Callable[[TrialResult], None]] = None,
    cancel: Optional[threading.Event] = None,
) -> ShardedRun:
    """Execute ``items`` on ``shards`` drivers of ``workers`` processes each.

    ``shards=1, workers=1`` runs serially in the calling thread with no
    pool; any other shape gives every shard its own process pool (total
    parallelism ``shards * workers``).  With ``ledger`` given, a
    one-shard run appends to it directly and a sharded run appends each
    shard's records to its own ``ledger-shardNN.jsonl``, which the main
    handle's :meth:`~repro.telemetry.ledger.RunLedger.read_latest`
    merges transparently.

    ``on_result`` fires once per completed trial, after its ledger
    append (so an observer never sees a trial the ledger could lose):
    from the calling thread for shard 0 — in index order on a serial
    run — and from driver threads for the other shards, so callbacks of
    a sharded run must be thread-safe.  A set ``cancel`` event stops
    every shard acquiring or starting trials; in-flight pool chunks
    finish and are recorded, then the drivers exit.  One warning names
    the shards whose pool fell back to serial execution.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    retry = RetryPolicy() if retry is None else retry
    chunk = chunk_size or default_shard_chunk(len(items), shards, workers)
    scheduler = WorkStealingScheduler(partition_items(items, shards))

    def make_emit(shard_id: int) -> Callable[[TrialResult], None]:
        shard_ledger = ledger
        if ledger is not None and shards > 1:
            shard_ledger = ledger.shard(shard_id)

        def emit(result: TrialResult) -> None:
            if shard_ledger is not None:
                shard_ledger.append(trial_record(result))
            if on_result is not None:
                on_result(result)

        return emit

    drivers = [
        _ShardDriver(
            shard_id=s,
            scheduler=scheduler,
            trial_fn=trial_fn,
            kwargs=kwargs,
            workers=workers,
            chunk=chunk,
            retry=retry,
            trial_timeout=trial_timeout,
            emit=make_emit(s),
            cancel=cancel,
            pooled=shards > 1 or workers > 1,
        )
        for s in range(shards)
    ]
    threads = [
        threading.Thread(target=driver.drive, name=f"repro-shard-{driver.shard_id}")
        for driver in drivers[1:]
    ]
    for thread in threads:
        thread.start()
    drivers[0].drive()
    for thread in threads:
        thread.join()
    for driver in drivers:
        if driver.error is not None:
            raise driver.error

    fallbacks = [driver.fallback for driver in drivers]
    broken = [(s, f) for s, f in enumerate(fallbacks) if f is not None]
    if broken:
        warnings.warn(
            f"shard {', '.join(str(s) for s, _ in broken)}: process pool "
            f"unavailable ({broken[0][1]}); falling back to serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
    if shards > 1:
        executor = f"sharded({shards}x{workers}"
        if any(scheduler.steals):
            executor += f", steals={sum(scheduler.steals)}"
        executor += ")" + ("-mixed" if broken else "")
    elif workers == 1:
        executor = "serial"
    elif not broken:
        executor = "process-pool"
    else:
        executor = "mixed" if drivers[0].pool_results else "serial"
    return ShardedRun(
        results=[result for driver in drivers for result in driver.results],
        scheduler=scheduler,
        fallbacks=fallbacks,
        executor=executor,
    )
