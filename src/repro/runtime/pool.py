"""Trial dispatch: one driver loop for serial and pooled runs.

Every :meth:`~repro.runtime.runner.TrialRunner.run` that executes trials
goes through :func:`run_pool`.  The trials are cut into chunks of
consecutive indices held in a deque; the driver takes chunks from its
head and either runs them in the calling thread (``workers=1``, the
serial run, trials in index order) or feeds them to one process pool of
``workers`` processes.

Fault policy, because trials stay pure functions of
``(master_seed, index)``:

* **Bit-identical replay** — which worker executes a trial is
  unobservable in its result; the caller re-orders by index.
* **Trial errors** are captured in-worker and never retried.
* **Worker death and hangs** — at most ``workers`` chunks are in flight,
  so a chunk's ``trial_timeout`` deadline (armed at submit) measures
  execution, not backlog; a hang or a dead worker kills the workers
  *then* shuts the pool down, harvests futures that already hold
  results, and resubmits the lost chunks under the
  :class:`~repro.runtime.runner.RetryPolicy` with seed-derived backoff.
* **Pickling failures** are deterministic.  A trial function or kwargs
  that cannot be pickled is caught before any pool starts, and the run
  goes serial; a result that cannot cross back shuts the pool down and
  drains the in-flight and queued chunks serially.  Either drain checks
  ``cancel`` before every trial.
* **Crash-safe resume** — each completed trial is appended to the run's
  ``ledger.jsonl`` before ``on_result`` sees it, so ``--resume`` replays
  exactly what the ledger holds.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple

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
    from concurrent.futures import ProcessPoolExecutor

    from repro.telemetry.ledger import RunLedger

#: One schedulable unit: ``(trial index, its SeedSequence)``.
TrialItem = Tuple[int, "np.random.SeedSequence"]


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


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: exit once the process that made the pool dies.

    A SIGKILLed parent cannot shut its pool down, and its idle workers
    would block on the call queue forever, re-parented to init.  A daemon
    thread polls ``os.getppid()`` and ends the worker with ``os._exit``
    as soon as it changes.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers do not outlive this process.

    The pool machinery (``concurrent.futures.process``, which loads
    ``multiprocessing``) is imported here, so a serial run never loads it.
    """
    from concurrent.futures.process import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


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


class _Driver:
    """Runs the queued chunks on one process pool, or in this thread.

    The pool path keeps at most ``workers`` chunks in flight, rebuilds
    the pool (kill, then shut down) on a hang or a dead worker after
    harvesting completed futures, retries lost chunks with seed-derived
    backoff, and falls back to the serial drain when the pool cannot be
    used.  With one worker the serial drain is the whole run.
    """

    def __init__(
        self,
        queue: Deque[List[TrialItem]],
        trial_fn: TrialFn,
        kwargs: Dict[str, Any],
        workers: int,
        retry: RetryPolicy,
        trial_timeout: Optional[float],
        emit: Callable[[TrialResult], None],
        cancel: Optional[threading.Event],
    ) -> None:
        self.queue = queue
        self.trial_fn = trial_fn
        self.kwargs = kwargs
        self.workers = workers
        self.retry = retry
        self.trial_timeout = trial_timeout
        self.emit = emit
        self.cancel = cancel
        self.results: List[TrialResult] = []
        #: Why the pool was given up (None while it stayed healthy).
        self.fallback: Optional[str] = None
        #: Results the pool produced before the serial drain took over.
        self.pool_results = 0

    def _cancelled(self) -> bool:
        """Whether the run's cooperative stop event has been set."""
        return self.cancel is not None and self.cancel.is_set()

    def _finish(self, chunk_results: List[TrialResult]) -> None:
        for result in chunk_results:
            self.emit(result)
        self.results.extend(chunk_results)

    def drain_serially(self, leftovers: List[List[TrialItem]]) -> None:
        """Run ``leftovers``, then every still-queued chunk, in this thread.

        ``cancel`` is checked before every trial, leftovers included.
        """
        self.pool_results = len(self.results)
        self.queue.extendleft(reversed(leftovers))
        while self.queue:
            for index, seed in self.queue.popleft():
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
                f"{reason} on trials {[i for i, _ in items]}; pool rebuilt, "
                f"retrying (attempt {attempts + 1})",
                RuntimeWarning,
            )
            delay = self.retry.delay(attempts, items[0][1])
            if delay > 0:
                time.sleep(delay)
            return True
        if died:
            message = f"{reason}; retry budget exhausted after {attempts} attempt(s)"
        else:
            message = (
                f"trial exceeded trial_timeout={self.trial_timeout}s on every "
                f"one of {attempts} attempt(s); worker killed"
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

    def drive_pool(self) -> None:
        """Run every queued chunk on a pool of ``workers`` processes."""
        try:
            from concurrent.futures.process import BrokenProcessPool

            pool = _new_pool(self.workers)
        except Exception as exc:  # no POSIX semaphores, fork failure, ...
            self.fallback = f"{type(exc).__name__}: {exc}"
            self.drain_serially([])
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
            # event stops submission; in-flight chunks drain.
            while self.queue and not self._cancelled() and len(pending) < self.workers:
                submit(self.queue.popleft())

        def rebuild(lost: List[List[TrialItem]], category: str) -> None:
            # Everything in flight dies with the pool.  The `lost` chunks
            # are charged an attempt; innocents resubmit uncharged.
            nonlocal pool
            lost_keys = {items[0][0] for items in lost}
            victims = {items[0][0]: items for items in [*pending.values(), *lost]}
            _stop_pool(pool)
            pending.clear()
            deadlines.clear()
            pool = _new_pool(self.workers)
            for ckey in sorted(victims):
                if ckey not in lost_keys:
                    submit(victims[ckey], charge=False)
                elif self._lose(victims[ckey], category, attempts[ckey]):
                    submit(victims[ckey])

        while True:
            pump()
            if not pending:
                break  # queue dry (or cancelled) and nothing in flight
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                now = time.monotonic()
                overdue = [pending[f] for f, d in deadlines.items() if d <= now]
                if overdue:
                    rebuild(overdue, "timeout")  # a worker hung past its deadline
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
                    # Deterministic plumbing failure (a result cannot
                    # cross back; the function and kwargs were checked
                    # before any pool started): retrying cannot help, so
                    # shut the healthy pool down and drain serially.
                    self.fallback = f"{type(exc).__name__}: {exc}"
                    leftovers = sorted(
                        [items, *pending.values()], key=lambda c: c[0][0]
                    )
                    pool.shutdown(wait=True, cancel_futures=True)
                    self.drain_serially(leftovers)
                    return
                else:
                    self._finish(chunk_results)

        pool.shutdown()


def default_chunk(remaining: int, workers: int) -> int:
    """The default chunk: ``ceil(remaining / (8·workers))``.

    Small enough that every worker turns over several times — retry and
    timeout act per chunk — while still amortising pool submission
    overhead.
    """
    return max(1, -(-remaining // (8 * max(1, workers))))


def run_pool(
    trial_fn: TrialFn,
    items: List[TrialItem],
    kwargs: Dict[str, Any],
    workers: int = 1,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    trial_timeout: Optional[float] = None,
    ledger: Optional["RunLedger"] = None,
    on_result: Optional[Callable[[TrialResult], None]] = None,
    cancel: Optional[threading.Event] = None,
) -> Tuple[List[TrialResult], str]:
    """Execute ``items`` serially or on one pool; ``(results, executor)``.

    ``workers=1`` runs serially in the calling thread with no pool; more
    gives one process pool of ``workers`` processes.  The results are
    unordered (the caller sorts by index), and ``executor`` is the label
    :attr:`~repro.runtime.runner.TrialReport.executor` reports.  With
    ``ledger`` given, each result is appended to it as it completes.

    ``on_result`` fires once per completed trial, from the calling
    thread, after its ledger append (so an observer never sees a trial
    the ledger could lose); on a serial run it fires in index order.  A
    set ``cancel`` event stops the run starting trials; in-flight pool
    chunks finish and are recorded.  A pool that falls back to serial
    execution warns once.
    """
    retry = RetryPolicy() if retry is None else retry
    chunk = chunk_size or default_chunk(len(items), workers)
    queue = deque(items[i : i + chunk] for i in range(0, len(items), chunk))

    def emit(result: TrialResult) -> None:
        if ledger is not None:
            ledger.append(trial_record(result))
        if on_result is not None:
            on_result(result)

    driver = _Driver(
        queue, trial_fn, kwargs, workers, retry, trial_timeout, emit, cancel
    )
    if workers == 1:
        driver.drain_serially([])
        return driver.results, "serial"
    try:
        # A function or kwargs that cannot cross the process boundary
        # would fail every chunk; find out before any pool starts.
        pickle.dumps((trial_fn, kwargs))
    except Exception as exc:
        driver.fallback = f"{type(exc).__name__}: {exc}"
        driver.drain_serially([])
    else:
        driver.drive_pool()
    if driver.fallback is None:
        return driver.results, "process-pool"
    warnings.warn(
        f"process pool unavailable ({driver.fallback}); falling back to "
        "serial execution",
        RuntimeWarning,
        stacklevel=3,
    )
    return driver.results, "mixed" if driver.pool_results else "serial"
