"""The assessment service: an asyncio job server over ``TrialRunner``.

``python -m repro serve`` starts one :class:`ReproService`.  Clients
submit assessment jobs over plain HTTP (``POST /v1/jobs``), poll them
(``GET /v1/jobs/{id}``), and stream per-trial progress as
newline-delimited JSON (``GET /v1/jobs/{id}/events``).  Everything is
standard library: the HTTP layer is :mod:`repro.service.routes`, and job
execution is the existing fault-tolerant sharded
:class:`~repro.runtime.runner.TrialRunner` running in a thread-pool
executor.

Design invariants
-----------------
* **All mutable service state lives on the event-loop thread.**  Worker
  threads report progress only through ``loop.call_soon_threadsafe``;
  handlers and the scheduler never run concurrently with each other.
* **The job directory is the run directory.**  Each job's trials append
  to a crash-safe :class:`~repro.telemetry.ledger.RunLedger` inside
  ``<data_dir>/jobs/<job_id>/``, and every job runs with
  ``resume_from`` pointing at its own ledger — so a SIGKILLed server
  restarted with ``--resume`` re-adopts incomplete jobs and finishes
  them bit-identically, replaying completed trials and executing only
  the missing ones.
* **Jobs run in a copied contextvars context.**  The launcher snapshots
  ``contextvars.copy_context()`` per job and installs a fresh ambient
  :class:`~repro.telemetry.meter.QueryMeter` inside it, so two jobs
  running concurrently in the executor can never share (or clobber) an
  ambient meter inherited from the loop thread.
* **Quota enforcement is admission control over the job records.**  A
  job declares an oracle-query budget; :func:`~repro.service.quotas.admit`
  rejects submissions that would overdraw the key (HTTP 429).  Usage is
  a fold over ``_jobs``: a live job reserves its declared budget, a
  finished one charges its result's ``total_queries`` — summed from its
  per-trial meter snapshots and persisted once, in its ``job.json``.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import functools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

from repro.persist import write_atomic
from repro.runtime.runner import TrialResult, TrialRunner, trial_record
from repro.telemetry.ledger import RunLedger
from repro.telemetry.meter import QueryMeter, metered

from . import quotas, routes
from .jobs import (
    ANONYMOUS_KEY,
    TERMINAL_STATES,
    Job,
    JobSpec,
    JobStore,
    build_workload,
    new_job_id,
    values_digest,
)
from .queue import PriorityJobQueue
from .quotas import QuotaExceeded

SERVICE_INFO_NAME = "service.json"

#: Seconds from accept within which a client's request head must arrive;
#: the input left unread after the answer is drained until then too.
HEAD_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# The synchronous job body (runs in the executor, inside a copied
# contextvars context — see ReproService._launch).
# ----------------------------------------------------------------------
def run_job_sync(
    job: Job,
    job_dir: Path,
    emit: Callable[[TrialResult], None],
    cancel: threading.Event,
) -> Dict[str, Any]:
    """Execute one job on ``TrialRunner`` and return its result payload.

    Always resumes from the job's own ledger: on a fresh job the ledger
    is empty and this is a no-op; on an adopted job it replays every
    completed trial bit-identically (each replay still fires ``emit``,
    so event subscribers see one event per trial regardless of how many
    restarts the job survived).
    """
    spec = job.spec
    trial_fn, workload_spec = build_workload(spec.workload, spec.spec)
    ledger = RunLedger(job_dir)
    if ledger.read_meta() is None:
        ledger.write_meta(
            {
                "job_id": job.job_id,
                "workload": spec.workload,
                "spec": dataclasses.asdict(workload_spec),
                "trials": spec.trials,
                "workers": spec.workers,
                "shards": spec.shards,
                "master_seed": spec.seed,
                "api_key": spec.api_key,
                "declared_budget": spec.budget,
            }
        )
    runner = TrialRunner(workers=spec.workers, shards=spec.shards)
    with metered(QueryMeter()):
        report = runner.run(
            trial_fn,
            spec.trials,
            spec.seed,
            {"spec": workload_spec},
            ledger=ledger,
            resume_from=ledger,
            on_result=emit,
            cancel=cancel,
        )

    meter = QueryMeter()
    for result in report.results:
        queries = (result.telemetry or {}).get("queries")
        if isinstance(queries, dict):
            meter.merge_snapshot(queries)
    values = [trial_record(r)["value"] for r in report.results]
    digest = values_digest(values)

    return {
        "cancelled": report.cancelled,
        "completed": len(report.results),
        "failed": len(report.failures()),
        "replayed": report.replayed_count,
        "executor": report.executor,
        "wall_seconds": report.wall_seconds,
        "total_queries": meter.total_queries,
        "digest": digest,
        "values": values,
    }


class ReproService:
    """The assessment-as-a-service server (see module docstring).

    Parameters
    ----------
    data_dir:
        Service state root: ``jobs/`` (one run directory per job) and
        ``service.json`` (written on start with the bound host/port/pid
        so tools can discover a ``--port 0`` server).
    host, port:
        Bind address; port 0 picks a free port.
    max_concurrent:
        Jobs running simultaneously; further jobs wait in the priority
        queue.
    default_quota:
        Cumulative oracle-query limit per API key (None disables
        enforcement, usage is still metered and recorded).
    resume:
        Re-queue incomplete (queued/running) persisted jobs on start;
        finished ones are registered either way, so their spend counts.
    """

    def __init__(
        self,
        data_dir: Path,
        host: str = "127.0.0.1",
        port: int = 8321,
        max_concurrent: int = 1,
        default_quota: Optional[int] = None,
        resume: bool = True,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.host = host
        self.port = port
        self.max_concurrent = max(1, int(max_concurrent))
        self.resume = resume
        self.default_quota = default_quota
        self.store = JobStore(self.data_dir)
        self._jobs: Dict[str, Job] = {}
        self._queue = PriorityJobQueue()
        self._cancels: Dict[str, threading.Event] = {}
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._subscribers: Dict[str, Set["asyncio.Queue[Optional[dict]]"]] = {}
        self._finish_tasks: Set["asyncio.Task[None]"] = set()
        self._connections: Set["asyncio.Task[Any]"] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrent, thread_name_prefix="repro-job"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._router = routes.Router()
        self._router.add("GET", "/v1/healthz", self._handle_healthz)
        self._router.add("GET", "/v1/quota", self._handle_quota)
        self._router.add("POST", "/v1/jobs", self._handle_submit)
        self._router.add("GET", "/v1/jobs", self._handle_list)
        self._router.add("GET", "/v1/jobs/{job_id}", self._handle_get)
        self._router.add("POST", "/v1/jobs/{job_id}/cancel", self._handle_cancel)
        # GET /v1/jobs/{job_id}/events streams; it is handled in _dispatch.

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Adopt persisted jobs, bind the listener, write service.json."""
        self._adopt_jobs()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=2 * routes.MAX_BODY_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        info = {
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "data_dir": str(self.data_dir),
        }
        write_atomic(
            self.data_dir / SERVICE_INFO_NAME,
            json.dumps(info, sort_keys=True, indent=2) + "\n",
        )
        self._pump()

    async def serve_forever(self) -> None:
        """Serve until cancelled (``python -m repro serve`` sits here)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, cancel_running: bool = True) -> None:
        """Stop accepting connections and wind down job execution.

        Open connections (a half-sent request, a live event stream) are
        cancelled and awaited here, while the loop still runs, so none is
        left to be torn down by the loop's close.
        """
        if self._server is not None:
            self._server.close()
        for task in self._connections:
            task.cancel()
        if self._connections:
            await asyncio.gather(*tuple(self._connections), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if cancel_running:
            for event in self._cancels.values():
                event.set()
        if self._finish_tasks:
            await asyncio.gather(*tuple(self._finish_tasks), return_exceptions=True)
        self._executor.shutdown(wait=True)

    def _adopt_jobs(self) -> None:
        """Register persisted jobs; with ``resume``, re-queue the rest.

        Terminal jobs are registered read-only, so their records and
        event streams stay servable and their spend counts against
        their keys.  Queued and running jobs from a previous (possibly
        SIGKILLed) server go back into the priority queue flagged
        ``adopted``, each admitted against the usage registered before
        it; one that no longer fits is failed instead.
        """
        incomplete = []
        for _, job in sorted(self.store.load_all().items()):
            if job.state in TERMINAL_STATES:
                self._register(job)
            elif self.resume:
                incomplete.append(job)
        for job in incomplete:
            job.adopted = True
            try:
                quotas.admit(
                    self._jobs.values(),
                    job.spec.api_key,
                    job.spec.budget or 0,
                    self.default_quota,
                )
            except QuotaExceeded as exc:
                job.state = "failed"
                job.error = f"quota exceeded at adoption: {exc}"
                job.finished_at = time.time()
            else:
                job.state = "queued"
                self._queue.push(job.job_id, job.spec.effective_priority)
            self._register(job)
            self.store.save(job)

    def _register(self, job: Job) -> None:
        """Make ``job`` servable: its record and its event buffer."""
        self._jobs[job.job_id] = job
        self._events.setdefault(job.job_id, [])

    # ------------------------------------------------------------------
    # Scheduling and execution.
    # ------------------------------------------------------------------
    def _running_count(self) -> int:
        return len(self._cancels)

    def _pump(self) -> None:
        """Start queued jobs while concurrency slots are free."""
        while self._running_count() < self.max_concurrent:
            job_id = self._queue.pop()
            if job_id is None:
                return
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                continue
            self._launch(job)

    def _launch(self, job: Job) -> None:
        """Start one job in the executor inside a copied context.

        ``contextvars.copy_context()`` gives the job thread a private
        snapshot of the loop thread's context, and ``run_job_sync``
        installs a fresh ambient :class:`QueryMeter` inside it — the
        satellite-4 fix: without the copy, concurrent jobs inherit the
        *same* ambient meter object through the executor threads and
        their query counts bleed into each other.

        The ``running`` state is not persisted: ``job.json`` keeps the
        ``queued`` record of submission (or adoption) until ``_finish``
        saves the outcome, and adoption re-queues either state alike.
        """
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.started_at = time.time()
        self._publish(job.job_id, {"event": "status", "state": "running"})
        cancel = threading.Event()
        self._cancels[job.job_id] = cancel

        total = job.spec.trials

        def emit(result: TrialResult) -> None:  # worker thread
            loop.call_soon_threadsafe(self._on_trial, job.job_id, result, total)

        ctx = contextvars.copy_context()
        body = functools.partial(
            ctx.run, run_job_sync, job, self.store.job_dir(job.job_id), emit, cancel
        )
        future = loop.run_in_executor(self._executor, body)
        task = loop.create_task(self._finish(job, future))
        self._finish_tasks.add(task)
        task.add_done_callback(self._finish_tasks.discard)

    def _on_trial(self, job_id: str, result: TrialResult, total: int) -> None:
        """Record one completed/replayed trial (event-loop thread)."""
        job = self._jobs.get(job_id)
        if job is None:
            return
        job.completed_trials += 1
        self._publish(
            job_id,
            {
                "event": "trial",
                "index": result.index,
                "ok": result.ok,
                "replayed": result.replayed,
                "seconds": result.seconds,
                "completed": job.completed_trials,
                "total": total,
            },
        )

    async def _finish(self, job: Job, future: "asyncio.Future[Dict[str, Any]]") -> None:
        """Record a finished job: state, persistence, events."""
        try:
            result = await future
        except Exception as exc:  # config errors, executor teardown
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            job.result = result
            job.completed_trials = result["completed"]
            if result["cancelled"]:
                job.state = "cancelled"
            elif result["failed"]:
                job.state = "failed"
                job.error = f"{result['failed']} of {job.spec.trials} trials failed"
            else:
                job.state = "done"
        job.finished_at = time.time()
        self._cancels.pop(job.job_id, None)
        self.store.save(job)
        self._publish(job.job_id, {"event": "done", "job": self._job_summary(job)})
        for queue in self._subscribers.get(job.job_id, set()):
            queue.put_nowait(None)
        self._pump()

    # ------------------------------------------------------------------
    # Events.
    # ------------------------------------------------------------------
    def _publish(self, job_id: str, event: Dict[str, Any]) -> None:
        """Buffer an event and fan it out to live subscribers."""
        self._events.setdefault(job_id, []).append(event)
        for queue in self._subscribers.get(job_id, set()):
            queue.put_nowait(event)

    def _job_summary(self, job: Job) -> Dict[str, Any]:
        """The job view used in event payloads and list responses.

        Omits the (potentially large) per-trial ``values`` array; fetch
        ``GET /v1/jobs/{id}`` for the full record.
        """
        payload = job.as_dict()
        result = payload.get("result")
        if isinstance(result, dict):
            payload["result"] = {k: v for k, v in result.items() if k != "values"}
        return payload

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_one(reader, writer)
        except (asyncio.IncompleteReadError, OSError):  # the peer went away
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        deadline = asyncio.get_running_loop().time() + HEAD_TIMEOUT_S
        try:
            async with asyncio.timeout_at(deadline):
                head = await self._read_head(reader)
        except TimeoutError:
            return
        if head is None or len(head) > routes.MAX_HEAD_BYTES:
            response = routes.error_response(413, "request head too large")
        else:
            try:
                method, path, query, headers = routes.parse_request_head(head[:-4])
                length = routes.content_length(headers)
                if length > routes.MAX_BODY_BYTES:
                    response = routes.error_response(413, "request body too large")
                else:
                    body = await reader.readexactly(length) if length else b""
                    request = routes.Request(method, path, query, headers, body)
                    response = await self._dispatch(request, reader, writer)
            except routes.BadRequest as exc:
                response = routes.error_response(400, str(exc))
        if response is None:  # an event stream, written and ended
            return
        writer.write(response.encode())
        await writer.drain()
        await self._drain_input(reader, writer, deadline)

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
        """The request head through its blank line, or ``None`` if it
        outgrows the reader's buffer limit (its rest is drained after
        the 413, see :meth:`_drain_input`)."""
        try:
            return await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return None

    @staticmethod
    async def _drain_input(
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        deadline: float,
    ) -> None:
        """Half-close, then read and drop input until EOF or ``deadline``.

        Closing a socket over unread input (an oversized head or body,
        a pipelined second request) resets the connection, which can
        destroy the answer already sent before the client reads it.
        The EOF sent here tells the client the answer is whole; its
        close ends the read.  A trickling client gets no second window:
        the head deadline bounds this read too.
        """
        writer.write_eof()
        try:
            async with asyncio.timeout_at(deadline):
                await _read_to_eof(reader)
        except TimeoutError:
            pass

    async def _dispatch(
        self,
        request: routes.Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Optional[routes.Response]:
        """The answer to ``request``, or None for an event stream, which
        writes for as long as the job runs and ends itself."""
        events_match = None
        if request.path.startswith("/v1/jobs/") and request.path.endswith("/events"):
            events_match = request.path[len("/v1/jobs/") : -len("/events")]
        if events_match is not None and request.method == "GET":
            if events_match not in self._jobs:
                return routes.error_response(404, f"no such job: {events_match}")
            await self._handle_events(events_match, reader, writer)
            return None
        handler, params, path_known = self._router.match(request.method, request.path)
        if handler is None:
            response = (
                routes.error_response(405, f"method {request.method} not allowed")
                if path_known
                else routes.error_response(404, f"no route for {request.path}")
            )
        else:
            try:
                response = handler(request, **params)
            except routes.BadRequest as exc:
                response = routes.error_response(400, str(exc))
            except QuotaExceeded as exc:
                response = routes.json_response(
                    429, {"error": {"message": str(exc), **exc.as_dict()}}
                )
            except ValueError as exc:
                response = routes.error_response(400, str(exc))
            except Exception as exc:  # never leak a traceback to the wire
                response = routes.error_response(
                    500, f"{type(exc).__name__}: {exc}"
                )
        return response

    # ------------------------------------------------------------------
    # Plain-HTTP handlers (synchronous: they only touch loop-thread state).
    # ------------------------------------------------------------------
    def _handle_healthz(self, request: routes.Request) -> routes.Response:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return routes.json_response(
            200,
            {
                "ok": True,
                "jobs": states,
                "queued": len(self._queue),
                "running": self._running_count(),
                "max_concurrent": self.max_concurrent,
            },
        )

    def _handle_quota(self, request: routes.Request) -> routes.Response:
        api_key = request.header("x-api-key") or ANONYMOUS_KEY
        return routes.json_response(
            200, quotas.status(self._jobs.values(), api_key, self.default_quota)
        )

    def _handle_submit(self, request: routes.Request) -> routes.Response:
        payload = request.json_body()
        if not isinstance(payload, dict):
            raise routes.BadRequest("job submission must be a JSON object")
        api_key = request.header("x-api-key") or payload.get("api_key") or ANONYMOUS_KEY
        payload["api_key"] = api_key
        try:
            spec = JobSpec.from_dict(payload)
        except TypeError as exc:
            raise routes.BadRequest(str(exc)) from exc
        quotas.admit(  # QuotaExceeded: 429
            self._jobs.values(), api_key, spec.budget or 0, self.default_quota
        )
        job = Job(job_id=new_job_id(), spec=spec)
        self._register(job)
        self.store.save(job)
        self._queue.push(job.job_id, spec.effective_priority)
        self._publish(job.job_id, {"event": "status", "state": "queued"})
        self._pump()
        return routes.json_response(201, self._job_summary(job))

    def _handle_list(self, request: routes.Request) -> routes.Response:
        state = request.query.get("state")
        jobs = [
            self._job_summary(job)
            for job in sorted(self._jobs.values(), key=lambda j: j.created_at)
            if state is None or job.state == state
        ]
        return routes.json_response(200, {"jobs": jobs, "count": len(jobs)})

    def _handle_get(self, request: routes.Request, job_id: str) -> routes.Response:
        job = self._jobs.get(job_id)
        if job is None:
            return routes.error_response(404, f"no such job: {job_id}")
        return routes.json_response(200, job.as_dict())

    def _handle_cancel(self, request: routes.Request, job_id: str) -> routes.Response:
        job = self._jobs.get(job_id)
        if job is None:
            return routes.error_response(404, f"no such job: {job_id}")
        if job.state in TERMINAL_STATES:
            return routes.error_response(
                409, f"job {job_id} is already {job.state}"
            )
        if job.state == "queued" and self._queue.remove(job_id):
            job.state = "cancelled"
            job.finished_at = time.time()
            self.store.save(job)
            self._publish(job_id, {"event": "done", "job": self._job_summary(job)})
            for queue in self._subscribers.get(job_id, set()):
                queue.put_nowait(None)
        elif job_id in self._cancels:
            self._cancels[job_id].set()  # _finish records the outcome
        return routes.json_response(200, self._job_summary(job))

    # ------------------------------------------------------------------
    # The NDJSON event stream.
    # ------------------------------------------------------------------
    async def _handle_events(
        self,
        job_id: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Write ``hello``, the buffered events, then live ones to ``done``.

        One ``json.dumps(event, sort_keys=True)`` line per event, no
        ``Content-Length``: the body ends when the connection closes.
        """
        job = self._jobs[job_id]
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )

        # Snapshot the buffer and subscribe atomically (loop thread, no
        # await between the two) so no event is missed or duplicated.
        backlog = list(self._events.get(job_id, ()))
        queue: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        subscribed = job.state not in TERMINAL_STATES
        if subscribed:
            self._subscribers.setdefault(job_id, set()).add(queue)
        # The client sends nothing after its request, so EOF means it left;
        # the None then ends the stream as a finished job's does.
        hangup = asyncio.ensure_future(_read_to_eof(reader))
        hangup.add_done_callback(lambda _: queue.put_nowait(None))
        try:
            for event in [{"event": "hello", "job": self._job_summary(job)}, *backlog]:
                writer.write(_ndjson_line(event))
            await writer.drain()
            while subscribed and (event := await queue.get()) is not None:
                writer.write(_ndjson_line(event))
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            hangup.cancel()
            self._subscribers.get(job_id, set()).discard(queue)


def _ndjson_line(event: Dict[str, Any]) -> bytes:
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


async def _read_to_eof(reader: asyncio.StreamReader) -> None:
    """Discard whatever the peer sends until it closes its end."""
    try:
        while await reader.read(1 << 16):
            pass
    except (ConnectionError, OSError):
        pass


async def _serve_main(service: ReproService) -> None:
    """Run the service until SIGINT/SIGTERM."""
    import signal

    await service.start()
    print(f"repro service listening on http://{service.host}:{service.port}")
    print(f"data dir: {service.data_dir}")
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    serve = asyncio.ensure_future(service.serve_forever())
    stopper = asyncio.ensure_future(stop.wait())
    await asyncio.wait({serve, stopper}, return_when=asyncio.FIRST_COMPLETED)
    serve.cancel()
    stopper.cancel()
    await service.stop(cancel_running=True)


def run_serve(
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 8321,
    max_concurrent: int = 1,
    default_quota: Optional[int] = None,
    resume: bool = True,
) -> int:
    """The ``python -m repro serve`` entry point."""
    service = ReproService(
        Path(data_dir),
        host=host,
        port=port,
        max_concurrent=max_concurrent,
        default_quota=default_quota,
        resume=resume,
    )
    try:
        asyncio.run(_serve_main(service))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    return 0
