"""End-to-end benchmark of the repro package.

Three workloads, each a path a user of the package runs, driven in
process on inputs made from ``--seed``:

``atlas-smoke``
    ``python -m repro atlas --smoke --ledger --cache-dir``: the smoke
    grid through :func:`repro.analysis.atlas.run_atlas` on the serial
    runner, with a run ledger and an artifact store, one sweep after
    another under a fresh master seed.  One operation is one grid cell,
    timed by the runner inside the trial.
``fleet-store``
    ``python -m repro trials --workload fleet --ledger --cache-dir``:
    fleet-evaluation trials through the ArtifactStore.  Each round runs
    a fresh batch cold (every lookup misses and publishes), then runs it
    twice more warm (every lookup hits).  One operation is one trial.
``serve-small-jobs``
    ``python -m repro serve`` on localhost with one closed-loop client: it
    submits the fleet job of the ``ServiceClient`` example in
    ``docs/SERVICE.md``, follows the job's event stream to its ``done``
    event, then submits the next.  One operation is one job, timed by
    the client from submit to ``done``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload atlas-smoke --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are end to end: median and 90th-percentile
process CPU time of an operation, operations per CPU second, and set-up
time (the median CPU time of several fresh interpreters that only
import, set up and warm up), all scaled by a reference computation
timed next to the work they scale, because the host's speed drifts.
With ``--trace 1`` the run wraps the calls into each layer of the
package in timing spans and reports instead each layer's self time per
operation, the unattributed remainder, and the artifact store's hits
and misses per operation.  See ``perfbench/README.md`` for the layers
and what each should move.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: BLAS pools are pinned to one thread so that a run's figures do not
#: depend on how many cores the host happens to lend the process.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Master seeds are ``seed * SEED_STRIDE + i`` for the i-th sweep, round
#: or job of a run; the warm-up uses the last slot of the stride.
SEED_STRIDE = 1_000_000
WARM_UP = SEED_STRIDE - 1

#: Layers of the traced run, in report order.
LAYERS = ("gen", "eval", "analysis", "store", "ledger", "trial", "runner")

#: The calls each layer's spans wrap, as ``(layer, module, attribute)``
#: with the attribute a function or ``Class.method``.  Every PUF class's
#: own ``eval`` and ``eval_noisy`` join the ``eval`` layer as well.
#: ``analysis`` is what a trial computes from its CRPs: learner fits in
#: atlas cells, the population uniqueness statistic in fleet trials.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("gen", "repro.pufs.crp", "uniform_challenges"),
    ("gen", "repro.pufs.crp", "generate_crps"),
    ("gen", "repro.runtime.chunking", "generate_crps_blocked"),
    ("eval", "repro.pufs.fleet", "Fleet.eval"),
    ("eval", "repro.pufs.fleet", "Fleet.eval_noisy"),
    ("eval", "repro.pufs.fleet", "Fleet.majority_vote"),
    ("analysis", "repro.learning.logistic", "LogisticAttack.fit"),
    ("analysis", "repro.learning.xor_logistic", "XorLogisticAttack.fit"),
    ("analysis", "repro.learning.mlp", "MLPAttack.fit"),
    ("analysis", "repro.learning.reliability_attack", "CMAReliabilityAttack.run"),
    ("analysis", "repro.pufs.metrics", "response_plane_uniqueness"),
    ("store", "repro.runtime.store", "ArtifactStore.load"),
    ("store", "repro.runtime.store", "ArtifactStore.store"),
    ("store", "repro.runtime.store", "ArtifactStore.load_fleet"),
    ("store", "repro.runtime.store", "ArtifactStore.store_fleet"),
    ("store", "repro.service.jobs", "JobStore.save"),
    ("store", "repro.service.quotas", "QuotaLedger.settle"),
    ("ledger", "repro.telemetry.ledger", "RunLedger.append"),
    ("ledger", "repro.telemetry.ledger", "RunLedger.append_many"),
    ("ledger", "repro.telemetry.ledger", "RunLedger.write_meta"),
    ("ledger", "repro.telemetry.ledger", "RunLedger.read_latest"),
    ("trial", "repro.analysis.atlas", "atlas_trial"),
    ("trial", "repro.runtime.workloads", "fleet_eval_trial"),
    ("runner", "repro.runtime.runner", "TrialRunner.run"),
)


def _master(seed: int, slot: int) -> int:
    """The master seed of the ``slot``-th sweep, round or job of a run."""
    return seed * SEED_STRIDE + slot


# ----------------------------------------------------------------------
# Tracing: spans around the calls into each layer.
# ----------------------------------------------------------------------
class Tracer:
    """Self time and call counts per layer, from spans around layer calls.

    A span's self time is its duration minus the time of the spans it
    encloses, so the layers partition the traced time.  Spans nest per
    thread (the service runs jobs on executor threads); totals merge
    under a lock.  Spans record only while ``active`` is set.
    """

    def __init__(self) -> None:
        self.active = False
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer``."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)  # time spent in enclosed spans
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                enclosed = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.busy[layer] += elapsed - enclosed
                    self.calls[layer] += 1

        return span

    def count_lookups(self, fn: Callable) -> Callable:
        """``fn``, an ArtifactStore lookup, counted as a hit or a miss."""

        @functools.wraps(fn)
        def lookup(store, *args, **kwargs):
            hits = store.hits
            try:
                return fn(store, *args, **kwargs)
            finally:
                if self.active:
                    key = "store_hits" if store.hits > hits else "store_misses"
                    with self._lock:
                        self.calls[key] += 1

        return lookup


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every module-level name and workload-registry entry bound to
    ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = replacement
    registry = getattr(sys.modules.get("repro.service.jobs"), "WORKLOADS", None)
    if isinstance(registry, dict):
        for key, entry in list(registry.items()):
            if isinstance(entry, tuple) and entry and entry[0] is original:
                registry[key] = (replacement,) + entry[1:]


def install_tracing(tracer: Tracer) -> List[str]:
    """Wrap every call named in SPAN_TARGETS in a span of its layer.

    Returns the targets this checkout does not have; their time falls to
    the enclosing layer or to the unattributed remainder.
    """
    import repro.pufs  # noqa: F401  (defines every PUF class)
    import repro.service.jobs  # noqa: F401  (the service's workload registry)
    from repro.pufs.base import PUF
    from repro.runtime.store import ArtifactStore

    targets = list(SPAN_TARGETS) + [
        ("eval", cls.__module__, f"{cls.__qualname__}.{name}")
        for cls in _subclasses(PUF)
        for name in ("eval", "eval_noisy")
        if name in vars(cls)
    ]
    missing = []
    for layer, module_name, attribute in targets:
        *owner_path, name = attribute.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{attribute}")
            continue
        span = tracer.wrap(layer, original)
        if owner_path:
            setattr(owner, name, span)
        else:
            _rebind(original, span)
    for name in ("get_or_generate", "get_or_generate_fleet"):
        if name in vars(ArtifactStore):
            setattr(
                ArtifactStore, name, tracer.count_lookups(vars(ArtifactStore)[name])
            )
        else:
            missing.append(f"repro.runtime.store:ArtifactStore.{name}")
    return missing


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
#: Reference runs per calibration, and the reference time the reported
#: costs are scaled to.
REFERENCE_REPEATS = 5
REFERENCE_SECONDS = 0.05


def _reference_work() -> None:
    """Fixed numpy and interpreter work that no change to the package moves."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160))
    for _ in range(12):
        a = np.tanh(a @ a.T / 160.0)
    total = 0
    for i in range(120_000):
        total += i * i % 7


def reference_times(repeats: int) -> List[float]:
    """Process-CPU seconds of each of ``repeats`` runs of the reference work."""
    times = []
    for _ in range(repeats):
        begin = time.process_time()
        _reference_work()
        times.append(time.process_time() - begin)
    return times


class Outcome:
    """What a timed run did: per-operation costs, failures, checks.

    The host's speed drifts with other tenants' load by far more than a
    regression bound, within a run as well as between runs.  So an
    untraced run is measured in segments: after each sweep, round or few
    jobs the workload calls :meth:`calibrate`, which times the reference
    work and scales the CPU costs of the segment just ended by it.  Time
    spent calibrating is kept out of every figure.  A traced run's
    figures are not scaled, so it does not calibrate.
    """

    def __init__(self, calibrating: bool) -> None:
        self.calibrating = calibrating
        # Wall seconds, unscaled and scaled process-CPU seconds of each
        # successful operation.
        self.latencies: List[float] = []
        self.raw_cpu: List[float] = []
        self.cpu: List[float] = []
        self.attempted = 0
        self.failed = 0
        # Wall and process-CPU seconds of the measured region, calibration
        # excluded, and the region's CPU seconds scaled segment by segment.
        self.wall = 0.0
        self.cpu_total = 0.0
        self.scaled_cpu_total = 0.0
        self.reference: List[float] = []
        self.problems: List[str] = []
        self._pending: List[float] = []  # unscaled CPU of ops in this segment
        self._start_wall = self._start_cpu = self._segment_start = 0.0
        self._calibration_wall = self._calibration_cpu = 0.0

    def start(self) -> None:
        """Open the measured region."""
        if self.calibrating:
            reference_times(1)  # first-call costs of the reference, unmeasured
        self._start_wall = time.perf_counter()
        self._start_cpu = self._segment_start = time.process_time()

    def calibrate(self) -> None:
        """End the current segment: time the reference work, scale by it."""
        if not self.calibrating:
            return
        wall, cpu = time.perf_counter(), time.process_time()
        times = reference_times(REFERENCE_REPEATS)
        scale = REFERENCE_SECONDS / statistics.median(times)
        self.reference.extend(times)
        self.cpu.extend(c * scale for c in self._pending)
        self._pending.clear()
        self.scaled_cpu_total += (cpu - self._segment_start) * scale
        self._segment_start = time.process_time()
        self._calibration_cpu += self._segment_start - cpu
        self._calibration_wall += time.perf_counter() - wall

    def stop(self) -> None:
        """Close the measured region and its last segment."""
        if self._pending:
            self.calibrate()
        self.wall = time.perf_counter() - self._start_wall - self._calibration_wall
        self.cpu_total = time.process_time() - self._start_cpu - self._calibration_cpu

    def add(self, wall: float, cpu: float) -> None:
        """Time one successful operation."""
        self.latencies.append(wall)
        self.raw_cpu.append(cpu)
        self._pending.append(cpu)

    def record(self, results: list, scheduled: int) -> None:
        """Count ``scheduled`` trial operations and time the successful ones."""
        ok = [r for r in results if r.ok]
        self.attempted += scheduled
        self.failed += scheduled - len(ok)
        for r in ok:
            self.add(r.seconds, r.cpu_seconds)

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as a failed output check unless ``ok``."""
        if not ok:
            self.problems.append(message)


class AtlasSmoke:
    """The ``atlas --smoke`` grid, one sweep after another."""

    def __init__(self, work: Path, seed: int) -> None:
        from repro.analysis import atlas

        self.atlas = atlas
        self.work = work
        self.seed = seed
        self.spec = atlas.smoke_spec()
        self.cells = atlas.expand_grid(self.spec)
        self.store_dir = work / "store"
        self.sweeps: List[tuple] = []  # (master seed, ledger, payload, report)

    def describe(self) -> str:
        return (
            f"{len(self.cells)}-cell smoke grid per sweep, serial runner, "
            "run ledger and artifact store"
        )

    def _sweep(self, spec, master_seed: int):
        """One ``atlas --ledger --cache-dir`` run: meta, sweep, boundary map."""
        from repro.telemetry.ledger import RunLedger

        ledger = RunLedger(self.work / "runs" / f"atlas-{master_seed}")
        ledger.write_meta(
            {
                "workload": "atlas",
                "spec": dataclasses.asdict(spec),
                "trials": self.atlas.num_trials(spec),
                "workers": 1,
                "shards": 1,
                "master_seed": master_seed,
            }
        )
        payload, report = self.atlas.run_atlas(
            spec,
            master_seed=master_seed,
            ledger=ledger,
            cache_dir=str(self.store_dir),
        )
        (ledger.run_dir / "boundary_map.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        (ledger.run_dir / "atlas.md").write_text(self.atlas.render_markdown(payload))
        return ledger, payload, report

    def warm_up(self) -> None:
        # One cell of every learner, so lazy imports and first calls are
        # paid before the timed sweeps.
        spec = dataclasses.replace(
            self.spec,
            families=("xor",),
            ks=(2,),
            noise_sigmas=(0.33,),
            budgets=(min(self.spec.budgets),),
        )
        self._sweep(spec, _master(self.seed, WARM_UP))

    def run(self, seconds: float, outcome: Outcome) -> None:
        # Whole sweeps only: every sweep holds the same mix of cells.
        start = time.perf_counter()
        while not self.sweeps or time.perf_counter() - start < seconds:
            master = _master(self.seed, len(self.sweeps))
            ledger, payload, report = self._sweep(self.spec, master)
            self.sweeps.append((master, ledger, payload, report))
            outcome.record(report.results, len(self.cells))
            outcome.calibrate()

    def _probe_indices(self) -> List[int]:
        """One cell per learner at the largest k: the cells re-executed."""
        first: Dict[str, int] = {}
        for index, cell in enumerate(self.cells):
            if cell.k == max(self.spec.ks):
                first.setdefault(cell.learner, index * self.spec.replicates)
        return sorted(first.values())

    def verify(self, outcome: Outcome) -> None:
        from repro.telemetry.ledger import RunLedger

        spec = self.spec
        for master, _ledger, payload, report in self.sweeps:
            outcome.check(
                payload["missing_trials"] == 0,
                f"sweep {master}: {payload['missing_trials']} cells missing",
            )
            learnable = []
            for result in report.results:
                if not result.ok:
                    continue
                cell, _ = self.atlas.cell_of_trial(spec, result.index)
                accuracy, queries = (float(v) for v in result.value)
                spend = cell.m * (
                    spec.repetitions if cell.learner == "reliability" else 1
                )
                outcome.check(
                    0.0 <= accuracy <= 1.0 and queries == spend,
                    f"sweep {master} cell {result.index}: accuracy {accuracy}, "
                    f"{queries} queries metered for a spend of {spend}",
                )
                if (
                    cell.learner == "lr"
                    and cell.representation == "parity"
                    and cell.k == 1
                    and cell.noise_sigma == 0
                    and cell.m == max(spec.budgets)
                ):
                    learnable.append(accuracy)
            # A noiseless arbiter chain is a halfspace over parity
            # features: LR at the largest budget must learn it.
            outcome.check(
                bool(learnable) and min(learnable) >= 0.85,
                f"sweep {master}: noiseless k=1 parity LR accuracies {learnable}",
            )

        # Determinism and resume: a copy of the first sweep's ledger with a
        # few cells removed must resume to the same boundary-map digest,
        # re-executing exactly the removed cells without the store.
        master, ledger, payload, _report = self.sweeps[0]
        redo = self._probe_indices()
        copy = RunLedger(self.work / "runs" / f"verify-{master}")
        copy.write_meta(ledger.read_meta() or {})
        copy.append_many(r for r in ledger.read() if r["index"] not in redo)
        replay, report = self.atlas.run_atlas(
            spec, master_seed=master, ledger=copy, resume=True
        )
        outcome.check(
            report.replayed_count == len(self.cells) * spec.replicates - len(redo),
            f"resume replayed {report.replayed_count} cells",
        )
        outcome.check(
            replay["digest"] == payload["digest"],
            f"re-executed cells {redo} changed the digest: "
            f"{replay['digest']} != {payload['digest']}",
        )

    def close(self) -> None:
        pass


def _fleet_values_ok(value, reliability: Tuple[float, float]) -> bool:
    """Whether a fleet trial's [uniqueness, uniformity, reliability] is
    plausible for unbiased instances with ``reliability`` in that range."""
    uniqueness, uniformity, measured = (float(v) for v in value)
    low, high = reliability
    return 0.4 < uniqueness < 0.6 and 0.4 < uniformity < 0.6 and low <= measured <= high


class FleetStore:
    """``trials --workload fleet --cache-dir``: each batch cold, then warm twice."""

    BATCH = 4  # trials per ``trials`` run
    PASSES = ("cold", "warm1", "warm2")

    def __init__(self, work: Path, seed: int) -> None:
        from repro.runtime import workloads
        from repro.runtime.runner import TrialRunner

        self.workloads = workloads
        self.work = work
        self.seed = seed
        self.spec = workloads.FleetEvalSpec(
            family="xor",
            n=64,
            size=128,
            k=4,
            m=2000,
            noise_sigma=0.0,
            repetitions=1,
        )
        self.runner = TrialRunner(workers=1)
        self.store_dir = work / "store"
        self.rounds: List[tuple] = []  # (master seed, [cold, warm1, warm2])

    def describe(self) -> str:
        s = self.spec
        return (
            f"{s.family} fleet n={s.n} size={s.size} k={s.k} m={s.m}, "
            f"{self.BATCH} trials per run, runs {'/'.join(self.PASSES)}"
        )

    def _run(self, master: int, label: str):
        from repro.telemetry.ledger import RunLedger

        ledger = RunLedger(self.work / "runs" / f"fleet-{master}-{label}")
        ledger.write_meta(
            {
                "workload": "fleet",
                "spec": dataclasses.asdict(self.spec),
                "trials": self.BATCH,
                "workers": 1,
                "shards": 1,
                "master_seed": master,
            }
        )
        return self.runner.run(
            self.workloads.fleet_eval_trial,
            self.BATCH,
            master,
            {"spec": self.spec, "cache_dir": str(self.store_dir)},
            ledger=ledger,
        )

    def _round(self, master: int) -> list:
        return [self._run(master, label) for label in self.PASSES]

    def warm_up(self) -> None:
        self._round(_master(self.seed, WARM_UP))

    def run(self, seconds: float, outcome: Outcome) -> None:
        # Whole rounds only: every round holds one miss per two hits.
        start = time.perf_counter()
        while not self.rounds or time.perf_counter() - start < seconds:
            master = _master(self.seed, len(self.rounds))
            reports = self._round(master)
            self.rounds.append((master, reports))
            for report in reports:
                outcome.record(report.results, self.BATCH)
            outcome.calibrate()

    def verify(self, outcome: Outcome) -> None:
        import numpy as np

        from repro.runtime.store import ArtifactStore

        for master, (cold, *warm) in self.rounds:
            for report in warm:
                same = len(report.results) == len(cold.results) == self.BATCH and all(
                    a.ok and b.ok and np.array_equal(a.value, b.value)
                    for a, b in zip(cold.results, report.results)
                )
                outcome.check(same, f"round {master}: warm values differ from cold")
            for result in cold.results:
                # Noiseless instances answer every repeat the same.
                outcome.check(
                    not result.ok or _fleet_values_ok(result.value, (1.0, 1.0)),
                    f"round {master} trial {result.index}: values {result.value}",
                )
        entries = len(ArtifactStore(self.store_dir).entries())
        expected = (len(self.rounds) + 1) * self.BATCH  # the warm-up round too
        outcome.check(
            entries == expected,
            f"store holds {entries} entries, expected one per cold trial ({expected})",
        )

    def close(self) -> None:
        pass


class ServeSmallJobs:
    """An in-process ``serve`` with one closed-loop client of small jobs."""

    #: The job of the ``ServiceClient`` example in docs/SERVICE.md: 8
    #: fleet trials, an interactive-tier job whose compute is small next
    #: to the service's per-job work.  Its seed comes from ``--seed``.
    JOB = {"workload": "fleet", "trials": 8, "spec": {"size": 64, "m": 256, "n": 32}}
    CALIBRATE_EVERY = 8  # jobs per measured segment
    CHECKED_JOBS = 4  # jobs whose digest is recomputed outside the service

    def __init__(self, work: Path, seed: int) -> None:
        from repro.service.app import ReproService
        from repro.service.client import ServiceClient

        self.seed = seed
        self.done: List[tuple] = []  # (seed, job id, record from the done event)
        self.service = ReproService(work / "service", port=0, max_concurrent=1)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self.thread = threading.Thread(target=self._serve, name="perfbench-serve")
        self.thread.start()
        if not self._ready.wait(60) or self._failure is not None:
            self.close()
            raise RuntimeError(f"the service did not start: {self._failure!r}")
        self.client = ServiceClient(self.service.host, self.service.port, timeout=60.0)
        try:
            self.client.health()
        except Exception:
            self.close()
            raise

    def describe(self) -> str:
        return (
            f"{self.JOB['trials']}-trial {self.JOB['workload']} jobs with spec "
            f"{self.JOB['spec']} (docs/SERVICE.md client example), one "
            "closed-loop client, max_concurrent=1"
        )

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.service.start())
        except Exception as exc:
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        self.loop.run_forever()

    def _job(self, seed: int) -> Tuple[float, float, str, Optional[dict]]:
        """One job from submit to ``done``: wall and process-CPU seconds,
        the job's id and its record from the ``done`` event."""
        start, cpu = time.perf_counter(), time.process_time()
        job_id = self.client.submit(seed=seed, **self.JOB)["job_id"]
        done = None
        for event in self.client.stream_events(job_id, timeout=60.0):
            if event.get("event") == "done":
                done = event["job"]
        return time.perf_counter() - start, time.process_time() - cpu, job_id, done

    def warm_up(self) -> None:
        self._job(_master(self.seed, WARM_UP))

    def run(self, seconds: float, outcome: Outcome) -> None:
        start = time.perf_counter()
        while not self.done or time.perf_counter() - start < seconds:
            seed = _master(self.seed, len(self.done))
            latency, cpu, job_id, job = self._job(seed)
            self.done.append((seed, job_id, job))
            outcome.attempted += 1
            if job is not None and job.get("state") == "done":
                outcome.add(latency, cpu)
            else:
                outcome.failed += 1
            if len(self.done) % self.CALIBRATE_EVERY == 0:
                outcome.calibrate()

    def verify(self, outcome: Outcome) -> None:
        from repro.runtime.runner import TrialRunner, trial_record
        from repro.service.jobs import build_workload, values_digest

        trials = self.JOB["trials"]
        trial_fn, spec = build_workload(self.JOB["workload"], self.JOB["spec"])
        # Every trial meters its fleet's answers: one ideal evaluation,
        # ``repetitions`` votes and one noisy measurement per challenge.
        spend = trials * spec.m * spec.size * (spec.repetitions + 2)
        for seed, job_id, job in self.done:
            result = (job or {}).get("result") or {}
            values = (self.client.job(job_id).get("result") or {}).get("values") or []
            outcome.check(
                job is not None
                and job.get("state") == "done"
                and result.get("completed") == trials
                and result.get("failed") == 0
                and result.get("total_queries") == spend
                and len(values) == trials
                and all(_fleet_values_ok(v, (0.8, 1.0)) for v in values),
                f"job with seed {seed}: state {(job or {}).get('state')}, "
                f"result {result}, values {values}",
            )
        # The service's result digest must equal a direct run's.
        last = len(self.done) - 1
        picks = sorted(
            {round(i * last / (self.CHECKED_JOBS - 1)) for i in range(self.CHECKED_JOBS)}
        )
        for pick in picks:
            seed, _job_id, job = self.done[pick]
            report = TrialRunner().run(trial_fn, trials, seed, {"spec": spec})
            digest = values_digest([trial_record(r)["value"] for r in report.results])
            served = ((job or {}).get("result") or {}).get("digest")
            outcome.check(
                served == digest,
                f"job with seed {seed}: served digest {served} != direct {digest}",
            )

    def close(self) -> None:
        if self.thread.is_alive() and self._failure is None:
            asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(60)
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("the service thread did not stop")
        self.loop.close()


WORKLOADS = {
    "atlas-smoke": AtlasSmoke,
    "fleet-store": FleetStore,
    "serve-small-jobs": ServeSmallJobs,
}


# ----------------------------------------------------------------------
# Measurement and report.
# ----------------------------------------------------------------------
def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args: argparse.Namespace) -> List[float]:
    """Scaled CPU seconds of fresh interpreters that import, set up and
    warm up.  Each interpreter times the reference work after its warm-up;
    its sample excludes that work and is scaled by its median time."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = _children_cpu()
        proc = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        spent = _children_cpu() - start
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up run exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        times = json.loads(proc.stdout.strip().splitlines()[-1])["reference"]
        scale = REFERENCE_SECONDS / statistics.median(times)
        samples.append((spent - sum(times)) * scale)
    return samples


def _p50_p90(seconds: List[float]) -> Tuple[float, float]:
    """Median and 90th percentile, in milliseconds."""
    ms = [1000.0 * s for s in seconds]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def end_to_end_metrics(outcome: Outcome, setup: List[float]) -> Dict[str, dict]:
    # Operation costs are process CPU time: on a shared host the wall
    # clock of one run moves with other tenants' load far more than any
    # bound a regression gate could use.  Wall figures are printed above.
    p50, p90 = _p50_p90(outcome.cpu)
    raw_p50, raw_p90 = _p50_p90(outcome.raw_cpu)
    print(
        f"  unscaled: cpu p50 {raw_p50:.4f} ms, p90 {raw_p90:.4f} ms, "
        f"{len(outcome.raw_cpu) / outcome.cpu_total:.3f} ops per CPU second; "
        f"reference median {statistics.median(outcome.reference):.5f} s "
        f"(of {len(outcome.reference)})"
    )
    return {
        "cpu_p50_ms": {"value": p50, "unit": "ms"},
        "cpu_p90_ms": {"value": p90, "unit": "ms"},
        "ops_per_cpu_s": {
            "value": len(outcome.cpu) / outcome.scaled_cpu_total,
            "unit": "1/s",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def layer_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, dict]:
    ops = max(outcome.attempted, 1)
    metrics = {
        f"{layer}_ms": {"value": 1000.0 * tracer.busy[layer] / ops, "unit": "ms"}
        for layer in LAYERS
    }
    traced = sum(tracer.busy[layer] for layer in LAYERS)
    metrics["unattributed_ms"] = {
        "value": 1000.0 * (outcome.wall - traced) / ops,
        "unit": "ms",
    }
    for name in ("store_hits", "store_misses"):
        metrics[f"{name}_per_op"] = {"value": tracer.calls[name] / ops, "unit": "1/op"}
    metrics["ops"] = {"value": outcome.attempted, "unit": "count"}
    return metrics


def environment() -> str:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{usable} usable of {os.cpu_count()} cpus, BLAS threads 1"
    )


def measure(args: argparse.Namespace, work: Path) -> int:
    setup = [] if args.trace else measure_setup(args)
    tracer = Tracer()
    missing = install_tracing(tracer) if args.trace else []
    bench = WORKLOADS[args.workload](work, args.seed)
    outcome = Outcome(calibrating=not args.trace)
    try:
        bench.warm_up()
        tracer.active = bool(args.trace)
        outcome.start()
        bench.run(args.seconds, outcome)
        outcome.stop()
        tracer.active = False
        bench.verify(outcome)
    finally:
        bench.close()

    correct = not outcome.problems and bool(outcome.latencies)
    print(f"{args.workload}: {bench.describe()}")
    print(f"environment: {environment()}")
    print(
        f"operations: {outcome.attempted} attempted, {outcome.failed} failed, "
        f"{outcome.wall:.3f} s wall, {outcome.cpu_total:.3f} s process CPU"
    )
    if outcome.latencies:
        p50, p90 = _p50_p90(outcome.latencies)
        print(
            f"  wall latency p50 {p50:.3f} ms, p90 {p90:.3f} ms, "
            f"{len(outcome.latencies) / outcome.wall:.3f} ops/s"
        )
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        metrics = layer_metrics(tracer, outcome)
        for layer in LAYERS:
            print(f"  layer {layer}: {tracer.calls[layer]} spans")
        for target in missing:
            print(f"  not traced (absent in this checkout): {target}")
    else:
        metrics = end_to_end_metrics(outcome, setup)
        print(f"  set-up samples: {', '.join(f'{s:.3f}' for s in setup)} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for name in THREAD_ENV:
        os.environ[name] = "1"
    # The package reads a few REPRO_* settings (store size cap, kernel
    # threads); the benchmark runs it on its defaults.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.setup_only:
            bench = WORKLOADS[args.workload](work, args.seed)
            try:
                bench.warm_up()
            finally:
                bench.close()
            # The parent scales this interpreter's set-up by the reference
            # time measured here, next to it.
            print(json.dumps({"reference": reference_times(REFERENCE_REPEATS)}))
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
