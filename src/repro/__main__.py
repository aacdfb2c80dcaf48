"""Command-line front end: ``python -m repro``.

Subcommands:

* ``assess`` — Table I adversary-model assessment for an XOR Arbiter PUF::

      python -m repro assess --n 64 --k 6 --eps 0.05 --delta 0.05

* ``attack-demo`` — a 30-second tour: lock c17, run the SAT attack,
  print the recovered key.

* ``trials`` — the parallel experiment runtime: fan a workload from
  :data:`repro.runtime.workloads.WORKLOADS` out over worker processes,
  report per-trial timings, speedup over serial, and the bit-identity
  check.  The spec is the workload dataclass's defaults, overridden by
  repeatable ``--spec KEY=VALUE`` pairs (VALUE is JSON, else a plain
  string) — the same pairs a service job's ``spec`` object holds;
  ``--smoke`` puts the workload's seconds-fast CI tier under them.
  ``--ledger`` additionally writes a query-accounting run directory,
  ``--retries``/``--trial-timeout`` configure the retry policy for
  infrastructure failures, and ``--resume`` replays a killed run's
  ledger so only missing trials re-execute.  ``--shards N`` runs N
  work-stealing process pools with per-shard mergeable ledgers;
  ``--cache-dir`` memoises workload artifacts in an ``ArtifactStore``
  (``--cache-max-bytes`` caps it, ``--cache-stats`` prints and records
  hit/miss/bytes counters)::

      python -m repro trials --trials 32 --workers 4
      python -m repro trials --spec n=24 --spec 'budgets=[50,200]'
      python -m repro trials --workload lmn --trials 4 --ledger
      python -m repro trials --ledger --run-id demo --resume
      python -m repro trials --workload fleet --shards 2 --smoke

* ``report`` — aggregate a run ledger into ``report.md``/``report.json``
  comparing the measured query counts against the ``pac.bounds``
  predictions (exit 1 on a bound violation)::

      python -m repro report runs/<run_id>

* ``atlas`` — the security-boundary atlas: sweep a grid of (family,
  learner, representation, n, k, sigma, m) cells and reduce them to
  boundary maps.  The grid is ``AtlasTrialSpec`` set through the same
  ``--spec KEY=VALUE`` pairs as ``trials`` (``--smoke`` puts the CI grid
  under them)::

      python -m repro atlas --smoke
      python -m repro atlas --spec 'families=["xor"]' --spec 'ks=[1,2]'

* ``bench`` — time one benchmark suite (``kernels``: the character
  kernel vs the per-subset loops; ``fleet``: the stacked-GEMM fleet vs
  the per-instance loop; ``store``: warm-start replay and shard
  scaling; ``active``: the adaptive-vs-passive query atlas), check
  every case against its reference path, and regenerate the suite's
  machine-readable baseline::

      python -m repro bench kernels --out benchmarks/results/BENCH_kernels.json
      python -m repro bench fleet --smoke

* ``docs-bench`` — regenerate ``docs/BENCHMARKS.md`` from the committed
  ``benchmarks/results/BENCH_*.json`` baselines (``--check`` fails on
  drift; CI runs it so the page can never go stale).

* ``lint-docstrings`` — AST-based docstring-coverage gate over the
  instrumented packages (``--fail-under`` sets the CI threshold).

* ``conformance`` — run the differential + metamorphic conformance
  suite (see ``docs/TESTING.md``): every statistical relation draws its
  alpha from a family-wise error budget, every relation's exact seed is
  printed on violation, and ``--ledger`` writes one JSONL record per
  relation.  Exit 1 on any violation::

      python -m repro conformance
      python -m repro conformance --smoke --ledger
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def cmd_assess(args: argparse.Namespace) -> int:
    from repro.analysis.tables import TableBuilder
    from repro.pac import PACParameters, XorArbiterSpec, table1_rows

    params = PACParameters(eps=args.eps, delta=args.delta)
    rows = table1_rows(
        XorArbiterSpec(args.n, args.k), params, junta_size=args.junta_size
    )
    table = TableBuilder(
        ["adversary model", "log10(#CRPs)", "verdict", "rationale"],
        title=(
            f"Adversary-model assessment: {args.k}-XOR, {args.n}-bit arbiter "
            f"PUF (eps={args.eps}, delta={args.delta})"
        ),
    )
    for row in rows:
        table.add_row(
            row.adversary.name,
            f"{row.crp_bound_log10:.1f}",
            row.verdict.value,
            row.rationale,
        )
    print(table.render())
    verdicts = {row.verdict for row in rows}
    if len(verdicts) > 1:
        print(
            "\nVerdicts disagree across adversary models — quoting any single "
            "row as 'the' security level is the pitfall the paper warns about."
        )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.pac import PACParameters, XorArbiterSpec, table1_rows
    from repro.pac.audit import audit_assessments

    params = PACParameters(eps=args.eps, delta=args.delta)
    rows = table1_rows(
        XorArbiterSpec(args.n, args.k), params, junta_size=args.junta_size
    )
    print("assessments:")
    for row in rows:
        print("  " + row.summary())
    unsound = audit_assessments(rows)
    if not unsound:
        print("\nno unsound cross-quotations at this parameter point.")
        return 0
    print(f"\n{len(unsound)} UNSOUND quotations (the pitfalls):")
    for audit in unsound:
        print("  " + audit.summary())
    return 0


def cmd_attack_demo(args: argparse.Namespace) -> int:
    from repro.locking import SATAttack, c17, random_lock

    rng = np.random.default_rng(args.seed)
    locked = random_lock(c17(), args.key_length, rng)
    result = SATAttack().run(locked)
    print(f"locked c17 with {args.key_length} key bits; secret {locked.correct_key}")
    print(result.summary())
    if result.key is not None:
        print(f"recovered key: {result.key}")
        print(
            "functionally correct:",
            locked.key_is_functionally_correct(result.key),
        )
    return 0 if result.success else 1


class _SpecPair(tuple):
    """``(key, value)`` of one ``--spec KEY=VALUE``, with ``text`` as given."""

    def __new__(cls, key, value, text):
        pair = super().__new__(cls, (key, value))
        pair.text = text
        return pair


def _spec_pair(text: str) -> _SpecPair:
    """One ``--spec KEY=VALUE``: VALUE as JSON, else as a plain string."""
    import json

    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        return _SpecPair(key, json.loads(raw), text)
    except ValueError:
        return _SpecPair(key, raw, text)


def _trials_workload(args: argparse.Namespace):
    """``(trial_fn, spec, column labels)`` for a ``trials`` or ``atlas`` run.

    The spec is the registry entry's dataclass defaults, then its smoke
    overrides under ``--smoke``, then every ``--spec`` pair (a later pair
    for the same key wins), built by the same
    :func:`~repro.runtime.workloads.build_workload` the service calls.
    """
    from repro.runtime.workloads import WORKLOADS, build_workload

    _, _, labels, smoke = WORKLOADS[args.workload]
    overrides = dict(smoke) if args.smoke else {}
    overrides.update(args.spec)
    trial_fn, spec = build_workload(args.workload, overrides)
    return trial_fn, spec, labels(spec)


def _run_flags_error(args: argparse.Namespace):
    """The message for an unusable ``--resume``/``--retries``, else None."""
    if args.resume and not args.run_id:
        return "--resume needs --run-id (the run directory to pick up)"
    if args.retries < 0:
        return "--retries must be >= 0 (0 disables retrying)"
    return None


def _retry_policy(retries: int):
    """Map ``--retries`` (extra attempts after the first; 0 = no retry)
    onto :class:`~repro.runtime.RetryPolicy`, whose ``max_attempts``
    counts total executions."""
    from repro.runtime import RetryPolicy

    if retries < 0:
        raise ValueError(f"--retries must be >= 0, got {retries}")
    return RetryPolicy(max_attempts=retries + 1)


def _resume_mismatches(meta, workload: str, spec, trials: int, seed) -> list:
    """Fields where a run's ``meta.json`` disagrees with this invocation.

    The spec is canonicalised through a JSON round-trip so tuples compare
    equal to the lists ``meta.json`` stores.
    """
    import dataclasses
    import json

    current = {
        "workload": workload,
        "spec": json.loads(json.dumps(dataclasses.asdict(spec))),
        "trials": trials,
        "master_seed": seed,
    }
    return [
        f"{key}: run has {meta[key]!r}, this invocation has {value!r}"
        for key, value in current.items()
        if key in meta and meta[key] != value
    ]


def _open_ledger(args: argparse.Namespace, spec, trials: int, **meta):
    """``(ledger, status)`` for a ``--ledger`` or ``--resume`` run.

    The ledger is None without either flag.  A fresh run writes
    ``meta.json``: workload, spec, trial count, workers, shards, master
    seed, then ``meta``.  ``--resume`` keeps an existing ``meta.json``,
    and when it disagrees with this invocation prints the differing
    fields and returns status 2, the exit status; otherwise status is 0.
    """
    if not (args.ledger or args.resume):
        return None, 0
    import dataclasses
    from pathlib import Path

    from repro.telemetry import RunLedger, new_run_id

    run_id = args.run_id or new_run_id(args.workload)
    ledger = RunLedger(Path(args.runs_dir) / run_id)
    existing = ledger.read_meta()
    if args.resume and existing is not None:
        mismatches = _resume_mismatches(
            existing, args.workload, spec, trials, args.seed
        )
        if mismatches:
            print(
                f"cannot --resume {ledger.run_dir}: its meta.json "
                "disagrees with this invocation"
            )
            for line in mismatches:
                print("  " + line)
            return None, 2
        return ledger, 0
    ledger.write_meta(
        {
            "workload": args.workload,
            "spec": dataclasses.asdict(spec),
            "trials": trials,
            "workers": args.workers,
            "shards": args.shards,
            "master_seed": args.seed,
            **meta,
        }
    )
    return ledger, 0


def _results_match(a, b) -> bool:
    """Bit-identity for one (serial, parallel) result pair.

    Successes compare by value; deterministic failures compare by
    exception type (the traceback strings differ across processes).  An
    ok/error mismatch is a determinism violation like any value mismatch.
    """
    if a.ok and b.ok:
        return bool(np.array_equal(a.value, b.value))
    if not a.ok and not b.ok:
        return a.error.exc_type == b.error.exc_type
    return False


def _aggregate_cache_stats(results) -> dict:
    """Sum the artifact-store counters shipped back in trial telemetry.

    Every trial ran against a per-process :class:`ArtifactStore` handle,
    but each handle's hits/misses landed on that trial's ambient
    :class:`QueryMeter` and travelled home in
    ``TrialResult.telemetry["queries"]["counters"]`` — so the run-wide
    totals are a plain sum over results, regardless of worker or shard
    count.

    Trials are heterogeneous: a cached trial carries the full
    ``artifact_store.*`` counter set, an uncached one only some of it,
    and a record replayed from a pre-store resume ledger may have no
    counters (or no telemetry) at all.  Every lookup therefore defaults
    to 0 — a missing key means "this trial did none of that", never an
    error or a skewed total.
    """
    totals = {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "corrupt": 0,
        "stores": 0,
        "bytes_served": 0,
        "bytes_stored": 0,
    }
    for result in results:
        telemetry = result.telemetry or {}
        queries = telemetry.get("queries") or {}
        counters = queries.get("counters") if isinstance(queries, dict) else None
        if not isinstance(counters, dict):
            continue
        for name in totals:
            totals[name] += int(counters.get(f"artifact_store.{name}", 0) or 0)
    return totals


def cmd_trials(args: argparse.Namespace) -> int:
    import inspect

    from repro.analysis.tables import TableBuilder
    from repro.runtime import TrialRunner

    error = _run_flags_error(args)
    if error:
        print(error)
        return 2
    try:
        trial_fn, spec, columns = _trials_workload(args)
    except ValueError as exc:
        print(exc)
        return 2
    kwargs = {"spec": spec}
    if args.cache_dir is not None:
        if "cache_dir" not in inspect.signature(trial_fn).parameters:
            print(f"--cache-dir is not supported by the {args.workload} workload")
            return 2
        kwargs["cache_dir"] = args.cache_dir
        kwargs["cache_max_bytes"] = args.cache_max_bytes
    retry = _retry_policy(args.retries)
    print(
        f"workload: {args.trials} {args.workload} trials ({spec!r}), "
        f"master seed {args.seed}"
    )
    ledger, status = _open_ledger(
        args, spec, args.trials, eps=args.eps, delta=args.delta
    )
    if status:
        return status

    serial = None
    if not args.skip_serial:
        serial = TrialRunner(workers=1).run(
            trial_fn, args.trials, args.seed, kwargs, retry=retry
        )
        print(f"serial:   {serial.summary()}")
    parallel = TrialRunner(workers=args.workers, shards=args.shards).run(
        trial_fn,
        args.trials,
        args.seed,
        kwargs,
        ledger=ledger,
        resume_from=ledger if args.resume else None,
        retry=retry,
        trial_timeout=args.trial_timeout,
    )
    print(f"parallel: {parallel.summary()}")

    table = TableBuilder(
        ["trial", "seconds"] + columns,
        title=f"per-trial timings and results (parallel run, {args.workload})",
    )
    for result in parallel.results:
        if result.ok:
            cells = [f"{a:.4f}" for a in np.atleast_1d(result.value)]
        else:
            cells = [f"ERROR: {result.error.exc_type}"] + [""] * (len(columns) - 1)
        table.add_row(result.index, f"{result.seconds:.3f}", *cells)
    print(table.render())

    failures = parallel.failures()
    for failed in failures:
        print(f"FAILED {failed.error.summary()} (attempts={failed.attempts})")
    if args.cache_stats:
        stats = _aggregate_cache_stats(parallel.results)
        print(
            "cache stats: "
            f"hits={stats['hits']} misses={stats['misses']} "
            f"evictions={stats['evictions']} corrupt={stats['corrupt']} "
            f"bytes_served={stats['bytes_served']} "
            f"bytes_stored={stats['bytes_stored']}"
        )
        if ledger is not None:
            meta = ledger.read_meta() or {}
            meta["cache_stats"] = stats
            ledger.write_meta(meta)
    if ledger is not None:
        print(f"ledger: {ledger.path}")
        print(f"next: python -m repro report {ledger.run_dir}")

    if serial is not None:
        identical = all(
            _results_match(a, b)
            for a, b in zip(serial.results, parallel.results)
        )
        speedup = serial.wall_seconds / max(parallel.wall_seconds, 1e-9)
        print(
            f"speedup: {speedup:.2f}x at workers={args.workers} "
            f"({serial.wall_seconds:.2f}s serial vs "
            f"{parallel.wall_seconds:.2f}s parallel)"
        )
        print(f"bit-identical results across worker counts: {identical}")
        if not identical:
            print("DETERMINISM VIOLATION: parallel results differ from serial")
            return 1
    return 1 if failures else 0


def _atlas_command(args: argparse.Namespace) -> str:
    """The ``atlas`` command line that reproduces this run's boundary maps:
    ``--smoke``, every ``--spec`` pair as given, and ``--seed`` /
    ``--frontier`` where they differ from their defaults."""
    import shlex

    from repro.analysis.atlas import DEFAULT_FRONTIER

    words = ["python -m repro atlas"]
    if args.smoke:
        words.append("--smoke")
    words += [f"--spec {shlex.quote(pair.text)}" for pair in args.spec]
    if args.seed != 0:
        words.append(f"--seed {args.seed}")
    if args.frontier != DEFAULT_FRONTIER:
        words.append(f"--frontier {args.frontier!r}")
    return " ".join(words)


def cmd_atlas(args: argparse.Namespace) -> int:
    """Run the security-boundary atlas sweep and write boundary maps."""
    import json
    from pathlib import Path

    from repro.analysis import atlas as atlas_mod
    from repro.persist import write_atomic

    error = _run_flags_error(args)
    if error:
        print(error)
        return 2
    try:
        atlas_mod.check_frontier(args.frontier)
        _, spec, _ = _trials_workload(args)
    except ValueError as exc:
        print(exc)
        return 2

    cells = atlas_mod.expand_grid(spec)
    trials = atlas_mod.num_trials(spec)
    print(
        f"atlas: {len(cells)} cells x {spec.replicates} replicate(s) = "
        f"{trials} trials, master seed {args.seed}"
    )
    ledger, status = _open_ledger(args, spec, trials)
    if status:
        return status

    payload, report = atlas_mod.run_atlas(
        spec,
        master_seed=args.seed,
        workers=args.workers,
        shards=args.shards,
        ledger=ledger,
        resume=args.resume,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        frontier=args.frontier,
        retry=_retry_policy(args.retries),
    )
    print(f"run: {report.summary()}")
    for map_ in payload["maps"]:
        frontier_bits = ", ".join(
            f"k={k}: "
            + (
                f"broken at m={map_['frontier'][str(k)]}"
                if map_["frontier"][str(k)] is not None
                else "holds"
            )
            for k in map_["ks"]
        )
        print(
            f"  {map_['family']}/{map_['learner']}/{map_['representation']} "
            f"n={map_['n']} sigma={map_['noise_sigma']:g}: {frontier_bits}"
        )
    print(f"boundary-map digest: {payload['digest']}")

    failures = report.failures()
    for failed in failures:
        print(f"FAILED {failed.error.summary()} (attempts={failed.attempts})")

    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
    elif ledger is not None:
        out_dir = ledger.run_dir
    if out_dir is not None:
        map_path = out_dir / "boundary_map.json"
        write_atomic(map_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        write_atomic(out_dir / "atlas.md", atlas_mod.render_markdown(payload))
        print(f"boundary map: {map_path}")
        print(f"heatmaps: {out_dir / 'atlas.md'}")
    if args.bench_out is not None:
        bench = {
            "generated_by": _atlas_command(args),
            "cases": atlas_mod.bench_cases(payload),
        }
        bench_path = Path(args.bench_out)
        write_atomic(bench_path, json.dumps(bench, indent=2, sort_keys=True) + "\n")
        print(f"bench payload: {bench_path}")
    if ledger is not None:
        print(f"ledger: {ledger.path}")
        print(f"next: python -m repro report {ledger.run_dir}")
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import generate_report

    payload, markdown = generate_report(args.run_dir, write=not args.no_write)
    print(markdown)
    if not args.no_write:
        print(f"wrote {args.run_dir}/report.md and report.json")
    if not payload["all_within_bounds"]:
        return 1
    return 0


def cmd_docs_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.persist import write_atomic
    from repro.tooling.benchdocs import render_benchmarks_markdown

    content = render_benchmarks_markdown(args.results)
    out = Path(args.out)
    if args.check:
        current = out.read_text() if out.exists() else ""
        if current != content:
            print(
                f"DRIFT: {out} does not match benchmarks/results/ — "
                f"run `python -m repro docs-bench` and commit the result"
            )
            return 1
        print(f"{out} is up to date with {args.results}")
        return 0
    write_atomic(out, content)
    print(f"wrote {out}")
    return 0


def cmd_lint_docstrings(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.tooling.docscov import measure_docstring_coverage

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}")
        return 2
    report = measure_docstring_coverage(
        args.paths, include_private=args.include_private
    )
    print(report.render(verbose=args.verbose))
    if report.percent < args.fail_under:
        print(
            f"FAIL: docstring coverage {report.percent:.1f}% is below the "
            f"--fail-under threshold {args.fail_under:.1f}%"
        )
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run one benchmark suite, print its case table, apply its gates."""
    from repro.tooling.bench import failures, run_suite, write_payload
    from repro.tooling.benchdocs import case_table

    payload = run_suite(args.suite, smoke=args.smoke)
    print("\n".join(case_table(payload["cases"])))
    if args.out is not None:
        write_payload(payload, args.out)
        print(f"wrote {args.out}")
    found = failures(args.suite, payload, args.smoke)
    for failure in found:
        print("FAIL:", failure)
    return 1 if found else 0


def cmd_conformance(args: argparse.Namespace) -> int:
    from repro.analysis.tables import TableBuilder
    from repro.conformance import run_suite

    ledger = None
    if args.ledger:
        from pathlib import Path

        from repro.telemetry import RunLedger, new_run_id

        run_id = args.run_id or new_run_id("conformance")
        ledger = RunLedger(Path(args.runs_dir) / run_id)

    scale = 0.1 if args.smoke else 1.0
    suite = run_suite(
        master_seed=args.seed,
        family_alpha=args.family_alpha,
        ledger=ledger,
        scale=scale,
    )

    table = TableBuilder(
        ["status", "kind", "relation", "alpha", "seconds"],
        title=(
            f"conformance suite: {len(suite.reports)} relations, "
            f"family-wise alpha {suite.family_alpha:g}"
            + (" (smoke tier)" if args.smoke else "")
        ),
    )
    for report in suite.reports:
        table.add_row(
            "ok" if report.passed else "VIOLATED",
            report.kind,
            report.name,
            f"{report.alpha:.2e}" if report.alpha else "exact",
            f"{report.seconds:.2f}",
        )
    print(table.render())

    for report in suite.violations:
        print(f"\nVIOLATION {report.name}: {report.error}")
        print(f"  claim: {report.description}")
        print(
            "  replay: seed = np.random.SeedSequence("
            f"{report.seed['entropy']!r}, "
            f"spawn_key={tuple(report.seed['spawn_key'])!r})"
        )
    if ledger is not None:
        print(f"ledger: {ledger.path}")
    print(
        f"\n{suite.num_statistical} statistical relations share the "
        f"{suite.family_alpha:g} family-wise false-failure budget; "
        f"{len(suite.reports) - suite.num_statistical} exact relations "
        "consume none (docs/TESTING.md has the derivation)."
    )
    if suite.violations:
        print(f"FAIL: {len(suite.violations)} relation(s) violated")
        return 1
    print("all relations hold")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the assessment job server (``docs/SERVICE.md``).

    Long-running: serves until SIGINT/SIGTERM.  With ``--port 0`` the
    chosen port is printed on stdout and written (with host and pid) to
    ``<data-dir>/service.json`` so scripts can discover the server.
    """
    from repro.service import run_serve

    if args.max_concurrent < 1:
        print("--max-concurrent must be >= 1")
        return 2
    if args.default_quota is not None and args.default_quota < 0:
        print("--default-quota must be non-negative")
        return 2
    return run_serve(
        args.data_dir,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        default_quota=args.default_quota,
        resume=args.resume,
    )


def _add_spec_flag(parser: argparse.ArgumentParser, target: str) -> None:
    """The repeatable ``--spec KEY=VALUE`` override of ``trials``/``atlas``."""
    parser.add_argument(
        "--spec",
        type=_spec_pair,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"override one field of {target}; VALUE is JSON (a plain "
        "string if it does not parse); repeatable, a later pair wins",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime.workloads import WORKLOADS
    from repro.tooling.bench import SUITES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pitfalls in ML-based adversary modeling — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    assess = sub.add_parser("assess", help="Table I adversary-model assessment")
    assess.add_argument("--n", type=int, default=64, help="challenge length")
    assess.add_argument("--k", type=int, default=4, help="XOR chain count")
    assess.add_argument("--eps", type=float, default=0.05, help="accuracy parameter")
    assess.add_argument("--delta", type=float, default=0.05, help="confidence parameter")
    assess.add_argument(
        "--junta-size", type=int, default=4, help="Bourgain junta size for Corollary 2"
    )
    assess.set_defaults(func=cmd_assess)

    audit = sub.add_parser(
        "audit", help="flag unsound claim transfers between adversary models"
    )
    audit.add_argument("--n", type=int, default=64)
    audit.add_argument("--k", type=int, default=9)
    audit.add_argument("--eps", type=float, default=0.05)
    audit.add_argument("--delta", type=float, default=0.05)
    audit.add_argument("--junta-size", type=int, default=3)
    audit.set_defaults(func=cmd_audit)

    demo = sub.add_parser("attack-demo", help="SAT attack on a locked c17")
    demo.add_argument("--key-length", type=int, default=5)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_attack_demo)

    trials = sub.add_parser(
        "trials", help="parallel trial fan-out benchmark with determinism check"
    )
    trials.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="curve",
        help="which trial workload to fan out",
    )
    trials.add_argument("--trials", type=int, default=32, help="number of trials")
    trials.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes for the parallel run (per shard with --shards)",
    )
    trials.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent work-stealing process pools; each writes its own "
        "ledger-shardNN.jsonl, merged transparently on read/resume",
    )
    _add_spec_flag(
        trials, "the workload's spec dataclass (e.g. --spec n=24 "
        "--spec budgets=[50,200])"
    )
    trials.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="memoise workload artifacts in an ArtifactStore at this "
        "directory (workloads whose trial takes cache_dir: active, atlas, "
        "chow, fleet); warm reruns replay instead of regenerating",
    )
    trials.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="LRU size cap for --cache-dir (default: unbounded, or "
        "$REPRO_CACHE_MAX_BYTES)",
    )
    trials.add_argument(
        "--cache-stats",
        action="store_true",
        help="print artifact-store hit/miss/eviction/bytes counters after "
        "the run and record them in the ledger meta.json",
    )
    trials.add_argument(
        "--smoke",
        action="store_true",
        help="start from the workload's seconds-fast CI tier (fleet, atlas); "
        "--spec pairs apply on top",
    )
    trials.add_argument("--seed", type=int, default=0, help="master seed")
    trials.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per trial after infrastructure failures (worker "
        "death, timeout), on top of the first attempt; 0 disables "
        "retrying; trial exceptions are never retried",
    )
    trials.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        help="seconds before a pooled trial counts as hung (default: no limit)",
    )
    trials.add_argument(
        "--resume",
        action="store_true",
        help="replay completed trials from the run's ledger (needs --run-id); "
        "only missing or infra-failed indices re-execute",
    )
    trials.add_argument(
        "--skip-serial",
        action="store_true",
        help="skip the serial reference run (no speedup/identity check)",
    )
    trials.add_argument(
        "--ledger",
        action="store_true",
        help="write a run ledger under --runs-dir for `python -m repro report`",
    )
    trials.add_argument(
        "--runs-dir", type=str, default="runs", help="parent directory for run ledgers"
    )
    trials.add_argument(
        "--run-id",
        type=str,
        default=None,
        help="explicit run id (default: <workload>-<timestamp>)",
    )
    trials.add_argument(
        "--eps", type=float, default=0.05, help="PAC accuracy for the bound checks"
    )
    trials.add_argument(
        "--delta", type=float, default=0.05, help="PAC confidence for the bound checks"
    )
    trials.set_defaults(func=cmd_trials)

    report = sub.add_parser(
        "report", help="aggregate a run ledger vs the pac.bounds predictions"
    )
    report.add_argument("run_dir", type=str, help="run directory (runs/<run_id>)")
    report.add_argument(
        "--no-write",
        action="store_true",
        help="print the report without writing report.md/report.json",
    )
    report.set_defaults(func=cmd_report)

    docs_bench = sub.add_parser(
        "docs-bench",
        help="regenerate docs/BENCHMARKS.md from benchmarks/results/BENCH_*.json",
    )
    docs_bench.add_argument(
        "--results",
        type=str,
        default="benchmarks/results",
        help="directory holding the BENCH_*.json baselines",
    )
    docs_bench.add_argument(
        "--out", type=str, default="docs/BENCHMARKS.md", help="markdown output path"
    )
    docs_bench.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the committed page differs from a fresh render",
    )
    docs_bench.set_defaults(func=cmd_docs_bench)

    lint = sub.add_parser(
        "lint-docstrings",
        help="AST docstring-coverage gate (interrogate equivalent)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=[
            "src/repro/telemetry",
            "src/repro/kernels",
            "src/repro/runtime",
            "src/repro/conformance",
            "src/repro/learning/active.py",
            "src/repro/learning/active_bench.py",
            "src/repro/learning/reliability_attack.py",
            "src/repro/pufs/cdc_xor.py",
            "src/repro/analysis/atlas.py",
            "src/repro/analysis/atlas_spec.py",
            "src/repro/tooling/bench.py",
        ],
        help="files or directories to measure",
    )
    lint.add_argument(
        "--fail-under",
        type=float,
        default=90.0,
        help="minimum acceptable coverage percentage",
    )
    lint.add_argument(
        "--include-private",
        action="store_true",
        help="also require docstrings on _private definitions and __init__",
    )
    lint.add_argument(
        "--verbose", action="store_true", help="list each missing docstring"
    )
    lint.set_defaults(func=cmd_lint_docstrings)

    bench = sub.add_parser(
        "bench",
        help="time one benchmark suite against its reference path and "
        "regenerate its BENCH_<suite>.json baseline",
    )
    bench.add_argument(
        "suite",
        choices=sorted(SUITES),
        help="kernels: character kernel vs per-subset loops; fleet: stacked "
        "GEMM vs per-instance loop; store: warm start and shard scaling; "
        "active: adaptive-vs-passive query atlas",
    )
    bench.add_argument(
        "--out",
        type=str,
        default=None,
        help="write the JSON payload here "
        "(e.g. benchmarks/results/BENCH_kernels.json)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="run the seconds-fast CI subset; kernels, fleet and store then "
        "also fail unless every case is at least as fast as its baseline",
    )
    bench.set_defaults(func=cmd_bench)

    atlas_p = sub.add_parser(
        "atlas",
        help="security-boundary atlas: sweep (family, learner, "
        "representation, n, k, sigma, m) cells into boundary maps "
        "(see docs/ATLAS.md)",
    )
    atlas_p.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: the 108-cell smoke grid with tight learner schedules; "
        "--spec pairs apply on top",
    )
    atlas_p.add_argument("--seed", type=int, default=0, help="master seed")
    atlas_p.add_argument(
        "--workers", type=int, default=1, help="worker processes per shard"
    )
    atlas_p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent work-stealing pools (per-shard crash-safe ledgers)",
    )
    atlas_p.add_argument(
        "--retries", type=int, default=0, help="retries per infra failure"
    )
    _add_spec_flag(atlas_p, "AtlasTrialSpec, the grid (e.g. --spec 'ks=[1,2]')")
    atlas_p.add_argument(
        "--frontier",
        type=float,
        default=0.75,
        help="accuracy at which a cell counts as broken",
    )
    atlas_p.add_argument(
        "--ledger",
        action="store_true",
        help="write the crash-safe JSONL trial ledger under --runs-dir",
    )
    atlas_p.add_argument(
        "--runs-dir", type=str, default="runs", help="parent directory for runs"
    )
    atlas_p.add_argument(
        "--run-id", type=str, default=None, help="explicit run id"
    )
    atlas_p.add_argument(
        "--resume",
        action="store_true",
        help="replay completed trials from --run-id's ledger, run the rest",
    )
    atlas_p.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="ArtifactStore directory for CRP-pool warm starts",
    )
    atlas_p.add_argument(
        "--cache-max-bytes", type=int, default=None, help="cache size cap"
    )
    atlas_p.add_argument(
        "--out",
        type=str,
        default=None,
        help="directory for boundary_map.json + atlas.md "
        "(default: the run directory when --ledger is set)",
    )
    atlas_p.add_argument(
        "--bench-out",
        type=str,
        default=None,
        help="write the BENCH_atlas.json payload here",
    )
    atlas_p.set_defaults(func=cmd_atlas, workload="atlas")

    conf = sub.add_parser(
        "conformance",
        help="run the differential + metamorphic conformance suite "
        "(exit 1 on violation)",
    )
    conf.add_argument("--seed", type=int, default=0, help="master seed")
    conf.add_argument(
        "--family-alpha",
        type=float,
        default=1e-6,
        help="family-wise false-failure probability for the whole run",
    )
    conf.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: run statistical relations at 10%% sample scale",
    )
    conf.add_argument(
        "--ledger",
        action="store_true",
        help="write one JSONL record per relation under --runs-dir",
    )
    conf.add_argument(
        "--runs-dir", type=str, default="runs", help="parent directory for run ledgers"
    )
    conf.add_argument(
        "--run-id",
        type=str,
        default=None,
        help="explicit run id (default: conformance-<timestamp>)",
    )
    conf.set_defaults(func=cmd_conformance)

    serve = sub.add_parser(
        "serve",
        help="run the assessment job server (HTTP jobs and NDJSON event "
        "streams over TrialRunner; see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8321, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--data-dir",
        type=str,
        default="runs/service",
        help="service state root: jobs/ and service.json",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=1,
        help="jobs running simultaneously; the rest wait in the priority queue",
    )
    serve.add_argument(
        "--default-quota",
        type=int,
        default=None,
        help="cumulative oracle-query limit per API key "
        "(default: unlimited, usage still metered)",
    )
    serve.add_argument(
        "--no-resume",
        dest="resume",
        action="store_false",
        help="do not re-adopt incomplete persisted jobs on start",
    )
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
