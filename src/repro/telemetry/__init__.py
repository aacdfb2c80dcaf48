"""Observability for the reproduction: query accounting, spans, ledgers.

The paper's argument is that an attack result is only meaningful next to
its adversary model — sample counts, query budgets, representation.  This
package is that argument turned into instrumentation:

* :mod:`repro.telemetry.meter` — :class:`QueryMeter` counts EX/MQ/EQ/SQ
  queries, distinct vs repeated challenges, and bytes of CRP data; oracles
  and learners report into the ambient meter installed with
  :func:`metered` (suspend with :func:`unmetered` for test-set draws).
* :mod:`repro.telemetry.spans` — :func:`trace` timing spans with wall/CPU
  time and nesting, recorded per trial by the runtime.
* :mod:`repro.telemetry.ledger` — :class:`RunLedger`, the JSONL per-trial
  record sink under ``runs/<run_id>/``.
* :mod:`repro.telemetry.report` — aggregates a ledger and checks measured
  query counts against the :mod:`repro.pac.bounds` predictions
  (``python -m repro report runs/<run_id>``).

Everything here is stdlib + numpy; instrumented hot paths pay one
context-variable read when telemetry is off (asserted < 5% overhead by
``benchmarks/test_telemetry_overhead.py``).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "ledger": ("RunLedger", "new_run_id"),
        "meter": (
            "QUERY_KINDS",
            "KindCounter",
            "QueryMeter",
            "current_meter",
            "incr",
            "metered",
            "record",
            "unmetered",
        ),
        "spans": ("Span", "SpanRecorder", "current_recorder", "recording", "trace"),
    },
)
