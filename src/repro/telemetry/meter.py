"""Query accounting: how many questions did the adversary actually ask?

The paper's thesis is that an attack result is meaningless without the
adversary model it was obtained under — and the *measured* counterpart of
a Table I bound is the number of EX/MQ/EQ/SQ calls a trial really spent.
This module supplies that measurement: a :class:`QueryMeter` accumulates
per-kind query counts, distinct-vs-repeated challenge statistics, and the
bytes of CRP data the attacker saw, and an ambient (context-variable)
installation point lets oracles and learners report into the meter of
whatever trial happens to be running, without threading a handle through
every signature.

Query kinds
-----------
``"ex"``
    Labelled examples drawn from a distribution (the passive setting):
    :class:`repro.learning.oracles.ExampleOracle` draws and the CRP
    generator :func:`repro.pufs.crp.generate_crps`.
``"mq"``
    Membership queries on attacker-chosen challenges:
    :class:`repro.learning.oracles.MembershipOracle`, the internal query
    paths of Kushilevitz-Mansour and LearnPoly.
``"eq"``
    (Simulated) equivalence queries; ``queries`` counts rounds and
    ``examples`` the random examples the Angluin simulation consumed.
``"sq"``
    Statistical queries (:class:`repro.learning.statistical_query.SQOracle`);
    ``examples`` counts the sample cost of ``"sampling"``-mode answers.

Meters chain: ``QueryMeter(parent=current_meter())`` forwards every record
to the ambient meter as well, so a learner can expose a per-fit snapshot
on its result while the surrounding trial still sees the full total.

Usage::

    with metered() as meter:
        oracle.draw(1000)             # recorded automatically
    meter.snapshot()["queries"]["ex"]["queries"]   # -> 1000

``record`` / ``incr`` are no-ops when no meter is installed, so
instrumented code pays one context-variable read on the cold path.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from typing import Dict, Iterator, Optional

import numpy as np

#: The query kinds a meter tracks, in report order.
QUERY_KINDS = ("ex", "mq", "eq", "sq")

#: Rows beyond which distinct-challenge tracking stops (memory guard).
DEFAULT_DISTINCT_CAP = 1 << 21

#: Largest challenge matrix, in bytes, whose row keys a meter keeps (with a
#: copy of the rows) so that observing the same rows again skips keying.
_KEY_MEMO_BYTES = 1 << 20


def _row_keys(rows: np.ndarray):
    """One hashable key per challenge row.

    Rows of width <= 64 pack into uint64 bitmasks (vectorised; exact for
    any fixed alphabet since repro challenges are +/-1, or 0/1 in the F2
    learners — a single trial never mixes the two conventions): bit ``j``
    is set iff column ``j`` is below 1, packed little-endian with
    ``np.packbits``.  Wider rows fall back to per-row bytes.
    """
    m, n = rows.shape
    if n <= 64:
        packed = np.zeros((m, 8), dtype=np.uint8)
        packed[:, : (n + 7) // 8] = np.packbits(rows < 1, axis=1, bitorder="little")
        return packed.view("<u8").ravel().astype(np.uint64, copy=False)
    return [rows[i].tobytes() for i in range(m)]


@dataclasses.dataclass
class KindCounter:
    """Counts for one query kind.

    ``queries`` is the unit the corresponding bound is stated in (rows for
    EX/MQ, rounds for EQ, calls for SQ); ``examples`` is the labelled
    examples consumed along the way (equal to ``queries`` for EX, the
    simulation sample for EQ, the per-call sample for sampling-mode SQ);
    ``batches`` counts vectorised calls and ``crp_bytes`` the challenge +
    response payload the attacker observed.
    """

    queries: int = 0
    examples: int = 0
    batches: int = 0
    crp_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (JSON-ready), in field order."""
        return {
            "queries": self.queries,
            "examples": self.examples,
            "batches": self.batches,
            "crp_bytes": self.crp_bytes,
        }


class QueryMeter:
    """Accumulates per-kind query counts and challenge statistics.

    Parameters
    ----------
    parent:
        Optional meter every record is forwarded to (meter chaining: a
        learner-local meter forwarding to the ambient trial meter).
    track_distinct:
        Key challenge rows to split queried challenges into distinct vs
        repeated.  Costs a sort and a sorted-array lookup per batch (a
        bytes-hash per row above 64 columns); disable for very large
        sweeps.
    distinct_cap:
        Stop tracking new distinct rows past this many (the counters then
        report a saturated lower bound and ``distinct_saturated`` is set).
    """

    def __init__(
        self,
        parent: Optional["QueryMeter"] = None,
        track_distinct: bool = True,
        distinct_cap: int = DEFAULT_DISTINCT_CAP,
    ) -> None:
        self.parent = parent
        self.track_distinct = track_distinct
        self.distinct_cap = distinct_cap
        self.kinds: Dict[str, KindCounter] = {k: KindCounter() for k in QUERY_KINDS}
        self.counters: Dict[str, int] = {}
        self.challenge_rows = 0
        self.repeated_challenges = 0
        self.distinct_saturated = False
        self._seen = np.empty(0, dtype=np.uint64)  # sorted keys of rows <= 64 wide
        self._seen_wide: set = set()  # row bytes of wider rows
        self._merged_distinct = 0  # distinct counts folded in by merge_snapshot
        self._key_memo: Optional[tuple] = None  # (rows copy, their unique keys)

    # ------------------------------------------------------------------
    @property
    def distinct_challenges(self) -> int:
        """Distinct challenge rows observed so far (lower bound if saturated),
        plus the distinct counts of merged snapshots."""
        return len(self._seen) + len(self._seen_wide) + self._merged_distinct

    @property
    def total_queries(self) -> int:
        """Sum of ``queries`` over all kinds."""
        return sum(c.queries for c in self.kinds.values())

    @property
    def crp_bytes(self) -> int:
        """Total challenge + response bytes across all kinds."""
        return sum(c.crp_bytes for c in self.kinds.values())

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        queries: int = 0,
        examples: int = 0,
        challenges: Optional[np.ndarray] = None,
        response_bytes: int = 0,
    ) -> None:
        """Record one (possibly batched) oracle interaction.

        ``challenges`` — when given — feeds the distinct/repeated split
        and the byte accounting; its rows are hashed, never stored.
        """
        if kind not in self.kinds:
            raise ValueError(f"unknown query kind {kind!r}; expected {QUERY_KINDS}")
        counter = self.kinds[kind]
        counter.queries += int(queries)
        counter.examples += int(examples)
        counter.batches += 1
        counter.crp_bytes += int(response_bytes)
        if challenges is not None:
            x = np.asarray(challenges)
            if x.ndim == 1:
                x = x[None, :]
            counter.crp_bytes += x.nbytes
            self._observe(x)
        if self.parent is not None:
            self.parent.record(
                kind,
                queries=queries,
                examples=examples,
                challenges=challenges,
                response_bytes=response_bytes,
            )

    def _observe(self, x: np.ndarray) -> None:
        """Update the distinct/repeated challenge split with a row batch.

        In the unsaturated regime the split is exact and batch-order
        independent: in-batch duplicates beyond the first occurrence count
        as repeated, as does any row already seen by this meter.  Once the
        cap is hit, ``distinct_challenges`` becomes a lower bound and
        ``distinct_saturated`` is set; new rows are admitted in ascending
        key order until then.  Rows of width <= 64 live as uint64 keys in
        one sorted array (sort, adjacent compare, ``searchsorted``,
        ``np.insert``); wider rows keep a set of their bytes.
        """
        self.challenge_rows += x.shape[0]
        if not self.track_distinct or x.shape[0] == 0:
            return
        x = np.ascontiguousarray(x, dtype=np.int8)
        room = max(0, self.distinct_cap - len(self._seen) - len(self._seen_wide))
        if x.shape[1] > 64:
            unique = sorted(set(_row_keys(x)))
            fresh = [key for key in unique if key not in self._seen_wide]
            self._seen_wide.update(fresh[:room])
        else:
            unique = self._unique_keys(x)
            seen = self._seen
            if len(seen):
                at = np.searchsorted(seen, unique)
                fresh_mask = seen.take(at, mode="clip") != unique
                fresh = unique[fresh_mask]
                if len(fresh) and room:
                    self._seen = np.insert(seen, at[fresh_mask][:room], fresh[:room])
            else:
                fresh = unique
                self._seen = fresh[:room]
        self.repeated_challenges += x.shape[0] - len(fresh)
        if len(fresh) > room:
            self.distinct_saturated = True

    def _unique_keys(self, x: np.ndarray) -> np.ndarray:
        """Sorted distinct uint64 keys of the rows of ``x`` (<= 64 wide).

        The keys of the last matrix up to :data:`_KEY_MEMO_BYTES` are kept
        with a copy of its rows: a fleet trial observes one challenge
        matrix three times (``Fleet.eval`` and both records of
        ``vote_and_measure``), and a row-for-row equal matrix reuses them.
        """
        memo = self._key_memo
        if memo is not None and np.array_equal(memo[0], x):
            return memo[1]
        keys = np.sort(_row_keys(x))
        unique = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        if x.nbytes <= _KEY_MEMO_BYTES:
            self._key_memo = (x.copy(), unique)
        return unique

    def incr(self, name: str, amount: int = 1) -> None:
        """Bump a free-form named counter (cache hits, kernel blocks, ...)."""
        self.counters[name] = self.counters.get(name, 0) + int(amount)
        if self.parent is not None:
            self.parent.incr(name, amount)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A plain-dict, JSON-serialisable view of every statistic."""
        return {
            "queries": {k: c.as_dict() for k, c in self.kinds.items()},
            "total_queries": self.total_queries,
            "crp_bytes": self.crp_bytes,
            "challenge_rows": self.challenge_rows,
            "distinct_challenges": self.distinct_challenges,
            "repeated_challenges": self.repeated_challenges,
            "distinct_saturated": self.distinct_saturated,
            "counters": dict(self.counters),
        }

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict into this meter (ledger aggregation).

        Distinct/repeated counts are summed, not re-deduplicated: rows are
        not stored in snapshots, so cross-trial duplicates are invisible.
        A saturated snapshot taints the merged meter (the totals are then
        lower bounds), and partial snapshots — e.g. from a trial whose
        worker died mid-flight — merge their surviving fields.
        """
        for kind, values in (snap.get("queries") or {}).items():
            counter = self.kinds.setdefault(kind, KindCounter())
            counter.queries += values.get("queries", 0)
            counter.examples += values.get("examples", 0)
            counter.batches += values.get("batches", 0)
            counter.crp_bytes += values.get("crp_bytes", 0)
        self.challenge_rows += snap.get("challenge_rows", 0)
        self.repeated_challenges += snap.get("repeated_challenges", 0)
        self.distinct_saturated = self.distinct_saturated or bool(
            snap.get("distinct_saturated", False)
        )
        self._merged_distinct += snap.get("distinct_challenges", 0)
        for name, amount in (snap.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0) + amount

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}={c.queries}" for k, c in self.kinds.items() if c.queries
        )
        return f"QueryMeter({parts or 'empty'})"


# ----------------------------------------------------------------------
# Ambient installation point.
# ----------------------------------------------------------------------
_METER: contextvars.ContextVar[Optional[QueryMeter]] = contextvars.ContextVar(
    "repro_query_meter", default=None
)


def current_meter() -> Optional[QueryMeter]:
    """The ambient meter, or None when accounting is off."""
    return _METER.get()


@contextlib.contextmanager
def metered(meter: Optional[QueryMeter] = None) -> Iterator[QueryMeter]:
    """Install ``meter`` (or a fresh one) as the ambient meter.

    Nested uses shadow the outer meter; chain explicitly with
    ``metered(QueryMeter(parent=current_meter()))`` when the outer meter
    should keep accumulating.
    """
    meter = QueryMeter() if meter is None else meter
    token = _METER.set(meter)
    try:
        yield meter
    finally:
        _METER.reset(token)


@contextlib.contextmanager
def unmetered() -> Iterator[None]:
    """Suspend accounting (e.g. while drawing a held-out test set).

    Test-set evaluation is not an adversary query; wrap its CRP draws in
    this to keep the ledger's EX counts equal to the attack budget.
    """
    token = _METER.set(None)
    try:
        yield
    finally:
        _METER.reset(token)


def record(
    kind: str,
    queries: int = 0,
    examples: int = 0,
    challenges: Optional[np.ndarray] = None,
    response_bytes: int = 0,
) -> None:
    """Record into the ambient meter; a no-op when none is installed."""
    meter = _METER.get()
    if meter is not None:
        meter.record(
            kind,
            queries=queries,
            examples=examples,
            challenges=challenges,
            response_bytes=response_bytes,
        )


def incr(name: str, amount: int = 1) -> None:
    """Bump a named counter on the ambient meter; no-op when none installed."""
    meter = _METER.get()
    if meter is not None:
        meter.incr(name, amount)
