"""The content-addressed artifact store: memoised arrays keyed by provenance.

Every expensive artifact this codebase produces — a CRP pool, a fleet
response plane — is a pure function of its generation provenance: the
artifact *kind*, the PUF/fleet spec, the seed identity, the challenge-set
identity (a distribution name or an explicit challenge hash), and the
dtype tier.  :class:`ArtifactStore` turns that observation into a shared
on-disk cache: artifacts are keyed by a canonical digest of exactly that
tuple (:func:`artifact_digest`), deduplicated across workloads, and
reusable across *runs* — a Table-I rerun or an atlas re-sweep hits the
store instead of regenerating.

Store layout and guarantees
---------------------------
* One ``.npz`` per entry, named ``<kind>-<digest>.npz``: an
  *uncompressed* zip archive holding the challenges and responses
  bit-packed (``np.packbits`` along the last axis, ``+1 -> 1``) next to
  their logical shape.  Entries hold only +/-1 values — every artifact
  kind is a +/-1 CRP pool or response plane — and the writer refuses
  anything else with ``ValueError`` before staging a file.  A packed
  plane is smaller than a zlib-compressed int8 one and costs no deflate
  on publish or inflate on load; the zip's CRC-32 still catches a
  flipped bit.  An entry the reader cannot decode — including one
  written in the pre-bit-packing zlib format — is discarded once and
  regenerated (see corrupt-entry-as-miss below).
* **Atomic publication, winner-take-one.**  Writers stage into a private
  ``tempfile.mkstemp`` file and publish with ``os.replace``; two
  processes storing the same digest concurrently both succeed, and
  exactly one complete archive survives (whichever ``replace`` lands
  last).  Entries for one digest are byte-equivalent by construction —
  the digest *is* the generation provenance — so which writer wins is
  unobservable.
* **Corrupt-entry-as-miss.**  An unreadable or malformed archive (killed
  writer, bad disk) is warned about, unlinked, and reported as a miss,
  so one crash can never poison every later run.
* **Prefix / row-slab reuse.**  Challenge draws are sequential, so the
  first ``m`` rows of a larger cached artifact equal an ``m``-row
  generation from the same state; the row count therefore stays *out* of
  the digest and requests are served from any cached superset.
* **Size-capped LRU eviction.**  With ``max_bytes`` set (or
  ``$REPRO_CACHE_MAX_BYTES``), publishing an entry evicts
  least-recently-used entries (by file mtime, refreshed on every hit)
  until the store fits; the entry just published is never evicted.
* **Telemetry.**  Hits, misses, evictions, corrupt discards and byte
  counts go to the ambient :mod:`repro.telemetry` meter under
  ``artifact_store.*`` (plus the legacy ``crp_cache.*`` /
  ``fleet_cache.*`` names), so per-trial ledger records carry the
  store's behaviour and ``repro trials --cache-stats`` can aggregate it.
  Lookups and publishes run in ``artifact_store.load`` /
  ``artifact_store.publish`` spans (attributes ``kind`` and ``bytes``),
  so ``python -m repro report`` attributes store time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.pufs.crp import CRPSet
from repro.telemetry.meter import incr as _incr
from repro.telemetry.meter import record as _record
from repro.telemetry.spans import trace

#: The artifact kinds the store recognises (the filename prefixes).
ARTIFACT_KINDS = ("crps", "fleet")

#: Per kind, the warning label and legacy counter prefix of a discard.
_LEGACY_NAMES = {"crps": ("CRP", "crp_cache"), "fleet": ("fleet", "fleet_cache")}

#: Environment variable supplying the default store directory.
STORE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable supplying the default size cap (bytes).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


def _entry_mtime(path: Path) -> float:
    """An entry's LRU recency stamp (module-level so tests can fake clocks).

    A vanished entry — concurrently evicted or replaced — sorts oldest,
    which is harmless: unlinking it again is a no-op.
    """
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


def _pack_pm1(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` (+/-1) bit-packed along the last axis, ``+1 -> 1``."""
    values = np.asarray(values)
    if np.count_nonzero(values == 1) + np.count_nonzero(values == -1) != values.size:
        raise ValueError(f"artifact {name} must hold only +/-1 values")
    return np.packbits(values > 0, axis=-1)


def _unpack_pm1(packed: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """The int8 +/-1 array of logical ``shape`` that ``packed`` encodes."""
    expected = shape[:-1] + ((shape[-1] + 7) // 8,)
    if packed.dtype != np.uint8 or packed.shape != expected:
        raise ValueError(
            f"packed array {packed.shape} {packed.dtype} does not encode "
            f"logical shape {shape}"
        )
    bits = np.unpackbits(packed, axis=-1, count=shape[-1])
    return bits.view(np.int8) * np.int8(2) - np.int8(1)


def _pack_entry(
    challenges: np.ndarray, responses: np.ndarray
) -> Dict[str, np.ndarray]:
    """The arrays of one entry: bit-packed planes and their logical shape.

    ``shape`` is ``(m, n, width)``, with ``width = -1`` marking a CRP
    response vector.  Raises ``ValueError`` on any value other than
    +/-1 or on inconsistent shapes, before anything touches the disk.
    """
    challenges, responses = np.asarray(challenges), np.asarray(responses)
    if (
        challenges.ndim != 2
        or responses.ndim not in (1, 2)
        or responses.shape[0] != challenges.shape[0]
    ):
        raise ValueError(
            f"artifact challenges {challenges.shape} and responses "
            f"{responses.shape} are not one (m, n) / (m[, width]) entry"
        )
    width = responses.shape[1] if responses.ndim == 2 else -1
    return {
        "shape": np.array(challenges.shape + (width,), dtype=np.int64),
        "challenges": _pack_pm1(challenges, "challenges"),
        "responses": _pack_pm1(responses, "responses"),
    }


def _write_entry(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write packed entry ``arrays`` to ``path`` as an uncompressed ``.npz``."""
    np.savez(path, **arrays)


def _read_entry(path: Path, vector: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The int8 (challenges, responses) of the entry at ``path``.

    ``vector`` says whether the responses must be a CRP response vector
    (else a response plane).  Raises on anything that is not a whole,
    self-consistent packed entry — a truncated or bit-flipped archive
    (``BadZipFile`` from the CRC-32), a missing member, a shape that
    does not match the packed arrays, or the wrong response layout.
    """
    with np.load(path) as data:
        shape = data["shape"]
        if shape.shape != (3,) or shape.dtype != np.int64:
            raise ValueError(f"malformed entry shape {shape!r}")
        m, n, width = (int(v) for v in shape)
        if m < 1 or n < 0 or width < -1 or (width == -1) != vector:
            expected = "CRP set" if vector else "response plane"
            raise ValueError(f"entry shape {(m, n, width)} is not a {expected}")
        challenges = _unpack_pm1(data["challenges"], (m, n))
        responses = _unpack_pm1(data["responses"], (m,) if vector else (m, width))
    return challenges, responses


def _canonical_seed_material(seed: object) -> str:
    """A stable string identity for a seed-like object.

    ``repr`` is stable for the seed shapes the runtime passes around —
    ints, strings, and tuples of ``(entropy, spawn_key, index)`` — and
    intentionally distinguishes ``1`` from ``"1"``: different launch
    forms are different provenance.
    """
    return repr(seed)


def hash_challenges(challenges: np.ndarray) -> str:
    """A digest identifying an explicit challenge set (shape, dtype, bytes).

    For callers that hold a concrete challenge matrix instead of a
    distribution name: pass ``hash_challenges(x)`` as the
    ``distribution`` of :func:`artifact_digest` and the artifact is keyed
    by the exact challenge content.
    """
    x = np.ascontiguousarray(challenges)
    h = hashlib.sha256()
    h.update(str((x.shape, str(x.dtype))).encode("utf-8"))
    h.update(x.tobytes())
    return "sha256:" + h.hexdigest()[:32]


def artifact_digest(
    kind: str,
    spec: str,
    seed: object,
    distribution: str = "uniform",
    tier: str = "int8",
    shape: Sequence[int] = (),
    noisy: bool = False,
) -> str:
    """The canonical content digest for one artifact's provenance.

    The digest covers ``(kind, spec, seed identity, challenge-set
    identity, dtype tier, shape, noisy)`` — exactly the tuple that
    determines the artifact's bytes.  ``distribution`` names the
    challenge-set identity: a distribution spec string for seeded draws,
    or a :func:`hash_challenges` digest for explicit challenge matrices.
    The row count is deliberately *not* key material (prefix reuse; see
    the module docstring).  Material is canonicalised through sorted-key
    JSON so semantically equal keys digest equally regardless of call
    order, and the kind doubles as a namespace: a ``crps`` artifact can
    never collide with a ``fleet`` artifact of the same spec.
    """
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}; expected {ARTIFACT_KINDS}")
    material = json.dumps(
        {
            "kind": kind,
            "spec": str(spec),
            "seed": _canonical_seed_material(seed),
            "challenges": str(distribution),
            "tier": str(tier),
            "shape": [int(v) for v in shape],
            "noisy": bool(noisy),
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


class ArtifactStore:
    """A directory of content-addressed, memoised experiment artifacts.

    Each entry is an uncompressed ``.npz`` of bit-packed +/-1 challenges
    and responses plus their logical shape (see the module docstring).
    Publishing anything but +/-1 values raises ``ValueError``; an entry
    written before the bit-packed format is discarded once with a
    warning and regenerated, like any other unreadable entry.

    Parameters
    ----------
    store_dir:
        Where the ``.npz`` entries live; created on first store.
        Defaults to ``$REPRO_CACHE_DIR`` or ``.repro_cache`` in the
        working directory.
    max_bytes:
        Size cap for LRU eviction.  ``None`` reads
        ``$REPRO_CACHE_MAX_BYTES``; a missing/empty variable means
        unbounded.  ``0`` or negative disables caching growth entirely
        (every store immediately evicts everything but the newest entry
        that fits — degenerate but well-defined).
    """

    def __init__(
        self,
        store_dir: Optional[Union[str, Path]] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if store_dir is None:
            store_dir = os.environ.get(STORE_DIR_ENV, ".repro_cache")
        if max_bytes is None:
            raw = os.environ.get(MAX_BYTES_ENV, "")
            max_bytes = int(raw) if raw.strip() else None
        self.store_dir = Path(store_dir)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self.bytes_served = 0
        self.bytes_stored = 0

    # ------------------------------------------------------------------
    # Directory layout.
    # ------------------------------------------------------------------
    @property
    def cache_dir(self) -> Path:
        """Alias for :attr:`store_dir` (the pre-ArtifactStore name)."""
        return self.store_dir

    def entry_path(self, kind: str, key: str) -> Path:
        """The ``.npz`` file backing entry ``key`` of ``kind``."""
        return self.store_dir / f"{kind}-{key}.npz"

    def path_for(self, key: str) -> Path:
        """The ``.npz`` file backing CRP-set entry ``key``."""
        return self.entry_path("crps", key)

    def fleet_path_for(self, key: str) -> Path:
        """The ``.npz`` file backing fleet-plane entry ``key``."""
        return self.entry_path("fleet", key)

    def entries(self) -> Dict[Path, int]:
        """Current entries mapped to their on-disk sizes (bytes)."""
        sizes: Dict[Path, int] = {}
        if self.store_dir.exists():
            for kind in ARTIFACT_KINDS:
                for path in self.store_dir.glob(f"{kind}-*.npz"):
                    if path.name.endswith(".tmp.npz"):
                        continue  # a writer's staging file, not an entry
                    try:
                        sizes[path] = path.stat().st_size
                    except OSError:
                        continue  # concurrently evicted/replaced
        return sizes

    def total_bytes(self) -> int:
        """Total size of all current entries (bytes)."""
        return sum(self.entries().values())

    # ------------------------------------------------------------------
    # Publication and loading primitives.
    # ------------------------------------------------------------------
    def _publish(
        self, kind: str, key: str, challenges: np.ndarray, responses: np.ndarray
    ) -> Path:
        """Pack, stage and publish entry ``key`` of ``kind`` atomically.

        The arrays are validated and bit-packed first, so a non-+/-1
        value raises ``ValueError`` before any file exists.  The staging
        file comes from ``tempfile.mkstemp`` in the store directory, so
        concurrent writers of the same key never interleave into one tmp
        path — each publishes its own complete archive via
        ``os.replace`` and the last one wins whole (winner-take-one;
        entries for one digest are byte-equivalent, so the winner is
        unobservable).  Orphaned staging files from killed writers are
        swept by :meth:`clear`.
        """
        path = self.entry_path(kind, key)
        arrays = _pack_entry(challenges, responses)
        packed = sum(a.nbytes for a in arrays.values())
        with trace("artifact_store.publish", kind=kind, bytes=packed):
            self.store_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f"{path.name[: -len('.npz')]}-", suffix=".tmp.npz",
                dir=self.store_dir,
            )
            os.close(fd)
            tmp = Path(tmp_name)
            try:
                _write_entry(tmp, arrays)
                size = tmp.stat().st_size
                os.replace(tmp, path)
            finally:
                if tmp.exists():  # only on a failed write/replace
                    tmp.unlink()
            # The published file inherits the staging file's mtime, which
            # on a coarse-granularity (1s) filesystem can predate entries
            # touched during the write — making the *newest* entry look
            # LRU-oldest.  Stamp it now, before any size accounting, so
            # recency is honest.
            self._touch(path)
            self.bytes_stored += size
            _incr("artifact_store.stores")
            _incr("artifact_store.bytes_stored", size)
            self._evict_over_cap(protect=path)
        return path

    def _load_entry(
        self, kind: str, key: str
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The (challenges, responses) of entry ``key`` of ``kind``, or None.

        An entry the reader rejects — a truncated or corrupt archive left
        by a killed writer, or one in a pre-bit-packing format — is warned
        about, unlinked, and reported as a miss, so the caller
        regenerates.  Every *read* after a crash would otherwise fail
        forever on the same poisoned file.
        """
        path = self.entry_path(kind, key)
        try:
            size = path.stat().st_size
        except OSError:
            return None
        with trace("artifact_store.load", kind=kind, bytes=size):
            try:
                entry = _read_entry(path, vector=(kind == "crps"))
            except Exception as exc:
                label, legacy = _LEGACY_NAMES[kind]
                self._discard_corrupt(path, label, exc)
                _incr(f"{legacy}.corrupt")
                return None
            self._touch(path)
        return entry

    def _discard_corrupt(self, path: Path, label: str, exc: Exception) -> None:
        """Warn about, count, and unlink an unreadable entry (miss path)."""
        warnings.warn(
            f"discarding unreadable {label} cache entry {path.name} "
            f"({type(exc).__name__}: {exc}); regenerating",
            RuntimeWarning,
            stacklevel=4,
        )
        self.corrupt += 1
        _incr("artifact_store.corrupt")
        try:
            path.unlink()
        except OSError:
            pass

    def _touch(self, path: Path) -> None:
        """Refresh an entry's mtime — the LRU recency signal — on a hit."""
        try:
            os.utime(path, None)
        except OSError:
            pass  # entry raced with an eviction; the load already happened

    def _evict_over_cap(self, protect: Optional[Path] = None) -> int:
        """Evict least-recently-used entries until the store fits the cap.

        ``protect`` — the entry just published — is never evicted, even
        when it alone exceeds ``max_bytes`` (the caller is about to use
        it; evicting it would just re-pay generation on the next run) and
        even when filesystem mtime granularity makes it sort oldest (a 1s
        filesystem can stamp a fresh entry with the same — or, via its
        staging file, an earlier — mtime than entries already present).
        Returns how many entries were removed.
        """
        if self.max_bytes is None:
            return 0
        sizes = self.entries()
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return 0

        removed = 0
        for path in sorted(sizes, key=_entry_mtime):
            if total <= self.max_bytes:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue  # another process beat us to it
            total -= sizes[path]
            removed += 1
            self.evictions += 1
            _incr("artifact_store.evictions")
        return removed

    # ------------------------------------------------------------------
    # CRP-set entries.
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[CRPSet]:
        """The cached CRP set for ``key``, or None (an unreadable entry is
        discarded as a miss; see :meth:`_load_entry`)."""
        entry = self._load_entry("crps", key)
        return None if entry is None else CRPSet(*entry)

    def store(self, key: str, crps: CRPSet) -> Path:
        """Persist ``crps`` under ``key`` (atomic replace, winner-take-one).

        Concurrent writers of the same key both succeed; exactly one
        complete archive survives — see :meth:`_publish`.
        """
        return self._publish("crps", key, crps.challenges, crps.responses)

    def get_or_generate(
        self,
        puf_spec: str,
        seed: object,
        distribution: str,
        m: int,
        generate: Callable[[], CRPSet],
        noisy: bool = False,
        record_kind: str = "ex",
    ) -> CRPSet:
        """The first ``m`` CRPs for this provenance, generating on miss.

        On a hit with at least ``m`` cached CRPs the prefix is returned
        without calling ``generate``.  On a miss (or a cached set that is
        too short) ``generate()`` runs and its output replaces the cached
        file, so the store monotonically grows to the largest request.

        ``record_kind`` names the query kind the hit path records the
        replayed CRPs under: ``"ex"`` for distribution draws (the
        default), ``"mq"`` for memoised adaptive trajectories whose rows
        were originally attacker-chosen membership queries — replayed
        answers are accountable under the access model that produced
        them, not the one the cache happens to resemble.
        """
        if m <= 0:
            raise ValueError("CRP count must be positive")
        # CRP sets are always int8, so no tier; ``m`` is not key material.
        key = artifact_digest(
            "crps", puf_spec, seed, distribution=distribution, noisy=noisy
        )
        cached = self.load(key)
        if cached is not None and len(cached) >= m:
            self.hits += 1
            _incr("crp_cache.hits")
            _incr("artifact_store.hits")
            taken = cached.take(m)
            served = taken.challenges.nbytes + taken.responses.nbytes
            self.bytes_served += served
            _incr("artifact_store.bytes_served", served)
            # A cache hit replays CRPs the adversary is still accountable
            # for; record them under the kind their original collection
            # used (the generator inside `generate` records the miss path).
            _record(
                record_kind,
                queries=m,
                examples=m if record_kind == "ex" else 0,
                challenges=taken.challenges,
                response_bytes=taken.responses.nbytes,
            )
            return taken
        self.misses += 1
        _incr("crp_cache.misses")
        _incr("artifact_store.misses")
        crps = generate()
        if len(crps) < m:
            raise ValueError(
                f"generator produced {len(crps)} CRPs, fewer than requested {m}"
            )
        self.store(key, crps)
        return crps.take(m)

    # ------------------------------------------------------------------
    # Fleet response planes: (m, n) challenges against an (m, N) response
    # matrix; the dtype tier and the fleet shape are digest material.
    # ------------------------------------------------------------------
    def load_fleet(self, key: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The cached (challenges, responses) plane for ``key``, or None.

        Same corrupt-entry policy as :meth:`load`: an unreadable or
        malformed archive is warned about, unlinked, and reported as a
        miss, so one killed writer cannot poison every later run.
        """
        return self._load_entry("fleet", key)

    def store_fleet(
        self, key: str, challenges: np.ndarray, responses: np.ndarray
    ) -> Path:
        """Persist a fleet response plane under ``key`` (atomic replace)."""
        return self._publish("fleet", key, challenges, responses)

    def get_or_generate_fleet(
        self,
        fleet_spec: str,
        seed: object,
        distribution: str,
        tier: str,
        shape: Sequence[int],
        m: int,
        generate: Callable[[], Tuple[np.ndarray, np.ndarray]],
        noisy: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``m`` rows of this fleet plane, generating on miss.

        Prefix reuse works row-wise exactly as for CRP sets: challenge
        draws are sequential, so the first ``m`` rows of a larger cached
        plane equal an ``m``-row generation from the same seed.
        """
        if m <= 0:
            raise ValueError("challenge count must be positive")
        # Tier and shape are key material: an int8-tier run is never
        # served a float64 entry, nor a resized fleet a stale plane.
        key = artifact_digest(
            "fleet",
            fleet_spec,
            seed,
            distribution=distribution,
            tier=tier,
            shape=shape,
            noisy=noisy,
        )
        cached = self.load_fleet(key)
        if cached is not None and cached[0].shape[0] >= m:
            self.hits += 1
            _incr("fleet_cache.hits")
            _incr("artifact_store.hits")
            challenges, responses = cached[0][:m], cached[1][:m]
            served = challenges.nbytes + responses.nbytes
            self.bytes_served += served
            _incr("artifact_store.bytes_served", served)
            # Replayed oracle answers are still adversary queries, per
            # instance (mirrors the CRP hit path above).
            _record(
                "ex",
                queries=m * responses.shape[1],
                examples=m * responses.shape[1],
                challenges=challenges,
                response_bytes=responses.nbytes,
            )
            return challenges, responses
        self.misses += 1
        _incr("fleet_cache.misses")
        _incr("artifact_store.misses")
        challenges, responses = generate()
        if challenges.shape[0] < m:
            raise ValueError(
                f"generator produced {challenges.shape[0]} rows, "
                f"fewer than requested {m}"
            )
        self.store_fleet(key, challenges, responses)
        return challenges[:m], responses[:m]

    # ------------------------------------------------------------------
    # Maintenance and introspection.
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete all entries; returns how many files were removed.

        Sweeps CRP entries, fleet entries, and ``*.tmp.npz`` staging
        orphans left by writers killed between ``mkstemp`` and
        ``os.replace``.
        """
        removed = 0
        if self.store_dir.exists():
            for kind in ARTIFACT_KINDS:
                for path in self.store_dir.glob(f"{kind}-*.npz"):
                    path.unlink()
                    removed += 1
        return removed

    def stats(self) -> Dict[str, object]:
        """A JSON-ready summary of this store handle's activity.

        Hit/miss/eviction/corrupt counts and byte totals are *per handle*
        (this process's view); ``entries`` and ``total_bytes`` reflect
        the shared on-disk state right now.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "bytes_served": self.bytes_served,
            "bytes_stored": self.bytes_stored,
            "entries": len(self.entries()),
            "total_bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dir={str(self.store_dir)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
