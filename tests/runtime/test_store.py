"""ArtifactStore: digest schema, LRU eviction, warm start.

Pins the content-addressed store contract: the digest covers exactly the
generation provenance (kind, spec, seed identity, challenge-set identity,
shape, noisy) and nothing else; eviction is size-capped LRU with the
just-published entry protected; a resized fleet is never served a stale
plane; warm-start reruns are bit-identical to cold ones;
two processes publishing the same digest concurrently both succeed
with exactly one complete entry surviving (winner-take-one); entries
round-trip exactly through the flat bit-packed +/-1 codec, which rejects
other values and discards a bit-flipped, truncated, mislabelled or
older-format entry once;
a fleet trial builds its fleet only when a miss or the noisy
reliability branch needs it, spawns its seeds only when it draws or
builds, and runs one margin GEMM on every path (none on a noiseless
hit); its spec builds one FleetSpec, outside its fields.
"""

import dataclasses
import multiprocessing
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.persist import is_staging
from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.crp import generate_crps
from repro.runtime import TrialRunner
from repro.runtime.runner import TrialContext
from repro.runtime.store import (
    ARTIFACT_KINDS,
    ENTRY_MAGIC,
    MAX_BYTES_ENV,
    ArtifactStore,
    artifact_digest,
)
from repro.runtime.workloads import FleetEvalSpec, fleet_eval_trial


def make_crps(seed=0, m=100, n=12):
    """The ``(challenges, responses)`` of ``m`` CRPs of a fresh arbiter PUF."""
    puf = ArbiterPUF(n, np.random.default_rng(seed))
    crps = generate_crps(puf, m, np.random.default_rng(seed + 1))
    return crps.challenges, crps.responses


def store_crps(store, spec, seed, m):
    """Publish ``make_crps(seed, m)`` as the CRP entry of ``(spec, seed)``."""
    key = artifact_digest("crps", spec, seed)
    return store.store("crps", key, *make_crps(seed, m=m))


def make_plane(seed=0, m=40, n=8, size=3):
    rng = np.random.default_rng(seed)
    challenges = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    responses = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, size))
    return challenges, responses


def fleet_args():
    """A fleet-plane lookup of :func:`make_plane`'s default shape."""
    return dict(
        kind="fleet", spec="fleet(arbiter, n=8, size=3)", seed=5, m=40,
        shape=(8, 3),
    )


# ----------------------------------------------------------------------
# Digest schema: provenance in, row count out.
# ----------------------------------------------------------------------
class TestArtifactDigest:
    def test_stable_and_hex(self):
        a = artifact_digest("crps", "arbiter(n=12)", 7)
        assert a == artifact_digest("crps", "arbiter(n=12)", 7)
        assert len(a) == 32
        int(a, 16)  # hex

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            artifact_digest("weights", "spec", 0)

    def test_kind_namespaces_entries(self):
        assert set(ARTIFACT_KINDS) == {"crps", "fleet"}
        assert artifact_digest("crps", "s", 0) != artifact_digest("fleet", "s", 0)

    @pytest.mark.parametrize(
        "override",
        [
            {"spec": "other-spec"},
            {"seed": 1},
            {"distribution": "biased(0.25)"},
            {"kind": "crps"},
            {"shape": (8, 16)},
            {"noisy": True},
        ],
    )
    def test_every_provenance_field_is_key_material(self, override):
        base = dict(
            kind="fleet", spec="s", seed=0, distribution="uniform",
            shape=(4, 8), noisy=False,
        )
        assert artifact_digest(**base) != artifact_digest(**{**base, **override})

    def test_seed_identity_distinguishes_launch_forms(self):
        # int 1 and string "1" are different provenance, not the same key.
        assert artifact_digest("crps", "s", 1) != artifact_digest("crps", "s", "1")

    def test_shape_is_key_material(self, tmp_path):
        store = ArtifactStore(tmp_path)
        args = fleet_args()
        store.get_or_generate(**args, generate=lambda: make_plane(seed=5))
        args["shape"] = (8, 4)
        store.get_or_generate(**args, generate=lambda: make_plane(seed=5))
        assert store.misses == 2

    def test_row_count_is_not_key_material(self, tmp_path):
        """The digest takes no ``m``: a smaller request resolves to the same
        entry as a larger draw from the same state (prefix reuse)."""
        store = ArtifactStore(tmp_path)
        full = store.get_or_generate("crps", "s", 0, 80, lambda: make_crps(m=80))
        prefix = store.get_or_generate(
            "crps", "s", 0, 30, lambda: pytest.fail("prefix request must hit")
        )
        assert len(store.entries()) == 1
        np.testing.assert_array_equal(prefix[0], full[0][:30])


# ----------------------------------------------------------------------
# LRU eviction under a byte cap.
# ----------------------------------------------------------------------
class TestLRUEviction:
    def fill(self, store, count, m=80):
        paths = []
        for i in range(count):
            paths.append(store_crps(store, f"spec-{i}", i, m))
        return paths

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self.fill(store, 3)
        assert store.evictions == 0
        assert len(store.entries()) == 3

    def test_oldest_entries_evicted_first(self, tmp_path):
        seed_store = ArtifactStore(tmp_path)
        a, b = self.fill(seed_store, 2)
        cap = seed_store.total_bytes()
        # Pin distinct mtimes so LRU order is unambiguous.
        os.utime(a, (1_000, 1_000))
        os.utime(b, (2_000, 2_000))

        capped = ArtifactStore(tmp_path, max_bytes=cap)
        c = store_crps(capped, "spec-c", 99, 10)  # small; one evict
        assert capped.evictions == 1
        assert not a.exists()  # oldest went first
        assert b.exists() and c.exists()

    def test_hit_refreshes_recency(self, tmp_path):
        seed_store = ArtifactStore(tmp_path)
        a, b = self.fill(seed_store, 2)
        cap = seed_store.total_bytes()
        os.utime(a, (1_000, 1_000))
        os.utime(b, (2_000, 2_000))

        capped = ArtifactStore(tmp_path, max_bytes=cap)
        key_a = artifact_digest("crps", "spec-0", 0)
        assert capped.load("crps", key_a) is not None  # touches a: now the newest
        store_crps(capped, "spec-c", 99, 10)
        assert a.exists()  # survived because the hit refreshed it
        assert not b.exists()

    def test_just_published_entry_is_never_evicted(self, tmp_path):
        # A cap smaller than a single entry: everything else goes, but the
        # entry being published survives (the caller is about to use it).
        store = ArtifactStore(tmp_path, max_bytes=1)
        self.fill(store, 2)
        entries = store.entries()
        assert len(entries) == 1
        assert store.evictions == 1

    def test_cap_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV, "12345")
        store = ArtifactStore(tmp_path / "store")
        assert store.store_dir == tmp_path / "store"
        assert store.max_bytes == 12345


class TestMeterCounters:
    def test_lookups_count_only_under_artifact_store(self, tmp_path):
        from repro.telemetry.meter import QueryMeter, metered

        store = ArtifactStore(tmp_path)
        args = fleet_args()
        crp_args = dict(kind="crps", spec="arbiter(n=12)", seed=1, m=50)
        meter = QueryMeter()
        with metered(meter):
            for _ in range(2):  # a miss, then a hit, of each kind
                store.get_or_generate(**args, generate=make_plane)
                store.get_or_generate(**crp_args, generate=make_crps)
            for path in store.entries():
                path.write_bytes(b"torn")
            with pytest.warns(RuntimeWarning, match="unreadable"):
                store.get_or_generate(**args, generate=make_plane)
                store.get_or_generate(**crp_args, generate=make_crps)
        counters = {k: v for k, v in meter.counters.items() if "bytes" not in k}
        assert counters == {
            "artifact_store.hits": 2,
            "artifact_store.misses": 4,
            "artifact_store.corrupt": 2,
            "artifact_store.stores": 4,
        }


# ----------------------------------------------------------------------
# Warm-start determinism: cold and warm runs are byte-equal.
# ----------------------------------------------------------------------
class TestWarmStartDeterminism:
    def test_cold_then_warm_fleet_sweep_is_bit_identical(self, tmp_path):
        spec = FleetEvalSpec(
            family="arbiter", n=16, size=8, m=200,
            noise_sigma=0.0, repetitions=1,
        )
        kwargs = {"spec": spec, "cache_dir": str(tmp_path)}
        runner = TrialRunner(workers=1)
        cold = runner.run(fleet_eval_trial, 3, master_seed=9, trial_kwargs=kwargs)
        warm = runner.run(fleet_eval_trial, 3, master_seed=9, trial_kwargs=kwargs)
        for a, b in zip(cold.values(), warm.values()):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype and a.shape == b.shape
        # Separate run() calls share the on-disk entries: cross-run reuse.
        probe = ArtifactStore(tmp_path)
        assert len(probe.entries()) == 3

    def test_corrupt_fleet_entry_is_a_miss_and_regenerate(self, tmp_path):
        store = ArtifactStore(tmp_path)
        args = dict(
            kind="fleet", spec="f", seed=0, m=40, shape=(8, 3),
        )
        store.get_or_generate(**args, generate=lambda: make_plane(seed=3))
        (entry,) = store.entries()
        entry.write_bytes(b"not a zip archive")
        fresh = ArtifactStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="unreadable fleet cache entry"):
            challenges, responses = fresh.get_or_generate(
                **args, generate=lambda: make_plane(seed=3)
            )
        assert fresh.corrupt == 1 and fresh.misses == 1
        np.testing.assert_array_equal(challenges, make_plane(seed=3)[0][:40])

    def test_stats_reports_counters_and_disk_state(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=10**9)
        store.get_or_generate("crps", "a", 0, 50, lambda: make_crps(m=50))
        store.get_or_generate("crps", "a", 0, 50, lambda: pytest.fail("must hit"))
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 0 and stats["corrupt"] == 0
        assert stats["bytes_served"] > 0 and stats["bytes_stored"] > 0
        assert stats["entries"] == 1
        assert stats["total_bytes"] == store.total_bytes() > 0
        assert stats["max_bytes"] == 10**9


# ----------------------------------------------------------------------
# Same-key publication race: winner-take-one, at the process level.
# ----------------------------------------------------------------------
def _race_writer(store_dir, key, barrier):
    """Store byte-identical CRPs under one key, synchronised for overlap."""
    store = ArtifactStore(store_dir)
    crps = make_crps(seed=0, m=120)  # same provenance => same bytes
    barrier.wait()
    store.store("crps", key, *crps)


class TestSameKeyRace:
    def test_concurrent_writers_leave_one_complete_archive(self, tmp_path):
        """Two+ processes publishing the same digest concurrently must both
        succeed, with exactly one complete ``.npz`` surviving and zero
        staging orphans — the winner-take-one contract.  Which writer wins
        is unobservable because entries for one digest are byte-equivalent
        by construction (the digest *is* the generation provenance)."""
        ctx = multiprocessing.get_context("fork")
        key = artifact_digest("crps", "race-spec", 0)
        barrier = ctx.Barrier(4)
        procs = [
            ctx.Process(target=_race_writer, args=(str(tmp_path), key, barrier))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = ArtifactStore(tmp_path)
        assert list(store.entries()) == [store.entry_path("crps", key)]
        assert not any(is_staging(p) for p in tmp_path.iterdir())
        # The surviving archive is complete and serves hits.
        cached = store.get_or_generate(
            "crps", "race-spec", 0, 120,
            lambda: pytest.fail("race survivor must serve the hit"),
        )
        reference = make_crps(seed=0, m=120)
        np.testing.assert_array_equal(cached[0], reference[0])
        np.testing.assert_array_equal(cached[1], reference[1])


# ----------------------------------------------------------------------
# Coarse-mtime regression: a fresh publish must never be self-evicting.
# ----------------------------------------------------------------------
class TestCoarseMtimeEviction:
    """On a 1s-granularity filesystem every entry can share one mtime —
    or the fresh entry can even sort *oldest* (its staging file's stamp
    predates entries touched during the write).  The publish path must
    still guarantee the entry just stored survives its own admission
    pass: ``_touch`` before size accounting and an unconditional
    ``protect`` in ``_evict_over_cap``."""

    def test_fresh_entry_survives_when_all_mtimes_are_equal(
        self, tmp_path, monkeypatch
    ):
        from repro.runtime import store as store_mod

        # Simulate a coarse clock: every entry reports the same stamp, so
        # sort order degenerates to filesystem enumeration order.
        monkeypatch.setattr(store_mod, "_entry_mtime", lambda path: 1_000.0)
        seed_store = ArtifactStore(tmp_path)
        store_crps(seed_store, "old-a", 0, 80)
        store_crps(seed_store, "old-b", 1, 80)
        cap = seed_store.total_bytes()

        capped = ArtifactStore(tmp_path, max_bytes=cap)
        fresh = store_crps(capped, "fresh", 99, 80)
        assert fresh.exists(), "the entry just published was evicted"
        assert capped.evictions >= 1  # the cap was enforced on the others

    def test_fresh_entry_survives_even_when_it_sorts_oldest(
        self, tmp_path, monkeypatch
    ):
        from repro.runtime import store as store_mod

        seed_store = ArtifactStore(tmp_path)
        store_crps(seed_store, "old-a", 0, 80)
        store_crps(seed_store, "old-b", 1, 80)
        cap = seed_store.total_bytes()

        capped = ArtifactStore(tmp_path, max_bytes=cap)
        fresh_key = artifact_digest("crps", "fresh", 99)
        fresh_path = capped.entry_path("crps", fresh_key)
        # Adversarial clock: the fresh entry reports an *earlier* stamp
        # than everything already present (staging-file inheritance).
        monkeypatch.setattr(
            store_mod,
            "_entry_mtime",
            lambda path: 0.0 if path == fresh_path else 1_000.0,
        )
        capped.store("crps", fresh_key, *make_crps(99, m=80))
        assert fresh_path.exists(), "protect must override LRU order"

    def test_fresh_entry_larger_than_the_cap_is_kept(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)  # everything oversizes
        path = store_crps(store, "big", 0, 80)
        assert path.exists()  # the caller is about to read it

    def test_publish_stamps_mtime_fresh(self, tmp_path):
        """The published file's mtime reflects publish time, not staging
        time: after an old entry is backdated, a new store must sort
        strictly newer than it."""
        store = ArtifactStore(tmp_path)
        old = store_crps(store, "old", 0, 20)
        os.utime(old, (1_000, 1_000))
        new = store_crps(store, "new", 1, 20)
        from repro.runtime.store import _entry_mtime

        assert _entry_mtime(new) > _entry_mtime(old)


# ----------------------------------------------------------------------
# Entry codec: bit-packed +/-1 planes in an uncompressed archive.
# ----------------------------------------------------------------------
def pm1_arrays(shape):
    """A Hypothesis strategy for int8 +/-1 arrays of ``shape``."""
    return hnp.arrays(np.int8, shape, elements=st.sampled_from([-1, 1]))


class TestEntryCodec:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 24),
        n=st.integers(1, 150),
        width=st.one_of(st.none(), st.integers(1, 140)),
    )
    def test_round_trip_both_kinds(self, data, m, n, width):
        """CRP vectors and response planes of any width (multiple of 8 or
        not, rows of one or several 64-bit words) survive a store/load
        round trip exactly, prefix take too, as C-contiguous int8."""
        challenges = data.draw(pm1_arrays((m, n)))
        responses = data.draw(pm1_arrays((m,) if width is None else (m, width)))
        keep = data.draw(st.integers(1, m))
        kind = "crps" if width is None else "fleet"
        with tempfile.TemporaryDirectory() as root:
            ArtifactStore(root).store(kind, "k", challenges, responses)
            loaded = ArtifactStore(root).load(kind, "k")
            assert loaded is not None
            got_c, got_r = loaded
            store = ArtifactStore(root)
            store.get_or_generate(kind, "s", 0, m, lambda: (challenges, responses))
            taken = store.get_or_generate(
                kind, "s", 0, keep, lambda: pytest.fail("prefix must hit")
            )
            assert store.hits == 1
        np.testing.assert_array_equal(taken[0], challenges[:keep])
        np.testing.assert_array_equal(taken[1], responses[:keep])
        for got in (got_c, got_r):
            assert got.dtype == np.int8 and got.flags.c_contiguous
        np.testing.assert_array_equal(got_c, challenges)
        np.testing.assert_array_equal(got_r, responses)

    @pytest.mark.parametrize("kind", ["crps", "fleet"])
    @pytest.mark.parametrize("bad", ["challenges", "responses"])
    def test_non_pm1_plane_is_rejected_before_staging(self, tmp_path, kind, bad):
        challenges, responses = make_plane(seed=1)
        if kind == "crps":
            responses = responses[:, 0]
        planes = {"challenges": challenges.copy(), "responses": responses.copy()}
        planes[bad][3] = 0
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match=r"\+/-1"):
            store.store(kind, "k", **planes)
        assert store.entries() == {}
        assert list(tmp_path.iterdir()) == []  # no entry, no staging file
        assert store.bytes_stored == 0

    def test_flipped_bit_is_a_warned_miss_and_regenerates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        args = dict(kind="fleet", spec="f", seed=0, m=40, shape=(8, 3))
        plane = make_plane(seed=4)
        store.get_or_generate(**args, generate=lambda: plane)
        (entry,) = store.entries()
        raw = bytearray(entry.read_bytes())
        at = raw.find(np.packbits(plane[0] > 0, axis=-1).tobytes())
        assert at > 0  # uncompressed: the packed challenges sit verbatim
        raw[at + 5] ^= 0x10
        entry.write_bytes(bytes(raw))
        calls = []

        def regenerate():
            calls.append(1)
            return plane

        fresh = ArtifactStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="unreadable fleet.*CRC-32 mismatch"):
            challenges, _ = fresh.get_or_generate(**args, generate=regenerate)
        assert calls == [1] and fresh.corrupt == 1
        np.testing.assert_array_equal(challenges, plane[0])
        assert fresh.load(
            "fleet", artifact_digest("fleet", "f", 0, shape=(8, 3))
        ) is not None

    def test_pre_bit_packing_entry_is_discarded_once(self, tmp_path):
        """An entry in the old zlib int8 format warns once, is regenerated
        and is replaced by a packed entry that later runs hit."""
        crps = make_crps(m=30)
        store = ArtifactStore(tmp_path)
        key = artifact_digest("crps", "a", 3)
        np.savez_compressed(
            store.entry_path("crps", key), challenges=crps[0], responses=crps[1]
        )
        request = dict(kind="crps", spec="a", seed=3, m=30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = store.get_or_generate(**request, generate=lambda: crps)
        unreadable = [w for w in caught if "unreadable" in str(w.message)]
        assert len(unreadable) == 1 and len(caught) == 1
        assert store.corrupt == 1 and store.misses == 1
        np.testing.assert_array_equal(got[1], crps[1])
        assert store.entry_path("crps", key).read_bytes().startswith(ENTRY_MAGIC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = store.get_or_generate(
                **request, generate=lambda: pytest.fail("must hit")
            )
        assert store.hits == 1
        np.testing.assert_array_equal(again[0], crps[0])

    @staticmethod
    def _regenerates_once(tmp_path, kind, damage):
        """Publish an entry of ``kind``, let ``damage(path, challenges,
        responses)`` rewrite its file, then check the next lookup warns
        once, regenerates once and republishes an entry that a third
        lookup hits — with that entry the only file left on disk."""
        store = ArtifactStore(tmp_path)
        challenges, responses = make_plane(seed=5, m=21, n=11, size=5)
        request = dict(kind=kind, spec="p", seed=1, m=21)
        if kind == "crps":
            responses = responses[:, 0]
        else:
            request.update(shape=(11, 5))
        plane = (challenges, responses)
        lookup = store.get_or_generate
        lookup(**request, generate=lambda: plane)
        (path,) = store.entries()
        damage(path, challenges, responses)
        calls = []

        def regenerate():
            calls.append(1)
            return plane

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lookup(**request, generate=regenerate)
        assert len(caught) == 1 and "unreadable" in str(caught[0].message)
        assert calls == [1] and store.corrupt == 1 and store.misses == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lookup(**request, generate=lambda: pytest.fail("must hit"))
        assert store.hits == 1
        assert list(store.entries()) == [path]
        assert sorted(tmp_path.iterdir()) == [path]
        return str(caught[0].message)

    @pytest.mark.parametrize("kind", ["crps", "fleet"])
    @pytest.mark.parametrize("keep", [0, 5, 31, 40, -1])
    def test_truncated_entry_is_a_warned_miss(self, tmp_path, kind, keep):
        def truncate(path, *_):
            raw = path.read_bytes()
            path.write_bytes(raw[: keep % len(raw)])

        message = self._regenerates_once(tmp_path, kind, truncate)
        assert "truncated entry" in message or "needs" in message

    @pytest.mark.parametrize("kind", ["crps", "fleet"])
    def test_wrong_magic_is_a_warned_miss(self, tmp_path, kind):
        def relabel(path, *_):
            path.write_bytes(b"REPROPM2" + path.read_bytes()[len(ENTRY_MAGIC) :])

        message = self._regenerates_once(tmp_path, kind, relabel)
        assert "b'REPROPM2'" in message

    @pytest.mark.parametrize("kind", ["crps", "fleet"])
    @pytest.mark.parametrize("extra", [-1, 1, 8])
    def test_payload_disagreeing_with_header_is_a_warned_miss(
        self, tmp_path, kind, extra
    ):
        """The CRC is re-sealed over the resized payload, so only the
        length check against the header can catch it."""
        import zlib

        def resize(path, *_):
            body = path.read_bytes()[:-4]
            body = body[:extra] if extra < 0 else body + bytes(extra)
            path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))

        message = self._regenerates_once(tmp_path, kind, resize)
        assert "needs" in message

    @pytest.mark.parametrize("kind", ["crps", "fleet"])
    def test_bit_packed_npz_entry_is_a_warned_miss(self, tmp_path, kind):
        """An entry in the zip layout the store wrote before its flat
        format: an uncompressed ``np.savez`` of the int64 shape and the
        packed planes, at the same path."""

        def older_format(path, challenges, responses):
            width = responses.shape[1] if responses.ndim == 2 else -1
            with open(path, "wb") as handle:
                np.savez(
                    handle,
                    shape=np.array(challenges.shape + (width,), dtype=np.int64),
                    challenges=np.packbits(challenges > 0, axis=-1),
                    responses=np.packbits(responses > 0, axis=-1),
                )

        message = self._regenerates_once(tmp_path, kind, older_format)
        assert "b'PK\\x03\\x04" in message

    @pytest.mark.parametrize("kind", ["crps", "fleet"])
    def test_entry_removed_during_a_lookup_is_not_corrupt(
        self, tmp_path, monkeypatch, kind
    ):
        """An entry another process's ``clear()`` or eviction removes once
        a lookup has found it (here: as the lookup's span opens, after the
        lookup located the file and before it read it) is served whole
        from the open file; one removed before the lookup is a plain miss.
        Neither is warned about, counted or discarded as corrupt."""
        import contextlib

        from repro.runtime import store as store_module
        from repro.telemetry.meter import QueryMeter, metered

        challenges, responses = make_plane(seed=6)
        store = ArtifactStore(tmp_path)
        if kind == "crps":
            responses = responses[:, 0]
        store.store(kind, "k", challenges, responses)
        (path,) = store.entries()
        real_trace = store_module.trace

        @contextlib.contextmanager
        def vanishing(name, **attrs):
            if name == "artifact_store.load":
                path.unlink()
            with real_trace(name, **attrs):
                yield

        monkeypatch.setattr(store_module, "trace", vanishing)
        meter = QueryMeter()
        with warnings.catch_warnings(), metered(meter):
            warnings.simplefilter("error")
            loaded = store.load(kind, "k")
            assert not path.exists()
            assert store.load(kind, "k") is None
        assert loaded is not None
        np.testing.assert_array_equal(loaded[0], challenges)
        np.testing.assert_array_equal(loaded[1], responses)
        assert store.corrupt == 0
        assert "artifact_store.corrupt" not in meter.counters

    def test_load_and_publish_are_traced(self, tmp_path):
        from repro.telemetry.spans import recording

        store = ArtifactStore(tmp_path)
        challenges, responses = make_plane(seed=2)
        with recording() as recorder:
            store.store("fleet", "k", challenges, responses)
            store.load("fleet", "k")
            store.load("fleet", "absent")
        spans = recorder.roots()
        assert [s.name for s in spans] == [
            "artifact_store.publish", "artifact_store.load",
        ]
        assert all(s.attrs["kind"] == "fleet" for s in spans)
        assert spans[0].attrs["bytes"] == 3 * 8 + 40 + 40  # shape + packed
        assert spans[1].attrs["bytes"] == store.total_bytes()


# ----------------------------------------------------------------------
# fleet_eval_trial builds its fleet only when it needs one.
# ----------------------------------------------------------------------
class TestLazyFleetBuild:
    def run_counted(self, monkeypatch, spec, cache_dir, trials=3):
        from repro.pufs.fleet import Fleet

        builds = []
        original = Fleet.build

        def counted(cls, fleet_spec, seed=None):
            builds.append(fleet_spec)
            return original(fleet_spec, seed)

        monkeypatch.setattr(Fleet, "build", classmethod(counted))
        kwargs = {"spec": spec, "cache_dir": str(cache_dir)}
        report = TrialRunner(workers=1).run(fleet_eval_trial, trials, 21, kwargs)
        report.raise_failures()
        return report.values(), len(builds)

    def test_noiseless_hit_builds_no_fleet(self, tmp_path, monkeypatch):
        spec = FleetEvalSpec(
            family="xor", n=16, size=8, k=2, m=120,
            noise_sigma=0.0, repetitions=1,
        )
        cold, cold_builds = self.run_counted(monkeypatch, spec, tmp_path)
        warm, warm_builds = self.run_counted(monkeypatch, spec, tmp_path)
        assert (cold_builds, warm_builds) == (3, 0)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)

    def test_noisy_trial_builds_one_fleet_on_miss_and_hit(
        self, tmp_path, monkeypatch
    ):
        spec = FleetEvalSpec(
            family="arbiter", n=16, size=8, m=120,
            noise_sigma=0.3, repetitions=3,
        )
        cold, cold_builds = self.run_counted(monkeypatch, spec, tmp_path)
        warm, warm_builds = self.run_counted(monkeypatch, spec, tmp_path)
        assert (cold_builds, warm_builds) == (3, 3)
        uncached = TrialRunner(workers=1).run(
            fleet_eval_trial, 3, 21, {"spec": spec}
        ).values()
        for a, b, c in zip(cold, warm, uncached):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


# ----------------------------------------------------------------------
# fleet_eval_trial computes its margins once on every path.
# ----------------------------------------------------------------------
class TestOneMarginPass:
    @staticmethod
    def run_counted(spec, cache_dir=None, trials=3):
        from repro.kernels.backend import NumpyBackend, use_backend

        class CountingBackend(NumpyBackend):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def gemm(self, features, weights):
                self.calls += 1
                return super().gemm(features, weights)

        kwargs = {"spec": spec}
        if cache_dir is not None:
            kwargs["cache_dir"] = str(cache_dir)
        with use_backend(CountingBackend()) as backend:
            report = TrialRunner(workers=1).run(fleet_eval_trial, trials, 21, kwargs)
        report.raise_failures()
        return report.values(), backend.calls

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.3])
    @pytest.mark.parametrize("family", ["arbiter", "xor"])
    def test_one_gemm_per_trial_on_every_path(self, tmp_path, family, noise_sigma):
        spec = FleetEvalSpec(
            family=family, n=16, size=8, k=2, m=120,
            noise_sigma=noise_sigma, repetitions=3,
        )
        plain, plain_calls = self.run_counted(spec)
        cold, miss_calls = self.run_counted(spec, tmp_path)
        warm, hit_calls = self.run_counted(spec, tmp_path)
        # A noiseless hit needs no margins: its plane comes from the store.
        assert (plain_calls, miss_calls, hit_calls) == (3, 3, 3 if noise_sigma else 0)
        for a, b, c in zip(plain, cold, warm):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


# ----------------------------------------------------------------------
# fleet_eval_trial draws its challenges only when it needs them.
# ----------------------------------------------------------------------
class TestLazyChallengeDraw:
    def run_counted(self, monkeypatch, spec, cache_dir=None, trials=3):
        from repro.runtime import workloads

        draws = []
        original = workloads.uniform_challenges

        def counted(m, n, rng):
            draws.append(m)
            return original(m, n, rng)

        monkeypatch.setattr(workloads, "uniform_challenges", counted)
        kwargs = {"spec": spec}
        if cache_dir is not None:
            kwargs["cache_dir"] = str(cache_dir)
        report = TrialRunner(workers=1).run(fleet_eval_trial, trials, 21, kwargs)
        report.raise_failures()
        return report.values(), len(draws)

    def test_noiseless_hit_draws_no_challenges(self, tmp_path, monkeypatch):
        spec = FleetEvalSpec(
            family="xor", n=16, size=8, k=3, m=120,
            noise_sigma=0.0, repetitions=1,
        )
        cold, cold_draws = self.run_counted(monkeypatch, spec, tmp_path)
        warm, warm_draws = self.run_counted(monkeypatch, spec, tmp_path)
        assert (cold_draws, warm_draws) == (3, 0)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)

    def test_noisy_full_and_prefix_hits_replay_the_cold_values(
        self, tmp_path, monkeypatch
    ):
        big = FleetEvalSpec(
            family="xor", n=16, size=8, k=(1, 2, 3, 2, 1, 4, 2, 3), m=120,
            noise_sigma=0.3, repetitions=3,
        )
        small = dataclasses.replace(big, m=70)
        cold, cold_draws = self.run_counted(monkeypatch, big, tmp_path)
        full, full_draws = self.run_counted(monkeypatch, big, tmp_path)
        prefix, prefix_draws = self.run_counted(monkeypatch, small, tmp_path)
        assert len(ArtifactStore(tmp_path).entries()) == 3  # both reruns hit
        # The noisy branch draws (and discards) the challenges on a hit.
        assert (cold_draws, full_draws, prefix_draws) == (3, 3, 3)
        uncached_small, _ = self.run_counted(monkeypatch, small)
        for a, b in zip(cold, full):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(uncached_small, prefix):
            np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# fleet_eval_trial spawns its seeds only when it needs them, and its spec
# builds one FleetSpec.
# ----------------------------------------------------------------------
class TestLazySeeding:
    @staticmethod
    def run_direct(spec, cache_dir=None):
        """One trial called directly; its value and its seed's spawn count."""
        seed = np.random.SeedSequence(21, spawn_key=(3,))
        kwargs = {} if cache_dir is None else {"cache_dir": str(cache_dir)}
        value = fleet_eval_trial(TrialContext(3, seed), spec, **kwargs)
        return value, seed.n_children_spawned

    @pytest.mark.parametrize(
        "family, noise_sigma, repetitions, hit_spawns",
        [("xor", 0.0, 1, 0), ("arbiter", 0.3, 3, 2)],
    )
    def test_only_a_hit_that_draws_spawns_seeds(
        self, tmp_path, family, noise_sigma, repetitions, hit_spawns
    ):
        """A noiseless hit spawns no seed; a miss, a noisy hit and an
        uncached run spawn the same two children and agree exactly."""
        spec = FleetEvalSpec(
            family=family, n=16, size=8, k=2, m=120,
            noise_sigma=noise_sigma, repetitions=repetitions,
        )
        plain, plain_spawned = self.run_direct(spec)
        cold, cold_spawned = self.run_direct(spec, tmp_path)
        warm, warm_spawned = self.run_direct(spec, tmp_path)
        assert (plain_spawned, cold_spawned, warm_spawned) == (2, 2, hit_spawns)
        np.testing.assert_array_equal(plain, cold)
        np.testing.assert_array_equal(plain, warm)

    def test_spec_keeps_one_fleet_spec_outside_its_fields(self):
        import json
        import pickle

        spec = FleetEvalSpec(
            family="xor", n=16, size=4, k=(1, 2, 3, 2), m=50,
            noise_sigma=0.1, repetitions=3,
        )
        assert spec.fleet_spec() is spec.fleet_spec()
        assert spec.fleet_spec().k == (1, 2, 3, 2)
        fields = [field.name for field in dataclasses.fields(spec)]
        record = dataclasses.asdict(spec)
        # run_job_sync writes this dict to meta.json as the job's spec.
        assert list(record) == fields
        json.dumps(record)
        again = FleetEvalSpec(**record)
        assert again == spec and hash(again) == hash(spec)
        assert repr(again) == repr(spec) and "FleetSpec" not in repr(spec)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.fleet_spec() == spec.fleet_spec()
        resized = dataclasses.replace(spec, n=24)
        assert resized.fleet_spec().n == 24 and spec.fleet_spec().n == 16
