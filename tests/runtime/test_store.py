"""ArtifactStore: digest schema, LRU eviction, tier isolation, warm start.

Pins the content-addressed store contract: the digest covers exactly the
generation provenance (kind, spec, seed identity, challenge-set identity,
dtype tier, shape, noisy) and nothing else; eviction is size-capped LRU
with the just-published entry protected; an int8-tier request is never
served a float64 entry; warm-start reruns are bit-identical to cold ones;
two processes publishing the same digest concurrently both succeed
with exactly one complete archive surviving (winner-take-one); entries
round-trip exactly through the bit-packed +/-1 codec, which rejects
other values and discards a bit-flipped or pre-bit-packing entry once;
and a fleet trial builds its fleet only when a miss or the noisy
reliability branch needs it.
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

from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.crp import CRPSet, generate_crps
from repro.runtime import TrialRunner
from repro.runtime.store import (
    ARTIFACT_KINDS,
    MAX_BYTES_ENV,
    STORE_DIR_ENV,
    ArtifactStore,
    artifact_digest,
    hash_challenges,
)
from repro.runtime.workloads import FleetEvalSpec, fleet_eval_trial


def make_crps(seed=0, m=100, n=12):
    puf = ArbiterPUF(n, np.random.default_rng(seed))
    return generate_crps(puf, m, np.random.default_rng(seed + 1))


def make_plane(seed=0, m=40, n=8, size=3):
    rng = np.random.default_rng(seed)
    challenges = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    responses = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, size))
    return challenges, responses


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
            {"tier": "float64"},
            {"shape": (8, 16)},
            {"noisy": True},
        ],
    )
    def test_every_provenance_field_is_key_material(self, override):
        base = dict(
            kind="fleet", spec="s", seed=0, distribution="uniform",
            tier="int8", shape=(4, 8), noisy=False,
        )
        assert artifact_digest(**base) != artifact_digest(**{**base, **override})

    def test_seed_identity_distinguishes_launch_forms(self):
        # int 1 and string "1" are different provenance, not the same key.
        assert artifact_digest("crps", "s", 1) != artifact_digest("crps", "s", "1")

    def test_row_count_is_not_key_material(self, tmp_path):
        """The digest takes no ``m``: a smaller request resolves to the same
        entry as a larger draw from the same state (prefix reuse)."""
        store = ArtifactStore(tmp_path)
        full = store.get_or_generate(
            puf_spec="s", seed=0, distribution="uniform", m=80,
            generate=lambda: make_crps(m=80),
        )
        prefix = store.get_or_generate(
            puf_spec="s", seed=0, distribution="uniform", m=30,
            generate=lambda: pytest.fail("prefix request must hit"),
        )
        assert len(store.entries()) == 1
        np.testing.assert_array_equal(prefix.challenges, full.challenges[:30])

    def test_hash_challenges_covers_content_shape_dtype(self):
        x = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        assert hash_challenges(x).startswith("sha256:")
        assert hash_challenges(x) == hash_challenges(x.copy())
        assert hash_challenges(x) != hash_challenges(-x)
        assert hash_challenges(x) != hash_challenges(x.reshape(4, 1))
        assert hash_challenges(x) != hash_challenges(x.astype(np.int16))

    def test_hash_challenges_keys_explicit_challenge_sets(self, tmp_path):
        """Passing hash_challenges(x) as the distribution keys the entry by
        challenge content: different matrices never alias."""
        x, y = make_plane(seed=1)[0], make_plane(seed=2)[0]
        assert artifact_digest("crps", "s", 0, distribution=hash_challenges(x)) != \
            artifact_digest("crps", "s", 0, distribution=hash_challenges(y))


# ----------------------------------------------------------------------
# LRU eviction under a byte cap.
# ----------------------------------------------------------------------
class TestLRUEviction:
    def fill(self, store, count, m=80):
        paths = []
        for i in range(count):
            key = artifact_digest("crps", f"spec-{i}", i)
            paths.append(store.store(key, make_crps(seed=i, m=m)))
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
        key_c = artifact_digest("crps", "spec-c", 99)
        c = capped.store(key_c, make_crps(seed=99, m=10))  # small; one evict
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
        assert capped.load(key_a) is not None  # touches a: now the newest
        capped.store(artifact_digest("crps", "spec-c", 99), make_crps(99, m=10))
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
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env-store"))
        monkeypatch.setenv(MAX_BYTES_ENV, "12345")
        store = ArtifactStore()
        assert store.store_dir == tmp_path / "env-store"
        assert store.max_bytes == 12345


# ----------------------------------------------------------------------
# Tier isolation: the dtype tier is key material for fleet planes.
# ----------------------------------------------------------------------
class TestTierIsolation:
    def fleet_args(self, tier):
        return dict(
            fleet_spec="fleet(arbiter, n=8, size=3)",
            seed=5,
            distribution="uniform",
            tier=tier,
            shape=(8, 3),
            m=40,
        )

    def test_int8_request_never_served_float64_entry(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def gen():
            calls.append(1)
            return make_plane(seed=5)

        store.get_or_generate_fleet(**self.fleet_args("float64"), generate=gen)
        store.get_or_generate_fleet(**self.fleet_args("int8"), generate=gen)
        assert len(calls) == 2  # second tier missed; no cross-tier serving
        assert store.misses == 2 and store.hits == 0

        def must_not_run():
            raise AssertionError("same-tier request must hit")

        store.get_or_generate_fleet(
            **self.fleet_args("int8"), generate=must_not_run
        )
        assert store.hits == 1

    def test_shape_is_key_material(self, tmp_path):
        store = ArtifactStore(tmp_path)
        args = self.fleet_args("int8")
        store.get_or_generate_fleet(**args, generate=lambda: make_plane(seed=5))
        args["shape"] = (8, 4)
        store.get_or_generate_fleet(**args, generate=lambda: make_plane(seed=5))
        assert store.misses == 2


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

    def test_corrupt_fleet_entry_is_a_miss_and_regenerates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        args = dict(
            fleet_spec="f", seed=0, distribution="uniform",
            tier="int8", shape=(8, 3), m=40,
        )
        store.get_or_generate_fleet(**args, generate=lambda: make_plane(seed=3))
        (entry,) = store.entries()
        entry.write_bytes(b"not a zip archive")
        fresh = ArtifactStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="unreadable fleet cache entry"):
            challenges, responses = fresh.get_or_generate_fleet(
                **args, generate=lambda: make_plane(seed=3)
            )
        assert fresh.corrupt == 1 and fresh.misses == 1
        np.testing.assert_array_equal(challenges, make_plane(seed=3)[0][:40])

    def test_stats_reports_counters_and_disk_state(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=10**9)
        store.get_or_generate(
            puf_spec="a", seed=0, distribution="uniform", m=50,
            generate=lambda: make_crps(m=50),
        )
        store.get_or_generate(
            puf_spec="a", seed=0, distribution="uniform", m=50,
            generate=lambda: pytest.fail("must hit"),
        )
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
    store.store(key, crps)


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
        assert list(store.entries()) == [store.path_for(key)]
        assert not list(tmp_path.glob("*.tmp.npz"))  # no staging orphans
        # The surviving archive is complete and serves hits.
        cached = store.get_or_generate(
            puf_spec="race-spec", seed=0, distribution="uniform", m=120,
            generate=lambda: pytest.fail("race survivor must serve the hit"),
        )
        reference = make_crps(seed=0, m=120)
        np.testing.assert_array_equal(cached.challenges, reference.challenges)
        np.testing.assert_array_equal(cached.responses, reference.responses)


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
        seed_store.store(artifact_digest("crps", "old-a", 0), make_crps(0, m=80))
        seed_store.store(artifact_digest("crps", "old-b", 1), make_crps(1, m=80))
        cap = seed_store.total_bytes()

        capped = ArtifactStore(tmp_path, max_bytes=cap)
        fresh = capped.store(
            artifact_digest("crps", "fresh", 99), make_crps(99, m=80)
        )
        assert fresh.exists(), "the entry just published was evicted"
        assert capped.evictions >= 1  # the cap was enforced on the others

    def test_fresh_entry_survives_even_when_it_sorts_oldest(
        self, tmp_path, monkeypatch
    ):
        from repro.runtime import store as store_mod

        seed_store = ArtifactStore(tmp_path)
        seed_store.store(artifact_digest("crps", "old-a", 0), make_crps(0, m=80))
        seed_store.store(artifact_digest("crps", "old-b", 1), make_crps(1, m=80))
        cap = seed_store.total_bytes()

        capped = ArtifactStore(tmp_path, max_bytes=cap)
        fresh_key = artifact_digest("crps", "fresh", 99)
        fresh_path = capped.path_for(fresh_key)
        # Adversarial clock: the fresh entry reports an *earlier* stamp
        # than everything already present (staging-file inheritance).
        monkeypatch.setattr(
            store_mod,
            "_entry_mtime",
            lambda path: 0.0 if path == fresh_path else 1_000.0,
        )
        capped.store(fresh_key, make_crps(99, m=80))
        assert fresh_path.exists(), "protect must override LRU order"

    def test_fresh_entry_larger_than_the_cap_is_kept(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)  # everything oversizes
        path = store.store(artifact_digest("crps", "big", 0), make_crps(0, m=80))
        assert path.exists()  # the caller is about to read it

    def test_publish_stamps_mtime_fresh(self, tmp_path):
        """The published file's mtime reflects publish time, not staging
        time: after an old entry is backdated, a new store must sort
        strictly newer than it."""
        store = ArtifactStore(tmp_path)
        old = store.store(artifact_digest("crps", "old", 0), make_crps(0, m=20))
        os.utime(old, (1_000, 1_000))
        new = store.store(artifact_digest("crps", "new", 1), make_crps(1, m=20))
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
        n=st.integers(1, 21),
        width=st.one_of(st.none(), st.integers(1, 19)),
    )
    def test_round_trip_both_kinds(self, data, m, n, width):
        """CRP vectors and response planes of any width (multiple of 8 or
        not) survive a store/load round trip exactly, prefix take too."""
        challenges = data.draw(pm1_arrays((m, n)))
        responses = data.draw(pm1_arrays((m,) if width is None else (m, width)))
        keep = data.draw(st.integers(1, m))
        with tempfile.TemporaryDirectory() as root:
            if width is None:
                ArtifactStore(root).store("k", CRPSet(challenges, responses))
                loaded = ArtifactStore(root).load("k")
                assert loaded is not None
                taken = loaded.take(keep)
                np.testing.assert_array_equal(taken.challenges, challenges[:keep])
                np.testing.assert_array_equal(taken.responses, responses[:keep])
                got_c, got_r = loaded.challenges, loaded.responses
            else:
                ArtifactStore(root).store_fleet("k", challenges, responses)
                loaded = ArtifactStore(root).load_fleet("k")
                assert loaded is not None
                got_c, got_r = loaded
        assert got_c.dtype == np.int8 and got_r.dtype == np.int8
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
            if kind == "crps":
                store.store("k", CRPSet(**planes))
            else:
                store.store_fleet("k", **planes)
        assert store.entries() == {}
        assert list(tmp_path.glob("*.tmp.npz")) == []
        assert store.bytes_stored == 0

    def test_flipped_bit_is_a_warned_miss_and_regenerates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        args = dict(
            fleet_spec="f", seed=0, distribution="uniform",
            tier="int8", shape=(8, 3), m=40,
        )
        plane = make_plane(seed=4)
        store.get_or_generate_fleet(**args, generate=lambda: plane)
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
        with pytest.warns(RuntimeWarning, match="unreadable fleet.*BadZipFile"):
            challenges, _ = fresh.get_or_generate_fleet(**args, generate=regenerate)
        assert calls == [1] and fresh.corrupt == 1
        np.testing.assert_array_equal(challenges, plane[0])
        assert fresh.load_fleet(
            artifact_digest("fleet", "f", 0, tier="int8", shape=(8, 3))
        ) is not None

    def test_pre_bit_packing_entry_is_discarded_once(self, tmp_path):
        """An entry in the old zlib int8 format warns once, is regenerated
        and is replaced by a packed entry that later runs hit."""
        crps = make_crps(m=30)
        store = ArtifactStore(tmp_path)
        key = artifact_digest("crps", "a", 3)
        np.savez_compressed(
            store.path_for(key),
            challenges=crps.challenges.astype(np.int8),
            responses=crps.responses.astype(np.int8),
        )
        request = dict(puf_spec="a", seed=3, distribution="uniform", m=30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = store.get_or_generate(**request, generate=lambda: crps)
        unreadable = [w for w in caught if "unreadable" in str(w.message)]
        assert len(unreadable) == 1 and len(caught) == 1
        assert store.corrupt == 1 and store.misses == 1
        np.testing.assert_array_equal(got.responses, crps.responses)
        with np.load(store.path_for(key)) as data:
            assert set(data.files) == {"shape", "challenges", "responses"}
            assert data["challenges"].dtype == np.uint8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = store.get_or_generate(
                **request, generate=lambda: pytest.fail("must hit")
            )
        assert store.hits == 1
        np.testing.assert_array_equal(again.challenges, crps.challenges)

    def test_load_and_publish_are_traced(self, tmp_path):
        from repro.telemetry.spans import recording

        store = ArtifactStore(tmp_path)
        challenges, responses = make_plane(seed=2)
        with recording() as recorder:
            store.store_fleet("k", challenges, responses)
            store.load_fleet("k")
            store.load_fleet("absent")
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
