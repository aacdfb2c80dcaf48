"""ArtifactStore entries: hit/miss, prefix reuse, atomic publish, clear.

The entry-level behaviour of the store's one lookup, for CRP sets and
fleet planes alike; the digest schema, LRU eviction and cross-process
races are pinned in ``test_store.py``.
"""

import numpy as np
import pytest

from repro import persist
from repro.persist import is_staging
from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.crp import generate_crps
from repro.runtime.store import ArtifactStore, artifact_digest

#: Per kind, the provenance this file's lookups key their entries by,
#: beyond ``(kind, spec, seed)``, and the label a corrupt entry's
#: warning names the kind by.
PROVENANCE = {"crps": {}, "fleet": {"shape": (10, 6)}}
LABELS = {"crps": "CRP", "fleet": "fleet"}


def cache_key(puf_spec, seed, distribution, noisy=False):
    """The store key of a CRP-set entry (``m`` is not key material)."""
    return artifact_digest(
        "crps", puf_spec, seed, distribution=distribution, noisy=noisy
    )


def fleet_cache_key(fleet_spec, seed, distribution, shape, noisy=False):
    """The store key of a fleet-plane entry (its shape is key material)."""
    return artifact_digest(
        "fleet", fleet_spec, seed, distribution=distribution, shape=shape,
        noisy=noisy,
    )


def make_crps(seed=0, m=100, n=12):
    """The ``(challenges, responses)`` of ``m`` CRPs of a fresh arbiter PUF."""
    puf = ArbiterPUF(n, np.random.default_rng(seed))
    crps = generate_crps(puf, m, np.random.default_rng(seed + 1))
    return crps.challenges, crps.responses


def make_fleet_plane(seed=0, m=40, n=10, size=6):
    rng = np.random.default_rng(seed)
    challenges = (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)
    responses = (1 - 2 * rng.integers(0, 2, size=(m, size))).astype(np.int8)
    return challenges, responses


def make_artifact(kind, seed=0, m=40):
    """An ``m``-row ``(challenges, responses)`` pair of ``kind``."""
    return (make_crps if kind == "crps" else make_fleet_plane)(seed=seed, m=m)


def lookup(cache, kind, seed, m, generate):
    """``cache.get_or_generate`` of this file's ``kind`` entry for ``seed``."""
    return cache.get_or_generate(kind, "s", seed, m, generate, **PROVENANCE[kind])


def test_miss_generates_and_stores(tmp_path):
    cache = ArtifactStore(tmp_path)
    calls = []

    def gen():
        calls.append(1)
        return make_crps()

    challenges, responses = cache.get_or_generate(
        "crps", "arbiter(n=12)", 0, 100, gen, distribution="uniform"
    )
    assert len(challenges) == len(responses) == 100
    assert calls == [1]
    assert cache.misses == 1 and cache.hits == 0
    assert cache.entry_path("crps", cache_key("arbiter(n=12)", 0, "uniform")).exists()


def test_hit_skips_generation(tmp_path):
    cache = ArtifactStore(tmp_path)
    first = cache.get_or_generate("crps", "a", 1, 50, make_crps)

    def must_not_run():
        raise AssertionError("generator called on a cache hit")

    second = cache.get_or_generate("crps", "a", 1, 50, must_not_run)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
    assert cache.hits == 1


@pytest.mark.parametrize("kind", ["crps", "fleet"])
def test_prefix_served_from_larger_cached_set(tmp_path, kind):
    cache = ArtifactStore(tmp_path)
    challenges, responses = make_artifact(kind, m=50)
    lookup(cache, kind, 3, 50, lambda: (challenges, responses))
    got_c, got_r = lookup(
        cache, kind, 3, 20, lambda: pytest.fail("prefix request must hit")
    )
    assert cache.hits == 1
    np.testing.assert_array_equal(got_c, challenges[:20])
    np.testing.assert_array_equal(got_r, responses[:20])
    assert got_c.dtype == np.int8 and got_r.dtype == np.int8


def test_larger_request_regenerates(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate("crps", "a", 3, 50, lambda: make_crps(m=50))
    bigger = cache.get_or_generate("crps", "a", 3, 80, lambda: make_crps(m=80))
    assert len(bigger[0]) == 80
    assert cache.misses == 2


def test_distinct_provenance_distinct_entries(tmp_path):
    cache = ArtifactStore(tmp_path)
    provenances = [
        ("a", 0, "uniform", False),
        ("a", 1, "uniform", False),
        ("b", 0, "uniform", False),
        ("a", 0, "biased(0.3)", False),
        ("a", 0, "uniform", True),
    ]
    for spec, seed, distribution, noisy in provenances:
        cache.get_or_generate(
            "crps", spec, seed, 10, lambda: make_crps(m=10),
            distribution=distribution, noisy=noisy,
        )
    assert cache.misses == 5
    assert len(cache.entries()) == 5
    # m is deliberately NOT part of the key (prefix reuse).
    cache.get_or_generate(
        "crps", "a", 0, 5, lambda: pytest.fail("a smaller request must hit")
    )
    assert cache.hits == 1


@pytest.mark.parametrize("kind", ["crps", "fleet"])
def test_short_generator_output_rejected(tmp_path, kind):
    cache = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="fewer than requested"):
        lookup(cache, kind, 4, 100, lambda: make_artifact(kind, m=10))


def test_clear_removes_entries(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate("crps", "a", 5, 10, lambda: make_crps(m=10))
    assert cache.clear() == 1
    assert cache.load("crps", cache_key("a", 5, "uniform")) is None


@pytest.mark.parametrize("kind", ["crps", "fleet"])
def test_corrupt_entry_is_a_miss_and_regenerates(tmp_path, kind):
    """A truncated/corrupt entry (killed writer, bad disk) must not poison
    every future read: warn, unlink, regenerate — in this process or the
    next."""
    cache = ArtifactStore(tmp_path)
    plane = make_artifact(kind, seed=7, m=20)
    lookup(cache, kind, 7, 20, lambda: plane)
    (entry,) = cache.entries()
    entry.write_bytes(b"this is not an entry")
    calls = []

    def regenerate():
        calls.append(1)
        return plane

    fresh = ArtifactStore(tmp_path)
    with pytest.warns(RuntimeWarning, match=f"unreadable {LABELS[kind]} cache entry"):
        got_c, got_r = lookup(fresh, kind, 7, 20, regenerate)
    assert calls == [1]
    assert fresh.corrupt == 1 and fresh.misses == 1
    np.testing.assert_array_equal(got_c, plane[0])
    np.testing.assert_array_equal(got_r, plane[1])
    # The poisoned file was replaced with a readable one.
    key = artifact_digest(kind, "s", 7, **PROVENANCE[kind])
    assert fresh.load(kind, key) is not None


def test_store_leaves_no_staging_files(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.store("crps", cache_key("a", 8, "uniform"), *make_crps(m=10))
    assert [p.name for p in tmp_path.iterdir()] == [
        cache.entry_path("crps", cache_key("a", 8, "uniform")).name
    ]
    assert not any(is_staging(p) for p in tmp_path.iterdir())


def test_failed_store_cleans_its_staging_file(tmp_path, monkeypatch):
    cache = ArtifactStore(tmp_path)
    crps = make_crps(m=10)

    staged = []

    def boom(fd, data):
        staged.extend(tmp_path.iterdir())
        raise OSError("disk full")

    monkeypatch.setattr(persist, "_write_all", boom)
    with pytest.raises(OSError, match="disk full"):
        cache.store("crps", "deadbeef", *crps)
    assert len(staged) == 1 and is_staging(staged[0])  # staged, then cleaned
    assert list(tmp_path.iterdir()) == []
    assert not cache.entry_path("crps", "deadbeef").exists()


def test_clear_sweeps_orphaned_staging_files(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate("crps", "a", 9, 10, lambda: make_crps(m=10))
    orphan = tmp_path / "crps-deadbeef.npz.4242-0.tmp"
    orphan.write_bytes(b"partial write from a killed process")
    assert is_staging(orphan) and cache.entries().keys().isdisjoint([orphan])
    assert cache.clear() == 2
    assert not orphan.exists()


def test_concurrent_writers_never_corrupt_the_entry(tmp_path):
    """Racing writers of one key each stage in a private staging file and
    publish atomically — the surviving entry is always whole."""
    import threading

    cache = ArtifactStore(tmp_path)
    key = cache_key("a", 10, "uniform")
    sets = [make_crps(seed=s, m=30) for s in range(4)]
    threads = [
        threading.Thread(target=cache.store, args=("crps", key, *crps))
        for crps in sets
        for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loaded = cache.load("crps", key)
    assert loaded is not None and len(loaded[0]) == len(loaded[1]) == 30
    assert not any(is_staging(p) for p in tmp_path.iterdir())


def test_roundtrip_preserves_dtypes(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate("crps", "a", 6, 20, lambda: make_crps(m=20))
    reloaded = cache.get_or_generate(
        "crps", "a", 6, 20, lambda: pytest.fail("must hit")
    )
    assert isinstance(reloaded, tuple) and len(reloaded) == 2
    assert reloaded[0].dtype == np.int8
    assert reloaded[1].dtype == np.int8


# ----------------------------------------------------------------------
# Fleet response-plane entries
# ----------------------------------------------------------------------
def test_fleet_key_includes_shape():
    """A resized fleet can never alias a stale plane — shape is key
    material, as are the seed and the noise flag."""
    base = fleet_cache_key("spec", 0, "uniform", (64, 256))
    assert fleet_cache_key("spec", 0, "uniform", (64, 512)) != base
    assert fleet_cache_key("spec", 0, "uniform", (32, 256)) != base
    assert fleet_cache_key("spec", 1, "uniform", (64, 256)) != base
    assert fleet_cache_key("spec", 0, "uniform", (64, 256), noisy=True) != base
    # m stays out of the digest (prefix reuse), shapes accept numpy ints
    assert fleet_cache_key("spec", 0, "uniform", np.array([64, 256])) == base


def test_corrupt_fleet_entry_is_a_miss_and_regenerates(tmp_path):
    """The same handle that published an entry treats its later corruption
    as a miss, and the regenerated entry is whole again."""
    cache = ArtifactStore(tmp_path)
    plane = make_fleet_plane(seed=7)
    lookup(cache, "fleet", 7, 40, lambda: plane)
    key = fleet_cache_key("s", 7, "uniform", (10, 6))
    cache.entry_path("fleet", key).write_bytes(b"truncated garbage")
    with pytest.warns(RuntimeWarning, match="unreadable fleet cache entry"):
        got_c, got_r = lookup(cache, "fleet", 7, 40, lambda: plane)
    assert cache.misses == 2
    assert np.array_equal(got_r, plane[1])
    assert cache.load("fleet", key) is not None


def test_malformed_fleet_entry_is_discarded(tmp_path):
    """A structurally wrong archive (mismatched row counts) degrades to a
    miss too, not just an unreadable one."""
    cache = ArtifactStore(tmp_path)
    key = fleet_cache_key("s", 8, "uniform", (10, 6))
    cache.store_dir.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        cache.entry_path("fleet", key),
        challenges=np.ones((5, 10), dtype=np.int8),
        responses=np.ones((7, 6), dtype=np.int8),
    )
    with pytest.warns(RuntimeWarning, match="unreadable fleet cache entry"):
        assert cache.load("fleet", key) is None
    assert not cache.entry_path("fleet", key).exists()


def test_clear_sweeps_fleet_entries_too(tmp_path):
    cache = ArtifactStore(tmp_path)
    lookup(cache, "crps", 1, 10, lambda: make_crps(m=10))
    lookup(cache, "fleet", 1, 40, make_fleet_plane)
    assert cache.clear() == 2
    assert list(tmp_path.glob("*.npz")) == []


def test_fleet_hit_meters_per_instance_queries(tmp_path):
    from repro.telemetry.meter import QueryMeter, metered

    cache = ArtifactStore(tmp_path)
    lookup(cache, "fleet", 2, 40, make_fleet_plane)
    meter = QueryMeter()
    with metered(meter):
        lookup(cache, "fleet", 2, 30, lambda: pytest.fail("must hit"))
    assert meter.total_queries == 30 * 6


# ----------------------------------------------------------------------
# A replayed artifact costs the adversary what generating it would.
# ----------------------------------------------------------------------
def _generator(kind):
    """A function of ``m`` that generates ``m`` rows of ``kind`` the way the
    trials do: CRPs through ``generate_crps``, a plane through
    ``Fleet.eval``; both meter their own queries."""
    from repro.pufs.crp import uniform_challenges
    from repro.pufs.fleet import Fleet, FleetSpec

    if kind == "crps":
        puf = ArbiterPUF(12, np.random.default_rng(0))

        def generate(m):
            crps = generate_crps(puf, m, np.random.default_rng(1))
            return crps.challenges, crps.responses

    else:
        fleet = Fleet.build(FleetSpec(family="arbiter", n=12, size=5), 0)

        def generate(m):
            challenges = uniform_challenges(m, 12, np.random.default_rng(1))
            return challenges, fleet.eval(challenges)

    return generate


@pytest.mark.parametrize("kind", ["crps", "fleet"])
def test_full_and_prefix_hits_meter_a_cold_generation(tmp_path, kind):
    from repro.telemetry.meter import QueryMeter, metered

    generate = _generator(kind)
    cache = ArtifactStore(tmp_path)
    provenance = {} if kind == "crps" else {"shape": (12, 5)}

    def metered_snapshot(call):
        meter = QueryMeter()
        with metered(meter):
            call()
        snap = meter.snapshot()
        return {
            "queries": snap["queries"],
            "crp_bytes": snap["crp_bytes"],
            "distinct_challenges": snap["distinct_challenges"],
        }

    def hit(m):
        cache.get_or_generate(
            kind, "s", 0, m, lambda: pytest.fail("must hit"), **provenance
        )

    cold = metered_snapshot(
        lambda: cache.get_or_generate(
            kind, "s", 0, 60, lambda: generate(60), **provenance
        )
    )
    assert cold == metered_snapshot(lambda: generate(60))
    assert metered_snapshot(lambda: hit(60)) == cold
    assert metered_snapshot(lambda: hit(25)) == metered_snapshot(lambda: generate(25))
    assert cache.misses == 1 and cache.hits == 2
    ex = cold["queries"]["ex"]
    assert ex["queries"] == ex["examples"] == 60 * (1 if kind == "crps" else 5)
