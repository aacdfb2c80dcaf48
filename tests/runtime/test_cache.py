"""ArtifactStore entries: hit/miss, prefix reuse, atomic publish, clear.

The entry-level behaviour of the store's CRP-set and fleet-plane paths;
the digest schema, LRU eviction and cross-process races are pinned in
``test_store.py``.
"""

import numpy as np
import pytest

from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.crp import CRPSet, generate_crps
from repro.runtime import store as store_module
from repro.runtime.store import ArtifactStore, artifact_digest


def cache_key(puf_spec, seed, distribution, noisy=False):
    """The store key of a CRP-set entry (``m`` is not key material)."""
    return artifact_digest(
        "crps", puf_spec, seed, distribution=distribution, noisy=noisy
    )


def fleet_cache_key(fleet_spec, seed, distribution, tier, shape, noisy=False):
    """The store key of a fleet-plane entry (tier and shape are)."""
    return artifact_digest(
        "fleet", fleet_spec, seed, distribution=distribution, tier=tier,
        shape=shape, noisy=noisy,
    )


def make_crps(seed=0, m=100, n=12):
    puf = ArbiterPUF(n, np.random.default_rng(seed))
    return generate_crps(puf, m, np.random.default_rng(seed + 1))


def test_miss_generates_and_stores(tmp_path):
    cache = ArtifactStore(tmp_path)
    calls = []

    def gen():
        calls.append(1)
        return make_crps()

    crps = cache.get_or_generate(
        puf_spec="arbiter(n=12)", seed=0, distribution="uniform", m=100, generate=gen
    )
    assert len(crps) == 100
    assert calls == [1]
    assert cache.misses == 1 and cache.hits == 0
    assert cache.path_for(cache_key("arbiter(n=12)", 0, "uniform")).exists()


def test_hit_skips_generation(tmp_path):
    cache = ArtifactStore(tmp_path)
    first = cache.get_or_generate(
        puf_spec="a", seed=1, distribution="uniform", m=50, generate=make_crps
    )

    def must_not_run():
        raise AssertionError("generator called on a cache hit")

    second = cache.get_or_generate(
        puf_spec="a", seed=1, distribution="uniform", m=50, generate=must_not_run
    )
    np.testing.assert_array_equal(first.challenges, second.challenges)
    np.testing.assert_array_equal(first.responses, second.responses)
    assert cache.hits == 1


def test_prefix_served_from_larger_cached_set(tmp_path):
    cache = ArtifactStore(tmp_path)
    full = cache.get_or_generate(
        puf_spec="a", seed=2, distribution="uniform", m=100, generate=make_crps
    )
    prefix = cache.get_or_generate(
        puf_spec="a",
        seed=2,
        distribution="uniform",
        m=30,
        generate=lambda: pytest.fail("prefix request must hit"),
    )
    np.testing.assert_array_equal(prefix.challenges, full.challenges[:30])


def test_larger_request_regenerates(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate(
        puf_spec="a", seed=3, distribution="uniform", m=50,
        generate=lambda: make_crps(m=50),
    )
    bigger = cache.get_or_generate(
        puf_spec="a", seed=3, distribution="uniform", m=80,
        generate=lambda: make_crps(m=80),
    )
    assert len(bigger) == 80
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
            puf_spec=spec, seed=seed, distribution=distribution, m=10,
            generate=lambda: make_crps(m=10), noisy=noisy,
        )
    assert cache.misses == 5
    assert len(cache.entries()) == 5
    # m is deliberately NOT part of the key (prefix reuse).
    cache.get_or_generate(
        puf_spec="a", seed=0, distribution="uniform", m=5,
        generate=lambda: pytest.fail("a smaller request must hit"),
    )
    assert cache.hits == 1


def test_short_generator_output_rejected(tmp_path):
    cache = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="fewer than requested"):
        cache.get_or_generate(
            puf_spec="a", seed=4, distribution="uniform", m=100,
            generate=lambda: make_crps(m=10),
        )


def test_clear_removes_entries(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate(
        puf_spec="a", seed=5, distribution="uniform", m=10,
        generate=lambda: make_crps(m=10),
    )
    assert cache.clear() == 1
    assert cache.load(cache_key("a", 5, "uniform")) is None


def test_env_var_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    cache = ArtifactStore()
    assert cache.cache_dir == tmp_path / "envcache"


def test_corrupt_entry_is_a_miss_and_regenerates(tmp_path):
    """A truncated/corrupt .npz (killed writer, bad disk) must not poison
    every future read: warn, unlink, regenerate."""
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate(
        puf_spec="a", seed=7, distribution="uniform", m=20,
        generate=lambda: make_crps(m=20),
    )
    key = cache_key("a", 7, "uniform")
    cache.path_for(key).write_bytes(b"this is not an npz archive")
    calls = []

    def regenerate():
        calls.append(1)
        return make_crps(m=20)

    with pytest.warns(RuntimeWarning, match="unreadable CRP cache entry"):
        crps = cache.get_or_generate(
            puf_spec="a", seed=7, distribution="uniform", m=20,
            generate=regenerate,
        )
    assert calls == [1]
    assert len(crps) == 20
    # The poisoned file was replaced with a readable one.
    assert cache.load(key) is not None


def test_store_leaves_no_staging_files(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.store(cache_key("a", 8, "uniform"), make_crps(m=10))
    assert list(tmp_path.glob("*.tmp.npz")) == []


def test_failed_store_cleans_its_staging_file(tmp_path, monkeypatch):
    cache = ArtifactStore(tmp_path)
    crps = make_crps(m=10)

    def boom(path, arrays):
        raise OSError("disk full")

    monkeypatch.setattr(store_module, "_write_entry", boom)
    with pytest.raises(OSError, match="disk full"):
        cache.store("deadbeef", crps)
    assert list(tmp_path.glob("*.tmp.npz")) == []
    assert not cache.path_for("deadbeef").exists()


def test_clear_sweeps_orphaned_staging_files(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate(
        puf_spec="a", seed=9, distribution="uniform", m=10,
        generate=lambda: make_crps(m=10),
    )
    orphan = tmp_path / "crps-deadbeef-x1y2z3.tmp.npz"
    orphan.write_bytes(b"partial write from a killed process")
    assert cache.clear() == 2
    assert not orphan.exists()


def test_concurrent_writers_never_corrupt_the_entry(tmp_path):
    """Racing writers of one key each stage in a private mkstemp file and
    publish atomically — the surviving entry is always whole."""
    import threading

    cache = ArtifactStore(tmp_path)
    key = cache_key("a", 10, "uniform")
    sets = [make_crps(seed=s, m=30) for s in range(4)]
    threads = [
        threading.Thread(target=cache.store, args=(key, crps))
        for crps in sets
        for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loaded = cache.load(key)
    assert loaded is not None and len(loaded) == 30
    assert list(tmp_path.glob("*.tmp.npz")) == []


def test_roundtrip_preserves_dtypes(tmp_path):
    cache = ArtifactStore(tmp_path)
    crps = cache.get_or_generate(
        puf_spec="a", seed=6, distribution="uniform", m=20,
        generate=lambda: make_crps(m=20),
    )
    reloaded = cache.get_or_generate(
        puf_spec="a", seed=6, distribution="uniform", m=20,
        generate=lambda: pytest.fail("must hit"),
    )
    assert isinstance(reloaded, CRPSet)
    assert reloaded.challenges.dtype == np.int8
    assert reloaded.responses.dtype == np.int8


# ----------------------------------------------------------------------
# Fleet response-plane entries
# ----------------------------------------------------------------------
def make_fleet_plane(seed=0, m=40, n=10, size=6):
    rng = np.random.default_rng(seed)
    challenges = (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)
    responses = (1 - 2 * rng.integers(0, 2, size=(m, size))).astype(np.int8)
    return challenges, responses


def test_fleet_key_includes_tier_and_shape():
    """An int8-tier run can never be served a float64 hit, and a resized
    fleet can never alias a stale plane — tier and shape are key material."""
    base = fleet_cache_key("spec", 0, "uniform", "float64", (64, 256))
    assert fleet_cache_key("spec", 0, "uniform", "int8", (64, 256)) != base
    assert fleet_cache_key("spec", 0, "uniform", "float32", (64, 256)) != base
    assert fleet_cache_key("spec", 0, "uniform", "float64", (64, 512)) != base
    assert fleet_cache_key("spec", 0, "uniform", "float64", (32, 256)) != base
    assert fleet_cache_key("spec", 1, "uniform", "float64", (64, 256)) != base
    assert fleet_cache_key("spec", 0, "uniform", "float64", (64, 256), noisy=True) != base
    # m stays out of the digest (prefix reuse), shapes accept numpy ints
    assert fleet_cache_key("spec", 0, "uniform", "float64", np.array([64, 256])) == base


def test_fleet_cross_tier_requests_never_share_an_entry(tmp_path):
    cache = ArtifactStore(tmp_path)
    f64_plane = make_fleet_plane(seed=1)
    i8_plane = make_fleet_plane(seed=2)
    served_f64 = cache.get_or_generate_fleet(
        "s", 0, "uniform", "float64", (10, 6), 40, lambda: f64_plane
    )
    served_i8 = cache.get_or_generate_fleet(
        "s", 0, "uniform", "int8", (10, 6), 40, lambda: i8_plane
    )
    assert cache.misses == 2 and cache.hits == 0
    assert not np.array_equal(served_f64[1], served_i8[1])


def test_fleet_hit_serves_row_prefix(tmp_path):
    cache = ArtifactStore(tmp_path)
    challenges, responses = make_fleet_plane(m=50)
    cache.get_or_generate_fleet(
        "s", 3, "uniform", "float64", (10, 6), 50, lambda: (challenges, responses)
    )
    got_c, got_r = cache.get_or_generate_fleet(
        "s", 3, "uniform", "float64", (10, 6), 20,
        lambda: pytest.fail("prefix request must hit"),
    )
    assert cache.hits == 1
    assert np.array_equal(got_c, challenges[:20])
    assert np.array_equal(got_r, responses[:20])
    assert got_c.dtype == np.int8 and got_r.dtype == np.int8


def test_corrupt_fleet_entry_is_a_miss_and_regenerates(tmp_path):
    cache = ArtifactStore(tmp_path)
    plane = make_fleet_plane(seed=7)
    cache.get_or_generate_fleet(
        "s", 7, "uniform", "float64", (10, 6), 40, lambda: plane
    )
    key = fleet_cache_key("s", 7, "uniform", "float64", (10, 6))
    cache.fleet_path_for(key).write_bytes(b"truncated garbage")
    with pytest.warns(RuntimeWarning, match="unreadable fleet cache entry"):
        got_c, got_r = cache.get_or_generate_fleet(
            "s", 7, "uniform", "float64", (10, 6), 40, lambda: plane
        )
    assert cache.misses == 2
    assert np.array_equal(got_r, plane[1])
    # the regenerated entry is whole again
    assert cache.load_fleet(key) is not None


def test_malformed_fleet_entry_is_discarded(tmp_path):
    """A structurally wrong archive (mismatched row counts) degrades to a
    miss too, not just an unreadable one."""
    cache = ArtifactStore(tmp_path)
    key = fleet_cache_key("s", 8, "uniform", "float64", (10, 6))
    cache.cache_dir.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        cache.fleet_path_for(key),
        challenges=np.ones((5, 10), dtype=np.int8),
        responses=np.ones((7, 6), dtype=np.int8),
    )
    with pytest.warns(RuntimeWarning, match="unreadable fleet cache entry"):
        assert cache.load_fleet(key) is None
    assert not cache.fleet_path_for(key).exists()


def test_fleet_short_generator_output_rejected(tmp_path):
    cache = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="fewer than requested"):
        cache.get_or_generate_fleet(
            "s", 9, "uniform", "float64", (10, 6), 100,
            lambda: make_fleet_plane(m=40),
        )


def test_clear_sweeps_fleet_entries_too(tmp_path):
    cache = ArtifactStore(tmp_path)
    cache.get_or_generate(
        puf_spec="a", seed=1, distribution="uniform", m=10,
        generate=lambda: make_crps(m=10),
    )
    cache.get_or_generate_fleet(
        "s", 1, "uniform", "float64", (10, 6), 40, lambda: make_fleet_plane()
    )
    assert cache.clear() == 2
    assert list(tmp_path.glob("*.npz")) == []


def test_fleet_hit_meters_per_instance_queries(tmp_path):
    from repro.telemetry.meter import QueryMeter, metered

    cache = ArtifactStore(tmp_path)
    cache.get_or_generate_fleet(
        "s", 2, "uniform", "float64", (10, 6), 40, lambda: make_fleet_plane()
    )
    meter = QueryMeter()
    with metered(meter):
        cache.get_or_generate_fleet(
            "s", 2, "uniform", "float64", (10, 6), 30,
            lambda: pytest.fail("must hit"),
        )
    assert meter.total_queries == 30 * 6
