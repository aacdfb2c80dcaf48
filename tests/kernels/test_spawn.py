"""The vectorised spawn-key fan-out equals NumPy's per-child SeedSequence.

``child_states`` must reproduce ``SeedSequence(entropy, spawn_key=prefix
+ (start + i,)).generate_state(4, np.uint64)`` for every root a caller can
hand a fleet: any non-negative entropy int (up to and past 128 bits), int
sequences, freshly pooled ``SeedSequence()`` roots, and spawn-key prefixes
that are empty, long, or hold words of 2**32 and above.  ``Fleet.build``
weights must equal the frozen per-instance build loop for all four
families, mixed-k XOR included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.reference import naive_child_generators, naive_fleet_weights
from repro.kernels.spawn import child_generators, child_states
from repro.pufs.fleet import Fleet, FleetSpec

SETTINGS = settings(max_examples=60, deadline=None)

entropies = st.one_of(
    st.integers(0, 2**128 - 1),
    st.integers(0, 2**200),
    st.lists(st.integers(0, 2**70), min_size=0, max_size=6),
)
spawn_prefixes = st.lists(
    st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)), max_size=12
)


def reference_states(root, start, count):
    return np.array(
        [
            np.random.SeedSequence(
                root.entropy, spawn_key=tuple(root.spawn_key) + (start + i,)
            ).generate_state(4, np.uint64)
            for i in range(count)
        ],
        dtype=np.uint64,
    ).reshape(count, 4)


@SETTINGS
@given(
    entropy=entropies,
    prefix=spawn_prefixes,
    start=st.one_of(st.integers(0, 3), st.integers(2**32 - 9, 2**32 - 5)),
    count=st.integers(0, 5),
)
def test_child_states_equal_numpy_generate_state(entropy, prefix, start, count):
    root = np.random.SeedSequence(entropy, spawn_key=tuple(prefix))
    assert np.array_equal(
        child_states(root, start, count), reference_states(root, start, count)
    )


@pytest.mark.parametrize(
    "root",
    [
        np.random.SeedSequence(),
        np.random.SeedSequence(pool_size=8),
        np.random.SeedSequence(0),
        np.random.SeedSequence(2**128 - 1, spawn_key=(2**32, 0, 7)),
        np.random.SeedSequence(np.arange(5, dtype=np.uint32)),
        np.random.SeedSequence(11).spawn(3)[2],
    ],
    ids=["pooled", "pool8", "zero", "max128", "uint32-array", "spawned"],
)
def test_child_generators_replay_default_rng(root):
    fast = child_generators(root, 1, 6)
    slow = naive_child_generators(root, 1, 6)
    assert np.array_equal(child_states(root, 1, 6), reference_states(root, 1, 6))
    for a, b in zip(fast, slow):
        assert np.array_equal(a.normal(size=17), b.normal(size=17))
        assert np.array_equal(
            a.integers(0, 2**63, size=5), b.integers(0, 2**63, size=5)
        )


def test_child_states_reject_out_of_range_indices():
    root = np.random.SeedSequence(3)
    with pytest.raises(ValueError):
        child_states(root, 2**32 - 1, 2)
    with pytest.raises(ValueError):
        child_states(root, -1, 1)


@SETTINGS
@given(
    family=st.sampled_from(["arbiter", "xor", "br", "ltf"]),
    n=st.integers(1, 12),  # BR rings below n = 4 cap their triples at C(n, 3)
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    seed=st.one_of(
        st.integers(0, 2**128 - 1), st.lists(st.integers(0, 2**40), max_size=3)
    ),
    prefix=spawn_prefixes,
)
def test_fleet_build_equals_frozen_per_instance_loop(family, n, counts, seed, prefix):
    k = tuple(counts) if family == "xor" else 1
    correlation = 0.3 if family == "xor" else 0.0
    spec = FleetSpec(family, n, len(counts), k=k, correlation=correlation)
    root = np.random.SeedSequence(seed, spawn_key=tuple(prefix))
    built = Fleet.build(spec, root).weights
    assert np.array_equal(built, naive_fleet_weights(spec, root))
