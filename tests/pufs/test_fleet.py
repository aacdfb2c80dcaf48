"""The Fleet API: spec validation, seeding, metering, and golden pins.

The golden-snapshot test at the bottom pins the population statistics
of one fixed fleet — ``FleetSpec("xor", n=64, size=256, k=4)`` built
from seed 2026 — to the values the stacked-GEMM path produced when the
fleet layer landed.  Any change to the seeding contract, the weight
stacking, the parity features, the GEMM routing, or the metric math
moves these numbers and fails loudly.
"""

import numpy as np
import pytest

from repro.pufs.crp import uniform_challenges
from repro.pufs.fleet import Fleet, FleetSpec, eval_instance, instance_margin
from repro.pufs.metrics import (
    bit_aliasing,
    fleet_bit_aliasing,
    fleet_reliability,
    fleet_uniformity,
    fleet_uniqueness,
    response_plane_uniqueness,
    uniformity,
    uniqueness,
)
from repro.kernels import fleet as kfleet
from repro.kernels.fleet import sign_responses
from repro.telemetry.meter import QueryMeter, metered
from repro.telemetry.spans import recording


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FleetSpec("optical", 8, 4)
    with pytest.raises(ValueError):
        FleetSpec("arbiter", 0, 4)
    with pytest.raises(ValueError):
        FleetSpec("arbiter", 8, 0)
    with pytest.raises(ValueError):
        FleetSpec("arbiter", 8, 4, k=3)  # k != 1 outside the XOR family
    with pytest.raises(ValueError):
        FleetSpec("xor", 8, 4, k=(2, 3))  # wrong per-instance length
    with pytest.raises(ValueError):
        FleetSpec("xor", 8, 2, k=(2, 0))  # non-positive chain count
    with pytest.raises(TypeError):
        FleetSpec("arbiter", 8, 4, tier="float64")  # one precision, no tiers
    with pytest.raises(ValueError):
        FleetSpec("arbiter", 8, 4, noise_sigma=-0.1)


def test_spec_chain_counts_and_describe():
    scalar = FleetSpec("xor", 8, 3, k=4)
    assert scalar.chain_counts == (4, 4, 4)
    mixed = FleetSpec("xor", 8, 3, k=[1, 2, 3])
    assert mixed.chain_counts == (1, 2, 3)
    assert mixed.k == (1, 2, 3)  # sequences normalise to tuples (hashable)
    assert "tier" not in scalar.describe()
    assert FleetSpec("arbiter", 8, 3, noise_sigma=0.1).describe() != FleetSpec(
        "arbiter", 8, 3
    ).describe()


def test_seed_line_replays_the_fleet():
    fleet = Fleet.build(FleetSpec("arbiter", 16, 4), 99)
    line = fleet.seed_line()
    assert "entropy=99" in line
    replayed = Fleet.build(FleetSpec("arbiter", 16, 4), eval(f"np.random.{line}"))
    assert np.array_equal(replayed.weights, fleet.weights)


# ----------------------------------------------------------------------
# Query accounting
# ----------------------------------------------------------------------
def test_fleet_eval_meters_per_instance_queries():
    fleet = Fleet.build(FleetSpec("arbiter", 12, 7, noise_sigma=0.1), 4)
    c = uniform_challenges(30, 12, np.random.default_rng(0))
    meter = QueryMeter()
    with metered(meter):
        fleet.eval(c)
    assert meter.total_queries == 30 * 7
    with metered(meter):
        fleet.majority_vote(c, repetitions=5, rng=np.random.default_rng(1))
    assert meter.total_queries == 30 * 7 + 30 * 7 * 5


def test_fleet_metrics_are_unmetered():
    fleet = Fleet.build(FleetSpec("arbiter", 12, 4, noise_sigma=0.1), 4)
    meter = QueryMeter()
    with metered(meter):
        fleet_uniqueness(fleet, m=50, rng=np.random.default_rng(0))
        fleet_reliability(fleet, m=20, repetitions=3, rng=np.random.default_rng(1))
    assert meter.total_queries == 0


# ----------------------------------------------------------------------
# Batched metrics vs the per-instance loop
# ----------------------------------------------------------------------
def test_fleet_uniqueness_matches_loop_metric():
    fleet = Fleet.build(FleetSpec("arbiter", 24, 6), 11)
    assert fleet_uniqueness(
        fleet, m=400, rng=np.random.default_rng(5)
    ) == uniqueness(fleet.instances(), m=400, rng=np.random.default_rng(5))


def test_fleet_uniformity_and_aliasing_match_loop_metrics():
    fleet = Fleet.build(FleetSpec("xor", 16, 5, k=3), 8)
    m, seed = 300, 21
    challenges = uniform_challenges(m, 16, np.random.default_rng(seed))
    per_instance = [
        uniformity(eval_instance(p, challenges)) for p in fleet.instances()
    ]
    assert np.array_equal(
        fleet_uniformity(fleet, m=m, rng=np.random.default_rng(seed)),
        np.array(per_instance),
    )
    assert np.array_equal(
        fleet_bit_aliasing(fleet, m=m, rng=np.random.default_rng(seed)),
        bit_aliasing(fleet.instances(), m=m, rng=np.random.default_rng(seed)),
    )


def test_response_plane_uniqueness_validates_input():
    with pytest.raises(ValueError):
        response_plane_uniqueness(np.ones((10, 1), dtype=np.int8))
    with pytest.raises(ValueError):
        fleet_uniqueness(Fleet.build(FleetSpec("arbiter", 8, 1), 0), m=10)


def test_instance_margin_matches_fleet_margins():
    fleet = Fleet.build(FleetSpec("ltf", 14, 3), 6)
    c = uniform_challenges(64, 14, np.random.default_rng(2))
    stacked = fleet.margins(c)
    for i, inst in enumerate(fleet.instances()):
        assert np.allclose(stacked[:, i], instance_margin(inst, c), atol=1e-12)


# ----------------------------------------------------------------------
# The one-slab measurement kernel
# ----------------------------------------------------------------------
def slab_loop(margins, sigma, slabs, seed, offsets=None):
    """Per-slab reference: ``slabs`` sequential draws over the noise band,
    each scattered into a zero (M, K) noise tensor, ±1 signs."""
    rng = np.random.default_rng(seed)
    band = np.abs(margins) < kfleet.NOISE_BAND * sigma
    out = []
    for _ in range(slabs):
        noise = np.zeros(margins.shape)
        noise[band] = rng.normal(0.0, sigma, size=int(band.sum()))
        out.append(sign_responses(margins + noise, offsets))
    return np.stack(out)


@pytest.mark.parametrize("draw_bytes", [1, 5000, 1 << 23])
@pytest.mark.parametrize(
    "spec",
    [
        FleetSpec("arbiter", 12, 7, noise_sigma=0.7),
        FleetSpec("xor", 10, 4, k=(1, 3, 2, 4), noise_sigma=0.5),
    ],
    ids=["arbiter", "mixed-xor"],
)
def test_noisy_measurements_replay_the_per_slab_stream(monkeypatch, spec, draw_bytes):
    """Any byte cap draws the same stream: whole-measurement groups in order."""
    monkeypatch.setattr(kfleet, "NOISE_DRAW_BYTES", draw_bytes)
    fleet = Fleet.build(spec, 9)
    margins = fleet.margins(uniform_challenges(90, spec.n, np.random.default_rng(1)))
    repetitions, extra = 5, 2
    negatives, tail = kfleet.noisy_measurements(
        margins,
        spec.noise_sigma,
        repetitions,
        np.random.default_rng(4),
        fleet.chain_offsets,
        extra,
    )
    slabs = slab_loop(
        margins, spec.noise_sigma, repetitions + extra, 4, fleet.chain_offsets
    )
    band = np.abs(margins) < kfleet.NOISE_BAND * spec.noise_sigma
    assert 0 < np.sum(band) < band.size  # both sides of the band are exercised
    assert np.array_equal(negatives, np.sum(slabs[:repetitions] == -1, axis=0))
    assert tail.dtype == np.int8 and np.array_equal(tail, slabs[repetitions:])


def test_chains_outside_the_noise_band_never_flip():
    """Margins beyond NOISE_BAND sigmas answer their ideal sign in every
    measurement; only the in-band chains draw (and can flip)."""
    sigma = 1.0
    edge = kfleet.NOISE_BAND * sigma
    margins = np.array(
        [[edge, -edge, 0.1, 50.0], [-50.0, np.nextafter(edge, 0), -0.2, 9.0]]
    )
    rng = np.random.default_rng(0)
    negatives, tail = kfleet.noisy_measurements(margins, sigma, 400, rng, None, 50)
    outside = np.abs(margins) >= edge
    ideal = sign_responses(margins)
    assert np.array_equal(negatives[outside], 400 * (ideal[outside] == -1))
    assert np.all(tail[:, outside] == ideal[outside])
    assert 0 < negatives[0, 2] < 400 and 0 < negatives[1, 2] < 400
    # Exactly the three in-band chains drew: 450 normals each.
    replay = np.random.default_rng(0)
    replay.normal(size=450 * 3)
    assert rng.random() == replay.random()

    # An XOR instance with every chain outside the band is its ideal answer.
    chains = np.array([[edge, -50.0, 0.1, 9.0], [-edge, 60.0, -0.2, -0.05]])
    offsets = np.array([0, 2])
    negatives, tail = kfleet.noisy_measurements(chains, sigma, 400, rng, offsets, 3)
    xor_ideal = sign_responses(chains, offsets)
    assert np.array_equal(negatives[:, 0], 400 * (xor_ideal[:, 0] == -1))
    assert np.all(tail[:, :, 0] == xor_ideal[:, 0])
    assert np.all((0 < negatives[:, 1]) & (negatives[:, 1] < 400))


def test_nan_margin_answers_minus_one_in_votes_and_tail():
    margins = np.array([[np.nan, 0.3], [1.0, np.nan]])
    negatives, tail = kfleet.noisy_measurements(
        margins, 0.5, 7, np.random.default_rng(1), None, 2
    )
    nan = np.isnan(margins)
    assert np.all(negatives[nan] == 7) and np.all(tail[:, nan] == -1)
    # Through the chain XOR a NaN chain is a -1 chain: NaN ^ (+) answers
    # -1 and NaN ^ (-) answers +1, in every measurement.
    chains = np.array([[np.nan, 50.0], [-50.0, np.nan]])
    negatives, tail = kfleet.noisy_measurements(
        chains, 0.5, 7, np.random.default_rng(1), np.array([0]), 2
    )
    assert np.array_equal(negatives, [[7], [0]])
    assert np.array_equal(tail, [[[-1], [1]], [[-1], [1]]])


def test_noiseless_measurements_draw_nothing():
    fleet = Fleet.build(FleetSpec("xor", 10, 3, k=2), 2)
    margins = fleet.margins(uniform_challenges(40, 10, np.random.default_rng(1)))
    rng = np.random.default_rng(3)
    negatives, tail = kfleet.noisy_measurements(
        margins, 0.0, 4, rng, fleet.chain_offsets, 1
    )
    ideal = sign_responses(margins, fleet.chain_offsets)
    assert np.array_equal(negatives, 4 * (ideal == -1))
    assert np.array_equal(tail[0], ideal)
    assert rng.random() == np.random.default_rng(3).random()


@pytest.mark.parametrize("repetitions", [1, 4, 5])
def test_vote_and_measure_equals_vote_then_measurement(repetitions):
    """Same values, same rng consumption, same two meter records."""
    spec = FleetSpec("xor", 12, 5, k=(2, 1, 3, 1, 2), noise_sigma=0.6)
    fleet = Fleet.build(spec, 17)
    c = uniform_challenges(80, 12, np.random.default_rng(5))
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    with metered(QueryMeter()) as split_meter:
        voted = fleet.majority_vote(c, repetitions, rng_a)
        measured = fleet.eval_noisy(c, rng_a)
    with metered(QueryMeter()) as fused_meter:
        fused = fleet.vote_and_measure(c, repetitions, rng_b)
    assert np.array_equal(fused[0], voted) and np.array_equal(fused[1], measured)
    assert rng_a.random() == rng_b.random()
    assert fused_meter.snapshot() == split_meter.snapshot()
    with pytest.raises(ValueError):
        fleet.vote_and_measure(c, 0, rng_b)


@pytest.mark.parametrize(
    "spec",
    [
        FleetSpec("xor", 12, 5, k=(2, 1, 3, 1, 2), noise_sigma=0.6),
        FleetSpec("xor", 12, 6, k=4, noise_sigma=0.2),
        FleetSpec("br", 8, 4, noise_sigma=0.3),
        FleetSpec("arbiter", 12, 3, noise_sigma=0.0),
    ],
    ids=["mixed-xor", "xor4", "br", "noiseless"],
)
def test_eval_vote_and_measure_equals_eval_then_vote_and_measure(spec):
    """Same values, rng consumption, meter records and spans from one GEMM."""
    fleet = Fleet.build(spec, 17)
    c = uniform_challenges(80, spec.n, np.random.default_rng(5))
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    with metered(QueryMeter()) as split_meter, recording() as split_spans:
        ideal = fleet.eval(c)
        voted, measured = fleet.vote_and_measure(c, 5, rng_a)
    with metered(QueryMeter()) as fused_meter, recording() as fused_spans:
        fused = fleet.eval_vote_and_measure(c, 5, rng_b)
    for got, want in zip(fused, (ideal, voted, measured)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng_a.random() == rng_b.random()
    assert fused_meter.snapshot() == split_meter.snapshot()
    assert [(s.name, s.attrs) for s in fused_spans.spans] == [
        (s.name, s.attrs) for s in split_spans.spans
    ]
    with pytest.raises(ValueError):
        fleet.eval_vote_and_measure(c, 0, rng_b)


def test_measurements_record_fleet_measure_spans():
    fleet = Fleet.build(FleetSpec("ltf", 8, 3, noise_sigma=0.2), 1)
    c = uniform_challenges(16, 8, np.random.default_rng(0))
    with recording() as spans:
        fleet.vote_and_measure(c, 3, np.random.default_rng(1))
        Fleet.build(fleet.spec, 1)
    measure, build = spans.spans
    assert measure.name == "fleet.measure" and build.name == "fleet.build"
    assert measure.attrs == {"family": "ltf", "size": 3, "m": 16, "repetitions": 4}
    assert build.attrs == {"family": "ltf", "size": 3}


def test_eval_records_a_fleet_eval_span():
    fleet = Fleet.build(FleetSpec("xor", 8, 3, k=(1, 3, 2)), 1)
    c = uniform_challenges(16, 8, np.random.default_rng(0))
    with recording() as spans:
        signs = fleet.eval(c)
    (span,) = spans.spans
    assert span.name == "fleet.eval"
    assert span.attrs == {"family": "xor", "size": 3, "m": 16}
    assert signs.shape == (16, 3) and signs.dtype == np.int8
    assert signs.flags.c_contiguous  # the store packs rows; keep them whole


# ----------------------------------------------------------------------
# Golden snapshot: FleetSpec("xor", 64, 256, k=4), seed 2026
# ----------------------------------------------------------------------
GOLDEN_SPEC = FleetSpec("xor", 64, 256, k=4, noise_sigma=0.05)
GOLDEN_SEED = 2026


def test_golden_fleet_population_statistics():
    fleet = Fleet.build(GOLDEN_SPEC, GOLDEN_SEED)
    uq = fleet_uniqueness(fleet, m=2000, rng=np.random.default_rng(1))
    rel = fleet_reliability(fleet, m=500, repetitions=11, rng=np.random.default_rng(2))
    uf = fleet_uniformity(fleet, m=2000, rng=np.random.default_rng(3))
    assert uq == pytest.approx(0.4999551623774509, abs=1e-9)
    assert float(np.mean(rel)) == pytest.approx(0.9928203125, abs=1e-9)
    assert float(np.min(rel)) == pytest.approx(0.986909090909091, abs=1e-9)
    assert float(np.mean(uf)) == pytest.approx(0.50006640625, abs=1e-9)


def test_golden_fleet_weights_are_replayable():
    """The first weight column equals the standalone XOR PUF built from
    seed child (2026, spawn_key=(1,)) — the documented fan-out."""
    fleet = Fleet.build(GOLDEN_SPEC, GOLDEN_SEED)
    child = np.random.SeedSequence(GOLDEN_SEED, spawn_key=(1,))
    from repro.pufs.xor_arbiter import XORArbiterPUF

    standalone = XORArbiterPUF(64, 4, np.random.default_rng(child))
    stacked_first = fleet.weights[:, :4]
    assert np.array_equal(
        stacked_first, np.column_stack([ch.weights for ch in standalone.chains])
    )
