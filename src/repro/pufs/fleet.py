"""Fleets: populations of PUF instances evaluated by stacked GEMMs.

The paper's Section IV argument is about adversary models assessed over
*populations* of devices, and a population-scale sweep needs thousands
of instances per cell.  Evaluating them as
``[puf.eval(challenges) for puf in pufs]`` costs one feature build and
one gemv per instance; a :class:`Fleet` stacks all N instances' weight
vectors into one ``(d, N)`` matrix so the whole population is answered
by a single ``(M, d) @ (d, N)`` GEMM (see :mod:`repro.kernels.fleet`).

Seeding contract
----------------
A fleet is built from one root :class:`numpy.random.SeedSequence`.
Child ``spawn_key + (0,)`` carries *fleet-level* randomness (the shared
BR interaction topology — a design/layout property, identical across
chips from one mask set); child ``spawn_key + (1 + i,)`` is instance
``i``'s manufacturing randomness.  Instance construction replays the
standalone constructors' generator draw order exactly, so
``Fleet.instances()[i]`` equals the PUF you would build directly from
that child seed — the conformance relations and the golden-snapshot
tests rely on this replay.

Construction fans the seed out per instance (that is what per-instance
seeds *mean*), but the fan-out itself is vectorised:
:func:`repro.kernels.spawn.child_generators` hashes the root entropy and
spawn-key prefix once and derives every child's PCG64 seed in one array
pass, bit-identical to building each child ``SeedSequence``.  Only the
standalone constructors' normal draws remain per instance: arbiter, XOR
and LTF children each fill their slice of one buffer, which is scaled
and correlation-mixed once for the whole fleet.  Evaluation has no
per-instance Python work.

Query accounting
----------------
Fleet evaluations are oracle calls against every instance at once:
``eval``/``eval_noisy`` record ``m x N`` EX queries and
``majority_vote`` records one query per noisy measurement
(``m x N x repetitions``); ``vote_and_measure`` records exactly what
``majority_vote`` then ``eval_noisy`` would, and ``eval_vote_and_measure``
exactly what ``eval`` then ``vote_and_measure`` would.  Metric helpers in
:mod:`repro.pufs.metrics` wrap their draws in ``unmetered()`` — quality
metrics are not adversary queries.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels.spawn import child_generators
from repro.kernels.fleet import (
    br_features,
    fleet_margins,
    linear_features,
    majority_from_negatives,
    noisy_measurements,
    parity_features,
    sign_responses,
)
from repro.booleanfuncs.ltf import LTF
from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.bistable_ring import (
    BistableRingPUF,
    draw_pair_indices,
    draw_triple_indices,
)
from repro.pufs.xor_arbiter import XORArbiterPUF
from repro.telemetry.spans import trace

#: PUF families a fleet can stack.
FLEET_FAMILIES = ("arbiter", "xor", "br", "ltf")


def eval_instance(instance: object, challenges: np.ndarray) -> np.ndarray:
    """Evaluate one standalone comparator from :meth:`Fleet.instances`.

    PUF comparators expose ``eval``; LTF comparators are plain
    :class:`~repro.booleanfuncs.function.BooleanFunction` callables.
    """
    if hasattr(instance, "eval"):
        return instance.eval(challenges)
    return instance(challenges)


def instance_margin(instance: object, challenges: np.ndarray) -> np.ndarray:
    """The comparator's real-valued margin (``raw_margin`` for PUFs,
    ``margin`` for LTFs) — the reference side of the differential checks."""
    if hasattr(instance, "raw_margin"):
        return instance.raw_margin(challenges)
    return instance.margin(challenges)


def _as_seed_sequence(seed: object) -> np.random.SeedSequence:
    """Coerce ints/None/SeedSequence to a SeedSequence (local to avoid a
    pufs -> runtime layering inversion; same semantics as runtime.seeding)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """Declarative description of a fleet of same-design PUF instances.

    Parameters
    ----------
    family:
        One of ``"arbiter"``, ``"xor"``, ``"br"``, ``"ltf"``.
    n:
        Challenge length (stages / ring size / LTF arity).
    size:
        Number of instances N.
    k:
        XOR fleets only: chains per instance — a scalar, or a length-N
        sequence for a *mixed-k* fleet.
    correlation / weight_sigma / noise_sigma:
        As in the standalone constructors.
    interaction_scale / pair_density / triple_density:
        BR fleets only; as in :class:`BistableRingPUF`.
    """

    family: str
    n: int
    size: int
    k: Union[int, Tuple[int, ...]] = 1
    correlation: float = 0.0
    weight_sigma: float = 1.0
    noise_sigma: float = 0.0
    interaction_scale: float = 0.55
    pair_density: float = 0.25
    triple_density: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FLEET_FAMILIES:
            raise ValueError(
                f"unknown fleet family {self.family!r}; expected one of {FLEET_FAMILIES}"
            )
        if self.n <= 0:
            raise ValueError(f"challenge length must be positive, got {self.n}")
        if self.size <= 0:
            raise ValueError(f"fleet size must be positive, got {self.size}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        k = self.k
        if not isinstance(k, int):
            k = tuple(int(v) for v in k)
            object.__setattr__(self, "k", k)
        counts = self.chain_counts
        if len(counts) != self.size:
            raise ValueError(
                f"per-instance k has {len(counts)} entries for fleet size {self.size}"
            )
        if any(v <= 0 for v in counts):
            raise ValueError("every chain count must be positive")
        requested = (k,) if isinstance(k, int) else k
        if self.family != "xor" and any(v != 1 for v in requested):
            raise ValueError(f"family {self.family!r} does not take k != 1")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError(f"correlation must be in [0, 1), got {self.correlation}")

    # ------------------------------------------------------------------
    @property
    def chain_counts(self) -> Tuple[int, ...]:
        """Per-instance chain counts (all 1 outside the XOR family)."""
        if isinstance(self.k, int):
            return (self.k if self.family == "xor" else 1,) * self.size
        return self.k

    def describe(self) -> str:
        """Canonical spec string — the fleet's cache-key identity.

        Everything that changes the evaluated bits is included (see
        :func:`repro.runtime.store.artifact_digest`).
        """
        counts = self.chain_counts
        k_repr = counts[0] if len(set(counts)) == 1 else counts
        return (
            f"fleet(family={self.family}, n={self.n}, size={self.size}, "
            f"k={k_repr}, correlation={self.correlation:g}, "
            f"weight_sigma={self.weight_sigma:g}, noise_sigma={self.noise_sigma:g}, "
            f"interaction={self.interaction_scale:g}, "
            f"pairs={self.pair_density:g}, triples={self.triple_density:g})"
        )


# ----------------------------------------------------------------------
# Per-family weight stacking.  Each builder replays the standalone
# constructor's rng draw order from the instance's child seed.
# ----------------------------------------------------------------------
def _stacked_normals(
    spec: FleetSpec,
    root: np.random.SeedSequence,
    rows: Sequence[int],
    width: Optional[int] = None,
) -> np.ndarray:
    """``(sum(rows), width)`` weight draws (``width`` defaults to ``n + 1``):
    instance ``i``'s ``rows[i]`` rows of ``normal(0, weight_sigma)``, in
    C order from its own child generator.

    Each child fills its slice of one buffer with ``standard_normal(out=...)``
    and the whole buffer is scaled once.  ``normal(loc, scale)`` computes
    ``loc + scale * z`` from the same ``standard_normal`` stream, so
    ``sigma * z + 0.0`` is that value bit for bit, the ``+ 0.0`` included
    (it turns a ``-0.0`` product into ``0.0``, as ``loc`` does).
    """
    width = spec.n + 1 if width is None else width
    draws = np.empty((sum(rows), width), dtype=np.float64)
    ends = np.cumsum(rows).tolist()
    for rng, lo, hi in zip(child_generators(root, 1, spec.size), [0] + ends, ends):
        rng.standard_normal(out=draws[lo:hi])
    draws *= spec.weight_sigma
    draws += 0.0
    return draws


def _stack_arbiter(spec: FleetSpec, root: np.random.SeedSequence) -> np.ndarray:
    return _stacked_normals(spec, root, np.ones(spec.size, dtype=np.intp)).T


def _stack_xor(
    spec: FleetSpec, root: np.random.SeedSequence
) -> Tuple[np.ndarray, np.ndarray]:
    """Instance i draws ``1 + k_i`` rows in C order, as the standalone
    constructor does: row 0 is the shared component, the rest its chains'
    own.  Every chain is ``mix * own + correlation * shared``, evaluated
    for all chains of the fleet at once with the same two products and
    one sum per element as the per-instance expression."""
    counts = np.asarray(spec.chain_counts, dtype=np.intp)
    draws = _stacked_normals(spec, root, 1 + counts)
    shared = np.cumsum(1 + counts) - (1 + counts)
    own = np.ones(len(draws), dtype=bool)
    own[shared] = False
    mix = np.sqrt(1.0 - spec.correlation**2)
    cols = mix * draws[own] + spec.correlation * np.repeat(draws[shared], counts, 0)
    offsets = np.cumsum(counts) - counts
    return cols.T, offsets


def _br_topology(
    spec: FleetSpec, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """The shared pair/triple index sets, drawn by the same helpers (same
    rng calls, same order) a standalone :class:`BistableRingPUF` uses."""
    pair_indices = draw_pair_indices(spec.n, spec.pair_density, rng)
    triple_indices = draw_triple_indices(spec.n, spec.triple_density, rng)
    return pair_indices, triple_indices


def _br_instance_weights(
    spec: FleetSpec,
    rng: np.random.Generator,
    num_pairs: int,
    num_triples: int,
) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
    """One BR instance's weights in standalone draw order (topology draws
    excluded — the fleet shares its topology), normalised the same way."""
    n = spec.n
    bias_terms = rng.normal(0.0, 1.0 / np.sqrt(n), size=n)
    linear_weights = rng.normal(0.0, 1.0, size=n)
    global_offset = float(rng.normal(0.0, 0.5))
    pair_weights = rng.normal(0.0, 1.0, size=num_pairs)
    triple_weights = rng.normal(0.0, 1.0, size=num_triples)
    lin_scale = float(np.sqrt(np.sum(linear_weights**2)))
    pair_scale = float(np.sqrt(np.sum(pair_weights**2)))
    tri_scale = float(np.sqrt(np.sum(triple_weights**2)))
    if pair_scale > 0:
        pair_weights = pair_weights * (spec.interaction_scale * lin_scale / pair_scale)
    if tri_scale > 0:
        triple_weights = triple_weights * (
            spec.interaction_scale * lin_scale / tri_scale
        )
    return bias_terms, linear_weights, global_offset, pair_weights, triple_weights


def _stack_br(
    spec: FleetSpec, root: np.random.SeedSequence
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    topology_rng, *instance_rngs = child_generators(root, 0, 1 + spec.size)
    pair_indices, triple_indices = _br_topology(spec, topology_rng)
    d = 1 + spec.n + len(pair_indices) + len(triple_indices)
    cols = np.empty((d, spec.size), dtype=np.float64)
    for i, rng in enumerate(instance_rngs):
        bias, linear, offset, pair_w, triple_w = _br_instance_weights(
            spec, rng, len(pair_indices), len(triple_indices)
        )
        cols[0, i] = offset + np.sum(bias)
        cols[1 : 1 + spec.n, i] = linear
        cols[1 + spec.n : 1 + spec.n + len(pair_indices), i] = pair_w
        cols[1 + spec.n + len(pair_indices) :, i] = triple_w
    return cols, pair_indices, triple_indices


def _stack_ltf(spec: FleetSpec, root: np.random.SeedSequence) -> np.ndarray:
    cols = np.zeros((spec.n + 1, spec.size), dtype=np.float64)  # row n: -threshold
    ones = np.ones(spec.size, dtype=np.intp)
    cols[: spec.n] = _stacked_normals(spec, root, ones, width=spec.n).T
    return cols


class Fleet:
    """N same-design PUF instances stacked for single-GEMM evaluation.

    Build with :meth:`Fleet.build`; evaluate with :meth:`eval`,
    :meth:`eval_noisy`, or :meth:`majority_vote` — all return an
    ``(M, N)`` ±1 ``int8`` response plane.  All GEMMs route through the
    installed :class:`repro.kernels.backend.KernelBackend`.
    """

    def __init__(
        self,
        spec: FleetSpec,
        seed: np.random.SeedSequence,
        weights: np.ndarray,
        chain_offsets: Optional[np.ndarray] = None,
        pair_indices: Optional[np.ndarray] = None,
        triple_indices: Optional[np.ndarray] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.chain_offsets = chain_offsets
        self.pair_indices = pair_indices
        self.triple_indices = triple_indices

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, spec: FleetSpec, seed: object = None) -> "Fleet":
        """Construct the fleet from ``spec`` and a root seed.

        Deterministic: the same ``(entropy, spawn_key)`` line always
        yields bit-identical weights (the conformance relations replay
        fleets from exactly this contract).
        """
        root = _as_seed_sequence(seed)
        chain_offsets = pair_indices = triple_indices = None
        with trace("fleet.build", family=spec.family, size=spec.size):
            if spec.family == "arbiter":
                weights = _stack_arbiter(spec, root)
            elif spec.family == "xor":
                weights, chain_offsets = _stack_xor(spec, root)
            elif spec.family == "br":
                weights, pair_indices, triple_indices = _stack_br(spec, root)
            else:  # ltf
                weights = _stack_ltf(spec, root)
        return cls(
            spec,
            root,
            weights,
            chain_offsets=chain_offsets,
            pair_indices=pair_indices,
            triple_indices=triple_indices,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.spec.size

    @property
    def n(self) -> int:
        """Challenge length."""
        return self.spec.n

    def seed_line(self) -> str:
        """The replayable identity of this fleet's root SeedSequence."""
        return (
            f"SeedSequence(entropy={self.seed.entropy!r}, "
            f"spawn_key={tuple(self.seed.spawn_key)!r})"
        )

    # ------------------------------------------------------------------
    def _check(self, challenges: np.ndarray) -> np.ndarray:
        challenges = np.asarray(challenges)
        if challenges.ndim == 1:
            challenges = challenges[None, :]
        if challenges.ndim != 2 or challenges.shape[1] != self.spec.n:
            raise ValueError(
                f"Fleet expects (m, {self.spec.n}) challenges, "
                f"got shape {challenges.shape}"
            )
        return challenges

    def features(self, challenges: np.ndarray) -> np.ndarray:
        """The float64 ``(M, d)`` feature matrix, built once per batch."""
        challenges = self._check(challenges)
        if self.spec.family in ("arbiter", "xor"):
            return parity_features(challenges)
        if self.spec.family == "br":
            return br_features(challenges, self.pair_indices, self.triple_indices)
        return linear_features(challenges)

    def margins(self, challenges: np.ndarray) -> np.ndarray:
        """The stacked GEMM: ``(M, size)`` margins, or ``(M, total_chains)``
        per-chain margins for XOR fleets (combine with ``chain_offsets``)."""
        return fleet_margins(self.features(challenges), self.weights)

    # ------------------------------------------------------------------
    def eval(self, challenges: np.ndarray) -> np.ndarray:
        """Ideal responses of the whole fleet: ``(M, N)`` ±1 int8.

        One margin GEMM, signs decided once at chain width and XOR fleets'
        chains combined as bool flags, traced as ``fleet.eval``.
        """
        challenges = self._check(challenges)
        signs, _ = self._ideal(challenges)
        return signs

    def _ideal(self, challenges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(signs, margins)``: the metered :meth:`eval` of checked
        ``challenges`` and the margins it was decided from."""
        with trace(
            "fleet.eval",
            family=self.spec.family,
            size=self.spec.size,
            m=challenges.shape[0],
        ):
            margins = self.margins(challenges)
            signs = sign_responses(margins, self.chain_offsets)
        self._meter(challenges, signs, repetitions=1)
        return signs, margins

    def eval_noisy(
        self, challenges: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """One noisy measurement per (challenge, instance) cell.

        Noise is drawn fleet-level in one ``(M, cols)`` slab (per chain
        for XOR fleets, matching the standalone per-chain noise model);
        statistically identical to per-instance draws, though the rng
        consumption order differs from N separate ``eval_noisy`` calls.
        """
        challenges = self._check(challenges)
        _, (signs,) = self._measure(challenges, 0, 1, rng)
        self._meter(challenges, signs, repetitions=1)
        return signs

    def majority_vote(
        self,
        challenges: np.ndarray,
        repetitions: int = 11,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Majority-voted responses over ``repetitions`` noisy measurements,
        batched over the whole ``(M, N)`` plane (ties break toward +1,
        matching :func:`repro.pufs.noise.majority_vote`)."""
        challenges = self._check(challenges)
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        negatives, _ = self._measure(challenges, repetitions, 0, rng)
        voted = majority_from_negatives(negatives, repetitions)
        self._meter(challenges, voted, repetitions=repetitions)
        return voted

    def vote_and_measure(
        self,
        challenges: np.ndarray,
        repetitions: int = 11,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(voted, measured)``: a majority vote over ``repetitions`` noisy
        measurements, then one more noisy measurement.

        The values, the rng consumption and the meter records equal
        :meth:`majority_vote` followed by :meth:`eval_noisy` on the same
        challenges and generator, but the margins are built once and the
        ``repetitions + 1`` noise slabs are drawn together.  This is the
        noiseless-CRP protocol's reliability check (DESIGN §2).
        """
        challenges = self._check(challenges)
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        return self._vote_and_measure(challenges, repetitions, rng)

    def eval_vote_and_measure(
        self,
        challenges: np.ndarray,
        repetitions: int = 11,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ideal, voted, measured)`` from one margin GEMM.

        The values, the rng consumption, the meter records and the spans
        equal :meth:`eval` followed by :meth:`vote_and_measure` on the same
        challenges and generator; the measurements reuse the margins the
        ideal plane was decided from.  A fleet trial that needs its plane
        and its reliability check runs this once.
        """
        challenges = self._check(challenges)
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        ideal, margins = self._ideal(challenges)
        return (ideal, *self._vote_and_measure(challenges, repetitions, rng, margins))

    def _vote_and_measure(
        self,
        challenges: np.ndarray,
        repetitions: int,
        rng: Optional[np.random.Generator],
        margins: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        negatives, (measured,) = self._measure(challenges, repetitions, 1, rng, margins)
        voted = majority_from_negatives(negatives, repetitions)
        self._meter(challenges, voted, repetitions=repetitions)
        self._meter(challenges, measured, repetitions=1)
        return voted, measured

    def _measure(
        self,
        challenges: np.ndarray,
        repetitions: int,
        extra: int,
        rng: Optional[np.random.Generator],
        margins: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`noisy_measurements` over this fleet's margins (built here
        unless given), traced as ``fleet.measure``; a default generator is
        made only if noise is drawn."""
        sigma = self.spec.noise_sigma
        if rng is None and sigma > 0:
            rng = np.random.default_rng()
        with trace(
            "fleet.measure",
            family=self.spec.family,
            size=self.spec.size,
            m=challenges.shape[0],
            repetitions=repetitions + extra,
        ):
            if margins is None:
                margins = self.margins(challenges)
            return noisy_measurements(
                margins, sigma, repetitions, rng, self.chain_offsets, extra
            )

    def _meter(
        self, challenges: np.ndarray, responses: np.ndarray, repetitions: int
    ) -> None:
        """Per-instance oracle accounting: every (challenge, instance,
        measurement) cell is one EX query against that instance."""
        from repro.telemetry.meter import record as _record

        m = challenges.shape[0]
        count = m * self.spec.size * repetitions
        _record(
            "ex",
            queries=count,
            examples=count,
            challenges=challenges,
            response_bytes=responses.nbytes * repetitions,
        )

    # ------------------------------------------------------------------
    def instances(self) -> List[object]:
        """Standalone per-instance comparators.

        Instance ``i`` is built from seed child ``spawn_key + (1 + i,)``
        with the *same draws* the fleet made, so for arbiter/XOR/LTF
        fleets it is literally the PUF you would construct directly from
        that child seed.  BR instances share the fleet topology and are
        materialised via :meth:`BistableRingPUF.from_parameters`.
        """
        spec = self.spec
        out: List[object] = []
        for i, rng in enumerate(child_generators(self.seed, 1, spec.size)):
            if spec.family == "arbiter":
                out.append(
                    ArbiterPUF(
                        spec.n,
                        rng,
                        weight_sigma=spec.weight_sigma,
                        noise_sigma=spec.noise_sigma,
                    )
                )
            elif spec.family == "xor":
                out.append(
                    XORArbiterPUF(
                        spec.n,
                        spec.chain_counts[i],
                        rng,
                        correlation=spec.correlation,
                        weight_sigma=spec.weight_sigma,
                        noise_sigma=spec.noise_sigma,
                    )
                )
            elif spec.family == "br":
                bias, linear, offset, pair_w, triple_w = _br_instance_weights(
                    spec, rng, len(self.pair_indices), len(self.triple_indices)
                )
                out.append(
                    BistableRingPUF.from_parameters(
                        spec.n,
                        bias_terms=bias,
                        linear_weights=linear,
                        global_offset=offset,
                        pair_indices=self.pair_indices,
                        pair_weights=pair_w,
                        triple_indices=self.triple_indices,
                        triple_weights=triple_w,
                        interaction_scale=spec.interaction_scale,
                        noise_sigma=spec.noise_sigma,
                    )
                )
            else:  # ltf
                out.append(LTF.random(spec.n, rng, sigma=spec.weight_sigma))
        return out

    def __repr__(self) -> str:
        return f"Fleet({self.spec.describe()})"
