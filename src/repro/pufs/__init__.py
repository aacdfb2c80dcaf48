"""Simulated Physically Unclonable Functions (PUFs).

The paper's experiments run against silicon PUFs (Arbiter / XOR Arbiter
PUFs, and Bistable Ring PUFs on a Cyclone IV FPGA).  We have no silicon, so
this package implements the standard behavioural models from the
literature:

* :class:`ArbiterPUF` — the additive delay model [Gassend et al. 2004],
  which makes the PUF a linear threshold function over the parity-
  transformed challenge.
* :class:`XORArbiterPUF` — k parallel arbiter chains XORed [Suh & Devadas
  2007], with an option for *correlated* chains (the RocknRoll construction
  of [17] that the paper contrasts with the bound of [9]).
* :class:`BistableRingPUF` — a behavioural model with tunable non-linear
  stage interactions; at zero interaction it degenerates to an LTF, at the
  default setting it reproduces the "far from any halfspace" behaviour the
  paper measures (Tables II and III).
* :class:`FeedForwardArbiterPUF` — a classic non-linear arbiter variant,
  included as an additional non-LTF target.

All PUFs share the :class:`PUF` interface: challenges and responses are
+/-1 arrays (chi(0)=+1, chi(1)=-1), and every PUF exposes both a noise-free
ideal evaluation and a noisy measurement model.

Like the other subpackages, this one imports the module behind an
exported name on first access to it, except the PUF family modules:
they load with the package, so that after ``import repro.pufs``
``PUF.__subclasses__()`` lists every family (tracers find the single-PUF
``eval`` methods that way).  CRP sets, fleets, noise helpers, I/O and
metrics load on first use.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "base": ("PUF",),
        "arbiter": ("ArbiterPUF", "parity_transform"),
        "xor_arbiter": ("XORArbiterPUF",),
        "cdc_xor": (
            "CDCXORArbiterPUF",
            "default_shifts",
            "derive_component_challenges",
        ),
        "bistable_ring": ("BistableRingPUF",),
        "feed_forward": ("FeedForwardArbiterPUF",),
        "interpose": ("InterposePUF",),
        "ring_oscillator": (
            "RingOscillatorPUF",
            "predict_from_scores",
            "sorting_attack",
        ),
        "crp": ("CRPSet", "generate_crps", "uniform_challenges", "biased_challenges"),
        "fleet": (
            "FLEET_FAMILIES",
            "Fleet",
            "FleetSpec",
            "eval_instance",
            "instance_margin",
        ),
        "noise": ("majority_vote", "stable_challenge_mask", "collect_stable_crps"),
        "io": ("load_puf", "save_puf"),
        "metrics": (
            "uniformity",
            "response_bias",
            "reliability",
            "uniqueness",
            "expected_bias",
            "bit_aliasing",
            "fleet_bit_aliasing",
            "fleet_reliability",
            "fleet_uniformity",
            "fleet_uniqueness",
            "response_plane_uniqueness",
            "xor_reliability_prediction",
        ),
    },
)

from repro.pufs import (  # noqa: E402  (the families load with the package)
    arbiter,
    bistable_ring,
    cdc_xor,
    feed_forward,
    interpose,
    ring_oscillator,
    xor_arbiter,
)
