"""Shared character kernels for all spectral learners.

``repro.kernels`` is a leaf package: importing it pulls in numpy and
nothing else from ``repro`` (:func:`sign_of_expansion` imports
``BooleanFunction`` lazily), so every learner and the runtime can build
on it without import cycles.  ``repro.kernels.bench`` (the benchmark
cases, which do construct PUFs) is deliberately not imported here.
"""

from repro.kernels.blocking import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CHARACTER_BLOCK,
    iter_blocks,
)
from repro.kernels.backend import (
    DTYPE_TIERS,
    KernelBackend,
    NumpyBackend,
    get_backend,
    set_backend,
    use_backend,
)
from repro.kernels.fleet import (
    batched_majority_vote,
    br_features,
    fleet_margins,
    linear_features,
    majority_from_negatives,
    noisy_measurements,
    noisy_sign_responses,
    parity_features,
    sign_responses,
    xor_combine,
)
from repro.kernels.fwht import fwht, fwht_inplace, mobius_f2_inplace
from repro.kernels.character import (
    CharacterBasis,
    character_column,
    low_degree_subsets,
    num_low_degree_subsets,
    sign_of_expansion,
)

__all__ = [
    "DTYPE_TIERS",
    "KernelBackend",
    "NumpyBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "batched_majority_vote",
    "br_features",
    "fleet_margins",
    "linear_features",
    "majority_from_negatives",
    "noisy_measurements",
    "noisy_sign_responses",
    "parity_features",
    "sign_responses",
    "xor_combine",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CHARACTER_BLOCK",
    "iter_blocks",
    "fwht",
    "fwht_inplace",
    "mobius_f2_inplace",
    "CharacterBasis",
    "character_column",
    "low_degree_subsets",
    "num_low_degree_subsets",
    "sign_of_expansion",
]
