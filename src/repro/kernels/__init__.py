"""Shared character kernels for all spectral learners.

``repro.kernels`` is a leaf package: its modules pull in numpy and
:mod:`repro.telemetry.spans`, nothing else from ``repro``
(:func:`sign_of_expansion` imports ``BooleanFunction`` lazily), so every
learner and the runtime can build on it without import cycles.  Each
name below imports its module on first use; only :mod:`repro.kernels.fwht`,
whose ``fwht`` shares its name, loads with the package.
``repro.kernels.bench`` (the benchmark cases, which do construct PUFs)
is not exported here.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "blocking": ("DEFAULT_BLOCK_SIZE", "DEFAULT_CHARACTER_BLOCK", "iter_blocks"),
        "backend": (
            "KernelBackend",
            "NumpyBackend",
            "get_backend",
            "set_backend",
            "use_backend",
        ),
        "fleet": (
            "br_features",
            "fleet_margins",
            "linear_features",
            "majority_from_negatives",
            "noisy_measurements",
            "parity_features",
            "sign_responses",
        ),
        "fwht": ("fwht", "fwht_inplace", "mobius_f2_inplace"),
        "character": (
            "CharacterBasis",
            "character_column",
            "low_degree_subsets",
            "num_low_degree_subsets",
            "sign_of_expansion",
        ),
    },
)
