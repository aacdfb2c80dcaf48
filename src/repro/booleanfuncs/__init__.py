"""Boolean-function analysis substrate.

This package provides the analytical machinery the paper's arguments rest
on: the Fourier expansion of Boolean functions over the Boolean cube, noise
sensitivity and stability, influences and junta structure, linear threshold
functions (LTFs) with their Chow parameters, and sparse multivariate
polynomials over GF(2).

All functions use the +/-1 encoding ``chi(0) = +1``, ``chi(1) = -1`` from
Section III-A of the paper unless stated otherwise.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "encoding": (
            "bits_to_pm1",
            "pm1_to_bits",
            "parity",
            "chi",
            "enumerate_cube",
            "random_pm1",
            "flip_noise",
        ),
        "function": ("BooleanFunction",),
        "fourier": (
            "walsh_hadamard",
            "inverse_walsh_hadamard",
            "fourier_spectrum",
            "estimate_fourier_coefficient",
            "spectral_weight_by_degree",
            "low_degree_projection",
        ),
        "noise_sensitivity": (
            "noise_sensitivity_exact",
            "noise_sensitivity_mc",
            "noise_stability_exact",
            "ltf_noise_sensitivity_bound",
            "xor_of_ltfs_noise_sensitivity_bound",
        ),
        "influences": (
            "influence_exact",
            "influences_exact",
            "total_influence_exact",
            "influence_mc",
            "junta_coordinates",
        ),
        "ltf": (
            "LTF",
            "chow_parameters_exact",
            "estimate_chow_parameters",
            "ltf_from_chow_parameters",
            "integer_weight_approximation",
            "regularity",
        ),
        "polynomials": ("SparseF2Polynomial", "XorOfTerms"),
        "sensitivity": (
            "sensitivity_at",
            "max_sensitivity",
            "average_sensitivity",
            "block_sensitivity_at",
            "block_sensitivity",
        ),
    },
)
