"""Property testing: is the device's response function close to a halfspace?

Implements the Matulef-O'Donnell-Rubinfeld-Servedio halfspace tester [28]
used in the paper's Table III experiment, plus empirical distance
estimators used to cross-check its verdicts.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "halfspace_tester": (
            "HalfspaceTester",
            "HalfspaceTestResult",
            "degree1_weight_ustat",
            "expected_degree1_weight",
            "degree1_weight_coordinate",
        ),
        "junta_tester": ("JuntaTester", "JuntaTestResult"),
        "distance": (
            "best_ltf_agreement",
            "empirical_min_distance",
            "exact_min_distance_small_n",
        ),
    },
)
