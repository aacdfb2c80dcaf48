"""Analysis and reporting: the security-boundary atlas's grid expansion,
reduction and boundary maps, learning curves, and ASCII tables.

The atlas workload's spec, cell trial and smoke grid live in
:mod:`repro.analysis.atlas_spec`, which the workload registry imports
without loading :mod:`repro.analysis.atlas`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "tables": ("format_table", "format_float", "TableBuilder"),
        "atlas_spec": ("AtlasTrialSpec", "atlas_trial", "smoke_spec"),
        "atlas": (
            "AtlasCell",
            "cell_of_trial",
            "expand_grid",
            "num_trials",
            "reduce_atlas",
            "render_markdown",
            "run_atlas",
        ),
        "learning_curves": (
            "AveragedLearningCurve",
            "LearningCurve",
            "compare_learners",
            "learning_curve",
            "replicated_learning_curve",
        ),
    },
)
