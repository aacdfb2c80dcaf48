"""Finite automata: DFAs and Mealy machines.

Shared between the L* learner (:mod:`repro.learning.angluin`) and the
sequential logic-locking substrate (:mod:`repro.locking.sequential`).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "dfa": ("DFA",),
        "mealy": ("MealyMachine",),
    },
)
