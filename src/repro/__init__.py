"""repro — reproduction of "Pitfalls in Machine Learning-based Adversary
Modeling for Hardware Systems" (Ganji, Amir, Tajik, Forte, Seifert — DATE
2020).

The library makes the paper's three adversary-model axes executable:

* **Distribution** (Section III): :mod:`repro.pac` carries the four Table I
  sample-complexity bounds and the assessment engine that shows security
  verdicts flipping between adversary models.
* **Access** (Section IV): :mod:`repro.learning.oracles` models random
  examples, membership queries, and Angluin-simulated equivalence queries;
  :class:`repro.learning.LearnPoly` demonstrates Corollary 2.
* **Representation** (Section V): :mod:`repro.booleanfuncs` (Fourier
  analysis, LTFs, Chow parameters), :mod:`repro.property_testing` (the
  halfspace tester of Table III), and the improper learners.

Substrates: :mod:`repro.pufs` (Arbiter, XOR Arbiter, Bistable Ring and
feed-forward PUF simulators), :mod:`repro.locking` (netlists, a CDCL SAT
solver, SAT/AppSAT attacks, FSM locking), :mod:`repro.automata` and
:mod:`repro.learning` (Perceptron, logistic regression, LMN, Chow, L*,
LearnPoly — all from scratch).

Quickstart::

    import numpy as np
    from repro.pufs import XORArbiterPUF, generate_crps
    from repro.pac import XorArbiterSpec, PACParameters, table1_rows

    rng = np.random.default_rng(0)
    puf = XORArbiterPUF(n=64, k=4, rng=rng)
    crps = generate_crps(puf, 10_000, rng)
    for row in table1_rows(XorArbiterSpec(64, 4), PACParameters(0.05, 0.05)):
        print(row.summary())
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "automata",
    "booleanfuncs",
    "learning",
    "locking",
    "pac",
    "property_testing",
    "pufs",
    "__version__",
]


_SUBPACKAGES = frozenset(__all__) - {"__version__"}


def __getattr__(name: str):
    """Import the subpackage ``repro.<name>`` on first attribute access (PEP 562).

    ``import repro`` loads no subpackage, so a process pays only for the
    subpackages its command uses.  ``repro.pufs.ArbiterPUF`` and
    ``from repro import *`` still work: the first access imports the
    subpackage, which then binds itself as an attribute of ``repro`` and
    bypasses this hook from then on.
    """
    if name in _SUBPACKAGES:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
