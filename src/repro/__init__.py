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

__version__ = "1.0.0"


def _lazy_exports(package, exports):
    """PEP 562 hooks that import a package's public names on first use.

    ``exports`` maps each submodule of ``package`` (relative name) to the
    names it defines that the package re-exports, or to ``None`` when the
    submodule itself is the export.  Returns ``(__all__, __getattr__,
    __dir__)`` for the package's ``__init__``: importing the package loads
    no submodule, the first access to a name imports its submodule and
    binds all of that submodule's exports on the package (later accesses
    bypass the hook), ``from package import *`` binds every name, and
    ``dir(package)`` lists them before they are loaded.

    A submodule that exports a name equal to its own is imported at once:
    importing it later, by any route, would bind the package attribute to
    the module rather than to the name it exports.
    """
    import importlib
    import sys

    where = {}
    for module, names in exports.items():
        for name in (module,) if names is None else names:
            where[name] = module

    def bind(module):
        # Importing a submodule binds it on its package; its exported
        # names are bound here.
        submodule = importlib.import_module(f"{package}.{module}")
        namespace = vars(sys.modules[package])
        for name in exports[module] or ():
            namespace[name] = getattr(submodule, name)

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        bind(where[name])
        return vars(sys.modules[package])[name]

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(where))

    for module, names in exports.items():
        if names is not None and module in names:
            bind(module)
    return list(where), __getattr__, __dir__


# ``import repro`` loads no subpackage, so a process pays only for the
# subpackages its command uses; ``repro.pufs.ArbiterPUF`` and ``from repro
# import *`` import them on first use.
__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        name: None
        for name in (
            "analysis",
            "automata",
            "booleanfuncs",
            "learning",
            "locking",
            "pac",
            "property_testing",
            "pufs",
        )
    },
)
__all__.append("__version__")
