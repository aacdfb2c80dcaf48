"""Import budget: each entry point loads only what its command runs.

``import repro`` binds its subpackages on first attribute access
(PEP 562), and each subpackage imports the module behind an exported
name on first access to it.  scipy is imported only inside the
conformance oracles that use it (the halfspace tester runs on
``statistics.NormalDist``, and the scipy reference fits live in
``tests/_reference.py``), and trial functions import their learners in
their bodies.  So a fleet, serve or atlas process never pays for scipy,
the learners, the locking stack or the PAC machinery, and the LR fits of
an atlas or learning-curve run (NumPy solvers) load no scipy either.  The
workload registry does not load the atlas module, and a serial run does
not load the process pool.  Each case runs a fresh interpreter and
checks the module *names* in ``sys.modules`` — never timings, so a slow
runner cannot make it flake.  A failure lists the offending modules with
the chain that imported each one, read from ``-X importtime``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prefixes no fleet, serve or atlas process may load.
HEAVY = (
    "scipy",
    "repro.learning",
    "repro.locking",
    "repro.pac",
    "repro.property_testing",
)

SUBPACKAGES = [
    "analysis",
    "automata",
    "booleanfuncs",
    "learning",
    "locking",
    "pac",
    "property_testing",
    "pufs",
]

_MARK = "MODULES:"

_DUMP = f"import json, sys; print({_MARK!r} + json.dumps(sorted(sys.modules)))"

#: Run ``python -m repro ARGS`` the way ``-m`` does, then dump sys.modules.
_CLI = (
    "import runpy, sys\n"
    "sys.argv = ['repro'] + sys.argv[1:]\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code in (0, None), exc.code\n"
    f"{_DUMP}\n"
)


def _run(code, *args):
    """Run ``code`` under ``-X importtime``; return (modules, importtime log)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith(_MARK)][-1]
    return set(json.loads(line[len(_MARK):])), proc.stderr


def _result(code, *args):
    """Run ``code``; return the JSON it printed after ``RESULT:``."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT:")][-1]
    return json.loads(line[len("RESULT:"):])


def _import_chain(log, module):
    """``a <- b <- c``: ``module`` and the modules that imported it.

    ``-X importtime`` prints a module's line when its import finishes,
    two spaces deeper per nesting level, so a module's importer is the
    next line one level shallower.
    """
    rows = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        name = line.rsplit("|", 1)[1]
        stripped = name.lstrip(" ")
        if stripped == "imported package":
            continue
        rows.append(((len(name) - len(stripped)) // 2, stripped.strip()))
    for i, (depth, name) in enumerate(rows):
        if name != module:
            continue
        chain = [name]
        for later_depth, later in rows[i + 1:]:
            if later_depth < depth:
                chain.append(later)
                depth = later_depth
        return " <- ".join(chain)
    return module


def _assert_none_loaded(modules, log, prefixes):
    offending = sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )
    # The outermost offender of each family explains the rest.
    roots = [
        m for m in offending if not any(m.startswith(o + ".") for o in offending)
    ]
    assert not offending, (
        f"{len(offending)} module(s) over the import budget: "
        f"{', '.join(offending[:20])}{' …' if len(offending) > 20 else ''}\n"
        "imported by:\n" + "\n".join("  " + _import_chain(log, m) for m in roots)
    )


def test_import_repro_loads_no_subpackage():
    modules, log = _run("import repro; " + _DUMP)
    assert "repro" in modules
    _assert_none_loaded(modules - {"repro"}, log, ("repro",))


@pytest.mark.parametrize(
    "code",
    [
        "import repro.runtime.workloads, repro.service.app",
        "import repro.analysis.atlas",
    ],
)
def test_library_imports_stay_light(code):
    modules, log = _run(f"{code}; {_DUMP}")
    _assert_none_loaded(modules, log, HEAVY)


def test_workload_registry_loads_no_atlas():
    modules, log = _run(
        f"import repro.runtime.workloads, repro.service.app; {_DUMP}"
    )
    assert "repro.analysis.atlas_spec" in modules  # the atlas entry
    _assert_none_loaded(modules, log, ("repro.analysis.atlas",))


def test_serial_fleet_run_loads_no_process_pool():
    modules, log = _run(
        "from repro.runtime.runner import TrialRunner\n"
        "from repro.runtime.workloads import FleetEvalSpec, fleet_eval_trial\n"
        "spec = FleetEvalSpec(n=16, size=8, m=50, repetitions=3)\n"
        "TrialRunner(workers=1).run(\n"
        "    fleet_eval_trial, 2, 0, {'spec': spec}\n"
        ").raise_failures()\n"
        f"{_DUMP}\n"
    )
    assert "repro.runtime.pool" in modules  # the run went through it
    _assert_none_loaded(
        modules, log, ("multiprocessing", "concurrent.futures.process")
    )


#: The benchmark suite modules, which ``bench`` imports only to run one.
SUITE_MODULES = (
    "repro.kernels.bench",
    "repro.kernels.fleet_bench",
    "repro.learning.active_bench",
    "repro.runtime.store_bench",
)


@pytest.mark.parametrize("command", ["trials", "serve", "bench"])
def test_cli_help_stays_light(command):
    modules, log = _run(_CLI, command, "--help")
    assert "repro.runtime.workloads" in modules  # the --workload choices
    _assert_none_loaded(modules, log, HEAVY + SUITE_MODULES)


#: Commands that fit LR models in-process on a tiny grid: the learners
#: load, scipy must not.
LR_COMMANDS = {
    "atlas": [
        "atlas", "--spec", 'families=["xor"]', "--spec", 'learners=["lr"]',
        "--spec", "ns=[16]", "--spec", "ks=[1,2]", "--spec", "budgets=[60]",
        "--spec", "test_size=200",
    ],
    "curve": [
        "trials", "--workload", "curve", "--smoke", "--trials", "2",
        "--workers", "1", "--spec", "n=16", "--spec", "budgets=[60]",
        "--spec", "test_size=200",
    ],
}


@pytest.mark.parametrize("args", LR_COMMANDS.values(), ids=LR_COMMANDS.keys())
def test_lr_fits_load_no_scipy(args):
    modules, log = _run(_CLI, *args)
    _assert_none_loaded(modules, log, ("scipy",))
    assert "repro.learning.logistic" in modules  # the fits ran here


#: The ``repro.learning`` modules an atlas fit uses: its three learners,
#: the NumPy solvers and the feature-map preamble.
ATLAS_LEARNING = {
    "repro.learning",
    "repro.learning.features",
    "repro.learning.logistic",
    "repro.learning.mlp",
    "repro.learning.reliability_attack",
    "repro.learning.solvers",
    "repro.learning.xor_logistic",
}


def test_atlas_run_loads_only_what_its_cells_use():
    modules, log = _run(
        _CLI,
        "atlas", "--spec", 'families=["xor"]',
        "--spec", 'learners=["lr","mlp","reliability"]', "--spec", "ns=[16]",
        "--spec", "ks=[1,2]", "--spec", "noise_sigmas=[0.3]",
        "--spec", "budgets=[60]", "--spec", "test_size=200",
        "--spec", "es_generations=3", "--spec", "mlp_epochs=2",
    )
    assert ATLAS_LEARNING <= modules  # every learner ran here
    unused_learning = {
        m for m in modules if m.startswith("repro.learning.")
    } - ATLAS_LEARNING
    _assert_none_loaded(
        modules,
        log,
        (
            "repro.automata",
            "repro.analysis.learning_curves",
            "repro.kernels.character",
            *sorted(unused_learning),
        ),
    )


def test_halfspace_weight_loads_no_scipy():
    modules, log = _run(
        "from repro.property_testing import expected_degree1_weight; "
        f"expected_degree1_weight(0.3); {_DUMP}"
    )
    assert "repro.property_testing.halfspace_tester" in modules
    _assert_none_loaded(modules, log, ("scipy",))


def test_attribute_access_and_star_import_bind_every_subpackage():
    code = (
        "import json, repro\n"
        "before = sorted(repro.__dict__)\n"
        "listed = dir(repro)\n"
        "assert repro.pufs.ArbiterPUF.__name__ == 'ArbiterPUF'\n"
        "star = {}\n"
        "exec('from repro import *', star)\n"
        "try:\n"
        "    repro.nope\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "else:\n"
        "    missing = None\n"
        "print('RESULT:' + json.dumps({\n"
        "    'star': {k: v.__name__ for k, v in star.items()\n"
        "             if k != '__builtins__' and hasattr(v, '__name__')},\n"
        "    'version': star.get('__version__'),\n"
        "    'missing': missing,\n"
        "    'bound_before': [n for n in before if not n.startswith('_')],\n"
        "    'dir': listed,\n"
        "}))\n"
        f"{_DUMP}\n"
    )
    result = _result(code)
    assert result["star"] == {name: f"repro.{name}" for name in SUBPACKAGES}
    assert result["version"] == "1.0.0"
    assert result["missing"] == "module 'repro' has no attribute 'nope'"
    assert not set(result["bound_before"]) & set(SUBPACKAGES)
    assert set(SUBPACKAGES) <= set(result["dir"])
    assert "importlib" not in result["dir"]
    assert [n for n in result["dir"] if not n.startswith("_")] == SUBPACKAGES


#: Subpackages whose exports import on first access.
LAZY_SUBPACKAGES = [
    "analysis",
    "automata",
    "booleanfuncs",
    "kernels",
    "learning",
    "locking",
    "pac",
    "property_testing",
    "pufs",
    "runtime",
    "telemetry",
]


def _declared_exports(package):
    """The ``{submodule: names}`` table ``repro.<package>`` hands to
    ``_lazy_exports``, read from its source."""
    tree = ast.parse((SRC / "repro" / package / "__init__.py").read_text())
    call = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_lazy_exports"
    )
    return ast.literal_eval(call.args[1])


#: argv: package, exports as JSON, and "1" to import every submodule
#: directly before touching the package's names (the order in which a
#: submodule named like its export would shadow it).
_EXPORTS = """
import importlib, json, sys
package, exports = sys.argv[1], json.loads(sys.argv[2])
if sys.argv[3] == "1":
    for module in exports:
        importlib.import_module(f"{package}.{module}")
pkg = importlib.import_module(package)
listed = dir(pkg)
# Attribute access first: a star import would look up every name and so
# bind a whole submodule's exports before reading any of them.
got = {name: getattr(pkg, name) for name in pkg.__all__}
star = {}
exec(f"from {package} import *", star)
wrong = [
    name
    for module, names in exports.items()
    for name in names
    if not got[name]
    is star.get(name)
    is getattr(importlib.import_module(f"{package}.{module}"), name)
]
try:
    pkg.no_such_name
except AttributeError as exc:
    missing = str(exc)
else:
    missing = None
print("RESULT:" + json.dumps({
    "all": pkg.__all__,
    "star": sorted(set(star) - {"__builtins__"}),
    "dir": listed,
    "wrong": wrong,
    "missing": missing,
}))
"""


@pytest.mark.parametrize("submodules_first", [False, True], ids=["names", "modules"])
@pytest.mark.parametrize("package", LAZY_SUBPACKAGES)
def test_lazy_exports_bind_what_the_submodules_define(package, submodules_first):
    exports = _declared_exports(package)
    names = [name for group in exports.values() for name in group]
    result = _result(
        _EXPORTS,
        f"repro.{package}",
        json.dumps(exports),
        "1" if submodules_first else "0",
    )
    assert sorted(result["all"]) == sorted(names) == result["star"]
    assert set(names) <= set(result["dir"])
    assert result["wrong"] == []
    assert result["missing"] == (
        f"module 'repro.{package}' has no attribute 'no_such_name'"
    )


def test_import_pufs_defines_every_puf_family():
    """``import repro.pufs``, with no attribute access, defines every
    ``*PUF`` class it exports, and ``PUF.__subclasses__()`` finds the
    PUF-interface families (a tracer's way to their ``eval`` methods)."""
    result = _result(
        "import json, sys, repro.pufs\n"
        "from repro.pufs.base import PUF\n"
        "found, todo = [], [PUF]\n"
        "while todo:\n"
        "    subclasses = todo.pop().__subclasses__()\n"
        "    found += [cls.__name__ for cls in subclasses]\n"
        "    todo += subclasses\n"
        "defined = {\n"
        "    name for module in list(sys.modules.values())\n"
        "    if module.__name__.startswith('repro.pufs.')\n"
        "    for name, value in vars(module).items() if isinstance(value, type)\n"
        "}\n"
        "print('RESULT:' + json.dumps({\n"
        "    'subclasses': sorted(found),\n"
        "    'undefined': [n for n in repro.pufs.__all__\n"
        "                  if n.endswith('PUF') and n not in defined],\n"
        "}))\n"
    )
    assert result["subclasses"] == [
        "ArbiterPUF",
        "BistableRingPUF",
        "CDCXORArbiterPUF",
        "FeedForwardArbiterPUF",
        "InterposePUF",
        "XORArbiterPUF",
    ]
    assert result["undefined"] == []


def test_import_chain_names_the_importer():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:        10 |         10 |       scipy.linalg\n"
        "import time:        10 |         20 |     scipy.optimize\n"
        "import time:        10 |         10 |     numpy\n"
        "import time:        10 |         40 |   repro.learning.logistic\n"
        "import time:        10 |         50 | repro.runtime.workloads\n"
    )
    assert _import_chain(log, "scipy.optimize") == (
        "scipy.optimize <- repro.learning.logistic <- repro.runtime.workloads"
    )
    assert _import_chain(log, "absent") == "absent"

