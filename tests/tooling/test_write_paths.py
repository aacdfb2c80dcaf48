"""One write path: only ``repro.persist`` writes files.

Every file the package persists goes through ``repro.persist``
(``write_atomic`` or ``append_lines``), so one module holds the staging
rule and the durability decision, and a crash test can reach every
persisted write by patching that one module.  This scan parses every
module of ``src/repro`` except ``persist.py`` and fails on a call that
writes a file another way:

* ``.write_text(...)`` or ``.write_bytes(...)``;
* ``open``, ``.open`` or ``os.fdopen`` with a write, append, exclusive
  or update mode (or a mode the scan cannot read);
* ``os.replace``, ``os.rename`` or ``os.write`` (``os.open`` alone
  passes: the fault workload's once-marker is an empty lock file);
* ``tempfile`` staging files (``mkstemp``, ``mktemp``,
  ``NamedTemporaryFile``, ``TemporaryFile``, ``SpooledTemporaryFile``).

Like ``test_import_budget.py`` it reads names, never timings.  A
failure lists ``path:line`` and the call.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one module allowed to write files.
WRITER = SRC / "persist.py"

_WRITE_METHODS = {"write_text", "write_bytes"}
_STAGING = {
    "mkstemp",
    "mktemp",
    "NamedTemporaryFile",
    "TemporaryFile",
    "SpooledTemporaryFile",
}


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _open_mode(call, position):
    """The mode argument of an open-like call: a string, None if absent,
    or ``"?"`` when it is not a literal."""
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "?"


def _is_write_mode(mode):
    return mode is not None and (mode == "?" or bool(set(mode) & set("wax+")))


def _writes(source):
    """``(line, call)`` for each file write in ``source`` outside persist."""
    tempfile_names = set()
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            tempfile_names |= {
                a.asname or a.name for a in node.names if a.name in _STAGING
            }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func) or ""
        method = node.func.attr if isinstance(node.func, ast.Attribute) else None
        if name in {"open", "io.open", "os.fdopen"}:
            hit = _is_write_mode(_open_mode(node, 1))
        elif method == "open" and name != "os.open":  # Path.open(mode)
            hit = _is_write_mode(_open_mode(node, 0))
        else:
            hit = (
                method in _WRITE_METHODS
                or name in {"os.replace", "os.rename", "os.write"}
                or name in tempfile_names
                or name.startswith("tempfile.") and name[9:] in _STAGING
            )
        if hit:
            found.append((node.lineno, ast.unparse(node.func)))
    return found


def test_only_persist_writes_files():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {call}(...)"
        for path in sorted(SRC.rglob("*.py"))
        if path != WRITER
        for line, call in _writes(path.read_text())
    ]
    assert offenders == [], "write through repro.persist instead:\n" + "\n".join(
        offenders
    )


@pytest.mark.parametrize(
    "source",
    [
        "Path('x').write_text('y')",
        "path.write_bytes(b'y')",
        "open(path, 'w')",
        "open(path, mode='ab')",
        "open(path, flags)",
        "path.open('a')",
        "path.open(mode='r+')",
        "os.fdopen(fd, 'wb')",
        "io.open(path, 'x')",
        "os.replace(tmp, path)",
        "os.rename(tmp, path)",
        "os.write(fd, data)",
        "tempfile.mkstemp(dir=d)",
        "tempfile.NamedTemporaryFile(delete=False)",
        "from tempfile import mkstemp as stage\nstage()",
    ],
)
def test_scan_finds_each_kind_of_write(source):
    assert len(_writes(source)) == 1


@pytest.mark.parametrize(
    "source",
    [
        "open(path)",
        "open(path, 'rb', buffering=0)",
        "path.open()",
        "os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)",
        "text.replace('a', 'b')",
        "tempfile.mkdtemp(prefix='bench-')",
        "write_atomic(path, data)",
    ],
)
def test_scan_passes_reads_and_non_writes(source):
    assert _writes(source) == []
