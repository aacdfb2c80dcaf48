"""The AST docstring-coverage linter (the interrogate stand-in)."""

import textwrap

import pytest

from repro.__main__ import main
from repro.tooling.docscov import measure_docstring_coverage, measure_file


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def test_counts_module_classes_and_public_functions(tmp_path):
    path = write(
        tmp_path,
        "mod.py",
        '''
        """Module docstring."""

        def documented():
            """Yes."""

        def undocumented():
            pass

        class Widget:
            """A class."""

            def method(self):
                pass
        ''',
    )
    cov = measure_file(path)
    # module + 2 functions + class + method = 5; 3 documented.
    assert (cov.total, cov.documented) == (5, 3)
    assert set(cov.missing) == {"undocumented", "Widget.method"}


def test_private_and_dunders_skipped_by_default(tmp_path):
    path = write(
        tmp_path,
        "mod.py",
        '''
        """Doc."""

        def _helper():
            pass

        class Thing:
            """Doc."""

            def __init__(self):
                pass

            def __repr__(self):
                return ""

            def _internal(self):
                pass
        ''',
    )
    cov = measure_file(path)
    assert cov.total == 2  # module + Thing only
    assert cov.missing == ()
    with_private = measure_file(path, include_private=True)
    assert with_private.total == 5  # + _helper, __init__, _internal
    assert "Thing.__repr__" not in with_private.missing


def test_nested_closures_not_counted(tmp_path):
    path = write(
        tmp_path,
        "mod.py",
        '''
        """Doc."""

        def outer():
            """Doc."""
            def closure():
                pass
            return closure
        ''',
    )
    cov = measure_file(path)
    assert cov.total == 2
    assert cov.missing == ()


def test_methods_of_private_class_still_counted(tmp_path):
    path = write(
        tmp_path,
        "mod.py",
        '''
        """Doc."""

        class _Hidden:
            def public_method(self):
                pass
        ''',
    )
    cov = measure_file(path)
    assert "_Hidden.public_method" in cov.missing


def test_missing_module_docstring_reported(tmp_path):
    path = write(tmp_path, "mod.py", "x = 1\n")
    cov = measure_file(path)
    assert cov.missing == ("<module>",)
    assert cov.percent == 0.0


def test_directory_recursion_and_render(tmp_path):
    write(tmp_path, "a.py", '"""Doc."""\n')
    sub = tmp_path / "pkg"
    sub.mkdir()
    write(sub, "b.py", "def f():\n    pass\n")
    report = measure_docstring_coverage([tmp_path])
    assert report.total == 3  # a.py module, b.py module, f
    assert report.documented == 1
    rendered = report.render(verbose=True)
    assert rendered.endswith("TOTAL: 1/3 (33.3%)")
    assert "missing: f" in rendered


def test_rejects_non_python_path(tmp_path):
    other = tmp_path / "notes.txt"
    other.write_text("hi")
    with pytest.raises(ValueError, match="not a Python source"):
        measure_docstring_coverage([other])


def test_instrumented_packages_hold_the_ci_threshold(capsys):
    """The gate CI enforces: ``lint-docstrings`` over its default paths
    (every one of which must exist) stays >= 95%."""
    assert main(["lint-docstrings", "--fail-under", "95"]) == 0
    assert "TOTAL:" in capsys.readouterr().out


def test_cli_missing_path_exits_2_with_one_line(tmp_path, capsys):
    missing = tmp_path / "gone.py"
    assert main(["lint-docstrings", "src/repro/telemetry", str(missing)]) == 2
    assert capsys.readouterr().out == f"no such path: {missing}\n"
