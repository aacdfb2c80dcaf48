"""``python -m repro atlas``: the grid comes from ``--spec`` pairs over
the registry's smoke tier, and bad input exits 2 before any trial runs
or any run file is written."""

import dataclasses

import pytest

from repro.__main__ import main
from repro.analysis import atlas
from repro.analysis.atlas import AtlasTrialSpec, smoke_spec

TINY = [
    "--spec", 'families=["xor"]',
    "--spec", 'learners=["lr"]',
    "--spec", "ns=[16]",
    "--spec", "ks=[1]",
    "--spec", "noise_sigmas=[0]",
    "--spec", "budgets=[40]",
    "--spec", "test_size=100",
]


class _Ran(Exception):
    """Raised by the stand-in ``run_atlas`` once it has the spec."""


@pytest.fixture
def captured(monkeypatch):
    """The spec ``atlas`` hands to ``run_atlas`` (which then stops)."""
    seen = []

    def run_atlas(spec, **kwargs):
        seen.append(spec)
        raise _Ran

    monkeypatch.setattr(atlas, "run_atlas", run_atlas)
    return seen


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], AtlasTrialSpec()),
        (["--smoke"], smoke_spec()),
        (
            ["--smoke", "--spec", "ks=[1]", "--spec", "ks=[2,1]"],
            dataclasses.replace(smoke_spec(), ks=(1, 2)),
        ),
        (TINY, AtlasTrialSpec(
            families=("xor",), learners=("lr",), ns=(16,), ks=(1,),
            noise_sigmas=(0.0,), budgets=(40,), test_size=100,
        )),
    ],
    ids=["defaults", "smoke", "smoke-then-spec", "tiny"],
)
def test_spec_pairs_set_the_grid(captured, argv, expected):
    with pytest.raises(_Ran):
        main(["atlas", *argv])
    assert captured == [expected]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--frontier", "0.4"], "frontier must be in (0.5, 1], got 0.4"),
        (["--frontier", "0.5"], "frontier must be in (0.5, 1], got 0.5"),
        (["--frontier", "1.01"], "frontier must be in (0.5, 1], got 1.01"),
        (["--spec", "ks=[0]"], "ks must be non-empty and positive"),
        (["--spec", "ks=oops"], "expects Tuple[int, ...], got 'oops'"),
        (["--spec", "width=3"], "unknown spec field(s) ['width']"),
    ],
    ids=["frontier-low", "frontier-chance", "frontier-high", "bad-k",
         "bad-type", "unknown-field"],
)
def test_bad_input_exits_2_before_any_trial(
    captured, capsys, tmp_path, argv, message
):
    runs = tmp_path / "runs"
    code = main([
        "atlas", *TINY, *argv,
        "--ledger", "--run-id", "bad", "--runs-dir", str(runs),
    ])
    assert code == 2
    assert message in capsys.readouterr().out
    assert captured == []
    # Neither meta.json nor a ledger record was written.
    assert not runs.exists() or not any(runs.rglob("*"))


def test_bad_frontier_runs_no_trial_and_writes_no_ledger(tmp_path):
    """With the real sweep: a frontier outside (0.5, 1] stops the run
    before its one trial and its meta.json; a valid one runs the trial
    and records it."""
    runs = tmp_path / "runs"
    argv = [
        "atlas", *TINY, "--ledger", "--run-id", "r", "--runs-dir", str(runs),
    ]
    assert main([*argv, "--frontier", "0.4"]) == 2
    assert not (runs / "r").exists()

    assert main([*argv, "--frontier", "0.6"]) == 0
    assert (runs / "r" / "ledger.jsonl").read_text().count("\n") == 1


def test_bench_out_names_the_command_that_made_it(tmp_path):
    """The ``--bench-out`` payload of a tiny grid names that grid: every
    ``--spec`` pair as given, plus the non-default seed and frontier."""
    import json

    out = tmp_path / "bench.json"
    argv = [*TINY, "--seed", "3", "--frontier", "0.8", "--bench-out", str(out)]
    assert main(["atlas", *argv]) == 0
    payload = json.loads(out.read_text())
    assert payload["generated_by"] == (
        "python -m repro atlas --spec 'families=[\"xor\"]' "
        "--spec 'learners=[\"lr\"]' --spec 'ns=[16]' --spec 'ks=[1]' "
        "--spec 'noise_sigmas=[0]' --spec 'budgets=[40]' "
        "--spec test_size=100 --seed 3 --frontier 0.8"
    )
    (case,) = payload["cases"]
    assert (case["family"], case["n"], case["cells"]) == ("xor", 16, 1)


@pytest.mark.parametrize(
    "argv, command",
    [
        (["--smoke"], "python -m repro atlas --smoke"),
        (["--smoke", "--seed", "0", "--frontier", "0.75"],
         "python -m repro atlas --smoke"),
        (["--spec", "ks=[1, 2]", "--seed", "-1"],
         "python -m repro atlas --spec 'ks=[1, 2]' --seed -1"),
    ],
    ids=["committed-smoke", "defaults-omitted", "spec-as-given"],
)
def test_atlas_command_keeps_defaults_out(argv, command):
    from repro.__main__ import _atlas_command, build_parser

    assert _atlas_command(build_parser().parse_args(["atlas", *argv])) == command
