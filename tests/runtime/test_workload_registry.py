"""The one workload registry behind ``repro trials`` and the service.

``python -m repro trials --spec KEY=VALUE`` and a service job's ``spec``
object both reach :func:`repro.runtime.workloads.build_workload`, so a
workload description means the same experiment from either entry point.
"""

import dataclasses
import json
import typing

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.__main__ import _trials_workload, build_parser, main
from repro.runtime import workloads
from repro.runtime.workloads import WORKLOADS, build_workload


def parse_trials(*argv):
    return build_parser().parse_args(["trials", *argv])


def spec_arg(key, value):
    """``KEY=VALUE`` for one field: bare when a string is not JSON."""
    text = json.dumps(value)
    if isinstance(value, str):
        try:
            json.loads(value)
        except ValueError:
            text = value
    return f"{key}={text}"


def near(default, kind):
    """Values of type ``kind`` around a field's default (mostly valid)."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Union:
        return st.one_of([near(default, member) for member in args])
    if kind is type(None):
        return st.none()
    if origin is tuple:
        if args[0] is str:
            return st.lists(st.sampled_from(default), min_size=1, unique=True)
        base = default[0] if isinstance(default, tuple) and default else default
        return st.lists(near(base or 0, args[0]), min_size=1, max_size=3)
    if kind is int:
        return st.integers(default // 2, 2 * default + 2)
    if kind is float:
        return st.floats(default / 2, 1.5 * default if default else 0.25)
    if default is None:
        return st.text(max_size=8)  # a free-form string such as once_dir
    return st.just(default)


class TestTable:
    def test_service_reexports_the_same_table_and_builder(self):
        from repro.service import jobs

        assert jobs.WORKLOADS is WORKLOADS
        assert jobs.build_workload is build_workload

    def test_entries_are_plain_tuples_with_the_trial_function_first(self):
        for name, entry in WORKLOADS.items():
            trial_fn, spec_cls, labels, smoke = entry
            assert type(entry) is tuple and callable(trial_fn), name
            assert dataclasses.is_dataclass(spec_cls), name
            assert labels(spec_cls()), name
            build_workload(name, smoke)  # the smoke tier is a valid spec

    def test_trials_accepts_every_workload_name(self):
        for name in WORKLOADS:
            assert parse_trials("--workload", name).workload == name

    def test_labels_name_every_value_column(self):
        _, spec, columns = _trials_workload(parse_trials("--workload", "fault"))
        assert columns == [f"draw {i}" for i in range(spec.size)]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_spec_round_trips_through_spec_strings(data):
    name = data.draw(st.sampled_from(sorted(WORKLOADS)))
    spec_cls = WORKLOADS[name][1]
    kinds = typing.get_type_hints(spec_cls)
    overrides = {
        f.name: data.draw(near(f.default, kinds[f.name]), label=f.name)
        for f in dataclasses.fields(spec_cls)
        if data.draw(st.booleans())
    }
    try:
        _, spec = build_workload(name, overrides)
    except ValueError:
        assume(False)
    argv = ["--workload", name]
    for key, value in dataclasses.asdict(spec).items():
        argv += ["--spec", spec_arg(key, value)]
    _, parsed, _ = _trials_workload(parse_trials(*argv))
    assert parsed == spec


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cli_builds_what_build_workload_builds(name, smoke):
    smoke_overrides = WORKLOADS[name][3] if smoke else {}
    first = next(iter(dataclasses.fields(WORKLOADS[name][1])))
    value = dataclasses.asdict(build_workload(name, smoke_overrides)[1])[first.name]
    argv = ["--workload", name, "--spec", spec_arg(first.name, value)]
    trial_fn, spec, _ = _trials_workload(
        parse_trials(*argv, *(["--smoke"] if smoke else []))
    )
    expected = build_workload(name, {**smoke_overrides, first.name: value})
    assert (trial_fn, spec) == expected
    assert trial_fn is WORKLOADS[name][0]


def test_dataclass_defaults_are_the_cli_defaults():
    _, active, _ = _trials_workload(parse_trials("--workload", "active"))
    assert (active.budgets, active.pool_size) == ((64, 128, 256), 1024)
    _, fault, _ = _trials_workload(parse_trials("--workload", "fault"))
    assert (fault.size, fault.sleep_seconds) == (4, 0.0)


def test_spec_applies_on_top_of_smoke():
    _, spec, _ = _trials_workload(
        parse_trials("--workload", "fleet", "--smoke", "--spec", "repetitions=5")
    )
    assert spec.repetitions == 5
    assert (spec.n, spec.size, spec.m) == (32, 48, 400)


def test_later_spec_pair_wins_and_strings_may_be_bare():
    _, spec, _ = _trials_workload(
        parse_trials(
            "--workload", "active",
            "--spec", "strategy=committee",
            "--spec", "batch=8",
            "--spec", "batch=4",
        )
    )
    assert (spec.strategy, spec.batch) == ("committee", 4)


def test_malformed_pair_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse_trials("--spec", "n")
    assert exit_info.value.code == 2
    assert "KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ['n="64"', "n=abc", "budgets=5", "nonsense=1"])
def test_bad_spec_value_prints_the_message_and_exits_2(pair, capsys):
    assert main(["trials", "--trials", "1", "--spec", pair]) == 2
    field = pair.split("=")[0]
    assert field in capsys.readouterr().out


def test_cache_dir_is_accepted_where_the_trial_takes_it(tmp_path, capsys):
    argv = [
        "trials", "--workload", "chow", "--spec", "n=16", "--spec", "m=256",
        "--trials", "2", "--workers", "1", "--skip-serial",
        "--cache-dir", str(tmp_path / "store"), "--cache-stats",
    ]
    assert main(argv) == 0
    assert "cache stats: hits=0 misses=2" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache stats: hits=2 misses=0" in capsys.readouterr().out


def test_cache_dir_is_refused_where_the_trial_does_not_take_it(tmp_path, capsys):
    argv = ["trials", "--workload", "sq", "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "not supported by the sq workload" in capsys.readouterr().out


def test_trial_functions_are_read_from_the_table_at_call_time(monkeypatch):
    def traced(ctx, spec):  # pragma: no cover - never run
        raise AssertionError

    entry = WORKLOADS["fleet"]
    monkeypatch.setitem(WORKLOADS, "fleet", (traced,) + entry[1:])
    assert build_workload("fleet", {})[0] is traced
    assert _trials_workload(parse_trials("--workload", "fleet"))[0] is traced
    assert workloads.fleet_eval_trial is entry[0]
