"""Tests of the benchmark's tracer, output checks and result line."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import tracer

from supmimo import cli, estimators, iterative, simharness, waveform
from supmimo.simharness import run_experiment

ROOT = Path(__file__).resolve().parent.parent

_TOY_LAYER = """
def outer():
    clock.now += 1.0
    inner()
    clock.now += 3.0
    return "outer"

def inner():
    clock.now += 2.0
    return "inner"
"""


@pytest.fixture
def toy(monkeypatch):
    """A package `toypkg` whose `layer.outer` calls `layer.inner`; `user`
    binds `inner` by name, as ``from .layer import inner`` would."""
    clock = types.SimpleNamespace(now=0.0)
    pkg = types.ModuleType("toypkg")
    layer = types.ModuleType("toypkg.layer")
    layer.clock = clock
    exec(_TOY_LAYER, layer.__dict__)
    user = types.ModuleType("toypkg.user")
    user.inner = layer.inner
    for mod in (pkg, layer, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return types.SimpleNamespace(clock=clock, layer=layer, user=user)


def test_self_time_of_nested_calls(toy):
    trace = tracer.Tracer({"layer": ("outer", "inner")}, package="toypkg",
                          clock=lambda: toy.clock.now)
    with trace:
        assert toy.layer.outer() == "outer"
        assert toy.user.inner() == "inner"
    assert trace.calls == {"layer.outer": 1, "layer.inner": 2}
    assert trace.self_s == {"layer.outer": 4.0, "layer.inner": 4.0}
    spans = {s[0]: s for s in trace.spans}
    outer_id = next(s[0] for s in trace.spans if s[2] == "layer.outer")
    nested = [s for s in trace.spans if s[2] == "layer.inner" and s[1] == outer_id]
    assert len(nested) == 1 and len(spans) == 3
    assert spans[outer_id][4] - spans[outer_id][3] == 6.0


def test_missing_names_are_tolerated_and_originals_restored(toy):
    outer, inner = toy.layer.outer, toy.layer.inner
    trace = tracer.Tracer({"layer": ("outer", "gone"), "absent": ("f",)}, package="toypkg",
                          clock=lambda: toy.clock.now)
    with trace:
        assert toy.layer.outer is not outer
        toy.layer.outer()
    assert trace.calls == {"layer.outer": 1, "layer.gone": 0, "absent.f": 0}
    assert trace.self_s["layer.gone"] == 0.0
    assert toy.layer.outer is outer and toy.layer.inner is inner and toy.user.inner is inner


def _spec(tmp_path, workload, trials=1, seed=3):
    path = tmp_path / f"{workload}.yaml"
    path.write_text(f"experiment: {workload}\noverrides:\n  trials: {trials}\n  seed: {seed}\n")
    return cli.parse_config(str(path))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly_and_tracing_changes_no_output(tmp_path, workload):
    spec = _spec(tmp_path, workload)

    def emit(name, trace=None):
        path = str(tmp_path / name)
        with trace if trace is not None else contextlib.nullcontext():
            cli.emit_csv(run_experiment(spec.config, spec.experiment, spec.options), path)
        return checks.csv_digest(path)

    first, second = tracer.Tracer(), tracer.Tracer()
    assert emit("plain.csv") == emit("first.csv", first) == emit("second.csv", second)
    assert first.calls == second.calls and first.work == second.work
    assert first.calls["sysmodel.draw_channels"] > 0
    assert first.work["sysmodel.draw_channels.mb"] > 0
    assert first.work["waveform.synthesize_received.gflop"] > 0
    for module, name in [(simharness, "draw_channels"), (simharness, "substream"),
                         (estimators, "decide"), (iterative, "decide"), (waveform, "decide")]:
        assert not hasattr(getattr(module, name), "__wrapped__"), (module, name)


def test_checks_flag_the_broken_point(tmp_path):
    spec = _spec(tmp_path, "ber_vs_k")
    records = run_experiment(spec.config, spec.experiment, spec.options)
    assert checks.check_records(spec, records) == [[], [], []]
    broken = list(records)
    broken[4] = dataclasses.replace(broken[4], value=1.5)
    result = checks.check_records(spec, broken)
    assert [bool(p) for p in result] == [False, True, False]
    assert [bool(p) for p in checks.check_records(spec, records[:6])] == [False, False, True]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_declared_metric(tmp_path, monkeypatch, capsys, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "ber_vs_k", 1)
    assert run.main(["--workload", "ber_vs_k", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPS * (1 + trace) * 3
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert not any((tmp_path / ".bench_work").iterdir())


def test_a_digest_differing_from_an_earlier_run_fails_every_point(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "ber_vs_k", 1)
    argv = ["--workload", "ber_vs_k", "--seed", "2", "--seconds", "0", "--trace", "1"]
    results = []
    for _ in range(2):
        assert run.main(argv) == 0
        results.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
    assert all(r["correct"] for r in results)
    store = tmp_path / ".bench_out" / "csv_digests.json"
    (key, digest), = json.loads(store.read_text()).items()
    store.write_text(json.dumps({key: "0" * len(digest)}))
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
