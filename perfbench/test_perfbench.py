"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

They use small stand-ins for the full-size workloads so they finish in
seconds, but go through the same workload classes, tracer and checks.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker

worker.import_lapcpd()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lapcpd.benchmarks import MULTI_VIEW_METHODS  # noqa: E402
from lapcpd.generators import AnomalySchedule, GenConfig, SbmSegment  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _tiny_preset():
    rows = [
        (0, "start", SbmSegment(2, 0.3, 0.05, 1)),
        (14, "change_point", SbmSegment(4, 0.3, 0.05, 1)),
    ]
    return AnomalySchedule.from_rows(rows, 24), GenConfig(n_nodes=40, n_views=2, continuity=0.5)


def _tiny_trials(jobs):
    return workloads.TrialWorkload(
        name="tiny",
        preset=_tiny_preset,
        methods=tuple(MULTI_VIEW_METHODS) + ("activity",),
        trials=2,
        jobs=jobs,
        layers=frozenset(tracing.LAYERS) - {"cli"},
    )


@pytest.fixture
def small_stream(monkeypatch):
    monkeypatch.setattr(workloads, "N_NODES", 100)
    monkeypatch.setattr(workloads, "STREAM_K", 10)  # <= n/4: the Lanczos route
    return workloads.WORKLOADS["stream-topk"]


def _traced(w, state, seed):
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.run(w.root_span, run_id=1):
            raw = w.run(state, seed, w.jobs)
    return tracer, w.outputs(state, raw)


def _wrapped_attributes():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.WRAP_POINTS
    }


def test_wrappers_restored_after_traced_run(tmp_path):
    before = _wrapped_attributes()
    w = _tiny_trials(jobs=1)
    _traced(w, w.setup(0, tmp_path), 0)
    assert _wrapped_attributes() == before


def test_wrappers_restored_when_run_raises():
    before = _wrapped_attributes()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed():
            1 / 0
    assert _wrapped_attributes() == before


@pytest.mark.parametrize("jobs", [1, 2])
def test_self_times_non_negative_and_bounded_by_wall(tmp_path, jobs):
    w = _tiny_trials(jobs)
    tracer, _ = _traced(w, w.setup(0, tmp_path), 0)
    (root,) = [s for s in tracer.spans if s["parent"] is None]
    wall = root["end"] - root["start"]
    own = tracing.self_times(tracer.spans)
    assert min(own.values()) >= -1e-9
    # Worker threads overlap, so up to ``jobs`` spans can be busy at once.
    assert sum(own.values()) <= jobs * wall + 1e-6
    metrics = tracing.layer_metrics(tracer.spans, jobs)
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self == pytest.approx(sum(own.values()))
    assert tracing.observed_layers(tracer.spans) == w.layers


def test_worker_thread_spans_hang_off_the_root(tmp_path):
    w = _tiny_trials(jobs=2)
    tracer, _ = _traced(w, w.setup(0, tmp_path), 0)
    (root,) = [s for s in tracer.spans if s["parent"] is None]
    trials = [s for s in tracer.spans if s["name"] == "evaluation.evaluate"]
    assert len(trials) == 2
    assert all(s["parent"] == root["id"] for s in trials)
    assert all(s["run"] == 1 for s in tracer.spans)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 3, "start": 3.5, "end": 4.5},
    ]
    assert tracing.self_times(spans) == {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0}


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_outputs_equal_untraced(tmp_path, jobs):
    w = _tiny_trials(jobs)
    spec = w.setup(3, tmp_path)
    untraced = w.outputs(spec, w.run(spec, 3, jobs))
    _, traced = _traced(w, spec, 3)
    assert traced == untraced
    assert w.check(traced, None) == [True, True]


def test_stream_traced_outputs_equal_untraced(tmp_path, small_stream):
    w = small_stream
    stream = w.setup(0, tmp_path)
    untraced = w.outputs(stream, w.run(stream, 0, 1))
    tracer, traced = _traced(w, stream, 0)
    assert traced == untraced and w.check(traced, None) == [True]
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["spectral.topk_lanczos_calls"] == workloads.STREAM_STEPS
    assert m["graphs.parse_records"] > 0 and m["cli.write_s"] > 0
    assert tracing.observed_layers(tracer.spans) == w.layers


def test_different_seed_gives_different_inputs(tmp_path, small_stream):
    csvs = []
    for seed in (0, 1):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        csvs.append(Path(small_stream.setup(seed, workdir).csv).read_bytes())
    assert csvs[0] != csvs[1]
    w = _tiny_trials(jobs=1)
    tracers = [_traced(w, w.setup(seed, tmp_path), seed)[0] for seed in (0, 1)]
    digests = [
        [s["counts"]["digest"] for s in t.spans if s["name"] == "spectral.topk"]
        for t in tracers
    ]
    assert digests[0] != digests[1]


def test_check_flags_mismatch_against_reference(tmp_path):
    w = _tiny_trials(jobs=1)
    spec = w.setup(0, tmp_path)
    out = w.outputs(spec, w.run(spec, 0, 1))
    assert w.check(out, out) == [True, True]
    wrong = json.loads(json.dumps(out))
    wrong["multilad"][1] = 2.0
    assert w.check(wrong, out) == [True, False]
    assert w.check(wrong, None) == [True, False]


def test_timed_repetition_records_cpu_time(tmp_path):
    w = _tiny_trials(jobs=1)
    attempts = worker.Attempts(w, w.setup(0, tmp_path), 0, None)
    wall, cpu, out = attempts.timed(1)
    assert out is not None and attempts.failed == 0
    # No process uses more CPU time than all cores over its wall time.
    assert 0.0 < cpu <= os.cpu_count() * wall + 0.01


def test_benchmark_json_matches_emitted_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {wl["name"] for wl in spec["workloads"]} <= set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    w = _tiny_trials(jobs=1)
    tracer, _ = _traced(w, w.setup(0, tmp_path), 0)
    emitted = set(tracing.layer_metrics(tracer.spans, 1))
    emitted |= {"trace.overhead_s", "evaluation.serial_wall_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"])


def test_references_cover_every_workload():
    refs = workloads.load_references()
    assert set(refs) == set(workloads.WORKLOADS)
    for name, by_seed in refs.items():
        w = workloads.WORKLOADS[name]
        for out in by_seed.values():
            if name == "stream-topk":
                assert len(out["sha256"]) == 64
            else:
                assert w.check(out, None) == [True] * w.ops


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pure-frozen",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
