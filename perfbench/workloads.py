"""The benchmark's four workloads, their inputs and their output checks.

Every workload runs 500-node graphs with windows w_short=5, w_long=10 and
is driven through a public entry point: ``lapcpd.evaluation.run_trials``
or ``lapcpd.cli.main(["detect", ...])``.  The seed only chooses inputs:
trial seeds start at it, and the stream workload generates its edge
stream from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from lapcpd import cli, evaluation, schedules
from lapcpd.benchmarks import MULTI_VIEW_METHODS
from lapcpd.detector import DetectorConfig
from lapcpd.evaluation import ExperimentSpec
from lapcpd.generators import AnomalySchedule, GenConfig, SbmSegment, generate_experiment
from lapcpd.graphs import write_edge_stream

N_NODES = 500
W_SHORT, W_LONG = 5, 10
DETECTOR = DetectorConfig(w_short=W_SHORT, w_long=W_LONG, k=None)
REFERENCES = Path(__file__).resolve().parent / "references.json"

# One view, 20 steps, a block-count change point at t=16: the first rung of
# the multi-view SBM ladder.  At ~0.36 s per Lanczos snapshot (one 3.3 GHz
# x86-64 core) one detect call takes 7 to 8 s.
STREAM_STEPS = 20
STREAM_CHANGE = 16
STREAM_K = 50
P_IN, P_EX = 0.024, 6 / N_NODES


@dataclass(frozen=True)
class TrialWorkload:
    """``trials`` seeded trials of one preset through ``run_trials``."""

    name: str
    preset: Callable
    methods: tuple
    trials: int
    jobs: int
    layers: frozenset
    root_span: str = "evaluation.run_trials"

    @property
    def ops(self):
        return self.trials

    def setup(self, seed, workdir):
        schedule, gen = self.preset()
        return ExperimentSpec(self.name, schedule, gen, DETECTOR)

    def snapshots(self, spec):
        return self.trials * spec.schedule.total * spec.gen.n_views

    def run(self, spec, seed, jobs):
        return evaluation.run_trials(spec, list(self.methods), self.trials, seed, jobs=jobs)

    def outputs(self, spec, reports):
        return {r.method: list(r.hits) for r in reports}

    def reference_of(self, out):
        return out

    def check(self, out, reference):
        """One pass flag per trial."""
        if set(out) != set(self.methods):
            return [False] * self.trials
        if reference is not None:
            return [
                all(out[m][i] == reference[m][i] for m in self.methods)
                for i in range(self.trials)
            ]
        return [
            all(math.isfinite(out[m][i]) and 0.0 <= out[m][i] <= 1.0 for m in self.methods)
            for i in range(self.trials)
        ]


@dataclass(frozen=True)
class StreamInput:
    csv: str
    scores: str


@dataclass(frozen=True)
class StreamWorkload:
    """``lapcpd detect --method multilad --k 50`` on a generated edge stream."""

    name: str
    layers: frozenset
    jobs: int = 1
    ops: int = 1
    root_span: str = "cli.main"

    def setup(self, seed, workdir):
        rows = [
            (0, "start", SbmSegment(2, P_IN, P_EX, 1)),
            (STREAM_CHANGE, "change_point", SbmSegment(4, P_IN, P_EX, 1)),
        ]
        schedule = AnomalySchedule.from_rows(rows, STREAM_STEPS)
        graph, _ = generate_experiment(
            schedule, GenConfig(n_nodes=N_NODES, n_views=1, seed=seed)
        )
        stream = StreamInput(
            os.path.join(workdir, "stream.csv"), os.path.join(workdir, "scores.csv")
        )
        write_edge_stream(graph, stream.csv)
        return stream

    def snapshots(self, stream):
        return STREAM_STEPS

    def run(self, stream, seed, jobs):
        argv = [
            "detect", stream.csv, "--method", "multilad", "--k", str(STREAM_K),
            "--ws", str(W_SHORT), "--wl", str(W_LONG), "--seed", str(seed),
            "--out", stream.scores,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outputs(self, stream, exit_code):
        out = {"exit_code": exit_code}
        if exit_code == 0:
            with open(stream.scores, "rb") as fh:
                data = fh.read()
            out["sha256"] = hashlib.sha256(data).hexdigest()
            out["rows"] = _score_rows(data.decode())
        return out

    def reference_of(self, out):
        return {"sha256": out["sha256"]}

    def check(self, out, reference):
        if out["exit_code"] != 0:
            return [False]
        if reference is not None:
            return [out["sha256"] == reference["sha256"]]
        rows = out["rows"]
        return [
            len(rows) == STREAM_STEPS
            and all(math.isfinite(v) for row in rows for v in row)
            and all(row[2] >= 0.0 for row in rows)
        ]


def _score_rows(text):
    """``(z_short, z_long, z_star)`` per line of a score CSV."""
    lines = text.splitlines()[1:]
    return [tuple(float(v) for v in line.split(",")[1:]) for line in lines]


_TRIAL_LAYERS = {"generators", "graphs", "spectral", "detector", "evaluation"}

WORKLOADS = {
    w.name: w
    for w in (
        TrialWorkload(
            name="sbm3-table",
            preset=lambda: schedules.multiview_sbm_change_points(p_ex=6 / N_NODES, n_views=3),
            methods=tuple(MULTI_VIEW_METHODS),
            trials=1,
            jobs=1,
            layers=frozenset(_TRIAL_LAYERS | {"multiview", "baselines"}),
        ),
        TrialWorkload(
            name="pure-frozen",
            preset=schedules.pure_setting,
            methods=("lad", "activity"),
            trials=1,
            jobs=1,
            layers=frozenset(_TRIAL_LAYERS | {"baselines"}),
        ),
        TrialWorkload(
            name="ba-jobs2",
            preset=lambda: schedules.multiview_ba_change_points(n_views=6),
            methods=("multilad",),
            trials=2,
            jobs=2,
            layers=frozenset(_TRIAL_LAYERS | {"multiview"}),
        ),
        StreamWorkload(
            name="stream-topk",
            layers=frozenset({"cli", "graphs", "spectral", "detector", "multiview"}),
        ),
    )
}


def load_references(path=REFERENCES):
    """``{workload: {seed: outputs}}`` as written by ``record_references.py``."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(references, name, seed):
    return references.get(name, {}).get(str(seed))
