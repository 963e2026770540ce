"""Run one workload in this process and print its measurements as one JSON line.

``run.py`` starts this script with the BLAS thread variables already set,
so they hold before numpy loads.  Set-up is timed from before
``import lapcpd`` to the built input; the timed loop then repeats the
workload, at least once, for as long as another repetition fits in
``--seconds``, and checks every repetition's outputs; it records each
repetition's wall and CPU time.  With ``--trace 1`` one more repetition runs under
:class:`tracing.Tracer`, and for a workload with ``jobs > 1`` one more
untraced repetition runs serially for comparison.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_lapcpd():
    """Import lapcpd from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import lapcpd

    if SRC.resolve() not in Path(lapcpd.__file__).resolve().parents:
        raise SystemExit(f"lapcpd was imported from {lapcpd.__file__}, not {SRC}")
    return lapcpd


def blas_facts():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": blas.get("name"), "blas_version": blas.get("version")}


def cpu_s():
    """User plus system CPU time of this process, all its threads, in s."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


class Attempts:
    """Runs and checks repetitions; counts attempted and failed operations."""

    def __init__(self, workload, state, seed, reference):
        self.workload, self.state, self.seed = workload, state, seed
        self.reference = reference
        self.attempted = self.failed = 0
        self.first = None

    def timed(self, jobs, tracer=None):
        """One repetition; returns (wall s, CPU s, outputs or None)."""
        w = self.workload
        cpu_start = cpu_s()
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = w.run(self.state, self.seed, jobs)
            else:
                with tracer.run(w.root_span, run_id=1):
                    raw = w.run(self.state, self.seed, jobs)
            wall = time.perf_counter() - start
            cpu = cpu_s() - cpu_start
            out = w.outputs(self.state, raw)
        except Exception:
            wall = time.perf_counter() - start
            cpu = cpu_s() - cpu_start
            traceback.print_exc(file=sys.stderr)
            out = None
        self._check(out)
        return wall, cpu, out

    def _check(self, out):
        w = self.workload
        self.attempted += w.ops
        if out is None:
            self.failed += w.ops
            return
        passed = w.check(out, self.reference)
        if self.first is None:
            self.first = out
        elif out != self.first:  # a repetition must reproduce the first one
            passed = [False] * w.ops
        self.failed += passed.count(False)


def traced_layers(attempts, untraced_median):
    import tracing

    w = attempts.workload
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_wall, _, _ = attempts.timed(w.jobs, tracer)
    layers = tracing.layer_metrics(tracer.spans, w.jobs)
    layers["trace.overhead_s"] = traced_wall - untraced_median
    if w.jobs > 1:
        layers["evaluation.serial_wall_s"] = attempts.timed(1)[0]
    else:
        layers["evaluation.serial_wall_s"] = untraced_median
    # A layer the workload runs but no span saw (work moved into another
    # process, say) is unobserved, which is not the same as zero.
    unobserved = sorted(w.layers - tracing.observed_layers(tracer.spans))
    for name in layers:
        if tracing.layer_of(name) in unobserved:
            layers[name] = None
    return tracer, layers, unobserved, traced_wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import_lapcpd()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        state = w.setup(args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference = workloads.reference_for(workloads.load_references(), w.name, args.seed)
        attempts = Attempts(w, state, args.seed, reference)
        walls, cpus = [], []
        # Repeat while one more repetition of median length fits the budget.
        while not walls or sum(walls) + statistics.median(walls) <= args.seconds:
            wall, cpu, _ = attempts.timed(w.jobs)
            walls.append(wall)
            cpus.append(cpu)
        result = {
            "setup_s": setup_s,
            "walls": walls,
            "cpus": cpus,
            "jobs": w.jobs,
            "snapshots": w.snapshots(state),
            "peak_rss_mb": peak_rss_mb(),
            "reference": reference is not None,
            **blas_facts(),
        }
        if args.trace:
            tracer, layers, unobserved, traced_wall = traced_layers(
                attempts, statistics.median(walls)
            )
            spans_path = OUT / f"{w.name}-seed{args.seed}.spans.json"
            tracer.dump(spans_path, {"workload": w.name, "seed": args.seed})
            result.update(
                layers=layers, unobserved=unobserved, traced_wall_s=traced_wall,
                spans=str(spans_path.relative_to(HERE.parent)),
            )
        result.update(attempted=attempts.attempted, failed=attempts.failed)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
