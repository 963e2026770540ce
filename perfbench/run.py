"""Benchmark of lapcpd: four workloads, end-to-end metrics and a traced layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sbm3-table --seed 1 --seconds 20 --trace 0

prints the end-to-end metrics (``--trace 1``: the per-layer metrics) and,
as its last line, one JSON object ``{correct, attempted, failed, metrics}``.
Without ``--workload`` it runs every workload, untraced and traced, and
writes the whole record to ``perfbench/out/summary.json``.

This launcher never imports numpy.  It pins the BLAS thread variables in
its own environment, which the worker processes inherit, so they hold
before numpy loads there.  Set-up is timed in fresh processes (one warm-up,
then ``SETUP_PROBES``) plus the measuring worker, and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import tracing  # noqa: E402  (stdlib only; it imports lapcpd lazily)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sbm3-table", "pure-frozen", "ba-jobs2", "stream-topk")
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150  # a run must end within 180 s, set-up probes included
# A run is flagged, not refused, for competing work when its 1-min load
# average at the start exceeds this share of the cores (this benchmark's
# own previous runs account for about one core), or when a serial
# workload's CPU time falls below this share of its wall time (another
# process took turns on its core).
LOAD_FLAG_SHARE = 0.75
CPU_FLAG_RATIO = 0.9


class BenchError(RuntimeError):
    pass


def _worker(name, seed, seconds=0.0, trace=0, setup_only=False):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": sys.version.split()[0],
    }


def run_workload(name, seed, seconds, trace):
    """Set-up probes plus one measuring worker; returns the full record."""
    if not (ROOT / "src" / "lapcpd" / "__init__.py").is_file():
        raise BenchError(f"no lapcpd sources under {ROOT / 'src'}")
    load_before = os.getloadavg()
    # The warm-up probe may compile bytecode; it is not counted.
    probes = [_worker(name, seed, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES + 1)]
    res = _worker(name, seed, seconds, trace)
    load_after = os.getloadavg()
    cpu_wall = statistics.median(c / w for c, w in zip(res["cpus"], res["walls"]))
    machine = machine_facts()
    machine.update(
        blas=res["blas"], blas_version=res["blas_version"],
        loadavg_before=load_before, loadavg_after=load_after, cpu_wall_ratio=cpu_wall,
        competing_load=load_before[0] > LOAD_FLAG_SHARE * machine["nproc"]
        or (res["jobs"] == 1 and cpu_wall < CPU_FLAG_RATIO),
    )
    wall = statistics.median(res["walls"])
    setup = probes[1:] + [res["setup_s"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine,
        "walls_s": res["walls"], "cpus_s": res["cpus"], "setup_samples_s": setup,
        "reference_checked": res["reference"],
        "attempted": res["attempted"], "failed": res["failed"],
        "end_to_end": {
            "wall_s": (wall, "s"),
            "snapshots_per_s": (res["snapshots"] / wall, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "failed_ratio": (res["failed"] / res["attempted"], "1"),
        },
    }
    if trace:
        record["per_layer"] = {
            metric: (value, tracing.unit_of(metric))
            for metric, value in res["layers"].items()
        }
        record.update(
            unobserved_layers=res["unobserved"],
            traced_wall_s=res["traced_wall_s"], spans=res["spans"],
        )
    return record


def _print_metrics(record, section):
    for metric, (value, unit) in record[section].items():
        shown = "unobserved" if value is None else f"{value:.6g}"
        print(f"{record['workload']:<12} {metric:<28} {shown:>14} {unit}")


def result_line(record, metric_names):
    """The result line: end-to-end metrics untraced, per-layer metrics traced."""
    section = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": section[metric][0], "unit": section[metric][1]}
            for metric in metric_names
        },
    }


def _benchmark_metric_names():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"]],
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        end_to_end, per_layer = _benchmark_metric_names()
        if args.workload is None:
            records = [
                run_workload(name, args.seed, args.seconds, trace)
                for name in WORKLOADS for trace in (0, 1)
            ]
        else:
            records = [run_workload(args.workload, args.seed, args.seconds, args.trace)]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for record in records:
        m = record["machine"]
        print(f"{record['workload']:<12} machine nproc={m['nproc']} "
              f"{m['blas']} {m['blas_version']} threads={m['threads']} "
              f"load={m['loadavg_before'][0]:.2f}->{m['loadavg_after'][0]:.2f} "
              f"cpu/wall={m['cpu_wall_ratio']:.3f}"
              + (" COMPETING-LOAD" if m["competing_load"] else ""))
        _print_metrics(record, "end_to_end")
        if record["trace"]:
            _print_metrics(record, "per_layer")
    if args.workload is None:
        path = OUT / "summary.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
        print(f"wrote {path.relative_to(ROOT)}")
        return 0 if all(r["failed"] == 0 for r in records) else 1
    record = records[0]
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result_line(record, per_layer if record["trace"] else end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
