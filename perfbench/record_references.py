"""Record the reference outputs that the benchmark checks each run against.

    python3 perfbench/record_references.py --seeds 0-15

For every workload and seed this runs the workload once, through the
benchmark's own :class:`worker.Attempts` and with the BLAS threads pinned
by ``run.py``, and stores, in ``references.json``,
the hits per method and trial (trial workloads) or the sha256 of the score
CSV (``stream-topk``).  Re-record only in a change that means to alter
lapcpd's outputs, and say why in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run  # noqa: F401  (importing it pins run.THREAD_VARS before numpy loads)
import worker


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    worker.import_lapcpd()
    import workloads

    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    worker.OUT.mkdir(exist_ok=True)
    for name, w in workloads.WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=worker.OUT) as workdir:
                attempts = worker.Attempts(w, w.setup(seed, workdir), seed, None)
                _, _, out = attempts.timed(w.jobs)
                if attempts.failed:
                    raise SystemExit(f"{name} seed {seed}: outputs fail the invariants")
                refs.setdefault(name, {})[str(seed)] = w.reference_of(out)
            print(f"{name} seed {seed}: {refs[name][str(seed)]}", flush=True)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
