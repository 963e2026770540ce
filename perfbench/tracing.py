"""Span tracing of lapcpd's layers from outside the package.

The tracer replaces each traced function in the namespace of the module
that *calls* it (``lapcpd.detector.top_k_singular_values`` rather than
``lapcpd.spectral.top_k_singular_values``), because the callers bound the
name at import time.  ``src/`` is never edited: :meth:`Tracer.installed`
restores every original attribute on exit, also when the run raises.

A span is a dict ``{id, parent, run, name, start, end, counts}``.  Spans
stay in memory until :meth:`Tracer.dump` writes them once.  A span opened
on a thread with no open span (a ``run_trials`` worker thread) takes the
current run's root span as its parent.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "generators", "graphs", "spectral", "detector",
    "multiview", "baselines", "evaluation", "cli",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _topk_counts(args, kwargs, result):
    from lapcpd import spectral

    M, k = args[0], _arg(args, kwargs, 1, "k")
    n = M.shape[0]
    method = _arg(args, kwargs, 4, "method", "auto")
    if method == "auto":
        # Inferred from the documented "auto" rule, not observed.
        method = "dense" if (n <= spectral.SMALL_DENSE_DIM or k > n // 4) else "lanczos"
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((M.shape, k)).encode())
    if hasattr(M, "indptr"):
        csr = M.tocsr()
        for part in (csr.indptr, csr.indices, csr.data):
            digest.update(part.tobytes())
    else:
        digest.update(M.tobytes())
    return {
        "dense": int(method == "dense"),
        "lanczos": int(method == "lanczos"),
        # Computed, not measured: a symmetric tridiagonal reduction costs ~4/3 n^3.
        "dense_flops": 4.0 / 3.0 * n**3 if method == "dense" else 0.0,
        "digest": digest.hexdigest(),
    }


def _pairs(n):
    return n * (n - 1) // 2


def _sbm_counts(args, kwargs, result):
    return {"pairs": _pairs(int(sum(args[0])))}


def _ba_counts(args, kwargs, result):
    n, m = args[0], args[1]
    return {"pairs": m * (n - m)}


def _blend_counts(args, kwargs, result):
    return {"pairs": _pairs(args[0].n)}


def _parse_counts(args, kwargs, result):
    # Streams written by write_edge_stream hold one record per edge.
    return {"records": sum(g.num_edges for row in result.snapshots for g in row)}


def _fold_counts(args, kwargs, result):
    w_long = _arg(args, kwargs, 2, "w_long")
    return {"steps": len(args[0]) - w_long}


# (module whose namespace the caller reads, attribute, span name, counter)
WRAP_POINTS = (
    ("lapcpd.evaluation", "generate_experiment", "generators.experiment", None),
    ("lapcpd.generators", "sbm_snapshot", "generators.sample", _sbm_counts),
    ("lapcpd.generators", "ba_snapshot", "generators.sample", _ba_counts),
    ("lapcpd.generators", "apply_continuity", "generators.blend", _blend_counts),
    ("lapcpd.generators", "flip_noise", "generators.blend", _blend_counts),
    ("lapcpd.cli", "parse_edge_stream", "graphs.parse", _parse_counts),
    ("lapcpd.detector", "normalized_laplacian", "graphs.laplacian", None),
    ("lapcpd.detector", "unnormalized_laplacian", "graphs.laplacian", None),
    ("lapcpd.detector", "top_k_singular_values", "spectral.topk", _topk_counts),
    ("lapcpd.detector", "dominant_left_singular_vector", "spectral.svd", None),
    ("lapcpd.evaluation", "signature", "detector.signature", None),
    ("lapcpd.multiview", "signature", "detector.signature", None),
    ("lapcpd.evaluation", "score_from_unit_signatures", "detector.fold", _fold_counts),
    ("lapcpd.multiview", "score_from_unit_signatures", "detector.fold", _fold_counts),
    ("lapcpd.evaluation", "power_mean_spectrum", "multiview.power_mean", None),
    ("lapcpd.multiview", "power_mean_spectrum", "multiview.power_mean", None),
    ("lapcpd.cli", "multilad_detect", "multiview.detect", None),
    ("lapcpd.evaluation", "activity_detect", "baselines.activity", None),
    ("lapcpd.baselines", "activity_vector", "baselines.activity_vector", None),
    ("lapcpd.evaluation", "aggregate_scores", "baselines.aggregate", None),
    ("lapcpd.evaluation", "evaluate_methods", "evaluation.evaluate", None),
    ("lapcpd.evaluation", "hits_at_n", "evaluation.hits", None),
    ("lapcpd.cli", "cmd_detect", "cli.detect", None),
    ("lapcpd.cli", "write_scores_csv", "cli.write", None),
)


class Tracer:
    """Collects spans around lapcpd's layer boundaries."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._run = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        record = {
            "id": span_id, "parent": parent, "run": self._run, "name": name,
            "start": 0.0, "end": 0.0, "counts": {},
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def run(self, name, run_id):
        """Root span of one timed operation; worker-thread spans hang off it."""
        self._run = run_id
        with self.span(name) as root:
            self._root = root["id"]
            try:
                yield root
            finally:
                self._root = None

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
            # Counted after the span closes so hashing is not billed to the layer.
            if counter is not None:
                record["counts"] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point in :data:`WRAP_POINTS`; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in WRAP_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def layer_metrics(spans, jobs):
    """Per-layer metrics of one traced operation (a single root span).

    Times are in seconds, ``*_ms_per_call`` in milliseconds; counts are
    whole numbers.  ``evaluation.parallel_busy`` is the summed time of the
    spans directly under the root (one generate plus one evaluate per trial)
    over ``jobs`` times the root's duration.
    """
    total, calls, counts = defaultdict(float), Counter(), Counter()
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        for key, value in s["counts"].items():
            if key != "digest":
                counts[s["name"], key] += value
    root = next(s for s in spans if s["parent"] is None)
    busy = sum(
        s["end"] - s["start"] for s in spans
        if s["parent"] == root["id"]
        and s["name"] in ("generators.experiment", "evaluation.evaluate")
    )
    topk_calls = calls["spectral.topk"]
    digests = {s["counts"]["digest"] for s in spans if s["name"] == "spectral.topk"}
    m = {
        "spectral.topk_s": total["spectral.topk"],
        "spectral.topk_calls": topk_calls,
        "spectral.topk_ms_per_call": (
            1e3 * total["spectral.topk"] / topk_calls if topk_calls else 0.0
        ),
        "spectral.topk_dense_calls": counts["spectral.topk", "dense"],
        "spectral.topk_lanczos_calls": counts["spectral.topk", "lanczos"],
        "spectral.dense_flops": counts["spectral.topk", "dense_flops"],
        "spectral.distinct_ratio": len(digests) / topk_calls if topk_calls else 0.0,
        "spectral.svd_s": total["spectral.svd"],
        "spectral.svd_calls": calls["spectral.svd"],
        "graphs.laplacian_s": total["graphs.laplacian"],
        "graphs.laplacian_calls": calls["graphs.laplacian"],
        "graphs.parse_s": total["graphs.parse"],
        "graphs.parse_records": counts["graphs.parse", "records"],
        "generators.experiment_s": total["generators.experiment"],
        "generators.sample_s": total["generators.sample"],
        "generators.sample_calls": calls["generators.sample"],
        "generators.blend_s": total["generators.blend"],
        "generators.pairs_drawn": (
            counts["generators.sample", "pairs"]
            + counts["generators.blend", "pairs"]
        ),
        "detector.signature_s": total["detector.signature"],
        "detector.fold_s": total["detector.fold"],
        "detector.fold_steps": counts["detector.fold", "steps"],
        "multiview.power_mean_s": total["multiview.power_mean"],
        "baselines.activity_s": total["baselines.activity"],
        "baselines.activity_calls": calls["baselines.activity_vector"],
        "evaluation.evaluate_s": total["evaluation.evaluate"],
        "evaluation.hits_s": total["evaluation.hits"],
        "evaluation.parallel_busy": busy / (jobs * (root["end"] - root["start"])),
        "cli.detect_s": total["cli.detect"],
        "cli.write_s": total["cli.write"],
    }
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            (own[s["id"]] for s in spans if layer_of(s["name"]) == layer), 0.0
        )
    return m


def unit_of(metric):
    if metric.endswith("_ms_per_call"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_flops"):
        return "flop"
    if metric.endswith(("_ratio", "_busy")):
        return "1"
    return "count"


def observed_layers(spans):
    return {layer_of(s["name"]) for s in spans}
