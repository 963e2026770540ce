"""Metrics, multi-trial experiment harness and diagnostic reports.

The harness generates each trial's data once and evaluates every requested
method on it, sharing the per-view spectrum computations between methods
that only differ in how they post-process them (per-view scoring, naive
aggregation, power mean aggregation).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse.csgraph

from .baselines import activity_detect, aggregate_scores
from .detector import (
    AnomalyScoreSeries,
    DetectorConfig,
    normalize_signature,
    ranked_steps,
    score_from_unit_signatures,
    signature,
)
from .generators import GenConfig, generate_experiment
from .graphs import DynamicGraph, GraphSnapshot, map_distinct
from .multiview import PowerMeanConfig, power_mean_spectrum

__all__ = [
    "METHODS",
    "TrialReport",
    "ExperimentSpec",
    "hits_at_n",
    "property_outlier_score",
    "spearman",
    "evaluate_methods",
    "run_trials",
    "graph_property_series",
    "property_correlation_report",
    "write_report_csv",
    "format_report_table",
]

# method name -> (laplacian kind or None, aggregation or None)
METHODS = {
    "lad": ("unnormalized", None),
    "nl_lad": ("normalized", None),
    "maxlad": ("unnormalized", "max"),
    "meanlad": ("unnormalized", "mean"),
    "nl_maxlad": ("normalized", "max"),
    "nl_meanlad": ("normalized", "mean"),
    "multilad": ("normalized", "power_mean"),
    "activity": (None, None),
}

ZERO_STD_CAP = 1e9


def hits_at_n(scores: AnomalyScoreSeries, truth, n):
    """Fraction of planted anomalies among the ``n`` highest-scored steps.

    Ranking is by descending final score with ties broken by the earlier
    time step, so the result is deterministic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    truth = set(int(t) for t in truth)
    if not truth:
        raise ValueError("ground truth must be non-empty")
    top = set(ranked_steps(scores)[:n].tolist())
    return len(top & truth) / len(truth)


def property_outlier_score(series, window):
    """Deviation of each value from its trailing moving window, in stds.

    For ``t >= window`` the score is ``|x_t - mean| / std`` over the
    previous ``window`` values; earlier steps score 0.  A zero-std window
    yields 0 when the deviation is also 0 and a large finite cap otherwise,
    keeping rankings well-defined.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    x = np.asarray(series, dtype=np.float64)
    out = np.zeros_like(x)
    for t in range(window, len(x)):
        w = x[t - window : t]
        mean = w.mean()
        std = w.std()
        dev = abs(x[t] - mean)
        if std == 0.0:
            out[t] = 0.0 if dev == 0.0 else ZERO_STD_CAP
        else:
            out[t] = dev / std
    return out


def _average_ranks(x):
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average of ranks i+1..j+1
        i = j + 1
    return ranks


def spearman(x, y):
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("inputs must be equal-length 1-d vectors of length >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    denom = np.sqrt((sx**2).sum() * (sy**2).sum())
    if denom == 0.0:
        raise ValueError("rank variance is zero; correlation undefined")
    return float((sx * sy).sum() / denom)


@dataclass(frozen=True)
class TrialReport:
    """Per-method summary over the trials of one experiment."""

    method: str
    experiment_id: str
    hits: tuple
    mean: float
    std: float
    n_trials: int
    seed_base: int

    @classmethod
    def from_hits(cls, method, experiment_id, hits, seed_base):
        hits = tuple(float(h) for h in hits)
        arr = np.asarray(hits)
        return cls(
            method=method,
            experiment_id=experiment_id,
            hits=hits,
            mean=float(arr.mean()),
            std=float(arr.std()),
            n_trials=len(hits),
            seed_base=seed_base,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one benchmark family configuration."""

    experiment_id: str
    schedule: object
    gen: GenConfig
    detector: DetectorConfig = DetectorConfig()
    power_mean: PowerMeanConfig = PowerMeanConfig()
    n_top: int = 7


def _raw_spectra(graph: DynamicGraph, kind, det: DetectorConfig, k):
    # (m, T, k) signatures, one solve per distinct snapshot of the grid.
    cfg = DetectorConfig(det.w_short, det.w_long, k, kind, det.tol, shift=0.0)
    m = graph.num_views
    snapshots = [g for r in range(m) for g in graph.view(r)]
    sigs = map_distinct(lambda g: signature(g, cfg), snapshots)
    return np.array(sigs).reshape(m, graph.num_steps, k)


def _series_from_spectra(spectra, w_short, w_long):
    unit = [normalize_signature(s) for s in spectra]
    return score_from_unit_signatures(unit, w_short, w_long)


def evaluate_methods(graph: DynamicGraph, truth, methods, spec: ExperimentSpec):
    """Evaluate ``methods`` on one generated dataset.

    Returns a dict mapping the method name to its hits value; single-view
    methods (lad, nl_lad, activity) map to a per-view array instead, so the
    caller can apply best-view selection across trials.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    det = spec.detector
    pm = spec.power_mean
    k = det.k if det.k is not None else int(graph.node_counts.min())
    truth = set(truth)
    kinds_needed = {METHODS[m][0] for m in methods} - {None}
    spectra = {kind: _raw_spectra(graph, kind, det, k) for kind in kinds_needed}
    series_cache: dict[str, list[AnomalyScoreSeries]] = {}

    def per_view_series(kind):
        if kind not in series_cache:
            series_cache[kind] = [
                _series_from_spectra(spectra[kind][r], det.w_short, det.w_long)
                for r in range(graph.num_views)
            ]
        return series_cache[kind]

    out = {}
    for name in methods:
        kind, agg = METHODS[name]
        if name == "activity":
            out[name] = np.array(
                [
                    hits_at_n(activity_detect(graph.view(r), det.w_short), truth, spec.n_top)
                    for r in range(graph.num_views)
                ]
            )
        elif name == "multilad":
            shifted = spectra[kind] + pm.epsilon
            aggregated = [
                power_mean_spectrum(list(shifted[:, t, :]), pm)
                for t in range(graph.num_steps)
            ]
            series = _series_from_spectra(aggregated, det.w_short, det.w_long)
            out[name] = hits_at_n(series, truth, spec.n_top)
        elif agg is None:
            out[name] = np.array(
                [hits_at_n(s, truth, spec.n_top) for s in per_view_series(kind)]
            )
        else:
            series = aggregate_scores(per_view_series(kind), agg)
            out[name] = hits_at_n(series, truth, spec.n_top)
    return out


def run_trials(spec: ExperimentSpec, methods, n_trials, base_seed, jobs=1):
    """Run ``n_trials`` seeded trials and summarize each method.

    Trial ``i`` uses seed ``base_seed + i``; all methods see the same
    generated data within a trial.  Single-view methods report the view
    with the best mean over trials (ties to the lowest view index).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")

    def one_trial(i):
        gen_i = replace(spec.gen, seed=base_seed + i)
        graph, truth = generate_experiment(spec.schedule, gen_i)
        return evaluate_methods(graph, set(truth), methods, spec)

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one_trial, range(n_trials)))
    else:
        results = [one_trial(i) for i in range(n_trials)]

    reports = []
    for name in methods:
        values = [res[name] for res in results]
        if isinstance(values[0], np.ndarray):
            per_view = np.vstack(values)  # (trials, m)
            best = int(np.argmax(per_view.mean(axis=0)))
            hits = per_view[:, best]
        else:
            hits = np.asarray(values)
        reports.append(TrialReport.from_hits(name, spec.experiment_id, hits, base_seed))
    return reports


def count_components(g: GraphSnapshot):
    return int(scipy.sparse.csgraph.connected_components(g.adjacency, directed=False)[0])


def transitivity(g: GraphSnapshot):
    """3 * triangles / connected triples on the binarized adjacency."""
    a = (g.to_dense() > 0).astype(np.float64)
    closed = float(np.trace(a @ a @ a))
    deg = a.sum(axis=1)
    triples = float((deg * (deg - 1)).sum())
    return closed / triples if triples else 0.0


def graph_property_series(view: Sequence[GraphSnapshot]):
    """Per-step structural properties used by the diagnostic report."""
    return {
        "connected_components": np.array([count_components(g) for g in view], float),
        "transitivity": np.array([transitivity(g) for g in view]),
        "n_edges": np.array([g.num_edges for g in view], float),
        "mean_degree": np.array(
            [2.0 * g.num_edges / g.n if g.n else 0.0 for g in view]
        ),
    }


def property_correlation_report(view, series: AnomalyScoreSeries, window):
    """Spearman correlation of the detector score against property outliers.

    Purely diagnostic: the values are stochastic properties of one run and
    are reported, never asserted.  Returns ``{property: rho}`` with NaN
    where the correlation is undefined.
    """
    start = max(window, series.startup_len)
    out = {}
    for name, values in graph_property_series(view).items():
        y = property_outlier_score(values, window)
        try:
            out[name] = spearman(series.z_star[start:], y[start:])
        except ValueError:
            out[name] = float("nan")
    return out


def write_report_csv(reports: Sequence[TrialReport], path_or_file):
    """Write trial reports as CSV (per-trial hits joined with ';')."""
    if hasattr(path_or_file, "write"):
        _write_reports(reports, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write_reports(reports, fh)


def _write_reports(reports, fh):
    fh.write("experiment,method,n_trials,seed_base,mean,std,hits\n")
    for r in reports:
        hits = ";".join(repr(h) for h in r.hits)
        fh.write(
            f"{r.experiment_id},{r.method},{r.n_trials},{r.seed_base},"
            f"{r.mean!r},{r.std!r},{hits}\n"
        )


def format_report_table(reports: Sequence[TrialReport]):
    """Human-readable mean +/- std table, one row per (experiment, method)."""
    width_exp = max([len("experiment")] + [len(r.experiment_id) for r in reports])
    width_m = max([len("method")] + [len(r.method) for r in reports])
    lines = [
        f"{'experiment':<{width_exp}}  {'method':<{width_m}}  hits@n (mean +/- std)   trials"
    ]
    for r in reports:
        lines.append(
            f"{r.experiment_id:<{width_exp}}  {r.method:<{width_m}}  "
            f"{r.mean:.3f} +/- {r.std:.3f}       {r.n_trials}"
        )
    return "\n".join(lines)
