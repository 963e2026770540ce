"""Comparison methods: activity-vector detection and naive score aggregation.

The activity-vector detector embeds each snapshot as the dominant
eigenvector of its adjacency matrix and scores deviations with a single
short context window.  The naive multi-view baselines run the single-view
detector per view and combine the resulting score series with a
per-time-step max or mean.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg

from .detector import AnomalyScoreSeries, normal_behavior
from .graphs import GraphSnapshot, map_distinct
from .spectral import DENSE_ORACLE_LIMIT, DenseLimitError, fix_sign

__all__ = [
    "AGGREGATION_MODES",
    "activity_vector",
    "activity_detect",
    "aggregate_scores",
]

AGGREGATION_MODES = ("max", "mean")


def activity_vector(g: GraphSnapshot):
    """Dominant eigenvector of the weighted adjacency, L2-normalized.

    The sign is fixed to a non-negative entry sum; by Perron-Frobenius the
    vector is entrywise non-negative on the dominant connected component
    and zero elsewhere.  An empty graph has no meaningful direction and
    raises.
    """
    if g.num_edges == 0:
        raise ValueError("activity vector of an empty graph is undefined")
    if g.n > DENSE_ORACLE_LIMIT:
        raise DenseLimitError(f"snapshot too large for dense path ({g.n} nodes)")
    dense = g.to_dense()
    vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[g.n - 1, g.n - 1])
    vec = vecs[:, 0]
    return fix_sign(vec / np.linalg.norm(vec))


def activity_detect(view: Sequence[GraphSnapshot], w_short) -> AnomalyScoreSeries:
    """Score a snapshot sequence with activity vectors and one short window.

    The context/normal-behavior/score machinery matches the spectrum-based
    detector; only the embedding and the single window differ.  Startup is
    the first ``w_short`` steps.  Each distinct snapshot is embedded once.
    """
    T = len(view)
    if T <= w_short:
        raise ValueError("sequence must be longer than the window")
    vectors = map_distinct(activity_vector, view)
    z = np.zeros(T)
    z_star = np.zeros(T)
    for t in range(w_short, T):
        C = np.column_stack(vectors[t - w_short : t])
        z[t] = 1.0 - float(vectors[t] @ normal_behavior(C))
        prev = z[t - 1] if t > w_short else 0.0
        z_star[t] = max(z[t] - prev, 0.0)
    return AnomalyScoreSeries(z, z.copy(), z_star, startup_len=w_short)


def aggregate_scores(per_view: Sequence[AnomalyScoreSeries], mode) -> AnomalyScoreSeries:
    """Combine per-view score series with a per-time-step max or mean.

    All series must share the length and startup period; a single view
    passes through unchanged.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
    if not per_view:
        raise ValueError("need at least one view series")
    T = len(per_view[0])
    startup = per_view[0].startup_len
    if any(len(s) != T for s in per_view):
        raise ValueError("per-view series must share one length")
    if any(s.startup_len != startup for s in per_view):
        raise ValueError("per-view series must share the startup period")
    if len(per_view) == 1:
        s = per_view[0]
        return AnomalyScoreSeries(
            s.z_short.copy(), s.z_long.copy(), s.z_star.copy(), s.startup_len
        )
    reduce = np.max if mode == "max" else np.mean
    z_short = reduce(np.vstack([s.z_short for s in per_view]), axis=0)
    z_long = reduce(np.vstack([s.z_long for s in per_view]), axis=0)
    z_star = reduce(np.vstack([s.z_star for s in per_view]), axis=0)
    return AnomalyScoreSeries(z_short, z_long, z_star, startup_len=startup)
