"""Seeded synthetic multi-view dynamic graph generators.

Experiments are described by an :class:`AnomalySchedule`, a sequence of
generative segments (stochastic block model or preferential attachment)
with planted change points and one-step events.  Sampling is reproducible:
every (view, time) cell draws from its own counter-based generator derived
from the experiment seed, so views are independent and results do not
depend on evaluation order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import DynamicGraph, GraphSnapshot

__all__ = [
    "SbmSegment",
    "BaSegment",
    "AnomalySchedule",
    "GenConfig",
    "equal_block_sizes",
    "sbm_snapshot",
    "apply_continuity",
    "ba_snapshot",
    "flip_noise",
    "generate_experiment",
]

KINDS = ("start", "change_point", "event")


@dataclass(frozen=True)
class SbmSegment:
    """Stochastic-block-model segment: ``n_blocks`` equal-size communities
    with within/cross edge probabilities ``p_in`` / ``p_ex``."""

    n_blocks: int
    p_in: float
    p_ex: float
    length: int
    kind: str = "start"

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if not 0.0 <= self.p_ex <= self.p_in <= 1.0:
            raise ValueError(
                f"need 0 <= p_ex <= p_in <= 1, got p_in={self.p_in}, p_ex={self.p_ex}"
            )
        _check_segment_common(self)


@dataclass(frozen=True)
class BaSegment:
    """Preferential-attachment segment: each new node brings ``m_attach`` edges."""

    m_attach: int
    length: int
    kind: str = "start"

    def __post_init__(self):
        if self.m_attach < 1:
            raise ValueError("m_attach must be >= 1")
        _check_segment_common(self)


def _check_segment_common(seg):
    if seg.length < 1:
        raise ValueError("segment length must be >= 1")
    if seg.kind not in KINDS:
        raise ValueError(f"unknown segment kind {seg.kind!r}")
    if seg.kind == "event" and seg.length != 1:
        raise ValueError("event segments must have length 1")


class AnomalySchedule:
    """Ordered generative segments with planted ground truth.

    The first segment must be the ``start`` baseline.  Ground truth marks
    the first step of every later ``change_point`` or ``event`` segment;
    continuation segments after an event carry kind ``start`` (they restore
    the pre-event parameters and are not anomalous).
    """

    def __init__(self, segments: Sequence):
        segments = tuple(segments)
        if not segments:
            raise ValueError("schedule needs at least one segment")
        if segments[0].kind != "start":
            raise ValueError("first segment must have kind 'start'")
        starts = np.cumsum([0] + [s.length for s in segments[:-1]])
        self.segments = segments
        self._starts = starts
        self._boundaries = frozenset(int(t) for t in starts)
        self.total = int(sum(s.length for s in segments))
        self.ground_truth = {
            int(t0): seg.kind
            for t0, seg in zip(starts, segments)
            if seg.kind in ("change_point", "event")
        }
        if 0 in self.ground_truth:
            raise ValueError("ground truth may not contain t=0")

    @classmethod
    def from_rows(cls, rows, total):
        """Build from table rows ``(time, kind, segment_params)``.

        ``segment_params`` is an :class:`SbmSegment` or :class:`BaSegment`
        carrying only model parameters (length/kind are derived).  Event
        rows get a one-step segment followed by a continuation with the
        parameters active before the event.
        """
        rows = sorted(rows, key=lambda r: r[0])
        if not rows or rows[0][0] != 0 or rows[0][1] != "start":
            raise ValueError("rows must begin with a 'start' row at time 0")
        times = [r[0] for r in rows] + [total]
        if times[-2] >= total:
            raise ValueError("row times must lie inside [0, total)")
        segments = []
        baseline = None
        for (t0, kind, params), t1 in zip(rows, times[1:]):
            gap = t1 - t0
            if gap < 1:
                raise ValueError("duplicate row times")
            if kind == "event":
                if baseline is None:
                    raise ValueError("event before any baseline segment")
                segments.append(_with(params, length=1, kind="event"))
                if gap > 1:
                    segments.append(_with(baseline, length=gap - 1, kind="start"))
            else:
                segments.append(_with(params, length=gap, kind=kind))
                baseline = params
        return cls(segments)

    def segment_at(self, t):
        if not 0 <= t < self.total:
            raise ValueError(f"t={t} outside schedule of length {self.total}")
        idx = int(np.searchsorted(self._starts, t, side="right")) - 1
        return self.segments[idx]

    def is_change_point(self, t):
        return self.ground_truth.get(t) == "change_point"

    def is_segment_boundary(self, t):
        """True when a new generative segment begins at ``t`` (change
        points, events and the post-event reverts)."""
        return t in self._boundaries

    def truth_steps(self):
        return set(self.ground_truth)


def _with(seg, length, kind):
    if isinstance(seg, SbmSegment):
        return SbmSegment(seg.n_blocks, seg.p_in, seg.p_ex, length, kind)
    return BaSegment(seg.m_attach, length, kind)


@dataclass(frozen=True)
class GenConfig:
    """Experiment-wide generation parameters.

    ``continuity`` is the per-pair probability of persisting the previous
    snapshot's edge state instead of resampling; the first step of every
    segment always resamples fully.  ``noise`` flips each pair
    independently after continuity is applied.

    ``relabel_within_segments`` turns non-boundary steps into uniformly
    relabeled copies of the segment's first draw (within-block
    permutations for block models, global ones otherwise) instead of fresh
    draws.  A within-block relabeling of a block-model sample has the same
    distribution as a fresh sample, so this is the permutation-invariance
    stress variant of full resampling; it requires ``continuity == 0``.
    """

    n_nodes: int = 500
    n_views: int = 1
    continuity: float = 0.0
    noise: float = 0.0
    seed: int = 0
    relabel_within_segments: bool = False

    def __post_init__(self):
        if self.n_nodes < 1 or self.n_views < 1:
            raise ValueError("n_nodes and n_views must be >= 1")
        for name in ("continuity", "noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.relabel_within_segments and self.continuity != 0.0:
            raise ValueError("relabeling replaces resampling; continuity must be 0")


def equal_block_sizes(n, n_blocks):
    """Split ``n`` nodes into ``n_blocks`` near-equal blocks; any remainder
    goes one node each to the first blocks."""
    if n_blocks < 1 or n_blocks > n:
        raise ValueError(f"need 1 <= n_blocks <= n, got {n_blocks} for n={n}")
    base, rem = divmod(n, n_blocks)
    return [base + 1 if b < rem else base for b in range(n_blocks)]


def _pair_mask(n):
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def sbm_snapshot(sizes, p_in, p_ex, rng) -> GraphSnapshot:
    """Sample one unit-weight SBM graph.

    Each within-block pair is an edge independently with ``p_in``, each
    cross-block pair with ``p_ex``; no self-loops.
    """
    sizes = list(sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive")
    for name, p in (("p_in", p_in), ("p_ex", p_ex)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be a probability, got {p}")
    n = int(sum(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    probs = np.where(labels[:, None] == labels[None, :], p_in, p_ex)
    upper = (rng.random((n, n)) < probs) & _pair_mask(n)
    adj = (upper | upper.T).astype(np.float64)
    return GraphSnapshot.from_dense(adj)


def apply_continuity(prev: GraphSnapshot, model_sample: GraphSnapshot, rho, rng):
    """Blend the previous snapshot into a fresh model sample.

    Each unordered pair keeps the previous snapshot's state with
    probability ``rho`` and takes the sample's state otherwise, so
    ``rho=1`` freezes the graph (``prev`` itself is returned) and ``rho=0``
    resamples it fully.  The same ``n x n`` uniforms are drawn for every
    ``rho``, so later draws from ``rng`` do not depend on it.
    """
    if prev.n != model_sample.n:
        raise ValueError("snapshots must share the node count")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"continuity rate must be in [0, 1], got {rho}")
    n = prev.n
    draws = rng.random((n, n))
    if rho == 1.0:
        return prev
    keep = (draws < rho) & _pair_mask(n)
    keep = keep | keep.T
    out = np.where(keep, prev.to_dense(), model_sample.to_dense())
    return GraphSnapshot.from_dense(out)


def flip_noise(g: GraphSnapshot, p_n, rng):
    """Flip each unordered pair's edge state independently with ``p_n``.

    Defined for unit-weight graphs only; symmetry is preserved and no
    self-loops are introduced.
    """
    if not 0.0 <= p_n <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {p_n}")
    if not g.is_unit_weighted():
        raise ValueError("flip noise is defined for unit-weight graphs")
    n = g.n
    flips = (rng.random((n, n)) < p_n) & _pair_mask(n)
    flips = flips | flips.T
    out = (g.to_dense() > 0) ^ flips
    np.fill_diagonal(out, False)
    return GraphSnapshot.from_dense(out.astype(np.float64))


def _distinct_degree_sample(pool, m, rng):
    # Uniform draws (with replacement) from the degree-repeated pool until
    # m distinct targets are found: preferential attachment.
    chosen = []
    seen = set()
    while len(chosen) < m:
        batch = rng.integers(0, len(pool), size=max(2 * (m - len(chosen)), 4))
        for idx in batch:
            v = pool[idx]
            if v not in seen:
                seen.add(v)
                chosen.append(v)
                if len(chosen) == m:
                    break
    return chosen


def ba_snapshot(n, m_attach, rng) -> GraphSnapshot:
    """Sample one preferential-attachment graph on ``n`` nodes.

    Growth starts from ``m_attach`` isolated seed nodes; the first arrival
    links to all of them and every later arrival attaches ``m_attach``
    distinct edges with probability proportional to current degree.  The
    edge count is exactly ``m_attach * (n - m_attach)``.
    """
    if not 1 <= m_attach < n:
        raise ValueError(f"need 1 <= m_attach < n, got m={m_attach}, n={n}")
    rows, cols = [], []
    pool: list[int] = []
    targets = list(range(m_attach))
    for source in range(m_attach, n):
        rows.extend([source] * m_attach)
        cols.extend(targets)
        pool.extend(targets)
        pool.extend([source] * m_attach)
        if source + 1 < n:
            targets = _distinct_degree_sample(pool, m_attach, rng)
    edges = [(i, j, 1.0) for i, j in zip(rows, cols)]
    return GraphSnapshot.from_edges(n, edges)


def _child_rng(seed, view, t):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, view, t)))
    )


def relabel_snapshot(g: GraphSnapshot, seg, rng) -> GraphSnapshot:
    """Uniformly relabel nodes, within blocks for block-model segments."""
    if isinstance(seg, SbmSegment):
        sizes = equal_block_sizes(g.n, seg.n_blocks)
        perm = np.empty(g.n, dtype=np.intp)
        offset = 0
        for size in sizes:
            perm[offset : offset + size] = offset + rng.permutation(size)
            offset += size
    else:
        perm = rng.permutation(g.n)
    dense = g.to_dense()[np.ix_(perm, perm)]
    return GraphSnapshot.from_dense(dense)


def _sample_segment(seg, n, rng):
    if isinstance(seg, SbmSegment):
        return sbm_snapshot(equal_block_sizes(n, seg.n_blocks), seg.p_in, seg.p_ex, rng)
    if isinstance(seg, BaSegment):
        return ba_snapshot(n, seg.m_attach, rng)
    raise TypeError(f"unknown segment type {type(seg).__name__}")


def generate_experiment(schedule: AnomalySchedule, cfg: GenConfig):
    """Generate a multi-view dynamic graph following ``schedule``.

    Per view, each step samples the active segment's model; continuity is
    then applied against the previous emitted snapshot, and flip noise
    last.  Continuity models persistence within one generative regime, so
    the first step of every segment (change points, events and the reverts
    right after events) resamples fully regardless of the continuity rate;
    anything else would make one-step events invisible under high
    persistence.

    Returns ``(DynamicGraph, ground_truth)`` where ground truth maps the
    anomalous time steps to their kind.
    """
    grid = [[None] * cfg.n_views for _ in range(schedule.total)]
    for r in range(cfg.n_views):
        prev = None
        segment_draw = None
        for t in range(schedule.total):
            seg = schedule.segment_at(t)
            rng = _child_rng(cfg.seed, r, t)
            fresh = t == 0 or schedule.is_segment_boundary(t)
            if cfg.relabel_within_segments:
                if fresh:
                    snap = segment_draw = _sample_segment(seg, cfg.n_nodes, rng)
                else:
                    snap = relabel_snapshot(segment_draw, seg, rng)
            else:
                snap = _sample_segment(seg, cfg.n_nodes, rng)
                if not fresh and cfg.continuity > 0.0:
                    snap = apply_continuity(prev, snap, cfg.continuity, rng)
            if cfg.noise > 0.0:
                snap = flip_noise(snap, cfg.noise, rng)
            grid[t][r] = snap
            prev = snap
    return DynamicGraph(grid), dict(schedule.ground_truth)
