"""Single-view change point scoring from Laplacian spectrum signatures.

Each snapshot is summarized by the top-k singular values of its Laplacian.
The normalized signature is compared against a "normal behavior" vector,
the dominant left singular vector of a context matrix holding the last
``l`` signatures, for a short and a long window.  The per-window score is
one minus the cosine similarity; the final score is the positive jump of
the per-window score, maximized over the two windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import (
    GraphSnapshot,
    map_distinct,
    normalized_laplacian,
    unnormalized_laplacian,
)
from .spectral import dominant_left_singular_vector, top_k_singular_values

__all__ = [
    "DetectorConfig",
    "AnomalyScoreSeries",
    "signature",
    "context_matrix",
    "normal_behavior",
    "z_score",
    "score_from_unit_signatures",
    "lad_detect",
    "ranked_steps",
    "write_scores_csv",
    "read_scores_csv",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Detector parameters.

    ``k=None`` means the full spectrum (resolved against the largest
    snapshot of the sequence).  ``shift`` is added to every singular value
    before normalization; it is zero for plain detection and is only set
    when mirroring the multi-view pipeline on a single view.
    """

    w_short: int = 5
    w_long: int = 10
    k: int | None = None
    laplacian: str = "unnormalized"
    tol: float = 1e-8
    shift: float = 0.0

    def __post_init__(self):
        if not 1 <= self.w_short <= self.w_long:
            raise ValueError(
                f"need 1 <= w_short <= w_long, got {self.w_short}, {self.w_long}"
            )
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.laplacian not in ("unnormalized", "normalized"):
            raise ValueError(f"unknown laplacian kind {self.laplacian!r}")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")


@dataclass
class AnomalyScoreSeries:
    """Per-time-step scores; entries before ``startup_len`` are zero."""

    z_short: np.ndarray
    z_long: np.ndarray
    z_star: np.ndarray
    startup_len: int

    def __post_init__(self):
        self.z_short = np.asarray(self.z_short, dtype=np.float64)
        self.z_long = np.asarray(self.z_long, dtype=np.float64)
        self.z_star = np.asarray(self.z_star, dtype=np.float64)
        T = len(self.z_star)
        if len(self.z_short) != T or len(self.z_long) != T:
            raise ValueError("score vectors must share one length")
        if np.any(self.z_star < 0):
            raise ValueError("z_star entries must be non-negative")
        s = self.startup_len
        if np.any(self.z_short[:s]) or np.any(self.z_long[:s]) or np.any(self.z_star[:s]):
            raise ValueError("startup entries must be exactly zero")

    def __len__(self):
        return len(self.z_star)


def _laplacian_for(g, kind):
    if kind == "normalized":
        return normalized_laplacian(g)
    return unnormalized_laplacian(g)


def signature(g: GraphSnapshot, cfg: DetectorConfig, rng=None):
    """Top-k singular values of the configured Laplacian of ``g``.

    When ``cfg.k`` exceeds the snapshot's node count the spectrum is
    zero-padded on the right, keeping signatures of evolving-size graphs
    comparable.  ``cfg.shift`` is added to the (unpadded) values.
    """
    k = cfg.k if cfg.k is not None else g.n
    k_eff = min(k, g.n)
    lap = _laplacian_for(g, cfg.laplacian)
    vals = top_k_singular_values(lap, k_eff, tol=cfg.tol, rng=rng)
    if cfg.shift:
        vals = vals + cfg.shift
    if k_eff < k:
        vals = np.pad(vals, (0, k - k_eff))
    return vals


def normalize_signature(sig):
    """L2-normalize a signature; the zero spectrum maps to the zero vector."""
    norm = np.linalg.norm(sig)
    if norm == 0.0:
        return np.zeros_like(sig)
    return sig / norm


def context_matrix(history: Sequence[np.ndarray], l: int, t: int):
    """Context of the ``l`` signatures before step ``t``, as columns.

    ``history`` must hold L2-normalized signatures indexed by time step;
    the result has shape (k, l) with columns ``history[t-l] .. history[t-1]``.
    """
    if t < l:
        raise ValueError(f"need t >= l for a full context, got t={t}, l={l}")
    return np.column_stack([np.asarray(history[i]) for i in range(t - l, t)])


def normal_behavior(C):
    """Typical recent signature: dominant left singular vector of ``C``.

    Acts as a weighted average of the window's spectra; inherits the sign
    convention of the spectral module.
    """
    return dominant_left_singular_vector(C)


def z_score(sig, normal):
    """One minus cosine similarity of two unit vectors."""
    sig = np.asarray(sig, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    for name, v in (("signature", sig), ("normal", normal)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise ValueError(f"{name} vector is not L2-normalized")
    return 1.0 - float(sig @ normal)


def _window_z(unit_sigs, t, w):
    sig = unit_sigs[t]
    if not np.any(sig):
        return 1.0  # empty-graph spectrum is maximally anomalous
    C = context_matrix(unit_sigs, w, t)
    if not np.any(C):
        return 1.0
    return 1.0 - float(sig @ normal_behavior(C))


def score_from_unit_signatures(unit_sigs, w_short, w_long) -> AnomalyScoreSeries:
    """Dual-window scoring fold over L2-normalized signatures.

    For ``t >= w_long`` both window scores are computed; the final score is
    ``max(max(dZ_short, 0), max(dZ_long, 0))`` where ``dZ`` is the step
    difference of the window score, taking the pre-startup score as 0 at
    the first scored step.  Steps ``t < w_long`` are the startup period
    and score exactly zero.
    """
    T = len(unit_sigs)
    if T <= w_long:
        raise ValueError(f"need more steps than the long window ({w_long}), got {T}")
    z_s = np.zeros(T)
    z_l = np.zeros(T)
    z_star = np.zeros(T)
    for t in range(w_long, T):
        z_s[t] = _window_z(unit_sigs, t, w_short)
        z_l[t] = _window_z(unit_sigs, t, w_long)
        prev_s = z_s[t - 1] if t > w_long else 0.0
        prev_l = z_l[t - 1] if t > w_long else 0.0
        z_star[t] = max(max(z_s[t] - prev_s, 0.0), max(z_l[t] - prev_l, 0.0))
    return AnomalyScoreSeries(z_s, z_l, z_star, startup_len=w_long)


def lad_detect(view: Sequence[GraphSnapshot], cfg: DetectorConfig, rng=None):
    """Score a single-view snapshot sequence.

    Signatures are computed once per distinct snapshot, L2-normalized, and
    folded through :func:`score_from_unit_signatures`.  Ranking time steps
    by descending ``z_star`` is the detector's output ordering.  A live
    ``np.random.Generator`` passed as ``rng`` is advanced once per distinct
    snapshot that takes the Lanczos route, not once per step.
    """
    if len(view) <= cfg.w_long:
        raise ValueError("sequence must be longer than the long window")
    k = cfg.k if cfg.k is not None else max(g.n for g in view)
    resolved = DetectorConfig(
        cfg.w_short, cfg.w_long, k, cfg.laplacian, cfg.tol, cfg.shift
    )
    unit = map_distinct(
        lambda g: normalize_signature(signature(g, resolved, rng=rng)), view
    )
    return score_from_unit_signatures(unit, cfg.w_short, cfg.w_long)


def ranked_steps(series: AnomalyScoreSeries):
    """Time steps ordered by descending score, ties broken by earlier step."""
    t = np.arange(len(series))
    order = np.lexsort((t, -series.z_star))
    return t[order]


def write_scores_csv(series: AnomalyScoreSeries, path_or_file):
    """Write scores as ``t,z_short,z_long,z_star`` rows with a header."""
    if hasattr(path_or_file, "write"):
        _write_scores(series, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write_scores(series, fh)


def _write_scores(series, fh):
    fh.write("t,z_short,z_long,z_star\n")
    for t in range(len(series)):
        fh.write(
            f"{t},{float(series.z_short[t])!r},"
            f"{float(series.z_long[t])!r},{float(series.z_star[t])!r}\n"
        )


def read_scores_csv(path_or_file) -> AnomalyScoreSeries:
    """Read a score CSV back.  ``startup_len`` is not stored in the format
    and is returned as 0; rankings are unaffected."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    rows = [ln for ln in lines if ln.strip() and not ln.startswith(("t,", "#"))]
    data = np.array([[float(x) for x in ln.split(",")] for ln in rows])
    if data.size == 0:
        raise ValueError("empty score file")
    t = data[:, 0].astype(int)
    if not np.array_equal(t, np.arange(len(t))):
        raise ValueError("score rows must cover t = 0..T-1 in order")
    return AnomalyScoreSeries(data[:, 1], data[:, 2], data[:, 3], startup_len=0)
