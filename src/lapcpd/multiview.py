"""Multi-view detection via scalar power mean spectrum aggregation.

Per view and time step, the top-k singular values of the symmetric
normalized Laplacian form the view's signature.  A small diagonal shift
(added directly to the singular values, which is equivalent for PSD
matrices) makes every entry strictly positive so that negative powers are
well defined.  The per-view signatures are merged componentwise with the
scalar power mean, and the aggregated vector runs through the same
dual-window scoring as the single-view detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .detector import (
    AnomalyScoreSeries,
    DetectorConfig,
    normalize_signature,
    score_from_unit_signatures,
    signature,
)
from .graphs import DynamicGraph, map_distinct

__all__ = [
    "PowerMeanConfig",
    "scalar_power_mean",
    "power_mean_spectrum",
    "multilad_spectra",
    "multilad_detect",
    "write_spectrum_csv",
]


@dataclass(frozen=True)
class PowerMeanConfig:
    """Power mean order ``p`` (non-zero; default -10).

    A negative ``p`` magnifies the small singular values, which carry the
    structural information; ``epsilon`` is the shift that keeps every
    (normalized-Laplacian) singular value strictly positive in that case.
    """

    p: float = -10.0

    def __post_init__(self):
        if self.p == 0:
            raise ValueError("power mean order p must be non-zero")

    @property
    def epsilon(self):
        return math.log1p(abs(self.p)) if self.p < 0 else 0.0


def scalar_power_mean(xs, p):
    """Power mean ``((1/m) sum x_i^p)^(1/p)`` of non-negative reals.

    Evaluated in the log domain for numerical stability.  Entries must be
    strictly positive when ``p < 0``; callers aggregate shifted values.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("power mean of an empty set is undefined")
    if p == 0:
        raise ValueError("p must be non-zero")
    if np.any(xs < 0):
        raise ValueError("power mean inputs must be non-negative")
    if p < 0 and np.any(xs == 0.0):
        raise ValueError("zero entry with negative power; shift inputs first")
    if xs.size == 1 or np.all(xs == xs[0]):
        return float(xs[0])
    if p == 1:
        return float(xs.mean())
    with np.errstate(divide="ignore"):  # log(0) -> -inf is the intended limit
        logs = p * np.log(xs)
    return float(np.exp((logsumexp(logs) - np.log(xs.size)) / p))


def power_mean_spectrum(sigs, cfg: PowerMeanConfig):
    """Componentwise power mean across ``m`` equal-length signatures.

    A single view passes through unchanged; ``p = 1`` reduces exactly to
    the componentwise arithmetic mean.
    """
    sigs = [np.asarray(s, dtype=np.float64) for s in sigs]
    if not sigs:
        raise ValueError("need at least one view")
    k = sigs[0].shape[0]
    if any(s.shape != (k,) for s in sigs):
        raise ValueError("view signatures must share one length")
    if len(sigs) == 1:
        return sigs[0].copy()
    arr = np.vstack(sigs)
    if np.any(arr < 0):
        raise ValueError("power mean inputs must be non-negative")
    if cfg.p < 0 and np.any(arr == 0.0):
        raise ValueError("zero entry with negative power; shift inputs first")
    if np.all(arr == arr[0]):
        return arr[0].copy()
    if cfg.p == 1:
        return arr.mean(axis=0)
    with np.errstate(divide="ignore"):
        logs = cfg.p * np.log(arr)
    return np.exp((logsumexp(logs, axis=0) - np.log(arr.shape[0])) / cfg.p)


def _resolve_k(graph: DynamicGraph, det: DetectorConfig):
    # Default: the smallest snapshot bounds how many values every view has.
    if det.k is not None:
        return det.k
    return int(min(g.n for row in graph.snapshots for g in row))


def multilad_spectra(graph: DynamicGraph, det: DetectorConfig, pm: PowerMeanConfig, rng=None):
    """Aggregated (shifted) power mean spectrum per time step, shape (T, k).

    Each distinct snapshot of the grid is solved once; a live
    ``np.random.Generator`` passed as ``rng`` advances once per distinct
    snapshot that takes the Lanczos route.
    """
    if det.laplacian != "normalized":
        raise ValueError("multi-view detection is defined on the normalized Laplacian")
    k = _resolve_k(graph, det)
    per_view_cfg = DetectorConfig(
        det.w_short, det.w_long, k, "normalized", det.tol, shift=0.0
    )
    sigs = map_distinct(
        lambda g: signature(g, per_view_cfg, rng=rng),
        [g for row in graph.snapshots for g in row],
    )
    m = graph.num_views
    out = np.empty((graph.num_steps, k))
    for t in range(graph.num_steps):
        shifted = [s + pm.epsilon for s in sigs[t * m : (t + 1) * m]]
        out[t] = power_mean_spectrum(shifted, pm)
    return out


def multilad_detect(
    graph: DynamicGraph, det: DetectorConfig, pm: PowerMeanConfig, rng=None
) -> AnomalyScoreSeries:
    """Multi-view change point scoring (power mean aggregation).

    With a single view this reduces to the single-view detector on the
    normalized Laplacian with ``shift = pm.epsilon``, bit for bit.
    """
    spectra = multilad_spectra(graph, det, pm, rng=rng)
    unit = [normalize_signature(s) for s in spectra]
    return score_from_unit_signatures(unit, det.w_short, det.w_long)


def write_spectrum_csv(spectra, path_or_file):
    """Dump per-step aggregated spectra as ``t,lambda_1..lambda_k`` rows."""
    spectra = np.asarray(spectra)
    if hasattr(path_or_file, "write"):
        _write_spectra(spectra, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write_spectra(spectra, fh)


def _write_spectra(spectra, fh):
    k = spectra.shape[1]
    fh.write("t," + ",".join(f"lambda_{i + 1}" for i in range(k)) + "\n")
    for t, row in enumerate(spectra):
        fh.write(f"{t}," + ",".join(repr(float(v)) for v in row) + "\n")
