"""Each distinct snapshot is solved once, and results match per-step solving."""

import numpy as np
import pytest

import lapcpd.baselines
import lapcpd.detector
import lapcpd.evaluation
import lapcpd.graphs
import lapcpd.multiview
from lapcpd.baselines import activity_detect
from lapcpd.detector import DetectorConfig, lad_detect
from lapcpd.evaluation import (
    METHODS,
    ExperimentSpec,
    _raw_spectra,
    evaluate_methods,
)
from lapcpd.generators import GenConfig
from lapcpd.graphs import DynamicGraph, GraphSnapshot, map_distinct
from lapcpd.multiview import PowerMeanConfig, multilad_detect

N = 80  # above the small-matrix cut-off, so k <= N // 4 takes the Lanczos route
PATTERN = [0, 0, 0, 1, 1, 0, 2, 2, 2, 3, 0, 0, 1, 2, 3, 3]


def random_graph(rng, p):
    upper = np.triu(rng.random((N, N)) < p, k=1)
    return (upper | upper.T).astype(np.float64)


def build_view(bases, pattern):
    # A fresh object per step, so repeats match by content, not identity.
    return [GraphSnapshot.from_dense(bases[i]) for i in pattern]


@pytest.fixture(scope="module")
def bases():
    rng = np.random.default_rng(11)
    return [random_graph(rng, p) for p in (0.1, 0.2, 0.15, 0.3)]


@pytest.fixture
def per_step(monkeypatch):
    """Swap the dedupe helper for the plain per-step map everywhere."""

    def plain(fn, snapshots):
        return [fn(g) for g in snapshots]

    for module in (
        lapcpd.detector, lapcpd.multiview, lapcpd.evaluation, lapcpd.baselines
    ):
        monkeypatch.setattr(module, "map_distinct", plain)
    return monkeypatch


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_same_series(a, b):
    for field in ("z_short", "z_long", "z_star"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.startup_len == b.startup_len


def multi_view_graph(bases):
    view0 = build_view(bases, PATTERN)
    view1 = build_view(bases, PATTERN[::-1])
    return DynamicGraph([[a, b] for a, b in zip(view0, view1)])


LAD_CONFIGS = [
    DetectorConfig(3, 5, None, "unnormalized"),
    DetectorConfig(3, 5, None, "normalized"),
    DetectorConfig(3, 5, N // 8, "unnormalized"),
    DetectorConfig(3, 5, N // 8, "normalized"),
]


class TestMatchesPerStep:
    @pytest.mark.parametrize("cfg", LAD_CONFIGS, ids=lambda c: f"{c.laplacian}-k{c.k}")
    def test_lad_detect(self, bases, cfg, per_step):
        view = build_view(bases, PATTERN)
        reference = lad_detect(view, cfg, rng=7)
        per_step.undo()
        assert_same_series(lad_detect(view, cfg, rng=7), reference)

    def test_multilad_detect(self, bases, per_step):
        graph = multi_view_graph(bases)
        det = DetectorConfig(3, 5, None, "normalized")
        pm = PowerMeanConfig(-10.0)
        reference = multilad_detect(graph, det, pm)
        per_step.undo()
        assert_same_series(multilad_detect(graph, det, pm), reference)

    def test_evaluate_methods_every_method(self, bases, per_step):
        graph = multi_view_graph(bases)
        spec = ExperimentSpec(
            "dedupe", None, GenConfig(n_nodes=N, n_views=2),
            detector=DetectorConfig(w_short=3, w_long=5), n_top=2,
        )
        truth = {6, 9}
        methods = list(METHODS)
        reference = evaluate_methods(graph, truth, methods, spec)
        reference_spectra = _raw_spectra(graph, "normalized", spec.detector, N)
        per_step.undo()
        out = evaluate_methods(graph, truth, methods, spec)
        assert out.keys() == reference.keys()
        for name in methods:
            assert np.array_equal(out[name], reference[name])
        spectra = _raw_spectra(graph, "normalized", spec.detector, N)
        assert np.array_equal(spectra, reference_spectra)

    def test_activity_detect(self, bases, per_step):
        view = build_view(bases, PATTERN)
        reference = activity_detect(view, 3)
        per_step.undo()
        assert_same_series(activity_detect(view, 3), reference)


class TestSolvedOncePerDistinctSnapshot:
    @pytest.mark.parametrize("cfg", LAD_CONFIGS, ids=lambda c: f"{c.laplacian}-k{c.k}")
    def test_lad_detect(self, bases, cfg, monkeypatch):
        calls = counting(monkeypatch, lapcpd.detector, "top_k_singular_values")
        lad_detect(build_view(bases, PATTERN), cfg, rng=7)
        assert len(calls) == len(set(PATTERN))

    def test_multilad_solves_each_grid_graph_once(self, bases, monkeypatch):
        calls = counting(monkeypatch, lapcpd.detector, "top_k_singular_values")
        multilad_detect(
            multi_view_graph(bases), DetectorConfig(3, 5, None, "normalized"),
            PowerMeanConfig(-10.0),
        )
        assert len(calls) == len(bases)  # repeats within and across views

    def test_evaluate_methods(self, bases, monkeypatch):
        topk = counting(monkeypatch, lapcpd.detector, "top_k_singular_values")
        activity = counting(monkeypatch, lapcpd.baselines, "activity_vector")
        spec = ExperimentSpec(
            "dedupe", None, GenConfig(n_nodes=N, n_views=2),
            detector=DetectorConfig(w_short=3, w_long=5), n_top=2,
        )
        evaluate_methods(multi_view_graph(bases), {6, 9}, list(METHODS), spec)
        assert len(topk) == 2 * len(bases)  # one solve per Laplacian kind
        assert len(activity) == 2 * len(set(PATTERN))  # per view

    def test_activity_detect(self, bases, monkeypatch):
        calls = counting(monkeypatch, lapcpd.baselines, "activity_vector")
        activity_detect(build_view(bases, PATTERN), 3)
        assert len(calls) == len(set(PATTERN))


class TestContentKey:
    def test_edges_and_dense_build_the_same_key(self):
        edges = [(0, 1, 1.0), (1, 2, 2.5), (3, 0, 0.5), (2, 1, 1.0)]
        dense = np.zeros((5, 5))
        for i, j, w in edges:
            dense[i, j] += w
            dense[j, i] += w
        a = GraphSnapshot.from_edges(5, edges)
        b = GraphSnapshot.from_dense(dense)
        assert a.content_key == b.content_key
        assert a == b and hash(a) == hash(b)

    def test_index_dtype_does_not_change_the_key(self):
        a = GraphSnapshot.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)])
        b = GraphSnapshot.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)])
        b.adjacency.indptr = b.adjacency.indptr.astype(np.int64)
        b.adjacency.indices = b.adjacency.indices.astype(np.int64)
        assert a.adjacency.indptr.dtype != b.adjacency.indptr.dtype
        assert a.content_key == b.content_key
        assert a == b

    def test_one_changed_weight_changes_the_key(self):
        a = GraphSnapshot.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)])
        b = GraphSnapshot.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0000000000000004)])
        assert a.content_key != b.content_key
        assert a != b

    def test_node_count_is_part_of_the_key(self):
        a = GraphSnapshot.from_edges(4, [(0, 1, 1.0)])
        b = GraphSnapshot.from_edges(5, [(0, 1, 1.0)])
        assert a.content_key != b.content_key
        assert a != b

    def test_digest_collision_still_solves_both(self, bases, monkeypatch):
        monkeypatch.setattr(lapcpd.graphs, "_content_digest", lambda n, adj: b"same")
        view = build_view(bases, PATTERN)
        assert len({g.content_key for g in view}) == 1
        assert map_distinct(lambda g: g.num_edges, view) == [g.num_edges for g in view]
        cfg = DetectorConfig(3, 5, None, "unnormalized")
        calls = counting(monkeypatch, lapcpd.detector, "top_k_singular_values")
        deduped = lad_detect(view, cfg)
        assert len(calls) == len(set(PATTERN))
        monkeypatch.setattr(
            lapcpd.detector, "map_distinct", lambda fn, gs: [fn(g) for g in gs]
        )
        assert_same_series(lad_detect(view, cfg), deduped)
