import io

import numpy as np
import pytest

from lapcpd.graphs import (
    DynamicGraph,
    EdgeRecord,
    EdgeStreamParseError,
    GraphSnapshot,
    normalized_laplacian,
    parse_edge_stream,
    unnormalized_laplacian,
    write_edge_stream,
)


def bfs_component_count(adj_dense):
    """Independent traversal-based component counter (test oracle)."""
    n = adj_dense.shape[0]
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj_dense[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
    return count


def random_snapshot(rng, n, p=0.3, weighted=False):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    w = np.where(upper, rng.uniform(0.5, 2.0, (n, n)) if weighted else 1.0, 0.0)
    return GraphSnapshot.from_dense(w + w.T)


class TestEdgeRecord:
    def test_valid(self):
        rec = EdgeRecord(0, 0, 1, 2, 0.5)
        assert rec.weight == 0.5

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_nonpositive_weight(self, weight):
        with pytest.raises(ValueError):
            EdgeRecord(0, 0, 1, 2, weight)

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite"):
            EdgeRecord(0, 0, 1, 2, weight)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            EdgeRecord(-1, 0, 1, 2, 1.0)


class TestGraphSnapshot:
    def test_rejects_asymmetric(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            GraphSnapshot(2, a)

    def test_rejects_self_loop(self):
        a = np.eye(2)
        with pytest.raises(ValueError, match="self-loop"):
            GraphSnapshot(2, a)

    def test_from_edges_merges_duplicates(self):
        g = GraphSnapshot.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])
        assert g.num_edges == 1
        assert g.total_weight == 3.0

    def test_from_edges_drops_self_loop_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = GraphSnapshot.from_edges(3, [(0, 0, 1.0), (0, 1, 1.0)])
        assert g.num_edges == 1


class TestParseEdgeStream:
    def test_single_edge(self):
        g = parse_edge_stream("0,0,0,1,1.0")
        assert g.num_steps == 1 and g.num_views == 1
        snap = g.snapshots[0][0]
        assert snap.num_edges == 1
        assert snap.adjacency[0, 1] == 1.0

    def test_symmetric_duplicates_summed(self):
        g = parse_edge_stream("0,0,0,1,1.0\n0,0,1,0,2.0")
        snap = g.snapshots[0][0]
        assert snap.num_edges == 1
        assert snap.adjacency[0, 1] == 3.0
        assert snap.adjacency[1, 0] == 3.0

    def test_random_file_total_weight(self):
        # Oracle: re-sum the weight column straight from the raw text.
        rng = np.random.default_rng(7)
        lines = []
        for _ in range(10):
            i, j = rng.choice(20, size=2, replace=False)
            lines.append(
                f"{rng.integers(3)},{rng.integers(2)},{i},{j},{rng.uniform(0.1, 5):.6f}"
            )
        text = "\n".join(lines)
        oracle_total = sum(float(ln.split(",")[4]) for ln in text.splitlines())
        g = parse_edge_stream(text)
        assert g.total_weight() == pytest.approx(oracle_total, abs=1e-12)

    def test_comments_and_blank_lines(self):
        g = parse_edge_stream("# header\n\n0,0,0,1,1.0\n")
        assert g.total_weight() == 1.0

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeStreamParseError) as exc:
            parse_edge_stream("0,0,0,1,1.0\n0,0,zzz,1,1.0")
        assert exc.value.line_no == 2

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(EdgeStreamParseError):
            parse_edge_stream("0,0,0,1,0.0")

    @pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_weight_reports_number(self, weight):
        with pytest.raises(EdgeStreamParseError, match="line 2: weight must be finite"):
            parse_edge_stream(f"0,0,0,1,1.0\n0,0,1,2,{weight}\n")

    def test_node_universe_enforced(self):
        with pytest.raises(EdgeStreamParseError):
            parse_edge_stream("0,0,0,9,1.0", node_universe=5)

    def test_times_and_views_compacted(self):
        g = parse_edge_stream("5,1,0,1,1.0\n9,3,1,2,1.0")
        assert g.num_steps == 2 and g.num_views == 2
        assert g.snapshots[0][0].num_edges == 1  # time 5 -> 0, view 1 -> 0
        assert g.snapshots[1][1].num_edges == 1

    def test_grid_is_complete_with_empty_cells(self):
        g = parse_edge_stream("0,0,0,1,1.0\n1,1,0,1,1.0")
        assert g.snapshots[0][1].num_edges == 0
        assert g.snapshots[1][0].num_edges == 0

    def test_roundtrip_total_weight_exact(self):
        rng = np.random.default_rng(3)
        lines = [
            f"{t},{r},{i},{i + 1 + rng.integers(3)},{float(rng.uniform(0.1, 2.0))!r}"
            for t in range(2)
            for r in range(2)
            for i in range(5)
        ]
        g = parse_edge_stream("\n".join(lines))
        buf = io.StringIO()
        write_edge_stream(g, buf)
        g2 = parse_edge_stream(buf.getvalue())
        assert g2.total_weight() == g.total_weight()


class TestLaplacians:
    def test_k2_unnormalized(self):
        g = GraphSnapshot.from_edges(2, [(0, 1, 1.0)])
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(unnormalized_laplacian(g).toarray(), expected)

    def test_empty_graph_zero_matrix(self):
        g = GraphSnapshot.empty(3)
        assert not unnormalized_laplacian(g).toarray().any()

    def test_row_sums_zero_and_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_snapshot(rng, 12, weighted=True)
            lap = unnormalized_laplacian(g).toarray()
            assert np.abs(lap - lap.T).max() < 1e-10
            assert np.abs(lap.sum(axis=1)).max() < 1e-10

    def test_zero_eigenvalue_multiplicity_counts_components(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 16))
            g = random_snapshot(rng, n, p=float(rng.uniform(0.05, 0.5)))
            lap = unnormalized_laplacian(g).toarray()
            eig = np.linalg.eigvalsh(lap)
            zero_mult = int((np.abs(eig) < 1e-8).sum())
            assert zero_mult == bfs_component_count(g.to_dense())

    def test_k2_normalized(self):
        g = GraphSnapshot.from_edges(2, [(0, 1, 1.0)])
        lap = normalized_laplacian(g).toarray()
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(sorted(np.linalg.eigvalsh(lap)), [0.0, 2.0])

    def test_k4_normalized_spectrum(self):
        g = GraphSnapshot.from_edges(
            4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        )
        eig = np.sort(np.linalg.eigvalsh(normalized_laplacian(g).toarray()))
        assert np.allclose(eig, [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-12)

    def test_isolated_node_zero_row(self):
        g = GraphSnapshot.from_edges(3, [(0, 1, 1.0)])  # node 2 isolated
        lap = normalized_laplacian(g).toarray()
        assert lap[2, 2] == 0.0
        assert not lap[2].any() and not lap[:, 2].any()

    def test_normalized_spectrum_in_range(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            g = random_snapshot(rng, 15, p=0.3, weighted=True)
            eig = np.linalg.eigvalsh(normalized_laplacian(g).toarray())
            assert eig.min() > -1e-9
            assert eig.max() < 2.0 + 1e-9


class TestDynamicGraph:
    def test_rectangular_required(self):
        g = GraphSnapshot.empty(2)
        with pytest.raises(ValueError):
            DynamicGraph([[g, g], [g]])

    def test_view_extraction(self):
        a = GraphSnapshot.from_edges(2, [(0, 1, 1.0)])
        b = GraphSnapshot.empty(2)
        g = DynamicGraph([[a, b], [b, a]])
        assert [s.num_edges for s in g.view(0)] == [1, 0]
        assert [s.num_edges for s in g.view(1)] == [0, 1]
