"""Multi-view dynamic graph data model, edge-stream ingestion and Laplacians.

A dynamic graph is a complete T x m grid of snapshots: ``T`` time steps,
``m`` views, one undirected weighted graph per cell.  Snapshots are
immutable once built and safe to share across workers.

The on-disk interchange format is a newline-delimited CSV edge stream::

    time,view,src,dst,weight

with ``#`` comment lines.  Duplicate records for the same snapshot and the
two orientations of the same pair are summed into a single undirected edge.
"""

from __future__ import annotations

import hashlib
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "EdgeRecord",
    "EdgeStreamParseError",
    "GraphSnapshot",
    "DynamicGraph",
    "map_distinct",
    "parse_edge_stream",
    "write_edge_stream",
    "unnormalized_laplacian",
    "normalized_laplacian",
]


class EdgeStreamParseError(ValueError):
    """Malformed edge-stream input; carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class EdgeRecord:
    """One undirected edge observation at a (time, view) cell.

    ``weight`` must be finite and strictly positive; ``src``/``dst`` must
    fall inside the declared node universe when one is given.
    """

    time: int
    view: int
    src: int
    dst: int
    weight: float

    def __post_init__(self):
        if self.time < 0 or self.view < 0 or self.src < 0 or self.dst < 0:
            raise ValueError(f"negative index in edge record {self}")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"edge weight must be finite and > 0, got {self.weight}")


class GraphSnapshot:
    """Undirected weighted graph on ``n`` nodes for one (time, view) cell.

    The adjacency is stored as a canonical CSR matrix (sorted indices, no
    duplicates, no explicit zeros) that is symmetric, has a zero diagonal
    and strictly positive weights.  Instances are immutable by convention:
    no method mutates the stored matrix.  Equality and hashing go by that
    content, so snapshots with equal graphs are interchangeable dict keys.
    """

    __slots__ = ("n", "adjacency", "_content_key")

    def __init__(self, n, adjacency, validate=True):
        adjacency = sp.csr_matrix(adjacency, shape=(n, n), dtype=np.float64)
        adjacency.sum_duplicates()
        adjacency.eliminate_zeros()
        if validate:
            if (abs(adjacency - adjacency.T)).nnz:
                raise ValueError("adjacency must be symmetric")
            if adjacency.diagonal().any():
                raise ValueError("self-loops are not allowed")
            if adjacency.nnz and adjacency.data.min() <= 0:
                raise ValueError("edge weights must be strictly positive")
        self.n = int(n)
        self.adjacency = adjacency
        self._content_key = None

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of ``(i, j, w)`` triples, summing duplicates.

        Both orientations of a pair are folded together; self-loops are
        dropped with a warning (the Laplacians below never use them).
        """
        rows, cols, data = [], [], []
        for i, j, w in edges:
            if i == j:
                warnings.warn(f"dropping self-loop on node {i}", stacklevel=2)
                continue
            rows.extend((i, j))
            cols.extend((j, i))
            data.extend((w, w))
        a = sp.csr_matrix(
            (np.asarray(data, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        return cls(n, a)

    @classmethod
    def from_dense(cls, dense, validate=False):
        """Wrap a dense symmetric adjacency array (used by the generators)."""
        dense = np.asarray(dense, dtype=np.float64)
        return cls(dense.shape[0], sp.csr_matrix(dense), validate=validate)

    @classmethod
    def empty(cls, n):
        return cls(n, sp.csr_matrix((n, n)), validate=False)

    @property
    def num_edges(self):
        return self.adjacency.nnz // 2

    @property
    def total_weight(self):
        """Sum of weights over undirected edges (each pair counted once)."""
        return float(self.adjacency.sum()) / 2.0

    def degrees(self):
        """Weighted degree vector."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def to_dense(self):
        return self.adjacency.toarray()

    def edge_list(self):
        """Upper-triangle edges as ``(i, j, w)`` with ``i < j``, sorted."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        order = np.lexsort((coo.col, coo.row))
        return list(zip(coo.row[order], coo.col[order], coo.data[order]))

    def is_unit_weighted(self):
        return bool(np.all(self.adjacency.data == 1.0))

    @property
    def content_key(self):
        """Digest of ``n`` and the canonical CSR arrays, computed once.

        Index arrays are hashed as int64, so equal graphs get equal keys
        whatever index dtype scipy chose.  Equal keys do not prove equal
        graphs; ``==`` compares the arrays themselves.
        """
        if self._content_key is None:
            self._content_key = _content_digest(self.n, self.adjacency)
        return self._content_key

    def __eq__(self, other):
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        a, b = self.adjacency, other.adjacency
        return (
            self.n == other.n
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )

    def __hash__(self):
        return hash(self.content_key)

    def __repr__(self):
        return f"GraphSnapshot(n={self.n}, edges={self.num_edges})"


def _content_digest(n, adjacency):
    digest = hashlib.blake2b(np.int64(n).tobytes(), digest_size=16)
    digest.update(np.asarray(adjacency.indptr, dtype=np.int64).tobytes())
    digest.update(np.asarray(adjacency.indices, dtype=np.int64).tobytes())
    digest.update(adjacency.data.tobytes())
    return digest.digest()


def map_distinct(fn, snapshots):
    """``[fn(g) for g in snapshots]``, calling ``fn`` once per distinct graph.

    Snapshots are matched by content (:meth:`GraphSnapshot.__eq__`), so
    ``fn`` must depend on the graph alone: a repeated snapshot gets the very
    object computed for its first occurrence.  The memo lives for this call
    only.
    """
    memo = {}
    out = []
    for g in snapshots:
        if g not in memo:
            memo[g] = fn(g)
        out.append(memo[g])
    return out


class DynamicGraph:
    """Complete ``T x m`` grid of :class:`GraphSnapshot`.

    Every cell holds a snapshot (an empty graph is a valid snapshot), so
    ``snapshots[t][r]`` is always defined for ``0 <= t < T`` and
    ``0 <= r < m``.
    """

    __slots__ = ("snapshots",)

    def __init__(self, snapshots):
        snapshots = [list(row) for row in snapshots]
        if not snapshots or not snapshots[0]:
            raise ValueError("dynamic graph needs at least one snapshot")
        m = len(snapshots[0])
        if any(len(row) != m for row in snapshots):
            raise ValueError("snapshot grid must be rectangular")
        self.snapshots = snapshots

    @property
    def num_steps(self):
        return len(self.snapshots)

    @property
    def num_views(self):
        return len(self.snapshots[0])

    @property
    def node_counts(self):
        """Per-snapshot node counts as a (T, m) integer array."""
        return np.array([[g.n for g in row] for row in self.snapshots])

    def view(self, r) -> list[GraphSnapshot]:
        """Snapshot sequence of view ``r`` over all time steps."""
        return [row[r] for row in self.snapshots]

    def total_weight(self):
        return float(sum(g.total_weight for row in self.snapshots for g in row))

    def __repr__(self):
        return f"DynamicGraph(T={self.num_steps}, m={self.num_views})"


def _parse_line(line, line_no):
    parts = line.split(",")
    if len(parts) != 5:
        raise EdgeStreamParseError(
            f"expected 5 comma-separated fields, got {len(parts)}", line_no
        )
    try:
        t, r, i, j = (int(p) for p in parts[:4])
        w = float(parts[4])
    except ValueError as exc:
        raise EdgeStreamParseError(str(exc), line_no) from None
    if t < 0 or r < 0 or i < 0 or j < 0:
        raise EdgeStreamParseError("indices must be non-negative", line_no)
    if not (math.isfinite(w) and w > 0):
        raise EdgeStreamParseError(f"weight must be finite and > 0, got {w}", line_no)
    return t, r, i, j, w


def parse_edge_stream(source, node_universe=None) -> DynamicGraph:
    """Parse an edge-stream CSV into a :class:`DynamicGraph`.

    Parameters
    ----------
    source : str, file-like, or iterable of lines
        Records ``time,view,src,dst,weight``; ``#`` starts a comment line,
        blank lines are ignored.
    node_universe : int, optional
        Declared node count shared by all snapshots.  Defaults to
        ``max(node id) + 1`` over the whole stream.

    Time and view indices are compacted: the distinct values that occur are
    mapped, in sorted order, onto ``0..T-1`` and ``0..m-1``.  Duplicate
    records for one snapshot (including opposite orientations) are summed.
    Self-loops are dropped with a warning.
    """
    if isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source
    records = []
    max_node = -1
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        t, r, i, j, w = _parse_line(line, line_no)
        if node_universe is not None and max(i, j) >= node_universe:
            raise EdgeStreamParseError(
                f"node id {max(i, j)} outside universe of size {node_universe}",
                line_no,
            )
        max_node = max(max_node, i, j)
        records.append((t, r, i, j, w))
    if not records:
        raise EdgeStreamParseError("edge stream contains no records")
    n = node_universe if node_universe is not None else max_node + 1
    times = sorted({rec[0] for rec in records})
    views = sorted({rec[1] for rec in records})
    t_map = {t: idx for idx, t in enumerate(times)}
    r_map = {r: idx for idx, r in enumerate(views)}
    buckets: dict[tuple[int, int], list] = {}
    for t, r, i, j, w in records:
        buckets.setdefault((t_map[t], r_map[r]), []).append((i, j, w))
    grid = []
    for t in range(len(times)):
        row = []
        for r in range(len(views)):
            edges = buckets.get((t, r))
            if edges is None:
                row.append(GraphSnapshot.empty(n))
            else:
                row.append(GraphSnapshot.from_edges(n, edges))
        grid.append(row)
    return DynamicGraph(grid)


def write_edge_stream(graph: DynamicGraph, path_or_file):
    """Write a dynamic graph in the edge-stream CSV format.

    Float weights are written with ``repr`` so a parse/write cycle
    round-trips total weight exactly.
    """
    if hasattr(path_or_file, "write"):
        _write_edge_stream(graph, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write_edge_stream(graph, fh)


def _write_edge_stream(graph, fh):
    fh.write("# time,view,src,dst,weight\n")
    for t, row in enumerate(graph.snapshots):
        for r, g in enumerate(row):
            for i, j, w in g.edge_list():
                fh.write(f"{t},{r},{i},{j},{float(w)!r}\n")


def unnormalized_laplacian(g: GraphSnapshot) -> sp.csr_matrix:
    """Combinatorial Laplacian: degree matrix minus adjacency.

    Symmetric, positive semi-definite, rows sum to zero; an empty graph
    yields the zero matrix.
    """
    deg = g.degrees()
    return (sp.diags(deg) - g.adjacency).tocsr()


def normalized_laplacian(g: GraphSnapshot) -> sp.csr_matrix:
    """Symmetric normalized Laplacian, eigenvalues bounded in [0, 2].

    Computes ``I - D^{-1/2} A D^{-1/2}`` with the convention that isolated
    nodes get an all-zero row and column (their diagonal entry is 0, not 1),
    keeping the matrix finite and positive semi-definite.
    """
    deg = g.degrees()
    active = deg > 0
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[active] = 1.0 / np.sqrt(deg[active])
    d_inv = sp.diags(inv_sqrt)
    eye_active = sp.diags(active.astype(np.float64))
    return (eye_active - d_inv @ g.adjacency @ d_inv).tocsr()
