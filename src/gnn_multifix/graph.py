"""Graph, dataset, and sparse-operator primitives.

A :class:`Graph` is an immutable undirected graph stored as a CSR neighbor
structure (sorted neighbor list per node, no self-loops, no duplicates).
A :class:`Dataset` bundles a graph with optional dense node features, a
binary multi-label matrix, and disjoint train/val/test masks.
:class:`SparseMatrix` is a minimal CSR carrier for the normalized operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError, UndefinedMetricError
from .rng import substream

# byte cap on the one nnz x block temporary of SparseMatrix.matmul_dense
_MATMUL_TMP_BYTES = 2 << 20


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form.

    ``row_ptr`` has length n+1; ``col_idx[row_ptr[v]:row_ptr[v+1]]`` is the
    sorted neighbor list of v. Degrees never count self-loops (the operator
    constructors add their own self-loop term).
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray

    @property
    def deg(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    @property
    def n_edges(self) -> int:
        return int(len(self.col_idx) // 2)

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v."""
        rows = np.repeat(np.arange(self.n), self.deg)
        keep = rows < self.col_idx
        return np.column_stack([rows[keep], self.col_idx[keep]])

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < len(nb) and nb[i] == v

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph from an (m, 2) array or a sequence of (u, v) pairs.

        Pairs are symmetrized and deduplicated; self-loops are dropped.
        """
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(e) and (e.min() < 0 or e.max() >= n):
            raise ShapeError(f"edge endpoint out of range [0, {n})")
        e = e[e[:, 0] != e[:, 1]]
        # both directions as keys u * n + v: sorted, they are the CSR entries
        # in (row, column) order, each duplicate next to its twin
        key = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        rows, cols = np.divmod(key[first], n)
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        row_ptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
        return Graph(n=n, row_ptr=_frozen(row_ptr), col_idx=_frozen(cols))


@dataclass(frozen=True)
class SparseMatrix:
    """Row-compressed real matrix (CSR) with sorted column indices.

    Every row holds at least one entry.
    """

    rows: int
    cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ShapeError("sparse matrix values must be finite")
        # matmul_dense sums each row with np.add.reduceat, which cannot
        # express an empty segment; the self-loops of A+I leave no row empty
        if not np.all(np.diff(self.row_ptr) > 0):
            raise ShapeError("sparse matrix has a row with no entries")

    @property
    def nnz(self) -> int:
        return int(len(self.values))

    def matmul_dense(self, X: np.ndarray) -> np.ndarray:
        """Compute self @ X for a dense X, with a fixed per-row summation order."""
        X = np.asarray(X, dtype=np.float64)
        squeeze = X.ndim == 1
        if squeeze:
            X = X[:, None]
        if X.shape[0] != self.cols:
            raise ShapeError(f"operand has {X.shape[0]} rows, expected {self.cols}")
        out = np.empty((self.rows, X.shape[1]), dtype=np.float64)
        if self.nnz:
            # column blocks keep the one block x nnz product under the byte
            # cap. Each block is gathered transposed, so a cell's products lie
            # contiguous. reduceat sums each segment pairwise (in order below
            # 8 products), in an order set by the row's length alone: the
            # bits do not depend on the block width or the operand's layout
            width = max(1, _MATMUL_TMP_BYTES // (8 * self.nnz))
            # np.take copies a read-only index on every call; copy it once
            col_idx = self.col_idx.copy()
            for j in range(0, X.shape[1], width):
                block = slice(j, j + width)
                contrib = np.take(np.ascontiguousarray(X[:, block].T), col_idx, axis=1)
                contrib *= self.values
                out[:, block] = np.add.reduceat(contrib, self.row_ptr[:-1], axis=1).T
                del contrib  # freed before the next block's is gathered
        return out[:, 0] if squeeze else out


@dataclass(frozen=True)
class Dataset:
    """Graph plus features, binary labels, and disjoint split masks."""

    graph: Graph
    features: np.ndarray | None
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        n = self.graph.n
        if self.labels.shape[0] != n:
            raise ShapeError(f"labels have {self.labels.shape[0]} rows, expected {n}")
        if self.features is not None and self.features.shape[0] != n:
            raise ShapeError("feature row count does not match node count")
        for m in (self.train_mask, self.val_mask, self.test_mask):
            if m.shape != (n,):
                raise ShapeError("mask length does not match node count")
        overlap = (
            self.train_mask.astype(int) + self.val_mask.astype(int) + self.test_mask.astype(int)
        )
        if overlap.max(initial=0) > 1:
            raise ShapeError("split masks must be pairwise disjoint")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def n_labels(self) -> int:
        return int(self.labels.shape[1])

    def label_set(self, v: int) -> set[int]:
        return set(np.flatnonzero(self.labels[v]).tolist())

    def with_masks(self, train_mask, val_mask, test_mask) -> "Dataset":
        return replace(
            self,
            train_mask=_frozen(np.asarray(train_mask, bool)),
            val_mask=_frozen(np.asarray(val_mask, bool)),
            test_mask=_frozen(np.asarray(test_mask, bool)),
        )

    def with_features(self, features: np.ndarray) -> "Dataset":
        return replace(self, features=_frozen(np.asarray(features, np.float64)))


def make_dataset(graph, labels, features=None, train_mask=None, val_mask=None, test_mask=None):
    """Assemble a Dataset, defaulting absent masks to all-False."""
    n = graph.n
    empty = np.zeros(n, dtype=bool)
    return Dataset(
        graph=graph,
        features=None if features is None else _frozen(np.asarray(features, np.float64)),
        labels=_frozen(np.asarray(labels, np.int8)),
        train_mask=_frozen(empty if train_mask is None else np.asarray(train_mask, bool)),
        val_mask=_frozen(empty if val_mask is None else np.asarray(val_mask, bool)),
        test_mask=_frozen(empty if test_mask is None else np.asarray(test_mask, bool)),
    )


def make_splits(dataset: Dataset, train_frac: float, val_frac: float, seed: int) -> Dataset:
    """Assign uniformly random disjoint train/val/test masks.

    Sizes are floor(n * frac) for train and val; the remainder is test.
    Deterministic given (n, fractions, seed).
    """
    if not (0.0 < train_frac < 1.0 and 0.0 < val_frac < 1.0):
        raise ValueError("fractions must lie in (0, 1)")
    if train_frac + val_frac >= 1.0:
        raise ValueError(f"train_frac + val_frac must be < 1 (got {train_frac + val_frac})")
    n = dataset.n
    n_train = int(np.floor(n * train_frac))
    n_val = int(np.floor(n * val_frac))
    perm = substream(seed, "splits", n).permutation(n)
    train = np.zeros(n, bool)
    val = np.zeros(n, bool)
    test = np.zeros(n, bool)
    train[perm[:n_train]] = True
    val[perm[n_train : n_train + n_val]] = True
    test[perm[n_train + n_val :]] = True
    return dataset.with_masks(train, val, test)


def substitute_features(dataset: Dataset, policy: str) -> Dataset:
    """Fill in features for a featureless dataset.

    "identity" assigns one-hot identity rows (D = n, an n x n array);
    "degree" assigns the node degree as a single column; "none" refuses
    substitution. Datasets that already carry features are returned
    unchanged. The linear model never calls this for "identity":
    ``model.compute_representations`` builds its feature block, the
    n x hidden_dim array A^K · P, without the identity; the mlp variants
    still get the n x n identity here.
    """
    if dataset.features is not None:
        return dataset
    if policy == "identity":
        return dataset.with_features(np.eye(dataset.n))
    if policy == "degree":
        return dataset.with_features(dataset.graph.deg.astype(np.float64)[:, None])
    if policy == "none":
        raise ValueError("dataset has no features and substitution policy is 'none'")
    raise ValueError(f"unknown feature policy {policy!r}")


def _with_self_loops(graph: Graph):
    """Column indices of A+I, row by row (neighbors plus the node itself)."""
    n = graph.n
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    row_ptr[1:] = np.cumsum(graph.deg + 1)
    nodes = np.arange(n)
    rows = np.concatenate([np.repeat(nodes, graph.deg), nodes])
    cols = np.concatenate([graph.col_idx, nodes])
    col = cols[np.lexsort((cols, rows))]
    return row_ptr, col


def sym_norm_adjacency(graph: Graph) -> SparseMatrix:
    """Self-loop-augmented symmetric normalization of the adjacency.

    Entry (v, u) = 1 / sqrt(d~_u * d~_v) for u in N(v) ∪ {v}, with
    d~ = deg + 1. An isolated node gets the single entry 1.0.
    """
    row_ptr, col = _with_self_loops(graph)
    dt = (graph.deg + 1).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(dt)
    rows = np.repeat(np.arange(graph.n), np.diff(row_ptr))
    values = inv_sqrt[rows] * inv_sqrt[col]
    return SparseMatrix(graph.n, graph.n, _frozen(row_ptr), _frozen(col), _frozen(values))


def jaccard_per_edge(edges: np.ndarray, labels: np.ndarray):
    """Jaccard similarity of endpoint label sets for each edge.

    Returns (jaccard, valid) where valid marks edges whose two endpoints both
    have nonempty label sets; jaccard is NaN on invalid edges.
    """
    y = labels.astype(bool)
    u, v = edges[:, 0], edges[:, 1]
    inter = (y[u] & y[v]).sum(axis=1).astype(np.float64)
    union = (y[u] | y[v]).sum(axis=1).astype(np.float64)
    nonempty = y.sum(axis=1) > 0
    valid = nonempty[u] & nonempty[v]
    jac = np.full(len(edges), np.nan)
    jac[valid] = inter[valid] / union[valid]
    return jac, valid


def label_homophily_stats(dataset: Dataset):
    """Mean edge Jaccard plus how many edges were counted vs. skipped.

    Edges touching a node with an empty label set are skipped (Jaccard is
    undefined there); the skipped count is reported alongside the value.
    """
    edges = dataset.graph.edge_array()
    if len(edges) == 0:
        raise UndefinedMetricError("label homophily is undefined on an edgeless graph")
    jac, valid = jaccard_per_edge(edges, dataset.labels)
    counted = int(valid.sum())
    if counted == 0:
        raise UndefinedMetricError("all edges touch empty label sets")
    return float(jac[valid].mean()), counted, int(len(edges) - counted)


def label_homophily(dataset: Dataset) -> float:
    """Average Jaccard similarity of endpoint label sets over all edges."""
    value, _, _ = label_homophily_stats(dataset)
    return value

