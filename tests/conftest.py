import numpy as np
import pytest

from gnn_multifix import Graph, SparseMatrix, make_dataset, make_splits
from gnn_multifix.graph import _with_self_loops


def rw_transition(graph):
    """Uniform random-walk transition operator over A+I.

    Entry (v, u) = 1 / (deg[v] + 1) for u in N(v) ∪ {v}; rows sum to 1.
    """
    row_ptr, col = _with_self_loops(graph)
    dt = (graph.deg + 1).astype(np.float64)
    rows = np.repeat(np.arange(graph.n), np.diff(row_ptr))
    return SparseMatrix(graph.n, graph.n, row_ptr, col, 1.0 / dt[rows])


def to_dense(m):
    """The n x n dense form of a SparseMatrix."""
    d = np.zeros((m.rows, m.cols), dtype=np.float64)
    rows = np.repeat(np.arange(m.rows), np.diff(m.row_ptr))
    d[rows, m.col_idx] = m.values
    return d


def row_sums(m):
    """The sum of each row of a SparseMatrix."""
    out = np.zeros(m.rows, dtype=np.float64)
    np.add.at(out, np.repeat(np.arange(m.rows), np.diff(m.row_ptr)), m.values)
    return out


def dense_propagation_oracle(P, Y_padded, N):
    """Reference result P^N @ Y by dense repeated multiplication.

    Independent check for the sparse propagation path: with a row-stochastic
    P and zero rows for unlabeled nodes, every output row is a convex
    combination of training-node label rows reachable within N hops.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    dense = to_dense(P)
    out = np.asarray(Y_padded, dtype=np.float64).copy()
    for _ in range(N):
        out = dense @ out
    return out


def build_random_graph(n, n_edges, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(n_edges, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return Graph.from_edges(n, pairs)


def build_random_dataset(n, n_labels, seed, n_edges=None, density=0.3, ensure_nonempty=True):
    rng = np.random.default_rng(seed)
    graph = build_random_graph(n, n_edges if n_edges is not None else 3 * n, seed + 1)
    labels = (rng.random((n, n_labels)) < density).astype(np.int8)
    if ensure_nonempty:
        empty = labels.sum(axis=1) == 0
        labels[empty, rng.integers(0, n_labels, size=int(empty.sum()))] = 1
    return make_dataset(graph, labels)


def build_two_clique_dataset(clique_size=10):
    """Two disjoint cliques; clique A labeled {0}, clique B labeled {1}."""
    edges = []
    for base in (0, clique_size):
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
    n = 2 * clique_size
    labels = np.zeros((n, 2), dtype=np.int8)
    labels[:clique_size, 0] = 1
    labels[clique_size:, 1] = 1
    return make_dataset(Graph.from_edges(n, edges), labels)


def build_twin_path_dataset():
    """Path a-u-c-v-b with a reversal symmetry swapping the twins u and v.

    Nodes 0(a) and 4(b) are train with different single labels, 2(c) is
    validation, and the twins 1(u) and 3(v) are test.
    """
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    labels = np.zeros((5, 2), dtype=np.int8)
    labels[0, 0] = 1
    labels[4, 1] = 1
    labels[2, 0] = 1
    train = np.array([True, False, False, False, True])
    val = np.array([False, False, True, False, False])
    test = np.array([False, True, False, True, False])
    return make_dataset(graph, labels, train_mask=train, val_mask=val, test_mask=test)


@pytest.fixture
def two_clique_split():
    ds = build_two_clique_dataset()
    return make_splits(ds, 0.6, 0.2, seed=5)
