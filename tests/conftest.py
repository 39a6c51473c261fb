import numpy as np
import pytest

from gnn_multifix import Graph, SparseMatrix, make_dataset, make_splits
from gnn_multifix import graph as graph_module
from gnn_multifix import positional
from gnn_multifix.errors import DatasetParseError, UndefinedMetricError
from gnn_multifix.graph import _with_self_loops
from gnn_multifix.rng import substream


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


def row_major_matmul(m, X):
    """m @ X by the row-major column-block kernel that SparseMatrix.matmul_dense replaced.

    Each block gathers the rows X[col_idx, block], scales them by the values
    and sums each row's segment along axis 0.
    """
    X = np.asarray(X, dtype=np.float64)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    out = np.zeros((m.rows, X.shape[1]), dtype=np.float64)
    if m.nnz:
        width = max(1, graph_module._MATMUL_TMP_BYTES // (8 * m.nnz))
        for j in range(0, X.shape[1], width):
            block = slice(j, j + width)
            contrib = m.values[:, None] * X[m.col_idx, block]
            out[:, block] = np.add.reduceat(contrib, m.row_ptr[:-1], axis=0)
    return out[:, 0] if squeeze else out


def pair_array_skipgram(corpus, n, dim, window, neg_samples, epochs, lr, seed, batch_size=4096):
    """train_skipgram(..., return_trace=True) by the loop that the streamed epoch replaced.

    It builds every pair as one corpus_pairs array, draws each epoch's order
    with Generator.permutation of an arange of the pairs' dtype, and indexes
    each batch out of the array.
    """
    batch_size = max(64, min(batch_size, 4 * n))
    emb_in = positional.initial_embedding(n, dim, seed)
    emb_out = np.zeros((n, dim), dtype=emb_in.dtype)
    pairs = positional.corpus_pairs(corpus, window)
    trace = {}
    if len(pairs) > 0:
        cdf = np.cumsum(positional.unigram_table(corpus, n))
        cdf[-1] = 1.0
        m_eval = min(len(pairs), 20000)
        eval_neg = positional._sample_negatives(
            substream(seed, "sgns-eval"), cdf, (m_eval, neg_samples)
        )
        eval_c, eval_x = pairs[:m_eval, 0], pairs[:m_eval, 1]
        trace["initial_loss"] = positional._pair_loss(
            emb_in, emb_out, eval_c, eval_x, eval_neg, batch_size
        )
        n_batches_per_epoch = (len(pairs) + batch_size - 1) // batch_size
        total_batches = max(1, epochs * n_batches_per_epoch)
        weight = neg_samples / positional.SHARED_NEGATIVES
        work = positional._batch_workspace(batch_size, dim, emb_in.dtype)
        done = 0
        for epoch in range(epochs):
            order = substream(seed, "sgns-order", epoch).permutation(
                np.arange(len(pairs), dtype=pairs.dtype)
            )
            neg_rng = substream(seed, "sgns-neg", epoch)
            for j, i in enumerate(range(0, len(order), batch_size)):
                batch = pairs[order[i : i + batch_size]]
                rate = max(lr * (1.0 - (done + j) / total_batches), lr * 1e-3)
                negs = positional._sample_negatives(neg_rng, cdf, positional.SHARED_NEGATIVES)
                positional._apply_batch(
                    emb_in, emb_out, batch[:, 0], batch[:, 1], negs, weight, rate, work
                )
            done += n_batches_per_epoch
        trace["final_loss"] = positional._pair_loss(
            emb_in, emb_out, eval_c, eval_x, eval_neg, batch_size
        )
    trace["emb_out"] = emb_out
    trace["n_pairs"] = int(len(pairs))
    return emb_in.astype(np.float64), trace


def clustering_coefficient(graph):
    """Mean local clustering coefficient; nodes with degree < 2 contribute 0."""
    if graph.n == 0:
        raise UndefinedMetricError("clustering coefficient of the empty graph")
    mark = np.zeros(graph.n, dtype=bool)
    total = 0.0
    for v in range(graph.n):
        nb = graph.neighbors(v)
        d = len(nb)
        if d < 2:
            continue
        mark[nb] = True
        links = 0
        for u in nb:
            links += int(mark[graph.neighbors(u)].sum())
        mark[nb] = False
        # each triangle edge among neighbors is seen twice in the loop above
        total += links / (d * (d - 1))
    return total / graph.n


def scan_edge_file(path):
    """The edge list of a file as (u, v) tuples, read line by line.

    Blank lines and lines whose first non-blank character is '#' are
    skipped; any other line must hold two whitespace-separated ids that
    int() accepts and that are not negative, or DatasetParseError names it.
    """
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DatasetParseError(path, line_no, f"expected 'u<TAB>v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetParseError(path, line_no, f"non-integer node id in {line!r}") from None
            if u < 0 or v < 0:
                raise DatasetParseError(path, line_no, "node ids must be non-negative")
            edges.append((u, v))
    return edges


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
