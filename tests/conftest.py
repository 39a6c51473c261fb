import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gnn_multifix import (
    TRAINED_BASELINES,
    Graph,
    SparseMatrix,
    compute_representations,
    make_dataset,
    make_splits,
    predict,
    train,
)
from gnn_multifix import graph as graph_module
from gnn_multifix import positional
from gnn_multifix.errors import DatasetParseError, GenerationInfeasibleError, UndefinedMetricError
from gnn_multifix.graph import _with_self_loops
from gnn_multifix.rng import substream


def trained_baseline_probs(dataset, config, method):
    """Probabilities of the TRAINED_BASELINES preset `method` fitted on dataset from config."""
    cfg = replace(config, **TRAINED_BASELINES[method])
    reps = compute_representations(dataset, cfg)
    model, _, _ = train(dataset, cfg, reps=reps)
    return predict(model, dataset, reps=reps)


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


def shrunk_window_pairs(corpus, window, seed):
    """The rows of corpus_pairs(corpus, window) that word2vec's shrunk window keeps.

    Full walk r draws reach[r, p] in 1..window for each position p, and a
    center at position p keeps the contexts at offsets 1..reach[r, p]. The
    loop walks corpus_pairs' own order: full walk by full walk, offset by
    offset, the forward pairs (center p, context p + off) and then the
    reversed ones (center p + off, context p).
    """
    pairs = positional.corpus_pairs(corpus, window)
    rows, L = corpus.walks.shape
    reach = substream(seed, "sgns-window").integers(1, window + 1, size=(rows, L))
    keep = []
    for r in range(rows):
        for off in range(1, min(window, L - 1) + 1):
            for shift in (0, off):
                keep += [off <= reach[r, p + shift] for p in range(L - off)]
    return pairs[np.array(keep, dtype=bool)]


def pair_array_skipgram(corpus, n, dim, window, neg_samples, epochs, lr, seed,
                        batch_size=positional.BATCH_SIZE):
    """train_skipgram(..., return_trace=True) by the loop that the streamed epoch replaced.

    It builds every kept pair as one shrunk_window_pairs array, draws each
    epoch's order with Generator.permutation of an arange of the pairs'
    dtype, and indexes each batch out of the array.
    """
    batch_size = max(64, min(batch_size, 4 * n))
    emb_in = positional.initial_embedding(n, dim, seed)
    emb_out = np.zeros((n, dim), dtype=emb_in.dtype)
    pairs = shrunk_window_pairs(corpus, window, seed)
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


def three_buffer_apply_batch(emb_in, emb_out, c, x, negatives, weight, lr):
    """positional._apply_batch by the step that the two-buffer one replaced.

    It forms the center step in a third (B, d) buffer and scatters it into
    emb_in first; emb_out then takes the context rows and the negative rows.
    """
    rows = (len(c), emb_in.shape[1])
    w = {name: np.empty(rows, dtype=emb_in.dtype) for name in ("vc", "ux", "step_vc")}
    w["s_neg"] = np.empty((len(c), positional.SHARED_NEGATIVES), dtype=emb_in.dtype)
    cells = max(len(c), positional.SHARED_NEGATIVES) * positional._cell_width(rows[1])
    idx = np.empty(cells, dtype=np.int64)
    vc = np.take(emb_in, c, axis=0, out=w["vc"], mode="clip")
    ux = np.take(emb_out, x, axis=0, out=w["ux"], mode="clip")
    us = emb_out[negatives]

    dots = np.einsum("ij,ij->i", vc, ux)
    g_pos = positional._sigmoid(np.negative(dots, out=dots), out=dots)
    g_pos *= lr
    s_neg = positional._sigmoid(np.matmul(vc, us.T, out=w["s_neg"]), out=w["s_neg"])
    s_neg *= -lr * weight

    step_us = s_neg.T @ vc
    step_vc = np.matmul(s_neg, us, out=w["step_vc"])
    ux *= g_pos[:, None]
    step_vc += ux
    vc *= g_pos[:, None]
    positional._scatter_add(emb_in, c, step_vc, idx)
    positional._scatter_add(emb_out, x, vc, idx)
    positional._scatter_add(emb_out, negatives, step_us, idx)


def has_edge(graph, u, v):
    """Whether u and v are adjacent, by a binary search of u's neighbor list."""
    nb = graph.neighbors(u)
    i = np.searchsorted(nb, v)
    return i < len(nb) and nb[i] == v


def label_set(dataset, v):
    """The labels of node v, as a set of label indices."""
    return set(np.flatnonzero(dataset.labels[v]).tolist())


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


def scan_feature_file(path):
    """The rows of a feature CSV as float lists, read line by line.

    Blank lines are skipped; any other line must hold comma-separated values
    that float() accepts, as many as the first row, or DatasetParseError
    names it. A non-finite value is refused at its line once every line has
    been read.
    """
    rows, non_finite = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            try:
                row = [float(t) for t in line.split(",")]
            except ValueError:
                raise DatasetParseError(path, line_no, f"non-numeric feature value in {line!r}") from None
            if rows and len(row) != len(rows[0]):
                raise DatasetParseError(path, line_no, f"row has {len(row)} columns, expected {len(rows[0])}")
            if non_finite is None and not all(math.isfinite(v) for v in row):
                non_finite = line_no
            rows.append(row)
    if not rows:
        raise DatasetParseError(path, 1, "empty feature file")
    if non_finite is not None:
        raise DatasetParseError(path, non_finite, "non-finite feature value")
    return rows


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


def reference_homophily_search(build, target, m_target, tolerance=0.02):
    """The achieved homophily of the two-loop search generate_graph once ran.

    build(beta, m) returns the homophily of an m-edge graph drawn at
    exponent beta. Tuning bisects on min(m_target, 30000) edges toward half
    the tolerance; a full-size graph off by more than 0.75 of it is refined
    for 20 more steps, each narrowing by the last result before its build.
    A final miss beyond the tolerance raises GenerationInfeasibleError.
    """
    m_tune = min(m_target, 30000)
    lo_b, hi_b = -40.0, 40.0
    for _ in range(50):
        beta = 0.5 * (lo_b + hi_b)
        achieved = build(beta, m_tune)
        if abs(achieved - target) <= 0.5 * tolerance:
            break
        if achieved < target:
            lo_b = beta
        else:
            hi_b = beta
    if m_tune < m_target:
        achieved = build(beta, m_target)
    if abs(achieved - target) > 0.75 * tolerance:
        for _ in range(20):
            if achieved < target:
                lo_b = beta
            else:
                hi_b = beta
            beta = 0.5 * (lo_b + hi_b)
            achieved = build(beta, m_target)
            if abs(achieved - target) <= 0.75 * tolerance:
                break
        if abs(achieved - target) > tolerance:
            raise GenerationInfeasibleError(target, achieved)
    return achieved


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


@pytest.fixture
def previous_operand_alive(monkeypatch):
    """Spy on SparseMatrix.matmul_dense, holding only a weakref to each operand.

    Returns a list that gains one entry at every hop after the first: whether
    the previous hop's operand was still alive when this hop began.
    """
    seen, alive = [], []
    matmul_dense = SparseMatrix.matmul_dense

    def spy(self, X):
        if seen:
            alive.append(seen[-1]() is not None)
        seen.append(weakref.ref(X))
        return matmul_dense(self, X)

    monkeypatch.setattr(SparseMatrix, "matmul_dense", spy)
    return alive
