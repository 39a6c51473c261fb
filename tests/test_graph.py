import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnn_multifix import (
    Graph,
    label_homophily,
    label_homophily_stats,
    make_dataset,
    make_splits,
    substitute_features,
    sym_norm_adjacency,
)
from gnn_multifix import graph as graph_module
from gnn_multifix.errors import ShapeError, UndefinedMetricError
from gnn_multifix.graph import SparseMatrix, _with_self_loops

from conftest import (
    build_random_dataset,
    build_random_graph,
    clustering_coefficient,
    has_edge,
    label_set,
    row_major_matmul,
    row_sums,
    rw_transition,
    to_dense,
)


def test_from_edges_symmetrizes_and_dedups():
    g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert g.n_edges == 1
    assert list(g.deg) == [1, 1]
    assert has_edge(g, 0, 1) and has_edge(g, 1, 0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30), pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80))
def test_from_edges_matches_neighbor_set_reference(n, pairs):
    pairs = [(u % n, v % n) for u, v in pairs]
    neighbors = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            neighbors[u].add(v)
            neighbors[v].add(u)
    g = Graph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert g.row_ptr.dtype == g.col_idx.dtype == np.int64
    assert g.row_ptr.tolist() == np.cumsum([0] + [len(nb) for nb in neighbors]).tolist()
    assert g.col_idx.tolist() == [u for nb in neighbors for u in sorted(nb)]
    from_list = Graph.from_edges(n, pairs)
    assert np.array_equal(from_list.row_ptr, g.row_ptr) and np.array_equal(from_list.col_idx, g.col_idx)


def test_from_edges_drops_self_loops():
    g = Graph.from_edges(3, [(0, 0), (0, 1)])
    assert g.n_edges == 1
    assert list(g.deg) == [1, 1, 0]


def test_sym_norm_isolated_node():
    g = Graph.from_edges(1, [])
    assert np.allclose(to_dense(sym_norm_adjacency(g)), [[1.0]])


def test_sym_norm_path():
    g = Graph.from_edges(2, [(0, 1)])
    dense = to_dense(sym_norm_adjacency(g))
    assert dense == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)


def test_sym_norm_triangle():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    a = sym_norm_adjacency(g)
    assert a.values == pytest.approx(np.full(9, 1.0 / 3.0), abs=1e-12)


def test_sym_norm_symmetric_and_matches_pattern():
    g = build_random_graph(40, 120, seed=2)
    a = sym_norm_adjacency(g)
    dense = to_dense(a)
    assert np.allclose(dense, dense.T)
    # sparsity pattern equals A + I
    expected = np.zeros((40, 40), dtype=bool)
    for u, v in g.edge_array():
        expected[u, v] = expected[v, u] = True
    np.fill_diagonal(expected, True)
    assert np.array_equal(dense != 0, expected)


def test_rw_transition_rows_sum_to_one():
    g = build_random_graph(50, 150, seed=3)
    p = rw_transition(g)
    assert row_sums(p) == pytest.approx(np.ones(50), abs=1e-12)
    dense = to_dense(p)
    for v in range(50):
        nb = g.neighbors(v)
        assert dense[v, v] == pytest.approx(1.0 / (len(nb) + 1))


def test_rw_transition_isolated_and_path():
    assert np.allclose(to_dense(rw_transition(Graph.from_edges(1, []))), [[1.0]])
    p = to_dense(rw_transition(Graph.from_edges(2, [(0, 1)])))
    assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])


def test_label_homophily_jaccard_arithmetic():
    g = Graph.from_edges(2, [(0, 1)])
    labels = np.zeros((2, 4), dtype=np.int8)
    labels[0, [1, 2]] = 1
    labels[1, [2, 3]] = 1
    assert label_homophily(make_dataset(g, labels)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_label_homophily_identical_sets():
    ds = build_random_dataset(20, 3, seed=4)
    labels = np.tile(ds.labels[:1], (20, 1))
    same = make_dataset(ds.graph, labels)
    assert label_homophily(same) == pytest.approx(1.0)


def test_label_homophily_no_edges_is_undefined():
    ds = make_dataset(Graph.from_edges(3, []), np.ones((3, 2), dtype=np.int8))
    with pytest.raises(UndefinedMetricError):
        label_homophily(ds)


def test_label_homophily_skips_empty_label_sets():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    labels = np.zeros((3, 2), dtype=np.int8)
    labels[0, 0] = 1
    labels[1, 0] = 1
    # node 2 has no labels: the 1-2 edge is skipped and reported
    value, counted, skipped = label_homophily_stats(make_dataset(g, labels))
    assert value == pytest.approx(1.0)
    assert counted == 1 and skipped == 1


def _brute_force_homophily(dataset):
    total, count = 0.0, 0
    for u, v in dataset.graph.edge_array():
        su, sv = label_set(dataset, u), label_set(dataset, v)
        if not su or not sv:
            continue
        total += len(su & sv) / len(su | sv)
        count += 1
    return total / count


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_label_homophily_matches_brute_force(seed):
    ds = build_random_dataset(25, 4, seed=seed, ensure_nonempty=False)
    if ds.graph.n_edges == 0:
        return
    try:
        streaming = label_homophily(ds)
    except UndefinedMetricError:
        return
    assert streaming == pytest.approx(_brute_force_homophily(ds), abs=1e-12)


def test_clustering_triangle_and_star():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert clustering_coefficient(triangle) == pytest.approx(1.0)
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert clustering_coefficient(star) == pytest.approx(0.0)


def test_clustering_matches_brute_force():
    g = build_random_graph(30, 120, seed=9)
    dense = np.zeros((30, 30), dtype=bool)
    for u, v in g.edge_array():
        dense[u, v] = dense[v, u] = True
    expected = 0.0
    for v in range(30):
        nb = np.flatnonzero(dense[v])
        d = len(nb)
        if d < 2:
            continue
        tri = sum(dense[a, b] for i, a in enumerate(nb) for b in nb[i + 1 :])
        expected += tri / (d * (d - 1) / 2)
    expected /= 30
    assert clustering_coefficient(g) == pytest.approx(expected, abs=1e-12)


def test_sparse_matrix_rejects_empty_rows():
    # a middle and a trailing row without entries: reduceat cannot sum them
    for row_ptr in ([0, 3, 3, 4, 4], [0, 3, 4, 4, 4], [0, 0, 1, 2, 4]):
        with pytest.raises(ShapeError, match="no entries"):
            SparseMatrix(
                rows=4,
                cols=4,
                row_ptr=np.array(row_ptr),
                col_idx=np.array([0, 1, 3, 2]),
                values=np.array([1.0, 2.0, 3.0, 4.0]),
            )


@pytest.mark.parametrize("empty_rows", [False, True])
def test_matmul_dense_column_blocks_are_bit_identical(empty_rows):
    n = 61
    op = sym_norm_adjacency(build_random_graph(n, 400, seed=3))
    if empty_rows:
        # dropping every third row, the last one included, leaves empty rows,
        # which the operator refuses
        rows = np.repeat(np.arange(n), np.diff(op.row_ptr))
        keep = rows % 3 != 0
        row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=n))])
        with pytest.raises(ShapeError, match="no entries"):
            SparseMatrix(n, n, row_ptr, op.col_idx[keep], op.values[keep])
        return
    block = graph_module._MATMUL_TMP_BYTES // (8 * op.nnz)
    width = 3 * block + 5  # several blocks and a short last one
    X = np.random.default_rng(4).normal(size=(n, width))
    assert np.array_equal(op.matmul_dense(X), row_major_matmul(op, X))
    with pytest.raises(ShapeError, match="shape"):
        op.matmul_dense(X[:, 0])


@pytest.mark.parametrize("width", [256, 700])
def test_matmul_dense_temporary_is_no_larger_than_its_product(width):
    op = sym_norm_adjacency(build_random_graph(500, 2500, seed=4))
    X = np.random.default_rng(4).normal(size=(op.cols, width))
    tracemalloc.start()
    try:
        out = op.matmul_dense(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, row_major_matmul(op, X))
    # a block's nnz products stay under the cap and, past one column, under
    # the product; beside them live one block of X's or out's rows (at most
    # rows / nnz of the products) and a copy of the index
    block = max(op.nnz * 8, min(graph_module._MATMUL_TMP_BYTES, out.nbytes))
    assert peak - out.nbytes <= block * (1 + op.rows / op.nnz) + op.col_idx.nbytes + 4096


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(st.integers(1, 300), min_size=1, max_size=6),
    cols=st.integers(1, 40),
    block=st.integers(1, 5),
    width=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)]),
    layout=st.sampled_from(["C", "F", "sliced"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_dense_matches_row_major_oracle(counts, cols, block, width, layout, seed):
    # rows of up to 300 entries, which reduceat sums pairwise beyond 8; a
    # byte cap of nnz x block floats makes the kernel's blocks at most
    # `block` wide, and narrower where the product holds fewer floats
    rng = np.random.default_rng(seed)
    row_ptr = np.concatenate([[0], np.cumsum(counts)])
    rows = np.repeat(np.arange(len(counts)), counts)
    col_idx = rng.integers(0, cols, size=len(rows))
    col_idx = col_idx[np.lexsort((col_idx, rows))]
    values = rng.normal(size=len(rows)) * 10.0 ** rng.integers(-3, 4, size=len(rows))
    op = SparseMatrix(len(counts), cols, row_ptr, col_idx, values)
    w = width[0] * block + width[1]  # 1, block - 1, block, block + 1 or 3 blocks + 5
    if layout == "sliced":
        X = np.asfortranarray(rng.normal(size=(cols + 3, 2 * w + 1)))[2 : cols + 2, 1::2]
    else:
        X = np.asarray(rng.normal(size=(cols, w)), order=layout)
    with mock.patch.object(graph_module, "_MATMUL_TMP_BYTES", 8 * op.nnz * block):
        got = op.matmul_dense(X)
        assert np.array_equal(got, row_major_matmul(op, X))
    assert got.shape == (op.rows, *X.shape[1:])


def self_loops_row_by_row(graph):
    """Column indices of A+I, built with a Python loop over the nodes."""
    n = graph.n
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    row_ptr[1:] = np.cumsum(graph.deg + 1)
    col = np.empty(row_ptr[-1], dtype=np.int64)
    for v in range(n):
        nb = graph.neighbors(v)
        i = int(np.searchsorted(nb, v))
        s = row_ptr[v]
        col[s : s + i] = nb[:i]
        col[s + i] = v
        col[s + i + 1 : s + len(nb) + 1] = nb[i:]
    return row_ptr, col


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    n_edges=st.integers(0, 120),
    lead=st.integers(0, 3),
    trail=st.integers(0, 3),
    seed=st.integers(0, 10_000),
)
def test_self_loop_pattern_matches_row_by_row_reference(n, n_edges, lead, trail, seed):
    # lead and trail add isolated nodes before and after the random part
    inner = build_random_graph(n, n_edges, seed)
    graph = Graph.from_edges(lead + n + trail, inner.edge_array() + lead)
    row_ptr, col = _with_self_loops(graph)
    ref_ptr, ref_col = self_loops_row_by_row(graph)
    assert np.array_equal(row_ptr, ref_ptr) and row_ptr.dtype == ref_ptr.dtype
    assert np.array_equal(col, ref_col) and col.dtype == ref_col.dtype


def test_make_splits_sizes_and_determinism():
    ds = build_random_dataset(10, 2, seed=0)
    s1 = make_splits(ds, 0.6, 0.2, seed=7)
    assert (s1.train_mask.sum(), s1.val_mask.sum(), s1.test_mask.sum()) == (6, 2, 2)
    s2 = make_splits(ds, 0.6, 0.2, seed=7)
    assert np.array_equal(s1.train_mask, s2.train_mask)
    assert np.array_equal(s1.val_mask, s2.val_mask)
    assert np.array_equal(s1.test_mask, s2.test_mask)


def test_make_splits_varies_across_seeds():
    ds = build_random_dataset(10, 2, seed=0)
    base = make_splits(ds, 0.6, 0.2, seed=7)
    assert any(
        not np.array_equal(base.train_mask, make_splits(ds, 0.6, 0.2, seed=s).train_mask)
        for s in range(100)
    )


def test_make_splits_rejects_bad_fractions():
    ds = build_random_dataset(10, 2, seed=0)
    with pytest.raises(ValueError):
        make_splits(ds, 0.8, 0.3, seed=1)
    with pytest.raises(ValueError):
        make_splits(ds, 0.0, 0.2, seed=1)


def test_masks_must_be_disjoint():
    g = Graph.from_edges(2, [(0, 1)])
    mask = np.array([True, False])
    with pytest.raises(ValueError):
        make_dataset(g, np.ones((2, 1), np.int8), train_mask=mask, val_mask=mask)


def test_substitute_features_identity_and_degree():
    ds = build_random_dataset(5, 2, seed=1)
    ident = substitute_features(ds, "identity")
    assert np.array_equal(ident.features, np.eye(5))
    degree = substitute_features(ds, "degree")
    assert degree.features.shape == (5, 1)
    assert np.array_equal(degree.features[:, 0], ds.graph.deg.astype(float))
    with pytest.raises(ValueError):
        substitute_features(ds, "none")
    # datasets that already have features pass through untouched
    assert substitute_features(ident, "degree") is ident
