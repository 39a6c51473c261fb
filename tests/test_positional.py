import collections
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnn_multifix import (
    Graph,
    generate_walks,
    positional_distinguishability,
    train_skipgram,
)
from gnn_multifix import positional
from gnn_multifix.positional import (
    SHARED_NEGATIVES,
    PairTable,
    WalkCorpus,
    _apply_batch,
    _batch_workspace,
    _cell_width,
    _pair_loss,
    _scatter_add,
    _sigmoid,
    corpus_pairs,
    initial_embedding,
    kept_pairs,
    unigram_table,
)
from gnn_multifix.rng import substream

from conftest import build_random_graph, pair_array_skipgram


def clique_edges(nodes):
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]


def walk_lists(corpus):
    """The full walks of the corpus as lists, then the walks that stop at once."""
    return corpus.walks.tolist() + [[v] for v in corpus.isolated.tolist()]


def split_by_start(graph, walks):
    """Walks as lists: those whose start node has a neighbor, then the rest.

    Each part keeps its corpus order. At walk_len 1 every walk has length 1,
    so the split is by the start node, not by the length.
    """
    moving = [graph.deg[w[0]] > 0 for w in walks]
    return ([w.tolist() for w, m in zip(walks, moving) if m]
            + [w.tolist() for w, m in zip(walks, moving) if not m])


def test_isolated_node_walk_has_length_one():
    g = Graph.from_edges(1, [])
    corpus = generate_walks(g, walk_len=10, walks_per_node=1, seed=0)
    assert walk_lists(corpus) == [[0]]


def test_path_walk_is_forced():
    g = Graph.from_edges(2, [(0, 1)])
    corpus = generate_walks(g, walk_len=3, walks_per_node=1, seed=0)
    by_start = {w[0]: w for w in walk_lists(corpus)}
    assert by_start[0] == [0, 1, 0]
    assert by_start[1] == [1, 0, 1]


def test_triangle_second_step_is_uniform():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    corpus = generate_walks(g, walk_len=2, walks_per_node=10_000, seed=3)
    seconds = corpus.walks[corpus.walks[:, 0] == 0, 1].tolist()
    freq = collections.Counter(seconds)
    assert len(seconds) == 10_000
    for nxt in (1, 2):
        assert abs(freq[nxt] / 10_000 - 0.5) < 0.02


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_walk_steps_are_edges(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = build_random_graph(n, 2 * n, seed)
    corpus = generate_walks(g, walk_len=8, walks_per_node=2, seed=seed)
    assert len(corpus.walks) + len(corpus.isolated) == 2 * n
    for walk in walk_lists(corpus):
        for a, b in zip(walk[:-1], walk[1:]):
            assert g.has_edge(int(a), int(b))


def test_walks_and_embeddings_are_deterministic():
    g = build_random_graph(20, 50, seed=4)
    c1 = generate_walks(g, 10, 5, seed=9)
    c2 = generate_walks(g, 10, 5, seed=9)
    assert np.array_equal(c1.walks, c2.walks)
    assert np.array_equal(c1.isolated, c2.isolated)
    e1 = train_skipgram(c1, 20, 8, 5, 5, 2, 0.025, seed=9)
    e2 = train_skipgram(c2, 20, 8, 5, 5, 2, 0.025, seed=9)
    assert np.array_equal(e1, e2)


def test_empty_corpus_rejected():
    empty = WalkCorpus(np.empty((0, 10), dtype=np.int32), np.empty(0, dtype=np.int32))
    with pytest.raises(ValueError):
        train_skipgram(empty, 5, 8, 5, 5, 1, 0.025, seed=0)


def test_corpus_with_nodes_beyond_n_rejected():
    g = build_random_graph(6, 12, seed=1)
    corpus = generate_walks(g, walk_len=4, walks_per_node=1, seed=1)
    with pytest.raises(ValueError):
        train_skipgram(corpus, 3, 8, 5, 5, 1, 0.025, seed=1)


def test_corpus_with_negative_node_ids_rejected():
    g = build_random_graph(6, 12, seed=1)
    corpus = generate_walks(g, walk_len=4, walks_per_node=1, seed=1)
    walks = corpus.walks.copy()
    walks[0, 2] = -3
    for bad in (WalkCorpus(walks, corpus.isolated), WalkCorpus(corpus.walks, np.array([-1]))):
        with pytest.raises(ValueError, match="outside"):
            train_skipgram(bad, 6, 8, 5, 5, 1, 0.025, seed=1)


def test_pair_table_views_the_corpus_walks():
    # a 30-ring and node 30 with no neighbor, whose walks stop at once
    g = Graph.from_edges(31, [(v, (v + 1) % 30) for v in range(30)])
    corpus = generate_walks(g, 10, 2, seed=3)
    assert corpus.isolated.tolist() == [30, 30]
    assert corpus.walks.dtype == np.int32
    assert (corpus.walks >= 0).all()
    assert np.shares_memory(PairTable(corpus, 5).walks, corpus.walks)


def test_single_length_one_walk_keeps_initialization():
    g = Graph.from_edges(1, [])
    corpus = generate_walks(g, walk_len=5, walks_per_node=1, seed=2)
    emb = train_skipgram(corpus, 1, 8, 5, 5, 3, 0.025, seed=2)
    assert np.array_equal(emb, initial_embedding(1, 8, seed=2))


def test_two_cliques_separate():
    edges = clique_edges(range(5)) + clique_edges(range(5, 10))
    g = Graph.from_edges(10, edges)
    wins = 0
    for seed in range(5):
        corpus = generate_walks(g, 10, 10, seed)
        emb = train_skipgram(corpus, 10, 16, 5, 5, 5, 0.025, seed)
        v = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        cos = v @ v.T
        intra = np.mean([cos[i, j] for i in range(10) for j in range(10) if i != j and (i < 5) == (j < 5)])
        inter = np.mean([cos[i, j] for i in range(5) for j in range(5, 10)])
        wins += intra > inter
    assert wins >= 3


def test_barbell_clique_centers_farther_than_intra():
    left, right = list(range(6)), list(range(16, 22))
    path = list(range(6, 16))
    chain = [5] + path + [16]
    edges = clique_edges(left) + clique_edges(right) + list(zip(chain[:-1], chain[1:]))
    g = Graph.from_edges(22, edges)
    wins = 0
    for seed in range(5):
        corpus = generate_walks(g, 10, 10, seed)
        emb = train_skipgram(corpus, 22, 16, 5, 5, 5, 0.025, seed)
        between = np.linalg.norm(emb[2] - emb[18])
        inside = np.linalg.norm(emb[2] - emb[3])
        wins += between > inside
    assert wins >= 4


def test_path_leaves_farther_than_adjacent_pairs():
    g = Graph.from_edges(20, list(zip(range(19), range(1, 20))))
    wins = 0
    for seed in range(5):
        corpus = generate_walks(g, 10, 10, seed)
        emb = train_skipgram(corpus, 20, 16, 5, 5, 5, 0.025, seed)
        leaves = positional_distinguishability(emb, 0, 19)
        adjacent = np.median(
            [np.linalg.norm(emb[i] - emb[i + 1]) for i in range(19)]
        )
        wins += leaves > adjacent
    assert wins >= 4


def test_training_reduces_corpus_loss():
    g = build_random_graph(30, 90, seed=6)
    corpus = generate_walks(g, 10, 10, seed=6)
    _, trace = train_skipgram(corpus, 30, 16, 5, 5, 5, 0.025, seed=6, return_trace=True)
    assert trace["final_loss"] <= trace["initial_loss"]


def test_cooccurrence_aligns_with_dot_products():
    # trained similarity should rise with how often two nodes co-occur
    # inside the walk window
    for seed in (0, 1, 2):
        g = build_random_graph(30, 60, seed=100 + seed)
        corpus = generate_walks(g, 10, 10, seed=seed)
        emb = train_skipgram(corpus, 30, 16, 5, 5, 5, 0.025, seed=seed)
        pairs = corpus_pairs(corpus, window=5)
        counts = collections.Counter((min(a, b), max(a, b)) for a, b in pairs.tolist())
        rng = np.random.default_rng(seed)
        sample = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        dots = np.array([emb[u] @ emb[v] for u, v in sample])
        cooc = np.array([counts.get((u, v), 0) for u, v in sample], dtype=float)
        r = np.corrcoef(cooc, dots)[0, 1]
        assert r > 0


def test_distinguishability_values():
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert positional_distinguishability(emb, 0, 1) == pytest.approx(np.sqrt(2))
    same = np.zeros((2, 2))
    assert positional_distinguishability(same, 0, 1) == 0.0
    with pytest.raises(ValueError):
        positional_distinguishability(emb, 1, 1)


# Reference implementations: the per-walk walker that the array corpus
# replaces, which the package must reproduce bit for bit, and a pair-by-pair
# loop of the shared-negative update.


def reference_walks(graph, walk_len, walks_per_node, seed):
    steps = substream(seed, "walks").random((graph.n, walks_per_node, walk_len - 1))
    per_node = []
    for v in range(graph.n):
        walks_v = []
        for p in range(walks_per_node):
            walk = [v]
            cur = v
            for u in steps[v, p]:
                nb = graph.neighbors(cur)
                if len(nb) == 0:
                    break
                cur = int(nb[int(u * len(nb))])
                walk.append(cur)
            walks_v.append(np.asarray(walk, dtype=np.int64))
        per_node.append(walks_v)
    walks = []
    for p in range(walks_per_node):
        order = substream(seed, "walk-order", p).permutation(graph.n)
        walks.extend(per_node[v][p] for v in order)
    return walks


def reference_pairs(walks, window):
    chunks = []
    for walk in walks:
        L = len(walk)
        if L < 2:
            continue
        for off in range(1, min(window, L - 1) + 1):
            a, b = walk[:-off], walk[off:]
            chunks.append(np.column_stack([a, b]))
            chunks.append(np.column_stack([b, a]))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks)


def reference_unigram(walks, n, power=0.75):
    counts = np.zeros(n, dtype=np.float64)
    for walk in walks:
        np.add.at(counts, walk, 1.0)
    weights = counts**power
    return weights / weights.sum()


def reference_shared_negative_step(emb_in, emb_out, batch_pairs, negatives, weight, lr):
    """One step of the shared-negative update, pair by pair and negative by
    negative, with every gradient taken at the batch's starting point."""
    in0, out0 = emb_in.copy(), emb_out.copy()
    for c, x in batch_pairs.tolist():
        v = in0[c]
        g = 1.0 / (1.0 + math.exp(-(v @ out0[x]))) - 1.0
        emb_in[c] -= lr * g * out0[x]
        emb_out[x] -= lr * g * v
        for z in negatives.tolist():
            h = weight / (1.0 + math.exp(-(v @ out0[z])))
            emb_in[c] -= lr * h * out0[z]
            emb_out[z] -= lr * h * v


def shared_negative_objective(emb_in, emb_out, batch_pairs, negatives, weight):
    """sum_i [-log σ(v_ci·u_xi) - weight Σ_s log σ(-v_ci·u_s)]."""
    vc = emb_in[batch_pairs[:, 0]]
    pos = np.einsum("ij,ij->i", vc, emb_out[batch_pairs[:, 1]])
    neg = vc @ emb_out[negatives].T
    return np.logaddexp(0.0, -pos).sum() + weight * np.logaddexp(0.0, neg).sum()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_walk_corpus_matches_per_walk_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    # few edges, so isolated nodes are common
    g = build_random_graph(n, int(rng.integers(0, 2 * n)), seed)
    walk_len = int(rng.integers(1, 9))
    walks_per_node = int(rng.integers(1, 4))
    corpus = generate_walks(g, walk_len, walks_per_node, seed)
    ref = reference_walks(g, walk_len, walks_per_node, seed)

    moving = sum(g.deg[w[0]] > 0 for w in ref)
    assert corpus.walks.shape == (moving, walk_len)
    assert corpus.isolated.shape == (n * walks_per_node - moving,)
    assert corpus.walks.dtype == corpus.isolated.dtype == np.int32
    assert walk_lists(corpus) == split_by_start(g, ref)
    for window in (1, 3, 5):
        assert np.array_equal(corpus_pairs(corpus, window), reference_pairs(ref, window))
    assert np.array_equal(unigram_table(corpus, n), reference_unigram(ref, n))


def test_shared_negative_update_matches_pair_by_pair_loop():
    # a 7-node vocabulary, so every row takes many updates per batch, and
    # the shared negatives repeat and coincide with centers and contexts
    n, dim, batch_size = 7, 8, 64
    weight = 5 / SHARED_NEGATIVES
    rng = np.random.default_rng(5)
    emb_in = (rng.random((n, dim)) - 0.5) / dim
    emb_out = rng.random((n, dim)) * 0.1
    ref_in, ref_out = emb_in.copy(), emb_out.copy()
    work = _batch_workspace(batch_size, dim)
    for m, lr in ((64, 0.025), (64, 0.02), (23, 0.015), (64, 0.01)):
        pairs = rng.integers(0, n, (m, 2))
        negs = rng.integers(0, n, SHARED_NEGATIVES)
        assert len(np.unique(negs)) < SHARED_NEGATIVES
        _apply_batch(emb_in, emb_out, pairs[:, 0], pairs[:, 1], negs, weight, lr, work)
        reference_shared_negative_step(ref_in, ref_out, pairs, negs, weight, lr)
        assert np.abs(emb_in - ref_in).max() < 1e-12
        assert np.abs(emb_out - ref_out).max() < 1e-12


def test_float32_shared_negative_update_matches_pair_by_pair_loop():
    # the float64 oracle, started from the float32 tables, against the
    # float32 step. The tables stay below 0.25 in magnitude, so 8 float32
    # epsilons (about 1e-6) allow a few dozen roundings of each cell over the
    # four steps, while one step moves cells by about 1e-3.
    n, dim, batch_size = 7, 8, 64
    weight = 5 / SHARED_NEGATIVES
    bound = 8 * np.finfo(np.float32).eps
    rng = np.random.default_rng(5)
    emb_in = ((rng.random((n, dim)) - 0.5) / dim).astype(np.float32)
    emb_out = (rng.random((n, dim)) * 0.1).astype(np.float32)
    ref_in, ref_out = emb_in.astype(np.float64), emb_out.astype(np.float64)
    work = _batch_workspace(batch_size, dim, np.float32)
    for m, lr in ((64, 0.025), (64, 0.02), (23, 0.015), (64, 0.01)):
        pairs = rng.integers(0, n, (m, 2))
        negs = rng.integers(0, n, SHARED_NEGATIVES)
        _apply_batch(emb_in, emb_out, pairs[:, 0], pairs[:, 1], negs, weight, lr, work)
        reference_shared_negative_step(ref_in, ref_out, pairs, negs, weight, lr)
        assert emb_in.dtype == emb_out.dtype == np.float32
        assert np.abs(emb_in - ref_in).max() < bound
        assert np.abs(emb_out - ref_out).max() < bound


def test_skipgram_trains_float32_and_returns_float64():
    g = build_random_graph(30, 90, seed=6)
    corpus = generate_walks(g, 10, 5, seed=6)
    emb, trace = train_skipgram(corpus, 30, 16, 5, 5, 2, 0.025, seed=6, return_trace=True)
    assert emb.dtype == np.float64
    assert trace["emb_out"].dtype == np.float32
    assert np.array_equal(emb.astype(np.float32).astype(np.float64), emb)
    assert not np.array_equal(emb, initial_embedding(30, 16, seed=6))


def test_float32_sigmoid_saturates_without_overflow():
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=np.float32)
    with np.errstate(over="raise"):
        y = _sigmoid(x)
    assert y.dtype == np.float32
    assert ((y >= 0) & (y <= 1)).all()
    assert y[2] == 0.5 and y[-1] == 1.0 and y[0] < 1e-30


def test_one_pass_scatter_index_matches_two_pass():
    # width 6 scatters column pairs as complex cells; width 5 single columns
    rng = np.random.default_rng(3)
    for width, dtype in itertools.product((5, 6), (np.float64, np.float32)):
        table = rng.normal(size=(9, width)).astype(dtype)
        rows = rng.integers(0, 9, 40).astype(np.int32)
        updates = rng.normal(size=(40, width)).astype(dtype)
        two_pass = table.copy()
        idx = np.empty((40, width), dtype=np.int64)
        np.multiply(rows[:, None], width, out=idx, dtype=np.int64)
        idx += np.arange(width)
        np.add.at(two_pass.reshape(-1), idx.reshape(-1), updates.reshape(-1))
        one_pass = table.copy()
        cells = _cell_width(width)
        assert cells == (3 if width == 6 else 5)
        _scatter_add(one_pass, rows, updates, np.empty(40 * cells, dtype=np.int64))
        assert one_pass.tobytes() == two_pass.tobytes()


def test_shared_negative_update_descends_the_batch_objective():
    # the step is -lr times the gradient of the batch objective, checked by
    # central differences in every cell of both tables
    n, dim, m, lr, h = 7, 4, 23, 0.01, 1e-6
    weight = 5 / SHARED_NEGATIVES
    rng = np.random.default_rng(11)
    emb_in = rng.normal(size=(n, dim)) * 0.5
    emb_out = rng.normal(size=(n, dim)) * 0.5
    pairs = rng.integers(0, n, (m, 2))
    negs = rng.integers(0, n, SHARED_NEGATIVES)
    new_in, new_out = emb_in.copy(), emb_out.copy()
    _apply_batch(
        new_in, new_out, pairs[:, 0], pairs[:, 1], negs, weight, lr, _batch_workspace(64, dim)
    )
    for table, updated in ((emb_in, new_in), (emb_out, new_out)):
        grad = np.zeros_like(table)
        for idx in np.ndindex(table.shape):
            saved = table[idx]
            f = []
            for step in (h, -h):
                table[idx] = saved + step
                f.append(shared_negative_objective(emb_in, emb_out, pairs, negs, weight))
            table[idx] = saved
            grad[idx] = (f[0] - f[1]) / (2 * h)
        np.testing.assert_allclose((updated - table) / -lr, grad, rtol=1e-6, atol=1e-8)


def test_int32_pairs_train_the_same_bytes_as_int64(monkeypatch):
    g = build_random_graph(40, 120, seed=7)
    corpus = generate_walks(g, 10, 5, seed=7)
    assert corpus_pairs(corpus, 5).dtype == np.int32
    assert PairTable(corpus, 5).walks.dtype == np.int32
    narrow = train_skipgram(corpus, 40, 16, 5, 5, 2, 0.025, seed=7)
    # int64 walks and int64 epoch order: the corpus picks the walks' dtype
    monkeypatch.setattr(positional, "_index_dtype", lambda top: np.int64)
    wide_corpus = generate_walks(g, 10, 5, seed=7)
    assert PairTable(wide_corpus, 5).walks.dtype == np.int64
    wide = train_skipgram(wide_corpus, 40, 16, 5, 5, 2, 0.025, seed=7)
    assert narrow.tobytes() == wide.tobytes()


def test_chunked_pair_loss_matches_one_pass_formula():
    n, dim, k, m = 30, 8, 5, 1000
    rng = np.random.default_rng(8)
    emb_in = rng.normal(size=(n, dim)) * 0.3
    emb_out = rng.normal(size=(n, dim)) * 0.3
    centers, contexts = rng.integers(0, n, m), rng.integers(0, n, m)
    negatives = rng.integers(0, n, (m, k))
    pos = _sigmoid(np.einsum("ij,ij->i", emb_in[centers], emb_out[contexts]))
    neg = _sigmoid(-np.einsum("ij,ikj->ik", emb_in[centers], emb_out[negatives]))
    expected = -(np.log(pos + 1e-12).sum() + np.log(neg + 1e-12).sum()) / m
    for chunk in (1, 7, 64, 999, 1000, 4096):
        got = _pair_loss(emb_in, emb_out, centers, contexts, negatives, chunk)
        assert abs(got - expected) < 1e-12


# The streamed epoch against the pair-array loop it replaced: pairs decoded
# per batch from the walks, and an in-place shuffle of the pair indices.


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    walk_len=st.integers(1, 12),
    window_extra=st.integers(0, 12),
    walks_per_node=st.integers(1, 3),
    epochs=st.integers(1, 3),
    dim=st.integers(2, 9),
    batch_size=st.integers(1, 300),
)
# 33 nodes, 11 of them isolated; 1056 pairs in batches of 100
@example(seed=2, walk_len=6, window_extra=2, walks_per_node=2, epochs=2, dim=6, batch_size=100)
def test_streamed_skipgram_matches_pair_array_loop(
    seed, walk_len, window_extra, walks_per_node, epochs, dim, batch_size
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    # few edges, so isolated nodes are common
    g = build_random_graph(n, int(rng.integers(0, 2 * n)), seed)
    window = 1 + window_extra % (walk_len + 1)
    corpus = generate_walks(g, walk_len, walks_per_node, seed)
    args = (corpus, n, dim, window, 5, epochs, 0.025, seed)
    with mock.patch.object(positional, "BATCH_SIZE", batch_size):
        emb, trace = train_skipgram(*args, return_trace=True)
    ref_emb, ref_trace = pair_array_skipgram(*args, batch_size=batch_size)
    assert emb.tobytes() == ref_emb.tobytes()
    assert trace["emb_out"].tobytes() == ref_trace["emb_out"].tobytes()
    assert trace.keys() == ref_trace.keys()
    for key in ("initial_loss", "final_loss", "n_pairs"):
        assert trace.get(key) == ref_trace.get(key)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    walk_len=st.integers(2, 12),
    window=st.integers(1, 13),
    size=st.integers(0, 500),
    wide=st.booleans(),
)
def test_pair_decoder_matches_corpus_pairs(seed, walk_len, window, size, wide):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = build_random_graph(n, int(rng.integers(1, 3 * n)), seed)
    corpus = generate_walks(g, walk_len, 2, seed)
    pairs = corpus_pairs(corpus, window)
    table = PairTable(corpus, window)
    assert table.m == len(pairs)
    if table.m == 0:
        return
    # any order, with repeats, in either index dtype
    idx = rng.integers(0, table.m, size).astype(np.int64 if wide else np.int32)
    centers, contexts = table.decode(idx)
    assert np.array_equal(np.column_stack([centers, contexts]), pairs[idx])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    walk_len=st.integers(2, 12),
    window=st.integers(1, 15),
    chunk=st.sampled_from([1, 7, 1 << 13]),
)
@example(seed=3, walk_len=10, window=1, chunk=1 << 13)
@example(seed=4, walk_len=4, window=9, chunk=7)
def test_kept_pairs_are_the_slots_within_their_centers_reach(seed, walk_len, window, chunk):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = build_random_graph(n, int(rng.integers(1, 3 * n)), seed)
    table = PairTable(generate_walks(g, walk_len, 2, seed), window)
    # small chunks spread the walks over many chunks, one walk or more each
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(positional, "_KEEP_CHUNK", chunk)
        kept = kept_pairs(table, window, seed)
    rows = len(table.walks) // walk_len
    reach = substream(seed, "sgns-window").integers(1, window + 1, size=(rows, walk_len))
    assert ((reach >= 1) & (reach <= window)).all()
    row, slot = np.divmod(np.arange(table.m), table.per_walk)
    offset = np.abs(table.center_pos[slot] - table.context_pos[slot])
    within = offset <= reach[row, table.center_pos[slot]]
    assert kept.dtype == np.int32
    assert np.array_equal(kept, np.flatnonzero(within))
    if window == 1:
        assert len(kept) == table.m
    elif window > walk_len - 1:
        # a reach of walk_len - 1 or more keeps every slot of its center
        whole = reach[row, table.center_pos[slot]] >= walk_len - 1
        assert np.isin(np.flatnonzero(whole), kept).all()


@settings(max_examples=30, deadline=None)
@given(m=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
@example(m=10**6 + 3, seed=0)
def test_in_place_shuffle_draws_the_permutation_of_either_dtype(m, seed):
    expected = np.random.default_rng(seed).permutation(np.arange(m, dtype=np.int64))
    for dtype in (np.int32, np.int64):
        order = np.arange(m, dtype=dtype)
        np.random.default_rng(seed).shuffle(order)
        assert np.array_equal(order, expected)
        assert np.array_equal(
            np.random.default_rng(seed).permutation(np.arange(m, dtype=dtype)), expected
        )


def test_skipgram_peak_stays_below_the_pair_array(monkeypatch):
    g = build_random_graph(300, 1200, seed=5)
    corpus = generate_walks(g, 10, 12, seed=5)
    m = PairTable(corpus, 5).m
    assert m >= 200_000
    pair_array_bytes = m * 2 * corpus_pairs(corpus, 5).itemsize
    monkeypatch.setattr(positional, "BATCH_SIZE", 64)
    tracemalloc.start()
    try:
        train_skipgram(corpus, 300, 8, 5, 5, 2, 0.025, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pair_array_bytes


def test_unigram_table_counts_without_an_intp_copy_of_the_corpus():
    n = 1000
    walks = np.random.default_rng(3).integers(0, n, size=(100_000, 10), dtype=np.int32)
    corpus = WalkCorpus(walks=walks, isolated=np.arange(0, n, 7, dtype=np.int32))
    tracemalloc.start()
    try:
        table = unigram_table(corpus, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one bincount of the whole corpus converts it to an 8-byte copy first
    assert peak < 8 * walks.size / 2
    counts = np.bincount(walks.reshape(-1), minlength=n) + np.bincount(corpus.isolated, minlength=n)
    weights = counts.astype(np.float64) ** 0.75
    assert table.tobytes() == (weights / weights.sum()).tobytes()
