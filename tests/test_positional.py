import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnn_multifix import (
    Graph,
    PositionalEmbedding,
    generate_walks,
    load_embedding_csv,
    positional_distinguishability,
    save_embedding_csv,
    train_skipgram,
)
from gnn_multifix import positional
from gnn_multifix.errors import DatasetParseError
from gnn_multifix.positional import (
    SHARED_NEGATIVES,
    WalkCorpus,
    _apply_batch,
    _batch_workspace,
    _pair_loss,
    _scatter_add,
    _sigmoid,
    corpus_pairs,
    initial_embedding,
    unigram_table,
)
from gnn_multifix.rng import substream

from conftest import build_random_graph


def clique_edges(nodes):
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]


def walk_lists(corpus):
    """Each walk of the corpus as a list, without its padding."""
    return [row[:length].tolist() for row, length in zip(corpus.walks, corpus.lengths)]


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
    assert len(corpus.walks) == 2 * n
    for walk in walk_lists(corpus):
        for a, b in zip(walk[:-1], walk[1:]):
            assert g.has_edge(int(a), int(b))


def test_walks_and_embeddings_are_deterministic():
    g = build_random_graph(20, 50, seed=4)
    c1 = generate_walks(g, 10, 5, seed=9)
    c2 = generate_walks(g, 10, 5, seed=9)
    assert np.array_equal(c1.walks, c2.walks)
    assert np.array_equal(c1.lengths, c2.lengths)
    e1 = train_skipgram(c1, 20, 8, 5, 5, 2, 0.025, seed=9)
    e2 = train_skipgram(c2, 20, 8, 5, 5, 2, 0.025, seed=9)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_empty_corpus_rejected():
    empty = WalkCorpus(np.empty((0, 10), dtype=np.int64), np.empty(0, dtype=np.int64), 10, 1)
    with pytest.raises(ValueError):
        train_skipgram(empty, 5, 8, 5, 5, 1, 0.025, seed=0)


def test_corpus_with_nodes_beyond_n_rejected():
    g = build_random_graph(6, 12, seed=1)
    corpus = generate_walks(g, walk_len=4, walks_per_node=1, seed=1)
    with pytest.raises(ValueError):
        train_skipgram(corpus, 3, 8, 5, 5, 1, 0.025, seed=1)


def test_single_length_one_walk_keeps_initialization():
    g = Graph.from_edges(1, [])
    corpus = generate_walks(g, walk_len=5, walks_per_node=1, seed=2)
    emb = train_skipgram(corpus, 1, 8, 5, 5, 3, 0.025, seed=2)
    assert np.array_equal(emb.vectors, initial_embedding(1, 8, seed=2))


def test_two_cliques_separate():
    edges = clique_edges(range(5)) + clique_edges(range(5, 10))
    g = Graph.from_edges(10, edges)
    wins = 0
    for seed in range(5):
        corpus = generate_walks(g, 10, 10, seed)
        emb = train_skipgram(corpus, 10, 16, 5, 5, 5, 0.025, seed)
        v = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
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
        between = np.linalg.norm(emb.vectors[2] - emb.vectors[18])
        inside = np.linalg.norm(emb.vectors[2] - emb.vectors[3])
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
            [np.linalg.norm(emb.vectors[i] - emb.vectors[i + 1]) for i in range(19)]
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
        dots = np.array([emb.vectors[u] @ emb.vectors[v] for u, v in sample])
        cooc = np.array([counts.get((u, v), 0) for u, v in sample], dtype=float)
        r = np.corrcoef(cooc, dots)[0, 1]
        assert r > 0


def test_distinguishability_values():
    from gnn_multifix.positional import PositionalEmbedding

    emb = PositionalEmbedding(vectors=np.array([[1.0, 0.0], [0.0, 1.0]]), dim=2)
    assert positional_distinguishability(emb, 0, 1) == pytest.approx(np.sqrt(2))
    same = PositionalEmbedding(vectors=np.zeros((2, 2)), dim=2)
    assert positional_distinguishability(same, 0, 1) == 0.0
    with pytest.raises(ValueError):
        positional_distinguishability(emb, 1, 1)


def test_embedding_csv_round_trip(tmp_path):
    g = build_random_graph(10, 30, seed=8)
    corpus = generate_walks(g, 5, 3, seed=8)
    emb = train_skipgram(corpus, 10, 6, 3, 3, 2, 0.025, seed=8)
    path = tmp_path / "emb.csv"
    save_embedding_csv(emb, path)
    back = load_embedding_csv(path)
    assert back.dim == emb.dim
    assert np.array_equal(back.vectors, emb.vectors)


def test_embedding_csv_with_duplicated_node_id_is_refused(tmp_path):
    path = tmp_path / "emb.csv"
    save_embedding_csv(PositionalEmbedding(vectors=np.arange(6.0).reshape(3, 2), dim=2), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1], lines[2], "1" + lines[3][1:]]) + "\n")
    with pytest.raises(DatasetParseError, match="node ids"):
        load_embedding_csv(path)


def test_header_only_embedding_csv_is_refused(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("node_id,e_0,e_1\n")
    with pytest.raises(DatasetParseError, match="no rows"):
        load_embedding_csv(path)


# Reference implementations: the per-walk walker that the array corpus
# replaces, which the package must reproduce bit for bit, and a pair-by-pair
# loop of the shared-negative update.


def reference_walks(graph, walk_len, walks_per_node, seed):
    per_node = []
    for v in range(graph.n):
        rng = substream(seed, "walks", v)
        walks_v = []
        for _ in range(walks_per_node):
            steps = rng.random(walk_len - 1)
            walk = [v]
            cur = v
            for u in steps:
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

    assert corpus.walks.shape == (n * walks_per_node, walk_len)
    assert corpus.lengths.tolist() == [len(w) for w in ref]
    assert walk_lists(corpus) == [w.tolist() for w in ref]
    assert (corpus.walks[np.arange(walk_len) >= corpus.lengths[:, None]] == -1).all()
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
        _apply_batch(emb_in, emb_out, pairs, negs, weight, lr, work)
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
        _apply_batch(emb_in, emb_out, pairs, negs, weight, lr, work)
        reference_shared_negative_step(ref_in, ref_out, pairs, negs, weight, lr)
        assert emb_in.dtype == emb_out.dtype == np.float32
        assert np.abs(emb_in - ref_in).max() < bound
        assert np.abs(emb_out - ref_out).max() < bound


def test_skipgram_trains_float32_and_returns_float64():
    g = build_random_graph(30, 90, seed=6)
    corpus = generate_walks(g, 10, 5, seed=6)
    emb, trace = train_skipgram(corpus, 30, 16, 5, 5, 2, 0.025, seed=6, return_trace=True)
    assert emb.vectors.dtype == np.float64
    assert trace["emb_out"].dtype == np.float32
    assert np.array_equal(emb.vectors.astype(np.float32).astype(np.float64), emb.vectors)
    assert not np.array_equal(emb.vectors, initial_embedding(30, 16, seed=6))


def test_float32_sigmoid_saturates_without_overflow():
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=np.float32)
    with np.errstate(over="raise"):
        y = _sigmoid(x)
    assert y.dtype == np.float32
    assert ((y >= 0) & (y <= 1)).all()
    assert y[2] == 0.5 and y[-1] == 1.0 and y[0] < 1e-30


def test_one_pass_scatter_index_matches_two_pass():
    rng = np.random.default_rng(3)
    for dtype in (np.float64, np.float32):
        table = rng.normal(size=(9, 5)).astype(dtype)
        rows = rng.integers(0, 9, 40).astype(np.int32)
        updates = rng.normal(size=(40, 5)).astype(dtype)
        two_pass = table.copy()
        idx = np.empty((40, 5), dtype=np.int64)
        np.multiply(rows[:, None], 5, out=idx, dtype=np.int64)
        idx += np.arange(5)
        np.add.at(two_pass.reshape(-1), idx.reshape(-1), updates.reshape(-1))
        one_pass = table.copy()
        _scatter_add(one_pass, rows, updates, np.empty((40, 5), dtype=np.int64))
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
    _apply_batch(new_in, new_out, pairs, negs, weight, lr, _batch_workspace(64, dim))
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
    narrow = train_skipgram(corpus, 40, 16, 5, 5, 2, 0.025, seed=7, batch_size=256)
    wide_pairs = positional.corpus_pairs
    monkeypatch.setattr(
        positional, "corpus_pairs", lambda c, w: wide_pairs(c, w).astype(np.int64)
    )
    wide = train_skipgram(corpus, 40, 16, 5, 5, 2, 0.025, seed=7, batch_size=256)
    assert narrow.vectors.tobytes() == wide.vectors.tobytes()


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
