"""Positional node embeddings from truncated random walks.

Walks are generated per start node with independent RNG substreams, so the
corpus content is the same no matter how generation is scheduled. The corpus
is one 2-D int64 array with a row per walk and a length per row; all walks
advance together, one vectorised step per position. Embeddings are trained
with skip-gram and negative sampling over (center, context) pairs inside a
sliding window; negatives are drawn from the corpus unigram distribution
raised to 0.75. Only the input-side embeddings are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .io import _read_node_csv, _write_node_csv
from .rng import substream


@dataclass(frozen=True)
class WalkCorpus:
    """Walks as rows of a (walks_per_node * n, walk_len) int64 array.

    Row ``r`` holds ``lengths[r]`` nodes followed by -1 padding. In an
    undirected graph a walk only stops early at a start node with no
    neighbors, so every length is either ``walk_len`` or 1.
    """

    walks: np.ndarray
    lengths: np.ndarray
    walk_len: int
    walks_per_node: int


@dataclass(frozen=True)
class PositionalEmbedding:
    vectors: np.ndarray
    dim: int


def generate_walks(graph: Graph, walk_len: int, walks_per_node: int, seed: int) -> WalkCorpus:
    """Uniform random walks, walks_per_node of them from every node.

    A walk stops early at a node with no neighbors, so isolated nodes yield
    length-1 walks. Each start node draws all of its step variates from its
    own substream, walk after walk; the corpus lists pass 0 for all nodes
    (in a seeded shuffled order), then pass 1, ...
    """
    if walk_len < 1 or walks_per_node < 1:
        raise ValueError("walk_len and walks_per_node must be >= 1")
    n = graph.n
    steps = np.empty((n, walks_per_node, walk_len - 1), dtype=np.float64)
    for v in range(n):
        steps[v] = substream(seed, "walks", v).random((walks_per_node, walk_len - 1))
    starts = np.concatenate(
        [substream(seed, "walk-order", p).permutation(n) for p in range(walks_per_node)]
    )
    passes = np.repeat(np.arange(walks_per_node), n)

    degree = graph.deg
    lengths = np.where(degree[starts] > 0, walk_len, 1)
    walks = np.full((len(starts), walk_len), -1, dtype=np.int64)
    walks[:, 0] = starts
    moving = np.flatnonzero(lengths > 1)
    cur = starts[moving]
    draws = steps[cur, passes[moving]].T
    for t, u in enumerate(draws, start=1):
        cur = graph.col_idx[graph.row_ptr[cur] + (u * degree[cur]).astype(np.int64)]
        walks[moving, t] = cur
    return WalkCorpus(
        walks=walks, lengths=lengths, walk_len=walk_len, walks_per_node=walks_per_node
    )


def corpus_pairs(corpus: WalkCorpus, window: int) -> np.ndarray:
    """All (center, context) pairs within the window, as an (m, 2) array.

    Walk by walk, offset by offset: the forward pairs (walk[:-off],
    walk[off:]) and then the same pairs reversed.
    """
    L = corpus.walk_len
    full = corpus.walks[corpus.lengths >= 2]
    if len(full) == 0:
        return np.empty((0, 2), dtype=np.int64)
    offsets = range(1, min(window, L - 1) + 1)
    per_walk = 2 * sum(L - off for off in offsets)
    out = np.empty((len(full), per_walk, 2), dtype=np.int64)
    pos = 0
    for off in offsets:
        a, b = full[:, :-off], full[:, off:]
        for center, context in ((a, b), (b, a)):
            out[:, pos : pos + L - off, 0] = center
            out[:, pos : pos + L - off, 1] = context
            pos += L - off
    return out.reshape(-1, 2)


def unigram_table(corpus: WalkCorpus, n: int, power: float = 0.75) -> np.ndarray:
    """Negative-sampling distribution: corpus occurrence counts ** power."""
    nodes = corpus.walks[corpus.walks >= 0]
    counts = np.bincount(nodes, minlength=n).astype(np.float64)
    weights = counts**power
    total = weights.sum()
    if total == 0:
        raise ValueError("empty corpus")
    return weights / total


def initial_embedding(n: int, dim: int, seed: int) -> np.ndarray:
    """Input-embedding initialization: uniform in (-0.5, 0.5) / dim."""
    rng = substream(seed, "sgns-init")
    return (rng.random((n, dim)) - 0.5) / dim


def _pair_loss(emb_in, emb_out, centers, contexts, negatives, chunk):
    """Mean SGNS loss of the pairs, scored ``chunk`` pairs at a time.

    Chunking bounds the (chunk, neg_samples, dim) gather of the negatives.
    """
    eps = 1e-12
    total = 0.0
    for i in range(0, len(centers), chunk):
        part = slice(i, i + chunk)
        vc = emb_in[centers[part]]
        pos = _sigmoid(np.einsum("ij,ij->i", vc, emb_out[contexts[part]]))
        neg = _sigmoid(-np.einsum("ij,ikj->ik", vc, emb_out[negatives[part]]))
        total += np.log(pos + eps).sum() + np.log(neg + eps).sum()
    return float(-total / len(centers))


def _sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    np.clip(x, -500, 500, out=out)
    return 1.0 / (1.0 + np.exp(-out))


def _sample_negatives(rng, cdf, shape):
    return np.searchsorted(cdf, rng.random(shape), side="right")


def train_skipgram(
    corpus: WalkCorpus,
    n: int,
    dim: int,
    window: int,
    neg_samples: int,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 4096,
    return_trace: bool = False,
):
    """Train skip-gram embeddings with negative sampling over the corpus.

    Minibatched SGD with a linearly decaying learning rate; deterministic
    given the seed. Returns the input embeddings; with return_trace=True also
    returns a dict holding the discarded output embeddings and the loss
    before/after training on a fixed evaluation sample, which is only drawn
    and scored when the trace is asked for.
    """
    if dim < 1 or window < 1 or neg_samples < 1:
        raise ValueError("dim, window, and neg_samples must be >= 1")
    if len(corpus.lengths) == 0:
        raise ValueError("empty corpus")
    if corpus.walks.max() >= n:
        raise ValueError(f"corpus holds node ids >= n ({n})")
    # batched updates accumulate every pair that touches a node; keep the
    # per-node step bounded by sizing batches relative to the vocabulary
    batch_size = max(64, min(batch_size, 4 * n))
    emb_in = initial_embedding(n, dim, seed)
    emb_out = np.zeros((n, dim), dtype=np.float64)

    pairs = corpus_pairs(corpus, window)
    trace = {}
    if len(pairs) > 0:
        noise = unigram_table(corpus, n)
        cdf = np.cumsum(noise)
        cdf[-1] = 1.0

        if return_trace:
            # the evaluation sample has its own substream, so skipping it
            # leaves every other draw, and the embeddings, unchanged
            eval_rng = substream(seed, "sgns-eval")
            m_eval = min(len(pairs), 20000)
            eval_neg = _sample_negatives(eval_rng, cdf, (m_eval, neg_samples))
            trace["initial_loss"] = _pair_loss(
                emb_in, emb_out, pairs[:m_eval, 0], pairs[:m_eval, 1], eval_neg, batch_size
            )

        n_batches_per_epoch = (len(pairs) + batch_size - 1) // batch_size
        total_batches = max(1, epochs * n_batches_per_epoch)
        work = _batch_workspace(batch_size, neg_samples, dim)
        done = 0
        for epoch in range(epochs):
            order = substream(seed, "sgns-order", epoch).permutation(len(pairs))
            neg_rng = substream(seed, "sgns-neg", epoch)
            for j, i in enumerate(range(0, len(order), batch_size)):
                batch = order[i : i + batch_size]
                rate = max(lr * (1.0 - (done + j) / total_batches), lr * 1e-3)
                negs = _sample_negatives(neg_rng, cdf, (len(batch), neg_samples))
                _apply_batch(emb_in, emb_out, pairs[batch], negs, rate, work)
            done += n_batches_per_epoch

        if return_trace:
            trace["final_loss"] = _pair_loss(
                emb_in, emb_out, pairs[:m_eval, 0], pairs[:m_eval, 1], eval_neg, batch_size
            )
    trace["emb_out"] = emb_out
    trace["n_pairs"] = int(len(pairs))
    embedding = PositionalEmbedding(vectors=emb_in, dim=dim)
    return (embedding, trace) if return_trace else embedding


def _batch_workspace(batch_size, neg_samples, dim):
    """Buffers for every batch-sized array of _apply_batch, made once.

    Fresh arrays of these sizes on each batch may be mapped and unmapped by
    the allocator every time, a page fault per page; whether they are
    depends on malloc's heuristics and on what ran before.
    """
    rows = (batch_size, dim)
    negs = (batch_size, neg_samples, dim)
    work = {name: np.empty(rows) for name in ("vc", "ux", "grad_vc", "grad_ux", "neg_sum")}
    work.update(uz=np.empty(negs), grad_uz=np.empty(negs))
    work["idx"] = np.empty((batch_size * neg_samples, dim), dtype=np.int64)
    return work


def _scatter_add(table, rows, updates, idx):
    """table[rows[i]] += updates[i] for each i in order, as one flat np.add.at.

    Every cell receives its updates in the same order as a 2-D
    np.add.at(table, rows, updates), so the sums are bit-identical; a
    bincount would sum in a different order and is not. ``idx`` is a
    (len(rows), d) int64 buffer for the flat cell indices.
    """
    d = table.shape[1]
    np.multiply(rows[:, None], d, out=idx)
    idx += np.arange(d)
    np.add.at(table.reshape(-1), idx.reshape(-1), updates.reshape(-1))


def _apply_batch(emb_in, emb_out, batch_pairs, negatives, lr, work):
    m = len(negatives)
    w = {name: buf[:m] for name, buf in work.items()}
    c = batch_pairs[:, 0]
    x = batch_pairs[:, 1]
    # mode="clip" lets take write straight into its buffer; it never clips,
    # since train_skipgram checks that every node id is below n
    vc = np.take(emb_in, c, axis=0, out=w["vc"], mode="clip")
    ux = np.take(emb_out, x, axis=0, out=w["ux"], mode="clip")
    uz = np.take(emb_out, negatives, axis=0, out=w["uz"], mode="clip")

    s_pos = _sigmoid(np.einsum("ij,ij->i", vc, ux))
    s_neg = _sigmoid(np.einsum("ij,ikj->ik", vc, uz))

    g_pos = s_pos - 1.0
    grad_vc = np.multiply(g_pos[:, None], ux, out=w["grad_vc"])
    grad_vc += np.einsum("ik,ikj->ij", s_neg, uz, out=w["neg_sum"])
    grad_ux = np.multiply(g_pos[:, None], vc, out=w["grad_ux"])
    grad_uz = np.multiply(s_neg[:, :, None], vc[:, None, :], out=w["grad_uz"])

    # scale in place, so the gradients stay in their buffers
    for grad in (grad_vc, grad_ux, grad_uz):
        np.multiply(grad, -lr, out=grad)
    idx = work["idx"]
    _scatter_add(emb_in, c, grad_vc, idx[:m])
    _scatter_add(emb_out, x, grad_ux, idx[:m])
    _scatter_add(emb_out, negatives.ravel(), grad_uz, idx[: negatives.size])


def positional_distinguishability(emb: PositionalEmbedding, u: int, v: int) -> float:
    """Euclidean distance between the embeddings of two distinct nodes."""
    if u == v:
        raise ValueError("u and v must differ")
    return float(np.linalg.norm(emb.vectors[u] - emb.vectors[v]))


def save_embedding_csv(emb: PositionalEmbedding, path):
    """Write the embedding as 'node_id,e_0..e_{dim-1}', one row per node."""
    _write_node_csv(emb.vectors, path, "e_")


def load_embedding_csv(path) -> PositionalEmbedding:
    vectors = _read_node_csv(path, "embedding")
    return PositionalEmbedding(vectors=vectors, dim=vectors.shape[1])
