"""Positional node embeddings from truncated random walks.

Every walk step is drawn from one RNG substream as a single array, so the
corpus content is the same no matter how generation is scheduled. The corpus
is one 2-D array with a row per full walk, in the narrowest index dtype,
plus the start nodes of the walks that stop at once; all walks advance
together, one vectorised step per position. Embeddings are trained
with skip-gram and negative sampling over (center, context) pairs inside a
shrunk window, as word2vec and DeepWalk do: each (walk, position) draws a
reach uniformly from 1..window, and a pair is kept only when its context
lies within its center's reach. The pairs are never held as one array: a
pair is a pure function of its walk row and its slot in the window, so the
kept pair ids are one array that each epoch shuffles in place, and each
batch decodes its own pairs from the walks (:class:`PairTable`). Negatives
are drawn from the corpus unigram distribution raised to 0.75 and shared per
batch: every pair of a batch scores the same SHARED_NEGATIVES (S = 32)
nodes, each weighted neg_samples / S, so the negative term of a batch is two
matrix products. The two tables are trained in float32, as word2vec and
gensim do: a batch step is bound by memory and element-wise passes, so half
the bytes make it faster. Only the input-side embeddings are kept, returned
as an n x dim float64 array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .rng import substream

# Negatives per batch, shared by all of its pairs. Each shared row takes the
# summed update of a whole batch, so too few rows take very large steps:
# S = 8 collapsed test AP to 0.42 where S = 32 held it.
SHARED_NEGATIVES = 32
# pairs per SGD batch, capped at 4 n (and at least 64) by train_skipgram
BATCH_SIZE = 4096


def _index_dtype(top: int):
    """int32 when every value up to ``top`` fits, else int64."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class WalkCorpus:
    """The walks of a corpus, in corpus order, split by where they stop.

    ``walks`` is a (walks, walk_len) array with a row per walk from a node
    that has a neighbor: in an undirected graph such a walk never stops
    early. ``isolated`` lists the start nodes of the walks that stop at once,
    from nodes with no neighbor. Both are in the index dtype of ``n - 1``.
    """

    walks: np.ndarray
    isolated: np.ndarray


def generate_walks(graph: Graph, walk_len: int, walks_per_node: int, seed: int) -> WalkCorpus:
    """Uniform random walks, walks_per_node of them from every node.

    A walk stops early at a node with no neighbors, so isolated nodes yield
    length-1 walks. The step variates are one (n, walks_per_node,
    walk_len - 1) draw from the "walks" substream: pass p of the walk from
    node v reads row [v, p]. The corpus lists pass 0 for all nodes (in a
    seeded shuffled order), then pass 1, ...
    """
    if walk_len < 1 or walks_per_node < 1:
        raise ValueError("walk_len and walks_per_node must be >= 1")
    n = graph.n
    steps = substream(seed, "walks").random((n, walks_per_node, walk_len - 1))
    starts = np.concatenate(
        [substream(seed, "walk-order", p).permutation(n) for p in range(walks_per_node)]
    )
    passes = np.repeat(np.arange(walks_per_node), n)

    degree = graph.deg
    dtype = _index_dtype(n - 1)
    moving = degree[starts] > 0
    cur = starts[moving]
    walks = np.empty((len(cur), walk_len), dtype=dtype)
    walks[:, 0] = cur
    draws = steps[cur, passes[moving]].T
    for t, u in enumerate(draws, start=1):
        cur = graph.col_idx[graph.row_ptr[cur] + (u * degree[cur]).astype(np.int64)]
        walks[:, t] = cur
    return WalkCorpus(walks=walks, isolated=starts[~moving].astype(dtype))


class PairTable:
    """The (center, context) pairs of a corpus, decoded from the walks on demand.

    Only the full walks hold pairs, ``per_walk`` of them each. Pair k is
    slot ``k % per_walk`` of full walk ``k // per_walk``, and slot j pairs
    positions ``center_pos[j]`` and ``context_pos[j]`` of its walk: offset
    by offset, the forward pairs (walk[:-off], walk[off:]) and then the same
    pairs reversed. The table holds every slot of the full window; training
    visits only the pair ids that :func:`kept_pairs` selects. ``walks`` is a
    flat view of the corpus's full walks.
    """

    def __init__(self, corpus: WalkCorpus, window: int):
        rows, L = corpus.walks.shape
        center, context = [], []
        for off in range(1, min(window, L - 1) + 1):
            head, tail = list(range(L - off)), list(range(off, L))
            center += head + tail
            context += tail + head
        self.center_pos = np.array(center, dtype=np.int64)
        self.context_pos = np.array(context, dtype=np.int64)
        self.per_walk = len(self.center_pos)
        self.walk_len = L
        self.walks = corpus.walks.reshape(-1)
        self.m = rows * self.per_walk

    def decode(self, idx: np.ndarray):
        """The centers and contexts of pairs ``idx``, in the walks' dtype."""
        row, slot = np.divmod(idx, self.per_walk)
        start = np.multiply(row, self.walk_len, dtype=np.int64)
        centers = self.walks[start + self.center_pos[slot]]
        return centers, self.walks[start + self.context_pos[slot]]


# pair slots tested per chunk of walks in kept_pairs, which bounds its temporaries
_KEEP_CHUNK = 1 << 13


def kept_pairs(pairs: PairTable, window: int, seed: int) -> np.ndarray:
    """The ids of the pairs that word2vec's shrunk window keeps, ascending.

    Each (full walk, position) draws a reach uniformly from 1..window, all
    in one draw from the "sgns-window" substream. Slot j of full walk r is
    kept when its offset |center_pos[j] - context_pos[j]| is at most
    reach[r, center_pos[j]], so near contexts are kept more often than far
    ones. The ids are in the index dtype of ``pairs.m - 1``; they are
    counted first and written into one array, chunk by chunk.
    """
    L, per_walk = pairs.walk_len, pairs.per_walk
    rows = len(pairs.walks) // L
    reach = substream(seed, "sgns-window").integers(1, window + 1, size=(rows, L))
    # a center at position p keeps min(reach, p) contexts before it and
    # min(reach, L - 1 - p) after it
    pos = np.arange(L)
    total = int(np.minimum(reach, pos).sum() + np.minimum(reach, pos[::-1]).sum())
    kept = np.empty(total, dtype=_index_dtype(pairs.m - 1))
    offset = np.abs(pairs.center_pos - pairs.context_pos)
    chunk = max(1, _KEEP_CHUNK // max(per_walk, 1))
    at = 0
    for r in range(0, rows, chunk):
        ids = np.flatnonzero(reach[r : r + chunk, pairs.center_pos] >= offset)
        ids += r * per_walk
        kept[at : at + len(ids)] = ids
        at += len(ids)
    return kept


def corpus_pairs(corpus: WalkCorpus, window: int) -> np.ndarray:
    """All (center, context) pairs within the window, as an (m, 2) array.

    The reference enumeration of :class:`PairTable`: pair k is its row k.
    Training decodes its pairs batch by batch and never builds this array.
    """
    pairs = PairTable(corpus, window)
    return np.column_stack(pairs.decode(np.arange(pairs.m)))


def unigram_table(corpus: WalkCorpus, n: int) -> np.ndarray:
    """Negative-sampling distribution: corpus occurrence counts ** 0.75, as in word2vec."""
    # bincount converts its input to intp; column by column, each copy is one column
    counts = np.bincount(corpus.isolated, minlength=n)
    for column in corpus.walks.T:
        counts += np.bincount(column, minlength=n)
    weights = counts.astype(np.float64) ** 0.75
    total = weights.sum()
    if total == 0:
        raise ValueError("empty corpus")
    return weights / total


def initial_embedding(n: int, dim: int, seed: int) -> np.ndarray:
    """Input-embedding initialization: uniform in (-0.5, 0.5) / dim, as float32.

    The variates are drawn in float64 and rounded, so the table is the
    float64 initialization to float32 precision.
    """
    rng = substream(seed, "sgns-init")
    return ((rng.random((n, dim)) - 0.5) / dim).astype(np.float32)


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


def _sigmoid(x, out=None):
    # exp of the clip bound must stay finite in x's dtype; float32 exp
    # overflows above about 88.7
    bound = 80.0 if x.dtype == np.float32 else 500.0
    out = np.clip(x, -bound, bound, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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
    return_trace: bool = False,
):
    """Train skip-gram embeddings with negative sampling over the corpus.

    Minibatched SGD with a linearly decaying learning rate; deterministic
    given the seed. ``window`` is the largest reach: the pairs trained on are
    the :func:`kept_pairs` of the corpus's :class:`PairTable`, one shrunk
    window drawn per (walk, position) for the whole fit. Each epoch visits
    every kept pair once, in a seeded shuffled order: epoch e's order is the
    "sgns-order" permutation of the ascending kept ids. Each batch draws one
    set of SHARED_NEGATIVES (S = 32) negatives that all of its pairs share,
    each weighted neg_samples / S, so neg_samples stays the expected number
    of negatives per pair. Both tables are float32 while training. Returns
    the input embeddings as an n x dim float64 array; with return_trace=True
    also returns a dict holding the discarded (float32) output embeddings,
    the number of kept pairs, and the loss before/after training on a fixed
    evaluation sample (the first kept pairs), which is only drawn and scored
    when the trace is asked for. Only tests ask for it today; it stays for
    the run report, which is to record skip-gram's initial and final loss.
    """
    if dim < 1 or window < 1 or neg_samples < 1:
        raise ValueError("dim, window, and neg_samples must be >= 1")
    if len(corpus.walks) + len(corpus.isolated) == 0:
        raise ValueError("empty corpus")
    for ids in (corpus.walks, corpus.isolated):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError(f"corpus holds node ids outside [0, {n})")
    # batched updates accumulate every pair that touches a node; keep the
    # per-node step bounded by sizing batches relative to the vocabulary
    batch_size = max(64, min(BATCH_SIZE, 4 * n))
    emb_in = initial_embedding(n, dim, seed)
    emb_out = np.zeros((n, dim), dtype=emb_in.dtype)

    pairs = PairTable(corpus, window)
    m = 0
    trace = {}
    if pairs.m > 0:
        kept = kept_pairs(pairs, window, seed)
        m = len(kept)
        noise = unigram_table(corpus, n)
        cdf = np.cumsum(noise)
        cdf[-1] = 1.0

        if return_trace:
            # the evaluation sample has its own substream, so skipping it
            # leaves every other draw, and the embeddings, unchanged
            eval_rng = substream(seed, "sgns-eval")
            m_eval = min(m, 20000)
            eval_neg = _sample_negatives(eval_rng, cdf, (m_eval, neg_samples))
            eval_pairs = pairs.decode(kept[:m_eval])
            trace["initial_loss"] = _pair_loss(emb_in, emb_out, *eval_pairs, eval_neg, batch_size)

        n_batches_per_epoch = (m + batch_size - 1) // batch_size
        total_batches = max(1, epochs * n_batches_per_epoch)
        weight = neg_samples / SHARED_NEGATIVES
        work = _batch_workspace(batch_size, dim, emb_in.dtype)
        done = 0
        for epoch in range(epochs):
            # an in-place shuffle makes the draws of permutation without its
            # copy, and the draws do not depend on the dtype; sorting first
            # makes each epoch's order a permutation of the ascending ids
            if epoch:
                kept.sort()
            substream(seed, "sgns-order", epoch).shuffle(kept)
            neg_rng = substream(seed, "sgns-neg", epoch)
            for j, i in enumerate(range(0, m, batch_size)):
                centers, contexts = pairs.decode(kept[i : i + batch_size])
                rate = max(lr * (1.0 - (done + j) / total_batches), lr * 1e-3)
                negs = _sample_negatives(neg_rng, cdf, SHARED_NEGATIVES)
                _apply_batch(emb_in, emb_out, centers, contexts, negs, weight, rate, work)
            done += n_batches_per_epoch

        if return_trace:
            trace["final_loss"] = _pair_loss(emb_in, emb_out, *eval_pairs, eval_neg, batch_size)
    trace["emb_out"] = emb_out
    trace["n_pairs"] = m
    embedding = emb_in.astype(np.float64)
    return (embedding, trace) if return_trace else embedding


# a complex addition is two real additions, so a pair of adjacent columns
# can be scattered as one complex cell with the same sums
_PAIR_DTYPES = {np.dtype(np.float32): np.complex64, np.dtype(np.float64): np.complex128}


def _cell_width(dim):
    """The cells per row that _scatter_add indexes: dim // 2 column pairs
    when dim is even, else dim single columns."""
    return dim // 2 if dim % 2 == 0 else dim


def _batch_workspace(batch_size, dim, dtype=np.float64):
    """Buffers for every batch-sized array of _apply_batch, made once, in the
    dtype of the tables they will serve.

    Fresh arrays of these sizes on each batch may be mapped and unmapped by
    the allocator every time, a page fault per page; whether they are
    depends on malloc's heuristics and on what ran before.
    """
    rows = (batch_size, dim)
    work = {name: np.empty(rows, dtype=dtype) for name in ("vc", "ux", "step_vc")}
    work["s_neg"] = np.empty((batch_size, SHARED_NEGATIVES), dtype=dtype)
    work["idx"] = np.empty(batch_size * _cell_width(dim), dtype=np.int64)
    return work


def _scatter_add(table, rows, updates, idx):
    """table[rows[i]] += updates[i] for each i in order, as one flat np.add.at.

    Every cell receives its updates in the same order as a 2-D
    np.add.at(table, rows, updates), so the sums are bit-identical; a
    bincount would sum in a different order and is not. With an even width
    the cells are column pairs, viewed as complex numbers, which halves the
    indices and the scattered elements. The tables are float32 or float64.
    ``idx`` is an int64 buffer with at least len(rows) * _cell_width(d)
    elements, for the flat cell indices.
    """
    d = table.shape[1]
    cells = _cell_width(d)
    if cells != d:
        pair = _PAIR_DTYPES[table.dtype]
        table, updates = table.view(pair), updates.view(pair)
    idx = idx.reshape(-1)[: len(rows) * cells].reshape(len(rows), cells)
    np.add(np.multiply(rows, cells, dtype=np.int64)[:, None], np.arange(cells), out=idx)
    np.add.at(table.reshape(-1), idx.reshape(-1), updates.reshape(-1))


def _apply_batch(emb_in, emb_out, c, x, negatives, weight, lr, work):
    """One SGD step of size lr on the pairs (c[i], x[i]), which share the negatives.

    Descends sum_i [-log σ(v_ci·u_xi) - weight Σ_s log σ(-v_ci·u_s)], with
    every gradient taken before any row moves. With s = weight σ(V_c U_Sᵀ),
    the negative gradients are s U_S for the centers and sᵀ V_c for the S
    negative rows. The step size is folded into the (B,) and (B, S)
    coefficients, so no pass scales a B x d gradient, and the gathered rows
    are scaled in place into the positive steps. Works in the tables' dtype.
    """
    w = {name: buf[: len(c)] for name, buf in work.items()}
    # mode="clip" lets take write straight into its buffer; it never clips,
    # since train_skipgram checks that every node id lies in [0, n)
    vc = np.take(emb_in, c, axis=0, out=w["vc"], mode="clip")
    ux = np.take(emb_out, x, axis=0, out=w["ux"], mode="clip")
    us = emb_out[negatives]

    # -lr (σ(v·u) - 1) = lr σ(-v·u), which keeps its precision near σ = 1
    dots = np.einsum("ij,ij->i", vc, ux)
    g_pos = _sigmoid(np.negative(dots, out=dots), out=dots)
    g_pos *= lr
    s_neg = _sigmoid(np.matmul(vc, us.T, out=w["s_neg"]), out=w["s_neg"])
    s_neg *= -lr * weight

    # the negative-row step reads vc before vc becomes the context step
    step_us = s_neg.T @ vc
    step_vc = np.matmul(s_neg, us, out=w["step_vc"])
    ux *= g_pos[:, None]
    step_vc += ux
    vc *= g_pos[:, None]
    _scatter_add(emb_in, c, step_vc, work["idx"])
    _scatter_add(emb_out, x, vc, work["idx"])
    _scatter_add(emb_out, negatives, step_us, work["idx"])


def positional_distinguishability(emb: np.ndarray, u: int, v: int) -> float:
    """Euclidean distance between the embeddings of two distinct nodes."""
    if u == v:
        raise ValueError("u and v must differ")
    return float(np.linalg.norm(emb[u] - emb[v]))
