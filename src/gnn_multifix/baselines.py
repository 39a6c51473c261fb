"""Reference predictors: neighbor vote, feature-only MLP, walk embeddings.

majority_vote is training-free. The other two are ModelConfig presets in
TRAINED_BASELINES: the model's own trainer with the non-relevant blocks
disabled, so they share its loss, early stopping, artifacts and determinism
contracts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dataset

# trained baseline -> the ModelConfig fields it sets
TRAINED_BASELINES = {
    # feature-only classifier: the readout trained on raw X (K = 0)
    "mlp": {"enable_fr": True, "enable_lr": False, "enable_pe": False, "K": 0},
    # structure-only classifier: the readout trained on walk embeddings
    "deepwalk": {"enable_fr": False, "enable_lr": False, "enable_pe": True},
}


@dataclass(frozen=True)
class BaselineOutput:
    probs: np.ndarray
    coverage: float


def majority_vote(dataset: Dataset) -> BaselineOutput:
    """Normalized label votes of each node's train-set neighbors.

    For every non-train node the votes over labels are summed across its
    direct train neighbors and divided by the total vote count, so covered
    rows sum to 1. Nodes without any train neighbor fall back to the global
    train-set label frequency (also normalized); coverage reports the
    fraction of test nodes that did not need the fallback. Train rows carry
    their true labels.
    """
    if not dataset.train_mask.any():
        raise ValueError("majority vote needs a nonempty train set")
    n, c = dataset.labels.shape
    y = dataset.labels.astype(np.float64)
    train = dataset.train_mask

    counts = y[train].sum(axis=0)
    total = counts.sum()
    fallback = counts / total if total > 0 else np.full(c, 1.0 / c)

    # every CSR entry whose column is a train node is one neighbor's vote;
    # the sums are small integers, so the scatter's order sets no bits
    graph = dataset.graph
    voter = train[graph.col_idx]
    votes = np.zeros((n, c), dtype=np.float64)
    np.add.at(votes, np.repeat(np.arange(n), graph.deg)[voter], y[graph.col_idx[voter]])
    vote_total = votes.sum(axis=1, keepdims=True)
    probs = np.divide(votes, vote_total, out=np.tile(fallback, (n, 1)), where=vote_total > 0)
    probs[train] = y[train]
    covered = (vote_total[:, 0] > 0) | train
    n_test = int(dataset.test_mask.sum())
    coverage = float(covered[dataset.test_mask].mean()) if n_test else 1.0
    return BaselineOutput(probs=probs, coverage=coverage)

