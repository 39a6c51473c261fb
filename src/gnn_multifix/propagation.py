"""Feature and label propagation over normalized graph operators.

Feature propagation runs K rounds of H <- act(A_hat @ H) starting from the
raw feature matrix. Label propagation runs the same recurrence on an initial
label matrix and never re-injects the true labels between steps: training
rows drift with their neighborhoods instead of being clamped back, so the
propagated rows carry neighborhood label structure rather than copies of the
supervision. Both return the propagated matrix as a float64 array.

Both run one hop loop, which lets go of its operand: each hop's output
replaces the loop's one reference to the hop's input, and the ReLU runs in
place on that output. Once the first hop returns, only a reference the caller
keeps holds the operand alive, so an operand that the caller builds inside
the call is freed then, and K hops hold two blocks at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .graph import Dataset, SparseMatrix


def propagate_features(
    adj_norm: SparseMatrix, X: np.ndarray, K: int, activation: str = "identity"
) -> np.ndarray:
    """Apply K rounds of one-hop aggregation to the feature matrix (n x D).

    activation is "identity" or "relu"; K = 0 returns X unchanged. X is
    never written, and this function holds no reference to it after the first
    hop (see the module docstring).
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if activation not in ("identity", "relu"):
        raise ValueError(f"unknown activation {activation!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {X.shape}")
    if adj_norm.cols != X.shape[0]:
        raise ShapeError(f"operator is {adj_norm.rows}x{adj_norm.cols} but matrix has {X.shape[0]} rows")
    for _ in range(K):
        X = adj_norm.matmul_dense(X)
        if activation == "relu":
            np.maximum(X, 0.0, out=X)
    return X


def init_label_matrix(dataset: Dataset, padding: str = "zero") -> np.ndarray:
    """Initial label matrix: true rows for train nodes, padding elsewhere.

    Validation and test nodes are both treated as unlabeled. padding is
    "zero" or "uniform" (each entry 1/C).
    """
    if padding not in ("zero", "uniform"):
        raise ValueError(f"unknown padding {padding!r}")
    n, c = dataset.labels.shape
    fill = 0.0 if padding == "zero" else 1.0 / c
    H0 = np.full((n, c), fill, dtype=np.float64)
    train = dataset.train_mask
    H0[train] = dataset.labels[train].astype(np.float64)
    return H0


def propagate_labels(adj_norm: SparseMatrix, H0: np.ndarray, N: int) -> np.ndarray:
    """Apply N aggregation rounds to an initial label matrix (n x C), reset-free.

    Each round is one linear aggregation, H <- A_hat @ H, with no
    re-injection of true labels between steps: the hop loop of
    :func:`propagate_features` with the identity activation.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    # hand H0 on without this frame keeping a reference to it
    operand = [H0]
    del H0
    return propagate_features(adj_norm, operand.pop(), N)

