"""Average-precision evaluation, training-dynamics export, homophily recovery.

AP follows the rank-sum definition (mean precision at each positive's rank,
no interpolation). Score ties are broken by ascending flat index so every
mode is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetParseError, UndefinedMetricError
from .graph import Dataset, Graph, label_homophily, make_dataset
from .io import _parse, _records

HEADLINE_AP_MODE = "samples"
N_CHECKPOINTS = 30


@dataclass(frozen=True)
class EvalReport:
    ap_micro: float
    ap_macro: float
    ap_samples: float
    split: str
    n_eval: int
    headline: str = HEADLINE_AP_MODE

    def to_dict(self) -> dict:
        # the package writes asdict(report); perfbench/run.py still calls this
        return asdict(self)


def _row_aps(scores: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """AP of every row with a positive, in row order: the mean precision at
    the ranks of its positives under a stable argsort of the negated scores.

    A row's AP is the sum of its positives' precisions, in rank order, over
    their count, summed as NumPy sums the row alone. With the rows sorted by
    positive count, those of p positives form one C-contiguous (rows, p)
    block of precisions, and the row sums of a C-contiguous array equal
    NumPy's sum of each row taken as a 1-D array.
    """
    order = np.argsort(-scores, axis=1, kind="stable")
    hits = np.take_along_axis(truth, order, axis=1).astype(bool)
    n_pos = hits.sum(axis=1)
    by_count = np.argsort(n_pos, kind="stable")
    hits = hits[by_count]
    precision = np.cumsum(hits, axis=1) / np.arange(1, scores.shape[1] + 1)
    flat = precision[hits]
    counts = np.bincount(n_pos)
    sums = np.zeros(len(scores))
    row = entry = 0
    for p in np.flatnonzero(counts).tolist():
        k = int(counts[p])
        sums[by_count[row:row + k]] = flat[entry:entry + k * p].reshape(k, p).sum(axis=1)
        row, entry = row + k, entry + k * p
    has = n_pos > 0
    return sums[has] / n_pos[has]


# each mode's (m, C) -> rows view, applied to scores and truth alike, and
# why its AP is undefined when no row of that view has a positive
_AP_VIEWS = {
    "micro": (lambda a: a.reshape(1, -1), "no positive entries"),
    "macro": (np.transpose, "no label has a positive"),
    "samples": (lambda a: a, "no row has a positive"),
}


def average_precision(scores: np.ndarray, truth: np.ndarray, mode: str = "samples") -> float:
    """AP over an (m, C) score matrix against binary truth.

    micro ranks all m*C entries at once, macro averages per-label AP over
    labels with at least one positive, samples averages per-row AP over rows
    with at least one positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.shape != truth.shape:
        raise ValueError(f"scores {scores.shape} and truth {truth.shape} differ")
    if mode not in _AP_VIEWS:
        raise ValueError(f"unknown AP mode {mode!r}")
    view, reason = _AP_VIEWS[mode]
    vals = _row_aps(view(scores), view(truth))
    if len(vals) == 0:
        raise UndefinedMetricError(f"{mode} AP undefined: {reason}")
    return float(np.mean(vals))


def evaluate(probs: np.ndarray, dataset: Dataset, split: str) -> EvalReport:
    """All three AP modes on the rows selected by the named split mask."""
    masks = {"train": dataset.train_mask, "val": dataset.val_mask, "test": dataset.test_mask}
    if split not in masks:
        raise ValueError(f"unknown split {split!r}")
    mask = masks[split]
    if not mask.any():
        raise ValueError(f"split {split!r} is empty")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != dataset.labels.shape:
        raise ValueError(f"probs {probs.shape} do not match labels {dataset.labels.shape}")
    s = probs[mask]
    t = dataset.labels[mask]
    return EvalReport(
        ap_micro=average_precision(s, t, "micro"),
        ap_macro=average_precision(s, t, "macro"),
        ap_samples=average_precision(s, t, "samples"),
        split=split,
        n_eval=int(mask.sum()),
    )


@dataclass(frozen=True)
class DynamicsLog:
    """Per-checkpoint losses of each training node.

    ``losses[i, j]`` is the loss of train node ``node_ids[j]`` at checkpoint
    i (recorded after epoch ``epochs[i]``). Runs of >= 30 epochs carry
    exactly 30 uniformly spaced checkpoints, shorter runs one per epoch.
    """

    node_ids: np.ndarray
    epochs: np.ndarray
    losses: np.ndarray

    @property
    def n_checkpoints(self) -> int:
        return len(self.epochs)


def checkpoint_epochs(total_epochs: int) -> np.ndarray:
    """N_CHECKPOINTS uniformly spaced 1-based checkpoint epochs; all epochs if fewer."""
    if total_epochs < 1:
        raise ValueError("no completed epochs")
    if total_epochs <= N_CHECKPOINTS:
        return np.arange(1, total_epochs + 1, dtype=np.int64)
    steps = np.arange(N_CHECKPOINTS) * (total_epochs - 1) / (N_CHECKPOINTS - 1)
    idx = np.rint(steps).astype(np.int64)
    return idx + 1


def _quartiles(losses: np.ndarray) -> np.ndarray:
    """Q1, median and Q3 of each row: np.percentile(row, [25, 50, 75]) to the bit.

    The same linear interpolation between the order statistics around index
    q * (m - 1), computed from the end nearer to it, as NumPy's ``_lerp``
    does; np.percentile itself would import numpy.ma.
    """
    s = np.sort(losses, axis=1)
    pos = np.array([0.25, 0.5, 0.75]) * (s.shape[1] - 1)
    lo = np.floor(pos).astype(np.int64)
    g = pos - lo
    a, b = s[:, lo], s[:, np.minimum(lo + 1, s.shape[1] - 1)]
    d = b - a
    return np.where(g < 0.5, a + d * g, b - d * (1 - g))


def export_dynamics(log: DynamicsLog, out_path):
    """Write the per-node loss table plus a per-checkpoint summary.

    The data CSV has columns checkpoint_index,epoch,node_id,loss; the
    summary (same name with _summary suffix) carries quartiles and max.
    Output is byte-deterministic for a given log.
    """
    if log.n_checkpoints == 0:
        raise ValueError("empty dynamics log")
    out_path = Path(out_path)
    summary_path = out_path.with_name(out_path.stem + "_summary" + out_path.suffix)
    losses = np.asarray(log.losses, dtype=np.float64)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("checkpoint_index,epoch,node_id,loss\n")
        # one write per checkpoint; tolist() yields the same floats as float(x)
        nodes = [int(node) for node in log.node_ids]
        for i, epoch in enumerate(log.epochs):
            head = f"{i},{int(epoch)},"
            rows = zip(nodes, losses[i].tolist())
            fh.write("".join(f"{head}{node},{loss!r}\n" for node, loss in rows))
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("checkpoint_index,epoch,q1,median,q3,max\n")
        stats = np.column_stack([_quartiles(losses), losses.max(axis=1)]).tolist()
        for i, (epoch, (q1, med, q3, mx)) in enumerate(zip(log.epochs, stats)):
            fh.write(f"{i},{int(epoch)},{q1!r},{med!r},{q3!r},{mx!r}\n")
    return summary_path


def import_dynamics(path) -> DynamicsLog:
    """Rebuild a DynamicsLog from the data CSV written by export_dynamics.

    A checkpoint that lacks a node which another checkpoint holds, as in a
    truncated file, is refused, and so is a checkpoint whose epoch is not
    above the previous checkpoint's. So are a non-finite loss, a second row
    for one (checkpoint, node) and a row whose epoch differs from its
    checkpoint's first row, at their line.
    """
    records = _records(path, comments=False)
    line_no, header = next(records, (1, ""))
    if header != "checkpoint_index,epoch,node_id,loss":
        raise DatasetParseError(path, line_no, "unexpected dynamics CSV header")
    checkpoints: dict[int, tuple[int, int, dict[int, float]]] = {}  # i -> (first line, epoch, losses)
    for line_no, line in records:
        parts = line.split(",")
        if len(parts) != 4:
            raise DatasetParseError(path, line_no, "malformed dynamics row")
        i, epoch, node = _parse(int, parts[:3], path, line_no, "malformed dynamics row")
        (loss,) = _parse(float, parts[3:], path, line_no, "malformed dynamics row")
        if not np.isfinite(loss):
            raise DatasetParseError(path, line_no, "non-finite loss")
        first_line, first_epoch, losses = checkpoints.setdefault(i, (line_no, epoch, {}))
        if epoch != first_epoch:
            raise DatasetParseError(
                path, line_no, f"checkpoint {i} is epoch {first_epoch} at line {first_line}, not {epoch}"
            )
        if node in losses:
            raise DatasetParseError(path, line_no, f"checkpoint {i} lists node {node} twice")
        losses[node] = loss
    if not checkpoints:
        raise DatasetParseError(path, 1, "dynamics CSV has no data rows")
    idx = sorted(checkpoints)
    node_ids = sorted(set().union(*(losses for _, _, losses in checkpoints.values())))
    for i in idx:
        first_line, _, losses = checkpoints[i]
        if len(losses) != len(node_ids):
            missing = min(set(node_ids) - set(losses))
            raise DatasetParseError(path, first_line, f"checkpoint {i} has no loss for node {missing}")
    # the report's slopes need distinct epochs, and its final loss the latest
    for prev, i in zip(idx, idx[1:]):
        first_line, epoch, _ = checkpoints[i]
        if epoch <= checkpoints[prev][1]:
            message = f"checkpoint {i} is epoch {epoch}, not above checkpoint {prev}'s epoch {checkpoints[prev][1]}"
            raise DatasetParseError(path, first_line, message)
    return DynamicsLog(
        node_ids=np.asarray(node_ids, dtype=np.int64),
        epochs=np.asarray([checkpoints[i][1] for i in idx], dtype=np.int64),
        losses=np.asarray([[checkpoints[i][2][v] for v in node_ids] for i in idx], dtype=np.float64),
    )


@dataclass(frozen=True)
class AtypicalNode:
    node_id: int
    final_loss: float
    slope: float


def atypical_node_report(log: DynamicsLog, k: int) -> list[AtypicalNode]:
    """The k train nodes with the largest final-checkpoint loss.

    Each entry carries the least-squares slope of that node's loss against
    the checkpoint epochs, so rising-loss nodes are visible directly.
    """
    if log.n_checkpoints < 2:
        raise ValueError("need at least 2 checkpoints for a trend")
    if not 1 <= k <= len(log.node_ids):
        raise ValueError(f"k={k} must lie in [1, {len(log.node_ids)}], the train node count")
    x = log.epochs.astype(np.float64)
    xc = x - x.mean()
    denom = float((xc**2).sum())
    slopes = (xc @ log.losses) / denom
    final = log.losses[-1]
    order = np.lexsort((log.node_ids, -final))[:k]
    return [
        AtypicalNode(node_id=int(log.node_ids[j]), final_loss=float(final[j]), slope=float(slopes[j]))
        for j in order
    ]


def homophily_recovery(probs: np.ndarray, graph: Graph) -> float:
    """Label homophily of the graph under predictions thresholded at 0.5.

    Rows whose thresholded prediction is empty keep their single top-scoring
    label, so every node has a nonempty predicted set.
    """
    probs = np.asarray(probs, dtype=np.float64)
    pred = probs >= 0.5
    empty = ~pred.any(axis=1)
    if empty.any():
        pred[np.flatnonzero(empty), probs[empty].argmax(axis=1)] = True
    return label_homophily(make_dataset(graph, pred))
