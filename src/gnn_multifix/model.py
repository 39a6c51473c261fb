"""The fused classifier: feature, label, and positional blocks into a readout.

Three precomputed node representations (propagated features, reset-free
propagated labels, walk embeddings) are concatenated and fed to a sigmoid
readout trained with binary cross entropy. Variants:

  linear  propagation with identity activation, a seeded, never-trained
          projection P of the propagated features to hidden width, one
          affine readout layer; the whole map from representations to logits
          is linear. P is part of the representations, not of the model:
          :func:`compute_representations` applies it (for identity features
          it propagates P itself, since A^K · I · P = A^K · P, so the n x n
          identity is never built), and checkpoints hold only trained
          parameters.
  mlp1    ReLU feature propagation, trainable affine+ReLU feature transform,
          one affine readout layer.
  mlp3    as mlp1 but with a three-layer ReLU readout.

Disabled blocks are absent from the concatenation (the readout narrows).

The representations are fitted once per dataset split by
:func:`compute_representations` into a frozen :class:`Representations`
value, one float64 array per enabled block, which :func:`train` and
:func:`predict` both require. Training reads only the rows it needs: the
BCE and its gradient read the train nodes and early stopping reads the
validation nodes, so :func:`train` builds the constant input once for each
of those row sets, and each epoch runs one readout of each. The post-step
train readout of epoch t is the pre-step one of epoch t+1. Only
:func:`predict` computes every row.
"""

from __future__ import annotations

import json
import struct
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CompatibilityError, ShapeError, TrainingDivergedError
from .evaluation import DynamicsLog, average_precision, checkpoint_epochs
from .graph import Dataset, substitute_features, sym_norm_adjacency
from .positional import _sigmoid, generate_walks, train_skipgram
from .propagation import init_label_matrix, propagate_features, propagate_labels
from .rng import substream

PROB_EPS = 1e-7
VARIANTS = ("linear", "mlp1", "mlp3")
FEATURE_POLICIES = ("identity", "degree", "none")


@dataclass
class ModelConfig:
    variant: str = "linear"
    K: int = 2
    N: int = 2
    pe_dim: int = 64
    hidden_dim: int = 256
    lr: float = 0.01
    weight_decay: float = 5e-4
    patience: int = 100
    max_epochs: int = 2000
    enable_fr: bool = True
    enable_lr: bool = True
    enable_pe: bool = True
    padding: str = "zero"
    seed: int = 0
    feature_policy: str = "identity"
    walk_len: int = 10
    walks_per_node: int = 10
    window: int = 5
    neg_samples: int = 5
    pe_epochs: int = 5
    pe_lr: float = 0.025

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (self.enable_fr or self.enable_lr or self.enable_pe):
            raise ValueError("at least one of enable_fr/enable_lr/enable_pe must be true")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.padding not in ("zero", "uniform"):
            raise ValueError(f"unknown padding {self.padding!r}")
        if self.feature_policy not in FEATURE_POLICIES:
            raise ValueError(f"unknown feature policy {self.feature_policy!r}")


@dataclass
class MultiFixModel:
    config: ModelConfig
    n_nodes: int
    n_labels: int
    feature_dim: int
    params: dict = field(default_factory=dict)

    @property
    def input_width(self) -> int:
        c = self.config
        return (
            (c.hidden_dim if c.enable_fr else 0)
            + (self.n_labels if c.enable_lr else 0)
            + (c.pe_dim if c.enable_pe else 0)
        )


def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _feature_projection(config: ModelConfig, feature_dim: int) -> np.ndarray:
    """The linear variant's seeded, never-trained projection (feature_dim x hidden_dim)."""
    return _glorot(substream(config.seed, "feat-proj"), feature_dim, config.hidden_dim)


def _readout_layers(config: ModelConfig) -> tuple:
    """The readout's dense layers, input side first; all but the last apply a ReLU."""
    return ("hid1", "hid2", "out") if config.variant == "mlp3" else ("out",)


def init_model(config: ModelConfig, n_nodes: int, n_labels: int, feature_dim: int) -> MultiFixModel:
    """Seeded parameter initialization: each layer draws from its own named substream."""
    model = MultiFixModel(
        config=config, n_nodes=n_nodes, n_labels=n_labels, feature_dim=feature_dim
    )
    c = config
    layers = [("ft", feature_dim, c.hidden_dim)] if c.enable_fr and c.variant != "linear" else []
    names = _readout_layers(c)
    widths = [model.input_width, *[c.hidden_dim] * (len(names) - 1), n_labels]
    layers += zip(names, widths[:-1], widths[1:])
    for name, fan_in, fan_out in layers:
        model.params[f"{name}_W"] = _glorot(substream(c.seed, "init", name), fan_in, fan_out)
        model.params[f"{name}_b"] = np.zeros(fan_out)
    return model


def _constant_input(model: MultiFixModel, H_f, H_l, pe, rows=None):
    """Check the enabled blocks and build the parts of the input that never train.

    H_f, H_l and pe are the blocks of :class:`Representations`, as arrays
    (None for a disabled block). H_f is the feature block: for the linear
    variant the projected features (n x hidden_dim), which enter the
    readout as they are; for the mlp variants the propagated raw features
    (n x feature_dim). Returns (F, blocks). F is the operand of the
    trainable feature transform (the mlp variants with the feature block
    on), else None. blocks are the constant blocks that follow the
    transform's output; when F is None they are one block, the whole readout
    input Z. With ``rows``, a boolean node mask, every part holds only the
    masked rows, sliced before the blocks are joined.
    """
    c = model.config
    F = None
    blocks = []
    if c.enable_fr:
        if H_f is None:
            raise ShapeError("feature block enabled but no feature representation given")
        F = np.asarray(H_f, np.float64)
        if c.variant == "linear":
            if F.shape[1] != c.hidden_dim:
                raise ShapeError(f"linear feature width {F.shape[1]} != hidden_dim {c.hidden_dim}")
            blocks.append(F)
            F = None
        elif F.shape[1] != model.feature_dim:
            raise ShapeError(f"feature width {F.shape[1]} != model feature_dim {model.feature_dim}")
    if c.enable_lr:
        if H_l is None:
            raise ShapeError("label block enabled but no label representation given")
        L = np.asarray(H_l, np.float64)
        if L.shape[1] != model.n_labels:
            raise ShapeError(f"label width {L.shape[1]} != n_labels {model.n_labels}")
        blocks.append(L)
    if c.enable_pe:
        if pe is None:
            raise ShapeError("positional block enabled but no embedding given")
        P = np.asarray(pe, np.float64)
        if P.shape[1] != c.pe_dim:
            raise ShapeError(f"embedding width {P.shape[1]} != pe_dim {c.pe_dim}")
        blocks.append(P)
    ns = {b.shape[0] for b in blocks}
    if F is not None:
        ns.add(F.shape[0])
    if len(ns) != 1:
        raise ShapeError(f"enabled blocks disagree on node count: {sorted(ns)}")
    if rows is not None:
        if rows.shape != (ns.pop(),):
            raise ShapeError("node mask length does not match the blocks' node count")
        blocks = [b[rows] for b in blocks]
        F = None if F is None else F[rows]
    if F is None:
        return None, [np.hstack(blocks)]
    return F, blocks


def _dense(model: MultiFixModel, name: str, x, cache, relu: bool):
    """Layer ``name`` on x, keeping (x, ReLU mask or None) in cache under the name."""
    pre = x @ model.params[f"{name}_W"] + model.params[f"{name}_b"]
    cache[name] = (x, pre > 0 if relu else None)
    return np.maximum(pre, 0.0) if relu else pre


def _readout(model: MultiFixModel, const):
    """One pass from the constant input to the logits; returns (logits, cache).

    The feature transform ``ft``, when the model has one, runs first and its
    output leads the readout input; the readout layers follow.
    """
    F, blocks = const
    cache = {}
    x = blocks[0] if F is None else np.hstack([_dense(model, "ft", F, cache, relu=True), *blocks])
    names = _readout_layers(model.config)
    for name in names:
        x = _dense(model, name, x, cache, relu=name != names[-1])
    return x, cache


def _backward(model: MultiFixModel, cache, probs, truth):
    """Gradients of the mean BCE over the readout's rows for every trainable parameter.

    probs is the unclipped sigmoid of the logits that ``cache`` came with,
    and truth holds the labels of the same rows. The gradient of a layer's
    input is formed only when a layer below needs it: the readout input's
    only when the feature transform is in the cache.
    """
    layers = (("ft",) if "ft" in cache else ()) + _readout_layers(model.config)
    d = (probs - truth) / len(probs)
    grads = {}
    for i in reversed(range(len(layers))):
        name = layers[i]
        x, mask = cache[name]
        if mask is not None:
            d = d * mask
        grads[f"{name}_W"] = x.T @ d
        grads[f"{name}_b"] = d.sum(axis=0)
        if i:
            d = d @ model.params[f"{name}_W"].T
            if layers[i - 1] == "ft":  # the transform's output is the input's leading columns
                d = d[:, : model.config.hidden_dim]
    return grads


def forward(model: MultiFixModel, H_f=None, H_l=None, pe=None) -> np.ndarray:
    """Full-graph label probabilities, clamped inside (0, 1).

    The blocks are those of :class:`Representations`: for the linear variant
    H_f is already projected (n x hidden_dim), for the mlp variants it is
    the propagated raw features (n x feature_dim).
    """
    logits, _ = _readout(model, _constant_input(model, H_f, H_l, pe))
    return np.clip(_sigmoid(logits), PROB_EPS, 1.0 - PROB_EPS)


def bce_loss(pred: np.ndarray, truth: np.ndarray):
    """Multi-label binary cross entropy over the given rows.

    Returns (total, per_node): per_node[i] is the summed-over-labels loss of
    row i; total is their mean. Predictions are clamped away from 0 and 1
    before the log.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred {pred.shape} and truth {truth.shape} differ")
    p = np.clip(pred, PROB_EPS, 1.0 - PROB_EPS)
    per_node = -(truth * np.log(p) + (1.0 - truth) * np.log(1.0 - p)).sum(axis=1)
    return float(per_node.mean()), per_node


def model_loss_and_grads(model, H_f, H_l, pe, truth, node_mask, weight_decay=0.0):
    """Masked BCE (+ optional L2 on weight matrices) and its gradients.

    Returns (loss, grads) where grads maps every trainable parameter name to
    the analytic gradient of the full objective. With weight_decay > 0 the
    objective includes 0.5 * wd * ||W||^2 over weight matrices (not biases),
    so the gradients can be checked against finite differences directly.
    The readout and the backward pass are the ones :func:`train` runs, on
    the masked rows only, and the blocks follow :func:`forward`'s contract
    (a linear model's H_f is n x hidden_dim).
    """
    truth = np.asarray(truth, dtype=np.float64)
    node_mask = np.asarray(node_mask, dtype=bool)
    if truth.shape[:1] != node_mask.shape:
        raise ShapeError("node mask length does not match truth rows")
    if not node_mask.any():
        raise ValueError("node mask selects no rows")
    logits, cache = _readout(model, _constant_input(model, H_f, H_l, pe, rows=node_mask))
    probs = _sigmoid(logits)
    rows_truth = truth[node_mask]
    loss, _ = bce_loss(probs, rows_truth)
    grads = _backward(model, cache, probs, rows_truth)

    p = model.params
    if weight_decay > 0.0:
        for k in p:
            if k.endswith("_W"):
                grads[k] = grads[k] + weight_decay * p[k]
                loss += 0.5 * weight_decay * float((p[k] ** 2).sum())
    return loss, grads


class AdamState:
    """Adaptive-moment optimizer with decoupled weight decay on matrices."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1**self.t)
            v_hat = self.v[k] / (1 - b2**self.t)
            params[k] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay > 0.0 and k.endswith("_W"):
                params[k] -= self.lr * self.weight_decay * params[k]


@dataclass(frozen=True)
class Representations:
    """The fitted inputs of the readout for one dataset split.

    Each block is a float64 array with a row per node, or None when it is
    disabled: H_f the propagated features, H_l the propagated labels
    (n x n_labels), pe the walk embedding (n x pe_dim). For the linear
    variant H_f is already through the projection (n x hidden_dim); for the
    mlp variants it is the propagated raw features (n x feature_dim).
    feature_dim is the width of the (substituted) raw features, 0 when the
    feature block is off.
    """

    H_f: np.ndarray | None
    H_l: np.ndarray | None
    pe: np.ndarray | None
    feature_dim: int


def compute_representations(dataset: Dataset, config: ModelConfig) -> Representations:
    """Fit the enabled representations for a dataset, once per split.

    Features are substituted by config.feature_policy when the dataset has
    none. The linear variant's feature block is A^K · X · P, with P its
    seeded projection to hidden_dim; it is computed here and nowhere else.
    With the identity policy P itself is propagated instead of the n x n
    identity (A^K · I · P = A^K · P), so the block takes n x hidden_dim
    memory, not n x n; otherwise X is propagated and then projected.
    The walk embedding is trained deterministically from config.seed.
    Blocks that config disables are None.
    """
    H_f = H_l = pe = X = P = None
    feature_dim = 0
    adj = None
    if config.enable_fr or config.enable_lr:
        adj = sym_norm_adjacency(dataset.graph)
    if config.enable_fr:
        linear = config.variant == "linear"
        if linear and dataset.features is None and config.feature_policy == "identity":
            feature_dim = dataset.n
        else:
            X = substitute_features(dataset, config.feature_policy).features
            feature_dim = X.shape[1]
        if linear:
            P = _feature_projection(config, feature_dim)
        activation = "identity" if linear else "relu"
        H_f = propagate_features(adj, P if X is None else X, config.K, activation)
        if X is None:
            P = None  # A^K · I · P = A^K · P is already the projected block
    if config.enable_lr:
        H0 = init_label_matrix(dataset, config.padding)
        H_l = propagate_labels(adj, H0, config.N)
    if config.enable_pe:
        corpus = generate_walks(
            dataset.graph, config.walk_len, config.walks_per_node, config.seed
        )
        pe = train_skipgram(
            corpus,
            dataset.n,
            config.pe_dim,
            config.window,
            config.neg_samples,
            config.pe_epochs,
            config.pe_lr,
            config.seed,
        )
    if P is not None:
        # real features are projected only after the walk embedding: skip-gram's
        # workspace is the fit's largest transient, and until here the block is n x D
        H_f = H_f @ P
    return Representations(H_f=H_f, H_l=H_l, pe=pe, feature_dim=feature_dim)


def train(dataset: Dataset, config: ModelConfig, reps: Representations, metrics_path=None):
    """Train the readout (and feature transform) on the train-node BCE.

    ``reps`` are the split's representations from
    :func:`compute_representations`. Only the blocks that config enables are
    read, so one fit with every block on serves each ablation of its config.
    The input blocks that do not train are built once for the train rows
    and once for the validation rows; no other row is read. Each epoch runs
    one readout of each: the train readout gives the epoch's train losses
    and the next epoch's gradient step, the validation readout its
    samples-AP. Early stopping tracks that AP with the configured patience
    and the returned model carries the weights of the best validation epoch.
    Per-node train losses are recorded every epoch and subsampled into the
    returned DynamicsLog (exactly 30 checkpoints for runs of >= 30 epochs).
    Each epoch's row is written to an unlinked temporary file under TMPDIR
    and only the checkpoint rows are read back, so the rows take
    epochs x train rows x 8 bytes of disk (about 275 MiB for 2000 epochs at
    n=30 000) instead of memory.

    Returns (model, dynamics_log, best_val_ap).
    """
    if not dataset.train_mask.any():
        raise ValueError("no train nodes")
    if not dataset.val_mask.any():
        raise ValueError("no validation nodes (needed for early stopping)")
    feature_dim = reps.feature_dim if config.enable_fr else 0
    model = init_model(config, dataset.n, dataset.n_labels, feature_dim)
    opt = AdamState(model.params, lr=config.lr, weight_decay=config.weight_decay)
    train_mask, val_mask = dataset.train_mask, dataset.val_mask
    train_const = _constant_input(model, reps.H_f, reps.H_l, reps.pe, rows=train_mask)
    val_const = _constant_input(model, reps.H_f, reps.H_l, reps.pe, rows=val_mask)

    truth = dataset.labels.astype(np.float64)
    train_truth, val_truth = truth[train_mask], truth[val_mask]
    best_ap, best_epoch, best_params = -np.inf, 0, None
    last_epoch = 0

    # every epoch's per-node losses go to an unlinked file and only the
    # checkpoint rows come back, so memory does not grow with the epochs
    with (
        tempfile.TemporaryFile() as spill,
        open(metrics_path, "w", encoding="utf-8") if metrics_path else nullcontext() as metrics_fh,
    ):
        # train readout of the current parameters: the pre-step state of
        # epoch 1, then after each step the post-step state of that epoch
        # and the pre-step state of the next
        logits, cache = _readout(model, train_const)
        probs = _sigmoid(logits)
        if not np.isfinite(bce_loss(probs, train_truth)[0]):
            raise TrainingDivergedError(1)
        for epoch in range(1, config.max_epochs + 1):
            opt.step(model.params, _backward(model, cache, probs, train_truth))

            logits, cache = _readout(model, train_const)
            probs = _sigmoid(logits)
            train_loss, per_node = bce_loss(probs, train_truth)
            if not np.isfinite(train_loss):
                raise TrainingDivergedError(epoch)
            val_probs = _sigmoid(_readout(model, val_const)[0])
            val_ap = average_precision(
                np.clip(val_probs, PROB_EPS, 1.0 - PROB_EPS), val_truth, "samples"
            )
            spill.write(per_node.data)
            last_epoch = epoch
            if metrics_fh:
                metrics_fh.write(
                    json.dumps(
                        {"epoch": epoch, "train_loss": train_loss, "val_ap": val_ap},
                        sort_keys=True,
                    )
                    + "\n"
                )
            if val_ap >= best_ap:
                # a plateau keeps the longer-trained weights, but patience
                # counts from the first epoch that reached this AP
                best_params = {k: v.copy() for k, v in model.params.items()}
                if val_ap > best_ap:
                    best_ap, best_epoch = val_ap, epoch
            if epoch - best_epoch >= config.patience:
                break

        ckpt = checkpoint_epochs(last_epoch)
        losses = np.empty((len(ckpt), len(train_truth)), dtype=np.float64)
        for row, e in zip(losses, ckpt):
            spill.seek((e - 1) * row.nbytes)
            spill.readinto(row.data)

    model.params = best_params
    log = DynamicsLog(
        node_ids=np.flatnonzero(train_mask).astype(np.int64),
        epochs=ckpt,
        losses=losses,
    )
    return model, log, float(best_ap)


def predict(model: MultiFixModel, dataset: Dataset, reps: Representations) -> np.ndarray:
    """Transductive inference: full-graph probabilities for the dataset.

    ``reps`` are the representations the model was trained on.
    """
    if dataset.n_labels != model.n_labels:
        raise CompatibilityError(
            f"model predicts {model.n_labels} labels, dataset has {dataset.n_labels}"
        )
    if model.config.enable_fr and reps.feature_dim != model.feature_dim:
        raise CompatibilityError(
            f"model expects {model.feature_dim}-dim features, dataset provides "
            f"{reps.feature_dim}"
        )
    return forward(model, reps.H_f, reps.H_l, reps.pe)


CHECKPOINT_MAGIC = b"GMFX2"


def save_model(model: MultiFixModel, path):
    """Versioned binary checkpoint: magic, JSON header, float64 LE blobs.

    It holds the trained parameters only; the linear variant's projection is
    redrawn from the seed by :func:`compute_representations`.
    """
    manifest = [[k, list(v.shape)] for k, v in sorted(model.params.items())]
    header = json.dumps(
        {
            "config": asdict(model.config),
            "n_nodes": model.n_nodes,
            "n_labels": model.n_labels,
            "feature_dim": model.feature_dim,
            "manifest": manifest,
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for key, _ in manifest:
            fh.write(np.ascontiguousarray(model.params[key], dtype="<f8").tobytes())


def load_model(path) -> MultiFixModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a model checkpoint (bad magic {magic!r})")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        model = MultiFixModel(
            config=ModelConfig(**header["config"]),
            n_nodes=header["n_nodes"],
            n_labels=header["n_labels"],
            feature_dim=header["feature_dim"],
        )
        for key, shape in header["manifest"]:
            count = int(np.prod(shape)) if shape else 1
            model.params[key] = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(shape).copy()
    return model
