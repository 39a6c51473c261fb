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
value, which :func:`train` and :func:`predict` both take. Within training,
everything that does not depend on trainable parameters is built once, and
each epoch runs one readout: the post-step probabilities of epoch t are the
pre-step ones of epoch t+1.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    CompatibilityError,
    ShapeError,
    TrainingDivergedError,
    UnsupportedExportError,
)
from .evaluation import DynamicsLog, average_precision, checkpoint_epochs
from .graph import Dataset, substitute_features, sym_norm_adjacency
from .positional import PositionalEmbedding, generate_walks, train_skipgram
from .propagation import (
    FeatureRep,
    LabelRep,
    init_label_matrix,
    propagate_features,
    propagate_labels,
)
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


def init_model(config: ModelConfig, n_nodes: int, n_labels: int, feature_dim: int) -> MultiFixModel:
    """Seeded parameter initialization for the given dimensions."""
    model = MultiFixModel(
        config=config, n_nodes=n_nodes, n_labels=n_labels, feature_dim=feature_dim
    )
    c = config
    if c.enable_fr and c.variant != "linear":
        rng = substream(c.seed, "init", "ft")
        model.params["ft_W"] = _glorot(rng, feature_dim, c.hidden_dim)
        model.params["ft_b"] = np.zeros(c.hidden_dim)
    w_in = model.input_width
    if c.variant == "mlp3":
        r1 = substream(c.seed, "init", "hid1")
        r2 = substream(c.seed, "init", "hid2")
        r3 = substream(c.seed, "init", "out")
        model.params["hid1_W"] = _glorot(r1, w_in, c.hidden_dim)
        model.params["hid1_b"] = np.zeros(c.hidden_dim)
        model.params["hid2_W"] = _glorot(r2, c.hidden_dim, c.hidden_dim)
        model.params["hid2_b"] = np.zeros(c.hidden_dim)
        model.params["out_W"] = _glorot(r3, c.hidden_dim, n_labels)
        model.params["out_b"] = np.zeros(n_labels)
    else:
        rng = substream(c.seed, "init", "out")
        model.params["out_W"] = _glorot(rng, w_in, n_labels)
        model.params["out_b"] = np.zeros(n_labels)
    return model


def _sigmoid(z):
    out = np.clip(z, -500, 500)
    return 1.0 / (1.0 + np.exp(-out))


def _constant_input(model: MultiFixModel, H_f, H_l, pe):
    """Check the enabled blocks and build the parts of the input that never train.

    H_f is the feature block of :func:`compute_representations`: for the
    linear variant the projected features (n x hidden_dim), which enter the
    readout as they are; for the mlp variants the propagated raw features
    (n x feature_dim). Returns (F, blocks). F is the operand of the
    trainable feature transform (the mlp variants with the feature block
    on), else None. blocks are the constant blocks that follow the
    transform's output; when F is None they are one block, the whole readout
    input Z.
    """
    c = model.config
    F = None
    blocks = []
    if c.enable_fr:
        if H_f is None:
            raise ShapeError("feature block enabled but no feature representation given")
        F = H_f.H_f if isinstance(H_f, FeatureRep) else np.asarray(H_f, np.float64)
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
        L = H_l.H_l if isinstance(H_l, LabelRep) else np.asarray(H_l, np.float64)
        if L.shape[1] != model.n_labels:
            raise ShapeError(f"label width {L.shape[1]} != n_labels {model.n_labels}")
        blocks.append(L)
    if c.enable_pe:
        if pe is None:
            raise ShapeError("positional block enabled but no embedding given")
        P = pe.vectors if isinstance(pe, PositionalEmbedding) else np.asarray(pe, np.float64)
        if P.shape[1] != c.pe_dim:
            raise ShapeError(f"embedding width {P.shape[1]} != pe_dim {c.pe_dim}")
        blocks.append(P)
    ns = {b.shape[0] for b in blocks}
    if F is not None:
        ns.add(F.shape[0])
    if len(ns) != 1:
        raise ShapeError(f"enabled blocks disagree on node count: {sorted(ns)}")
    if F is None:
        return None, [np.hstack(blocks)]
    return F, blocks


def _assemble_input(model: MultiFixModel, const):
    """The readout input Z from the constant parts; returns (Z, cache) for backprop."""
    F, blocks = const
    if F is None:
        return blocks[0], {}
    pre = F @ model.params["ft_W"] + model.params["ft_b"]
    B = np.maximum(pre, 0.0)
    return np.hstack([B, *blocks]), {"ft_in": F, "ft_mask": pre > 0}


def _readout(model: MultiFixModel, const):
    """One pass from the constant input to the logits; returns (logits, cache)."""
    Z, cache = _assemble_input(model, const)
    p = model.params
    cache["Z"] = Z
    if model.config.variant == "mlp3":
        pre1 = Z @ p["hid1_W"] + p["hid1_b"]
        a1 = np.maximum(pre1, 0.0)
        pre2 = a1 @ p["hid2_W"] + p["hid2_b"]
        a2 = np.maximum(pre2, 0.0)
        logits = a2 @ p["out_W"] + p["out_b"]
        cache.update(m1=pre1 > 0, a1=a1, m2=pre2 > 0, a2=a2)
    else:
        logits = Z @ p["out_W"] + p["out_b"]
    return logits, cache


def _backward(model: MultiFixModel, cache, probs, truth, node_mask, n_masked):
    """Gradients of the mean masked BCE for every trainable parameter.

    probs is the unclipped sigmoid of the logits that ``cache`` came with.
    """
    d_logits = np.zeros_like(probs)
    d_logits[node_mask] = (probs[node_mask] - truth[node_mask]) / n_masked

    grads = {}
    p = model.params
    Z = cache["Z"]
    if model.config.variant == "mlp3":
        a2, a1 = cache["a2"], cache["a1"]
        grads["out_W"] = a2.T @ d_logits
        grads["out_b"] = d_logits.sum(axis=0)
        d_a2 = (d_logits @ p["out_W"].T) * cache["m2"]
        grads["hid2_W"] = a1.T @ d_a2
        grads["hid2_b"] = d_a2.sum(axis=0)
        d_a1 = (d_a2 @ p["hid2_W"].T) * cache["m1"]
        grads["hid1_W"] = Z.T @ d_a1
        grads["hid1_b"] = d_a1.sum(axis=0)
        d_first, W_first = d_a1, p["hid1_W"]
    else:
        grads["out_W"] = Z.T @ d_logits
        grads["out_b"] = d_logits.sum(axis=0)
        d_first, W_first = d_logits, p["out_W"]

    # d_Z flows back through the first layer; only the feature block needs it
    if "ft_in" in cache:
        width = model.config.hidden_dim
        d_Z = d_first @ W_first.T
        d_B = d_Z[:, :width] * cache["ft_mask"]
        grads["ft_W"] = cache["ft_in"].T @ d_B
        grads["ft_b"] = d_B.sum(axis=0)
    return grads


def forward(model: MultiFixModel, H_f=None, H_l=None, pe=None) -> np.ndarray:
    """Full-graph label probabilities, clamped inside (0, 1).

    The blocks are those of :class:`Representations`: for the linear variant
    H_f is already projected (n x hidden_dim), for the mlp variants it is
    the propagated raw features (n x feature_dim).
    """
    logits, _ = _readout(model, _constant_input(model, H_f, H_l, pe))
    return np.clip(_sigmoid(logits), PROB_EPS, 1.0 - PROB_EPS)


def bce_loss(pred: np.ndarray, truth: np.ndarray, node_mask: np.ndarray):
    """Multi-label binary cross entropy on the masked rows.

    Returns (total, per_node): per_node[i] is the summed-over-labels loss of
    the i-th masked node (ascending node id); total is their mean.
    Predictions are clamped away from 0 and 1 before the log.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred {pred.shape} and truth {truth.shape} differ")
    node_mask = np.asarray(node_mask, dtype=bool)
    if node_mask.shape != (pred.shape[0],):
        raise ShapeError("node mask length does not match prediction rows")
    p = np.clip(pred[node_mask], PROB_EPS, 1.0 - PROB_EPS)
    t = truth[node_mask]
    per_node = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).sum(axis=1)
    return float(per_node.mean()), per_node


def model_loss_and_grads(model, H_f, H_l, pe, truth, node_mask, weight_decay=0.0):
    """Masked BCE (+ optional L2 on weight matrices) and its gradients.

    Returns (loss, grads) where grads maps every trainable parameter name to
    the analytic gradient of the full objective. With weight_decay > 0 the
    objective includes 0.5 * wd * ||W||^2 over weight matrices (not biases),
    so the gradients can be checked against finite differences directly.
    The readout and the backward pass are the ones :func:`train` runs, and
    the blocks follow :func:`forward`'s contract (a linear model's H_f is
    n x hidden_dim).
    """
    truth = np.asarray(truth, dtype=np.float64)
    node_mask = np.asarray(node_mask, dtype=bool)
    n_masked = int(node_mask.sum())
    if n_masked == 0:
        raise ValueError("node mask selects no rows")
    logits, cache = _readout(model, _constant_input(model, H_f, H_l, pe))
    probs = _sigmoid(logits)
    loss, _ = bce_loss(probs, truth, node_mask)
    grads = _backward(model, cache, probs, truth, node_mask, n_masked)

    p = model.params
    if weight_decay > 0.0:
        for k in p:
            if k.endswith("_W"):
                grads[k] = grads[k] + weight_decay * p[k]
                loss += 0.5 * weight_decay * float((p[k] ** 2).sum())
    return loss, grads


class AdamState:
    """Adaptive-moment optimizer with decoupled weight decay on matrices."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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

    Disabled blocks are None; feature_dim is the width of the (substituted)
    raw features, 0 when the feature block is off. For the linear variant
    H_f holds the propagated features already through the projection
    (n x hidden_dim); for the mlp variants it holds the propagated raw
    features (n x feature_dim).
    """

    H_f: FeatureRep | None
    H_l: LabelRep | None
    pe: PositionalEmbedding | None
    feature_dim: int


def compute_representations(dataset: Dataset, config: ModelConfig, pe=None) -> Representations:
    """Fit the enabled representations for a dataset, once per split.

    Features are substituted by config.feature_policy when the dataset has
    none. The linear variant's feature block is A^K · X · P, with P its
    seeded projection to hidden_dim; it is computed here and nowhere else.
    With the identity policy P itself is propagated instead of the n x n
    identity (A^K · I · P = A^K · P), so the block takes n x hidden_dim
    memory, not n x n; otherwise X is propagated and then projected.
    The walk embedding is retrained deterministically from config.seed
    unless one is passed in (e.g. cached from a previous run).
    """
    H_f = H_l = X = P = None
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
        if pe is None:
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
    else:
        pe = None
    if P is not None:
        # real features are projected only after the walk embedding: skip-gram's
        # workspace is the fit's largest transient, and until here the block is n x D
        H_f = FeatureRep(H_f=H_f.H_f @ P, K=H_f.K)
    return Representations(H_f=H_f, H_l=H_l, pe=pe, feature_dim=feature_dim)


def train(dataset: Dataset, config: ModelConfig, reps=None, metrics_path=None):
    """Train the readout (and feature transform) on the train-node BCE.

    ``reps`` are the split's fitted representations; they are computed with
    :func:`compute_representations` when not given. The input blocks that do
    not train are built once, and each epoch runs one readout, whose
    probabilities serve both the epoch's metrics and the next epoch's
    gradient step. Early stopping tracks the validation samples-AP with the
    configured patience and the returned model carries the weights of the
    best validation epoch. Per-node train losses are recorded every epoch
    and subsampled into the returned DynamicsLog (exactly 30 checkpoints for
    runs of >= 30 epochs).

    Returns (model, dynamics_log, best_val_ap).
    """
    if not dataset.train_mask.any():
        raise ValueError("no train nodes")
    if not dataset.val_mask.any():
        raise ValueError("no validation nodes (needed for early stopping)")
    if reps is None:
        reps = compute_representations(dataset, config)
    model = init_model(config, dataset.n, dataset.n_labels, reps.feature_dim)
    opt = AdamState(model.params, lr=config.lr, weight_decay=config.weight_decay)
    const = _constant_input(model, reps.H_f, reps.H_l, reps.pe)

    truth = dataset.labels.astype(np.float64)
    train_mask, val_mask = dataset.train_mask, dataset.val_mask
    n_train = int(train_mask.sum())
    per_epoch_losses = []
    best_ap, best_epoch, best_params = -np.inf, 0, None
    last_epoch = 0

    metrics_fh = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        # readout of the current parameters: the pre-step state of epoch 1,
        # then after each step the post-step state of that epoch and the
        # pre-step state of the next
        logits, cache = _readout(model, const)
        probs = _sigmoid(logits)
        if not np.isfinite(bce_loss(probs, truth, train_mask)[0]):
            raise TrainingDivergedError(1)
        for epoch in range(1, config.max_epochs + 1):
            opt.step(model.params, _backward(model, cache, probs, truth, train_mask, n_train))

            logits, cache = _readout(model, const)
            probs = _sigmoid(logits)
            clamped = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
            train_loss, per_node = bce_loss(clamped, truth, train_mask)
            if not np.isfinite(train_loss):
                raise TrainingDivergedError(epoch)
            val_ap = average_precision(clamped[val_mask], truth[val_mask], "samples")
            per_epoch_losses.append(per_node)
            last_epoch = epoch
            if metrics_fh:
                metrics_fh.write(
                    json.dumps(
                        {"epoch": epoch, "train_loss": train_loss, "val_ap": val_ap},
                        sort_keys=True,
                    )
                    + "\n"
                )
            if val_ap > best_ap:
                best_ap, best_epoch = val_ap, epoch
                best_params = {k: v.copy() for k, v in model.params.items()}
            elif val_ap == best_ap:
                # plateau: keep the longer-trained weights, but count
                # patience from the first epoch that reached this AP
                best_params = {k: v.copy() for k, v in model.params.items()}
                if epoch - best_epoch >= config.patience:
                    break
            elif epoch - best_epoch >= config.patience:
                break
    finally:
        if metrics_fh:
            metrics_fh.close()

    model.params = best_params
    ckpt = checkpoint_epochs(last_epoch)
    losses = np.stack([per_epoch_losses[e - 1] for e in ckpt])
    log = DynamicsLog(
        node_ids=np.flatnonzero(train_mask).astype(np.int64),
        epochs=ckpt,
        losses=losses,
    )
    return model, log, float(best_ap)


def predict(model: MultiFixModel, dataset: Dataset, reps=None) -> np.ndarray:
    """Transductive inference: full-graph probabilities for the dataset.

    ``reps`` should be the representations the model was trained on. Without
    them they are recomputed from the dataset and the model's config, which
    reproduces the training-time inputs of a model trained on this dataset
    but repeats the propagation and the skip-gram training.
    """
    if dataset.n_labels != model.n_labels:
        raise CompatibilityError(
            f"model predicts {model.n_labels} labels, dataset has {dataset.n_labels}"
        )
    if reps is None:
        reps = compute_representations(dataset, model.config)
    if model.config.enable_fr and reps.feature_dim != model.feature_dim:
        raise CompatibilityError(
            f"model expects {model.feature_dim}-dim features, dataset provides "
            f"{reps.feature_dim}"
        )
    return forward(model, reps.H_f, reps.H_l, reps.pe)


def export_fusion_weights(model: MultiFixModel, out_path):
    """Write the fusion-layer weights, one labelled block per input part.

    Only the single-affine-readout variants (linear, mlp1) have a fusion
    layer whose columns are attributable to the feature / label / positional
    blocks; mlp3 is refused. Blocks are written as C x width CSV sections.
    """
    if model.config.variant not in ("linear", "mlp1"):
        raise UnsupportedExportError(
            "fusion weights are only block-attributable for the linear and mlp1 variants"
        )
    W = model.params["out_W"].T  # C x input_width
    c = model.config
    blocks = []
    col = 0
    if c.enable_fr:
        blocks.append(("W_f", W[:, col : col + c.hidden_dim]))
        col += c.hidden_dim
    if c.enable_lr:
        blocks.append(("W_l", W[:, col : col + model.n_labels]))
        col += model.n_labels
    if c.enable_pe:
        blocks.append(("W_phi", W[:, col : col + c.pe_dim]))
        col += c.pe_dim
    with open(out_path, "w", encoding="utf-8") as fh:
        for name, block in blocks:
            fh.write(f"# block={name} rows={block.shape[0]} cols={block.shape[1]}\n")
            for row in block:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_fusion_weights(path) -> dict:
    """Read back the blocks written by :func:`export_fusion_weights`."""
    blocks = {}
    name, rows = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# block="):
                if name is not None:
                    blocks[name] = np.asarray(rows, dtype=np.float64)
                name = line.split()[1].split("=", 1)[1]
                rows = []
            elif line.strip():
                rows.append([float(x) for x in line.split(",")])
    if name is not None:
        blocks[name] = np.asarray(rows, dtype=np.float64)
    return blocks


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
