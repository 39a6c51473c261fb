"""The fused classifier: feature, label, and positional blocks into a readout.

Three precomputed node representations (propagated features, reset-free
propagated labels, walk embeddings) are concatenated and fed to a sigmoid
readout trained with binary cross entropy. Variants:

  linear  propagation with identity activation, a seeded, never-trained
          projection P of the propagated features to hidden width, one
          affine readout layer; the whole map from representations to logits
          is linear. P is part of the representations, not of the model:
          :func:`compute_representations` draws it, and checkpoints hold
          only trained parameters. Features other than the identity stay
          unprojected beside P, and the readout applies P to its weight
          instead (A^K·X·P·W = A^K·X·(P·W)), so its input is D wide, not
          hidden_dim. Identity features propagate P itself
          (A^K · I · P = A^K · P), so the n x n identity is never built
          and the block arrives projected.
  mlp1    ReLU feature propagation, trainable affine+ReLU feature transform,
          one affine readout layer.
  mlp3    as mlp1 but with a three-layer ReLU readout.

Disabled blocks are absent from the concatenation (the readout narrows).

The representations are fitted once per dataset split by
:func:`compute_representations` into a frozen :class:`Representations`
value, which :func:`forward`, :func:`model_loss_and_grads`, :func:`train`
and :func:`predict` take whole; :func:`substitute_features` and
:func:`compute_representations` alone decide what a featureless dataset
gets. The readout input is Z, or hstack([ft(F), Z]) for the mlp variants
with the feature block on: F is the operand of the feature transform ``ft``
and Z every other enabled block, joined once, with the linear variant's P
when its features come unprojected. Training reads only the rows
it needs: the BCE and its gradient read the train nodes and early stopping
reads the validation nodes, so :func:`train` builds (F, Z, P) once for each of
those row sets, and each epoch runs one readout of each. The post-step
train readout of epoch t, loss and gradient, is the pre-step one of epoch
t+1. Only :func:`predict` computes every row.
"""

from __future__ import annotations

import json
import math
import struct
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CompatibilityError, ShapeError, TrainingDivergedError
from .evaluation import DynamicsLog, average_precision, checkpoint_epochs
from .graph import Dataset, sym_norm_adjacency
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
        # K = 0 is the feature-only MLP baseline's unpropagated features
        for name, low in (
            ("K", 0), ("N", 0), ("pe_dim", 1), ("hidden_dim", 1), ("patience", 1),
            ("max_epochs", 1), ("walk_len", 2), ("walks_per_node", 1), ("window", 1),
            ("neg_samples", 1), ("pe_epochs", 1),
        ):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("lr", "pe_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be a finite number >= 0, got {self.weight_decay}")
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


@dataclass(frozen=True)
class Representations:
    """The fitted inputs of the readout for one dataset split.

    Each block is a float64 array with a row per node, or None when it is
    disabled: H_f the propagated features, H_l the propagated labels
    (n x n_labels), pe the walk embedding (n x pe_dim). feature_dim is the
    width of the (substituted) raw features, 0 when the feature block is
    off. For the mlp variants H_f is the propagated raw features
    (n x feature_dim), the readout's F; every other block joins its Z, and
    P is None. The linear variant's H_f joins Z too: with P, its seeded
    feature_dim x hidden_dim projection, H_f is the unprojected A^K · X and
    the readout applies P to its weight; with P None (identity features)
    H_f is already projected, n x hidden_dim. The readout's entry points
    take this value whole, so P never travels apart from H_f.
    """

    H_f: np.ndarray | None
    H_l: np.ndarray | None
    pe: np.ndarray | None
    feature_dim: int
    P: np.ndarray | None = None


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


def _constant_input(model: MultiFixModel, reps: Representations, rows=None):
    """Check the enabled blocks and build the parts of the readout input that never train.

    Returns (F, Z, P). F is the operand of the feature transform ``ft`` (the
    mlp variants' feature block), else None. Z is every other enabled block
    of ``reps`` joined once in readout order, zero columns wide when F is
    the only block. P is the linear variant's projection when Z leads with
    the unprojected feature_dim-wide features, else None. With ``rows``, a
    boolean node mask, F and Z hold only the masked rows, which are written
    into Z block by block.
    """
    c = model.config
    linear = c.variant == "linear"
    P = reps.P if c.enable_fr else None
    if P is not None:
        if not linear:
            raise ShapeError(f"the {c.variant} variant's features take no projection")
        if P.shape != (model.feature_dim, c.hidden_dim):
            raise ShapeError(
                f"projection is {P.shape}, expected ({model.feature_dim}, {c.hidden_dim})"
            )
    blocks = []
    for name, block, enabled, width in (
        ("feature", reps.H_f, c.enable_fr, c.hidden_dim if linear and P is None else model.feature_dim),
        ("label", reps.H_l, c.enable_lr, model.n_labels),
        ("positional", reps.pe, c.enable_pe, c.pe_dim),
    ):
        if not enabled:
            continue
        if block is None:
            raise ShapeError(f"{name} block enabled but not given")
        block = np.asarray(block, np.float64)
        if block.shape[1] != width:
            raise ShapeError(f"{name} block is {block.shape[1]} wide, expected {width}")
        blocks.append(block)
    ns = {b.shape[0] for b in blocks}
    if len(ns) != 1:
        raise ShapeError(f"enabled blocks disagree on node count: {sorted(ns)}")
    n = ns.pop()
    if rows is not None and rows.shape != (n,):
        raise ShapeError("node mask length does not match the blocks' node count")
    F = blocks.pop(0) if c.enable_fr and not linear else None
    if F is not None and rows is not None:
        F = F[rows]
    # each block's rows are written into Z in turn, so at most one block's
    # row copy exists beside Z
    Z = np.empty((n if rows is None else int(rows.sum()), sum(b.shape[1] for b in blocks)))
    at = 0
    for b in blocks:
        Z[:, at : at + b.shape[1]] = b if rows is None else b[rows]
        at += b.shape[1]
    return F, Z, P


def _dense(model: MultiFixModel, name: str, x, cache, relu: bool, P=None):
    """Layer ``name`` on x, keeping (x, ReLU mask or None) in cache under the name.

    With a projection P (k x h), x's leading k columns stand for their
    product with P, so the layer takes the weight W_eff = [P · W[:h] ; W[h:]].
    """
    W = model.params[f"{name}_W"]
    if P is not None:
        W = np.vstack([P @ W[: P.shape[1]], W[P.shape[1] :]])
    pre = x @ W + model.params[f"{name}_b"]
    cache[name] = (x, pre > 0 if relu else None)
    return np.maximum(pre, 0.0) if relu else pre


def _readout(model: MultiFixModel, const):
    """One pass from the constant input to the logits; returns (logits, cache).

    The feature transform ``ft``, when the model has one, runs first and its
    output leads the readout input; the readout layers follow. The
    projection P of the constant input, when there is one, goes into the
    first readout layer's weight and into the cache under "P".
    """
    F, Z, P = const
    cache = {"P": P}
    x = Z if F is None else np.hstack([_dense(model, "ft", F, cache, relu=True), Z])
    names = _readout_layers(model.config)
    for name in names:
        x = _dense(model, name, x, cache, relu=name != names[-1], P=P if name == names[0] else None)
    return x, cache


def _backward(model: MultiFixModel, cache, probs, truth):
    """Gradients of the mean BCE over the readout's rows for every trainable parameter.

    probs is the unclipped sigmoid of the logits that ``cache`` came with,
    and truth holds the labels of the same rows. The gradient of a layer's
    input is formed only when a layer below needs it: the readout input's
    only when the feature transform is in the cache. With a projection P in
    the cache (never beside ``ft``), the first layer's gradient is taken
    with respect to W_eff and its leading rows are mapped back through Pᵀ.
    """
    layers = (("ft",) if "ft" in cache else ()) + _readout_layers(model.config)
    P = cache["P"]
    d = (probs - truth) / len(probs)
    grads = {}
    for i in reversed(range(len(layers))):
        name = layers[i]
        x, mask = cache[name]
        if mask is not None:
            d = d * mask
        grads[f"{name}_W"] = x.T @ d
        if i == 0 and P is not None:
            g = grads[f"{name}_W"]
            grads[f"{name}_W"] = np.vstack([P.T @ g[: len(P)], g[len(P) :]])
        grads[f"{name}_b"] = d.sum(axis=0)
        if i:
            d = d @ model.params[f"{name}_W"].T
            if layers[i - 1] == "ft":  # the transform's output is the input's leading columns
                d = d[:, : model.config.hidden_dim]
    return grads


def _probs(model: MultiFixModel, const) -> np.ndarray:
    """The label probabilities of the constant input's rows, clamped inside (0, 1)."""
    return np.clip(_sigmoid(_readout(model, const)[0]), PROB_EPS, 1.0 - PROB_EPS)


def _loss_and_grads(model: MultiFixModel, const, truth):
    """(loss, per_node, grads) of :func:`bce_loss` and :func:`_backward` from one readout."""
    logits, cache = _readout(model, const)
    probs = _sigmoid(logits)
    loss, per_node = bce_loss(probs, truth)
    return loss, per_node, _backward(model, cache, probs, truth)


def forward(model: MultiFixModel, reps: Representations) -> np.ndarray:
    """Full-graph label probabilities of ``reps``, clamped inside (0, 1)."""
    return _probs(model, _constant_input(model, reps))


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


def model_loss_and_grads(model, reps: Representations, truth, node_mask):
    """Masked BCE and its gradients: the objective :func:`train` steps on.

    Returns (loss, grads) where grads maps every trainable parameter name to
    the analytic gradient of the mean BCE over the masked rows, so the
    gradients can be checked against finite differences directly. It runs
    :func:`train`'s readout and backward pass on the masked rows. Weight
    decay is no part of it: :class:`AdamState` applies it to the weights.
    """
    truth = np.asarray(truth, dtype=np.float64)
    node_mask = np.asarray(node_mask, dtype=bool)
    if truth.shape[:1] != node_mask.shape:
        raise ShapeError("node mask length does not match truth rows")
    if not node_mask.any():
        raise ValueError("node mask selects no rows")
    const = _constant_input(model, reps, rows=node_mask)
    loss, _, grads = _loss_and_grads(model, const, truth[node_mask])
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


def substitute_features(dataset: Dataset, policy: str) -> Dataset:
    """Fill in features for a featureless dataset by the given policy.

    "identity" assigns one-hot identity rows (an n x n array), "degree" the
    node degree as one column, and "none" refuses. A dataset that carries
    features is returned unchanged. :func:`compute_representations` calls
    this for every case but the linear variant under "identity", whose
    feature block it builds as A^K · P without the identity.
    """
    if dataset.features is not None:
        return dataset
    if policy == "identity":
        return dataset.with_features(np.eye(dataset.n))
    if policy == "degree":
        return dataset.with_features(dataset.graph.deg.astype(np.float64)[:, None])
    if policy == "none":
        raise ValueError("dataset has no features and substitution policy is 'none'")
    raise ValueError(f"unknown feature policy {policy!r}")


def compute_representations(dataset: Dataset, config: ModelConfig) -> Representations:
    """Fit the enabled representations for a dataset, once per split.

    Features are substituted by config.feature_policy when the dataset has
    none. The linear variant's P, its seeded projection to hidden_dim, is
    drawn here and nowhere else. With the identity policy P itself is
    propagated instead of the n x n identity (A^K · I · P = A^K · P), so
    the block takes n x hidden_dim memory, not n x n, and arrives
    projected. Otherwise X is propagated, and A^K · X is kept as it is with
    P beside it.
    The walk embedding is trained deterministically from config.seed.
    Blocks that config disables are None. Each fitted block is checked as
    soon as it exists: one that holds a non-finite value raises
    TrainingDivergedError naming the block, so no later stage runs and the
    readout never trains on it.

    The stages run one at a time and keep only their blocks: the walk
    corpus goes straight into skip-gram and is freed with it, and only then
    is the adjacency built and H_f and H_l propagated over it. Each block
    draws from its own named substream, so the order moves no byte. No
    operand built here is bound to a name: P under the identity policy, the
    substituted features and the initial label matrix are built inside the
    propagation call, which lets go of its operand after the first hop, so
    each is freed then. A dataset's own features stay alive with it.
    """
    H_f = H_l = pe = P = None
    feature_dim = 0
    if config.enable_fr and dataset.features is None and config.feature_policy == "none":
        substitute_features(dataset, "none")  # refuses before any stage runs
    if config.enable_pe:
        pe = train_skipgram(
            generate_walks(dataset.graph, config.walk_len, config.walks_per_node, config.seed),
            dataset.n,
            config.pe_dim,
            config.window,
            config.neg_samples,
            config.pe_epochs,
            config.pe_lr,
            config.seed,
        )
        _check_finite("positional", pe)
    if config.enable_fr or config.enable_lr:
        adj = sym_norm_adjacency(dataset.graph)
    if config.enable_fr:
        linear = config.variant == "linear"
        policy = config.feature_policy
        if linear and dataset.features is None and policy == "identity":
            # A^K · I · P = A^K · P is already the projected block
            feature_dim = dataset.n
            H_f = propagate_features(adj, _feature_projection(config, feature_dim), config.K)
        else:
            H_f = propagate_features(
                adj,
                substitute_features(dataset, policy).features,
                config.K,
                "identity" if linear else "relu",
            )
            feature_dim = H_f.shape[1]
            if linear:
                P = _feature_projection(config, feature_dim)
        _check_finite("feature", H_f)
    if config.enable_lr:
        H_l = propagate_labels(adj, init_label_matrix(dataset, config.padding), config.N)
        _check_finite("label", H_l)
    return Representations(H_f=H_f, H_l=H_l, pe=pe, feature_dim=feature_dim, P=P)


def _check_finite(name: str, block: np.ndarray) -> None:
    if not np.isfinite(block).all():
        raise TrainingDivergedError(0, f"the fitted {name} block is not finite")


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
    train_const = _constant_input(model, reps, rows=train_mask)
    val_const = _constant_input(model, reps, rows=val_mask)

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
        train_loss, _, grads = _loss_and_grads(model, train_const, train_truth)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(1)
        for epoch in range(1, config.max_epochs + 1):
            opt.step(model.params, grads)

            train_loss, per_node, grads = _loss_and_grads(model, train_const, train_truth)
            if not np.isfinite(train_loss):
                raise TrainingDivergedError(epoch)
            val_ap = average_precision(_probs(model, val_const), val_truth, "samples")
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
    return forward(model, reps)


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
