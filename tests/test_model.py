import math
import tempfile
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gnn_multifix import (
    Graph,
    ModelConfig,
    Representations,
    average_precision,
    bce_loss,
    compute_representations,
    evaluate,
    generate_position_benchmark,
    forward,
    load_model,
    make_dataset,
    make_splits,
    model_loss_and_grads,
    predict,
    propagate_features,
    save_model,
    sym_norm_adjacency,
    train,
)
from gnn_multifix import cli
from gnn_multifix.baselines import TRAINED_BASELINES
from gnn_multifix.errors import CompatibilityError, ShapeError, TrainingDivergedError
from gnn_multifix.rng import substream
from gnn_multifix import model as model_module
from gnn_multifix.model import (
    CHECKPOINT_MAGIC,
    AdamState,
    _constant_input,
    _feature_projection,
    _glorot,
    _readout,
    fit_label_block,
    fit_split_free,
    init_model,
    _sigmoid,
)

from conftest import build_random_dataset, build_twin_path_dataset


def small_config(**kw):
    base = dict(
        variant="linear",
        hidden_dim=16,
        pe_dim=8,
        max_epochs=150,
        patience=40,
        walks_per_node=5,
        pe_epochs=3,
        seed=1,
    )
    base.update(kw)
    return ModelConfig(**base)


def fit(dataset, config):
    """Fit the representations, then train on them.

    Returns (model, dynamics_log, best_val_ap, reps).
    """
    reps = compute_representations(dataset, config)
    return (*train(dataset, config, reps=reps), reps)


def random_inputs(variant, seed=0, n=12, C=3, D=4, hidden=5, pe_dim=3):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(variant=variant, hidden_dim=hidden, pe_dim=pe_dim, seed=seed)
    model = init_model(cfg, n, C, D)
    H_f = rng.normal(size=(n, D))
    if variant == "linear":
        H_f = H_f @ _feature_projection(cfg, D)  # a linear model reads projected features
    H_l = rng.normal(size=(n, C))
    pe = rng.normal(size=(n, pe_dim))
    truth = (rng.random((n, C)) < 0.4).astype(float)
    mask = np.zeros(n, bool)
    mask[: max(2, n // 2)] = True
    return model, Representations(H_f, H_l, pe, feature_dim=D), truth, mask


def test_zero_weights_give_half_everywhere():
    model, reps, _, _ = random_inputs("linear")
    for k in model.params:
        model.params[k][:] = 0.0
    probs = forward(model, reps)
    assert probs == pytest.approx(np.full(probs.shape, 0.5))


def test_single_block_closed_form():
    cfg = ModelConfig(
        variant="linear", enable_fr=False, enable_lr=False, enable_pe=True, pe_dim=1, seed=0
    )
    model = init_model(cfg, 4, 2, 0)
    w = 1.7
    model.params["out_W"][:] = w
    model.params["out_b"][:] = 0.0
    x = np.array([[0.3], [-1.2], [0.0], [2.0]])
    probs = forward(model, Representations(H_f=None, H_l=None, pe=x, feature_dim=0))
    assert probs == pytest.approx(_sigmoid(w * np.repeat(x, 2, axis=1)))


def test_forward_stays_inside_open_interval():
    model, reps, _, _ = random_inputs("mlp3")
    model.params["out_b"][:] = 60.0  # saturate the sigmoid
    probs = forward(model, reps)
    assert probs.min() > 0.0 and probs.max() < 1.0


def test_bce_symmetric_point():
    pred = np.full((4, 3), 0.5)
    truth = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0]], dtype=float)
    total, per_node = bce_loss(pred, truth)
    assert per_node == pytest.approx(np.full(4, 3 * math.log(2)))
    assert total == pytest.approx(3 * math.log(2))


def test_bce_hand_computed_value():
    total, per_node = bce_loss(np.array([[0.9, 0.2]]), np.array([[1.0, 0.0]]))
    assert per_node[0] == pytest.approx(-(math.log(0.9) + math.log(0.8)))
    assert total == pytest.approx(0.3285, abs=5e-5)


def test_bce_perfect_prediction_bound():
    truth = np.array([[1.0, 0.0], [0.0, 1.0]])
    total, per_node = bce_loss(truth, truth)
    assert np.all(per_node <= 2 * -math.log(1 - 1e-7) + 1e-12)


def test_gradients_match_finite_differences():
    h = 1e-5
    for variant in ("linear", "mlp1", "mlp3"):
        model, reps, truth, mask = random_inputs(variant, seed=3)
        _, grads = model_loss_and_grads(model, reps, truth, mask)
        for key, grad in grads.items():
            arr = model.params[key]
            flat_idx = np.unravel_index(
                np.argmax(np.abs(grad)), grad.shape
            )  # check the largest-gradient entry per parameter
            orig = arr[flat_idx]
            arr[flat_idx] = orig + h
            lp, _ = model_loss_and_grads(model, reps, truth, mask)
            arr[flat_idx] = orig - h
            lm, _ = model_loss_and_grads(model, reps, truth, mask)
            arr[flat_idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[flat_idx]) / max(abs(fd), abs(grad[flat_idx]), 1e-8) < 1e-4


@pytest.mark.parametrize("enable_fr", [True, False])
@pytest.mark.parametrize("variant", ["linear", "mlp1", "mlp3"])
def test_init_draws_each_layer_from_its_named_substream(variant, enable_fr):
    n, C, D, hidden, pe_dim, seed = 9, 3, 4, 5, 6, 7
    cfg = ModelConfig(variant=variant, hidden_dim=hidden, pe_dim=pe_dim, seed=seed,
                      enable_fr=enable_fr)
    width = (hidden if enable_fr else 0) + C + pe_dim
    layers = {"linear": [("out", width, C)], "mlp1": [("out", width, C)],
              "mlp3": [("hid1", width, hidden), ("hid2", hidden, hidden), ("out", hidden, C)]}
    expected = layers[variant]
    if enable_fr and variant != "linear":
        expected = [("ft", D, hidden), *expected]
    model = init_model(cfg, n, C, D if enable_fr else 0)
    assert list(model.params) == [f"{name}_{p}" for name, _, _ in expected for p in "Wb"]
    for name, fan_in, fan_out in expected:
        ref = _glorot(substream(seed, "init", name), fan_in, fan_out)
        assert np.array_equal(model.params[f"{name}_W"], ref)
        assert np.array_equal(model.params[f"{name}_b"], np.zeros(fan_out))


def test_ablation_changes_readout_width_exactly():
    n, C, D = 10, 3, 4
    full = init_model(small_config(), n, C, D)
    widths = {
        "enable_fr": full.config.hidden_dim,
        "enable_lr": C,
        "enable_pe": full.config.pe_dim,
    }
    for flag, width in widths.items():
        cfg = small_config(**{flag: False})
        ablated = init_model(cfg, n, C, D if cfg.enable_fr else 0)
        assert full.input_width - ablated.input_width == width
        assert ablated.params["out_W"].shape[0] == ablated.input_width


def test_config_requires_some_block():
    with pytest.raises(ValueError):
        ModelConfig(enable_fr=False, enable_lr=False, enable_pe=False)


def test_config_accepts_the_smallest_runnable_values():
    # K = 0 is the feature-only MLP baseline's setting
    cfg = ModelConfig(K=0, N=0, pe_dim=1, hidden_dim=1, max_epochs=1, walk_len=2,
                      walks_per_node=1, window=1, neg_samples=1, pe_epochs=1,
                      lr=1e-12, pe_lr=1e-12, weight_decay=0.0)
    assert (cfg.K, cfg.walk_len, cfg.weight_decay) == (0, 2, 0.0)


def test_config_rejects_unknown_feature_policy():
    for policy in ("identity", "degree", "none"):
        ModelConfig(feature_policy=policy)
    with pytest.raises(ValueError, match="feature policy"):
        ModelConfig(feature_policy="idenity")


def test_train_two_clique_linear_reaches_perfect_ap(two_clique_split):
    cfg = small_config()
    model, log, best_val, reps = fit(two_clique_split, cfg)
    probs = predict(model, two_clique_split, reps=reps)
    report = evaluate(probs, two_clique_split, "test")
    assert report.ap_samples == pytest.approx(1.0)
    assert log.epochs[-1] <= 200


def test_train_is_bitwise_deterministic(two_clique_split):
    cfg = small_config()
    m1, log1, ap1, _ = fit(two_clique_split, cfg)
    m2, log2, ap2, _ = fit(two_clique_split, cfg)
    assert ap1 == ap2
    assert all(np.array_equal(m1.params[k], m2.params[k]) for k in m1.params)
    assert np.array_equal(log1.losses, log2.losses)


def test_train_constant_labels_matches_constant_predictor(two_clique_split):
    ds = two_clique_split
    labels = np.zeros_like(ds.labels)
    labels[:, 0] = 1
    import dataclasses

    ds = dataclasses.replace(ds, labels=labels)
    cfg = small_config(enable_pe=False, max_epochs=300)
    model, _, _, reps = fit(ds, cfg)
    probs = predict(model, ds, reps=reps)
    report = evaluate(probs, ds, "test")
    constant = evaluate(np.full(ds.labels.shape, 0.5), ds, "test")
    assert report.ap_samples == pytest.approx(constant.ap_samples)


def two_pass_train(dataset, config, reps):
    """The epoch loop with two readouts per epoch, through the public functions.

    Each epoch takes its gradients from model_loss_and_grads, steps, then
    scores the stepped weights with forward. Returns the best-epoch params,
    the per-epoch train losses and the best validation AP.
    """
    model = init_model(config, dataset.n, dataset.n_labels, reps.feature_dim)
    opt = AdamState(model.params, lr=config.lr, weight_decay=config.weight_decay)
    truth = dataset.labels.astype(np.float64)
    train_mask, val_mask = dataset.train_mask, dataset.val_mask
    losses = []
    best_ap, best_epoch, best_params = -np.inf, 0, None
    for epoch in range(1, config.max_epochs + 1):
        _, grads = model_loss_and_grads(model, reps, truth, train_mask)
        opt.step(model.params, grads)
        probs = forward(model, reps)
        losses.append(bce_loss(probs[train_mask], truth[train_mask])[1])
        val_ap = average_precision(probs[val_mask], truth[val_mask], "samples")
        if val_ap > best_ap:
            best_ap, best_epoch = val_ap, epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
        elif val_ap == best_ap:
            best_params = {k: v.copy() for k, v in model.params.items()}
            if epoch - best_epoch >= config.patience:
                break
        elif epoch - best_epoch >= config.patience:
            break
    return best_params, losses, best_ap


@pytest.mark.parametrize("variant", ["linear", "mlp1", "mlp3"])
def test_train_matches_two_pass_reference_loop(variant):
    ds = make_splits(build_random_dataset(40, 3, seed=2), 0.5, 0.25, seed=2)
    cfg = small_config(variant=variant, max_epochs=80, patience=30)
    reps = compute_representations(ds, cfg)
    model, log, best_val = train(ds, cfg, reps=reps)
    ref_params, ref_losses, ref_best = two_pass_train(ds, cfg, reps)
    assert best_val == ref_best
    assert model.params.keys() == ref_params.keys()
    assert all(np.array_equal(model.params[k], ref_params[k]) for k in ref_params)
    assert log.epochs[-1] == len(ref_losses)
    assert np.array_equal(log.losses, np.stack([ref_losses[e - 1] for e in log.epochs]))


@pytest.mark.parametrize("variant", ["linear", "mlp1", "mlp3"])
def test_train_readouts_see_only_train_or_val_rows(variant, monkeypatch):
    ds = make_splits(build_random_dataset(40, 3, seed=2), 0.5, 0.25, seed=2)
    n_train, n_val = int(ds.train_mask.sum()), int(ds.val_mask.sum())
    assert len({ds.n, n_train, n_val}) == 3
    cfg = small_config(variant=variant, max_epochs=20, patience=20)
    reps = compute_representations(ds, cfg)
    seen = []

    def recording_readout(model, const):
        logits, cache = _readout(model, const)
        seen.append(len(logits))
        return logits, cache

    with monkeypatch.context() as patch:
        patch.setattr(model_module, "_readout", recording_readout)
        train(ds, cfg, reps=reps)
    assert set(seen) == {n_train, n_val}
    assert seen.count(n_train) == cfg.max_epochs + 1 and seen.count(n_val) == cfg.max_epochs


def masked_backward(model, cache, probs, truth, node_mask, n_masked):
    """Backward pass over a full-row readout: d_logits is zero off the mask."""
    d_logits = np.zeros_like(probs)
    d_logits[node_mask] = (probs[node_mask] - truth[node_mask]) / n_masked
    grads = {}
    p = model.params
    if model.config.variant == "mlp3":
        Z = cache["hid1"][0]
        a2, a1 = cache["out"][0], cache["hid2"][0]
        grads["out_W"] = a2.T @ d_logits
        grads["out_b"] = d_logits.sum(axis=0)
        d_a2 = (d_logits @ p["out_W"].T) * cache["hid2"][1]
        grads["hid2_W"] = a1.T @ d_a2
        grads["hid2_b"] = d_a2.sum(axis=0)
        d_a1 = (d_a2 @ p["hid2_W"].T) * cache["hid1"][1]
        grads["hid1_W"] = Z.T @ d_a1
        grads["hid1_b"] = d_a1.sum(axis=0)
        d_first, W_first = d_a1, p["hid1_W"]
    else:
        Z = cache["out"][0]
        grads["out_W"] = Z.T @ d_logits
        grads["out_b"] = d_logits.sum(axis=0)
        d_first, W_first = d_logits, p["out_W"]
    if "ft" in cache:
        ft_in, ft_mask = cache["ft"]
        d_B = (d_first @ W_first.T)[:, : model.config.hidden_dim] * ft_mask
        grads["ft_W"] = ft_in.T @ d_B
        grads["ft_b"] = d_B.sum(axis=0)
    return grads


def full_row_train_losses(dataset, config, reps):
    """Per-epoch per-train-node losses of an epoch loop that reads every row."""
    model = init_model(config, dataset.n, dataset.n_labels, reps.feature_dim)
    opt = AdamState(model.params, lr=config.lr, weight_decay=config.weight_decay)
    const = _constant_input(model, reps)
    truth = dataset.labels.astype(np.float64)
    mask = dataset.train_mask
    logits, cache = _readout(model, const)
    losses = []
    for _ in range(config.max_epochs):
        probs = _sigmoid(logits)
        opt.step(model.params, masked_backward(model, cache, probs, truth, mask, int(mask.sum())))
        logits, cache = _readout(model, const)
        losses.append(bce_loss(_sigmoid(logits)[mask], truth[mask])[1])
    return np.stack(losses)


@pytest.mark.parametrize("variant", ["linear", "mlp1", "mlp3"])
def test_train_losses_match_full_row_loop(variant):
    ds = make_splits(build_random_dataset(600, 4, seed=8), 0.6, 0.2, seed=8)
    cfg = small_config(variant=variant, max_epochs=60, patience=60)
    reps = compute_representations(ds, cfg)
    _, log, _ = train(ds, cfg, reps=reps)
    ref = full_row_train_losses(ds, cfg, reps)
    assert log.epochs[-1] == cfg.max_epochs
    assert np.abs(log.losses - ref[log.epochs - 1]).max() < 1e-12


def featureless_with_isolated_nodes(n, n_isolated, seed):
    """A featureless split whose last n_isolated nodes have no edges."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n - n_isolated, size=(2 * n, 2))
    graph = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
    labels = (rng.random((n, 3)) < 0.4).astype(np.int8)
    labels[np.arange(n), rng.integers(0, 3, size=n)] = 1
    return make_splits(make_dataset(graph, labels), 0.5, 0.25, seed=seed)


def unprojected_identity_features(dataset, K):
    """The reference featureless path: propagate the n x n identity, project later."""
    return propagate_features(sym_norm_adjacency(dataset.graph), np.eye(dataset.n), K)


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_identity_features_project_then_propagate(K):
    for seed in range(4):
        ds = featureless_with_isolated_nodes(30 + 7 * seed, 3, seed)
        assert (ds.graph.deg == 0).sum() >= 3
        cfg = small_config(K=K, enable_lr=False, enable_pe=False, seed=seed)
        reps = compute_representations(ds, cfg)
        assert reps.H_f.dtype == np.float64 and reps.feature_dim == ds.n
        proj = _feature_projection(cfg, ds.n)
        ref = unprojected_identity_features(ds, K) @ proj
        assert np.abs(reps.H_f - ref).max() < 1e-12
    with pytest.raises(ShapeError):
        forward(init_model(replace(cfg, variant="mlp1"), ds.n, ds.n_labels, ds.n), reps)


def test_identity_features_train_and_predict_match_unprojected_path():
    ds = featureless_with_isolated_nodes(60, 4, seed=7)
    cfg = small_config(max_epochs=80, patience=30)
    reps = compute_representations(ds, cfg)
    ref_H_f = unprojected_identity_features(ds, cfg.K) @ _feature_projection(cfg, ds.n)
    ref_reps = replace(reps, H_f=ref_H_f)
    model, _, _ = train(ds, cfg, reps=reps)
    ref_model, _, _ = train(ds, cfg, reps=ref_reps)
    assert model.feature_dim == ref_model.feature_dim == ds.n
    probs = predict(model, ds, reps=reps)
    assert np.abs(probs - predict(ref_model, ds, reps=ref_reps)).max() < 1e-10
    assert np.array_equal(predict(model, ds, reps=compute_representations(ds, cfg)), probs)


def test_identity_linear_representations_never_hold_an_n_by_n_array():
    n = 1500
    ds = make_splits(build_random_dataset(n, 3, seed=3), 0.6, 0.2, seed=3)
    cfg = ModelConfig(variant="linear", feature_policy="identity", enable_pe=False)
    tracemalloc.start()
    try:
        compute_representations(ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize(
    "variant, policy, feature_dim",
    [("linear", "identity", 40), ("mlp1", "identity", 40), ("linear", "degree", 1), ("mlp1", "degree", 1)],
)
def test_compute_representations_lets_go_of_the_operands_it_builds(
    previous_operand_alive, variant, policy, feature_dim
):
    # the projection P, the substituted features and the initial label
    # matrix are each dead by the second hop of their propagation
    ds = featureless_with_isolated_nodes(40, 3, seed=2)
    cfg = small_config(variant=variant, feature_policy=policy, enable_pe=False, K=2, N=2)
    reps = compute_representations(ds, cfg)
    assert reps.feature_dim == feature_dim
    assert previous_operand_alive == [False, False, False]


def test_skipgram_ends_and_its_corpus_is_freed_before_the_adjacency_is_built(monkeypatch):
    # the fit's stages do not overlap: a corpus bound to a name, or skip-gram
    # moved after propagation, fails here
    corpus_walks, returned = [], []
    generate_walks = model_module.generate_walks
    train_skipgram = model_module.train_skipgram
    sym_norm_adjacency = model_module.sym_norm_adjacency

    def walks(*args, **kwargs):
        corpus = generate_walks(*args, **kwargs)
        corpus_walks.append(weakref.ref(corpus.walks))
        return corpus

    def skipgram(*args, **kwargs):
        pe = train_skipgram(*args, **kwargs)
        returned.append(True)
        return pe

    def adjacency(graph):
        assert returned == [True]
        assert corpus_walks[0]() is None
        return sym_norm_adjacency(graph)

    monkeypatch.setattr(model_module, "generate_walks", walks)
    monkeypatch.setattr(model_module, "train_skipgram", skipgram)
    monkeypatch.setattr(model_module, "sym_norm_adjacency", adjacency)
    ds = make_splits(build_random_dataset(60, 3, seed=4), 0.6, 0.2, seed=4)
    reps = compute_representations(ds, small_config())
    assert reps.H_f is not None and reps.H_l is not None and reps.pe is not None
    assert len(corpus_walks) == 1


def test_featureless_none_policy_is_refused_before_skipgram(monkeypatch):
    def no_walks(*args, **kwargs):
        raise AssertionError("skip-gram ran before the refusal")

    monkeypatch.setattr(model_module, "generate_walks", no_walks)
    ds = featureless_with_isolated_nodes(30, 2, seed=1)
    with pytest.raises(ValueError, match="substitution policy is 'none'"):
        compute_representations(ds, small_config(feature_policy="none"))


def same_bytes(a, b):
    return a is b is None or (a is not None and b is not None and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("variant", ["linear", "mlp1"])
@pytest.mark.parametrize("features", ["real", "identity", "degree"])
def test_split_free_stage_reads_no_mask(variant, features):
    # two splits and the unsplit dataset (every mask False) get the same
    # blocks and adjacency, so one split-free fit could serve every split
    unsplit = build_random_dataset(40, 3, seed=5)
    if features == "real":
        unsplit = unsplit.with_features(np.random.default_rng(5).normal(size=(40, 6)))
    splits = [make_splits(unsplit, 0.5, 0.25, seed=s) for s in (1, 2)]
    cfg = small_config(variant=variant, feature_policy="identity" if features == "real" else features)
    (ref, ref_adj), *others = [fit_split_free(ds, cfg) for ds in (unsplit, *splits)]
    assert ref.H_l is None and ref.H_f is not None and ref.pe is not None
    for reps, adj in others:
        assert reps.H_l is None and reps.feature_dim == ref.feature_dim
        for name in ("H_f", "P", "pe"):
            assert same_bytes(getattr(reps, name), getattr(ref, name))
        for name in ("row_ptr", "col_idx", "values"):
            assert same_bytes(getattr(adj, name), getattr(ref_adj, name))
    # the full fits of the two splits differ in H_l only
    fits = [compute_representations(ds, cfg) for ds in splits]
    for reps in fits:
        assert reps.feature_dim == ref.feature_dim
        for name in ("H_f", "P", "pe"):
            assert same_bytes(getattr(reps, name), getattr(ref, name))
    assert not np.array_equal(fits[0].H_l, fits[1].H_l)


STAGE_PRESETS = {"full": {}, **cli.ABLATIONS, **TRAINED_BASELINES}


@pytest.mark.parametrize("preset", STAGE_PRESETS)
def test_each_stage_runs_only_what_its_config_enables(monkeypatch, preset):
    calls = []
    for name in ("train_skipgram", "sym_norm_adjacency", "propagate_features", "propagate_labels"):
        def counted(*args, _name=name, _fn=getattr(model_module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(model_module, name, counted)
    cfg = small_config(**STAGE_PRESETS[preset])
    ds = make_splits(build_random_dataset(40, 3, seed=6), 0.5, 0.25, seed=6)
    reps, adj = fit_split_free(ds, cfg)
    assert calls == [
        name
        for name, enabled in (
            ("train_skipgram", cfg.enable_pe),
            ("sym_norm_adjacency", cfg.enable_fr or cfg.enable_lr),
            ("propagate_features", cfg.enable_fr),
        )
        if enabled
    ]
    assert (adj is None) == (not (cfg.enable_fr or cfg.enable_lr)) == (preset == "deepwalk")
    assert reps.H_l is None
    assert (reps.pe is not None) == cfg.enable_pe and (reps.H_f is not None) == cfg.enable_fr
    calls.clear()
    fitted = fit_label_block(reps, adj, ds, cfg)
    if cfg.enable_lr:
        assert calls == ["propagate_labels"] and fitted.H_l is not None
        assert all(getattr(fitted, name) is getattr(reps, name) for name in ("H_f", "P", "pe"))
    else:
        assert fitted is reps and calls == []


@pytest.mark.parametrize("K", [0, 1, 2])
def test_linear_real_features_are_propagated_then_projected(K):
    rng = np.random.default_rng(K)
    base = make_splits(build_random_dataset(40, 3, seed=K), 0.5, 0.25, seed=K)
    ds = base.with_features(rng.normal(size=(base.n, 6)))
    adj = sym_norm_adjacency(ds.graph)
    cfg = small_config(K=K, seed=K)
    # the config the mlp baseline trains with: feature block only, K = 0
    baseline_cfg = replace(cfg, enable_lr=False, enable_pe=False, K=0)
    for c in (cfg, baseline_cfg):
        reps = compute_representations(ds, c)
        # 6 < hidden_dim: the block stays unprojected and the readout applies P
        assert reps.feature_dim == 6
        assert np.array_equal(reps.H_f, propagate_features(adj, ds.features, c.K))
        assert np.array_equal(reps.P, _feature_projection(c, 6))


def test_adam_first_step_decays_weight_matrices_only():
    # from a zero state the bias-corrected moments are g and g**2, so the
    # first step is p - lr * g / (|g| + eps), then * (1 - lr * wd) on *_W keys
    rng = np.random.default_rng(11)
    shapes = {"ft_W": (4, 3), "ft_b": (3,), "out_W": (3, 2), "out_b": (2,)}
    params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    lr, wd = 0.01, 5e-4
    before = {k: v.copy() for k, v in params.items()}
    opt = AdamState(params, lr=lr, weight_decay=wd)
    opt.step(params, grads)
    for k, g in grads.items():
        expected = before[k] - lr * g / (np.abs(g) + AdamState.eps)
        if k.endswith("_W"):
            expected = expected * (1 - lr * wd)
        np.testing.assert_allclose(params[k], expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("features", ["real", "degree"])
def test_narrow_linear_readout_matches_materialised_projection(features):
    ds = featureless_with_isolated_nodes(50, 3, seed=5)
    if features == "real":
        ds = ds.with_features(np.random.default_rng(5).normal(size=(ds.n, 6)))
    D = 6 if features == "real" else 1
    cfg = small_config(feature_policy="degree", seed=5)
    reps = compute_representations(ds, cfg)
    assert reps.H_f.shape == (ds.n, D) and reps.P.shape == (D, cfg.hidden_dim)
    wide = replace(reps, H_f=reps.H_f @ reps.P, P=None)  # the materialised A^K · X · P
    model = init_model(cfg, ds.n, ds.n_labels, D)
    rng = np.random.default_rng(6)
    model.params = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    probs = forward(model, reps)
    assert np.abs(probs - forward(model, wide)).max() < 1e-12
    truth = ds.labels.astype(np.float64)
    loss, grads = model_loss_and_grads(model, reps, truth, ds.train_mask)
    ref_loss, ref_grads = model_loss_and_grads(model, wide, truth, ds.train_mask)
    assert abs(loss - ref_loss) < 1e-12
    assert grads.keys() == ref_grads.keys() == model.params.keys()
    for k in grads:
        assert grads[k].shape == model.params[k].shape
        assert np.abs(grads[k] - ref_grads[k]).max() < 1e-12
    # training on either form runs the same epochs to the same parameters
    trained, log, _ = train(ds, cfg, reps=reps)
    ref_trained, ref_log, _ = train(ds, cfg, reps=wide)
    assert np.array_equal(log.epochs, ref_log.epochs)
    for k, v in ref_trained.params.items():
        assert np.abs(trained.params[k] - v).max() < 1e-10
    assert np.abs(predict(trained, ds, reps) - predict(ref_trained, ds, wide)).max() < 1e-10


def test_projected_linear_features_carry_no_projection():
    ds = featureless_with_isolated_nodes(50, 3, seed=5)
    cfg = small_config(enable_pe=False, seed=5)
    # the identity policy propagates P itself: n x hidden_dim, projected already
    reps = compute_representations(ds, cfg)
    assert reps.H_f.shape == (ds.n, cfg.hidden_dim) and reps.P is None
    # any other features carry P, whatever their width
    wide = ds.with_features(np.random.default_rng(5).normal(size=(ds.n, 2 * cfg.hidden_dim)))
    reps = compute_representations(wide, cfg)
    assert reps.H_f.shape == (ds.n, 2 * cfg.hidden_dim)
    assert reps.P.shape == (2 * cfg.hidden_dim, cfg.hidden_dim)


def test_projection_must_fit_the_linear_feature_block():
    ds = featureless_with_isolated_nodes(30, 2, seed=1)
    reps = compute_representations(ds, small_config(feature_policy="degree", enable_pe=False))
    for variant, P in (("mlp1", reps.P), ("linear", reps.P[:, :-1])):
        cfg = small_config(variant=variant, feature_policy="degree", enable_pe=False)
        model = init_model(cfg, ds.n, ds.n_labels, 1)
        with pytest.raises(ShapeError):
            forward(model, replace(reps, P=P))


def test_featureless_linear_checkpoint_holds_no_projection(tmp_path):
    n, hidden = 300, 256
    ds = featureless_with_isolated_nodes(n, 5, seed=4)
    cfg = small_config(hidden_dim=hidden, enable_pe=False, max_epochs=5)
    model, _, _, reps = fit(ds, cfg)
    assert model.feature_dim == n
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    assert path.stat().st_size < n * hidden * 8
    back = load_model(path)
    assert np.array_equal(predict(back, ds, reps=reps), predict(model, ds, reps=reps))


def test_checkpoint_with_old_magic_is_refused(tmp_path, two_clique_split):
    model, _, _, _ = fit(two_clique_split, small_config(max_epochs=5))
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"GMFX1" + path.read_bytes()[len(CHECKPOINT_MAGIC):])
    with pytest.raises(ValueError, match="bad magic"):
        load_model(old)


def test_train_requires_masks(two_clique_split):
    ds = two_clique_split.with_masks(
        np.zeros(two_clique_split.n, bool),
        two_clique_split.val_mask,
        two_clique_split.test_mask,
    )
    with pytest.raises(ValueError):
        fit(ds, small_config())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_names_epoch(two_clique_split):
    # linear-variant gradients are bounded, so divergence needs a variant
    # whose inputs themselves carry the exploding parameters
    cfg = small_config(variant="mlp1", lr=1e200, max_epochs=30)
    with pytest.raises(TrainingDivergedError) as err:
        fit(two_clique_split, cfg)
    assert err.value.epoch >= 1
    assert str(err.value.epoch) in str(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_closes_the_loss_spill_file(two_clique_split, monkeypatch):
    opened = []
    real_temporary_file = tempfile.TemporaryFile

    def recording_temporary_file(*args, **kwargs):
        fh = real_temporary_file(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(tempfile, "TemporaryFile", recording_temporary_file)
    cfg = small_config(variant="mlp1", lr=1e200, max_epochs=30)
    reps = compute_representations(two_clique_split, cfg)
    with pytest.raises(TrainingDivergedError):
        train(two_clique_split, cfg, reps=reps)
    assert len(opened) == 1
    assert opened[0].closed


def test_train_memory_does_not_grow_with_epochs():
    # the per-epoch losses go to disk: 350 more epochs of R train rows must
    # not add a tenth of the 350 x R float64 rows they write
    ds = make_splits(build_random_dataset(400, 3, seed=6), 0.6, 0.2, seed=6)
    rows = int(ds.train_mask.sum())
    cfg = small_config(enable_pe=False, patience=1000)
    reps = compute_representations(ds, cfg)
    peaks = {}
    for epochs in (50, 400):
        tracemalloc.start()
        try:
            _, log, _ = train(ds, replace(cfg, max_epochs=epochs), reps=reps)
            _, peaks[epochs] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.epochs[-1] == epochs
    assert peaks[400] - peaks[50] < 350 * rows * 8 / 10


def test_early_stopping_halts_within_patience(two_clique_split):
    cfg = small_config(patience=5, max_epochs=500)
    _, log, _, _ = fit(two_clique_split, cfg)
    # locate the best epoch from the metrics would need the stream; the
    # contract is simply that we never run patience past max improvement
    assert log.epochs[-1] < 500


def test_dynamics_checkpoint_contract(two_clique_split):
    cfg = small_config(max_epochs=10, patience=100)
    _, log, _, _ = fit(two_clique_split, cfg)
    assert list(log.epochs) == list(range(1, 11))
    cfg = small_config(max_epochs=75, patience=100)
    _, log, _, _ = fit(two_clique_split, cfg)
    assert log.n_checkpoints == 30
    assert log.epochs[0] == 1 and log.epochs[-1] == 75
    assert np.all(np.diff(log.epochs) > 0)
    assert len(log.node_ids) == int(two_clique_split.train_mask.sum())


def test_predict_is_pure(two_clique_split):
    model, _, _, reps = fit(two_clique_split, small_config())
    p1 = predict(model, two_clique_split, reps=reps)
    p2 = predict(model, two_clique_split, reps=reps)
    assert np.array_equal(p1, p2)


def test_predict_rejects_mismatched_labels(two_clique_split):
    model, _, _, reps = fit(two_clique_split, small_config())
    import dataclasses

    other = dataclasses.replace(
        two_clique_split, labels=np.zeros((two_clique_split.n, 5), np.int8)
    )
    with pytest.raises(CompatibilityError):
        predict(model, other, reps=reps)


def test_structural_twins_identical_without_labels_or_position():
    # featureless feature-only model cannot split the twins in an all-test
    # component: it sees only degree-derived structure
    graph = Graph.from_edges(
        8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)]
    )  # component a-x-b plus an all-test path u-c1-c2-v... nodes 3..7
    labels = np.zeros((8, 2), np.int8)
    labels[0, 0] = 1
    labels[1, 0] = 1
    labels[2, 1] = 1
    labels[3:, 0] = 1
    train_mask = np.array([1, 0, 1, 0, 0, 0, 0, 0], bool)
    val_mask = np.array([0, 1, 0, 0, 0, 0, 0, 0], bool)
    test_mask = np.array([0, 0, 0, 1, 1, 1, 1, 1], bool)
    ds = make_dataset(
        graph, labels, train_mask=train_mask, val_mask=val_mask, test_mask=test_mask
    )
    cfg = small_config(
        enable_lr=False, enable_pe=False, feature_policy="degree", K=2, max_epochs=50
    )
    model, _, _, reps = fit(ds, cfg)
    probs = predict(model, ds, reps=reps)
    assert np.abs(probs[3] - probs[7]).max() < 1e-10  # twin endpoints of the path


def test_checkpoint_round_trip(tmp_path, two_clique_split):
    model, _, _, reps = fit(two_clique_split, small_config())
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    assert path.read_bytes()[:5] == b"GMFX2"
    back = load_model(path)
    assert back.config == model.config
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert np.array_equal(
        predict(back, two_clique_split, reps=reps), predict(model, two_clique_split, reps=reps)
    )


def test_twin_path_label_rows_differ_after_training():
    ds = build_twin_path_dataset()
    cfg = small_config(
        enable_pe=False, feature_policy="degree", N=1, max_epochs=40, patience=40
    )
    from gnn_multifix.model import compute_representations

    H_l = compute_representations(ds, cfg).H_l
    assert np.abs(H_l[1] - H_l[3]).max() > 0.01


def test_train_and_predict_require_representations(two_clique_split):
    cfg = small_config(max_epochs=5)
    with pytest.raises(TypeError):
        train(two_clique_split, cfg)
    model, _, _, _ = fit(two_clique_split, cfg)
    with pytest.raises(TypeError):
        predict(model, two_clique_split)


@pytest.mark.parametrize("variant", ["linear", "mlp1"])
def test_one_full_fit_serves_every_ablation(variant):
    # the setting of scripts/run_ablation.py, on 6 twin regions
    ds = generate_position_benchmark(n_regions=6, seed=0)
    base = ModelConfig(variant=variant, N=1, hidden_dim=64, pe_dim=32, max_epochs=300,
                       patience=60, feature_policy="degree", walks_per_node=5, pe_epochs=3)
    shared = compute_representations(ds, base)
    for flags in ({}, {"enable_fr": False}, {"enable_lr": False}, {"enable_pe": False}):
        cfg = replace(base, **flags)
        model, _, best_val, reps = fit(ds, cfg)
        shared_model, _, shared_best_val = train(ds, cfg, reps=shared)
        assert shared_best_val == best_val
        assert shared_model.feature_dim == model.feature_dim
        assert np.array_equal(
            predict(shared_model, ds, reps=shared), predict(model, ds, reps=reps)
        )
