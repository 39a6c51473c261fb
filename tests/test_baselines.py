import numpy as np
import pytest

from gnn_multifix import Graph, ModelConfig, evaluate, majority_vote, make_dataset, make_splits
from gnn_multifix.synthgen import SynthSpec, generate_graph, generate_labels

from conftest import build_random_dataset, build_two_clique_dataset, trained_baseline_probs


def fast_config(**kw):
    base = dict(
        variant="mlp1",
        hidden_dim=16,
        pe_dim=8,
        max_epochs=150,
        patience=40,
        walks_per_node=5,
        pe_epochs=3,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def vote_fixture():
    """Star around node 0 (test), neighbors 1..3: two train, one val.

    Node 4's only neighbor is the val node, so it has no train votes.
    """
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (4, 3)])
    labels = np.zeros((5, 3), np.int8)
    labels[1, 0] = 1  # train neighbor labeled {a}
    labels[2, [0, 1]] = 1  # train neighbor labeled {a, b}
    labels[3, 2] = 1  # val neighbor: must not vote
    labels[0, 0] = 1
    labels[4, 2] = 1
    train = np.array([0, 1, 1, 0, 0], bool)
    val = np.array([0, 0, 0, 1, 0], bool)
    test = np.array([1, 0, 0, 0, 1], bool)
    return make_dataset(g, labels, train_mask=train, val_mask=val, test_mask=test)


def test_vote_arithmetic():
    out = majority_vote(vote_fixture())
    assert out.probs[0] == pytest.approx([2 / 3, 1 / 3, 0.0])


def test_vote_fallback_and_coverage():
    ds = vote_fixture()
    out = majority_vote(ds)
    # node 4's only neighbor is train-less, so it gets the global train
    # label frequency: labels {a}, {a,b} -> a: 2/3, b: 1/3
    assert out.probs[4] == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert out.coverage == pytest.approx(0.5)  # one of two test nodes covered


def test_vote_train_rows_keep_their_labels():
    ds = vote_fixture()
    out = majority_vote(ds)
    assert np.array_equal(out.probs[1], ds.labels[1].astype(float))


def test_vote_rows_sum_to_one():
    # vote rows are normalized by total votes; train rows keep their
    # (multi-hot) labels and are exempt
    spec = SynthSpec(n=150, target_homophily=0.6, seed=1, avg_degree=10)
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    ds = make_splits(make_dataset(graph, labels), 0.6, 0.2, seed=2)
    out = majority_vote(ds)
    voted = out.probs[~ds.train_mask]
    assert voted.sum(axis=1) == pytest.approx(np.ones(len(voted)), abs=1e-12)


def test_vote_perfect_at_full_homophily():
    spec = SynthSpec(n=200, target_homophily=1.0, seed=4, avg_degree=12)
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    ds = make_splits(make_dataset(graph, labels), 0.6, 0.2, seed=3)
    out = majority_vote(ds)
    for v in np.flatnonzero(ds.test_mask):
        nb = ds.graph.neighbors(v)
        if not ds.train_mask[nb].any():
            continue
        true_set = set(np.flatnonzero(ds.labels[v]).tolist())
        k = len(true_set)
        top = set(np.argsort(-out.probs[v], kind="stable")[:k].tolist())
        assert top == true_set


def test_vote_is_training_free():
    ds = vote_fixture()
    a = majority_vote(ds)
    b = majority_vote(ds.with_features(np.random.default_rng(0).normal(size=(5, 7))))
    assert np.array_equal(a.probs, b.probs)


def per_node_vote(dataset):
    """majority_vote's probabilities and coverage by the per-node loop it replaced."""
    n, c = dataset.labels.shape
    y = dataset.labels.astype(np.float64)
    train = dataset.train_mask
    counts = y[train].sum(axis=0)
    fallback = counts / counts.sum() if counts.sum() > 0 else np.full(c, 1.0 / c)
    probs = np.empty((n, c))
    covered = np.zeros(n, dtype=bool)
    for v in range(n):
        nb = dataset.graph.neighbors(v)
        votes = y[nb[train[nb]]].sum(axis=0)
        if train[v]:
            probs[v], covered[v] = y[v], True
        elif votes.sum() > 0:
            probs[v], covered[v] = votes / votes.sum(), True
        else:
            probs[v] = fallback
    test = dataset.test_mask
    return probs, float(covered[test].mean()) if test.any() else 1.0


@pytest.mark.parametrize("seed", range(12))
def test_vote_scatter_matches_per_node_loop(seed):
    # sparse graphs leave isolated nodes, and density 0.2 without a forced
    # label leaves empty label sets, so both fallback causes occur
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    ds = build_random_dataset(n, int(rng.integers(1, 6)), seed, n_edges=n // 2,
                              density=0.2, ensure_nonempty=False)
    ds = make_splits(ds, 0.4, 0.2, seed=seed)
    out = majority_vote(ds)
    probs, coverage = per_node_vote(ds)
    assert np.array_equal(out.probs, probs)
    assert out.coverage == coverage


def test_mlp_constant_features_give_constant_predictions():
    ds = build_two_clique_dataset(6)
    ds = make_splits(ds, 0.6, 0.2, seed=1).with_features(np.ones((12, 3)))
    probs = trained_baseline_probs(ds, fast_config(), "mlp")
    assert np.abs(probs - probs[0]).max() < 1e-12


def test_mlp_perfect_signal_features():
    spec = SynthSpec(
        n=200, C=6, mean_labels=2.0, max_labels=3, target_homophily=0.6, seed=2, avg_degree=10
    )
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    ds = make_dataset(graph, labels, features=labels.astype(float))
    ds = make_splits(ds, 0.6, 0.2, seed=6)
    cfg = fast_config(hidden_dim=32, max_epochs=400, patience=80)
    probs = trained_baseline_probs(ds, cfg, "mlp")
    assert evaluate(probs, ds, "test").ap_samples >= 0.99


def test_mlp_deterministic():
    ds = build_two_clique_dataset(6)
    rng = np.random.default_rng(3)
    ds = make_splits(ds, 0.6, 0.2, seed=2).with_features(rng.normal(size=(12, 4)))
    a = trained_baseline_probs(ds, fast_config(), "mlp")
    b = trained_baseline_probs(ds, fast_config(), "mlp")
    assert np.array_equal(a, b)


def test_deepwalk_two_cliques_beats_constant_features():
    ds = make_splits(build_two_clique_dataset(8), 0.6, 0.2, seed=4)
    cfg = fast_config(variant="linear")
    dw_ap = evaluate(trained_baseline_probs(ds, cfg, "deepwalk"), ds, "test").ap_samples
    assert dw_ap == pytest.approx(1.0)
    flat = trained_baseline_probs(ds.with_features(np.ones((ds.n, 3))), cfg, "mlp")
    flat_ap = evaluate(flat, ds, "test").ap_samples
    assert dw_ap > flat_ap


def test_deepwalk_handles_isolated_test_node():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])  # node 6 isolated
    labels = np.zeros((7, 2), np.int8)
    labels[:4, 0] = 1
    labels[4:, 1] = 1
    train = np.array([1, 1, 1, 0, 1, 0, 0], bool)
    val = np.array([0, 0, 0, 1, 0, 0, 0], bool)
    test = np.array([0, 0, 0, 0, 0, 1, 1], bool)
    ds = make_dataset(g, labels, train_mask=train, val_mask=val, test_mask=test)
    probs = trained_baseline_probs(ds, fast_config(variant="linear", max_epochs=40), "deepwalk")
    assert probs.shape == (7, 2)
    assert np.all(np.isfinite(probs))


def test_deepwalk_deterministic():
    ds = make_splits(build_two_clique_dataset(6), 0.6, 0.2, seed=5)
    cfg = fast_config(variant="linear", max_epochs=60)
    a = trained_baseline_probs(ds, cfg, "deepwalk")
    b = trained_baseline_probs(ds, cfg, "deepwalk")
    assert np.array_equal(a, b)


def test_vote_ap_rises_with_homophily_holding_degree_fixed():
    wins = 0
    for seed in range(5):
        aps = {}
        for target in (0.4, 0.6):
            spec = SynthSpec(n=300, target_homophily=target, seed=seed, avg_degree=12)
            labels = generate_labels(spec)
            graph = generate_graph(labels, spec)
            ds = make_splits(make_dataset(graph, labels), 0.6, 0.2, seed=seed)
            aps[target] = evaluate(majority_vote(ds).probs, ds, "test").ap_samples
        wins += aps[0.6] >= aps[0.4]
    assert wins >= 3
