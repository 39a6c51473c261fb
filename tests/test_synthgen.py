import json

import numpy as np
import pytest

from gnn_multifix import (
    evaluate,
    label_homophily,
    load_dataset,
    majority_vote,
    make_dataset,
    make_splits,
    save_dataset,
)
from gnn_multifix import synthgen
from gnn_multifix.synthgen import (
    SynthSpec,
    generate_dataset,
    generate_features,
    generate_graph,
    generate_labels,
    generate_position_benchmark,
)


def test_label_statistics_at_defaults():
    sizes = generate_labels(SynthSpec(seed=1)).sum(axis=1)
    assert 3.0 <= sizes.mean() <= 3.5
    assert np.median(sizes) == 3
    assert sizes.max() <= 12
    assert sizes.min() >= 1


def test_label_statistics_hold_across_seeds():
    for seed in range(2, 6):
        sizes = generate_labels(SynthSpec(n=2000, seed=seed)).sum(axis=1)
        assert 3.0 <= sizes.mean() <= 3.5
        assert np.median(sizes) == 3
        assert sizes.max() <= 12


def test_degenerate_single_label_distribution():
    spec = SynthSpec(n=100, mean_labels=1.0, max_labels=1, seed=0)
    labels = generate_labels(spec)
    assert np.all(labels.sum(axis=1) == 1)


def test_labels_deterministic():
    a = generate_labels(SynthSpec(n=500, seed=9))
    b = generate_labels(SynthSpec(n=500, seed=9))
    assert np.array_equal(a, b)


def test_infeasible_mean_rejected():
    with pytest.raises(ValueError):
        SynthSpec(mean_labels=25.0)


def test_full_homophily_is_exact():
    spec = SynthSpec(n=300, target_homophily=1.0, seed=3, avg_degree=10)
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    assert label_homophily(make_dataset(graph, labels)) == 1.0
    # every label set occurs at least twice, so every node can have an edge
    keys = {}
    for v in range(spec.n):
        keys.setdefault(tuple(np.flatnonzero(labels[v])), []).append(v)
    assert min(len(g) for g in keys.values()) >= 2


def test_homophily_target_mid_range():
    vals = []
    for seed in range(5):
        spec = SynthSpec(n=600, target_homophily=0.6, seed=seed)
        labels = generate_labels(spec)
        graph = generate_graph(labels, spec)
        vals.append(label_homophily(make_dataset(graph, labels)))
        assert abs(vals[-1] - 0.6) <= 0.02
    assert abs(np.mean(vals) - 0.6) <= 0.02


def test_homophily_target_low_with_dense_preset():
    spec = SynthSpec(n=800, target_homophily=0.2, seed=1)
    assert spec.resolved_avg_degree() > 100  # dense regime preset
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    achieved = label_homophily(make_dataset(graph, labels))
    assert abs(achieved - 0.2) <= 0.02


def test_degree_lands_near_request():
    spec = SynthSpec(n=500, target_homophily=0.6, seed=2, avg_degree=20)
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    avg = 2 * graph.n_edges / graph.n
    assert abs(avg - 20) / 20 <= 0.2


def test_graph_links_no_node_with_an_empty_label_set():
    # a pair's Jaccard is undefined (NaN) at an empty set, so the sampler never accepts it
    spec = SynthSpec(n=300, seed=2)
    labels = generate_labels(spec)
    labels[:5] = 0
    edges = generate_graph(labels, spec).edge_array()
    assert len(edges) > 0 and not np.isin(edges, np.arange(5)).any()


@pytest.mark.parametrize("n, homophily", [(500, 0.6), (800, 0.2)], ids=["full-budget", "reduced-budget"])
def test_graph_builds_no_edge_set_twice(monkeypatch, n, homophily):
    # n=800 at homophily 0.2 takes the dense preset: over 30 000 edges, so
    # bisection runs on a reduced budget and the full-size set is drawn after
    spec = SynthSpec(n=n, target_homophily=homophily, seed=1)
    build, calls = synthgen._build_edges, []

    def recording_build(sampler, spec, beta, m_target):
        calls.append((beta, m_target))
        return build(sampler, spec, beta, m_target)

    monkeypatch.setattr(synthgen, "_build_edges", recording_build)
    generate_graph(generate_labels(spec), spec)
    m_target = round(spec.n * spec.resolved_avg_degree() / 2)
    assert calls[-1][1] == m_target
    assert (min(m for _, m in calls) < m_target) == (m_target > 30000)
    assert all(a != b for a, b in zip(calls, calls[1:]))


def test_graph_deterministic():
    spec = SynthSpec(n=300, target_homophily=0.6, seed=8, avg_degree=12)
    labels = generate_labels(spec)
    g1 = generate_graph(labels, spec)
    g2 = generate_graph(labels, spec)
    assert np.array_equal(g1.col_idx, g2.col_idx)
    assert np.array_equal(g1.row_ptr, g2.row_ptr)


def test_decorrelated_features_lose_label_signal():
    spec = SynthSpec(n=3000, r_ori_feat=0.0, seed=1)
    labels = generate_labels(spec)
    X = generate_features(labels, spec)
    for col in range(spec.feat_dim):
        for c in range(spec.C):
            r = np.corrcoef(X[:, col], labels[:, c])[0, 1]
            assert abs(r) < 0.1


def test_informative_features_track_identical_label_sets():
    spec = SynthSpec(n=400, r_ori_feat=1.0, seed=5, target_homophily=0.8)
    labels = generate_labels(spec)
    X = generate_features(labels, spec)
    keys = {}
    for v in range(spec.n):
        keys.setdefault(tuple(np.flatnonzero(labels[v])), []).append(v)
    diffs = []
    for group in keys.values():
        if len(group) >= 2:
            diffs.append(np.linalg.norm(X[group[0]] - X[group[1]]))
    # rows of identical label sets differ only by the two noise draws:
    # ||delta|| concentrates near 0.1 * sqrt(2 * feat_dim)
    expected = 0.1 * np.sqrt(2 * spec.feat_dim)
    assert np.median(diffs) == pytest.approx(expected, rel=0.35)


def test_features_deterministic():
    spec = SynthSpec(n=200, r_ori_feat=0.5, seed=3)
    labels = generate_labels(spec)
    assert np.array_equal(generate_features(labels, spec), generate_features(labels, spec))


def test_generated_dataset_round_trips_through_files(tmp_path):
    spec = SynthSpec(n=150, target_homophily=0.6, seed=4, avg_degree=10)
    ds, meta = generate_dataset(spec)
    paths = [tmp_path / p for p in ("edges.tsv", "labels.tsv", "features.csv")]
    save_dataset(ds, *paths)
    back = load_dataset(*paths)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.graph.col_idx, ds.graph.col_idx)
    assert np.allclose(back.features, ds.features)
    assert meta["achieved_homophily"] == pytest.approx(0.6, abs=0.02)
    json.dumps(meta)  # metadata must be JSON-serializable


def test_vote_ap_rises_from_low_to_mid_homophily():
    wins = 0
    for seed in range(5):
        aps = {}
        for target in (0.2, 0.6):
            spec = SynthSpec(n=400, target_homophily=target, seed=seed)
            ds, _ = generate_dataset(spec)
            ds = make_splits(ds, 0.6, 0.2, seed=seed)
            aps[target] = evaluate(majority_vote(ds).probs, ds, "test").ap_samples
        wins += aps[0.6] > aps[0.2]
    assert wins >= 3


def test_position_benchmark_structure():
    ds = generate_position_benchmark(n_regions=4, train_per_region=10, test_per_region=6,
                                      bridges_per_region=4, seed=0)
    assert ds.n == 4 * 20
    assert ds.n_labels == 4
    assert ds.features is None
    # train and test nodes never touch: label propagation cannot reach tests
    for v in np.flatnonzero(ds.test_mask):
        nb = ds.graph.neighbors(v)
        assert not ds.train_mask[nb].any()
    # regions are exact structural copies: degree sequences match per region
    degs = ds.graph.deg.reshape(4, 20)
    assert np.array_equal(degs[0], degs[1])
    assert np.array_equal(degs[0], degs[3])


@pytest.mark.parametrize("n, avg_degree, clique", [(40, None, True), (300, 8.5, False)],
                         ids=["clique", "ring-fractional-degree"])
def test_identical_set_graph_links_each_group_alone(n, avg_degree, clique):
    # a group of at most deg + 1 members is a clique, a larger one a ring
    # to the int(deg) // 2 next members on each side
    spec = SynthSpec(n=n, target_homophily=1.0, avg_degree=avg_degree, seed=0)
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    deg = spec.resolved_avg_degree()
    groups = synthgen._label_set_groups(labels)
    assert all((len(g) <= deg + 1) == clique for g in groups)
    for group in groups:
        for v in group:
            nb = set(graph.neighbors(v).tolist())
            if clique:
                assert nb == set(group) - {v}
            else:
                assert nb < set(group) and len(nb) == 2 * (int(deg) // 2)
