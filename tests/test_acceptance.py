"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gnn_multifix import (
    Graph,
    ModelConfig,
    average_precision,
    compute_representations,
    evaluate,
    generate_dataset,
    generate_position_benchmark,
    generate_walks,
    homophily_recovery,
    label_homophily,
    load_dataset,
    majority_vote,
    make_dataset,
    make_splits,
    mlp_baseline,
    model_loss_and_grads,
    positional_distinguishability,
    predict,
    propagate_labels,
    train,
    train_skipgram,
)
from gnn_multifix.cli import main as cli_main
from gnn_multifix.model import _feature_projection, init_model
from gnn_multifix.synthgen import SynthSpec

from conftest import (
    build_random_graph,
    clustering_coefficient,
    build_twin_path_dataset,
    dense_propagation_oracle,
    rw_transition,
)
from test_evaluation import brute_force_ap
from test_graph import _brute_force_homophily


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{status}] {name} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_label_propagation_matches_dense_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        g = build_random_graph(n, int(rng.integers(1, 3 * n)), int(rng.integers(1 << 30)))
        P = rw_transition(g)
        C = int(rng.integers(1, 5))
        Y = (rng.random((n, C)) < 0.4).astype(float)
        Y[~(rng.random(n) < 0.7)] = 0.0  # zero rows for unlabeled nodes
        N = int(rng.integers(0, 5))
        sparse = propagate_labels(P, Y, N)
        dense = dense_propagation_oracle(P, Y, N)
        worst = max(worst, float(np.abs(sparse - dense).max()))
    elapsed = time.monotonic() - start
    report(1, "reset-free propagation equals dense walk oracle",
           worst < 1e-10 and elapsed < 10, f"(worst diff {worst:.2e}, {elapsed:.1f}s)")


def _relu_kink_margin(model, H_f, H_l, pe):
    """Smallest |pre-activation| across the model's ReLU layers.

    Central differences are only meaningful away from the kinks, so the
    gradient check resamples instances that sit too close to one.
    """
    margins = []
    p = model.params
    blocks = []
    if model.config.enable_fr:
        if model.config.variant == "linear":
            blocks.append(H_f)
        else:
            pre = H_f @ p["ft_W"] + p["ft_b"]
            margins.append(np.abs(pre).min())
            blocks.append(np.maximum(pre, 0.0))
    if model.config.enable_lr:
        blocks.append(H_l)
    if model.config.enable_pe:
        blocks.append(pe)
    Z = np.hstack(blocks)
    if model.config.variant == "mlp3":
        pre1 = Z @ p["hid1_W"] + p["hid1_b"]
        margins.append(np.abs(pre1).min())
        pre2 = np.maximum(pre1, 0.0) @ p["hid2_W"] + p["hid2_b"]
        margins.append(np.abs(pre2).min())
    return min(margins) if margins else np.inf


def test_criterion_02_gradient_check_all_variants():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    for i in range(51):
        variant = ("linear", "mlp1", "mlp3")[i % 3]
        while True:
            n = int(rng.integers(3, 21))
            C = int(rng.integers(1, 5))
            D = int(rng.integers(1, 6))
            cfg = ModelConfig(variant=variant, hidden_dim=6, pe_dim=4,
                              seed=int(rng.integers(1 << 30)))
            model = init_model(cfg, n, C, D)
            H_f = rng.normal(size=(n, D))
            if variant == "linear":
                H_f = H_f @ _feature_projection(cfg, D)  # a linear model reads projected features
            H_l = rng.normal(size=(n, C))
            pe = rng.normal(size=(n, 4))
            if _relu_kink_margin(model, H_f, H_l, pe) > 1e-3:
                break
        truth = (rng.random((n, C)) < 0.4).astype(float)
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[0] = True
        wd = 5e-4
        _, grads = model_loss_and_grads(model, H_f, H_l, pe, truth, mask, weight_decay=wd)
        for key, grad in grads.items():
            arr = model.params[key]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = model_loss_and_grads(model, H_f, H_l, pe, truth, mask, weight_decay=wd)
                arr[idx] = orig - h
                lm, _ = model_loss_and_grads(model, H_f, H_l, pe, truth, mask, weight_decay=wd)
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(2, "analytic gradients match finite differences (3 variants)",
           worst < 1e-4 and elapsed < 30, f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_average_precision_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        c = int(rng.integers(1, 5))
        scores = np.round(rng.random((m, c)), 2)
        truth = (rng.random((m, c)) < 0.4).astype(int)
        for mode in ("micro", "macro", "samples"):
            expected = brute_force_ap(scores, truth, mode)
            if expected is None:
                continue
            got = average_precision(scores, truth, mode)
            worst = max(worst, abs(got - expected))
            checked += 1
    elapsed = time.monotonic() - start
    report(3, "average precision equals brute-force ranking (all modes)",
           worst < 1e-12 and elapsed < 5,
           f"({checked} comparisons, worst diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_homophily_streaming_vs_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(2, 40))
        g = build_random_graph(n, int(rng.integers(1, 4 * n)), int(rng.integers(1 << 30)))
        if g.n_edges == 0:
            continue
        labels = (rng.random((n, int(rng.integers(2, 6)))) < 0.4).astype(np.int8)
        empty = labels.sum(axis=1) == 0
        labels[empty, 0] = 1
        ds = make_dataset(g, labels)
        worst = max(worst, abs(label_homophily(ds) - _brute_force_homophily(ds)))
        count += 1
    # the single-edge Jaccard example must be exact
    g = Graph.from_edges(2, [(0, 1)])
    labels = np.zeros((2, 4), np.int8)
    labels[0, [1, 2]] = 1
    labels[1, [2, 3]] = 1
    exact = label_homophily(make_dataset(g, labels))
    elapsed = time.monotonic() - start
    report(4, "streaming homophily equals brute force; {1,2}/{2,3} edge = 1/3",
           worst < 1e-12 and exact == 1 / 3 and elapsed < 5,
           f"(worst diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_05_twin_node_expressiveness():
    start = time.monotonic()
    # (a) feature-only featureless model maps the structural twins together
    ds = build_twin_path_dataset()
    cfg_fr = ModelConfig(variant="linear", enable_lr=False, enable_pe=False,
                         feature_policy="degree", K=2, hidden_dim=16,
                         max_epochs=60, patience=60, seed=0)
    reps = compute_representations(ds, cfg_fr)
    model, _, _ = train(ds, cfg_fr, reps=reps)
    probs = predict(model, ds, reps=reps)
    gap_fr = float(np.abs(probs[1] - probs[3]).max())
    ok_a = gap_fr < 1e-10

    # (b) propagated labels split the twins: differently-labeled train
    # nodes sit inside their 1-hop neighborhoods
    cfg_lr = replace(cfg_fr, enable_lr=True, N=1)
    H_l = compute_representations(ds, cfg_lr).H_l
    gap_lr = float(np.abs(H_l[1] - H_l[3]).max())
    ok_b = gap_lr > 0.01

    # (c) walk embeddings split twins in an all-test component
    g = Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
    wins = 0
    for seed in range(5):
        corpus = generate_walks(g, 10, 10, seed)
        emb = train_skipgram(corpus, 8, 16, 5, 5, 5, 0.025, seed)
        wins += positional_distinguishability(emb, 3, 7) > 0
    ok_c = wins >= 4
    elapsed = time.monotonic() - start
    report(5, "twin-node expressiveness (feature-only fails, labels and position succeed)",
           ok_a and ok_b and ok_c and elapsed < 120,
           f"(fr gap {gap_fr:.1e}, lr gap {gap_lr:.3f}, pe wins {wins}/5, {elapsed:.0f}s)")


def test_criterion_06a_majority_vote_homophily_trend():
    start = time.monotonic()
    wins = 0
    pairs = []
    for seed in range(5):
        aps = {}
        for target in (0.2, 0.6):
            ds, _ = generate_dataset(SynthSpec(n=1000, target_homophily=target, seed=seed))
            ds = make_splits(ds, 0.6, 0.2, seed)
            aps[target] = evaluate(majority_vote(ds).probs, ds, "test").ap_samples
        wins += aps[0.6] > aps[0.2]
        pairs.append((round(aps[0.2], 3), round(aps[0.6], 3)))
    elapsed = time.monotonic() - start
    report(6, "(a) neighbor-vote AP rises from homophily 0.2 to 0.6",
           wins >= 3 and elapsed < 600, f"(wins {wins}/5 {pairs}, {elapsed:.0f}s)")


def test_criterion_06b_mlp_feature_quality_trend():
    start = time.monotonic()
    cfg = ModelConfig(variant="mlp1", hidden_dim=64, max_epochs=400, patience=60,
                      feature_policy="none")
    wins = 0
    rows = []
    for seed in range(5):
        aps = []
        for r in (0.0, 0.5, 1.0):
            ds, _ = generate_dataset(
                SynthSpec(n=1000, target_homophily=0.2, r_ori_feat=r, seed=seed)
            )
            ds = make_splits(ds, 0.6, 0.2, seed)
            out = mlp_baseline(ds, replace(cfg, seed=seed))
            aps.append(evaluate(out.probs, ds, "test").ap_samples)
        wins += aps[0] <= aps[1] + 1e-9 and aps[1] <= aps[2] + 1e-9
        rows.append([round(a, 3) for a in aps])
    elapsed = time.monotonic() - start
    report(6, "(b) feature-only AP non-decreasing in feature quality",
           wins >= 3 and elapsed < 600, f"(wins {wins}/5 {rows}, {elapsed:.0f}s)")


def test_criterion_06c_positional_ablation_direction():
    start = time.monotonic()
    ds = generate_position_benchmark(n_regions=12, seed=0)
    base = ModelConfig(variant="linear", N=1, hidden_dim=64, pe_dim=32,
                       max_epochs=300, patience=60, feature_policy="degree",
                       walks_per_node=5, pe_epochs=3)
    wins = 0
    rows = []
    for seed in range(3):
        aps = []
        for cfg in (replace(base, seed=seed), replace(base, seed=seed, enable_pe=False)):
            reps = compute_representations(ds, cfg)
            model, _, _ = train(ds, cfg, reps=reps)
            aps.append(evaluate(predict(model, ds, reps=reps), ds, "test").ap_samples)
        ap_full, ap_nope = aps
        wins += ap_full > ap_nope
        rows.append((round(ap_full, 3), round(ap_nope, 3)))
    elapsed = time.monotonic() - start
    report(6, "(c) full model beats its no-positional ablation on twin regions",
           wins >= 2 and elapsed < 600, f"(wins {wins}/3 {rows}, {elapsed:.0f}s)")


def test_criterion_07_homophily_recovery():
    start = time.monotonic()
    cfg = ModelConfig(variant="mlp3", hidden_dim=64, pe_dim=32, max_epochs=400, patience=60,
                      walks_per_node=5, pe_epochs=3, feature_policy="none")
    recovered = []
    for seed in range(5):
        ds, _ = generate_dataset(SynthSpec(n=1000, target_homophily=0.8, seed=seed))
        ds = make_splits(ds, 0.6, 0.2, seed)
        run_cfg = replace(cfg, seed=seed)
        reps = compute_representations(ds, run_cfg)
        model, _, _ = train(ds, run_cfg, reps=reps)
        recovered.append(homophily_recovery(predict(model, ds, reps=reps), ds.graph, 0.5))
    mean = float(np.mean(recovered))
    elapsed = time.monotonic() - start
    report(7, "thresholded predictions recover target homophily 0.8",
           abs(mean - 0.8) < 0.1 and elapsed < 600,
           f"(recovered mean {mean:.3f}, {elapsed:.0f}s)")


def test_criterion_08_dynamics_contract(tmp_path, two_clique_split):
    from gnn_multifix import export_dynamics, import_dynamics

    cfg = ModelConfig(variant="linear", hidden_dim=16, pe_dim=8, max_epochs=75, patience=100,
                      walks_per_node=5, pe_epochs=3, seed=1)
    _, log, _ = train(two_clique_split, cfg, reps=compute_representations(two_clique_split, cfg))
    uniform = np.diff(log.epochs)
    ok_count = log.n_checkpoints == 30 and log.epochs[0] == 1 and log.epochs[-1] == 75
    ok_spacing = uniform.max() - uniform.min() <= 1  # integer-rounded uniform spacing
    out = tmp_path / "dynamics.csv"
    summary_path = export_dynamics(log, out)
    back = import_dynamics(out)
    medians_file = [float(r.split(",")[3]) for r in summary_path.read_text().strip().splitlines()[1:]]
    medians_re = [float(np.median(back.losses[i])) for i in range(back.n_checkpoints)]
    ok_median = max(abs(a - b) for a, b in zip(medians_file, medians_re)) < 1e-9
    report(8, "training logs exactly 30 uniform checkpoints; medians round-trip",
           ok_count and ok_spacing and ok_median,
           f"(checkpoints {log.n_checkpoints}, spacing {uniform.min()}..{uniform.max()})")


def _dblp_dir():
    env = os.environ.get("GMFX_DBLP_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "dblp")
    for c in candidates:
        if c.is_dir() and (c / "edges.tsv").exists() and (c / "labels.tsv").exists():
            return c
    return None


def test_criterion_09_real_dataset_numbers():
    d = _dblp_dir()
    if d is None:
        print("ACCEPTANCE  9 [SKIP] real-dataset check (set GMFX_DBLP_DIR to run)")
        pytest.skip("DBLP files not supplied")
    features = d / "features.csv" if (d / "features.csv").exists() else None
    ds = load_dataset(d / "edges.tsv", d / "labels.tsv", features)
    homo = label_homophily(ds)
    clus = clustering_coefficient(ds.graph)
    ok_stats = abs(homo - 0.76) <= 0.01 and abs(clus - 0.61) <= 0.01
    cfg = ModelConfig(variant="linear", K=2, N=2, lr=0.01, hidden_dim=256, pe_dim=64,
                      patience=100, max_epochs=2000)
    aps = []
    for seed in range(3):
        split = make_splits(ds, 0.6, 0.2, seed)
        run_cfg = replace(cfg, seed=seed)
        reps = compute_representations(split, run_cfg)
        model, _, _ = train(split, run_cfg, reps=reps)
        aps.append(evaluate(predict(model, split, reps=reps), split, "test").ap_samples)
    mean_ap = float(np.mean(aps))
    report(9, "real-dataset statistics and model quality",
           ok_stats and mean_ap >= 0.90,
           f"(homophily {homo:.3f}, clustering {clus:.3f}, mean AP {mean_ap:.3f})")


SMALL = [
    "--set", "model.hidden_dim=16", "--set", "model.pe_dim=8",
    "--set", "model.max_epochs=60", "--set", "model.patience=30",
    "--set", "model.walks_per_node=5", "--set", "model.pe_epochs=3",
]


def test_criterion_10_command_determinism(tmp_path):
    gen_args = ["generate", "--seed", "5", "--homophily", "0.6",
                "--set", "synth.n=150", "--set", "synth.avg_degree=8"]
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert cli_main(gen_args + ["--out", str(g1)]) == 0
    assert cli_main(gen_args + ["--out", str(g2)]) == 0
    gen_ok = all(
        (g1 / n).read_bytes() == (g2 / n).read_bytes()
        for n in ("edges.tsv", "labels.tsv", "features.csv", "meta.json")
    )

    train_args = ["train", "--data", str(g1), "--seed", "6", "--variant", "linear",
                  "--n-splits", "2", *SMALL]
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    assert cli_main(train_args + ["--out", str(t1)]) == 0
    assert cli_main(train_args + ["--out", str(t2)]) == 0
    train_ok = all(
        (t1 / n).read_bytes() == (t2 / n).read_bytes()
        for n in ("summary.json", "split_0/report.json", "split_0/model.ckpt",
                  "split_1/report.json", "split_1/model.ckpt", "split_0/metrics.jsonl")
    )

    base_args = ["baseline", "--method", "majority_vote", "--data", str(g1),
                 "--seed", "6", "--n-splits", "2"]
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    assert cli_main(base_args + ["--out", str(b1)]) == 0
    assert cli_main(base_args + ["--out", str(b2)]) == 0
    base_ok = all(
        (b1 / n).read_bytes() == (b2 / n).read_bytes()
        for n in ("summary.json", "split_0/report.json")
    )
    report(10, "commands are byte-deterministic given config and seed",
           gen_ok and train_ok and base_ok,
           f"(generate {gen_ok}, train {train_ok}, baseline {base_ok})")
