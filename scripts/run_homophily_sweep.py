#!/usr/bin/env python3
"""Sweep label homophily and compare the model against its baselines.

Generates one synthetic dataset per homophily level, runs the neighbor-vote
baseline and the fused model over three random splits each, and prints a
table of mean test samples-AP per level.

Usage:
    python scripts/run_homophily_sweep.py --n 1000 --out runs/homophily
"""

import argparse
import json
from pathlib import Path

# gnn_multifix first: GMFX_THREADS caps the BLAS pool only if set before NumPy loads
from gnn_multifix import (
    ModelConfig,
    compute_representations,
    evaluate,
    generate_dataset,
    majority_vote,
    make_splits,
    predict,
    train,
)
from gnn_multifix.model import VARIANTS
from gnn_multifix.synthgen import SynthSpec
import numpy as np


def run_level(target, n, variant, seeds, out_dir):
    spec = SynthSpec(n=n, target_homophily=target, seed=seeds[0])
    dataset, meta = generate_dataset(spec)
    rows = {"majority_vote": [], "model": []}
    for seed in seeds:
        ds = make_splits(dataset, 0.6, 0.2, seed)
        rows["majority_vote"].append(evaluate(majority_vote(ds).probs, ds, "test").ap_samples)
        cfg = ModelConfig(variant=variant, hidden_dim=64, pe_dim=32, max_epochs=400,
                          patience=60, walks_per_node=5, pe_epochs=3, seed=seed)
        reps = compute_representations(ds, cfg)
        model, _, _ = train(ds, cfg, reps=reps)
        rows["model"].append(evaluate(predict(model, ds, reps=reps), ds, "test").ap_samples)
    record = {
        "target_homophily": target,
        "achieved_homophily": meta["achieved_homophily"],
        "majority_vote": {"mean": float(np.mean(rows["majority_vote"])),
                          "std": float(np.std(rows["majority_vote"]))},
        "model": {"mean": float(np.mean(rows["model"])), "std": float(np.std(rows["model"]))},
    }
    (out_dir / f"homophily_{target:.1f}.json").write_text(json.dumps(record, indent=2))
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--variant", default="mlp1", choices=VARIANTS)
    ap.add_argument("--levels", type=float, nargs="+", default=[0.2, 0.4, 0.6, 0.8, 1.0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--out", default="runs/homophily_sweep")
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'homophily':>10} {'vote AP':>10} {'model AP':>10}")
    for target in args.levels:
        rec = run_level(target, args.n, args.variant, args.seeds, out_dir)
        print(f"{rec['achieved_homophily']:>10.3f} "
              f"{rec['majority_vote']['mean']:>10.3f} {rec['model']['mean']:>10.3f}")


if __name__ == "__main__":
    main()
