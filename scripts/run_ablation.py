#!/usr/bin/env python3
"""Disable one module at a time and report the test AP of each variant.

Runs on the featureless twin-region benchmark, where corresponding nodes of
different regions are exact structural twins and only their position in the
graph carries the labels. Expect the no-positional ablation to collapse.

Usage:
    python scripts/run_ablation.py --regions 12 --out runs/ablation
"""

import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from gnn_multifix import (
    ModelConfig,
    compute_representations,
    evaluate,
    generate_position_benchmark,
    predict,
    train,
)


ABLATIONS = {
    "full": {},
    "no-fr": {"enable_fr": False},
    "no-lr": {"enable_lr": False},
    "no-pe": {"enable_pe": False},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--regions", type=int, default=12)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--variant", default="linear", choices=("linear", "mlp1", "mlp3"))
    ap.add_argument("--out", default="runs/ablation")
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_position_benchmark(n_regions=args.regions, seed=args.seeds[0])
    base = ModelConfig(variant=args.variant, N=1, hidden_dim=64, pe_dim=32, max_epochs=300,
                       patience=60, feature_policy="degree", walks_per_node=5, pe_epochs=3)
    results = {}
    print(f"{'config':>8} {'test AP':>10}")
    for name, flags in ABLATIONS.items():
        aps = []
        for seed in args.seeds:
            cfg = replace(base, seed=seed, **flags)
            reps = compute_representations(dataset, cfg)
            model, _, _ = train(dataset, cfg, reps=reps)
            aps.append(evaluate(predict(model, dataset, reps=reps), dataset, "test").ap_samples)
        results[name] = {"mean": float(np.mean(aps)), "std": float(np.std(aps))}
        print(f"{name:>8} {results[name]['mean']:>10.3f}")
    (out_dir / "ablation.json").write_text(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
