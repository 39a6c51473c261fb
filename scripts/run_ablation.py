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

# gnn_multifix first: GMFX_THREADS caps the BLAS pool only if set before NumPy loads
from gnn_multifix import (
    ModelConfig,
    compute_representations,
    evaluate,
    generate_position_benchmark,
    predict,
    train,
)
from gnn_multifix.cli import ABLATIONS as GMFX_ABLATIONS
from gnn_multifix.model import VARIANTS
import numpy as np


ABLATIONS = {"full": {}, **GMFX_ABLATIONS}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--regions", type=int, default=12)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--variant", default="linear", choices=VARIANTS)
    ap.add_argument("--out", default="runs/ablation")
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_position_benchmark(n_regions=args.regions, seed=args.seeds[0])
    base = ModelConfig(variant=args.variant, N=1, hidden_dim=64, pe_dim=32, max_epochs=300,
                       patience=60, feature_policy="degree", walks_per_node=5, pe_epochs=3)
    # one fit per seed with every block on: train and predict read only the
    # blocks an ablation enables, so each ablation reuses that fit
    aps = {name: [] for name in ABLATIONS}
    for seed in args.seeds:
        reps = compute_representations(dataset, replace(base, seed=seed))
        for name, flags in ABLATIONS.items():
            cfg = replace(base, seed=seed, **flags)
            model, _, _ = train(dataset, cfg, reps=reps)
            probs = predict(model, dataset, reps=reps)
            aps[name].append(evaluate(probs, dataset, "test").ap_samples)
    results = {}
    print(f"{'config':>8} {'test AP':>10}")
    for name, values in aps.items():
        results[name] = {"mean": float(np.mean(values)), "std": float(np.std(values))}
        print(f"{name:>8} {results[name]['mean']:>10.3f}")
    (out_dir / "ablation.json").write_text(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
