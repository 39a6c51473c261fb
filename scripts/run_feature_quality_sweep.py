#!/usr/bin/env python3
"""Sweep the informative-feature fraction and compare MLP to the fused model.

The graph is held at low homophily so features are the dominant signal for
the feature-only baseline, then the share of label-informative feature
columns varies across levels.

Usage:
    python scripts/run_feature_quality_sweep.py --n 1000 --out runs/featq
"""

import argparse
import json
from dataclasses import replace
from pathlib import Path

# gnn_multifix first: GMFX_THREADS caps the BLAS pool only if set before NumPy loads
from gnn_multifix import (
    TRAINED_BASELINES,
    ModelConfig,
    compute_representations,
    evaluate,
    generate_dataset,
    make_splits,
    predict,
    train,
)
from gnn_multifix.synthgen import SynthSpec
import numpy as np


def fit_test_ap(ds, cfg):
    """Test samples-AP of the model fitted on ds with cfg."""
    reps = compute_representations(ds, cfg)
    model, _, _ = train(ds, cfg, reps=reps)
    return evaluate(predict(model, ds, reps=reps), ds, "test").ap_samples


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--levels", type=float, nargs="+", default=[0.0, 0.2, 0.5, 0.8, 1.0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--out", default="runs/feature_quality_sweep")
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = ModelConfig(variant="mlp1", hidden_dim=64, pe_dim=32, max_epochs=400,
                       patience=60, walks_per_node=5, pe_epochs=3)
    print(f"{'r_ori_feat':>10} {'mlp AP':>10} {'model AP':>10}")
    for r in args.levels:
        mlp_aps, model_aps = [], []
        for seed in args.seeds:
            spec = SynthSpec(n=args.n, target_homophily=0.2, r_ori_feat=r, seed=seed)
            dataset, _ = generate_dataset(spec)
            ds = make_splits(dataset, 0.6, 0.2, seed)
            cfg = replace(base, seed=seed)
            mlp_aps.append(fit_test_ap(ds, replace(cfg, **TRAINED_BASELINES["mlp"])))
            model_aps.append(fit_test_ap(ds, cfg))
        record = {
            "r_ori_feat": r,
            "mlp": {"mean": float(np.mean(mlp_aps)), "std": float(np.std(mlp_aps))},
            "model": {"mean": float(np.mean(model_aps)), "std": float(np.std(model_aps))},
        }
        (out_dir / f"feat_quality_{r:.1f}.json").write_text(json.dumps(record, indent=2))
        print(f"{r:>10.1f} {record['mlp']['mean']:>10.3f} {record['model']['mean']:>10.3f}")


if __name__ == "__main__":
    main()
