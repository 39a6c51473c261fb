#!/usr/bin/env python3
"""Print the sha256 of every artifact of a fixed matrix of `gmfx` runs.

Generates a seed-4 n=300 dataset and a copy of it without features.csv.
On each one it runs, in this process through gnn_multifix.cli.main:
`train` with linear, mlp1 and mlp3; `ablate` with no-fr, no-lr and no-pe
under linear and mlp1; `baseline` with majority_vote, mlp (--variant mlp1)
and deepwalk under the degree policy. Every run takes 2 splits, 60 epochs,
1 skip-gram epoch and 3 walks per node, with GMFX_THREADS=1.

Prints "sha256  path" for every file under DIR except run.log and
effective_config.json, paths relative to DIR. Two source trees that keep
the artifacts' bytes print the same lines on one machine; another BLAS or
CPU may round differently.

Usage:
    PYTHONPATH=src python scripts/hash_artifacts.py --out runs/hashes
"""

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path

os.environ["GMFX_THREADS"] = "1"

# gnn_multifix first: GMFX_THREADS caps the BLAS pool only if set before NumPy loads
from gnn_multifix.cli import main as gmfx

SETTINGS = [
    "--n-splits", "2",
    "--set", "model.max_epochs=60",
    "--set", "model.pe_epochs=1",
    "--set", "model.walks_per_node=3",
]
RUNS = {
    **{f"train-{v}": ["train", "--variant", v] for v in ("linear", "mlp1", "mlp3")},
    **{
        f"ablate-{v}-{a}": ["ablate", "--variant", v, "--ablate", a]
        for v in ("linear", "mlp1")
        for a in ("no-fr", "no-lr", "no-pe")
    },
    **{
        f"baseline-{m}": ["baseline", "--method", m, *extra, "--set", "model.feature_policy=degree"]
        for m, extra in (("majority_vote", []), ("mlp", ["--variant", "mlp1"]), ("deepwalk", []))
    },
}
UNHASHED = {"run.log", "effective_config.json"}


def run(argv):
    # the commands' progress lines go to stderr, so stdout holds only hashes
    with contextlib.redirect_stdout(sys.stderr):
        if gmfx(argv) != 0:
            sys.exit(f"gmfx {' '.join(argv)} failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="new or empty output directory")
    args = ap.parse_args()
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")

    data = out / "data"
    run(["generate", "--seed", "4", "--set", "synth.n=300", "--out", str(data / "features")])
    (data / "featureless").mkdir()
    for name in ("edges.tsv", "labels.tsv"):
        (data / "featureless" / name).write_bytes((data / "features" / name).read_bytes())
    for kind in ("features", "featureless"):
        for name, argv in RUNS.items():
            run([*argv, *SETTINGS, "--data", str(data / kind), "--out", str(out / kind / name)])

    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name not in UNHASHED):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
