#!/usr/bin/env python3
"""Print the sha256 of every artifact of a fixed matrix of `gmfx` runs.

Generates a seed-4 n=300 dataset, a copy of it without features.csv, a
copy that ships a splits.tsv listing every node (node v goes to train,
train, train, val, test by v mod 5) and a featureless copy with five
label-only nodes, 300-304, which have no edge (node 300 + i holds label i),
so their walks stop at once. It also saves the seed-4 position benchmark
with 4 regions (featureless structural twins) and its splits.tsv. On the
first dataset it runs, in this process through gnn_multifix.cli.main:
`train` with linear, mlp1 and mlp3; `ablate`
with no-fr, no-lr and no-pe under linear and mlp1; `baseline` with
majority_vote, mlp (--variant mlp1) and deepwalk under the degree policy.
On the featureless copy it runs the same matrix but for the four runs that
never read features (the majority_vote and deepwalk baselines and the two
no-fr ablations), whose bytes would repeat the first dataset's, and adds
`train` (linear) under the degree policy. Then it runs `train` (linear) on
the copy with splits.tsv and on the copy with label-only nodes, `train`
(linear) under the degree policy on the position benchmark, `train`
(linear) on the first dataset with 2 skip-gram epochs, `eval` of the first
linear run's split_0/probs.csv, and `dynamics` on that run. Every training
run takes 2 splits, 60 epochs and 3 walks per node, with GMFX_THREADS=1,
and all but the 2-epoch one take 1 skip-gram epoch. Three more seed-4
`generate` runs cover the generator paths that n=300 at the default
homophily misses: the n=3000 default, which tunes on a reduced edge budget
before it builds the full graph, and n=300 at target homophily 1.0 (the
identical-set graph) and 0.2 (the dense degree preset).

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
from gnn_multifix import save_dataset
from gnn_multifix.cli import main as gmfx
from gnn_multifix.model import VARIANTS
from gnn_multifix.synthgen import generate_position_benchmark

N = 300
ISOLATED = 5
SPLIT_OF = ("train", "train", "train", "val", "test")
SETTINGS = [
    "--n-splits", "2",
    "--set", "model.max_epochs=60",
    "--set", "model.pe_epochs=1",
    "--set", "model.walks_per_node=3",
]
RUNS = {
    **{f"train-{v}": ["train", "--variant", v] for v in VARIANTS},
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
# the featureless copy: runs that read no features would repeat the
# first dataset's bytes, and the degree policy takes the narrow D=1 readout
FEATURELESS_RUNS = {
    **{name: argv for name, argv in RUNS.items()
       if name not in ("baseline-majority_vote", "baseline-deepwalk")
       and not name.endswith("-no-fr")},
    "train-linear-degree": [*RUNS["train-linear"], "--set", "model.feature_policy=degree"],
}
# generator paths the n=300 matrix does not take
GENERATE_ONLY = {
    "generate-default": [],
    "generate-h1.0": ["--set", f"synth.n={N}", "--set", "synth.target_homophily=1.0"],
    "generate-h0.2": ["--set", f"synth.n={N}", "--set", "synth.target_homophily=0.2"],
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
    run(["generate", "--seed", "4", "--set", f"synth.n={N}", "--out", str(data / "features")])
    for kind, names in (("featureless", ["edges.tsv", "labels.tsv"]),
                        ("split", ["edges.tsv", "labels.tsv", "features.csv"]),
                        ("isolated", ["edges.tsv", "labels.tsv"])):
        (data / kind).mkdir()
        for name in names:
            (data / kind / name).write_bytes((data / "features" / name).read_bytes())
    (data / "split" / "splits.tsv").write_text("".join(f"{v}\t{SPLIT_OF[v % 5]}\n" for v in range(N)))
    with open(data / "isolated" / "labels.tsv", "a") as labels:
        labels.write("".join(f"{N + i}\t{i}\n" for i in range(ISOLATED)))
    position = data / "position"
    position.mkdir()
    save_dataset(generate_position_benchmark(n_regions=4, seed=4), position / "edges.tsv",
                 position / "labels.tsv", split_path=position / "splits.tsv")
    for kind, runs in (("features", RUNS), ("featureless", FEATURELESS_RUNS)):
        for name, argv in runs.items():
            run([*argv, *SETTINGS, "--data", str(data / kind), "--out", str(out / kind / name)])
    for kind in ("split", "isolated"):
        run([*RUNS["train-linear"], *SETTINGS, "--data", str(data / kind),
             "--out", str(out / kind / "train-linear")])
    run([*FEATURELESS_RUNS["train-linear-degree"], *SETTINGS, "--data", str(position),
         "--out", str(out / "position" / "train-linear-degree")])
    # later skip-gram epochs shuffle the pair order again; every other run has one
    run([*RUNS["train-linear"], *SETTINGS, "--set", "model.pe_epochs=2",
         "--data", str(data / "features"), "--out", str(out / "features" / "train-linear-pe2")])
    linear = out / "features" / "train-linear"
    run(["eval", "--data", str(data / "features"), "--probs", str(linear / "split_0" / "probs.csv"),
         "--out", str(out / "eval")])
    run(["dynamics", "--run", str(linear)])
    for name, settings in GENERATE_ONLY.items():
        run(["generate", "--seed", "4", *settings, "--out", str(data / name)])

    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name not in UNHASHED):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
