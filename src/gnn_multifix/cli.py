"""Command-line entry point.

Subcommands: generate, train, ablate (train with modules disabled),
baseline (majority vote, or train on a TRAINED_BASELINES preset), eval,
dynamics. Configuration precedence is built-in defaults, then the --config
JSON document, then individual flags, and a key that the defaults do not
hold is refused; the effective merged configuration, --ablate and --method
presets applied, is always dumped next to the outputs. All artifacts
except the sidecar run.log are byte-deterministic given config and seed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .baselines import TRAINED_BASELINES, majority_vote
from .errors import GenerationInfeasibleError, TrainingDivergedError
from .evaluation import atypical_node_report, evaluate, export_dynamics, import_dynamics
from .graph import make_splits
from .io import load_dataset, save_dataset, write_probability_csv, read_probability_csv
from .model import VARIANTS, ModelConfig, compute_representations, predict, save_model, train
from .synthgen import SynthSpec, generate_dataset


DATA_KEYS = ("dir", "edges", "labels", "features", "splits")
# --ablate name -> the ModelConfig fields it sets, as TRAINED_BASELINES for --method
ABLATIONS = {f"no-{block}": {f"enable_{block}": False} for block in ("fr", "lr", "pe")}
# flag -> the config keys it sets; --data DIR replaces the whole data section
FLAG_KEYS = {
    "out": ("out",),
    "seed": ("model.seed", "synth.seed"),
    "homophily": ("synth.target_homophily",),
    "feat_quality": ("synth.r_ori_feat",),
    "variant": ("model.variant",),
    "n_splits": ("n_splits",),
}


def default_config() -> dict:
    return {
        "model": asdict(ModelConfig()),
        "synth": asdict(SynthSpec()),
        "data": {},
        "out": "runs/out",
        "n_splits": 3,
        "seeds": None,
        "train_frac": 0.6,
        "val_frac": 0.2,
    }


def _deep_update(base: dict, overlay: dict) -> dict:
    for k, v in overlay.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


# the value a key with a None default takes when it is set: None, or one
# like this sample
NULL_DEFAULT_SAMPLES = {
    "seeds": [0],
    "synth.avg_degree": 0.0,
    **{f"data.{key}": "" for key in DATA_KEYS},
}


def _fits(value, default) -> bool:
    """Whether value may replace ``default``: its own type, or an int for a float.

    A bool never stands for a number, nor a number for a bool, and a list
    holds items that fit its first one.
    """
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def _check_config(cfg: dict, known: dict, prefix: str = ""):
    """Refuse a key of cfg that the tree ``known`` does not hold, or a value of the wrong type."""
    for key, value in cfg.items():
        if key not in known:
            raise ValueError(f"unknown config key '{prefix}{key}'")
        default = known[key]
        if default is None and value is not None:
            default = NULL_DEFAULT_SAMPLES[prefix + key]
        if not _fits(value, default):
            kind = type(default).__name__
            if isinstance(default, list):
                kind = f"list of {type(default[0]).__name__}"
            raise ValueError(f"config key '{prefix}{key}' expects {kind}, got {value!r}")
        if isinstance(default, dict):
            _check_config(value, default, f"{prefix}{key}.")


def _parse_set(value: str):
    key, _, raw = value.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"--set expects key=value, got {value!r}")
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw
    return key, parsed


def build_config(args) -> dict:
    """Defaults, then --config, then flags; a key or value type outside default_config() is refused."""
    known = default_config()
    known["data"] = dict.fromkeys(DATA_KEYS)
    cfg = default_config()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            _deep_update(cfg, json.load(fh))
        _check_config(cfg, known)
    flags = [(key, getattr(args, flag)) for flag, keys in FLAG_KEYS.items()
             if getattr(args, flag, None) is not None for key in keys]
    if getattr(args, "data", None):
        flags.append(("data", {"dir": args.data}))
    for key, value in flags + (getattr(args, "set", None) or []):
        node = cfg
        *parents, leaf = key.split(".")
        for p in parents:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValueError(f"unknown config key '{key}'")
        node[leaf] = value
    _check_config(cfg, known)
    for table, flag in ((ABLATIONS, "ablate"), (TRAINED_BASELINES, "method")):
        cfg["model"].update(table.get(getattr(args, flag, None), {}))
    return cfg


def _resolve_seeds(cfg) -> list[int]:
    if cfg["n_splits"] < 1:
        raise ValueError(f"n_splits must be >= 1, got {cfg['n_splits']}")
    if cfg["seeds"] is not None:
        seeds = [int(s) for s in cfg["seeds"]]
        if len(seeds) != cfg["n_splits"]:
            raise ValueError(f"seed list has {len(seeds)} entries for n_splits={cfg['n_splits']}")
        return seeds
    base = int(cfg["model"]["seed"])
    return [base + i for i in range(cfg["n_splits"])]


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _sidecar_log(outdir: Path, message: str):
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(outdir / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


def _describe(err: Exception) -> str:
    """The message of an error as `gmfx` reports it; a MemoryError says it is one."""
    return f"out of memory: {err}" if isinstance(err, MemoryError) else str(err)


def _load_data(cfg):
    data = {key: path for key, path in (cfg.get("data") or {}).items() if path is not None}
    if "dir" in data and len(data) > 1:
        raise ValueError("the data section takes dir, or edges and labels, not both")
    if "dir" in data:
        d = Path(data["dir"])
        found = [d / name for name in ("features.csv", "features.bin") if (d / name).exists()]
        if len(found) > 1:
            raise ValueError(f"data directory {d} holds both features.csv and features.bin; keep one")
        features = found[0] if found else None
        splits = d / "splits.tsv" if (d / "splits.tsv").exists() else None
        return load_dataset(d / "edges.tsv", d / "labels.tsv", features, splits)
    if not data:
        raise ValueError("no dataset configured: pass --data DIR or a data section in --config")
    for key in ("edges", "labels"):
        if key not in data:
            raise ValueError(f"the data section names no {key} file")
    return load_dataset(data["edges"], data["labels"], data.get("features"), data.get("splits"))


def cmd_generate(cfg) -> int:
    spec = SynthSpec(**cfg["synth"])
    dataset, meta = generate_dataset(spec)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    feature_path = outdir / "features.csv" if dataset.features is not None else None
    save_dataset(dataset, outdir / "edges.tsv", outdir / "labels.tsv", feature_path)
    _dump_json(meta, outdir / "meta.json")
    _dump_json(cfg, outdir / "effective_config.json")
    _sidecar_log(outdir, "generate finished")
    print(
        f"generated n={dataset.n} achieved_homophily={meta['achieved_homophily']:.4f} "
        f"achieved_avg_degree={meta['achieved_avg_degree']:.2f}"
    )
    return 0


def _split_for_run(dataset, cfg, seed):
    if dataset.train_mask.any():
        return dataset
    return make_splits(dataset, cfg["train_frac"], cfg["val_frac"], seed)


def _run_splits(cfg, command: str, fit, method: str | None = None) -> int:
    """Fit and score every configured split; the loop `train` and `baseline` share.

    fit(dataset, run_cfg, split_dir) returns the probabilities and the
    command's own report fields, and writes the command's own artifacts. A
    baseline's method goes into every report and the summary. A split
    count, seed list, split fractions or model config that cannot be run,
    a split with no train, validation or test node, and one whose
    validation or test nodes carry no label, are refused before anything
    is written. A diverging split ends the run with
    exit status 1, and a split that raises ValueError or MemoryError
    re-raises it; either leaves a line in run.log.
    """
    seeds = _resolve_seeds(cfg)
    model_cfg = ModelConfig(**cfg["model"])
    dataset = _load_data(cfg)
    splits = [_split_for_run(dataset, cfg, seed) for seed in seeds]
    for i, ds in enumerate(splits):
        for name, mask in (("train", ds.train_mask), ("validation", ds.val_mask), ("test", ds.test_mask)):
            if not mask.any():
                raise ValueError(f"split {i} has no {name} nodes")
            # both sets are scored, and AP is undefined without a positive
            if name != "train" and not ds.labels[mask].any():
                raise ValueError(f"split {i} has no labelled {name} nodes")
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(cfg, outdir / "effective_config.json")
    method_field = {"method": method} if method else {}
    per_split = []
    for i, (seed, ds) in enumerate(zip(seeds, splits)):
        split_dir = outdir / f"split_{i}"
        split_dir.mkdir(exist_ok=True)
        try:
            probs, fields = fit(ds, replace(model_cfg, seed=seed), split_dir)
        except TrainingDivergedError as err:
            print(f"split {i}: {err}", file=sys.stderr)
            _sidecar_log(outdir, f"split {i}: {err}")
            return 1
        except (ValueError, MemoryError) as err:
            _sidecar_log(outdir, f"split {i}: error: {_describe(err)}")
            raise
        report = {
            **fields,
            **method_field,
            "val": asdict(evaluate(probs, ds, "val")),
            "test": asdict(evaluate(probs, ds, "test")),
            "seed": seed,
        }
        _dump_json(report, split_dir / "report.json")
        write_probability_csv(probs, split_dir / "probs.csv")
        per_split.append(report)
        print(f"split {i}: test samples-AP {report['test']['ap_samples']:.4f}")
    summary = {"n_splits": len(per_split), "splits": per_split, **method_field}
    for split_name in ("val", "test"):
        summary[split_name] = {}
        for mode in ("ap_micro", "ap_macro", "ap_samples"):
            vals = [r[split_name][mode] for r in per_split]
            summary[split_name][mode] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
    _dump_json(summary, outdir / "summary.json")
    _sidecar_log(outdir, f"{command} finished ({len(seeds)} splits)")
    print(f"mean test samples-AP {summary['test']['ap_samples']['mean']:.4f}")
    return 0


def _fit_model(ds, run_cfg, split_dir):
    """The fit of `train` and of the trained baselines: model.ckpt, metrics and dynamics."""
    reps = compute_representations(ds, run_cfg)
    model, log, best_val_ap = train(ds, run_cfg, reps=reps, metrics_path=split_dir / "metrics.jsonl")
    save_model(model, split_dir / "model.ckpt")
    export_dynamics(log, split_dir / "dynamics.csv")
    return predict(model, ds, reps=reps), {"best_val_ap": best_val_ap}


def _fit_majority_vote(ds, run_cfg, split_dir):
    result = majority_vote(ds)
    return result.probs, {"coverage": result.coverage}


def cmd_train(cfg) -> int:
    return _run_splits(cfg, "train", _fit_model)


def cmd_baseline(cfg, method: str) -> int:
    fit = _fit_model if method in TRAINED_BASELINES else _fit_majority_vote
    return _run_splits(cfg, f"baseline {method}", fit, method)


def cmd_eval(cfg, probs_path, split: str) -> int:
    dataset = _split_for_run(_load_data(cfg), cfg, _resolve_seeds(cfg)[0])
    probs = read_probability_csv(probs_path)
    report = evaluate(probs, dataset, split)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(asdict(report), outdir / f"eval_{split}.json")
    print(f"{split} samples-AP {report.ap_samples:.4f} (micro {report.ap_micro:.4f}, macro {report.ap_macro:.4f})")
    return 0


def cmd_dynamics(cfg, run_dir, k: int) -> int:
    run = Path(run_dir) if run_dir else Path(cfg["out"])
    if not run.exists():
        raise ValueError(f"run directory {run} does not exist")
    csvs = sorted(run.glob("split_*/dynamics.csv"))
    if not csvs:
        raise ValueError(f"no dynamics.csv found under {run}")
    for csv in csvs:
        log = import_dynamics(csv)
        k_eff = min(k, len(log.node_ids))
        report = atypical_node_report(log, k_eff)
        out = csv.with_name("atypical_nodes.csv")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("node_id,final_loss,slope\n")
            for rec in report:
                fh.write(f"{rec.node_id},{repr(rec.final_loss)},{repr(rec.slope)}\n")
        print(f"{csv}: {log.n_checkpoints} checkpoints, top atypical node {report[0].node_id}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmfx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--set", type=_parse_set, action="append", metavar="KEY=VALUE",
                       help="override any config key, e.g. model.max_epochs=50")

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--homophily", type=float, help="target label homophily")
    p.add_argument("--feat-quality", type=float, dest="feat_quality",
                   help="fraction of label-informative feature columns")

    for name in ("train", "ablate"):
        p = sub.add_parser(name, help="train the model over the configured splits")
        common(p)
        p.add_argument("--data", help="dataset directory")
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--n-splits", type=int, dest="n_splits")
        if name == "ablate":
            p.add_argument("--ablate", choices=ABLATIONS, required=True)

    p = sub.add_parser("baseline", help="run a reference predictor")
    common(p)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--method", required=True, choices=("majority_vote", *TRAINED_BASELINES))
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--n-splits", type=int, dest="n_splits")

    p = sub.add_parser("eval", help="evaluate a stored probability CSV")
    common(p)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--probs", required=True)
    p.add_argument("--split", default="test", choices=("val", "test"))

    p = sub.add_parser("dynamics", help="export atypical-node reports from a run")
    common(p)
    p.add_argument("--run", help="existing training run directory")
    p.add_argument("--k", type=int, default=20)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command in ("train", "ablate"):
            return cmd_train(cfg)
        if args.command == "baseline":
            return cmd_baseline(cfg, args.method)
        if args.command == "eval":
            return cmd_eval(cfg, args.probs, args.split)
        if args.command == "dynamics":
            return cmd_dynamics(cfg, args.run, args.k)
    except GenerationInfeasibleError as err:
        print(f"generation infeasible: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {_describe(err)}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
