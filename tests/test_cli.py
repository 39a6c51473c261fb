import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnn_multifix import cli, load_dataset, make_dataset, make_splits, save_dataset
from gnn_multifix.cli import (
    DATA_KEYS,
    NULL_DEFAULT_SAMPLES,
    build_config,
    default_config,
    main,
    make_parser,
)

from conftest import build_two_clique_dataset


def write_toy_dataset(tmp_path, with_split=True):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    ds = build_two_clique_dataset(10)
    split = None
    if with_split:
        ds = make_splits(ds, 0.6, 0.2, seed=5)
        split = data_dir / "splits.tsv"
    save_dataset(ds, data_dir / "edges.tsv", data_dir / "labels.tsv", split_path=split)
    return data_dir


SMALL_MODEL = [
    "--set", "model.hidden_dim=16",
    "--set", "model.pe_dim=8",
    "--set", "model.max_epochs=80",
    "--set", "model.patience=30",
    "--set", "model.walks_per_node=5",
    "--set", "model.pe_epochs=3",
]


def read_bytes_map(root, names):
    return {n: (root / n).read_bytes() for n in names}


def test_generate_writes_dataset_and_meta(tmp_path, capsys):
    out = tmp_path / "gen"
    rc = main([
        "generate", "--out", str(out), "--seed", "1", "--homophily", "0.6",
        "--set", "synth.n=200", "--set", "synth.avg_degree=10",
    ])
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    assert abs(meta["achieved_homophily"] - 0.6) <= 0.02
    assert (out / "edges.tsv").exists() and (out / "labels.tsv").exists()
    assert (out / "features.csv").exists()
    printed = capsys.readouterr().out
    assert "achieved_homophily" in printed


def test_generate_full_homophily_exact(tmp_path):
    out = tmp_path / "gen1"
    rc = main([
        "generate", "--out", str(out), "--seed", "2", "--homophily", "1.0",
        "--set", "synth.n=200", "--set", "synth.avg_degree=8",
    ])
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["achieved_homophily"] == 1.0


def test_generate_is_byte_deterministic(tmp_path):
    args = ["generate", "--seed", "1", "--homophily", "0.4",
            "--set", "synth.n=150", "--set", "synth.avg_degree=8"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = ["edges.tsv", "labels.tsv", "features.csv", "meta.json"]
    assert read_bytes_map(out1, names) == read_bytes_map(out2, names)


def test_train_two_clique_reaches_perfect_ap(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "run"
    rc = main([
        "train", "--data", str(data), "--out", str(out), "--seed", "3",
        "--variant", "linear", "--n-splits", "1", *SMALL_MODEL,
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["test"]["ap_samples"]["mean"] == pytest.approx(1.0)
    split = out / "split_0"
    for name in ("report.json", "model.ckpt", "dynamics.csv", "dynamics_summary.csv",
                 "probs.csv", "metrics.jsonl"):
        assert (split / name).exists()
    assert (out / "effective_config.json").exists()


def test_train_rerun_is_byte_identical(tmp_path):
    data = write_toy_dataset(tmp_path)
    args = ["train", "--data", str(data), "--seed", "4", "--variant", "linear",
            "--n-splits", "1", *SMALL_MODEL]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = ["summary.json", "split_0/report.json", "split_0/model.ckpt",
             "split_0/dynamics.csv", "split_0/probs.csv", "split_0/metrics.jsonl"]
    assert read_bytes_map(out1, names) == read_bytes_map(out2, names)


def test_ablate_disables_module_in_effective_config(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "ab"
    rc = main([
        "ablate", "--data", str(data), "--out", str(out), "--seed", "3",
        "--ablate", "no-pe", "--n-splits", "1", *SMALL_MODEL,
    ])
    assert rc == 0
    cfg = json.loads((out / "effective_config.json").read_text())
    assert cfg["model"]["enable_pe"] is False


def test_train_takes_no_ablate_flag(tmp_path):
    # `gmfx ablate --ablate X` is the one spelling of an ablation
    data = write_toy_dataset(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--ablate", "no-pe"])
    assert exit_.value.code == 2
    assert not (tmp_path / "run").exists()


def test_baseline_majority_vote_reports_coverage(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "mv"
    rc = main([
        "baseline", "--method", "majority_vote", "--data", str(data),
        "--out", str(out), "--seed", "3", "--n-splits", "1",
    ])
    assert rc == 0
    report = json.loads((out / "split_0" / "report.json").read_text())
    assert "coverage" in report
    assert report["test"]["ap_samples"] == pytest.approx(1.0)


def test_baseline_deepwalk_runs(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "dw"
    rc = main([
        "baseline", "--method", "deepwalk", "--data", str(data), "--out", str(out),
        "--seed", "3", "--n-splits", "1", "--variant", "linear", *SMALL_MODEL,
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["test"]["ap_samples"]["mean"] == pytest.approx(1.0)


def test_dynamics_checkpoint_counts(tmp_path):
    data = write_toy_dataset(tmp_path)
    # >= 30 epochs: exactly 30 checkpoints
    out = tmp_path / "d60"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL,
                 "--set", "model.max_epochs=60", "--set", "model.patience=100"]) == 0
    rows = (out / "split_0" / "dynamics.csv").read_text().strip().splitlines()[1:]
    checkpoints = {int(r.split(",")[0]) for r in rows}
    assert len(checkpoints) == 30
    # < 30 epochs: one checkpoint per epoch
    out = tmp_path / "d10"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL,
                 "--set", "model.max_epochs=10", "--set", "model.patience=100"]) == 0
    rows = (out / "split_0" / "dynamics.csv").read_text().strip().splitlines()[1:]
    assert {int(r.split(",")[0]) for r in rows} == set(range(10))


def test_dynamics_command_reports_atypical_nodes(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL]) == 0
    rc = main(["dynamics", "--run", str(out), "--k", "5"])
    assert rc == 0
    report = (out / "split_0" / "atypical_nodes.csv").read_text().strip().splitlines()
    assert report[0] == "node_id,final_loss,slope"
    finals = [float(r.split(",")[1]) for r in report[1:]]
    assert finals == sorted(finals, reverse=True)
    assert len(finals) == 5


@pytest.mark.parametrize("k", ["0", "-3"])
def test_dynamics_refuses_k_below_one(tmp_path, capsys, k):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL]) == 0
    capsys.readouterr()
    assert main(["dynamics", "--run", str(out), "--k", k]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "split_0" / "atypical_nodes.csv").exists()


def test_truncated_dynamics_csv_names_the_short_checkpoint(tmp_path, capsys):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL]) == 0
    csv = out / "split_0" / "dynamics.csv"
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:-3]))
    capsys.readouterr()
    assert main(["dynamics", "--run", str(out)]) == 1
    last = lines[-1].split(",")[0]
    assert re.match(rf"error: \S+dynamics\.csv:\d+: checkpoint {last} has no loss for node \d+$",
                    capsys.readouterr().err)


def test_dynamics_missing_run_dir_fails(tmp_path, capsys):
    rc = main(["dynamics", "--run", str(tmp_path / "nope")])
    assert rc == 1


def test_dynamics_with_data_does_not_train_a_missing_run(tmp_path, capsys):
    data = write_toy_dataset(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    rc = main(["dynamics", "--run", str(tmp_path / "nope"), "--data", str(data)])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_eval_command(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL]) == 0
    rc = main(["eval", "--data", str(data), "--probs", str(out / "split_0" / "probs.csv"),
               "--split", "test", "--out", str(tmp_path / "eval")])
    assert rc == 0
    report = json.loads((tmp_path / "eval" / "eval_test.json").read_text())
    assert report["ap_samples"] == pytest.approx(1.0)


def test_eval_scores_the_split_of_the_runs_first_seed(tmp_path):
    # without splits.tsv the split comes from the seed: seed 5 here, not --seed's 0
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--seed", "3", "--set", "synth.n=300"]) == 0
    flags = ["--data", str(data), "--set", "n_splits=1", "--set", "seeds=[5]"]
    assert main(["train", *flags, "--out", str(run), *SMALL_MODEL]) == 0
    assert main(["eval", *flags, "--probs", str(run / "split_0" / "probs.csv"),
                 "--out", str(tmp_path / "eval")]) == 0
    report = json.loads((run / "split_0" / "report.json").read_text())
    assert json.loads((tmp_path / "eval" / "eval_test.json").read_text()) == report["test"]


def test_eval_refuses_a_seed_list_as_train_does(tmp_path, capsys):
    data = write_toy_dataset(tmp_path, with_split=False)
    flags = ["--data", str(data), "--set", "n_splits=3", "--set", "seeds=[1, 2]"]
    assert main(["train", *flags, "--out", str(tmp_path / "run")]) == 1
    refused = capsys.readouterr().err
    assert refused == "error: seed list has 2 entries for n_splits=3\n"
    assert main(["eval", *flags, "--probs", str(tmp_path / "probs.csv"),
                 "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == refused
    assert not (tmp_path / "eval").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_names_split_and_epoch(tmp_path, capsys):
    data = write_toy_dataset(tmp_path)
    for command in (
        ["train"],
        ["baseline", "--method", "mlp", "--set", "model.feature_policy=degree"],
        ["baseline", "--method", "deepwalk"],
    ):
        rc = main([
            *command, "--data", str(data), "--out", str(tmp_path / command[-1]), "--seed", "3",
            "--variant", "mlp1", "--n-splits", "1", *SMALL_MODEL, "--set", "model.lr=1e200",
        ])
        assert rc == 1, command
        err = capsys.readouterr().err
        assert "split 0: non-finite loss at epoch" in err, command
        log = (tmp_path / command[-1] / "run.log").read_text()
        assert re.search(r"^\S+ split 0: non-finite loss at epoch \d+$", log, re.M), command


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_walk_embedding_exit_names_the_block(tmp_path, capsys):
    # skip-gram's float32 tables overflow at this step size
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out), "--seed", "3", "--n-splits", "1",
               *SMALL_MODEL, "--set", "model.pe_lr=1000"])
    assert rc == 1
    assert capsys.readouterr().err == "split 0: the fitted positional block is not finite\n"
    log = (out / "run.log").read_text()
    assert re.search(r"^\S+ split 0: the fitted positional block is not finite$", log, re.M)
    assert not (out / "split_0" / "metrics.jsonl").exists()


TRAIN_FILES = {"report.json", "probs.csv", "model.ckpt", "metrics.jsonl", "dynamics.csv",
               "dynamics_summary.csv"}


@pytest.mark.parametrize("command, files, keys", [
    (["train"], TRAIN_FILES, {"best_val_ap", "seed", "val", "test"}),
    (["baseline", "--method", "majority_vote"], {"report.json", "probs.csv"},
     {"method", "coverage", "seed", "val", "test"}),
    # a trained baseline runs train's fit and writes train's files
    (["baseline", "--method", "mlp"], TRAIN_FILES, {"best_val_ap", "method", "seed", "val", "test"}),
    (["baseline", "--method", "deepwalk"], TRAIN_FILES,
     {"best_val_ap", "method", "seed", "val", "test"}),
], ids=["train", "majority_vote", "mlp", "deepwalk"])
def test_split_files_and_report_keys_per_command(tmp_path, command, files, keys):
    data = write_toy_dataset(tmp_path, with_split=False)
    out = tmp_path / "run"
    assert main([*command, "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "2", "--variant", "linear", *SMALL_MODEL]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_splits"] == 2
    assert summary.get("method") == (command[2] if command[0] == "baseline" else None)
    for i in range(2):
        split = out / f"split_{i}"
        assert {p.name for p in split.iterdir()} == files
        report = json.loads((split / "report.json").read_text())
        assert set(report) == keys
        assert report["seed"] == 3 + i
        assert summary["splits"][i] == report


def test_baseline_mlp_is_train_on_its_preset(tmp_path):
    data = write_toy_dataset(tmp_path, with_split=False)
    common = ["--data", str(data), "--seed", "3", "--n-splits", "1", "--variant", "mlp1",
              *SMALL_MODEL, "--set", "model.feature_policy=degree"]
    baseline, trained = tmp_path / "baseline", tmp_path / "train"
    assert main(["baseline", "--method", "mlp", "--out", str(baseline), *common]) == 0
    assert main(["train", "--out", str(trained), *common, "--set", "model.K=0",
                 "--set", "model.enable_lr=false", "--set", "model.enable_pe=false"]) == 0
    names = ["split_0/probs.csv", "split_0/model.ckpt", "split_0/dynamics.csv"]
    assert read_bytes_map(baseline, names) == read_bytes_map(trained, names)
    # effective_config.json holds the model that trained
    model = json.loads((baseline / "effective_config.json").read_text())["model"]
    assert (model["K"], model["enable_fr"], model["enable_lr"], model["enable_pe"]) == (
        0, True, False, False)
    assert model == json.loads((trained / "effective_config.json").read_text())["model"]


def test_dynamics_reads_a_deepwalk_baseline_run(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "dw"
    assert main(["baseline", "--method", "deepwalk", "--data", str(data), "--out", str(out),
                 "--seed", "3", "--n-splits", "1", *SMALL_MODEL]) == 0
    model = json.loads((out / "effective_config.json").read_text())["model"]
    assert (model["enable_fr"], model["enable_lr"], model["enable_pe"]) == (False, False, True)
    assert main(["dynamics", "--run", str(out), "--k", "5"]) == 0
    report = (out / "split_0" / "atypical_nodes.csv").read_text().strip().splitlines()
    assert report[0] == "node_id,final_loss,slope"
    assert len(report) == 6


def test_baseline_mlp_without_features_or_policy_exits_like_train(tmp_path, capsys):
    data = write_toy_dataset(tmp_path)
    for command in (["train"], ["baseline", "--method", "mlp"]):
        rc = main([*command, "--data", str(data), "--out", str(tmp_path / command[-1]),
                   "--seed", "3", "--n-splits", "1", *SMALL_MODEL,
                   "--set", "model.feature_policy=none"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "substitution policy is 'none'" in err
        log = (tmp_path / command[-1] / "run.log").read_text().splitlines()
        assert len(log) == 1
        assert log[0].split(" ", 1)[1] == "split 0: " + err.strip()


def test_memory_error_exits_with_an_error_line_and_a_log_line(tmp_path, capsys, monkeypatch):
    # the failure a huge featureless mlp1 meets in np.eye(n), without allocating it
    message = "Unable to allocate 6.71 GiB for an array with shape (30000, 30000)"

    def out_of_memory(dataset, config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "compute_representations", out_of_memory)
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "oom"
    rc = main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
               "--n-splits", "1", *SMALL_MODEL])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {message}\n"
    log = (out / "run.log").read_text().splitlines()
    assert len(log) == 1
    assert log[0].split(" ", 1)[1] == "split 0: " + err.strip()
    assert not (out / "split_0" / "report.json").exists()


def test_metrics_stream_format(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "ms"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL]) == 0
    lines = (out / "split_0" / "metrics.jsonl").read_text().strip().splitlines()
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert set(rec) == {"epoch", "train_loss", "val_ap"}
        assert rec["epoch"] == i


@pytest.mark.parametrize("key, value, message", [
    ("n", "1", "n must be >= 2, got 1"),
    ("n", "0", "n must be >= 2, got 0"),
    ("feat_dim", "-1", "feat_dim must be >= 0, got -1"),
    ("mean_labels", "0.5", "mean_labels must be >= 1, got 0.5"),
    ("avg_degree", "0", "avg_degree must be >= 1, got 0"),
])
def test_synth_value_that_crashes_or_misleads_is_refused_before_any_file(
    tmp_path, capsys, key, value, message
):
    before = sorted(tmp_path.rglob("*"))
    assert main(["generate", "--out", str(tmp_path / "gen"), "--set", f"synth.{key}={value}"]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert sorted(tmp_path.rglob("*")) == before


def test_generate_infeasible_target_exits_nonzero(tmp_path, capsys):
    # a 1-label universe cannot express homophily 0.5: every edge is 0 or 1
    rc = main([
        "generate", "--out", str(tmp_path / "bad"), "--seed", "0", "--homophily", "0.5",
        "--set", "synth.n=60", "--set", "synth.C=1", "--set", "synth.max_labels=1",
        "--set", "synth.mean_labels=1.0", "--set", "synth.avg_degree=6",
    ])
    assert rc == 1
    assert "achieved" in capsys.readouterr().err


MISTYPED_CONFIG_ERRORS = {
    ("model.max_epochs", '"abc"'): "config key 'model.max_epochs' expects int, got 'abc'",
    ("model.max_epochs", "true"): "config key 'model.max_epochs' expects int, got True",
    ("model", "3"): "config key 'model' expects dict, got 3",
    ("model.lr", "false"): "config key 'model.lr' expects float, got False",
    ("model.enable_pe", "1"): "config key 'model.enable_pe' expects bool, got 1",
    ("seeds", "5"): "config key 'seeds' expects list of int, got 5",
    ("seeds", '[1, "2"]'): "config key 'seeds' expects list of int, got [1, '2']",
    ("seeds", "[1.0]"): "config key 'seeds' expects list of int, got [1.0]",
    ("synth.avg_degree", '"8"'): "config key 'synth.avg_degree' expects float, got '8'",
    ("data.dir", "7"): "config key 'data.dir' expects str, got 7",
}


@pytest.mark.parametrize("key, value", [
    ("model.max_epoch", "3"), ("n_split", "7"), ("pe_cache", '"cache"'), ("synth.nn", "100"),
    *MISTYPED_CONFIG_ERRORS,
])
@pytest.mark.parametrize("source", ["set", "config"])
def test_unknown_config_key_is_refused_before_any_file(
    tmp_path, monkeypatch, capsys, source, key, value
):
    monkeypatch.chdir(tmp_path)  # a relative path such as pe_cache's stays in tmp_path
    data = write_toy_dataset(tmp_path)
    if key.startswith("synth."):
        command = ["generate"]
    else:
        command = ["train", "--data", str(data), "--n-splits", "1"]
    if source == "set":
        extra = ["--set", f"{key}={value}"]
    else:
        *parents, leaf = key.split(".")
        doc = {leaf: json.loads(value)}
        for p in reversed(parents):
            doc = {p: doc}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        extra = ["--config", str(config)]
    before = sorted(tmp_path.rglob("*"))
    assert main([*command, "--out", str(tmp_path / "run"), "--seed", "3", *extra]) == 1
    message = MISTYPED_CONFIG_ERRORS.get((key, value), f"unknown config key '{key}'")
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("extra", [
    ["--n-splits", "0"],
    ["--n-splits", "-2"],
    ["--n-splits", "3", "--set", "seeds=[1, 2]"],
], ids=["zero", "negative", "seed-list-length"])
def test_unrunnable_split_count_is_refused_before_any_file(tmp_path, capsys, extra):
    data = write_toy_dataset(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), *extra]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("extra, message", [
    (["--set", "val_frac=0.5"], "train_frac + val_frac must be < 1 (got 1.1)"),
    (["--set", "train_frac=0"], "fractions must lie in (0, 1)"),
    (["--set", "val_frac=1.5"], "fractions must lie in (0, 1)"),
    (["--set", "val_frac=0.01"], "split 0 has no validation nodes"),
    (["--set", "train_frac=0.01"], "split 0 has no train nodes"),
], ids=["sum", "zero", "above-one", "no-val-node", "no-train-node"])
def test_unrunnable_split_fractions_are_refused_before_any_file(tmp_path, capsys, extra, message):
    data = write_toy_dataset(tmp_path, with_split=False)
    before = sorted(tmp_path.rglob("*"))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--n-splits", "1",
                 *SMALL_MODEL, *extra]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("empty, message", [
    ("val", "split 0 has no validation nodes"),
    ("test", "split 0 has no test nodes"),
])
def test_split_file_with_an_empty_set_is_refused_before_any_file(tmp_path, capsys, empty, message):
    # a splits.tsv that lists the nodes of the emptied set as train nodes
    data = write_toy_dataset(tmp_path, with_split=False)
    ds = make_splits(build_two_clique_dataset(10), 0.6, 0.2, seed=5)
    masks = {"train": ds.train_mask, "val": ds.val_mask, "test": ds.test_mask}
    masks["train"] = masks["train"] | masks[empty]
    masks[empty] = np.zeros(ds.n, bool)
    save_dataset(ds.with_masks(*masks.values()), data / "edges.tsv", data / "labels.tsv",
                 split_path=data / "splits.tsv")
    before = sorted(tmp_path.rglob("*"))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--n-splits", "1",
                 *SMALL_MODEL]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("unlabelled, message", [
    ("val", "split 0 has no labelled validation nodes"),
    ("test", "split 0 has no labelled test nodes"),
])
def test_split_file_whose_scored_set_has_no_label_is_refused_before_any_file(
    tmp_path, capsys, unlabelled, message
):
    # AP is undefined on a set without a positive, so the run could only fail after training
    data = write_toy_dataset(tmp_path, with_split=False)
    ds = make_splits(build_two_clique_dataset(10), 0.6, 0.2, seed=5)
    labels = ds.labels.copy()
    labels[getattr(ds, f"{unlabelled}_mask")] = 0
    ds = make_dataset(ds.graph, labels, None, ds.train_mask, ds.val_mask, ds.test_mask)
    save_dataset(ds, data / "edges.tsv", data / "labels.tsv", split_path=data / "splits.tsv")
    before = sorted(tmp_path.rglob("*"))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--n-splits", "1",
                 *SMALL_MODEL]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert sorted(tmp_path.rglob("*")) == before


def test_split_fractions_are_ignored_when_the_dataset_has_splits(tmp_path):
    data = write_toy_dataset(tmp_path)
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--n-splits", "1",
                 *SMALL_MODEL, "--set", "val_frac=0.5"]) == 0
    assert (tmp_path / "run" / "split_0" / "probs.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    ("K", "-1", "K must be >= 0, got -1"),
    ("N", "-1", "N must be >= 0, got -1"),
    ("pe_dim", "0", "pe_dim must be >= 1, got 0"),
    ("hidden_dim", "0", "hidden_dim must be >= 1, got 0"),
    ("max_epochs", "0", "max_epochs must be >= 1, got 0"),
    ("walk_len", "1", "walk_len must be >= 2, got 1"),
    ("walks_per_node", "0", "walks_per_node must be >= 1, got 0"),
    ("window", "0", "window must be >= 1, got 0"),
    ("neg_samples", "0", "neg_samples must be >= 1, got 0"),
    ("pe_epochs", "0", "pe_epochs must be >= 1, got 0"),
    ("lr", "-0.01", "lr must be a finite number > 0, got -0.01"),
    ("lr", "NaN", "lr must be a finite number > 0, got nan"),
    ("pe_lr", "0", "pe_lr must be a finite number > 0, got 0"),
    ("pe_lr", "Infinity", "pe_lr must be a finite number > 0, got inf"),
    ("weight_decay", "-0.0005", "weight_decay must be a finite number >= 0, got -0.0005"),
])
def test_model_value_that_trains_nonsense_is_refused_before_any_file(
    tmp_path, capsys, key, value, message
):
    data = write_toy_dataset(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--n-splits", "1",
               "--set", f"model.{key}={value}"])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("labels, splits", [
    ("#C=20\n0\t0\n1\t5,25\n", None),
    ("#C=20\n0\t0\n1\t5\n", "0\ttrain\n9\ttest\n"),
], ids=["label", "split"])
def test_out_of_range_id_is_an_error_line(tmp_path, capsys, labels, splits):
    data = tmp_path / "data"
    data.mkdir()
    (data / "edges.tsv").write_text("0\t1\n")
    (data / "labels.tsv").write_text(labels)
    if splits:
        (data / "splits.tsv").write_text(splits)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--n-splits", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of range" in err


def test_data_section_paths_train_the_bytes_of_a_data_dir(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--seed", "3", "--set", "synth.n=150"]) == 0
    ds = make_splits(load_dataset(data / "edges.tsv", data / "labels.tsv", data / "features.csv"),
                     0.6, 0.2, seed=5)
    save_dataset(ds, data / "edges.tsv", data / "labels.tsv", split_path=data / "splits.tsv")
    config = tmp_path / "config.json"
    files = {"edges": "edges.tsv", "labels": "labels.tsv", "features": "features.csv",
             "splits": "splits.tsv"}
    config.write_text(json.dumps({"data": {key: str(data / name) for key, name in files.items()}}))
    common = ["--seed", "3", "--n-splits", "1", *SMALL_MODEL]
    by_dir, by_paths = tmp_path / "by_dir", tmp_path / "by_paths"
    assert main(["train", "--data", str(data), "--out", str(by_dir), *common]) == 0
    assert main(["train", "--config", str(config), "--out", str(by_paths), *common]) == 0
    names = ["summary.json", *(f"split_0/{name}" for name in TRAIN_FILES)]
    assert read_bytes_map(by_dir, names) == read_bytes_map(by_paths, names)


def test_int_value_for_a_float_config_key_is_accepted(tmp_path):
    data = write_toy_dataset(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                 "--n-splits", "1", *SMALL_MODEL, "--set", "model.lr=1"]) == 0
    assert json.loads((out / "effective_config.json").read_text())["model"]["lr"] == 1


def test_null_default_keys_take_none_or_their_type(tmp_path):
    def null_keys(tree, prefix=""):
        for key, value in tree.items():
            if isinstance(value, dict):
                yield from null_keys(value, f"{prefix}{key}.")
            elif value is None:
                yield prefix + key

    known = {**default_config(), "data": dict.fromkeys(DATA_KEYS)}
    assert set(null_keys(known)) == set(NULL_DEFAULT_SAMPLES)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seeds": None, "synth": {"avg_degree": None}, "data": {"dir": None}}))
    base = ["train", "--config", str(config), "--set", "n_splits=2"]
    assert build_config(make_parser().parse_args(base))["seeds"] is None
    cfg = build_config(make_parser().parse_args([
        *base, "--set", "seeds=[4, 9]", "--set", "synth.avg_degree=8", "--data", "d",
    ]))
    assert (cfg["seeds"], cfg["synth"]["avg_degree"], cfg["data"]) == ([4, 9], 8, {"dir": "d"})


def test_benchmark_workload_flags_are_known_config_keys(tmp_path):
    design = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "design.json").read_text())
    for spec in design["workloads"].values():
        generate = ["generate", "--out", str(tmp_path), "--seed", "1", *spec["generate"]]
        train = ["train", "--data", str(tmp_path), "--seed", "1", "--n-splits", "1", *spec["train"]]
        for argv in (generate, train):
            build_config(make_parser().parse_args(argv))  # raises on an unknown key


def test_generate_and_train_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.percentile import numpy.ma, which costs a child
    # process about 15 ms and 0.4 MiB
    data, run = tmp_path / "data", tmp_path / "run"
    generate = ["generate", "--out", str(data), "--seed", "3", "--set", "synth.n=150"]
    train = ["train", "--data", str(data), "--out", str(run), "--n-splits", "1", *SMALL_MODEL]
    code = (
        "import sys\n"
        "from gnn_multifix.cli import main\n"
        f"for argv in ({generate!r}, {train!r}):\n"
        "    assert main(argv) == 0\n"
        "    assert 'numpy.ma' not in sys.modules, argv[0]\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, GMFX_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr



def import_with_gmfx_threads(value, code="import gnn_multifix"):
    """Run code in a child whose GMFX_THREADS is value (None: unset) and no *_NUM_THREADS is set."""
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "GMFX_THREADS"}
    if value is not None:
        env["GMFX_THREADS"] = value
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("value", ["abc", "0", "-3", " 2", "1.5"])
def test_gmfx_threads_that_is_not_a_positive_integer_is_refused(value):
    # OpenBLAS reads such a value as "use every core"
    out = import_with_gmfx_threads(value)
    assert out.returncode != 0
    assert out.stderr.strip().splitlines()[-1] == (
        f"ValueError: GMFX_THREADS must be a positive integer, got {value!r}"
    )


def test_empty_gmfx_threads_means_unset():
    # an unset GMFX_THREADS caps the BLAS pools at one thread
    for value in (None, ""):
        out = import_with_gmfx_threads(
            value, "import os, gnn_multifix; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "1", value


def test_unset_gmfx_threads_trains_the_bytes_of_one_thread(tmp_path):
    # On a machine with one core both runs use one BLAS thread anyway, so
    # there this test passes even without the default of one thread.
    runs = {}
    for name, value in (("unset", None), ("one", "1")):
        data, run = tmp_path / name / "data", tmp_path / name / "run"
        code = (
            "from gnn_multifix.cli import main\n"
            f"assert main(['generate', '--seed', '4', '--set', 'synth.n=300', '--out', {str(data)!r}]) == 0\n"
            f"assert main(['train', '--data', {str(data)!r}, '--out', {str(run)!r}, '--n-splits', '1',"
            " '--set', 'model.max_epochs=60', '--set', 'model.pe_epochs=1']) == 0\n"
        )
        out = import_with_gmfx_threads(value, code)
        assert out.returncode == 0, out.stderr
        runs[name] = read_bytes_map(run / "split_0", ["probs.csv", "model.ckpt"])
    assert runs["unset"] == runs["one"]
