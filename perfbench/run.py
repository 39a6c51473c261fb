"""Benchmark of whole `gmfx train` runs, plus a traced run for per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds its workload's dataset with `gmfx generate` several times (the
median wall time is `setup_s`, and the copies must be byte-identical), then
runs `gmfx train` children one after another for about S seconds, each with
GMFX_THREADS=1 and one split seeded by N. Wall time, CPU time and peak RSS
come from each child's own rusage (os.wait4).

--trace 0 reports the end-to-end metrics of BENCHMARK.json from those
untraced children. --trace 1 alternates untraced children with children run
under perfbench/traced.py, which records spans around the package's public
functions, and reports the per-layer metrics of BENCHMARK.json; the gap
between the two kinds of child is the tracing overhead.

Every train run is checked: exit status, probs.csv is n x C with values in
(0, 1), evaluation of probs.csv reproduces report.json's test AP, and the
sha256 of the hashed artifacts agrees with the first run of the same seed
(traced runs included). A run failing any check counts in `failed`.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A fuller report (environment, every sample, hashes,
counters, fail_rate) is printed above it and written to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 60
THREADS = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
COUNTERS = (
    "model.forward_calls",
    "model.compute_representations_calls",
    "propagation.propagate_features_calls",
    "graph.matmul_dense_calls",
    "graph.matmul_dense_tmp_bytes",
    "positional.pairs",
    "model.epochs",
    "evaluation.average_precision_calls",
    "io.artifact_bytes",
)
LAYERS = ("cli", "io", "graph", "propagation", "positional", "model", "evaluation")
WRITE_SPANS = ("io.write_probability_csv", "model.save_model", "evaluation.export_dynamics", "cli.dump_json")


class BenchError(RuntimeError):
    """The run cannot produce a result (missing program, failed set-up)."""


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    """The environment of every child: the checkout's sources, GMFX_THREADS=1.

    The BLAS variables are dropped so that the program itself applies
    GMFX_THREADS, as it does for a user.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env["GMFX_THREADS"] = THREADS
    return env


def run_child(argv: list, log_path: Path) -> Child:
    """Run one child to completion; time it from spawn to exit."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def gmfx(*args) -> list:
    return [sys.executable, "-m", "gnn_multifix.cli", *args]


def traced_gmfx(spans_path: Path, run_id: str, *args) -> list:
    return [sys.executable, BENCH_DIR / "traced.py", spans_path, run_id, *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def import_program():
    """Import the checkout's package for the output checks, with one BLAS thread."""
    if not (SRC / "gnn_multifix" / "cli.py").is_file():
        raise BenchError(f"no gnn_multifix sources under {SRC}; run from the root of a checkout")
    os.environ["GMFX_THREADS"] = THREADS
    sys.path.insert(0, str(SRC))
    import gnn_multifix

    if Path(gnn_multifix.__file__).resolve().parent != (SRC / "gnn_multifix").resolve():
        raise BenchError(f"imported gnn_multifix from {gnn_multifix.__file__}, not from {SRC}")
    return gnn_multifix


def summarize(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None, "high": None}
    # the value at 1-based rank r has n - r samples above it; keep it only
    # when it is at or above the median
    if n >= 20:
        rank = n - 10
        out["high"] = {"percentile": round(100.0 * rank / n, 1), "value": ordered[rank - 1]}
    return out


class Checker:
    """Checks one `gmfx train` output directory against the dataset it used."""

    def __init__(self, gnn, data_dir: Path, seed: int, hashed: list):
        features = data_dir / "features.csv"
        dataset = gnn.load_dataset(
            data_dir / "edges.tsv", data_dir / "labels.tsv", features if features.exists() else None
        )
        # gmfx train --n-splits 1 --seed N draws the default 60/20/20 split with seed N
        self.dataset = gnn.make_splits(dataset, 0.6, 0.2, seed)
        self.gnn = gnn
        self.hashed = hashed

    def check(self, out_dir: Path):
        """Returns (problems, hashes, facts)."""
        import numpy as np

        problems, facts = [], {}
        try:
            # read_probability_csv rejects a file whose node ids are not 0..n-1
            probs = self.gnn.read_probability_csv(out_dir / "split_0" / "probs.csv")
            if probs.shape != self.dataset.labels.shape:
                problems.append(f"probs.csv is {probs.shape}, expected {self.dataset.labels.shape}")
            elif not np.all((probs > 0.0) & (probs < 1.0)):
                problems.append("probs.csv has values outside (0, 1)")
            report = json.loads((out_dir / "split_0" / "report.json").read_text())
            redone = self.gnn.evaluate(probs, self.dataset, "test").to_dict()
            if redone != report["test"]:
                problems.append(f"evaluate(probs.csv) gives {redone}, report.json has {report['test']}")
            summary = json.loads((out_dir / "summary.json").read_text())
            facts["test_ap_samples"] = summary["test"]["ap_samples"]["mean"]
            if facts["test_ap_samples"] != report["test"]["ap_samples"]:
                problems.append("summary.json and report.json disagree on test samples-AP")
            val_aps = [
                json.loads(line)["val_ap"]
                for line in (out_dir / "split_0" / "metrics.jsonl").read_text().splitlines()
            ]
            facts["epochs"] = len(val_aps)
            facts["best_epoch"] = val_aps.index(max(val_aps)) + 1
            hashes = {name: sha256(out_dir / name) for name in self.hashed}
        except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
            problems.append(f"{type(err).__name__}: {err}")
            hashes = {}
        return problems, hashes, facts


class Session:
    """The train runs of one benchmark run, their checks and failure count."""

    def __init__(self, work: Path, data_dir: Path, seed: int, train_args: list, checker: Checker):
        self.work = work
        self.seed = seed
        self.base_args = ["train", "--data", data_dir, "--seed", seed, "--n-splits", "1", *train_args]
        self.checker = checker
        self.runs: list[dict] = []
        self.reference: dict | None = None

    def train(self, traced: bool) -> dict:
        index = len(self.runs)
        kind = "traced" if traced else "untraced"
        out = self.work / f"{kind}_{index}"
        args = [*self.base_args, "--out", out]
        spans_path = self.work / f"spans_{index}.json"
        argv = traced_gmfx(spans_path, f"train-{self.seed}-{index}", *args) if traced else gmfx(*args)
        child = run_child(argv, self.work / f"{kind}_{index}.log")
        record = self.record(kind, child, out)
        if traced and not record["problems"]:
            record["spans"] = json.loads(spans_path.read_text())["spans"]
            record["artifact_bytes"] = artifact_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def record(self, kind: str, child: Child, out_dir: Path) -> dict:
        problems, hashes, facts = [f"exit status {child.rc}"], {}, {}
        if child.rc == 0:
            problems, hashes, facts = self.checker.check(out_dir)
        if not problems:
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                problems.append("artifact hashes differ from the first run of this seed")
        record = {"kind": kind, "rc": child.rc, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                  "peak_rss_mb": child.peak_rss_mb, "problems": problems, "hashes": hashes, **facts}
        self.runs.append(record)
        return record

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r["problems"])


def artifact_bytes(out_dir: Path) -> int:
    skip = {"run.log", "effective_config.json"}
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file() and p.name not in skip)


def dataset_digests(data_dir: Path) -> dict:
    return {
        p.name: sha256(p)
        for p in sorted(data_dir.iterdir())
        if p.name not in ("run.log", "effective_config.json")
    }


def make_dataset(work: Path, name: str, argv_prefix: list, spec: dict, seed: int) -> tuple[Path, Child]:
    out = work / name
    child = run_child([*argv_prefix, "generate", "--out", out, "--seed", seed, *spec["generate"]],
                      work / f"{name}.log")
    if child.rc != 0:
        raise BenchError(f"gmfx generate exited with {child.rc}; see {work / (name + '.log')}")
    if spec["featureless"]:
        (out / "features.csv").unlink()
    return out, child


def setup(work: Path, spec: dict, seed: int, reps: int) -> tuple[Path, list, dict]:
    """Generate the dataset reps times; all copies must be byte-identical."""
    walls, digests = [], None
    for rep in range(reps):
        data_dir, child = make_dataset(work, f"data_{rep}", gmfx(), spec, seed)
        walls.append(child.wall_s)
        if digests is None:
            digests = dataset_digests(data_dir)
        elif dataset_digests(data_dir) != digests:
            raise BenchError("gmfx generate wrote different bytes for the same seed")
    return work / "data_0", walls, digests


def span_totals(spans: list) -> defaultdict:
    """Summed duration of the spans of each name."""
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"]
    return totals


def span_metrics(spans: list) -> dict:
    """Per-layer numbers of one traced `gmfx train` run."""
    by_name = defaultdict(list)
    covered = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals = span_totals(spans)

    def calls(name):
        return len(by_name[name])

    self_time = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + (s["end"] - s["start"]) - covered[s["id"]]

    pair_spans = {s["parent"]: s["pairs"] for s in by_name["positional.corpus_pairs"]}
    trained_pairs = sum(s["epochs"] * pair_spans.get(s["id"], 0) for s in by_name["positional.train_skipgram"])
    skipgram_s = totals["positional.train_skipgram"]
    out = {
        "positional.train_skipgram_s": skipgram_s,
        "positional.generate_walks_s": totals["positional.generate_walks"],
        "positional.corpus_pairs_s": totals["positional.corpus_pairs"],
        "positional.pairs": sum(pair_spans.values()),
        "positional.pairs_per_s": trained_pairs / skipgram_s if skipgram_s > 0 else 0.0,
        "model.loss_and_grads_s": totals["model.loss_and_grads"],
        "model.forward_s": totals["model.forward"],
        "model.forward_calls": calls("model.forward"),
        "evaluation.average_precision_s": totals["evaluation.average_precision"],
        "evaluation.average_precision_calls": calls("evaluation.average_precision"),
        "propagation.propagate_features_s": totals["propagation.propagate_features"],
        "propagation.propagate_features_calls": calls("propagation.propagate_features"),
        "graph.matmul_dense_s": totals["graph.matmul_dense"],
        "graph.matmul_dense_calls": calls("graph.matmul_dense"),
        "graph.matmul_dense_tmp_bytes": sum(s["tmp_bytes"] for s in by_name["graph.matmul_dense"]),
        "model.compute_representations_calls": calls("model.compute_representations"),
        "model.predict_s": totals["model.predict"],
        "propagation.propagate_labels_s": totals["propagation.propagate_labels"],
        "graph.sym_norm_adjacency_s": totals["graph.sym_norm_adjacency"],
        "io.load_dataset_s": totals["io.load_dataset"],
        "io.write_artifacts_s": sum(totals[name] for name in WRITE_SPANS),
        "cli.cmd_train_s": totals["cli.cmd_train"],
    }
    out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    return out


def environment(gnn, seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "GMFX_THREADS": THREADS,
        "commit": git_commit(),
        "package": gnn.__file__,
        "workload_seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(session: Session, seconds: float, traced: bool) -> None:
    """Run train children (or untraced/traced pairs) for about `seconds`.

    A new round starts only if the longest round so far still fits.
    """
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        session.train(traced=False)
        if traced:
            session.train(traced=True)
        longest = max(longest, time.perf_counter() - round_start)
        if time.perf_counter() - start + longest > seconds:
            return


def run(gnn, workload: str, seed: int, seconds: float, trace: bool, bench: dict, design: dict, work: Path) -> dict:
    spec = design["workloads"][workload]
    data_dir, setup_walls, digests = setup(work, spec, seed, design["generate_reps"])
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": spec,
        "environment": environment(gnn, seed),
        "dataset_sha256": digests,
        "setup_s": setup_walls,
    }
    layer_values = {}
    if trace:
        spans_path = work / "spans_generate.json"
        traced_data, child = make_dataset(
            work, "data_traced", traced_gmfx(spans_path, f"generate-{seed}"), spec, seed
        )
        if dataset_digests(traced_data) != digests:
            raise BenchError("traced gmfx generate wrote different bytes from the untraced one")
        gen_total = span_totals(json.loads(spans_path.read_text())["spans"])
        layer_values["synthgen.generate_dataset_s"] = gen_total["synthgen.generate_dataset"]
        layer_values["io.save_dataset_s"] = gen_total["io.save_dataset"]

    session = Session(work, data_dir, seed, spec["train"], Checker(gnn, data_dir, seed, design["hashed_artifacts"]))
    measure(session, seconds, trace)
    runs = session.runs
    if trace:
        traced_runs = [r for r in runs if r["kind"] == "traced" and not r["problems"]]
        per_run = []
        for r in traced_runs:
            values = span_metrics(r.pop("spans"))
            values["model.epochs"] = r["epochs"]
            values["model.best_epoch_ratio"] = r["best_epoch"] / r["epochs"]
            values["io.artifact_bytes"] = r["artifact_bytes"]
            per_run.append(values)
        for r, values in zip(traced_runs[1:], per_run[1:]):
            moved = [c for c in COUNTERS if values[c] != per_run[0][c]]
            if moved:
                r["problems"].append(f"counters differ from the first traced run: {moved}")
        if per_run:
            for name in per_run[0]:
                # counters repeat exactly (checked above); times take the median
                layer_values[name] = per_run[0][name] if name in COUNTERS else statistics.median(
                    v[name] for v in per_run
                )
        report["counters"] = {c: [v[c] for v in per_run] for c in COUNTERS}

    test_ap = next((r["test_ap_samples"] for r in runs if not r["problems"]), None)
    if test_ap is None:
        raise BenchError("no train run passed its output checks; see the logs under " + str(work))
    untraced = [r for r in runs if r["kind"] == "untraced"]
    samples = {k: [r[k] for r in untraced] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setup_walls
    report["stats"] = {k: summarize(v) for k, v in samples.items()}
    report["attempted"], report["failed"] = session.attempted, session.failed
    e2e = {
        "wall_s": report["stats"]["wall_s"]["median"],
        "cpu_s": report["stats"]["cpu_s"]["median"],
        "peak_rss_mb": report["stats"]["peak_rss_mb"]["median"],
        "test_ap_samples": test_ap,
        "setup_s": report["stats"]["setup_s"]["median"],
    }
    report["end_to_end"] = {**e2e, "fail_rate": session.failed / session.attempted}
    if trace and per_run:
        traced_wall = statistics.median(r["wall_s"] for r in runs if r["kind"] == "traced")
        layer_values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        report["per_layer"] = layer_values
    report["runs"] = runs
    report["sha256"] = session.reference or {}

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    values = layer_values if trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    report["result"] = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"GMFX_THREADS={env['GMFX_THREADS']}  nproc {env['nproc']}  {env['cpu']}")
    print(f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  commit {env['commit']}")
    for name, stats in report["stats"].items():
        high = stats["high"]
        tail = (f"p{high['percentile']} {high['value']:.4f}" if high
                else "no percentile with >= 10 samples above the median")
        print(f"  {name:<14} median {stats['median']:.4f}  n={stats['n']}  {tail}")
    e2e = report["end_to_end"]
    print(f"  {'test_ap_samples':<14} {e2e['test_ap_samples']:.6f}")
    print(f"  {'fail_rate':<14} {e2e['fail_rate']:.4f} ({report['failed']}/{report['attempted']})")
    for name, digest in report["sha256"].items():
        print(f"  sha256 {digest[:16]}  {name}")
    for r in report["runs"]:
        if r["problems"]:
            print(f"  FAILED {r['kind']} run: {'; '.join(r['problems'])}")
    if report["trace"]:
        for name, value in report["per_layer"].items():
            print(f"  {name:<40} {value}")


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None, design: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        design = design or load_json(BENCH_DIR / "design.json")
        if args.workload not in design["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        gnn = import_program()
        WORK.mkdir(exist_ok=True)
        work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        work.mkdir()
        report = run(gnn, args.workload, args.seed, args.seconds, bool(args.trace), bench, design, work)
        # kept on failure, with the children's logs
        shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
