"""Self-test of the benchmark on a tiny configuration; finishes in seconds.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every metric of BENCHMARK.json is printed with its unit, that
a corrupted probs.csv and a non-zero exit each count as a failed run, and
that the trace counters repeat exactly from run to run. Exits non-zero on the
first check that does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "generate": ["--set", "synth.n=60", "--set", "synth.avg_degree=6", "--set", "synth.C=5",
                 "--set", "synth.mean_labels=1.5", "--set", "synth.max_labels=3"],
    "featureless": False,
    "train": ["--variant", "linear", "--set", "model.max_epochs=5", "--set", "model.pe_epochs=1",
              "--set", "model.walks_per_node=2", "--set", "model.pe_dim=8", "--set", "model.hidden_dim=16"],
}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench_result(design: dict, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)], design)
    require(rc == 0, f"run.py --trace {trace} exited with {rc}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(bench: dict, design: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench_result(design, trace)
        require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
        require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"tiny run not clean: {result['attempted']} attempted, {result['failed']} failed")
        expected = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        require(got == expected, f"--trace {trace} metrics {got} differ from BENCHMARK.json {expected}")
        for name, m in result["metrics"].items():
            require(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r} is not a number")
    print("ok: every metric is printed with its unit")


def check_counters_repeat(bench: dict, design: dict) -> None:
    first, second = (bench_result(design, 1)["metrics"] for _ in range(2))
    for name in run.COUNTERS:
        require(first[name]["value"] == second[name]["value"],
                f"counter {name} moved: {first[name]['value']} then {second[name]['value']}")
    require(first["model.forward_calls"]["value"] == first["model.epochs"]["value"] + 1,
            "forward should run once per epoch plus once in predict")
    print("ok: counters repeat exactly")


def check_failures(design: dict, work: Path) -> None:
    gnn = run.import_program()
    data_dir, _, _ = run.setup(work, design["workloads"]["tiny"], 3, 1)
    checker = run.Checker(gnn, data_dir, 3, design["hashed_artifacts"])
    session = run.Session(work, data_dir, 3, TINY["train"], checker)
    good = session.train(traced=False)
    require(not good["problems"], f"clean run reported {good['problems']}")

    # re-run to keep an output directory, then corrupt one probability
    out = work / "corrupt"
    child = run.run_child(run.gmfx(*session.base_args, "--out", out), work / "corrupt.log")
    probs = out / "split_0" / "probs.csv"
    lines = probs.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "1.5"
    lines[1] = ",".join(cells)
    probs.write_text("\n".join(lines) + "\n")
    corrupt = session.record("untraced", child, out)
    require(corrupt["problems"], "a probs.csv value outside (0, 1) was not caught")

    session.base_args[session.base_args.index("--data") + 1] = work / "no_such_dataset"
    bad = session.train(traced=False)
    require(bad["rc"] != 0 and bad["problems"], "a non-zero exit was not counted")
    require(session.failed == 2 and session.attempted == 3,
            f"expected 2 of 3 runs failed, got {session.failed} of {session.attempted}")
    print("ok: a corrupted probs.csv and a non-zero exit count as failures")


def main() -> int:
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    design = run.load_json(run.BENCH_DIR / "design.json")
    design = {**design, "generate_reps": 2, "workloads": {"tiny": TINY}}
    check_metrics(bench, design)
    check_counters_repeat(bench, design)
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_failures(design, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
