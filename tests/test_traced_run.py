"""Smoke test of the benchmark's trace mode: perfbench/traced.py wraps the
package's functions by their module attribute names, so a rename in the
library must fail here rather than only in a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from gnn_multifix.cli import main

ROOT = Path(__file__).resolve().parents[1]
SMALL_DATASET = ["--seed", "3", "--set", "synth.n=80", "--set", "synth.avg_degree=6"]


def traced_span_names(tmp_path, gmfx_args):
    """Run one traced `gmfx` command; assert exit 0 and return its span names."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, GMFX_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "smoke",
         *gmfx_args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert all(span["run"] == "smoke" and span["end"] >= span["start"] for span in spans)
    return {span["name"] for span in spans}


def test_traced_train_records_model_and_skipgram_spans(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), *SMALL_DATASET]) == 0
    names = traced_span_names(tmp_path, [
        "train", "--data", str(data), "--out", str(tmp_path / "run"), "--n-splits", "1",
        "--set", "model.hidden_dim=8", "--set", "model.pe_dim=8",
        "--set", "model.max_epochs=5", "--set", "model.walks_per_node=2",
        "--set", "model.pe_epochs=1",
    ])
    assert {"model.train", "positional.train_skipgram"} <= names


def test_traced_generate_records_generator_and_save_spans(tmp_path):
    names = traced_span_names(tmp_path, ["generate", "--out", str(tmp_path / "data"), *SMALL_DATASET])
    assert {"synthgen.generate_dataset", "io.save_dataset"} <= names
