import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# Runs a script's top level (its imports; main sits under the __main__
# check) and prints OPENBLAS_NUM_THREADS as it stood when NumPy was first
# imported.
PROBE = """
import os, runpy, sys

class Probe:
    seen = "numpy never imported"

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen == "numpy never imported":
            Probe.seen = os.environ.get("OPENBLAS_NUM_THREADS")
        return None

sys.meta_path.insert(0, Probe())
runpy.run_path(sys.argv[1], run_name="imported")
print(Probe.seen)
"""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["GMFX_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_applies_gmfx_threads_before_numpy_loads(script):
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(script)],
        env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "1"


# each experiment script at its smallest run, and the JSON files it writes;
# level 1.0 of the homophily sweep takes the identical-set generator
EXPERIMENTS = {
    "run_ablation.py": (["--regions", "4", "--seeds", "0"], ["ablation.json"]),
    "run_homophily_sweep.py": (
        ["--n", "200", "--levels", "0.6", "1.0", "--seeds", "0"],
        ["homophily_0.6.json", "homophily_1.0.json"],
    ),
    "run_feature_quality_sweep.py": (
        ["--n", "200", "--levels", "0.5", "--seeds", "0"], ["feat_quality_0.5.json"]
    ),
}


@pytest.mark.parametrize("script", sorted(EXPERIMENTS))
def test_experiment_script_runs_end_to_end(script, tmp_path):
    argv, written = EXPERIMENTS[script]
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv, "--out", str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    for name in written:
        record = json.loads((tmp_path / name).read_text())
        aps = {key: value["mean"] for key, value in record.items() if isinstance(value, dict)}
        assert aps, name
        for key, ap in aps.items():
            assert math.isfinite(ap) and 0.0 <= ap <= 1.0, (name, key, ap)
