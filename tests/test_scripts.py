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


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_applies_gmfx_threads_before_numpy_loads(script):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["GMFX_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(script)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "1"
