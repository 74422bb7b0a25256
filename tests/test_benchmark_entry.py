"""The benchmark's traced entry point, run as the benchmark runs it.

benchmarks/traced.py patches or calls chainqc names by attribute, so a
source change that removes or re-signs one of them fails here, in a child
process, rather than only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "traced.py"), str(spans),
         *args], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())["spans"]


def test_traced_cli_simulate(tmp_path):
    traced(tmp_path, "cli", "simulate", "--no-meta",
           "--out", str(tmp_path / "out"))


def test_traced_lib_task(tmp_path):
    spec = {"task": "density_decoupling",
            "params": {"n_planes": 2, "chains": [[0.0, 0.0]], "grad": 1.4e6,
                       "slot": 6e-6, "epsilon": 1e-2}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    traced(tmp_path, "lib", str(path), str(tmp_path / "out"))
