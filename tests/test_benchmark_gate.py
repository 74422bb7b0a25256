"""The benchmark's correctness gate, run in-process on every variant.

Every variant of every workload (benchmarks/workloads.all_variants) runs as
the benchmark runs it: a CLI operation through cli.main with the arguments
benchmarks/run.py passes, a library operation through benchmarks/libops.run.
gate.check then compares the outputs with benchmarks/reference/ and checks
the operation's invariants, so an output the benchmark would call incorrect
fails here.  The returned largest relative deviation is not asserted: cells
whose true value is 0 hold round-off, and their relative deviation is
meaningless.  Files under benchmarks/ are read, never written.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from chainqc import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))
import gate  # noqa: E402
import libops  # noqa: E402
import workloads  # noqa: E402


@functools.cache
def references(workload):
    path = BENCH / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["ops"]


@pytest.mark.parametrize("workload, op", [
    pytest.param(w, op, id=f"{w}/{op['key']}")
    for w in workloads.WORKLOADS for op in workloads.all_variants(w)])
def test_variant_passes_gate(tmp_path, workload, op):
    out = tmp_path / "out"
    if op["kind"] == "cli":
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(op["config"]), encoding="utf-8")
        assert cli.main([op["command"], "--config", str(cfg),
                         "--out", str(out), "--format", op["format"],
                         "--threads", "1", "--no-meta", *op["extra"]]) == 0
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(op), encoding="utf-8")
        libops.run(str(spec), str(out))
    gate.check(op, out, references(workload))
