"""Self-test of the benchmark.  Run from the repository root:

  python3 benchmarks/selftest.py

1. A quick pass of each workload at the smallest sizes, untraced and traced:
   the result line has exactly the keys correct, attempted, failed and
   metrics; every metric named in BENCHMARK.json is emitted with its unit;
   and every operation passes.
2. The gate accepts the recorded reference, accepts a perturbation within
   tolerance, and rejects a corrupted numeric cell, a corrupted non-numeric
   cell, a missing file and a broken invariant.  The average Hamiltonian's
   Hermiticity check passes a round-off asymmetry and rejects a large one.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_emitted():
    for w in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run_benchmark("--workload", w, "--quick", "--seconds", "1",
                              "--trace", str(trace))
            check(p.returncode == 0, f"{w} trace={trace} exits 0 "
                  f"({p.stderr.strip()[-300:]})")
            res = json.loads(p.stdout.splitlines()[-1])
            check(set(res) == RESULT_KEYS, f"{w} trace={trace} result keys")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, f"{w} trace={trace} all ops pass")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w} trace={trace} emits every {key} metric "
                  "with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in res["metrics"].values()),
                  f"{w} trace={trace} values are numbers")


def _first_numeric_leaf(obj, path=()):
    """Path to the first number with a magnitude above 1e-3 in a document."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        ok = (isinstance(obj, float) and abs(obj) > 1e-3)
        return path if ok else None
    for k, v in items:
        found = _first_numeric_leaf(v, path + (k,))
        if found is not None:
            return found
    return None


def _set(obj, path, fn):
    for k in path[:-1]:
        obj = obj[k]
    obj[path[-1]] = fn(obj[path[-1]])


def check_gate_rejects_corruption():
    op = workloads.op_variant("cli_sweep", "simulate_3x1_decoupling", 0)
    ref = run.load_reference("cli_sweep")[op["key"]]
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = work / "op"
        child = run.run_child(run.op_argv(op, out))
        check(child.code == 0, "reference operation runs")
        outputs = gate.read_outputs(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check(gate.compare(ref, outputs) < gate.RTOL, "gate accepts the reference")

    def rejected(corrupt, what):
        bad = copy.deepcopy(ref)
        corrupt(bad)
        try:
            gate.compare(bad, outputs)
        except gate.GateError:
            check(True, f"gate rejects {what}")
        else:
            check(False, f"gate rejects {what}")

    summary = "simulate_summary.json"
    path = _first_numeric_leaf(ref[summary])
    check(path is not None, "reference has a numeric cell")

    within = copy.deepcopy(ref)
    _set(within[summary], path, lambda x: x * (1 + 1e-3 * gate.RTOL))
    check(gate.compare(within, outputs) < gate.RTOL,
          "gate accepts a change within tolerance (not byte identity)")
    rejected(lambda r: _set(r[summary], path,
                            lambda x: x * (1 + 100 * gate.RTOL)),
             "a corrupted numeric cell")
    rejected(lambda r: _set(r[summary], ("schedule",),
                            lambda x: x + "-corrupt"),
             "a corrupted non-numeric cell")
    rejected(lambda r: r.pop(summary), "a missing file")
    traj = "simulate_trajectory.csv"
    rejected(lambda r: r[traj]["rows"][-1].__setitem__(1, 0.25),
             "a corrupted trajectory row")

    broken = copy.deepcopy(outputs)
    broken[summary]["identity_fidelity"] = 1.5
    try:
        gate.check_invariants(op, broken)
    except gate.GateError:
        check(True, "invariants reject a fidelity above 1")
    else:
        check(False, "invariants reject a fidelity above 1")


def check_hermitian_tolerance():
    op = workloads.op_variant("finite_pulse", "aht_interleaved_4x2", 0)
    ref = run.load_reference("finite_pulse")[op["key"]]
    norm = ref["result.json"]["frobenius_rad_per_s"]
    eps = sys.float_info.epsilon
    for dev, want, what in ((100 * eps * norm, True, "a round-off asymmetry"),
                            (1e-6 * norm, False, "a large asymmetry")):
        out = copy.deepcopy(ref)
        out["result.json"]["hermitian_dev"] = dev
        try:
            gate.check_invariants(op, out)
            passed = True
        except gate.GateError:
            passed = False
        verb = "passes" if want else "rejects"
        check(passed == want,
              f"Hermiticity check {verb} {what} ({dev:.3g} rad/s)")


def check_bare_directory_fails():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("--workload", workloads.WORKLOADS[0],
                             "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "without the source tree run.py fails and prints no result")


if __name__ == "__main__":
    check_gate_rejects_corruption()
    check_hermitian_tolerance()
    check_bare_directory_fails()
    check_metrics_emitted()
    print("selftest passed")
