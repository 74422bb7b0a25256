"""chainqc benchmark: runs one workload and prints its metrics.

  python3 benchmarks/run.py --workload {cli_sweep,register,finite_pulse,all}
                            [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (it needs src/chainqc; nothing has to
be installed).  Each operation is a fresh child interpreter, run one at a
time (a closed loop with one client).  Passes over the workload's operations
repeat until --seconds is used up; at least MIN_PASSES always run.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, op_p50_s, cpu_s
and peak_rss_mb.  Their times are normalised to a nominal host speed: a
fixed calibration child (see CALIBRATION) runs before every operation and
after the last one, and each timed child is scaled by the calibration's
reference time over the mean of the two calibrations around it.  On a shared
host whose speed swings by tens of per cent for seconds to minutes, this
keeps a slow phase from reading as a slower program; the raw times are in
the report.  --trace 1 runs untraced and traced passes in turn and prints
the per-layer metrics (see layers.py, raw times), including
trace.overhead_s.  The last line of standard output is one JSON object:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
The line before it is a JSON report with the environment, the raw and
calibration samples, the host-drift probes (a fixed pure-Python loop and
eigh, before and after the workload; not gated), the correctness
diagnostics and fail_frac; the full report is also written to
.bench_results/.  --workload all runs every workload (untraced) and prints
a table of all end-to-end metrics.

--record-reference re-records reference/<workload>.json from the current
source.  The committed references were recorded at the commit that added
the benchmark; do not re-record them to make a failing gate pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread and --threads 1: the same on every commit, and within nproc.
# All children also run on one CPU (main pins this process; they inherit
# it), the calibration children included, so a calibration measures the
# CPU its operation ran on.
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))
BLAS_THREADS = 1
CLI_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
MIN_PASSES = 3
STARTUP_PROBES = 5
# Calibration child per workload: fixed work outside chainqc that reacts to
# the host's speed the way the workload's operations do.  cli_sweep
# operations are mostly interpreter start-up and imports, so its calibration
# is a numpy import.  register and finite_pulse operations are mostly dense
# linear algebra at dimension 256 (8 spins), which slows less than imports
# in a slow phase of the host, so theirs adds a few 256x256 eigh.  The
# reference time is the calibration's typical wall time on the host the
# benchmark was written on (x86-64, 2 vCPUs), so normalised times read
# close to seconds there.
_CAL_IMPORT = "import numpy"
_CAL_DENSE = ("import numpy as np; h = np.arange(65536.0).reshape(256, 256) % 7;"
              " h = h + h.T + 0j; [np.linalg.eigh(h) for _ in range(4)]")
CALIBRATION = {"cli_sweep": (_CAL_IMPORT, 0.150),
               "register": (_CAL_DENSE, 0.220),
               "finite_pulse": (_CAL_DENSE, 0.220)}
IMPORTTIME_PROBES = 3
OP_TIMEOUT_S = 120.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
SETUP_CODE = "import chainqc.cli; chainqc.cli.config.load_config(None)"
IMPORT_CODE = ("import time; t = time.perf_counter(); import chainqc.cli; "
               "print(time.perf_counter() - t)")


class Child:
    """Result of one finished child process (text: the captured stream)."""

    def __init__(self, code, wall, cpu, maxrss_mb, text):
        self.code, self.wall, self.cpu = code, wall, cpu
        self.maxrss_mb, self.text = maxrss_mb, text


def child_env() -> dict:
    env = dict(os.environ)
    # Children import chainqc the way an installed copy does, from cached
    # bytecode; the warm-up run writes it (under src/, git-ignored).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, log_path=None, capture=None):
    """Run one child to completion; wall, CPU and peak RSS come from wait4.

    capture: None, "stdout" or "stderr", the stream returned as text.
    Otherwise stderr goes to log_path (or nowhere) and stdout nowhere.
    """
    err_fh = open(log_path, "wb") if log_path else None
    out = subprocess.PIPE if capture == "stdout" else subprocess.DEVNULL
    err = (subprocess.PIPE if capture == "stderr"
           else err_fh or subprocess.DEVNULL)
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        stream = getattr(proc, capture) if capture else None
        try:
            data = stream.read() if stream else b""
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            # Interrupted (e.g. SIGTERM): never leave the child running.
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            if stream:
                stream.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if err_fh:
            err_fh.close()
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0, data.decode("utf-8", "replace"))


def op_argv(op, out_dir: Path, spans: Path | None = None):
    """Command line of one operation, untraced or traced."""
    if op["kind"] == "cli":
        cfg = out_dir.parent / (out_dir.name + ".config.json")
        cfg.write_text(json.dumps(op["config"]), encoding="utf-8")
        args = [op["command"], "--config", str(cfg), "--out", str(out_dir),
                "--format", op["format"], "--threads", str(CLI_THREADS),
                "--no-meta", *op["extra"]]
        if spans is None:
            return [PY, "-m", "chainqc.cli", *args]
        return [PY, str(HERE / "traced.py"), str(spans), "cli", *args]
    spec = out_dir.parent / (out_dir.name + ".spec.json")
    spec.write_text(json.dumps(op), encoding="utf-8")
    if spans is None:
        return [PY, str(HERE / "libops.py"), str(spec), str(out_dir)]
    return [PY, str(HERE / "traced.py"), str(spans), "lib", str(spec),
            str(out_dir)]


class Run:
    """One benchmark invocation: its passes, gate results and report."""

    def __init__(self, workload, seed, seconds, quick, work: Path,
                 probe_setup: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.quick, self.work, self.probe_setup = quick, work, probe_setup
        self.references = None if quick else load_reference(workload)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.max_rel_dev = 0.0
        self.n_pass = 0
        self.setup = []  # (raw, normalised) set-up probe times
        self.cal = []  # calibration child wall times

    def ops(self):
        if self.quick:
            return workloads.quick_ops(self.workload)
        # Called by one_pass after it counts the pass.
        return workloads.pass_ops(self.workload, self.seed, self.n_pass - 1)

    def one_pass(self, traced: bool) -> dict:
        """Run every operation once; gate the outputs after the timed pass.

        Untraced passes (probe_setup) also run a calibration child before
        every operation and after the last one, and two set-up probes, after
        the middle and the last operation, so set-up samples spread over the
        run.  Each timed child gets the speed factor reference time / (mean
        of the calibrations before and after it).
        """
        self.n_pass += 1
        pdir = self.work / f"pass{self.n_pass}"
        pdir.mkdir(parents=True)
        refs = self.references
        ops = self.ops()
        argvs, dirs, spans = [], [], []
        for i, op in enumerate(ops):
            d = pdir / f"op{i}"
            sp = pdir / f"op{i}.spans.json" if traced else None
            argvs.append(op_argv(op, d, sp))
            dirs.append(d)
            spans.append(sp)
        probe_after = ({len(ops) // 2, len(ops) - 1} if self.probe_setup
                       else set())
        cal_code, cal_ref = CALIBRATION[self.workload]
        children, cals, setup_at = [], [], []
        for i, argv in enumerate(argvs):
            if self.probe_setup:
                cals += probe_times(cal_code, 1)
            children.append(run_child(argv, log_path=pdir / f"op{i}.stderr"))
            if i in probe_after:
                setup_at.append((probe_times(SETUP_CODE, 1)[0], i))
        if self.probe_setup:
            cals += probe_times(cal_code, 1)
            # Calibrations i and i+1 enclose operation i and the probes
            # taken after it.
            speed = [2 * cal_ref / (cals[i] + cals[i + 1])
                     for i in range(len(children))]
            self.cal += cals
            self.setup += [(t, t * speed[i]) for t, i in setup_at]
        else:
            speed = [1.0] * len(children)
        bytes_written = 0
        for i, (op, child) in enumerate(zip(ops, children)):
            self.attempted += 1
            try:
                if child.code != 0:
                    log = (pdir / f"op{i}.stderr").read_text(errors="replace")
                    raise gate.GateError(
                        f"exit code {child.code}: {log.strip()[-300:]}")
                dev = gate.check(op, dirs[i], refs)
                if dev is not None:
                    self.max_rel_dev = max(self.max_rel_dev, dev)
            except gate.GateError as exc:
                self.failed += 1
                self.failures.append(f"{op['key']}: {exc}")
            if op["kind"] == "cli" and dirs[i].is_dir():
                bytes_written += sum(f.stat().st_size
                                     for f in dirs[i].iterdir())
        # The pass wall time is that of its operations, without the probes.
        return {"wall": sum(c.wall for c in children),
                "cpu": sum(c.cpu for c in children),
                "op_walls": [c.wall for c in children],
                "op_walls_norm": [c.wall * f for c, f in zip(children, speed)],
                "op_cpus_norm": [c.cpu * f for c, f in zip(children, speed)],
                "op_keys": [op["key"] for op in ops],
                "rss": max(c.maxrss_mb for c in children),
                "bytes_written": bytes_written,
                "spans": [p if p is not None and p.exists() else None
                          for p in spans]}

    def passes(self, kinds, min_rounds):
        """Cycle through pass kinds until --seconds is used up.

        After min_rounds, another round starts only if its expected end
        overshoots the budget by less than half a round.
        """
        out = {k: [] for k in kinds}
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for k in kinds:
                out[k].append(self.one_pass(traced=k))
            elapsed = time.perf_counter() - t0
            est = time.perf_counter() - r0
            if (len(out[kinds[0]]) >= min_rounds
                    and elapsed + 0.5 * est >= self.seconds):
                return out


def load_spans(traced_pass) -> list:
    """(wall time, OpSpans) of each operation of a pass that wrote spans."""
    return [(w, layers.OpSpans(json.loads(p.read_text(encoding="utf-8"))))
            for w, p in zip(traced_pass["op_walls"], traced_pass["spans"])
            if p is not None]


def load_reference(workload):
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["ops"]


def probe_times(code, n):
    walls = []
    for _ in range(n):
        c = run_child([PY, "-c", code])
        if c.code != 0:
            raise RuntimeError(f"probe failed ({c.code}): {code}")
        walls.append(c.wall)
    return walls


def startup_probes() -> dict:
    interp = statistics.median(probe_times("pass", STARTUP_PROBES))
    imports = []
    for _ in range(STARTUP_PROBES):
        c = run_child([PY, "-c", IMPORT_CODE], capture="stdout")
        if c.code != 0:
            raise RuntimeError("import chainqc.cli failed")
        imports.append(float(c.text.strip()))
    breakdown = []
    for _ in range(IMPORTTIME_PROBES):
        c = run_child([PY, "-X", "importtime", "-c", "import chainqc.cli"],
                      capture="stderr")
        breakdown.append(layers.parse_importtime(c.text))
    out = {"cli.interp_start_s": interp,
           "cli.import_s": statistics.median(imports)}
    for k in breakdown[0]:
        out[k] = statistics.median(b[k] for b in breakdown)
    return out


def drift_probe() -> dict:
    """Fixed pure-Python loop and fixed-size eigh, to expose host drift."""
    import numpy as np
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    h = a + a.conj().T
    loops, eighs = [], []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        loops.append(time.perf_counter() - t)
        t = time.perf_counter()
        np.linalg.eigh(h)
        eighs.append(time.perf_counter() - t)
    return {"py_loop_s": statistics.median(loops),
            "eigh192_s": statistics.median(eighs)}


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": NPROC,
            "pinned_cpu": PINNED_CPU,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_version,
            "git_commit": commit,
            "blas_threads": BLAS_THREADS,
            "cli_threads": CLI_THREADS,
            "platform": platform.platform()}


def metric_block(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run_workload(args, work: Path) -> tuple[dict, dict]:
    """Returns (result line, report) of one workload."""
    run = Run(args.workload, args.seed, args.seconds, args.quick, work,
              probe_setup=args.trace == 0)
    # Warm-up: compile bytecode and fill the file cache; not timed.
    probe_times(SETUP_CODE, 1)
    probe_times(CALIBRATION[args.workload][0], 1)
    drift_before = drift_probe()
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "quick": args.quick}
    if args.trace == 0:
        res = run.passes([False], 1 if args.quick else MIN_PASSES)[False]

        def per_op(key):
            # Each operation's normalised time, median over the passes.
            return [statistics.median(p[key][i] for p in res)
                    for i in range(len(res[0][key]))]

        walls = per_op("op_walls_norm")
        values = {
            "setup_s": statistics.median(n for _, n in run.setup),
            # One pass: the sum of the operations' medians.
            "wall_s": sum(walls),
            "op_p50_s": statistics.median(walls),
            "cpu_s": sum(per_op("op_cpus_norm")),
            "peak_rss_mb": max(p["rss"] for p in res),
        }
        metrics = metric_block(values, END_TO_END)
        report["samples"] = {"setup_raw_s": [r for r, _ in run.setup],
                             "calibration_s": run.cal,
                             "calibration": CALIBRATION[args.workload],
                             "pass_wall_raw_s": [p["wall"] for p in res],
                             "pass_cpu_raw_s": [p["cpu"] for p in res]}
        report["ops"] = [dict(zip(p["op_keys"], p["op_walls"])) for p in res]
    else:
        startup = startup_probes()
        res = run.passes([False, True], 1)
        untraced, traced = res[False], res[True]
        wall_u = statistics.median(p["wall"] for p in untraced)
        wall_t = statistics.median(p["wall"] for p in traced)
        last = traced[-1]
        timed_spans = load_spans(last)
        spans = [o for _, o in timed_spans]
        # A layer this workload never reaches reads 0 s, as measured.
        values = layers.layer_metrics(spans, last["bytes_written"], startup,
                                      wall_t - wall_u)
        metrics = metric_block(values, layers.PER_LAYER)
        n_ops = len(last["op_walls"])
        report["checks"] = {
            "untraced_wall_s": wall_u,
            "traced_wall_s": wall_t,
            # Share of (untraced wall - interpreter starts) spent in spinsys.
            "spinsys_share_of_wall": layers.spinsys_total(spans) / max(
                1e-9, wall_u - n_ops * startup["cli.interp_start_s"]),
            # Median share of a traced operation's wall time spent outside
            # its root span: interpreter start-up and imports.
            "startup_share_traced_median": statistics.median(
                1 - (o.spans[0][2] - o.spans[0][1]) / w
                for w, o in timed_spans),
        }
    # Not gated: host speed before and after, in this process.
    report["drift"] = {"before": drift_before, "after": drift_probe()}
    report["gate"] = {"max_rel_dev": run.max_rel_dev,
                      "fail_frac": run.failed / max(1, run.attempted),
                      "failures": run.failures[:20],
                      "rtol": gate.RTOL}
    report["env"] = environment()
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, report


def record_reference(workload, work: Path):
    """Record the outputs of every operation variant as the reference."""
    ops = workloads.all_variants(workload)
    refs = {}
    for i, op in enumerate(ops):
        d = work / f"op{i}"
        child = run_child(op_argv(op, d), log_path=work / f"op{i}.stderr")
        if child.code != 0:
            raise RuntimeError(f"{op['key']} failed with exit {child.code}")
        outputs = gate.read_outputs(d)
        gate.check_invariants(op, outputs)
        refs[op["key"]] = outputs
        print(f"recorded {op['key']} ({child.wall:.2f} s)", flush=True)
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    # One line per operation variant, so a re-recording diffs readably.
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], sort_keys=True)}"
             for k in sorted(refs)]
    path.write_text(
        '{"recorded_with": ' + json.dumps(environment(), sort_keys=True)
        + ',\n"ops": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smallest sizes, no reference (self-test)")
    ap.add_argument("--record-reference", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chainqc" / "cli.py").is_file():
        print(f"error: {SRC / 'chainqc'} not found; run from a chainqc "
              "source checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.sched_setaffinity(0, {PINNED_CPU})
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            record_reference(args.workload, work)
            return 0
        if args.workload == "all":
            return run_all(args, work)
        result, report = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    save_report(report, result)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def save_report(report, result):
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    name = (f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
            f"{'-quick' if report['quick'] else ''}.json")
    (out / name).write_text(json.dumps({"result": result, "report": report},
                                       sort_keys=True, indent=1) + "\n",
                            encoding="utf-8")


def run_all(args, work: Path) -> int:
    """Every workload untraced; one table of all end-to-end metrics."""
    names = [*END_TO_END, "fail_frac"]
    rows, correct, attempted, failed = [], True, 0, 0
    for i, w in enumerate(workloads.WORKLOADS):
        sub = argparse.Namespace(**{**vars(args), "workload": w, "trace": 0})
        result, report = run_workload(sub, work / f"w{i}")
        save_report(report, result)
        vals = {k: v["value"] for k, v in result["metrics"].items()}
        vals["fail_frac"] = report["gate"]["fail_frac"]
        rows.append((w, vals))
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    units = {**END_TO_END, "fail_frac": "1"}
    print(f"{'workload':<14}" + "".join(f"{n + ' [' + units[n] + ']':>18}"
                                        for n in names))
    for w, vals in rows:
        print(f"{w:<14}" + "".join(f"{vals[n]:>18.4f}" for n in names))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {f"{w}.{n}": {"value": vals[n],
                                               "unit": units[n]}
                                  for w, vals in rows for n in names}},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
