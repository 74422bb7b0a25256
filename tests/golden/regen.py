"""Golden outputs of the chainqc CLI: the cases, and their regeneration.

Each case is one CLI call with --no-meta; its output files are kept in
tests/golden/<case>/ and tests/test_golden.py re-runs the case against them.
Regenerate every case, or the named ones, with

    PYTHONPATH=src python tests/golden/regen.py [CASE ...]

and record each use in CHANGES.md with its physics or method reason.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from chainqc import cli

GOLDEN = Path(__file__).resolve().parent

_COMMANDS = ("lattice", "magnet", "schedule", "simulate", "scalability",
             "readout")

# name: (command, format, config or None for the defaults, extra arguments)
CASES = {f"{cmd}_{fmt}": (cmd, fmt, None, [])
         for cmd in _COMMANDS for fmt in ("csv", "json")}
CASES.update({
    "simulate_cnot_3x2": ("simulate", "csv", {"spin_system": {
        "n_planes": 3, "chain_positions_a": [[0.0, 0.0], [2.7214, 0.0]],
        "schedule": "cnot", "cnot_control": 0, "cnot_target": 1}}, []),
    "schedule_recouple": ("schedule", "csv", None, ["--recouple", "1,2"]),
    "magnet_grad_override": ("magnet", "csv",
                             {"magnet": {"grad_override_T_per_m": 1.4e6}}, []),
    "lattice_simple_cubic": ("lattice", "csv",
                             {"lattice": {"preset": "simple_cubic"}}, []),
    # a non-default gradient and L reach the cycle-time model
    "schedule_64_planes": ("schedule", "csv", {
        "sequence": {"n_planes": 64},
        "spin_system": {"grad_T_per_m": 2.0e6},
        "scalability": {"L": 8.0}}, []),
})


def run_case(name: str, out_dir: Path) -> int:
    """Run one case with its outputs under out_dir; returns the exit code."""
    command, fmt, cfg, extra = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        args = [command, "--no-meta", "--format", fmt, "--out", str(out_dir)]
        if cfg is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(dict(cfg, schema_version=1)),
                            encoding="utf-8")
            args += ["--config", str(path)]
        return cli.main(args + extra)


def main(names) -> int:
    for name in names or sorted(CASES):
        if name not in CASES:
            print(f"unknown case {name!r}", file=sys.stderr)
            return 2
        out = GOLDEN / name
        shutil.rmtree(out, ignore_errors=True)
        code = run_case(name, out)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return code
        print(f"{name}: {', '.join(sorted(p.name for p in out.iterdir()))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
