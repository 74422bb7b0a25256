"""Golden outputs: every case in tests/golden/regen.py against its files.

A file passes when its SHA-256 matches.  Otherwise it is judged by the
benchmark gate's own comparison (benchmarks/gate.py: ``compare`` on
``read_outputs``) with every row of every table compared.  Each file's
largest relative deviation is reported in the terminal summary.
"""

import csv
import hashlib
import math
import shutil
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_RESULTS
from golden.regen import CASES, GOLDEN, run_case

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import gate  # noqa: E402


def _digest(path: Path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def _judge(ref_dir: Path, out_dir: Path) -> dict:
    """File name -> None when its bytes match the reference, else its
    largest relative deviation; gate.GateError past the gate's rule."""
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == names
    differ = [n for n in names if _digest(ref_dir / n) != _digest(out_dir / n)]
    if differ:
        ref, got = gate.read_outputs(ref_dir), gate.read_outputs(out_dir)
    return {n: gate.compare({n: ref[n]}, {n: got[n]}) if n in differ else None
            for n in names}


@pytest.fixture
def judge(monkeypatch):
    """_judge over every row: the gate keeps MAX_ROWS rows of a long table
    and its column sums, which a small move in one skipped row cannot
    shift past the tolerance."""
    monkeypatch.setattr(gate, "MAX_ROWS", math.inf)
    return _judge


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path, judge):
    out = tmp_path / "out"
    assert run_case(case, out) == 0
    for name, dev in judge(GOLDEN / case, out).items():
        GOLDEN_RESULTS[f"{case}/{name}"] = dev


@pytest.mark.parametrize("move, refused", [(2e-6, True), (5e-7, False)])
def test_judge_compares_every_row(tmp_path, judge, move, refused):
    # Row 3000 of the 4000-row CAI trace lies between the rows the gate
    # samples by default (stride 63 keeps 2961 and 3024), and Σ|iz| ~ 2e3
    # hides a move of ~1e-6.
    ref = GOLDEN / "readout_csv"
    out = tmp_path / "out"
    shutil.copytree(ref, out)
    path = out / "readout_cai_trace.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    c = header.index("iz")
    scale = max(abs(float(r[c])) for r in rows)
    rows[3000][c] = repr(float(rows[3000][c]) + move * scale)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                    encoding="utf-8")
    if refused:
        with pytest.raises(gate.GateError, match=r"\[3000\]\.iz"):
            judge(ref, out)
    else:
        assert 0 < judge(ref, out)["readout_cai_trace.csv"] < 1e-6
