"""Golden outputs: every case in tests/golden/regen.py against its files.

A file passes when its SHA-256 matches.  Otherwise its parsed numbers are
compared with the benchmark gate's rule: each numeric cell within RTOL of
the larger of the two values and its column (or list) scale, plus ATOL_UNIT
for dimensionless O(1) quantities; non-numeric cells and the table shapes
must match exactly.  Each file's largest relative deviation is reported in
the terminal summary.
"""

import csv
import hashlib
import io
import json
import math

import pytest

from conftest import GOLDEN_RESULTS
from golden.regen import CASES, GOLDEN, run_case

RTOL = 1e-6
ATOL_UNIT = 1e-9
# Keys and columns of dimensionless O(1)-bounded numbers, as in the gate.
_UNIT_MARKERS = ("iz", "fidelity", "phase", "drift", "dev", "trace_over_d",
                 "diag_abs", "scales", "amplitude")


def _unit(key: str) -> bool:
    return any(m in key.lower() for m in _UNIT_MARKERS)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(name: str, text: str):
    if name.endswith(".csv"):
        header, *rows = list(csv.reader(io.StringIO(text)))
        return {"header": header, "rows": [[_number(x) for x in r]
                                           for r in rows]}
    return json.loads(text)


def _scale(values) -> float:
    return max((abs(x) for x in values if _is_num(x) and math.isfinite(x)),
               default=0.0)


def _flatten(x):
    if isinstance(x, list):
        for y in x:
            yield from _flatten(y)
    else:
        yield x


def _deviation(where, ref, got, scale=0.0, unit=False) -> float:
    """Largest relative deviation of got from ref; AssertionError past the
    rule."""
    if _is_num(ref) and _is_num(got):
        ref, got = float(ref), float(got)
        if not (math.isfinite(ref) and math.isfinite(got)):
            assert ref == got or math.isnan(ref) and math.isnan(got), \
                f"{where}: {got!r} != {ref!r}"
            return 0.0
        diff = abs(got - ref)
        base = max(abs(ref), abs(got), scale)
        assert diff <= RTOL * base + (ATOL_UNIT if unit else 0.0), \
            f"{where}: {got!r} differs from {ref!r}"
        return diff / base if base > 0 else 0.0
    if isinstance(ref, dict) and isinstance(got, dict):
        assert set(ref) == set(got), f"{where}: keys differ"
        if set(ref) == {"header", "rows"}:  # a table: scale by column
            assert ref["header"] == got["header"], f"{where}: header differs"
            assert len(ref["rows"]) == len(got["rows"]), \
                f"{where}: row count differs"
            dev = 0.0
            for c, col in enumerate(ref["header"]):
                sc = _scale(r[c] for r in ref["rows"])
                for i, (r, g) in enumerate(zip(ref["rows"], got["rows"])):
                    dev = max(dev, _deviation(f"{where}[{i}].{col}", r[c],
                                              g[c], sc, _unit(col)))
            return dev
        return max((_deviation(f"{where}.{k}", ref[k], got[k],
                               unit=unit or _unit(k)) for k in ref),
                   default=0.0)
    if isinstance(ref, list) and isinstance(got, list):
        assert len(ref) == len(got), f"{where}: length differs"
        sc = _scale(_flatten(ref))
        return max((_deviation(f"{where}[{i}]", r, g, sc, unit)
                    for i, (r, g) in enumerate(zip(ref, got))), default=0.0)
    assert type(ref) is type(got) and ref == got, \
        f"{where}: {got!r} != {ref!r}"
    return 0.0


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    out = tmp_path / "out"
    assert run_case(case, out) == 0
    ref_dir = GOLDEN / case
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        ref = (ref_dir / name).read_bytes()
        got = (out / name).read_bytes()
        if hashlib.sha256(ref).digest() == hashlib.sha256(got).digest():
            GOLDEN_RESULTS[f"{case}/{name}"] = None
            continue
        GOLDEN_RESULTS[f"{case}/{name}"] = _deviation(
            name, _parse(name, ref.decode()), _parse(name, got.decode()))
