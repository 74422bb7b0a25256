"""Correctness gate for benchmark operations.

Each operation's output directory is read into a normalized form: CSV and
JSON tables become {"header", "n_rows", "rows", "colsum"}, other JSON files
stay as parsed.  Long tables keep every k-th row (at most MAX_ROWS) plus the
column sums over all rows, so any changed cell still moves a checked number.

A result passes when
  * the file set and every non-numeric cell equal the reference exactly,
  * every numeric cell is within RTOL of the reference, relative to the
    larger of the cell and its column (or list) scale, plus an absolute
    floor ATOL_UNIT for dimensionless quantities bounded by O(1)
    (expectation values, fidelities, phases, drifts),
  * the physical invariants of its operation kind hold (unitarity,
    unit density trace, finite fidelities in [0, 1], ...).
The comparison is not byte identity: a faster core that changes the last
bits passes.  The largest relative deviation seen is reported, not gated.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL_UNIT = 1e-9
MAX_ROWS = 64
UNITARITY_TOL = 1e-9
TRACE_TOL = 1e-9
HERMITIAN_RTOL = 1e-12  # of the average Hamiltonian's Frobenius norm

# Keys and columns holding dimensionless O(1)-bounded numbers, whose
# reference value may be round-off around zero.
_UNIT_SCALE_MARKERS = ("iz", "fidelity", "phase", "drift", "dev",
                       "trace_over_d", "diag_abs", "scales", "amplitude")


class GateError(Exception):
    """An operation's output failed the gate."""


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _table(header, rows):
    n = len(rows)
    stride = max(1, math.ceil(n / MAX_ROWS))
    colsum = []
    for c in range(len(header)):
        vals = [r[c] for r in rows]
        if vals and all(isinstance(x, (int, float)) for x in vals):
            colsum.append(math.fsum(abs(x) for x in vals
                                    if math.isfinite(x)))
        else:
            colsum.append(None)
    return {"header": list(header), "n_rows": n,
            "rows": [list(r) for r in rows[::stride]], "colsum": colsum}


def read_outputs(out_dir: Path) -> dict:
    """Parse every output file; raises GateError on a file that does not."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        try:
            if path.suffix == ".csv":
                with path.open(newline="", encoding="utf-8") as fh:
                    lines = [row for row in csv.reader(fh)
                             if row and not row[0].startswith("#")]
                header, body = lines[0], lines[1:]
                if any(len(r) != len(header) for r in body):
                    raise GateError(f"{path.name}: ragged CSV")
                files[path.name] = _table(
                    header, [[_number(x) for x in r] for r in body])
            elif path.suffix == ".json":
                obj = json.loads(path.read_text(encoding="utf-8"))
                if isinstance(obj, dict) and set(obj) >= {"header", "rows"}:
                    obj = _table(obj["header"], obj["rows"])
                files[path.name] = obj
            else:
                raise GateError(f"unexpected output file {path.name}")
        except (ValueError, IndexError, UnicodeDecodeError) as exc:
            raise GateError(f"{path.name} does not parse: {exc}") from None
    if not files:
        raise GateError("no output files")
    return files


def _unit_scaled(key: str) -> bool:
    k = key.lower()
    return any(m in k for m in _UNIT_SCALE_MARKERS)


class _Compare:
    def __init__(self):
        self.max_rel_dev = 0.0

    def num(self, where, ref, got, scale, unit):
        if math.isnan(ref) or math.isnan(got) or math.isinf(ref) or math.isinf(got):
            if not (ref == got or (math.isnan(ref) and math.isnan(got))):
                raise GateError(f"{where}: {got!r} != {ref!r}")
            return
        diff = abs(got - ref)
        base = max(abs(ref), abs(got), scale)
        tol = RTOL * base + (ATOL_UNIT if unit else 0.0)
        if base > 0:
            self.max_rel_dev = max(self.max_rel_dev, diff / base)
        if diff > tol:
            raise GateError(f"{where}: {got!r} differs from {ref!r} "
                            f"(|d|={diff:.3g} > tol={tol:.3g})")

    def value(self, where, ref, got, scale=0.0, unit=False):
        if _is_num(ref) and _is_num(got):
            self.num(where, float(ref), float(got), scale, unit)
        elif isinstance(ref, dict) and isinstance(got, dict):
            if set(ref) != set(got):
                raise GateError(f"{where}: keys {sorted(got)} != {sorted(ref)}")
            for k in ref:
                self.value(f"{where}.{k}", ref[k], got[k],
                           unit=unit or _unit_scaled(k))
        elif isinstance(ref, list) and isinstance(got, list):
            if len(ref) != len(got):
                raise GateError(f"{where}: length {len(got)} != {len(ref)}")
            flat = [abs(x) for x in _flatten(ref) if _is_num(x)
                    and math.isfinite(x)]
            sc = max(flat, default=0.0)
            for i, (r, g) in enumerate(zip(ref, got)):
                self.value(f"{where}[{i}]", r, g, sc, unit)
        elif ref != got or type(ref) is not type(got):
            raise GateError(f"{where}: {got!r} != {ref!r}")

    def table(self, where, ref, got):
        if ref["header"] != got["header"] or ref["n_rows"] != got["n_rows"]:
            raise GateError(f"{where}: header or row count differs")
        if len(ref["rows"]) != len(got["rows"]):
            raise GateError(f"{where}: sampled rows differ")
        for c, name in enumerate(ref["header"]):
            col = [r[c] for r in ref["rows"]]
            sc = max((abs(x) for x in col if isinstance(x, float)
                      and math.isfinite(x)), default=0.0)
            unit = _unit_scaled(name)
            for i, (r, g) in enumerate(zip(ref["rows"], got["rows"])):
                self.value(f"{where}[{i}].{name}", r[c], g[c], sc, unit)
            if ref["colsum"][c] is not None:
                self.value(f"{where}.colsum.{name}", ref["colsum"][c],
                           got["colsum"][c], 0.0, unit)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _flatten(x):
    if isinstance(x, list):
        for y in x:
            yield from _flatten(y)
    else:
        yield x


def compare(reference: dict, outputs: dict) -> float:
    """Check outputs against a reference; returns the max relative deviation."""
    if set(reference) != set(outputs):
        raise GateError(f"output files {sorted(outputs)} != "
                        f"{sorted(reference)}")
    cmp = _Compare()
    for name, ref in reference.items():
        got = outputs[name]
        if isinstance(ref, dict) and set(ref) == {"header", "n_rows", "rows",
                                                  "colsum"}:
            cmp.table(name, ref, got)
        else:
            cmp.value(name, ref, got)
    return cmp.max_rel_dev


# --- invariants -----------------------------------------------------------------


def _finite(where, x):
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise GateError(f"{where}: not a finite number: {x!r}")


def _fidelity(where, x):
    _finite(where, x)
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise GateError(f"{where}: fidelity {x!r} outside [0, 1]")


def _column(table, name):
    c = table["header"].index(name)
    return [r[c] for r in table["rows"]]


def check_invariants(op: dict, outputs: dict) -> None:
    """Physical invariants that hold for every seed and variant."""
    kind = op.get("command") or op.get("task")
    if kind == "simulate":
        summary = outputs["simulate_summary.json"]
        fids = [summary[k] for k in ("identity_fidelity", "cnot_fidelity")
                if k in summary]
        if not fids:
            raise GateError("simulate_summary has no fidelity")
        for f in fids:
            _fidelity("simulate_summary", f)
        name = "simulate_trajectory." + op["format"]
        traj = outputs[name]
        bound = 0.5 * summary["n_chains"] * (1 + 1e-9)
        for h in traj["header"][1:]:
            for x in _column(traj, h):
                _finite(name, x)
                if abs(x) > bound:
                    raise GateError(f"{name}: |<Iz>| {x} above {bound}")
    elif kind == "schedule":
        val = outputs["schedule_validation.json"]
        if val["valid"] is not True:
            raise GateError("schedule_validation.valid is not true")
        table = outputs["schedule_timeline." + op["format"]]
        if table["n_rows"] != val["n_events"]:
            raise GateError("timeline rows != n_events")
    elif kind == "lattice":
        s = outputs["lattice_summary.json"]["sigma_over_delta"]
        _finite("sigma_over_delta", s)
        if s <= 0:
            raise GateError("sigma_over_delta not positive")
    elif kind == "magnet":
        summary = outputs["magnet_summary.json"]
        _finite("variation_fraction",
                summary["homogeneity"]["variation_fraction"])
    elif kind == "readout":
        summary = outputs["readout_summary.json"]
        _finite("norm_drift", summary["norm_drift"])
        if summary["norm_drift"] > UNITARITY_TOL:
            raise GateError(f"readout norm drift {summary['norm_drift']}")
        _finite("following_figure", summary["following_figure"])
    elif kind == "scalability":
        q = outputs["scalability_summary.json"]["max_measurable_qubits"]
        if not isinstance(q, int) or q < 0:
            raise GateError(f"max_measurable_qubits {q!r}")
    elif kind in ("wahuha_sampled", "selective_train"):
        res = outputs["result.json"]
        if res["unitarity_dev"] > UNITARITY_TOL:
            raise GateError(f"unitarity deviation {res['unitarity_dev']}")
        _fidelity("z_fidelity", res["z_fidelity"])
    elif kind == "density_decoupling":
        res = outputs["result.json"]
        if res["trace_dev"] > TRACE_TOL:
            raise GateError(f"density trace deviation {res['trace_dev']}")
        for row in outputs["trajectory.json"]["rows"]:
            for x in row:
                _finite("trajectory", x)
    elif kind == "aht_interleaved":
        res = outputs["result.json"]
        norm = res["frobenius_rad_per_s"]
        _finite("frobenius_rad_per_s", norm)
        if not res["hermitian_dev"] <= HERMITIAN_RTOL * norm:
            raise GateError(f"average Hamiltonian not Hermitian: "
                            f"{res['hermitian_dev']} > {HERMITIAN_RTOL} "
                            f"x {norm}")
    else:
        raise GateError(f"no invariants for operation kind {kind!r}")


def check(op: dict, out_dir: Path, references: dict | None):
    """Gate one operation; returns the max relative deviation, or None
    when there is no reference to compare with."""
    outputs = read_outputs(out_dir)
    try:
        check_invariants(op, outputs)
        if references is None:
            return None
        if op["key"] not in references:
            raise GateError(f"no reference for {op['key']}")
        return compare(references[op["key"]], outputs)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # A file or field the reference or invariant expects is missing or
        # has the wrong shape.
        raise GateError(f"malformed outputs: {exc!r}") from None
