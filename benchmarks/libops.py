"""Library-script operations of the finite_pulse workload.

Usage: python benchmarks/libops.py SPEC.json OUT_DIR

Runs one task against the public chainqc API and writes OUT_DIR/result.json
(and, for the density task, trajectory.json) with the numbers the
correctness gate checks.  These paths (sampled
finite-width pulses, density-matrix evolution, the average Hamiltonian) are
not reachable from the CLI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from chainqc import lattice, pulses, spinsys

_N_DIAG = 16  # diagonal entries (or rows) kept in result.json


def _system(p):
    lat = lattice.get_preset("fluorapatite")
    return spinsys.build_system(lat, p["n_planes"], p["chains"], p["grad"])


def _unitarity_dev(U: np.ndarray) -> float:
    return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))


def _propagator_summary(U: np.ndarray) -> dict:
    d = U.shape[0]
    fid, phases = spinsys.diagonal_z_fidelity(U)
    tr = np.trace(U) / d
    return {
        "dim": d,
        "unitarity_dev": _unitarity_dev(U),
        "trace_over_d_re": float(tr.real),
        "trace_over_d_im": float(tr.imag),
        "diag_abs": [float(x) for x in np.abs(np.diag(U))[:_N_DIAG]],
        "z_fidelity": fid,
        "z_phases_rad": [float(x) for x in phases],
    }


def wahuha_sampled(p):
    """Finite-width WAHUHA cycle, every pulse sampled on a sub-step grid."""
    sys_ = _system(p)
    seq = pulses.wahuha(p["tau"], p["width"])
    U = spinsys.propagator(sys_, seq, mode="sampled")
    return _propagator_summary(U.matrix)


def selective_train(p):
    """Finite-width selective pi pulses on one plane (no two overlap)."""
    sys_ = _system(p)
    full = pulses.hadamard_sign_matrix(p["n_planes"])
    rows = [(1,) * full.k] * p["n_planes"]
    rows[p["plane"]] = full.rows[p["plane"]]
    seq = pulses.decoupling_schedule(pulses.SignMatrix(tuple(rows)),
                                     p["slot"], p["width"])
    U = spinsys.propagator(sys_, seq, mode="sampled")
    out = _propagator_summary(U.matrix)
    out["n_pulses"] = len(seq.events)
    return out


def density_decoupling(p):
    """High-temperature deviation state through one decoupling cycle."""
    sys_ = _system(p)
    n, d = sys_.total_spins, sys_.dim
    iz = np.zeros(d)
    for s in range(n):
        iz += np.real(np.diag(spinsys.single_spin_op(n, s, spinsys.SZ)))
    rho = np.diag((1.0 + p["epsilon"] * iz) / d).astype(complex)
    state = spinsys.QuantumState.density(rho)
    seq = pulses.decoupling_schedule(
        pulses.hadamard_sign_matrix(p["n_planes"]), p["slot"])
    traj = spinsys.evolve(sys_, seq, state, mode="ideal")
    rows = []
    trace_dev = 0.0
    for t, st in traj:
        trace_dev = max(trace_dev, abs(np.trace(st.data).real - 1.0))
        rows.append([t] + [spinsys.expectation_iz_plane(sys_, st, q)
                           for q in range(sys_.n_planes)])
    header = ["t_s"] + [f"iz_plane_{q}" for q in range(sys_.n_planes)]
    return {"result.json": {"dim": d, "trace_dev": trace_dev,
                            "segments": len(traj) - 1},
            "trajectory.json": {"header": header, "rows": rows}}


def aht_interleaved(p):
    """Zeroth-order average Hamiltonian of WAHUHA + Hadamard decoupling."""
    sys_ = _system(p)
    seq = pulses.interleave(
        pulses.wahuha(p["tau"]),
        pulses.decoupling_schedule(
            pulses.hadamard_sign_matrix(p["n_planes"]), p["slot"]))
    Hbar = spinsys.average_hamiltonian_0(sys_, seq)
    return {
        "dim": Hbar.shape[0],
        "n_events": len(seq.events),
        "hermitian_dev": float(np.max(np.abs(Hbar - Hbar.conj().T))),
        "frobenius_rad_per_s": float(np.linalg.norm(Hbar)),
        # The diagonal of Hbar is round-off (the zz terms average out), so
        # the gate compares row norms, which do not depend on rounding.
        "row_norm_rad_per_s": [float(x) for x in
                               np.linalg.norm(Hbar[:_N_DIAG], axis=1)],
    }


TASKS = {
    "wahuha_sampled": wahuha_sampled,
    "selective_train": selective_train,
    "density_decoupling": density_decoupling,
    "aht_interleaved": aht_interleaved,
}


def run(spec_path: str, out_dir: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    files = TASKS[spec["task"]](spec["params"])
    if "result.json" not in files:
        files = {"result.json": files}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        text = json.dumps(obj, sort_keys=True)
        (out / name).write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: libops.py SPEC.json OUT_DIR")
    run(sys.argv[1], sys.argv[2])
