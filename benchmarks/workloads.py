"""Operation lists of the three benchmark workloads.

Every workload is a closed loop with one client: run.py runs one
operation at a time, and each operation is a fresh child interpreter.  An
operation is either a `chainqc` CLI call ("cli") or one task of the
benchmark's own library script, libops.py ("lib").

Each operation has a short menu of parameter variants.  Variant 0 is the
nominal design point; the others move the physical parameters (tau, slot,
gradient, b1, chain offsets, magnet sample origin) inside fixed ranges and
never change a problem size: the number of spins, planes, grid points,
pulses, sub-steps and integrator steps stays the same in every variant.
The seed picks the operation order and a first variant per operation;
each later pass of a run moves every operation on to its next variant, so
a run averages over variants rather than resting on one draw whose cost
happens to be high or low.  The outputs of every variant were recorded as
references (reference/*.json), so the correctness gate compares numbers on
any seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli_sweep", "register", "finite_pulse")
N_VARIANTS = 4

# Chain positions in units of a.  The fluorapatite chains form a triangular
# lattice of spacing 9.367 A = 2.7214 a.
_S = 2.7214
_TWO_CHAINS = ((0.0, 0.0), (_S, 0.0))


def _rng(op_id: str, variant: int) -> random.Random:
    return random.Random(f"{op_id}/{variant}")


def _uniform(op_id, variant, lo, hi, nominal):
    """Nominal value for variant 0, else a fixed draw from [lo, hi]."""
    if variant == 0:
        return nominal
    return _rng(op_id, variant).uniform(lo, hi)


def _jitter(op_id, variant, chains, amp=0.08):
    """Chain positions moved by up to +-amp (units of a), chain 0 fixed."""
    if variant == 0:
        return [list(c) for c in chains]
    r = _rng(op_id + "/chains", variant)
    out = [list(chains[0])]
    for x, y in chains[1:]:
        out.append([x + r.uniform(-amp, amp), y + r.uniform(-amp, amp)])
    return out


def _grad(op_id, v):
    return _uniform(op_id + "/grad", v, 1.2e6, 1.6e6, 1.4e6)


def _tau(op_id, v):
    return _uniform(op_id + "/tau", v, 0.8e-6, 1.2e-6, 1e-6)


def _slot(op_id, v):
    return _uniform(op_id + "/slot", v, 5e-6, 8e-6, 6e-6)


def _cli(op_id, command, fmt, config, extra=()):
    return {"id": op_id, "kind": "cli", "command": command, "format": fmt,
            "config": dict(config, schema_version=1), "extra": list(extra)}


def _lib(op_id, task, **params):
    return {"id": op_id, "kind": "lib", "task": task, "params": params}


# --- cli_sweep ---------------------------------------------------------------


def _cli_sweep(op_id: str, v: int):
    if op_id == "lattice_fluorapatite":
        return _cli(op_id, "lattice", "csv",
                    {"lattice": {"preset": "fluorapatite"}})
    if op_id == "lattice_sc_tight":
        # Convergence study: the tight tolerance costs extra doublings.
        return _cli(op_id, "lattice", "json",
                    {"lattice": {"preset": "simple_cubic", "rel_tol": 1e-7,
                                 "include_lower_plane": True}})
    if op_id == "magnet_grid41":
        x = _uniform(op_id + "/x", v, -5e-8, 5e-8, 0.0)
        y = _uniform(op_id + "/y", v, -5e-8, 5e-8, 0.0)
        return _cli(op_id, "magnet", "csv",
                    {"magnet": {"homogeneity_samples": 41,
                                "sample_origin_m": [x, y, 0.0]}})
    if op_id.startswith("schedule_"):
        n = {"schedule_2": 2, "schedule_8_recouple": 8, "schedule_16": 16}[op_id]
        tau = _tau(op_id, v)
        # slot = 6 tau keeps one WAHUHA cycle per selective slot, so the
        # event count does not depend on the variant.
        seq = {"n_planes": n, "tau_s": tau, "slot_s": 6.0 * tau}
        extra = ["--recouple", "1,2"] if op_id.endswith("recouple") else []
        fmt = "json" if extra else "csv"
        return _cli(op_id, "schedule", fmt, {"sequence": seq}, extra)
    if op_id == "scalability_grid":
        t = _uniform(op_id + "/T", v, 3.5, 4.5, 4.0)
        return _cli(op_id, "scalability", "json",
                    {"scalability": {"temperature_K": t,
                                     "n_grid": list(range(2, 62, 2)),
                                     "T2_grid_s": [0.01, 0.1, 10.0, 1000.0]}})
    if op_id.startswith("readout_"):
        # b1 within +-10% keeps the step size, and so the step count, fixed.
        b1 = _uniform(op_id + "/b1", v, 0.9, 1.1, 1.0) * 2.5e-4
        initial = op_id.split("_")[1]
        return _cli(op_id, "readout", "csv" if initial == "up" else "json",
                    {"readout": {"initial": initial, "b1_T": b1}})
    if op_id == "simulate_3x1_decoupling":
        return _cli(op_id, "simulate", "csv", {
            "spin_system": {"n_planes": 3, "chain_positions_a": [[0.0, 0.0]],
                            "grad_T_per_m": _grad(op_id, v),
                            "schedule": "decoupling"},
            "sequence": {"slot_s": _slot(op_id, v)}})
    if op_id == "simulate_3x2_cnot":
        return _cli(op_id, "simulate", "json", {
            "spin_system": {"n_planes": 3,
                            "chain_positions_a": _jitter(op_id, v, _TWO_CHAINS),
                            "grad_T_per_m": _grad(op_id, v),
                            "schedule": "cnot", "cnot_control": 0,
                            "cnot_target": 1}})
    raise KeyError(op_id)


_CLI_SWEEP_IDS = (
    "lattice_fluorapatite", "lattice_sc_tight", "magnet_grid41",
    "schedule_2", "schedule_8_recouple", "schedule_16",
    "scalability_grid", "readout_up", "readout_down",
    "simulate_3x1_decoupling", "simulate_3x2_cnot",
)

# --- register ----------------------------------------------------------------

_REGISTER_SHAPES = {
    # id: (planes, chains, schedule, format)
    "register_8x1_decoupling": (8, 1, "decoupling", "csv"),
    "register_8x1_cnot": (8, 1, "cnot", "json"),
    "register_4x2_decoupling": (4, 2, "decoupling", "json"),
    "register_4x2_cnot": (4, 2, "cnot", "csv"),
}


def _register(op_id: str, v: int):
    planes, chains, schedule, fmt = _REGISTER_SHAPES[op_id]
    base = {1: ((0.0, 0.0),), 2: _TWO_CHAINS}[chains]
    ss = {"n_planes": planes, "chain_positions_a": _jitter(op_id, v, base),
          "grad_T_per_m": _grad(op_id, v), "schedule": schedule}
    if schedule == "cnot":
        # Any adjacent pair; the register size does not change.
        c = 0 if v == 0 else _rng(op_id + "/pair", v).randrange(planes - 1)
        ss.update(cnot_control=c, cnot_target=c + 1)
    return _cli(op_id, "simulate", fmt,
                {"spin_system": ss, "sequence": {"slot_s": _slot(op_id, v)}})


# --- finite_pulse -------------------------------------------------------------

# The sampled pulse's sub-step count scales with the pulse width times the
# largest plane offset, so width and gradient stay fixed in sampled tasks.
_SAMPLED_GRAD = 1.4e6


def _finite_pulse(op_id: str, v: int):
    if op_id in ("wahuha_sampled_3x2", "wahuha_sampled_4x2"):
        planes = 3 if op_id.endswith("3x2") else 4
        return _lib(op_id, "wahuha_sampled", n_planes=planes,
                    chains=_jitter(op_id, v, _TWO_CHAINS),
                    grad=_SAMPLED_GRAD, tau=_tau(op_id, v), width=2e-7)
    if op_id == "selective_train_8x1":
        return _lib(op_id, "selective_train", n_planes=8, chains=[[0.0, 0.0]],
                    grad=_SAMPLED_GRAD, plane=3, slot=_slot(op_id, v),
                    width=1e-6)
    if op_id == "density_decoupling_4x2":
        return _lib(op_id, "density_decoupling", n_planes=4,
                    chains=_jitter(op_id, v, _TWO_CHAINS),
                    grad=_grad(op_id, v), slot=_slot(op_id, v), epsilon=1e-2)
    if op_id == "aht_interleaved_4x2":
        tau = _tau(op_id, v)
        return _lib(op_id, "aht_interleaved", n_planes=4,
                    chains=_jitter(op_id, v, _TWO_CHAINS),
                    grad=_grad(op_id, v), tau=tau, slot=6.0 * tau)
    raise KeyError(op_id)


_FINITE_PULSE_IDS = ("wahuha_sampled_3x2", "wahuha_sampled_4x2",
                     "selective_train_8x1", "density_decoupling_4x2",
                     "aht_interleaved_4x2")

_TABLE = {
    "cli_sweep": (_CLI_SWEEP_IDS, _cli_sweep),
    "register": (tuple(_REGISTER_SHAPES), _register),
    "finite_pulse": (_FINITE_PULSE_IDS, _finite_pulse),
}


def op_variant(workload: str, op_id: str, variant: int) -> dict:
    ops = _TABLE[workload][1](op_id, variant)
    ops["variant"] = variant
    ops["key"] = f"{op_id}/v{variant}"
    return ops


def all_variants(workload: str) -> list[dict]:
    """Every operation in every variant: what the references cover."""
    ids = _TABLE[workload][0]
    return [op_variant(workload, i, v) for i in ids for v in range(N_VARIANTS)]


def pass_ops(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """One pass: each operation once, in a seeded order and variant."""
    rng = random.Random(f"{workload}/{seed}")
    ids = list(_TABLE[workload][0])
    rng.shuffle(ids)
    return [op_variant(workload, i,
                       (rng.randrange(N_VARIANTS) + pass_index) % N_VARIANTS)
            for i in ids]


# --- quick passes for the self-test --------------------------------------------

def quick_ops(workload: str) -> list[dict]:
    """Smallest sizes of each workload's operation kinds (no references)."""
    if workload == "cli_sweep":
        ops = [
            _cli("q_lattice", "lattice", "csv", {"lattice": {}}),
            _cli("q_magnet", "magnet", "json",
                 {"magnet": {"homogeneity_samples": 3, "n_planes": 2}}),
            _cli("q_schedule", "schedule", "json",
                 {"sequence": {"n_planes": 2}}, ["--recouple", "0,1"]),
            _cli("q_scalability", "scalability", "csv",
                 {"scalability": {"n_grid": [2, 3]}}),
            _cli("q_readout", "readout", "csv",
                 {"readout": {"n_periods": 1, "steps_per_period": 100}}),
            _cli("q_simulate", "simulate", "json",
                 {"spin_system": {"n_planes": 2}, "sequence": {}}),
        ]
    elif workload == "register":
        ops = [
            _cli("q_register_2x1", "simulate", "csv", {
                "spin_system": {"n_planes": 2, "chain_positions_a": [[0, 0]],
                                "schedule": "cnot", "cnot_control": 0,
                                "cnot_target": 1}}),
            _cli("q_register_2x2", "simulate", "json", {
                "spin_system": {"n_planes": 2,
                                "chain_positions_a": [list(c) for c in _TWO_CHAINS],
                                "schedule": "decoupling"}}),
        ]
    else:
        two = [list(c) for c in _TWO_CHAINS]
        ops = [
            _lib("q_wahuha", "wahuha_sampled", n_planes=1, chains=two,
                 grad=_SAMPLED_GRAD, tau=1e-6, width=2e-7),
            _lib("q_selective", "selective_train", n_planes=2,
                 chains=[[0.0, 0.0]], grad=_SAMPLED_GRAD, plane=1, slot=6e-6,
                 width=1e-6),
            _lib("q_density", "density_decoupling", n_planes=2, chains=two,
                 grad=1.4e6, slot=6e-6, epsilon=1e-2),
            _lib("q_aht", "aht_interleaved", n_planes=2, chains=two,
                 grad=1.4e6, tau=1e-6, slot=6e-6),
        ]
    for op in ops:
        op["variant"] = 0
        op["key"] = op["id"] + "/quick"
    return ops
