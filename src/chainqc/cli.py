"""Command-line front end.

Subcommands: lattice, magnet, schedule, simulate, scalability, readout.
Every command reads one JSON config (defaults apply without one), writes its
outputs under --out, and is deterministic: identical configs give
byte-identical files once the timestamped meta line is disabled with
--no-meta.  Exit codes: 0 success, 2 config error, 3 schedule validation
error or numerical failure.

Each command imports the model modules it runs inside its own function, so
a process pays at start-up only for those; numpy loads only with a model
that computes arrays, never for `schedule` or `scalability`.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys as _sys
from pathlib import Path

from . import __version__, config
from .constants import TWO_PI
from .errors import (ConfigError, ConvergenceError, SequenceValidationError,
                     canonical_json)

__all__ = ["main"]


class _Emitter:
    """Renders output files as a command adds them and writes them all at
    the end, so a command that fails leaves no output directory.  None marks
    an undefined value (null in JSON, nan in CSV); a non-finite float is a
    numerical failure."""

    def __init__(self, out_dir: str, fmt: str, meta: bool, command: str):
        self.out = Path(out_dir)
        self.fmt = fmt
        self.meta = meta
        self.command = command
        self.files = []        # (file name, text)

    def table(self, name: str, header: list[str], rows: list[list]):
        if self.fmt == "json":
            self.document(name, {"header": header, "rows": rows})
            return
        if any(isinstance(v, float) and not math.isfinite(v)
               for row in rows for v in row):
            raise ConvergenceError(
                f"{name}.csv would hold a non-finite number")
        lines = ["# " + self._meta_line()] if self.meta else []
        lines.append(",".join(header))
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        self.text(f"{name}.csv", "\n".join(lines) + "\n")

    def document(self, name: str, obj: dict):
        if self.meta:
            obj = dict(obj, _meta=self._meta_line())
        try:
            text = canonical_json(obj)
        except ValueError:
            raise ConvergenceError(
                f"{name}.json would hold a non-finite number") from None
        self.text(f"{name}.json", text)

    def text(self, file_name: str, text: str):
        """A file written verbatim, without the meta line."""
        self.files.append((file_name, text))

    def _meta_line(self) -> str:
        import datetime

        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return f"chainqc {__version__} {self.command} {stamp}"

    def flush(self) -> list[str]:
        written = []
        try:
            self.out.mkdir(parents=True, exist_ok=True)
            for file_name, text in self.files:
                path = self.out / file_name
                path.write_text(text, encoding="utf-8")
                written.append(str(path))
        except OSError as exc:
            raise ConfigError(
                f"cannot write outputs under {self.out}: {exc}") from None
        return written


def _cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# --- commands ---------------------------------------------------------------


def cmd_lattice(cfg: config.RunConfig, em: _Emitter, args):
    from . import lattice

    s = cfg.section("lattice")
    lat = cfg.lattice()
    max_sep = s["max_plane_separation"]
    rows = []
    for sep in range(1, max_sep + 1):
        dw = lattice.dipolar_coupling(lat, 0.0, 0.0, sep * lat.a)
        rows.append([sep, dw, dw / TWO_PI])
    em.table("lattice_coupling",
             ["plane_separation", "delta_omega_rad_per_s",
              "delta_omega_Hz"], rows)

    lam_grid = [round(0.1 * k, 1) for k in range(0, 51)]
    em.table("lattice_b_coefficient", ["lambda", "b"],
             [[lam, lattice.b_coefficient(lam)] for lam in lam_grid])

    metrics = lattice.sigma_over_delta(
        lat, rel_tol=s["rel_tol"],
        include_lower_plane=s["include_lower_plane"])
    em.table("lattice_sigma_trace", ["cutoff_radius_m", "sigma_over_delta"],
             [[r, v] for r, v in metrics.trace])
    em.document("lattice_summary", {
        "lattice": lat.name,
        "a_m": lat.a,
        "delta_omega_nn_rad_per_s": metrics.delta_omega_nn,
        "delta_omega_nn_Hz": metrics.delta_omega_nn / TWO_PI,
        "sigma_rad_per_s": metrics.sigma,
        "sigma_over_delta": metrics.sigma_over_delta,
        "convergence_radius_m": metrics.convergence_radius,
        "n_transverse_sites": metrics.n_sites,
    })
    return f"sigma/delta = {metrics.sigma_over_delta:.6g}"


def cmd_magnet(cfg: config.RunConfig, em: _Emitter, args):
    import numpy as np

    from . import magnet

    s = cfg.section("magnet")
    lat = cfg.lattice()
    r0 = np.array(s["sample_origin_m"])
    n = s["n_planes"]
    if "grad_override_T_per_m" in s:
        grad = np.array([0.0, 0.0, s["grad_override_T_per_m"]])

        def field(r):
            return r * grad, np.zeros_like(r) + grad
    else:
        field = functools.partial(magnet.field, cfg.magnet())

    offsets, deltas = magnet.splitting_profile(field, r0, lat.a, n, lat.gamma)
    rows = []
    for i in range(n):
        d = float(deltas[i]) if i < n - 1 else None
        rows.append([i, float(offsets[i]), float(offsets[i] / TWO_PI),
                     d, None if d is None else d / TWO_PI])
    em.table("magnet_splitting_profile",
             ["plane", "offset_rad_per_s", "offset_Hz",
              "delta_to_next_rad_per_s", "delta_to_next_Hz"], rows)

    planes = r0 + np.outer(np.arange(n) * lat.a, (0.0, 0.0, 1.0))
    b, g = field(planes)
    em.table("magnet_field_map",
             ["plane", "z_m", "bz_T", "dBz_dx_T_per_m", "dBz_dy_T_per_m",
              "dBz_dz_T_per_m"],
             [[i, float(planes[i, 2]), float(b[i, 2]),
               *(float(c) for c in g[i])] for i in range(n)])

    rep = magnet.plane_homogeneity(
        field, r0, s["extent_x_m"], s["extent_y_m"], lat.a,
        samples=s["homogeneity_samples"],
        threshold=s["homogeneity_threshold"])
    em.document("magnet_summary", {
        "bz_at_origin_T": float(b[0, 2]),
        "grad_bz_at_origin_T_per_m": [float(c) for c in g[0]],
        "splitting_rad_per_s": float(deltas[0]) if n > 1 else 0.0,
        "splitting_Hz": float(deltas[0] / TWO_PI) if n > 1 else 0.0,
        "homogeneity": {
            "max_variation_T": rep.max_variation_t,
            "plane_step_T": rep.plane_step_t,
            "variation_fraction": rep.variation_fraction,
            "threshold": rep.threshold,
            "passed": rep.passed,
        },
    })
    return f"splitting = 2*pi * {deltas[0] / TWO_PI:.6g} Hz" if n > 1 else None


def cmd_schedule(cfg: config.RunConfig, em: _Emitter, args):
    from . import lattice, mrfm, pulses

    s = cfg.section("sequence")
    pair = s.get("recouple")
    if args.recouple is not None:
        try:
            i, j = (int(x) for x in args.recouple.split(","))
        except ValueError:
            raise ConfigError(
                "--recouple expects two comma-separated integers") from None
        pair = (i, j)
    bb = pulses.wahuha(s["tau_s"], s["pulse_width_s"])
    m = pulses.hadamard_sign_matrix(s["n_planes"])
    degraded = ()
    if pair is not None:
        rec = pulses.recouple(m, pair)
        m = rec.matrix
        degraded = rec.degraded_pairs
    sel = pulses.decoupling_schedule(m, s["slot_s"], s["pi_width_s"])
    merged = pulses.interleave(bb, sel)
    header, *rows = pulses.sequence_to_csv_rows(merged)
    em.table("schedule_timeline", header, rows)
    grad = cfg.section("spin_system")["grad_T_per_m"]
    t_c = mrfm.cycle_time_model(m.n, cfg.section("scalability")["L"],
                                lattice.splitting(cfg.lattice(), grad))
    em.document("schedule_validation", {
        "valid": True,
        "n_planes": m.n,
        "hadamard_order": m.k,
        "cycle_time_s": merged.cycle_time,
        "n_events": len(merged.events),
        "effective_coupling_scales": [list(r) for r in m.scales],
        "recoupled_pair": list(pair) if pair else None,
        "degraded_pairs": [[i, j, sc] for i, j, sc in degraded],
        "cycle_time_model_s": t_c,
    })
    em.text("schedule.json", pulses.sequence_to_json(merged))
    return (f"schedule: {len(merged.events)} events over "
            f"{merged.cycle_time:.3e} s")


def cmd_simulate(cfg: config.RunConfig, em: _Emitter, args):
    from . import pulses, spinsys

    ss = cfg.section("spin_system")
    seq_cfg = cfg.section("sequence")
    if seq_cfg["pi_width_s"] != 0:
        raise ConfigError("simulate runs zero-width pulses; "
                          "sequence.pi_width_s must be 0")
    lat = cfg.lattice()
    sys = spinsys.build_system(
        lat, ss["n_planes"], ss["chain_positions_a"], ss["grad_T_per_m"],
        include_same_plane=ss["include_same_plane"])
    summary = {"n_planes": ss["n_planes"],
               "n_chains": sys.n_chains,
               "schedule": ss["schedule"]}
    if ss["schedule"] == "decoupling":
        m = pulses.hadamard_sign_matrix(ss["n_planes"])
        seq = pulses.decoupling_schedule(m, seq_cfg["slot_s"])
        fid, phases = spinsys.diagonal_z_fidelity(
            spinsys.propagator_entries(sys, seq, range(sys.dim)))
        summary["identity_fidelity"] = fid
        summary["identity_infidelity"] = 1.0 - fid
        summary["z_phases_rad"] = [float(p) for p in phases]
        state = spinsys.QuantumState.all_plus_x(sys.total_spins)
    else:
        seq, perm = pulses.compile_cnot(sys, ss["cnot_control"],
                                        ss["cnot_target"])
        fid = spinsys.gate_fidelity(
            spinsys.propagator_entries(sys, seq, perm))
        summary["cnot_fidelity"] = fid
        summary["cnot_infidelity"] = 1.0 - fid
        summary["spectator_chains"] = sys.n_chains - 1
        state = spinsys.QuantumState.all_up(sys.total_spins)

    traj = spinsys.evolve(sys, seq, state, mode="ideal")
    rows = []
    for t, st in traj:
        rows.append([t] + [spinsys.expectation_iz_plane(sys, st, p)
                           for p in range(sys.n_planes)])
    em.table("simulate_trajectory",
             ["t_s"] + [f"iz_plane_{p}" for p in range(sys.n_planes)], rows)
    em.document("simulate_summary", summary)
    return f"fidelity = {fid:.12f}"


def cmd_scalability(cfg: config.RunConfig, em: _Emitter, args):
    from . import mrfm

    s = cfg.section("scalability")
    p = cfg.scalability()
    t2_grid = s["T2_grid_s"]
    n_grid = s["n_grid"]
    tags = [_t2_tag(t2) for t2 in t2_grid]
    for i, tag in enumerate(tags):
        if (j := tags.index(tag)) < i:
            raise ConfigError(
                f"scalability.T2_grid_s: {t2_grid[j]!r} and {t2_grid[i]!r} "
                f"both name column budgetL_T2_{tag}")
    rows = [[n, mrfm.required_field_over_temp(n, p),
             *(mrfm.budget_times_l(t2, p.delta_omega, n) for t2 in t2_grid)]
            for n in n_grid]
    cols = ["n", "B_over_T_required_T_per_K"]
    cols += [f"budgetL_T2_{tag}" for tag in tags]
    em.table("scalability_curve", cols, rows)
    budget = mrfm.gate_budget(p)
    em.document("scalability_summary", {
        "design_point": {
            "n": p.n,
            "B0_T": p.B0,
            "temperature_K": p.temperature,
            "force_N": mrfm.force_at_n(p, p.n),
            "threshold_N": p.detection_threshold,
        },
        "max_measurable_qubits": (n_max := mrfm.max_measurable_qubits(p)),
        "gate_budget": budget.budget,
        "gate_budget_times_L": budget.budget_times_l,
        "cycle_time_s": budget.cycle_time,
    })
    return f"max measurable qubits = {n_max}"


def _t2_tag(t2: float) -> str:
    txt = f"{t2:g}".replace(".", "p").replace("-", "m")
    return txt + "s"


def cmd_readout(cfg: config.RunConfig, em: _Emitter, args):
    import numpy as np

    from . import mrfm

    s = cfg.section("readout")
    params = cfg.cai()
    res = mrfm.simulate_cai_readout(
        params, initial=s["initial"],
        steps_per_period=s["steps_per_period"])
    stride = max(1, len(res.times) // 4000)
    rows = np.stack([res.times, res.iz, res.detuning],
                    axis=1)[::stride].tolist()
    em.table("readout_cai_trace",
             ["t_s", "iz", "detuning_rad_per_s"], rows)
    cant = cfg.cantilever()
    em.document("readout_summary", {
        "omega_1_rad_per_s": params.omega_1,
        "omega_m_rad_per_s": params.omega_m,
        "excursion_rad_per_s": params.excursion,
        "adiabaticity": params.adiabaticity,
        "following_figure": res.following_figure,
        "modulation_amplitude": res.modulation_amplitude,
        "norm_drift": res.norm_drift,
        "warning": params.excursion_warning(s.get("delta_omega_rad_per_s")),
        "thermal_force_noise_N_per_sqrt_Hz": mrfm.thermal_force_noise(cant),
    })
    if res.following_figure is not None:
        return f"following figure = {res.following_figure:.6f}"


# Each command returns its --verbose summary line, or None.
_COMMANDS = {
    "lattice": cmd_lattice,
    "magnet": cmd_magnet,
    "schedule": cmd_schedule,
    "simulate": cmd_simulate,
    "scalability": cmd_scalability,
    "readout": cmd_readout,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chainqc",
        description="Spin-chain register simulator and schedule compiler")
    ap.add_argument("--version", action="version",
                    version=f"chainqc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="JSON config file (defaults apply without one)")
        sp.add_argument("--out", default="out",
                        help="output directory (default: ./out)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads (at least 1); no effect until "
                             "the spin core runs in parallel")
        sp.add_argument("--no-meta", action="store_true",
                        help="omit the timestamped meta line")
        sp.add_argument("--verbose", action="store_true")
        if name == "schedule":
            sp.add_argument("--recouple", default=None, metavar="I,J",
                            help="recouple plane pair I,J")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        cfg = config.load_config(args.config)
        em = _Emitter(args.out, args.format, not args.no_meta, args.command)
        line = _COMMANDS[args.command](cfg, em, args)
        if args.verbose and line is not None:
            print(line)
        written = em.flush()
        if args.verbose:
            for path in written:
                print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except SequenceValidationError as exc:
        print(f"validation error: {exc}", file=_sys.stderr)
        for off in exc.offenders:
            print(f"  offender: {off}", file=_sys.stderr)
        return 3
    except _numerical_errors() as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3


def _numerical_errors() -> tuple[type[Exception], ...]:
    """The exceptions that exit 3 as a numerical failure.  numpy can raise
    LinAlgError only once a model has loaded it, so it is looked up when an
    exception arrives rather than imported at start-up."""
    linalg = _sys.modules.get("numpy.linalg")
    if linalg is None:
        return ConvergenceError, ArithmeticError
    return ConvergenceError, ArithmeticError, linalg.LinAlgError


if __name__ == "__main__":
    raise SystemExit(main())
