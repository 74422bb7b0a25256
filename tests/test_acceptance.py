"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line via the conftest helper (also
echoed in the terminal summary) and then asserts.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance

from chainqc.constants import HBAR, KB, MU0, TWO_PI
from chainqc import cli, config, lattice, magnet, mrfm, pulses, spinsys
from chainqc.magnet import PrismMagnet
from chainqc.mrfm import CAIParams
from chainqc.spinsys import Coupling, SpinSystem, SX, SY, SZ, single_spin_op

from test_magnet import bz_quadrature, exterior_points, moment


FAP = lattice.get_preset("fluorapatite")
CUBIC = lattice.get_preset("simple_cubic")
DESIGN = config.load_config(None).scalability()


def check(number, description, ok, detail=""):
    record_acceptance(number, description, ok, detail)
    assert ok, f"criterion {number} failed: {description} ({detail})"


def test_criterion_1_fluorapatite_linewidth_ratio():
    t0 = time.monotonic()
    ratio = lattice.sigma_over_delta(FAP).sigma_over_delta
    elapsed = time.monotonic() - t0
    ok = abs(ratio - 1.0 / 58.0) <= 0.05 / 58.0 and elapsed < 1.0
    check(1, "sigma/delta(fluorapatite) = 1/58 within 5%, under 1 s", ok,
          f"ratio={ratio:.6f}, 1/58={1/58:.6f}, {elapsed:.3f}s")


def test_criterion_2_crystal_comparison():
    t0 = time.monotonic()
    r_cubic = lattice.sigma_over_delta(CUBIC).sigma_over_delta
    r_fap = lattice.sigma_over_delta(FAP).sigma_over_delta
    elapsed = time.monotonic() - t0
    quot = r_cubic / r_fap
    ok = 5.0 <= quot <= 6.5 and elapsed < 1.0
    check(2, "sigma/delta ratio simple_cubic/fluorapatite in [5.0, 6.5]",
          ok, f"ratio={quot:.3f}, {elapsed:.3f}s")


def test_criterion_3_splitting_identity():
    dw = lattice.splitting(FAP, 1.4e6)
    target = TWO_PI * 19.2e3
    ok = abs(dw - target) <= 0.01 * target
    check(3, "splitting at 1.4 T/um and a=3.442 A = 2pi x 19.2 kHz +-1%",
          ok, f"dw/2pi={dw / TWO_PI:.1f} Hz")


def test_criterion_4_force_anchor():
    f10 = mrfm.force_at_n(DESIGN, 10)
    anchor = 1e-15 * 10 * 2.0**-10
    nmax = mrfm.max_measurable_qubits(DESIGN)
    ok = 0.5 <= f10 / anchor <= 2.0 and abs(nmax - 10) <= 2
    check(4, "force at n=10 within 2x of 1e-15*n*2^-n; max qubits = 10+-2",
          ok, f"F={f10:.3e} N, anchor={anchor:.3e} N, max={nmax}")


def _high_polarization_qubit_limit(p):
    """Real n* at which the readout force meets the detection threshold.

    In the limit sinh(n x) -> e^{n x}/2 the effective-pure magnetization is
    (gamma hbar N / 2) ((1 + tanh x)/2)^n, so F = F_thr at
    n* = ln(gamma hbar N |G| / (2 F_thr)) / ln(2 / (1 + tanh x)).
    The dropped factor 1 - e^{-2 n x} is below 1e-300 at B0/T = 2000 T/K.
    """
    x = HBAR * p.gamma * p.B0 / (2.0 * KB * p.temperature)
    f_thr = p.force_threshold * math.sqrt(p.bandwidth)
    return (math.log(p.gamma * HBAR * p.N * abs(p.grad) / (2.0 * f_thr))
            / math.log(2.0 / (1.0 + math.tanh(x))))


def test_criterion_5_extreme_regime_scaling():
    # The abstract: "as many as 300 qubits" at T = 10 mK and B0 = 20 T.
    # At high polarization n_max grows like e^{2x} (x = hbar gamma B0/2 kB T),
    # so a band on n is a band 4x narrower on B0/T; the claim is checked as
    # a lower bound at the abstract's own numbers, and the count is pinned
    # to its closed form.
    p_abstract = DESIGN._replace(B0=20.0, temperature=0.01)
    nmax = mrfm.max_measurable_qubits(p_abstract)
    claim = nmax >= 300
    # same B0/T, same count; the count is the floor of the closed form
    p2000 = DESIGN._replace(B0=2000.0, temperature=1.0)
    n_star = _high_polarization_qubit_limit(p2000)
    closed_form = (mrfm.max_measurable_qubits(p2000) == nmax
                   and nmax == math.floor(n_star))
    bt300 = mrfm.required_field_over_temp(300, DESIGN)
    # monotonicity of the required-field curve
    ns = [2, 5, 10, 30, 100, 300, 450]
    vals = [mrfm.required_field_over_temp(n, DESIGN) for n in ns]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))
    # round-trip consistency to +-1 qubit
    round_trip = True
    for n in (10, 100, 300):
        bt = mrfm.required_field_over_temp(n, DESIGN)
        p = DESIGN._replace(B0=bt * 1.0001, temperature=1.0)
        if abs(mrfm.max_measurable_qubits(p) - n) > 1:
            round_trip = False
    ok = claim and closed_form and monotone and round_trip
    check(5, "max qubits at 20 T / 10 mK >= 300 and = floor(n*) of the "
             "closed form; curve monotone and inverse-consistent", ok,
          f"max={nmax}, n*={n_star:.2f}, B0/T(300)={bt300:.0f} T/K vs "
          f"abstract 2000 T/K, monotone={monotone}, round_trip={round_trip}")


def test_criterion_6_gate_budget():
    exact = True
    for n in (2, 10, 50):
        b = mrfm.gate_budget(DESIGN._replace(n=n))
        if not math.isclose(b.budget_times_l,
                            DESIGN.T2_0 * DESIGN.delta_omega / n**2,
                            rel_tol=1e-12):
            exact = False
    b1 = mrfm.gate_budget(DESIGN._replace(T2_0=0.1)).budget
    b2 = mrfm.gate_budget(DESIGN._replace(T2_0=10.0)).budget
    b3 = mrfm.gate_budget(DESIGN._replace(T2_0=1000.0)).budget
    spacing = (math.isclose(b2 / b1, 100.0, rel_tol=1e-12)
               and math.isclose(b3 / b2, 100.0, rel_tol=1e-12))
    spot = mrfm.gate_budget(DESIGN._replace(n=10, T2_0=0.1)).budget_times_l
    spot_ok = abs(spot - 1.21e2) <= 0.01 * 1.21e2
    ok = exact and spacing and spot_ok
    check(6, "budget x L = T2_0 dOmega / n^2 exact; 20 dB trace spacing; "
             "spot 1.21e2 +-1%", ok, f"spot={spot:.4g}")


def test_criterion_7_decoupling_correctness():
    worst = 0.0
    for n_planes in (2, 3, 4):
        for k_rows in range(n_planes, 9):
            m = pulses.hadamard_sign_matrix(k_rows)
            sub = pulses.SignMatrix(m.rows[:n_planes])
            sys = spinsys.build_system(FAP, n_planes, [(0.0, 0.0)], 1.4e6)
            seq = pulses.decoupling_schedule(sub, 2e-6)
            U = spinsys.propagator(sys, seq).matrix
            fid, _ = spinsys.diagonal_z_fidelity(U)
            worst = max(worst, 1.0 - fid)
    dec_ok = worst < 1e-9

    dip = SpinSystem(1, 2, (0.0,), (Coupling(0, 1, 1e4),))
    Hbar = spinsys.average_hamiltonian_0(dip, pulses.wahuha(1e-6))
    dip_resid = float(np.max(np.abs(Hbar))) / 1e4
    w = 1e5
    off = SpinSystem(2, 1, (0.0, w), ())
    Hbar_w = spinsys.average_hamiltonian_0(off, pulses.wahuha(1e-6))
    G = sum(single_spin_op(2, 1, op) for op in (SX, SY, SZ)) / math.sqrt(3.0)
    scale = float(np.real(np.trace(Hbar_w @ G) / np.trace(G @ G))) / w
    scale_ok = abs(scale - 1.0 / math.sqrt(3.0)) < 1e-6
    ok = dec_ok and dip_resid < 1e-10 and scale_ok
    check(7, "Hadamard decoupling identity (z phases) < 1e-9; WAHUHA kills "
             "dipolar, offset scale 1/sqrt(3)", ok,
          f"worst_infid={worst:.2e}, dipolar={dip_resid:.2e}, "
          f"scale={scale:.9f}")


def test_criterion_8_gate_compilation():
    t0 = time.monotonic()
    iso = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
    seq, target = pulses.compile_cnot(iso, 0, 1)
    fid_iso = spinsys.gate_fidelity(
        spinsys.propagator_entries(iso, seq, target))

    lam = 9.367e-10 / FAP.a
    spect = spinsys.build_system(FAP, 2, [(0.0, 0.0), (lam, 0.0)], 1.4e6)
    seq2, target2 = pulses.compile_cnot(spect, 0, 1)
    infid = 1.0 - spinsys.gate_fidelity(
        spinsys.propagator_entries(spect, seq2, target2))
    sigma = lattice.sigma_over_delta(FAP).sigma_over_delta
    elapsed = time.monotonic() - t0
    ok = (fid_iso >= 1 - 1e-6 and 0.0 < infid <= 4.0 * sigma**2
          and elapsed < 10.0)
    check(8, "CNOT fidelity >= 1-1e-6 isolated; spectator infidelity in "
             "(0, 4(sigma/delta)^2]", ok,
          f"fid={fid_iso:.9f}, spectator_infid={infid:.3e}, "
          f"bound={4 * sigma**2:.3e}, {elapsed:.1f}s")


def test_criterion_9_magnetostatics_oracles():
    mag = PrismMagnet(w=10e-6, h=10e-6, d=10e-6, center=(0.0, 0.0, 6e-6),
                      magnetization=1.75e6)
    pts = exterior_points(mag, 100, seed=7)
    worst_bz = 0.0
    worst_g = 0.0
    h = 1e-11
    for p in pts:
        ana = magnet.bz_at(mag, p)
        quad = bz_quadrature(mag, p)
        ref = max(abs(quad), 1e-12)
        worst_bz = max(worst_bz, abs(ana - quad) / ref)
        g = magnet.grad_bz_at(mag, p)
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fd = (magnet.bz_at(mag, p + e) - magnet.bz_at(mag, p - e)) / (2 * h)
            gref = max(np.max(np.abs(g)), 1e-3)
            worst_g = max(worst_g, abs(g[ax] - fd) / gref)
    r = 55 * 10e-6
    dip = MU0 * moment(mag) / (4 * math.pi) * 2.0 / r**3
    far = magnet.bz_at(mag, np.array(mag.center) + np.array([0, 0, r]))
    far_ok = abs(far - dip) <= 0.01 * abs(dip)
    ok = worst_bz < 1e-6 and worst_g < 1e-6 and far_ok
    check(9, "prism Bz/grad match quadrature and finite differences to 1e-6 "
             "at 100 points; dipole far field 1%", ok,
          f"bz={worst_bz:.2e}, grad={worst_g:.2e}, "
          f"far_rel={(far - dip) / dip:.2e}")


def test_criterion_10_cai_readout():
    t0 = time.monotonic()
    w1 = TWO_PI * 10e3
    omega_m = w1 / 20.0
    params = CAIParams(b1=w1 / (TWO_PI * 40e6), omega_m=omega_m,
                       excursion=2.0 * w1,
                       n_periods=8, gamma=TWO_PI * 40e6)
    assert params.adiabaticity == pytest.approx(10.0)
    res = mrfm.simulate_cai_readout(params)
    spec = np.abs(np.fft.rfft(res.iz))
    freqs = np.fft.rfftfreq(len(res.iz), d=res.times[1] - res.times[0])
    peak = freqs[1 + int(np.argmax(spec[1:]))] * TWO_PI
    elapsed = time.monotonic() - t0
    ok = (res.following_figure >= 0.99
          and abs(peak - omega_m) <= 0.02 * omega_m
          and res.norm_drift < 1e-10
          and elapsed < 10.0)
    check(10, "CAI following >= 0.99 at adiabaticity 10, spectral peak at "
              "omega_m, norm conserved", ok,
          f"following={res.following_figure:.4f}, "
          f"peak/omega_m={peak / omega_m:.4f}, "
          f"norm_drift={res.norm_drift:.1e}, {elapsed:.1f}s")


def test_criterion_11_cli_determinism(tmp_path):
    commands = ["lattice", "magnet", "schedule", "simulate", "scalability",
                "readout"]
    ok = True
    detail = []
    for cmd in commands:
        outputs = {}
        for tag, threads in (("a1", "1"), ("b1", "1"),
                             ("a8", "8"), ("b8", "8")):
            out = tmp_path / cmd / tag
            code = cli.main([cmd, "--out", str(out), "--no-meta",
                             "--threads", threads])
            if code != 0:
                ok = False
                detail.append(f"{cmd}: exit {code}")
                break
            outputs[tag] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
        else:
            same = (outputs["a1"] == outputs["b1"] == outputs["a8"]
                    == outputs["b8"])
            if not same:
                ok = False
                detail.append(f"{cmd}: outputs differ")
    check(11, "every CLI command byte-identical across reruns and thread "
              "counts (--no-meta)", ok, "; ".join(detail) or "6 commands")
