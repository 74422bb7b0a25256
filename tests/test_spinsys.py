"""Exact spin dynamics: operators, Hamiltonians, propagation, fidelities."""

import math

import numpy as np
import pytest

from chainqc.constants import HBAR, MU0, TWO_PI
from chainqc.errors import ConfigError
from chainqc import lattice, pulses, spinsys
from chainqc.spinsys import (
    Coupling,
    Propagator,
    QuantumState,
    SpinSystem,
    SX,
    SY,
    SZ,
    single_spin_op,
)


FAP = lattice.get_preset("fluorapatite")


def expi(A):
    w, V = np.linalg.eigh(A)
    return (V * np.exp(1j * w)) @ V.conj().T


class TestOperators:
    def test_spin_half_algebra(self):
        comm = SX @ SY - SY @ SX
        assert np.allclose(comm, 1j * SZ)
        assert np.allclose(SX @ SX, 0.25 * np.eye(2))

    def test_embedding(self):
        op = single_spin_op(3, 1, SZ)
        assert op.shape == (8, 8)
        # acts only on the middle tensor factor
        expect = np.kron(np.kron(np.eye(2), SZ), np.eye(2))
        assert np.allclose(op, expect)


class TestSpinSystem:
    def test_indexing(self):
        sys = SpinSystem(2, ((0.0, 0.0), (1.0, 0.0)), (0.0, 1.0), ())
        assert sys.n_chains == 2
        assert sys.total_spins == 4
        assert sys.spin_index(1, 1) == 3

    def test_spin_cap(self):
        with pytest.raises(ConfigError):
            SpinSystem(13, ((0.0, 0.0),), (0.0,) * 13, ())

    def test_duplicate_coupling_rejected(self):
        with pytest.raises(ConfigError):
            SpinSystem(2, ((0.0, 0.0),), (0.0, 0.0),
                       (Coupling(0, 1, "zz", 1.0), Coupling(1, 0, "zz", 2.0)))

    def test_zz_hamiltonian_spectrum(self):
        sys = SpinSystem(2, ((0.0, 0.0),), (0.0, 0.0),
                         (Coupling(0, 1, "zz", 4.0),))
        H = sys.hamiltonian()
        assert np.allclose(H, H.conj().T)
        assert np.allclose(sorted(np.linalg.eigvalsh(H)),
                           [-1.0, -1.0, 1.0, 1.0])

    def test_full_dipolar_flip_flop(self):
        # (1/2) c (3 IzIz - I.I) contains the -c/4 (I+I- + I-I+) flip-flop
        sys = SpinSystem(2, ((0.0, 0.0),), (0.0, 0.0),
                         (Coupling(0, 1, "full_dipolar", 4.0),))
        H = sys.hamiltonian()
        up_down = np.zeros(4)
        up_down[1] = 1.0
        down_up = np.zeros(4)
        down_up[2] = 1.0
        assert up_down @ H @ down_up == pytest.approx(-1.0)
        # diagonal: (1/2) c (3(-1/4) - (-1/4)) = -c/4
        assert up_down @ H @ up_down == pytest.approx(-1.0)
        up_up = np.zeros(4)
        up_up[0] = 1.0
        assert up_up @ H @ up_up == pytest.approx(1.0)


class TestBuildSystem:
    def test_coupling_coefficients(self):
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        assert sys.offsets[1] == pytest.approx(lattice.splitting(FAP, 1.4e6))
        c = sys.couplings[0]
        assert c.kind == "zz"
        assert c.coeff == pytest.approx(
            lattice.intra_chain_coupling(FAP, 0, 1))

    def test_cross_chain_geometry(self):
        lam = 2.0
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0), (lam, 0.0)], 1.4e6)
        base = MU0 / (4 * math.pi) * FAP.gamma**2 * HBAR
        # cross-chain, cross-plane pair at (lam*a, 0, a)
        r = FAP.a * math.sqrt(lam**2 + 1.0)
        cos2 = (FAP.a / r) ** 2
        expect = base * (1 - 3 * cos2) / r**3
        got = [c.coeff for c in sys.couplings
               if {c.i, c.j} == {0, 3}]
        assert got[0] == pytest.approx(expect)
        # consistency with the b(lambda) form: coeff = |delta_nn| b(lambda)
        delta = lattice.intra_chain_coupling(FAP, 0, 1)
        assert got[0] == pytest.approx(
            abs(delta) * lattice.b_coefficient(lam), rel=1e-9)

    def test_same_plane_toggle(self):
        with_sp = spinsys.build_system(FAP, 1, [(0.0, 0.0), (2.7, 0.0)], 1e6)
        without = spinsys.build_system(FAP, 1, [(0.0, 0.0), (2.7, 0.0)], 1e6,
                                       include_same_plane=False)
        assert len(with_sp.couplings) == 1
        assert with_sp.couplings[0].kind == "full_dipolar"
        assert len(without.couplings) == 0

    def test_cap(self):
        with pytest.raises(ConfigError):
            spinsys.build_system(FAP, 13, [(0.0, 0.0)], 1e6)
        # checked before the pair loop, which would take hours at this size
        with pytest.raises(ConfigError, match="exceeds the cap"):
            spinsys.build_system(FAP, 10**6, [(0.0, 0.0)], 1e6)


class TestQuantumState:
    def test_norm_enforced(self):
        with pytest.raises(ConfigError):
            QuantumState.pure(np.array([1.0, 1.0]))

    def test_pure_nan_rejected(self):
        with pytest.raises(ConfigError):
            QuantumState.pure([np.nan, 0.0])

    def test_density_nan_rejected(self):
        with pytest.raises(ConfigError):
            QuantumState.density(np.full((2, 2), np.nan))

    def test_density_invariants(self):
        with pytest.raises(ConfigError):
            QuantumState.density(np.array([[0.5, 0.6], [0.6, 0.5]]))
        rho = QuantumState.maximally_mixed(2)
        assert rho.expectation(single_spin_op(2, 0, SZ)) == pytest.approx(0.0)

    def test_product_and_expectation(self):
        st = QuantumState.all_up(2)
        assert st.expectation(single_spin_op(2, 0, SZ)) == pytest.approx(0.5)
        plus = QuantumState.all_plus_x(1)
        assert plus.expectation(2 * SX) == pytest.approx(1.0)

    def test_fidelity(self):
        a = QuantumState.all_up(1)
        b = QuantumState.pure(np.array([0.0, 1.0]))
        assert a.fidelity_to(a) == pytest.approx(1.0)
        assert a.fidelity_to(b) == pytest.approx(0.0)


class TestEvolution:
    def test_free_zz_phase_oracle(self):
        # analytic two-spin zz phases: exp(-i J t IzIz)
        J = 1.0e4
        sys = SpinSystem(2, ((0.0, 0.0),), (0.0, 0.0),
                         (Coupling(0, 1, "zz", J),))
        t = 0.37e-4
        seq = pulses.Sequence((), cycle_time=t)
        U = spinsys.propagator(sys, seq).matrix
        phases = np.exp(-1j * J * t * np.array([0.25, -0.25, -0.25, 0.25]))
        assert np.allclose(np.diag(U), phases)
        assert np.allclose(U, np.diag(np.diag(U)))

    def test_pulse_convention(self):
        # exp(+i pi Ix) flips z polarization
        sys = SpinSystem(1, ((0.0, 0.0),), (0.0,), ())
        ev = pulses.PulseEvent(0.0, 0.0, math.pi, pulses.PHASE_X, 0)
        seq = pulses.Sequence((ev,), cycle_time=0.0)
        out = spinsys.evolve(sys, seq, QuantumState.all_up(1))
        assert out[-1][1].expectation(SZ) == pytest.approx(-0.5)

    def test_offset_precession(self):
        w = 2.0e5
        sys = SpinSystem(1, ((0.0, 0.0),), (w,), ())
        t = 1.3e-5
        seq = pulses.Sequence((), cycle_time=t)
        out = spinsys.evolve(sys, seq, QuantumState.all_plus_x(1))
        st = out[-1][1]
        # H = w Iz: <Ix>(t) = cos(w t)/2, <Iy>(t) = sin(w t)/2
        assert st.expectation(SX) == pytest.approx(0.5 * math.cos(w * t))
        assert st.expectation(SY) == pytest.approx(0.5 * math.sin(w * t))

    def test_sampled_pulse_matches_ideal_on_resonance(self):
        sys = SpinSystem(1, ((0.0, 0.0),), (0.0,), ())
        dur = 1e-6
        ev = pulses.PulseEvent(0.0, dur, math.pi / 2, pulses.PHASE_X,
                               "broadband")
        seq = pulses.Sequence((ev,), cycle_time=dur)
        U_s = spinsys.propagator(sys, seq, mode="sampled").matrix
        U_i = expi(math.pi / 2 * np.asarray(SX))
        fid = abs(np.trace(U_i.conj().T @ U_s)) / 2
        assert fid > 1 - 1e-6

    def test_selective_pulse_spares_far_plane(self):
        # strong splitting, weak long pulse on plane 0: plane 1 stays put
        # (no zz coupling here; a coupling stronger than w1 would block the
        # flip just like a real detuning)
        dw = lattice.splitting(FAP, 1.4e6)
        sys = SpinSystem(2, ((0.0, 0.0),), (0.0, dw), ())
        dur = 100.0 * TWO_PI / dw  # w1 ~ dw/400, far below the splitting
        ev = pulses.PulseEvent(0.0, dur, math.pi, pulses.PHASE_X, 0)
        seq = pulses.Sequence((ev,), cycle_time=dur)
        out = spinsys.evolve(sys, seq, QuantumState.all_up(2), "sampled")
        st = out[-1][1]
        assert spinsys.expectation_iz_plane(sys, st, 0) < -0.45
        assert spinsys.expectation_iz_plane(sys, st, 1) > 0.45

    def test_one_eigendecomposition_per_system(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: shapes.append(a.shape) or eigh(a))
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        seq = pulses.decoupling_schedule(pulses.hadamard_sign_matrix(3), 6e-6)
        spinsys.propagator(sys, seq)
        spinsys.evolve(sys, seq, QuantumState.all_plus_x(3))
        assert shapes == [(8, 8)]

    @pytest.mark.parametrize("seq, n_finite", [
        (pulses.wahuha(1e-6, 2e-7), 4),
        (pulses.Sequence((pulses.PulseEvent(0.0, 1e-6, math.pi, 0.0, 1),),
                         cycle_time=1e-6), 1),
    ])
    def test_one_eigendecomposition_per_finite_pulse(self, monkeypatch, seq,
                                                     n_finite):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        spinsys.propagator(sys, seq, mode="sampled")
        has_free_window = seq.cycle_time > sum(e.duration for e in seq.events)
        assert len(calls) == n_finite + has_free_window

    def test_ideal_mode_rejects_finite_width(self):
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        seq = pulses.wahuha(1e-6, 1e-7)
        with pytest.raises(ConfigError, match="zero-width"):
            spinsys.propagator(sys, seq, mode="ideal")
        with pytest.raises(ConfigError, match="zero-width"):
            spinsys.evolve(sys, seq, QuantumState.all_up(2), mode="ideal")

    @pytest.mark.parametrize("width, mode", [(0.0, "ideal"),
                                             (1e-6, "sampled")])
    def test_pulse_on_missing_plane_rejected(self, width, mode):
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        ev = pulses.PulseEvent(0.0, width, math.pi, pulses.PHASE_X, 5)
        seq = pulses.Sequence((ev,), cycle_time=2e-6)
        with pytest.raises(ConfigError, match="plane 5 out of range"):
            spinsys.propagator(sys, seq, mode=mode)
        with pytest.raises(ConfigError, match="plane 5 out of range"):
            spinsys.evolve(sys, seq, QuantumState.all_up(3), mode=mode)

    def test_propagator_unitary_check(self):
        with pytest.raises(ConfigError):
            Propagator(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))

    def test_propagator_rejects_nan(self):
        with pytest.raises(ConfigError):
            Propagator(np.full((2, 2), np.nan))


class TestFidelities:
    def test_gate_fidelity_phase_invariant(self):
        U = expi(0.3 * 2 * np.asarray(SY))
        a = Propagator(U)
        b = Propagator(np.exp(1j * 0.7) * U)
        assert spinsys.gate_fidelity(a, b) == pytest.approx(1.0)

    def test_diagonal_z_fidelity(self):
        Iz0 = single_spin_op(2, 0, SZ)
        Iz1 = single_spin_op(2, 1, SZ)
        U = expi(0.4 * Iz0 + 1.1 * Iz1) * np.exp(1j * 0.2)
        fid, phases = spinsys.diagonal_z_fidelity(U)
        assert fid == pytest.approx(1.0, abs=1e-12)
        # a zz phase is not a product of single-spin z rotations
        U2 = expi(0.4 * Iz0 + 1.1 * Iz1 + 2.0 * (Iz0 @ Iz1) * 4)
        fid2, _ = spinsys.diagonal_z_fidelity(U2)
        assert fid2 < 0.99


class TestAverageHamiltonian:
    def test_wahuha_kills_dipolar(self):
        sys = SpinSystem(2, ((0.0, 0.0),), (0.0, 0.0),
                         (Coupling(0, 1, "full_dipolar", 1e4),))
        Hbar = spinsys.average_hamiltonian_0(sys, pulses.wahuha(1e-6))
        assert np.max(np.abs(Hbar)) < 1e-10 * 1e4

    def test_wahuha_offset_scale(self):
        w = 7.0e4
        sys = SpinSystem(2, ((0.0, 0.0),), (0.0, w), ())
        Hbar = spinsys.average_hamiltonian_0(sys, pulses.wahuha(1e-6))
        pred = (w / 3.0) * sum(single_spin_op(2, 1, op)
                               for op in (SX, SY, SZ))
        assert np.max(np.abs(Hbar - pred)) < 1e-10 * w
        # component along the unit generator (Ix+Iy+Iz)/sqrt(3) is w/sqrt(3)
        G = sum(single_spin_op(2, 1, op)
                for op in (SX, SY, SZ)) / math.sqrt(3.0)
        scale = np.real(np.trace(Hbar @ G) / np.trace(G @ G))
        assert scale / w == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    def test_requires_ideal_pulses(self):
        sys = SpinSystem(1, ((0.0, 0.0),), (0.0,), ())
        seq = pulses.wahuha(1e-6, pulse_width=1e-7)
        with pytest.raises(ConfigError):
            spinsys.average_hamiltonian_0(sys, seq)
