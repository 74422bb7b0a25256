"""Exact spin dynamics: operators, Hamiltonians, propagation, fidelities."""

import dataclasses
import math
import re
import time

import numpy as np
import pytest

from chainqc.constants import HBAR, MU0, TWO_PI
from chainqc.errors import ConfigError
from chainqc import lattice, pulses, spinsys
from chainqc.spinsys import (
    ID2,
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


def pi_cycle_diagonal(sys, seq):
    """diag(U) as `simulate` reads it for the decoupling cycle."""
    return spinsys.propagator_entries(sys, seq, range(sys.dim))


def expi(A):
    w, V = np.linalg.eigh(A)
    return (V * np.exp(1j * w)) @ V.conj().T


def expectation(state, op):
    """<op> in a pure state or a density operator."""
    if state.kind == "pure":
        return float(np.real(state.data.conj() @ op @ state.data))
    return float(np.real(np.trace(op @ state.data)))


def fidelity(a, b):
    """|<b|a>|^2 of two pure states."""
    return float(abs(np.vdot(b.data, a.data)) ** 2)


def maximally_mixed(n_spins):
    d = 2 ** n_spins
    return QuantumState.density(np.eye(d) / d)


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

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name", ["SX", "SY", "SZ", "ID2", "general"])
    def test_embedding_equals_kronecker_chain(self, n, name):
        # oracle: the Kronecker chain the bit-table writer replaced
        op = {"SX": SX, "SY": SY, "SZ": SZ, "ID2": ID2,
              "general": np.array([[0.3 - 1.7j, -2.1 + 0.4j],
                                   [1.1 + 0.9j, -0.6 - 0.2j]])}[name]
        for index in range(n):
            chain = np.array([[1.0 + 0.0j]])
            for k in range(n):
                chain = np.kron(chain, op if k == index else ID2)
            out = single_spin_op(n, index, op)
            assert out.dtype == complex
            assert np.array_equal(out, chain)


class TestSpinSystem:
    def test_indexing(self):
        sys = SpinSystem(2, 2, (0.0, 1.0), ())
        assert sys.total_spins == 4
        assert sys.spin_index(1, 1) == 3

    @pytest.mark.parametrize("n_planes, n_chains", [(2, 0), (0, 1)])
    def test_empty_register_rejected(self, n_planes, n_chains):
        with pytest.raises(ConfigError, match="at least one plane and one"):
            SpinSystem(n_planes, n_chains, (0.0,) * n_planes, ())
        with pytest.raises(ConfigError, match="at least one plane and one"):
            spinsys.build_system(FAP, n_planes, [(0.0, 0.0)] * n_chains, 1e6)

    def test_spin_cap(self):
        with pytest.raises(ConfigError):
            SpinSystem(13, 1, (0.0,) * 13, ())

    def test_duplicate_coupling_rejected(self):
        with pytest.raises(ConfigError):
            SpinSystem(2, 1, (0.0, 0.0),
                       (Coupling(0, 1, 1.0), Coupling(1, 0, 2.0)))

    @pytest.mark.parametrize("offsets, coupling", [
        ((0.0, 0.0), Coupling(-1, 0, 1.0)),
        ((0.0, 0.0), Coupling(0, 5, 1.0)),
        ((0.0, 0.0), Coupling(1, 1, 1.0)),
        ((0.0, 0.0), Coupling(0, 1, math.nan)),
        ((0.0, 0.0), Coupling(0, 1, math.inf)),
        ((math.nan, 0.0), Coupling(0, 1, 1.0)),
        ((0.0, -math.inf), Coupling(0, 1, 1.0)),
    ])
    def test_bad_table_rejected_when_built(self, offsets, coupling):
        # otherwise an IndexError traceback or a NaN H surfaces only later
        with pytest.raises(ConfigError):
            SpinSystem(2, 1, offsets, (coupling,))

    def test_zz_hamiltonian_spectrum(self):
        # two planes, one chain: the pair is zz
        sys = SpinSystem(2, 1, (0.0, 0.0), (Coupling(0, 1, 4.0),))
        H = sys.hamiltonian()
        assert np.allclose(H, H.conj().T)
        assert np.allclose(sorted(np.linalg.eigvalsh(H)),
                           [-1.0, -1.0, 1.0, 1.0])

    def test_full_dipolar_flip_flop(self):
        # one plane, two chains: the pair is full dipolar, and
        # (1/2) c (3 IzIz - I.I) contains the -c/4 (I+I- + I-I+) flip-flop
        sys = SpinSystem(1, 2, (0.0,), (Coupling(0, 1, 4.0),))
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
        assert (c.i, c.j) == (0, 1)
        assert c.coeff == lattice.dipolar_coupling(FAP, 0.0, 0.0, FAP.a)

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
        assert got[0] == lattice.dipolar_coupling(FAP, lam * FAP.a, 0.0, FAP.a)
        # consistency with the b(lambda) form: coeff = |delta_nn| b(lambda)
        delta = lattice.dipolar_coupling(FAP, 0.0, 0.0, FAP.a)
        assert got[0] == pytest.approx(
            abs(delta) * lattice.b_coefficient(lam), rel=1e-9)

    def test_same_plane_toggle(self):
        with_sp = spinsys.build_system(FAP, 1, [(0.0, 0.0), (2.7, 0.0)], 1e6)
        without = spinsys.build_system(FAP, 1, [(0.0, 0.0), (2.7, 0.0)], 1e6,
                                       include_same_plane=False)
        assert with_sp.couplings == (spinsys.Coupling(
            0, 1, lattice.dipolar_coupling(FAP, 2.7 * FAP.a, 0.0, 0.0)),)
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
        rho = maximally_mixed(2)
        assert expectation(rho, single_spin_op(2, 0, SZ)) == pytest.approx(0.0)

    def test_product_and_expectation(self):
        st = QuantumState.all_up(2)
        assert expectation(st, single_spin_op(2, 0, SZ)) == pytest.approx(0.5)
        plus = QuantumState.all_plus_x(1)
        assert expectation(plus, 2 * SX) == pytest.approx(1.0)

    def test_plane_iz_of_density_matches_pure(self):
        # rho = |psi><psi| reads <Iz> off diag(rho) where a pure state uses
        # |psi|^2; over 200 random 3x2 states the two differed by at most
        # 2.2e-16.
        sys = spinsys.build_system(FAP, 3, [[0.0, 0.0], [2.7214, 0.0]],
                                   1.4e6)
        rng = np.random.default_rng(7)
        v = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
        psi = QuantumState.pure(v / np.linalg.norm(v))
        rho = QuantumState.density(np.outer(psi.data, psi.data.conj()))
        for plane in range(sys.n_planes):
            assert spinsys.expectation_iz_plane(sys, rho, plane) == \
                pytest.approx(spinsys.expectation_iz_plane(sys, psi, plane),
                              rel=0, abs=1e-15)

    @pytest.mark.parametrize("n_planes, seq, mode", [
        (4, pulses.decoupling_schedule(pulses.hadamard_sign_matrix(4), 6e-6),
         "ideal"),
        (3, pulses.wahuha(1e-6, 2e-7), "sampled"),
    ])
    def test_density_step_is_hermitian_with_unit_trace(self, n_planes, seq,
                                                       mode):
        def two_sided(rho, step):
            # the reference: U rho U^dag through two conjugate-transposes,
            # its Hermitian part, then a division by the trace
            rho = step(step(rho).conj().T).conj().T
            rho = 0.5 * (rho + rho.conj().T)
            return rho / np.trace(rho).real
        sys = spinsys.build_system(FAP, n_planes, [(0.0, 0.0), (2.7214, 0.0)],
                                   1.4e6)
        rng = np.random.default_rng(11)
        A = rng.normal(size=(sys.dim, sys.dim)) + 1j * rng.normal(
            size=(sys.dim, sys.dim))
        rho = A @ A.conj().T
        state = QuantumState.density(rho / np.trace(rho).real)
        for _, step in spinsys._walk(sys, seq, mode):
            new = state._stepped(step)
            assert np.array_equal(new.data, new.data.conj().T)
            assert abs(np.trace(new.data) - 1.0) <= 1e-14
            # x (1 / T) against x / T: one rounding apart; measured equal
            # on every segment of 20 random densities through each walk
            old = two_sided(state.data, step)
            assert np.max(np.abs(new.data - old)) <= \
                2.0**-51 * np.max(np.abs(old))
            state = new

    def test_fidelity(self):
        a = QuantumState.all_up(1)
        b = QuantumState.pure(np.array([0.0, 1.0]))
        assert fidelity(a, a) == pytest.approx(1.0)
        assert fidelity(a, b) == pytest.approx(0.0)


@pytest.fixture
def exponents(monkeypatch):
    """Exponents passed to np.linalg.matrix_power: one per pulse operator."""
    seen = []
    power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda A, p: seen.append(p) or power(A, p))
    return seen


class TestEvolution:
    def test_free_zz_phase_oracle(self):
        # analytic two-spin zz phases: exp(-i J t IzIz)
        J = 1.0e4
        sys = SpinSystem(2, 1, (0.0, 0.0), (Coupling(0, 1, J),))
        t = 0.37e-4
        seq = pulses.Sequence((), cycle_time=t)
        U = spinsys.propagator(sys, seq).matrix
        phases = np.exp(-1j * J * t * np.array([0.25, -0.25, -0.25, 0.25]))
        assert np.allclose(np.diag(U), phases)
        assert np.allclose(U, np.diag(np.diag(U)))

    def test_pulse_convention(self):
        # exp(+i pi Ix) flips z polarization
        sys = SpinSystem(1, 1, (0.0,), ())
        ev = pulses.PulseEvent(0.0, 0.0, math.pi, pulses.PHASE_X, 0)
        seq = pulses.Sequence((ev,), cycle_time=0.0)
        out = spinsys.evolve(sys, seq, QuantumState.all_up(1))
        assert expectation(out[-1][1], SZ) == pytest.approx(-0.5)

    def test_offset_precession(self):
        w = 2.0e5
        sys = SpinSystem(1, 1, (w,), ())
        t = 1.3e-5
        seq = pulses.Sequence((), cycle_time=t)
        out = spinsys.evolve(sys, seq, QuantumState.all_plus_x(1))
        st = out[-1][1]
        # H = w Iz: <Ix>(t) = cos(w t)/2, <Iy>(t) = sin(w t)/2
        assert expectation(st, SX) == pytest.approx(0.5 * math.cos(w * t))
        assert expectation(st, SY) == pytest.approx(0.5 * math.sin(w * t))

    def test_sampled_pulse_matches_ideal_on_resonance(self):
        sys = SpinSystem(1, 1, (0.0,), ())
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
        sys = SpinSystem(2, 1, (0.0, dw), ())
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
        # one chain: every sector is a single basis state, so no eigh at all
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        seq = pulses.decoupling_schedule(pulses.hadamard_sign_matrix(3), 6e-6)
        spinsys.propagator(sys, seq)
        spinsys.evolve(sys, seq, QuantumState.all_plus_x(3))
        assert shapes == []
        # 4x2: a plane's sectors hold 1, 2 and 1 states, so the largest
        # sector has 2**4 states; one stacked call per block size
        sys = spinsys.build_system(FAP, 4, [(0.0, 0.0), (2.7214, 0.0)], 1.4e6)
        seq = pulses.decoupling_schedule(pulses.hadamard_sign_matrix(4), 6e-6)
        spinsys.propagator(sys, seq)
        assert [s[1:] for s in shapes] == [(b, b) for b in (2, 4, 8, 16)]
        assert sum(n * b for n, b, _ in shapes) == sys.dim - 2**4
        spinsys.propagator(sys, seq)
        spinsys.evolve(sys, seq, QuantumState.all_plus_x(8))
        assert len(shapes) == 4

    @pytest.mark.parametrize("seq, n_shapes", [
        (pulses.wahuha(1e-6, 2e-7), 1),
        (pulses.Sequence((pulses.PulseEvent(0.0, 1e-6, math.pi, 0.0, 1),),
                         cycle_time=1e-6), 1),
        # two widths: two drive strengths and sub-steps
        (pulses.Sequence((pulses.PulseEvent(0.0, 1e-6, math.pi, 0.0, 1),
                          pulses.PulseEvent(1e-6, 5e-7, math.pi, 0.0, 1)),
                         cycle_time=2e-6), 2),
        # one (w1, dt) on two planes: one W, two pulse operators
        (pulses.Sequence((pulses.PulseEvent(0.0, 1e-6, math.pi, 0.0, 1),
                          pulses.PulseEvent(1e-6, 1e-6, math.pi, 0.0, 2)),
                         cycle_time=2e-6), 1),
    ])
    def test_one_eigendecomposition_per_finite_pulse(self, monkeypatch, seq,
                                                     n_shapes):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        spinsys.propagator(sys, seq, mode="sampled")
        # one chain: the free windows' sectors are single states, no eigh
        assert len(calls) == n_shapes

    def test_pulse_operator_built_once_per_walk(self, exponents):
        # WAHUHA's pulses on plane 1 at 3 spins: one pulse shape of 10
        # sub-steps, so a state vector, a density matrix and a propagator
        # each build (W D)^9 W once per walk, whatever their number of
        # columns
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        wahuha = pulses.wahuha(1e-6, 2e-7)
        seq = pulses.Sequence(
            tuple(dataclasses.replace(ev, target=1) for ev in wahuha.events),
            cycle_time=wahuha.cycle_time)
        spinsys.evolve(sys, seq, QuantumState.all_plus_x(3), "sampled")
        assert exponents == [9]
        spinsys.evolve(sys, seq, maximally_mixed(3), "sampled")
        assert exponents == [9, 9]
        spinsys.propagator(sys, seq, mode="sampled")
        assert exponents == [9, 9, 9]

    def test_broadband_pulse_operator_is_the_powered_bracket(
            self, exponents, monkeypatch):
        # a broadband drive has D = I, so its bracket is W^n in closed
        # form: no matrix_power, and the one eigh of H - w1 Fx per walk
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        spinsys.propagator(sys, pulses.wahuha(1e-6, 2e-7), mode="sampled")
        assert exponents == [] and len(calls) == 1
        # one pulse at phase 0 has r_0 = r_{n-1} = I: the step is W^10
        width, w1 = 2e-7, (math.pi / 2) / 2e-7
        ev = pulses.PulseEvent(0.0, width, math.pi / 2, 0.0, "broadband")
        P = spinsys._sampled_pulse_step(sys, ev, {})(
            np.eye(sys.dim, dtype=complex))
        fields, tensors = sys._terms()
        fields[:, 0] = -w1
        A = spinsys._bit_blocks(sys, fields, tensors)[0][1][0]
        W = spinsys._expm_real_sym(*np.linalg.eigh(A), width / 10)
        # measured at most 9.5e-15 over 27 registers up to 4x2, gradients
        # and widths: the 4 products of binary powering round, W^n does not
        assert np.max(np.abs(P - np.linalg.matrix_power(W, 9) @ W)) <= 2e-14

    def test_long_pulse_propagator_is_fast(self, exponents):
        # about 10^5 sub-steps, built by binary powering in ~30 products
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        width = 1e5 / (20.0 * sys.offsets[-1])
        ev = pulses.PulseEvent(0.0, width, math.pi, pulses.PHASE_X, 1)
        seq = pulses.Sequence((ev,), cycle_time=width)
        t0 = time.perf_counter()
        spinsys.propagator(sys, seq, mode="sampled")
        assert time.perf_counter() - t0 < 0.5
        assert len(exponents) == 1 and exponents[0] >= 10**5 - 1

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

    @pytest.mark.parametrize("width, flip, offset", [
        (5e-324, math.pi, 1e5),    # the sub-step underflows to 0
        (5e-324, 1e-300, 1e5),
        (1e10, math.pi, 1e300),    # width over the sub-step overflows
        (1e-310, math.pi, 1e5),    # flip_angle/width overflows to inf
        (1e-320, math.pi, 1e5),
    ])
    def test_unsampleable_finite_pulse_rejected(self, width, flip, offset):
        sys = SpinSystem(2, 1, (0.0, offset), ())
        ev = pulses.PulseEvent(1e-6, width, flip, pulses.PHASE_X, 0)
        seq = pulses.Sequence((ev,), cycle_time=2e-6 + width)
        where = f"finite pulse at t = 1e-06 s, width {width:.3g} s"
        with pytest.raises(ConfigError, match=re.escape(where)):
            spinsys.propagator(sys, seq, mode="sampled")
        with pytest.raises(ConfigError, match=re.escape(where)):
            spinsys.evolve(sys, seq, QuantumState.all_up(2), mode="sampled")

    def test_propagator_unitary_check(self):
        with pytest.raises(ConfigError):
            Propagator(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))

    def test_propagator_rejects_nan(self):
        with pytest.raises(ConfigError):
            Propagator(np.full((2, 2), np.nan))


class TestSectorCarry:
    @pytest.mark.parametrize("n_planes, n_chains", [
        (3, 1), (8, 1), (4, 2), (2, 3), (4, 3)])
    def test_sector_blocks_written_without_dense_h(self, monkeypatch,
                                                   n_planes, n_chains):
        chains = [(0.0, 0.0), (2.7214, 0.0), (1.3607, 2.3568)][:n_chains]
        sys = spinsys.build_system(FAP, n_planes, chains, 1.4e6)

        def fail(self):
            raise AssertionError("dense H built")
        monkeypatch.setattr(SpinSystem, "hamiltonian", fail)
        blocks = spinsys._bit_blocks(sys, *sys._terms(), range(n_planes))
        [(_, (H,))] = spinsys._bit_blocks(sys, *sys._terms())
        scattered = np.zeros_like(H)
        for rows, Hb in blocks:
            assert np.array_equal(Hb, H[rows[:, :, None], rows[:, None, :]])
            scattered[rows[:, :, None], rows[:, None, :]] = Hb
        # the writer drops only exact zeros: nothing of H is outside a block
        assert np.array_equal(scattered, H)

    def test_propagator_entries_take_only_zero_width_pulses(self):
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        seq = pulses.Sequence((pulses.PulseEvent(0.0, 1e-7, math.pi, 0.0, 0),),
                              cycle_time=1e-6)
        with pytest.raises(ConfigError, match="zero-width pulses"):
            pi_cycle_diagonal(sys, seq)
        # a pulse of any other angle mixes its plane: the states are grouped
        # by plane 1's up-count only, and the entries are the dense ones
        seq = pulses.Sequence(
            (pulses.PulseEvent(2e-7, 0.0, 0.5 * math.pi, 0.0, 0),),
            cycle_time=1e-6)
        U = spinsys.propagator(sys, seq).matrix
        perm = np.array([2, 3, 0, 1])  # plane 0 (spin 0) flipped
        assert np.array_equal(spinsys.propagator_entries(sys, seq, perm),
                              U[perm, np.arange(4)])
        assert np.all(U[perm, np.arange(4)] != 0)

    def test_pi_cycle_diagonal_checks_each_block_unitary(self, monkeypatch):
        free_step = spinsys._free_step
        monkeypatch.setattr(spinsys, "_free_step", lambda sys, t: (
            lambda X: 1.5 * free_step(sys, t)(X)))
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0), (2.7214, 0.0)], 1.4e6)
        seq = pulses.decoupling_schedule(pulses.hadamard_sign_matrix(2), 6e-6)
        with pytest.raises(ConfigError, match="propagator not unitary"):
            pi_cycle_diagonal(sys, seq)

    def test_pi_cycle_diagonal_steps_free_windows_by_free_step(
            self, monkeypatch):
        # the carry has no free-window code of its own: one _free_step per
        # window, the walk's own
        free_step, taken = spinsys._free_step, []

        def counted(sys, t):
            taken.append(t)
            return free_step(sys, t)
        monkeypatch.setattr(spinsys, "_free_step", counted)
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0), (2.7214, 0.0)], 1.4e6)
        seq = pulses.decoupling_schedule(pulses.hadamard_sign_matrix(3), 6e-6)
        pi_cycle_diagonal(sys, seq)
        windows = [t1 - t0 for t0, t1, ev in seq.segments() if ev is None]
        assert len(windows) > 1 and taken == windows

    def test_pi_cycle_diagonal_steps_pulses_by_pulse_step(self, monkeypatch):
        # the carry has no pulse code of its own: one _pulse_step per pulse
        # instant, the walk's own, all pulses of the instant at once
        pulse_step, taken = spinsys._pulse_step, []

        def counted(sys, events):
            taken.append(tuple(events))
            return pulse_step(sys, events)
        monkeypatch.setattr(spinsys, "_pulse_step", counted)
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0), (2.7214, 0.0)], 1.4e6)
        seq = pulses.decoupling_schedule(pulses.hadamard_sign_matrix(3), 6e-6)
        pi_cycle_diagonal(sys, seq)
        instants = sorted({ev.t_start for ev in seq.events})
        assert len(instants) < len(seq.events)  # some instants fuse pulses
        assert [ev.t_start for ev, *_ in taken] == instants
        assert [ev for events in taken for ev in events] == [
            ev for *_, ev in seq.segments() if ev is not None]

    @pytest.mark.parametrize("phase", [pulses.PHASE_X, pulses.PHASE_Y],
                             ids=["x", "y"])
    @pytest.mark.parametrize("target", [1, "broadband"])
    def test_pi_pulse_flips_bits_exactly(self, phase, target):
        sys = SpinSystem(2, 2, (0.0, 1e5), ())
        ev = pulses.PulseEvent(1e-6, 0.0, math.pi, phase, target)
        spins, r = spinsys._pulse_rotation(sys, ev)
        assert list(spins) == ([2, 3] if target == 1 else [0, 1, 2, 3])
        assert r[0, 0] == 0.0 and r[1, 1] == 0.0
        assert np.max(np.abs(r.conj().T @ r - ID2)) <= 1e-15

    @pytest.mark.parametrize("n_planes, n_chains", [(3, 1), (8, 1), (4, 2)])
    def test_pi_cycle_diagonal_is_the_dense_diagonal(self, n_planes,
                                                     n_chains):
        # the carry takes the propagator's own steps, so at these sizes it
        # has the dense diagonal's bits
        chains = [(0.0, 0.0), (2.7214, 0.0)][:n_chains]
        sys = spinsys.build_system(FAP, n_planes, chains, 1.4e6)
        seq = pulses.decoupling_schedule(
            pulses.hadamard_sign_matrix(n_planes), 6e-6)
        assert np.array_equal(pi_cycle_diagonal(sys, seq),
                              np.diag(spinsys.propagator(sys, seq).matrix))

    @pytest.mark.parametrize("n_planes, n_chains", [(3, 1), (4, 2), (3, 3)])
    def test_pi_cycle_is_zero_outside_its_sector_blocks(self, n_planes,
                                                        n_chains):
        # exact bit flips: column k ends in the sector of k with every plane
        # flipped an odd number of times turned over, and nowhere else
        chains = [(0.0, 0.0), (2.7214, 0.0), (1.3607, 2.3568)][:n_chains]
        sys = spinsys.build_system(FAP, n_planes, chains, 1.4e6)
        seq = pulses.decoupling_schedule(
            pulses.hadamard_sign_matrix(n_planes), 6e-6)
        U = spinsys.propagator(sys, seq).matrix
        odd = np.array([sum(ev.target in ("broadband", p) for ev in seq.events)
                        for p in range(n_planes)]) % 2 == 1
        iz = sys._plane_iz
        ends = np.where(odd, -iz, iz)  # plane Iz where each column ends
        outside = np.any(iz[:, None, :] != ends[None, :, :], axis=2)
        assert outside.any() and not U[outside].any()

    def test_broadband_pulses_flip_every_spin_of_the_carry(self):
        # an odd number of broadband pulses and one plane pulse: only
        # sectors half up in planes 1 and 2 end in themselves
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0), (2.7214, 0.0)], 1.4e6)
        seq = pulses.Sequence((
            pulses.PulseEvent(1e-6, 0.0, math.pi, pulses.PHASE_X,
                              "broadband"),
            pulses.PulseEvent(2e-6, 0.0, math.pi, pulses.PHASE_Y, 0),
        ), cycle_time=3e-6)
        diag = pi_cycle_diagonal(sys, seq)
        want = np.diag(spinsys.propagator(sys, seq).matrix)
        assert np.max(np.abs(diag - want)) <= 1e-15
        stays = np.all(sys._plane_iz[:, 1:] == 0.0, axis=1)
        assert np.all(diag[stays]) and not np.any(diag[~stays])

    @pytest.mark.parametrize("n_planes, n_chains", [
        (3, 1), (8, 1), (4, 2), (3, 3)])
    def test_cnot_entries_are_the_dense_entries(self, n_planes, n_chains):
        # the composites touch every plane: one group, X is U, and the
        # entries have the dense propagator's bits
        chains = [(0.0, 0.0), (2.7214, 0.0), (1.3607, 2.3568)][:n_chains]
        sys = spinsys.build_system(FAP, n_planes, chains, 1.4e6)
        seq, perm = pulses.compile_cnot(sys, 0, 1)
        U = spinsys.propagator(sys, seq).matrix
        assert np.array_equal(spinsys.propagator_entries(sys, seq, perm),
                              U[perm, np.arange(sys.dim)])

    def test_check_unitary_checks_every_block(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        Q = np.linalg.qr(A)[0]  # a stack of five 4 x 4 unitaries
        spinsys._check_unitary(Q)
        Q[3] *= 1.5
        with pytest.raises(ConfigError, match="propagator not unitary"):
            spinsys._check_unitary(Q)

    def test_odd_flip_count_leaves_no_diagonal(self):
        # one pi pulse on plane 1 of one chain: every column ends in
        # another sector.  With two chains, the half-up sector of the plane
        # maps onto itself, and its flip-flop leaves a diagonal there.
        ev = pulses.PulseEvent(1e-6, 0.0, math.pi, pulses.PHASE_X, 1)
        seq = pulses.Sequence((ev,), cycle_time=2e-6)
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        assert not np.any(pi_cycle_diagonal(sys, seq))
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0), (2.7214, 0.0)], 1.4e6)
        diag = pi_cycle_diagonal(sys, seq)
        half_up = sys._plane_iz[:, 1] == 0.0
        assert not np.any(diag[~half_up]) and np.all(diag[half_up])

    def test_fused_instant_counts_each_pulse(self):
        # two pi pulses on one plane at one instant, 0 and pi/2 in phase,
        # are exp(+i pi Iz) on each spin: the diagonal (+i, -i) per spin
        sys = SpinSystem(1, 1, (0.0,), ())
        seq = pulses.Sequence((
            pulses.PulseEvent(1e-6, 0.0, math.pi, pulses.PHASE_X, 0),
            pulses.PulseEvent(1e-6, 0.0, math.pi, pulses.PHASE_Y, 0),
        ), cycle_time=2e-6)
        want = np.diag(spinsys.propagator(sys, seq).matrix)
        assert np.max(np.abs(want - [1j, -1j])) <= 1e-15
        got = pi_cycle_diagonal(sys, seq)
        assert np.max(np.abs(got - want)) <= 1e-15


class TestFidelities:
    def test_gate_fidelity_phase_invariant(self):
        perm = np.array([0, 1, 3, 2])  # CNOT, control spin 0
        P = np.eye(4)[perm].T  # column k has its 1 in row perm[k]
        a = (np.exp(1j * 0.7) * P)[perm, np.arange(4)]
        assert spinsys.gate_fidelity(a) == pytest.approx(1.0, abs=1e-15)
        # the identity matches the CNOT on its two fixed basis states
        b = (np.exp(-1j * 2.1) * np.eye(4))[perm, np.arange(4)]
        assert spinsys.gate_fidelity(b) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("perm", [
        [0, 1, 2], [0, 1, 2, 3, 0], [0, 1, 2, 2], [0, 1, 2, 4],
        [0, 1, 2, -1], [0.0, 1.0, 2.0, 3.0], [[0, 1], [2, 3]]])
    def test_gate_fidelity_rejects_a_non_permutation(self, perm):
        # the permutation is checked where it is taken, by propagator_entries
        sys = SpinSystem(2, 1, (0.0, 1e5), ())
        seq = pulses.Sequence((), cycle_time=1e-6)
        with pytest.raises(ConfigError, match="not a permutation"):
            spinsys.propagator_entries(sys, seq, perm)

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
        # the diagonal alone gives the same fit
        fid1, phases1 = spinsys.diagonal_z_fidelity(np.diag(U))
        assert fid1 == fid and np.array_equal(phases1, phases)

    def test_diagonal_z_fidelity_fits_a_small_entry(self):
        # a single-flip entry far below 1 in modulus still carries its phase
        diag = np.ones(4, dtype=complex)
        diag[1] = 1e-6 * np.exp(0.7j)  # spin 1 down
        _, phases = spinsys.diagonal_z_fidelity(diag)
        assert phases[1] == pytest.approx(0.7, abs=1e-12)


class TestAverageHamiltonian:
    def test_wahuha_kills_dipolar(self):
        sys = SpinSystem(1, 2, (0.0,), (Coupling(0, 1, 1e4),))
        Hbar = spinsys.average_hamiltonian_0(sys, pulses.wahuha(1e-6))
        assert np.max(np.abs(Hbar)) < 1e-10 * 1e4

    def test_wahuha_offset_scale(self):
        w = 7.0e4
        sys = SpinSystem(2, 1, (0.0, w), ())
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
        sys = SpinSystem(1, 1, (0.0,), ())
        seq = pulses.wahuha(1e-6, pulse_width=1e-7)
        with pytest.raises(ConfigError):
            spinsys.average_hamiltonian_0(sys, seq)
