"""The structured spin core against a dense Kronecker-product oracle.

The oracle is the original dense implementation: H summed from embedded
single- and two-spin operators, one eigendecomposition per free window and
per pulse, a finite pulse sampled with one eigendecomposition of H + Hd per
sub-step, the average Hamiltonian in a dense toggling frame, and the CNOT
target as a product of projectors with the fidelity as a dense trace.  It is kept here only as a reference for
registers of up to 8 spins.  An instant of pi pulses, applied as one
gather, is checked against the per-spin 2x2 passes that it replaced.

The last four properties are metamorphic relations between two runs of
the structured core, which need no oracle.

Each property runs 25 examples; ``--hypothesis-profile=oracle-deep``
(registered in conftest.py) runs that profile's count instead.  The
12-spin relabelling runs its explicit examples only, and 60 drawn ones
more under oracle-deep.
"""

import itertools
import math

import numpy as np
from hypothesis import (Phase, assume, example, given, settings,
                        strategies as st)

from chainqc import lattice, pulses, spinsys
from chainqc.errors import ConfigError
from chainqc.spinsys import ID2, SX, SY, SZ, QuantumState, single_spin_op

FAP = lattice.get_preset("fluorapatite")
LAM = 2.7214  # nearest-neighbour chain spacing of fluorapatite, units of a
SETTINGS = (settings.get_profile("oracle-deep")
            if settings.get_current_profile_name() == "oracle-deep"
            else settings(max_examples=25, deadline=None))


# --- dense oracle -------------------------------------------------------------


def embed(n, ops):
    """Kronecker product with ops[s] on spin s and the identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for s in range(n):
        out = np.kron(out, ops.get(s, ID2))
    return out


def dense_hamiltonian(sys):
    n = sys.total_spins
    H = np.zeros((sys.dim, sys.dim), dtype=complex)
    for p in range(sys.n_planes):
        for s in sys.plane_spins(p):
            H += sys.offsets[p] * embed(n, {s: SZ})
    for c in sys.couplings:
        zz = embed(n, {c.i: SZ, c.j: SZ})
        if c.i // sys.n_chains != c.j // sys.n_chains:  # across planes
            H += c.coeff * zz
        else:
            xx = embed(n, {c.i: SX, c.j: SX})
            yy = embed(n, {c.i: SY, c.j: SY})
            H += 0.5 * c.coeff * (3.0 * zz - (xx + yy + zz))
    return H


def expm_herm(H, t):
    """exp(-i H t) for Hermitian H."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def dense_pulse(sys, ev):
    """exp(+i theta (cos(phi) Ix + sin(phi) Iy)) summed over the targets."""
    n = sys.total_spins
    spins = (range(n) if ev.target == "broadband"
             else sys.plane_spins(ev.target))
    G = sum(math.cos(ev.phase) * embed(n, {s: SX})
            + math.sin(ev.phase) * embed(n, {s: SY}) for s in spins)
    return expm_herm(G, -ev.flip_angle)


def dense_sampled_pulse(sys, H, event):
    """Finite-duration pulse as a rotating-wave drive on every spin.

    The drive oscillates at the target plane's offset (0 for broadband), so
    spins in other planes see it off-resonance; selectivity is physical, not
    imposed.
    """
    n = sys.total_spins
    w1 = event.flip_angle / event.duration
    wd = 0.0 if event.target == "broadband" else sys.offsets[event.target]
    max_off = max((abs(a - b) for a in sys.offsets for b in sys.offsets),
                  default=0.0)
    dt = event.duration / 10.0
    if max_off > 0:
        dt = min(dt, 1.0 / (20.0 * max_off))
    n_steps = max(1, int(math.ceil(event.duration / dt)))
    dt = event.duration / n_steps
    if dt <= 0:
        raise ConfigError("sampled-pulse step underflow")
    sx_all = sum(single_spin_op(n, s, SX) for s in range(n))
    sy_all = sum(single_spin_op(n, s, SY) for s in range(n))
    U = np.eye(sys.dim, dtype=complex)
    for k in range(n_steps):
        t = event.t_start + (k + 0.5) * dt
        ph = wd * t + event.phase
        Hd = -w1 * (math.cos(ph) * sx_all + math.sin(ph) * sy_all)
        U = expm_herm(H + Hd, dt) @ U
    return U


def dense_walk(sys, seq):
    """(time, U_segment) pieces; finite-width pulses are sampled."""
    H = dense_hamiltonian(sys)
    t = 0.0
    for ev in seq.events:
        if ev.t_start > t:
            yield ev.t_start, expm_herm(H, ev.t_start - t)
        U = (dense_sampled_pulse(sys, H, ev) if ev.duration > 0
             else dense_pulse(sys, ev))
        yield ev.t_start + ev.duration, U
        t = ev.t_start + ev.duration
    if seq.cycle_time > t:
        yield seq.cycle_time, expm_herm(H, seq.cycle_time - t)


def dense_evolve(pieces, data):
    """Trajectory of a state vector or density matrix through the pieces."""
    out = [(0.0, data)]
    for t, U in pieces:
        if data.ndim == 1:
            data = U @ data
            data = data / np.linalg.norm(data)
        else:
            data = U @ data @ U.conj().T
            data = 0.5 * (data + data.conj().T)
            data = data / np.trace(data).real
        out.append((t, data))
    return out


def dense_average_hamiltonian(sys, seq):
    """(1/T) sum_windows tau Urf^dag H Urf, with Urf the dense product of
    the pulses applied before the window."""
    H = dense_hamiltonian(sys)
    Urf = np.eye(sys.dim, dtype=complex)
    Hbar = np.zeros_like(Urf)
    for t0, t1, ev in seq.segments():
        if ev is None:
            Hbar += (t1 - t0) * (Urf.conj().T @ H @ Urf)
        else:
            Urf = dense_pulse(sys, ev) @ Urf
    return Hbar / seq.cycle_time


def dense_cnot(sys, control, target):
    n = sys.total_spins
    eye = np.eye(sys.dim)
    U = np.eye(sys.dim, dtype=complex)
    for ch in range(sys.n_chains):
        c = sys.spin_index(control, ch)
        t = sys.spin_index(target, ch)
        p_up = 0.5 * eye + embed(n, {c: SZ})
        p_dn = 0.5 * eye - embed(n, {c: SZ})
        U = (p_up + p_dn @ (2.0 * embed(n, {t: SX}))) @ U
    return U


# --- strategies ---------------------------------------------------------------


@st.composite
def register_layouts(draw, min_planes=1):
    """build_system's arguments after the lattice: up to 3 chains and 8
    spins, jittered positions, either same-plane form.

    Three chains give sectors of 3 and 9 states.
    """
    n_chains = draw(st.integers(1, 3))
    n_planes = draw(st.integers(min_planes, min(4, 8 // n_chains)))
    jitter = st.floats(-0.3, 0.3)
    positions = [(0.0, 0.0)] + [(c * LAM + draw(jitter), draw(jitter))
                                for c in range(1, n_chains)]
    return n_planes, positions, draw(st.floats(1e5, 2e6)), draw(st.booleans())


def registers(min_planes=1):
    return register_layouts(min_planes).map(
        lambda layout: spinsys.build_system(FAP, *layout))


@st.composite
def hand_built_registers(draw):
    """Any coupling table: each pair coupled, with any coefficient, or not.

    Unlike ``build_system``, offsets and coefficients need no geometry, and
    any subset of the pairs may be coupled.
    """
    n_chains = draw(st.integers(1, 2))
    n_planes = draw(st.integers(1, 4))
    offsets = tuple(draw(st.floats(-1e6, 1e6)) for _ in range(n_planes))
    couplings = []
    for i, j in itertools.combinations(range(n_planes * n_chains), 2):
        if draw(st.booleans()):
            couplings.append(
                spinsys.Coupling(i, j, draw(st.floats(-1e5, 1e5))))
    return spinsys.SpinSystem(n_planes, n_chains, offsets, tuple(couplings))


@st.composite
def schedules(draw, n_planes):
    """Random ideal pulses (plane or broadband) over a 1-20 us cycle."""
    T = draw(st.floats(1e-6, 2e-5))
    target = st.one_of(st.just("broadband"), st.integers(0, n_planes - 1))
    events = tuple(
        pulses.PulseEvent(draw(st.floats(0.0, 1.0)) * T, 0.0,
                          draw(st.floats(1e-3, 2 * math.pi)),
                          draw(st.floats(0.0, 2 * math.pi)), draw(target))
        for _ in range(draw(st.integers(0, 6))))
    return pulses.Sequence(events, cycle_time=T)


@st.composite
def sampled_schedules(draw, n_planes):
    """Back-to-back finite (0.05-1 us) and zero-width pulses with random gaps.

    Each pulse starts at or after the end of the one before, so no two
    overlap, as sampled mode requires.
    """
    target = st.one_of(st.just("broadband"), st.integers(0, n_planes - 1))
    width = st.one_of(st.just(0.0), st.floats(5e-8, 1e-6))
    events, t = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        t += draw(st.one_of(st.just(0.0), st.floats(0.0, 2e-6)))
        ev = pulses.PulseEvent(t, draw(width),
                               draw(st.floats(1e-3, 2 * math.pi)),
                               draw(st.floats(0.0, 2 * math.pi)), draw(target))
        events.append(ev)
        t = ev.t_end
    T = t + draw(st.floats(0.0, 2e-6))
    return pulses.Sequence(tuple(events), cycle_time=T)


@st.composite
def repeated_sampled_schedules(draw, n_planes):
    """A train of one pulse shape: one width and flip angle throughout.

    Phases, start times and targets vary.  A WAHUHA-like train is all
    broadband; a selective train draws a plane per pulse, the first two on
    the same plane, so at least two pulses share a shape.
    """
    width = draw(st.floats(5e-8, 1e-6))
    angle = draw(st.floats(1e-3, 2 * math.pi))
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        targets = ["broadband"] * n
    else:
        targets = draw(st.lists(st.integers(0, n_planes - 1),
                                min_size=n, max_size=n))
        targets[1] = targets[0]
    events, t = [], 0.0
    for target in targets:
        t += draw(st.one_of(st.just(0.0), st.floats(0.0, 2e-6)))
        ev = pulses.PulseEvent(t, width, angle,
                               draw(st.floats(0.0, 2 * math.pi)), target)
        events.append(ev)
        t = ev.t_end
    T = t + draw(st.floats(0.0, 2e-6))
    return pulses.Sequence(tuple(events), cycle_time=T)


@st.composite
def pi_schedules(draw, n_planes):
    """Zero-width pi pulses (plane or broadband, any phase) at up to three
    instants of a 1-20 us cycle, so several pulses often share one.  Half
    the draws close every plane's flip count to even at the cycle's end."""
    T = draw(st.floats(1e-6, 2e-5))
    instants = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    target = st.one_of(st.just("broadband"), st.integers(0, n_planes - 1))
    events = [pulses.PulseEvent(draw(st.sampled_from(instants)) * T, 0.0,
                                math.pi, draw(st.floats(0.0, 2 * math.pi)),
                                draw(target))
              for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        flips = [sum(ev.target in ("broadband", p) for ev in events)
                 for p in range(n_planes)]
        events += [pulses.PulseEvent(T, 0.0, math.pi,
                                     draw(st.floats(0.0, 2 * math.pi)), p)
                   for p in range(n_planes) if flips[p] % 2]
    return pulses.Sequence(tuple(events), cycle_time=T)


@st.composite
def instant_schedules(draw, n_planes):
    """Ideal pulses of any angle and phase at up to three shared instants."""
    T = draw(st.floats(1e-6, 2e-5))
    instants = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    target = st.one_of(st.just("broadband"), st.integers(0, n_planes - 1))
    events = tuple(
        pulses.PulseEvent(draw(st.sampled_from(instants)) * T, 0.0,
                          draw(st.floats(1e-3, 2 * math.pi)),
                          draw(st.floats(0.0, 2 * math.pi)), draw(target))
        for _ in range(draw(st.integers(2, 8))))
    return pulses.Sequence(events, cycle_time=T)


@st.composite
def partial_pi_schedules(draw, n_planes):
    """Zero-width pulses at up to three shared instants: pi pulses on a
    drawn set of planes and broadband, pulses of any angle on the other
    planes.  U keeps the up-counts of the pi-only planes and mixes the rest,
    so the entries are carried in groups of some planes only."""
    T = draw(st.floats(1e-6, 2e-5))
    instants = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    pi_only = draw(st.sets(st.integers(0, n_planes - 1)))
    target = st.one_of(st.just("broadband"), st.integers(0, n_planes - 1))
    events = []
    for _ in range(draw(st.integers(1, 8))):
        tgt = draw(target)
        angle = (math.pi if tgt == "broadband" or tgt in pi_only
                 else draw(st.floats(1e-3, 2 * math.pi)))
        events.append(pulses.PulseEvent(
            draw(st.sampled_from(instants)) * T, 0.0, angle,
            draw(st.floats(0.0, 2 * math.pi)), tgt))
    return pulses.Sequence(tuple(events), cycle_time=T)


@st.composite
def pi_instants(draw, n_planes):
    """The zero-width pulses of one instant: pi pulses at any phase on
    drawn planes and broadband, so a spin may get two (an exactly diagonal
    product), and in half the draws a pi/2 pulse as well, which leaves the
    instant not monomial."""
    target = st.one_of(st.just("broadband"), st.integers(0, n_planes - 1))
    phase = st.floats(0.0, 2 * math.pi)
    events = [pulses.PulseEvent(0.0, 0.0, math.pi, draw(phase), draw(target))
              for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        events.insert(draw(st.integers(0, len(events))), pulses.PulseEvent(
            0.0, 0.0, math.pi / 2, draw(phase), draw(target)))
    return events


@st.composite
def register_and_schedule(draw, sequences=schedules):
    sys = draw(registers())
    return sys, draw(sequences(sys.n_planes))


def plane_iz(sys, p):
    n = sys.total_spins
    return sum(embed(n, {s: SZ}) for s in sys.plane_spins(p))


def random_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


# --- properties ---------------------------------------------------------------


@SETTINGS
@given(registers())
def test_hamiltonian_matches_dense_and_conserves_plane_iz(sys):
    H = sys.hamiltonian()
    Hd = dense_hamiltonian(sys)
    scale = np.linalg.norm(Hd)
    assert np.linalg.norm(H - Hd) <= 1e-12 * scale
    assert np.array_equal(H, H.conj().T)
    for p in range(sys.n_planes):
        M = plane_iz(sys, p)
        assert np.linalg.norm(H @ M - M @ H) <= 1e-12 * scale


@SETTINGS
@given(registers())
def test_sector_blocks_partition_and_diagonalize_h(sys):
    H = dense_hamiltonian(sys)
    scale = np.linalg.norm(H)
    mags = np.stack([np.diag(plane_iz(sys, p)).real
                     for p in range(sys.n_planes)], axis=1)
    sector = np.full(sys.dim, -1)
    labels = []
    for rows, w, V in sys._sector_blocks:
        for r in rows:
            assert np.all(sector[r] == -1)  # no state in two sectors
            sector[r] = len(labels)
            labels.append(tuple(mags[r[0]]))
            assert np.all(mags[r] == mags[r[0]])
        block = H[rows[:, :, None], rows[:, None, :]]
        VwV = (w[:, :, None] if V is None
               else (V * w[:, None, :]) @ V.transpose(0, 2, 1))
        assert np.max(np.abs(VwV - block)) <= 1e-12 * scale
    assert np.all(sector >= 0)  # every state in a sector
    assert len(set(labels)) == len(labels)  # one per plane magnetization
    assert np.all(H[sector[:, None] != sector[None, :]] == 0.0)


def check_against_dense(sys, seq, mode, seed):
    """propagator and pure and density evolve match the oracle to 1e-10;
    the last pure state is propagator(...).matrix @ psi0 to 1e-12."""
    pieces = list(dense_walk(sys, seq))
    U_dense = np.eye(sys.dim, dtype=complex)
    for _, U in pieces:
        U_dense = U @ U_dense
    U_fast = spinsys.propagator(sys, seq, mode).matrix
    assert np.max(np.abs(U_fast - U_dense)) <= 1e-10

    rng = np.random.default_rng(seed)
    for data, make in ((random_pure(rng, sys.dim), QuantumState.pure),
                       (random_density(rng, sys.dim), QuantumState.density)):
        fast = spinsys.evolve(sys, seq, make(data), mode)
        dense = dense_evolve(pieces, data)
        assert [t for t, _ in fast] == [t for t, _ in dense]
        for (_, a), (_, b) in zip(fast, dense):
            assert np.max(np.abs(a.data - b)) <= 1e-10
        if make is QuantumState.pure:  # the vector steps match the matrix
            assert np.max(np.abs(fast[-1][1].data - U_fast @ data)) <= 1e-12


@SETTINGS
@given(register_and_schedule(), st.integers(0, 2**32 - 1))
def test_propagator_and_evolve_match_dense(case, seed):
    check_against_dense(*case, "ideal", seed)


@SETTINGS
@given(hand_built_registers(), st.data(), st.integers(0, 2**32 - 1))
def test_any_coupling_table_matches_dense(sys, data, seed):
    check_against_dense(sys, data.draw(schedules(sys.n_planes)), "ideal", seed)


@SETTINGS
@given(register_and_schedule(instant_schedules), st.integers(0, 2**32 - 1))
def test_fused_instants_match_dense(case, seed):
    # propagator applies each instant's pulses as one step, evolve as many
    check_against_dense(*case, "ideal", seed)


@SETTINGS
@given(st.one_of(registers(), hand_built_registers()),
       st.sampled_from([pi_schedules, instant_schedules,
                        partial_pi_schedules]), st.data())
def test_propagator_entries_match_dense(sys, sequences, data):
    seq = data.draw(sequences(sys.n_planes))
    perm = data.draw(st.one_of(st.just(range(sys.dim)),
                               st.permutations(range(sys.dim))))
    U = np.eye(sys.dim, dtype=complex)
    for _, piece in dense_walk(sys, seq):
        U = piece @ U
    k = np.arange(sys.dim)
    entries = spinsys.propagator_entries(sys, seq, perm)
    # measured over 1000 examples of each strategy: at most 2.5e-14 (pi),
    # 1.4e-14 (any angle) and 8.7e-15 (pi on some planes), the oracle's
    # eigh round-off on phases of up to about 80 rad
    assert np.max(np.abs(entries - U[perm, k])) <= 1e-13
    # against the structured propagator, which takes the same steps on all
    # d columns at once: at most 5.0e-16, BLAS kernels rounding the
    # narrower stacked array differently
    fast = spinsys.propagator(sys, seq).matrix
    assert np.max(np.abs(entries - fast[perm, k])) <= 2e-15


@SETTINGS
@given(hand_built_registers())
def test_any_coupling_table_sector_blocks_are_the_dense_gather(sys):
    H = sys.hamiltonian()
    scattered = np.zeros_like(H)
    for rows, Hb in spinsys._bit_blocks(sys, *sys._terms(),
                                        range(sys.n_planes)):
        assert np.array_equal(Hb, H[rows[:, :, None], rows[:, None, :]])
        scattered[rows[:, :, None], rows[:, None, :]] = Hb
    # the writer drops only exact zeros: nothing of H is outside a block
    assert np.array_equal(scattered, H)


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_uncoupled_pi_cycles_are_z_rotations(n_planes, n_chains, data):
    # With no coupling, U of a cycle that flips each plane an even number
    # of times is a product of single-spin z rotations: identity fidelity
    # 1.  No oracle is needed, so this runs to 12 spins.  Measured: at
    # most 1.8e-15 from 1 over 3000 examples.
    offsets = tuple(data.draw(st.floats(-1e6, 1e6)) for _ in range(n_planes))
    sys = spinsys.SpinSystem(n_planes, n_chains, offsets, ())
    seq = data.draw(pi_schedules(n_planes))
    flips = [sum(ev.target in ("broadband", p) for ev in seq.events)
             for p in range(n_planes)]
    assume(all(f % 2 == 0 for f in flips))
    fid, _ = spinsys.diagonal_z_fidelity(
        spinsys.propagator_entries(sys, seq, range(sys.dim)))
    assert abs(fid - 1.0) <= 1e-14


@SETTINGS
@given(register_and_schedule(sampled_schedules), st.integers(0, 2**32 - 1))
def test_sampled_pulses_match_dense_sampler(case, seed):
    check_against_dense(*case, "sampled", seed)


@SETTINGS
@given(register_and_schedule(repeated_sampled_schedules),
       st.integers(0, 2**32 - 1))
def test_repeated_pulse_shapes_match_dense_sampler(case, seed):
    check_against_dense(*case, "sampled", seed)


@SETTINGS
@given(register_and_schedule())
def test_average_hamiltonian_matches_dense_toggling_frame(case):
    sys, seq = case
    dense = dense_average_hamiltonian(sys, seq)
    fast = spinsys.average_hamiltonian_0(sys, seq)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@SETTINGS
@given(hand_built_registers(), st.data())
def test_any_coupling_table_average_hamiltonian_matches_dense(sys, data):
    # couplings between any planes, each pair seen from two plane frames
    seq = data.draw(schedules(sys.n_planes))
    dense = dense_average_hamiltonian(sys, seq)
    # Under ~1e-290 rad/s the oracle's tau * H nears float64's subnormals
    # (below 2.2e-308), which keep fewer bits than 1e-12 relative needs.
    assume(np.max(np.abs(dense)) >= 1e-290)
    fast = spinsys.average_hamiltonian_0(sys, seq)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@SETTINGS
@given(registers(min_planes=2), st.data())
def test_cnot_target_is_the_projector_product(sys, data):
    control = data.draw(st.integers(0, sys.n_planes - 2))
    control, target = data.draw(st.sampled_from(
        [(control, control + 1), (control + 1, control)]))
    perm = spinsys.cnot_permutation(sys, control, target)
    U = np.zeros((sys.dim, sys.dim), dtype=complex)
    U[perm, np.arange(sys.dim)] = 1.0
    assert np.array_equal(U, dense_cnot(sys, control, target))


@SETTINGS
@given(registers(min_planes=2), st.data())
def test_gate_fidelity_is_the_dense_trace(sys, data):
    seq = data.draw(schedules(sys.n_planes))
    control = data.draw(st.integers(0, sys.n_planes - 2))
    control, target = data.draw(st.sampled_from(
        [(control, control + 1), (control + 1, control)]))
    U = spinsys.propagator(sys, seq).matrix
    dense = abs(np.vdot(dense_cnot(sys, control, target), U)) / sys.dim
    fid = spinsys.gate_fidelity(spinsys.propagator_entries(
        sys, seq, spinsys.cnot_permutation(sys, control, target)))
    assert abs(fid - dense) <= 1e-15


def pulse_passes(sys, events, X):
    """U X for the pulses of one instant as one 2x2 pass over X per spin,
    each spin's 2x2 the product of its rotations in time order: the
    reference for a monomial instant's one gather."""
    rot = {}
    for ev in events:
        spins, r = spinsys._pulse_rotation(sys, ev)
        for s in spins:
            rot[s] = r @ rot[s] if s in rot else r
    shape = X.shape
    for s, r in rot.items():
        X = (r @ X.reshape(1 << s, 2, -1)).reshape(shape)
    return X


@SETTINGS
@given(registers(), st.data(), st.integers(0, 2**32 - 1))
def test_pulse_instant_is_the_per_spin_passes(sys, data, seed):
    events = data.draw(pi_instants(sys.n_planes))
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((sys.dim, 3)) + 1j * rng.standard_normal(
        (sys.dim, 3))
    step = spinsys._pulse_step(sys, events)
    for X in (random_pure(rng, sys.dim), block,
              random_density(rng, sys.dim)):
        fast, ref = step(X), pulse_passes(sys, events, X)
        assert fast.shape == X.shape
        if all(ev.flip_angle == math.pi for ev in events):
            # one phase product per row against one rounded product per
            # pass: up to 8 spins, each complex product off by at most
            # sqrt(5) 2^-53 on either side, is 16 sqrt(5) 2^-53 = 4.0e-15
            # of max |X|; measured at most 7.2e-16 over 9000 operands
            assert np.max(np.abs(fast - ref)) <= 4e-15 * np.max(np.abs(X))
        else:  # not monomial: the passes themselves
            assert np.array_equal(fast, ref)


# --- metamorphic relations -------------------------------------------------
#
# Exact relations between two runs, which need no dense oracle and so hold
# at any register size.  Each tolerance was set from the largest deviation
# seen over 3000 examples when the property was written.


def simulate_fidelities(sys, slot, control, target):
    """The two fidelities `chainqc simulate` reports: the decoupling cycle's
    identity fidelity and the compiled CNOT's gate fidelity."""
    m = pulses.hadamard_sign_matrix(sys.n_planes)
    identity, _ = spinsys.diagonal_z_fidelity(spinsys.propagator_entries(
        sys, pulses.decoupling_schedule(m, slot), range(sys.dim)))
    seq, perm = pulses.compile_cnot(sys, control, target)
    return identity, spinsys.gate_fidelity(
        spinsys.propagator_entries(sys, seq, perm))


@SETTINGS
@given(register_layouts(min_planes=2), st.data())
def test_chain_order_leaves_simulate_fidelities_unchanged(layout, data):
    # Relabelling the chains only permutes the spins.  Measured: at most
    # 8.9e-16 for the decoupling cycle and 5.6e-16 for the CNOT.
    n_planes, positions, grad, same_plane = layout
    slot = data.draw(st.floats(5e-6, 8e-6))
    control = data.draw(st.integers(0, n_planes - 2))
    order = data.draw(st.permutations(positions))
    a, b = (simulate_fidelities(
        spinsys.build_system(FAP, n_planes, pos, grad, same_plane),
        slot, control, control + 1) for pos in (positions, order))
    assert abs(a[0] - b[0]) <= 2e-15
    assert abs(a[1] - b[1]) <= 2e-15


def simulate_trajectories(sys, slot, control, target):
    """The `chainqc simulate` trajectory, t and each plane's <Iz>, of the
    decoupling cycle from all spins along +x and of the CNOT from all up."""
    decoupling = pulses.decoupling_schedule(
        pulses.hadamard_sign_matrix(sys.n_planes), slot)
    cnot, _ = pulses.compile_cnot(sys, control, target)
    runs = ((decoupling, QuantumState.all_plus_x(sys.total_spins)),
            (cnot, QuantumState.all_up(sys.total_spins)))
    return [np.array([[t, *(spinsys.expectation_iz_plane(sys, state, p)
                            for p in range(sys.n_planes))]
                      for t, state in spinsys.evolve(sys, seq, start)])
            for seq, start in runs]


@SETTINGS
@given(register_layouts(min_planes=2), st.data())
def test_translation_leaves_simulate_unchanged(layout, data):
    # build_system reads only the chains' separations, so moving every
    # chain by one vector changes the couplings by round-off only.
    # Measured over 4000 examples with shifts up to 50 a: at most 7.8e-16
    # (identity) and 1.2e-15 (CNOT) on the fidelities, 1.2e-15
    # (decoupling) and 7.2e-15 (CNOT) on the trajectories.
    n_planes, positions, grad, same_plane = layout
    slot = data.draw(st.floats(5e-6, 8e-6))
    control = data.draw(st.integers(0, n_planes - 2))
    dx, dy = data.draw(st.tuples(st.floats(-50, 50), st.floats(-50, 50)))

    def run(pos):
        sys = spinsys.build_system(FAP, n_planes, pos, grad, same_plane)
        return (simulate_fidelities(sys, slot, control, control + 1),
                simulate_trajectories(sys, slot, control, control + 1))
    (fid_a, traj_a), (fid_b, traj_b) = (
        run(positions), run([(x + dx, y + dy) for x, y in positions]))
    assert np.max(np.abs(np.subtract(fid_a, fid_b))) <= 3e-15
    for a, b in zip(traj_a, traj_b):
        assert np.max(np.abs(a - b)) <= 2e-14


TRIANGLE = [(0.0, 0.0), (LAM, 0.0), (0.5 * LAM, 0.866 * LAM)]


# 12 spins, past the oracle's reach but not the sector carry's (about 0.1 s
# a run).  Tier-1 runs the explicit examples only; oracle-deep draws more.
@settings(deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.generate)
          if settings.get_current_profile_name() == "oracle-deep"
          else (Phase.explicit,))
@given(st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6),
       st.floats(1e5, 2e6), st.booleans(), st.floats(5e-6, 8e-6),
       st.permutations(range(3)))
@example([0.0] * 6, 1.4e6, True, 6e-6, [2, 0, 1])
@example([0.0] * 6, 1.4e6, False, 6e-6, [1, 0, 2])
@example([0.0, 0.0, 0.0, 0.0, 1.5 * LAM, -0.866 * LAM],
         3e5, True, 7.5e-6, [0, 2, 1])
@example([0.1, -0.2, 0.3, 0.0, -0.3, 0.2], 2e6, True, 5e-6, [1, 2, 0])
def test_chain_order_leaves_4x3_identity_fidelity_unchanged(
        jitter, grad, same_plane, slot, order):
    # The decoupling half of the property above at 4 planes of 3 chains,
    # about the fluorapatite triangle (the third example puts the chains on
    # a line).  The CNOT is left out: its propagator is still dense.
    # Measured: at most 5.6e-16 over 300 random examples; the bound is
    # the one above.
    positions = [(x + dx, y + dy) for (x, y), dx, dy
                 in zip(TRIANGLE, jitter[::2], jitter[1::2])]
    m = pulses.hadamard_sign_matrix(4)
    systems = (spinsys.build_system(FAP, 4, pos, grad, same_plane)
               for pos in (positions, [positions[c] for c in order]))
    a, b = (spinsys.diagonal_z_fidelity(spinsys.propagator_entries(
        sys, pulses.decoupling_schedule(m, slot), range(sys.dim)))[0]
        for sys in systems)
    assert abs(a - b) <= 2e-15


@st.composite
def chain_tables(draw):
    """One chain's plane offsets and (p, q, coeff) zz couplings, each pair
    coupled or not, with at least 1e3 rad/s between planes 0 and 1 for the
    CNOT."""
    n_planes = draw(st.integers(2, 4))
    offsets = tuple(draw(st.floats(-1e6, 1e6)) for _ in range(n_planes))
    j01 = draw(st.floats(1e3, 1e5)) * draw(st.sampled_from([-1.0, 1.0]))
    table = [(0, 1, j01)]
    for p, q in itertools.combinations(range(n_planes), 2):
        if draw(st.booleans()) and (p, q) != (0, 1):
            table.append((p, q, draw(st.floats(-1e5, 1e5))))
    return offsets, table


@SETTINGS
@given(chain_tables(), st.data())
def test_uncoupled_chains_factorize_the_cnot_fidelity(table, data):
    # With couplings only within each chain, U is a tensor product over the
    # chains, and so is the ideal CNOT.  The n-chain energies are sums of
    # one-chain energies, so the two sides round phases of up to `phase`
    # radians differently.  Measured: at most 0.32 eps * phase (2.3e-13
    # at the largest phases, 4.4e-16 at the smallest).
    offsets, couplings = table
    n_planes = len(offsets)
    n_chains = data.draw(st.integers(2, 8 // n_planes))

    def cnot_fidelity(n):
        sys = spinsys.SpinSystem(
            n_planes, n, offsets,
            tuple(spinsys.Coupling(p * n + c, q * n + c, coeff)
                  for p, q, coeff in couplings for c in range(n)))
        seq, perm = pulses.compile_cnot(sys, 0, 1)
        fid = spinsys.gate_fidelity(spinsys.propagator_entries(sys, seq, perm))
        return fid, seq.cycle_time

    one, t_gate = cnot_fidelity(1)
    phase = n_chains * t_gate * (sum(map(abs, offsets))
                                 + sum(abs(c[2]) for c in couplings))
    assert abs(cnot_fidelity(n_chains)[0] - one ** n_chains) \
        <= np.finfo(float).eps * phase
