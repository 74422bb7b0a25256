"""Exact quantum dynamics of small planes x chains spin-1/2 registers.

The register is laid out as n_planes stacked along z (spacing a, per-plane
frequency offsets from the field gradient) times n_chains at fixed
transverse positions.  Spin index = plane * n_chains + chain.

Couplings between different planes are secular zz terms; couplings within a
plane (equal resonance frequency) keep the full dipolar form
(1/2) c (3 Iz Iz - I.I).  All coefficients are angular frequencies (rad/s);
free evolution is U = exp(-i H t) with H in rad/s.

Pulse rotation convention: a pulse of flip angle theta and phase phi applies
U = exp(+i theta (cos(phi) Ix + sin(phi) Iy)) on its targets (phase 0 = x,
pi/2 = y).  With this convention the WAHUHA cycle scales offsets along
+(1,1,1)/sqrt(3).

Spin s is bit n-1-s of the computational-basis index (bit 0 = up,
Iz = +1/2); no other module reads that layout.  An operator that maps basis
states to basis states, as the ideal CNOT does, leaves it as an index array
(cnot_permutation).  One writer, _bit_blocks, writes H, a sampled pulse's
drive and the average Hamiltonian straight from the bit table, into the
groups of equal up-counts in some planes; with none, its one block is the
dense operator.  H is a diagonal of offsets and zz terms plus the in-plane
flip-flop entries.  It conserves each plane's Iz, so its blocks over the
groups of every plane (its sectors) are all of it, written with no dense H;
free evolution runs block by block through one cached batched
eigendecomposition per sector size (none for one-state sectors).  An ideal
pulse is a 2x2 rotation applied to each target spin's axis of the state
reshaped to (2,)*n; it maps between sectors, so it acts on the full array.
A propagator applies the pulses of one instant as one step, one 2x2 product
per touched spin.  A pi pulse's 2x2 has an exactly zero diagonal, so when
every spin's product is exactly diagonal or anti-diagonal (monomial) each
row of U holds one entry, and the step is one gather X[k ^ mask] times one
phase per row, with no term that the passes would add as an exact 0.  U
then maps each group of equal up-counts in the planes only pi pulses reach
onto one group; propagator_entries reads U's entries along a permutation
from the groups' columns, carried stacked through the walk's own steps.
The drive of a sampled (finite-width) pulse mixes sectors, so its W is
dense.  Its sub-steps r_j W r_j^dag differ only by diagonal phases that
advance by the same D each step, so the whole pulse is the sampler's own
product P = r_{n-1} (W D)^(n-1) W r_0^dag, the bracket one operator per
pulse shape that a state vector, a density matrix and a propagator all go
through: binary powering, or for a drive at offset 0, where D = exp(0) = I
exactly, W^n = exp(-i (H - w1 Fx) n dt) from W's own eigendecomposition.
The average Hamiltonian keeps one 3x3 rotation per plane.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .lattice import ChainLattice, dipolar_coupling, splitting

__all__ = [
    "MAX_SPINS",
    "Coupling",
    "SpinSystem",
    "QuantumState",
    "Propagator",
    "build_system",
    "evolve",
    "propagator",
    "propagator_entries",
    "expectation_iz_plane",
    "cnot_permutation",
    "gate_fidelity",
    "diagonal_z_fidelity",
    "average_hamiltonian_0",
]

MAX_SPINS = 12

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def single_spin_op(n_spins: int, index: int, op: np.ndarray) -> np.ndarray:
    """Embed a single-spin operator at position ``index`` in an n-spin space,
    written from the bit table: column k holds op[b, b] on the diagonal and
    op[1 - b, b] at row k with the spin flipped, b being the spin's bit."""
    op = np.asarray(op, dtype=complex)
    k = np.arange(2 ** n_spins)
    b = _down_bits(n_spins)[:, index]
    out = np.zeros((k.size, k.size), dtype=complex)
    out[k, k] = op[b, b]
    out[k ^ (1 << (n_spins - 1 - index)), k] = op[1 - b, b]
    return out


def _down_bits(n_spins: int) -> np.ndarray:
    """(2**n, n) table: entry [k, s] is 1 where spin s is down in basis state k."""
    k = np.arange(2 ** n_spins)
    return (k[:, None] >> np.arange(n_spins - 1, -1, -1)) & 1


class Coupling(NamedTuple):
    i: int              # spin index
    j: int              # spin index
    coeff: float        # rad/s


# D of a coupling, keyed by whether its two spins share a plane: the
# coupling is coeff * sum_ab D[a, b] I_i^a I_j^b
_TENSOR = {True: np.diag([-0.5, -0.5, 1.0]),
           False: np.diag([0.0, 0.0, 1.0])}


@dataclass(frozen=True)
class SpinSystem:
    n_planes: int
    n_chains: int
    offsets: tuple[float, ...]  # rad/s, per plane
    couplings: tuple[Coupling, ...]

    def __post_init__(self):
        if not (self.n_planes >= 1 and self.n_chains >= 1):
            raise ConfigError("need at least one plane and one chain")
        n = self.total_spins
        if n > MAX_SPINS:
            raise ConfigError(f"{n} spins exceeds the cap of {MAX_SPINS}")
        if len(self.offsets) != self.n_planes:
            raise ConfigError("need one offset per plane")
        if not all(math.isfinite(w) for w in self.offsets):
            raise ConfigError("plane offsets must be finite")
        seen = set()
        for c in self.couplings:
            if not (0 <= c.i < n and 0 <= c.j < n):
                raise ConfigError(f"coupling ({c.i}, {c.j}) names a spin "
                                  f"outside 0..{n - 1}")
            if not math.isfinite(c.coeff):
                raise ConfigError(f"coupling ({c.i}, {c.j}) has a non-finite "
                                  f"coefficient")
            if c.i == c.j:
                raise ConfigError("self-coupling in coupling table")
            if (min(c.i, c.j), max(c.i, c.j)) in seen:
                raise ConfigError("duplicate pair in coupling table")
            seen.add((min(c.i, c.j), max(c.i, c.j)))

    @property
    def total_spins(self) -> int:
        return self.n_planes * self.n_chains

    @property
    def dim(self) -> int:
        return 2 ** self.total_spins

    def spin_index(self, plane: int, chain: int) -> int:
        return plane * self.n_chains + chain

    def plane_spins(self, plane: int) -> list[int]:
        if not 0 <= plane < self.n_planes:
            raise ConfigError(f"plane {plane} out of range")
        return [self.spin_index(plane, c) for c in range(self.n_chains)]

    @functools.cached_property
    def _iz_table(self) -> np.ndarray:
        """(dim, total_spins) table of each spin's Iz in each basis state."""
        return 0.5 - _down_bits(self.total_spins)

    @functools.cached_property
    def _plane_iz(self) -> np.ndarray:
        """(dim, n_planes) table of each plane's Iz in each basis state."""
        return self._iz_table.reshape(
            self.dim, self.n_planes, self.n_chains).sum(axis=2)

    def _groups(self, planes) -> tuple:
        """Basis states grouped by their up-counts in ``planes``, read as
        one key in base n_chains + 1: (key, pos, blocks), pos[k] k's place
        in its group, blocks one (n_b, b) array of groups per size b, each
        group's basis states ascending.  No planes: one group of all."""
        up = (self._plane_iz[:, planes] + 0.5 * self.n_chains).astype(np.int64)
        key = up @ (self.n_chains + 1) ** np.arange(up.shape[1])
        # not np.unique: it imports numpy.ma, a cost paid on every CLI call
        order = np.argsort(key, kind="stable")
        sizes = np.bincount(key)
        sizes = sizes[sizes > 0]  # in key order, as argsort groups them
        starts = np.cumsum(sizes) - sizes
        pos = np.empty(self.dim, dtype=np.int64)
        pos[order] = np.arange(self.dim) - np.repeat(starts, sizes)
        return key, pos, [order[starts[sizes == b][:, None] + np.arange(b)]
                          for b in sorted(set(sizes.tolist()))]

    @functools.cached_property
    def _sector_blocks(self) -> list:
        """H's sector blocks diagonalised, computed once per system: one
        (rows, w, V) per sector size, Hb = V diag(w) V^T from one batched
        eigh over _bit_blocks' groups of every plane, with no dense H.  For
        b = 1 the sector's H entry is its eigenvalue and V is None."""
        return [(rows, Hb[:, :, 0], None) if Hb.shape[1] == 1
                else (rows, *np.linalg.eigh(Hb))
                for rows, Hb in _bit_blocks(self, *self._terms(),
                                            range(self.n_planes))]

    def _coupling_planes(self) -> list[tuple[int, int]]:
        """(plane of i, plane of j) of each coupling."""
        return [(c.i // self.n_chains, c.j // self.n_chains)
                for c in self.couplings]

    def _terms(self):
        """H as _bit_blocks' fields (offsets along z) and tensors."""
        fields = np.outer(self.offsets, [0.0, 0.0, 1.0])
        return fields, [c.coeff * _TENSOR[p == q] for c, (p, q)
                        in zip(self.couplings, self._coupling_planes())]

    def hamiltonian(self) -> np.ndarray:
        """Internal Hamiltonian (rad/s) in the plane-0 rotating frame,
        _bit_blocks' one block from _terms(): real symmetric, offsets and
        c Iz_i Iz_j on the diagonal, and -c/4 between the basis states that
        swap the unequal bits of a same-plane pair (its flip-flop).
        """
        return _bit_blocks(self, *self._terms())[0][1][0]


def _bit_terms(sys: SpinSystem, fields, tensors):
    """sum_p v_p . F_p + sum_c I_i^T M_c I_j as (diag, flips) from the bit
    table: the diagonal, and one (flipped bits, entries by column) per
    off-diagonal term, entry [k] at row k ^ bits and column k.

    fields[p] = v_p acts on plane p's total spin F_p, tensors[c] = M_c on
    the pair of sys.couplings[c].  Iz is the diagonal sz; Ix and Iy flip the
    spin, <k ^ bit|Ix|k> = 1/2 and <k ^ bit|Iy|k> = i sz[k].
    """
    sz = sys._iz_table
    bit = 1 << np.arange(sys.total_spins)[::-1]

    def xy(s, vx, vy):  # vx Ix + vy Iy on spin s, by column
        return 0.5 * vx + 1j * vy * sz[:, s]
    diag = np.zeros(sys.dim)
    flips = []
    for p, v in enumerate(fields):
        diag += v[2] * sys._plane_iz[:, p]
        if v[:2].any():
            flips += [(bit[s], xy(s, *v[:2])) for s in sys.plane_spins(p)]
    for (i, j, *_), M in zip(sys.couplings, tensors):
        diag += M[2, 2] * sz[:, i] * sz[:, j]
        for a, b, v in ((i, j, M[2, :2]), (j, i, M[:2, 2])):  # Iz_a v.I_b
            if v.any():
                flips.append((bit[b], sz[:, a] * xy(b, *v)))
        if M[:2, :2].any():  # H: same-plane flip-flops only
            flips.append((bit[i] | bit[j],
                          xy(i, xy(j, *M[0, :2]), xy(j, *M[1, :2]))))
    return diag, flips


def _bit_blocks(sys: SpinSystem, fields, tensors, planes=()) -> list:
    """_bit_terms scattered into the groups of sys._groups(planes): one
    (rows, Ob) per group size, Ob[i] = O[rows[i]][:, rows[i]], real when
    every entry is, as for H.  With no planes the one group is every basis
    state in order, and Ob[0] is the dense d x d operator O.

    Each position sums its entries from zero in term order, so a block has
    the dense operator's bits; an entry whose image leaves its group is
    dropped.  For H, grouped by every plane, that is exact: only a
    same-plane coupling moves Iz between spins, and it keeps the pair's
    sum, so a same-plane flip-flop's entry is exactly 0 wherever its image
    would leave a sector.
    """
    key, pos, blocks = sys._groups(planes)
    diag, flips = _bit_terms(sys, fields, tensors)
    real = not any(np.any(e.imag) for _, e in flips)
    out = []
    for rows in blocks:
        b = rows.shape[1]
        Ob = np.zeros((len(rows), b, b), dtype=float if real else complex)
        for m, e in [(0, diag), *flips]:
            image = rows ^ m
            blk, col = np.nonzero(key[image] == key[rows])
            Ob[blk, pos[image[blk, col]], col] += (
                e.real if real else e)[rows[blk, col]]
        out.append((rows, Ob))
    return out


class QuantumState:
    """Pure state vector or density operator on the register."""

    def __init__(self, kind: str, data: np.ndarray):
        data = np.asarray(data, dtype=complex)
        if kind == "pure":
            if data.ndim != 1:
                raise ConfigError("pure state must be a vector")
            if not abs(np.linalg.norm(data) - 1.0) <= 1e-10:
                raise ConfigError("pure state must have unit norm")
        elif kind == "density":
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ConfigError("density operator must be square")
            if not np.max(np.abs(data - data.conj().T)) <= 1e-10:
                raise ConfigError("density operator must be Hermitian")
            if not abs(np.trace(data).real - 1.0) <= 1e-10:
                raise ConfigError("density operator must have unit trace")
            if not np.min(np.linalg.eigvalsh(data)) >= -1e-10:
                raise ConfigError("density operator must be positive")
        else:
            raise ConfigError(f"unknown state kind {kind!r}")
        self.kind = kind
        self.data = data

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def pure(cls, vec) -> "QuantumState":
        return cls("pure", vec)

    @classmethod
    def density(cls, rho) -> "QuantumState":
        return cls("density", rho)

    @classmethod
    def all_up(cls, n_spins: int) -> "QuantumState":
        """Basis state 0: every spin up."""
        vec = np.zeros(2 ** n_spins, dtype=complex)
        vec[0] = 1.0
        return cls.pure(vec)

    @classmethod
    def all_plus_x(cls, n_spins: int) -> "QuantumState":
        """Every spin along +x: the uniform vector 2^(-n/2)."""
        return cls.pure(np.full(2 ** n_spins, 2.0 ** (-0.5 * n_spins),
                                dtype=complex))

    def apply(self, U: np.ndarray) -> "QuantumState":
        out = self._stepped(functools.partial(np.matmul, U))
        return QuantumState(out.kind, out.data)

    def _stepped(self, step) -> "QuantumState":
        """The state after the unitary X -> step(X), renormalised.

        Not re-validated: a unitary step keeps a valid state valid.
        """
        out = object.__new__(QuantumState)
        out.kind = self.kind
        if self.kind == "pure":
            v = step(self.data)
            out.data = v / np.linalg.norm(v)
        else:
            # U rho U^dag = U (U rho)^dag, the dagger written contiguous;
            # then rho + rho^dag, exactly Hermitian, scaled to unit trace
            A = step(self.data)
            rho = step(np.conjugate(A.T, out=np.empty_like(A)))
            rho += rho.conj().T
            rho *= 1.0 / np.trace(rho).real
            out.data = rho
        return out


def _check_unitary(B: np.ndarray) -> None:
    """ConfigError unless each b x b matrix of B (shape (..., b, b)) is
    unitary: max|B^dag B - I| <= 1e-9, NaN failing; I taken off in place."""
    G = B.conj().swapaxes(-1, -2) @ B
    i = np.arange(B.shape[-1])
    G[..., i, i] -= 1.0
    err = np.max(np.abs(G))
    if not err <= 1e-9:
        raise ConfigError(f"propagator not unitary (deviation {err:.2e})")


@dataclass(frozen=True)
class Propagator:
    matrix: np.ndarray

    def __post_init__(self):
        U = self.matrix
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ConfigError("propagator must be square")
        _check_unitary(U)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_system(lat: ChainLattice, n_planes: int, chain_positions,
                 grad: float, include_same_plane: bool = True) -> SpinSystem:
    """Assemble a SpinSystem from crystal geometry and a field gradient.

    Offsets are omega_p = p * gamma*a*|grad| relative to plane 0.  Every
    pairwise coefficient is lattice.dipolar_coupling of the full 3D
    separation vector; same-plane pairs, full dipolar, can be dropped via
    ``include_same_plane`` to isolate cross-chain zz effects.
    """
    positions = [tuple(float(c) for c in p) for p in chain_positions]
    if len(set(positions)) != len(positions):
        raise ConfigError("duplicate chain positions")
    n_chains = len(positions)
    if n_planes * n_chains > MAX_SPINS:  # fail before the O(n^2) pair loop
        raise ConfigError(
            f"{n_planes * n_chains} spins exceeds the cap of {MAX_SPINS}")
    dw = splitting(lat, grad)
    offsets = tuple(p * dw for p in range(n_planes))
    couplings = []
    for s1, s2 in itertools.combinations(range(n_planes * n_chains), 2):
        (p1, c1), (p2, c2) = divmod(s1, n_chains), divmod(s2, n_chains)
        dx, dy = ((v2 - v1) * lat.a
                  for v1, v2 in zip(positions[c1], positions[c2]))
        dz = (p2 - p1) * lat.a
        coeff = dipolar_coupling(lat, dx, dy, dz)
        if not math.isfinite(coeff):
            raise ConfigError(
                f"spins {s1} and {s2} are too close "
                f"(r = {math.hypot(dx, dy, dz):.3e} m) for a finite coupling")
        if p1 != p2 or include_same_plane:
            couplings.append(Coupling(s1, s2, coeff))
    return SpinSystem(
        n_planes=n_planes,
        n_chains=n_chains,
        offsets=offsets,
        couplings=tuple(couplings),
    )


def _expm_real_sym(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for real symmetric H = V diag(w) V^T, as two real
    products."""
    return (V * np.cos(w * t)) @ V.T - 1j * ((V * np.sin(w * t)) @ V.T)


def _free_step(sys: SpinSystem, t: float):
    """X -> exp(-i H t) X, one unitary V_b exp(-i w_b t) V_b^T per sector.

    One-state sectors are one diagonal of phases over the whole of X, a
    contiguous pass; each larger block then overwrites its rows (sum b^2 m
    for m columns).
    """
    diag = np.ones(sys.dim, dtype=complex)
    blocks = []
    for rows, w, V in sys._sector_blocks:
        phase = np.exp(-1j * w * t)
        if V is None:
            diag[rows[:, 0]] = phase[:, 0]
        else:
            U = (V * phase[:, None, :]) @ V.transpose(0, 2, 1)
            blocks.append((rows, U))
    diag = diag[:, None]

    def step(X):
        Y = X.reshape(sys.dim, -1)
        out = diag * Y
        for rows, U in blocks:
            out[rows] = U @ Y[rows]
        return out.reshape(X.shape)
    return step


def _pulse_rotation(sys: SpinSystem, event):
    """(target spins, r) of an ideal pulse, with
    r = exp(+i theta/2 (cos(phi) sx + sin(phi) sy)) on each target.  A pi
    pulse's r has an exactly zero diagonal, where cos(pi/2) would leave
    6.1e-17, so it flips bits exactly."""
    if event.target == "broadband":
        spins = range(sys.total_spins)
    else:
        spins = sys.plane_spins(event.target)
    c = 0.0 if event.flip_angle == math.pi else math.cos(event.flip_angle / 2)
    i_sin = 1j * math.sin(event.flip_angle / 2)
    e = cmath.exp(1j * event.phase)
    return spins, np.array([[c, i_sin * e.conjugate()], [i_sin * e, c]])


def _pulse_step(sys: SpinSystem, events):
    """X -> U X for the ideal pulses of one instant: on each spin they
    touch, the 2x2 product of its rotations in time order.

    When every spin's product is monomial, exactly diagonal or exactly
    anti-diagonal (a pi pulse's, or two on one spin), U maps basis state
    k ^ mask to k times a phase: U X = ph * X[k ^ mask], one gather, mask
    the XOR of the anti-diagonal spins' bits and ph[k] the product of each
    spin's one entry r[b, b ^ flip] in row k.  Otherwise one 2x2 pass per
    spin.
    """
    rot = {}
    for ev in events:
        spins, r = _pulse_rotation(sys, ev)
        for s in spins:
            rot[s] = r @ rot[s] if s in rot else r
    flip = {s: int(r[0, 0] == 0 and r[1, 1] == 0) for s, r in rot.items()}
    if all(flip[s] or r[0, 1] == 0 and r[1, 0] == 0 for s, r in rot.items()):
        k = np.arange(sys.dim)
        mask, ph = 0, np.ones(sys.dim, dtype=complex)
        for s, r in rot.items():
            shift = sys.total_spins - 1 - s
            b = (k >> shift) & 1
            ph *= r[b, b ^ flip[s]]
            mask |= flip[s] << shift
        src, ph = k ^ mask, ph[:, None]

        def step(X):
            Y = X.reshape(sys.dim, -1)[src]
            Y *= ph
            return Y.reshape(X.shape)
        return step

    def step(X):
        shape = X.shape
        for s, r in rot.items():  # X as (2**s, 2, rest): spin s in the middle
            X = (r @ X.reshape(1 << s, 2, -1)).reshape(shape)
        return X
    return step


def _sampled_pulse_step(sys: SpinSystem, event, cache: dict):
    """X -> U X for a finite pulse: a rotating-wave drive on every spin.

    The drive oscillates at the target plane's offset wd (0 for broadband),
    so spins in other planes see it off-resonance; selectivity is physical,
    not imposed.  Sub-step j holds the drive at its midpoint phase ph_j, and
    Hd(ph) = -w1 (cos(ph) Fx + sin(ph) Fy) = r Hd(0) r^dag with
    r = exp(-i ph Fz).  H conserves total Fz, so each sub-step is
    exp(-i (H + Hd(ph_j)) dt) = r_j W r_j^dag with W = exp(-i (H - w1 Fx) dt).
    The phases step by wd dt, so r_j^dag r_{j-1} = D = exp(+i wd dt Fz) and
    the product of all n sub-steps is P = r_{n-1} (W D)^(n-1) W r_0^dag.
    For wd = 0 (broadband, or a plane at offset 0) D = exp(0) = I exactly,
    and the bracket is W^n = exp(-i (H - w1 Fx) n dt), taken from W's own
    eigendecomposition with no product of W.

    ``cache`` belongs to one walk: the eigendecomposition of H - w1 Fx per
    w1, W per (w1, dt), and the bracket per pulse shape (w1, dt, wd, n) for
    every operand.
    """
    where = (f"finite pulse at t = {event.t_start:.6g} s, "
             f"width {event.duration:.3g} s")
    if event.target != "broadband":
        sys.plane_spins(event.target)  # ConfigError when out of range
    wd = 0.0 if event.target == "broadband" else sys.offsets[event.target]
    max_off = max(sys.offsets) - min(sys.offsets)
    dt = event.duration / 10.0
    if max_off > 0:
        dt = min(dt, 1.0 / (20.0 * max_off))
    if not (dt > 0 and math.isfinite(event.duration / dt)):
        raise ConfigError(f"{where}: its sub-step of {dt:.3g} s gives no "
                          f"finite sub-step count")
    n_steps = max(1, int(math.ceil(event.duration / dt)))
    dt = event.duration / n_steps
    w1 = event.flip_angle / event.duration
    if not math.isfinite(w1):
        raise ConfigError(f"{where}: flip_angle/width is not finite")
    fz = sys._iz_table.sum(axis=1)
    pulse_shape = (w1, dt, wd, n_steps)
    P = cache.get(pulse_shape)
    if P is None:
        eig = cache.get(w1)
        if eig is None:
            fields, tensors = sys._terms()
            fields[:, 0] = -w1  # H - w1 Fx
            eig = cache[w1] = np.linalg.eigh(
                _bit_blocks(sys, fields, tensors)[0][1][0])
        if wd == 0.0:
            P = _expm_real_sym(*eig, n_steps * dt)
        else:
            W = cache.get((w1, dt))
            if W is None:
                W = cache[(w1, dt)] = _expm_real_sym(*eig, dt)
            D = np.exp(1j * wd * dt * fz)
            P = np.linalg.matrix_power(W * D, n_steps - 1) @ W
        cache[pulse_shape] = P

    def phase(j):  # r_j at sub-step j's midpoint drive phase
        ph = wd * (event.t_start + (j + 0.5) * dt) + event.phase
        return np.exp(-1j * ph * fz)[:, None]
    r0_dag, r_last = phase(0).conj(), phase(n_steps - 1)

    def step(X):
        Y = P @ (r0_dag * X.reshape(sys.dim, -1))
        return (r_last * Y).reshape(X.shape)
    return step


def _pieces(seq, fuse: bool):
    """(t0, t1, events) for each piece of seq.segments(), events () for a
    free window.  With fuse, the zero-width pulses of one instant, which
    follow each other in segments() with no window between, are one piece.
    """
    def zero_width(segment):
        return segment[2] is not None and segment[2].duration == 0.0
    for instant, run in itertools.groupby(seq.segments(), key=zero_width):
        if instant and fuse:
            run = list(run)
            yield run[0][0], run[0][1], tuple(ev for *_, ev in run)
        else:
            for t0, t1, ev in run:
                yield t0, t1, () if ev is None else (ev,)


def _walk(sys: SpinSystem, seq, mode: str, fuse: bool = False):
    """Yield (end time, step) for each of _pieces(seq, fuse).

    step(X) returns U_piece @ X for X of shape (dim,) or (dim, m).  The
    finite pulses' operator cache lives only as long as this walk.
    """
    if mode not in ("ideal", "sampled"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "ideal" and any(e.duration > 0 for e in seq.events):
        raise ConfigError("ideal mode takes only zero-width pulses; "
                          "finite widths need mode='sampled'")
    cache = {}
    for t0, t1, events in _pieces(seq, fuse):
        if not events:
            yield t1, _free_step(sys, t1 - t0)
        elif events[0].duration == 0.0:
            yield t1, _pulse_step(sys, events)
        else:
            yield t1, _sampled_pulse_step(sys, events[0], cache)


def evolve(sys: SpinSystem, seq, state: QuantumState, mode: str = "ideal"):
    """Propagate a state through a sequence.

    Returns a list of (time, QuantumState) at t=0 and after every segment
    (free window or pulse).
    """
    if state.dim != sys.dim:
        raise ConfigError("state dimension does not match the system")
    out = [(0.0, state)]
    cur = state
    for t, step in _walk(sys, seq, mode):
        cur = cur._stepped(step)
        out.append((t, cur))
    return out


def propagator(sys: SpinSystem, seq, mode: str = "ideal") -> Propagator:
    """Total unitary of the sequence (composed left-to-right in time), the
    zero-width pulses of each instant applied as one step."""
    U = np.eye(sys.dim, dtype=complex)
    for _, step in _walk(sys, seq, mode, fuse=True):
        U = step(U)
    return Propagator(U)


def propagator_entries(sys: SpinSystem, seq, perm) -> np.ndarray:
    """U[perm[k], k] for every basis state k, U the ideal-pulse propagator.

    A plane that only pi pulses reach (its own or broadband) keeps its
    up-count up to a turn-over, as a pi pulse flips bits exactly; every
    other plane mixes.  So U maps each group of equal up-counts in the kept
    planes onto the group of k ^ mask, mask the XOR of every pulse's target
    bits.  The groups' columns never share a row, so they are stacked in
    one (d, b_max) array X, X[k, pos[k]] = 1 to start, and X goes through
    propagator's walk; with no kept plane X is U.  Groups of one size end
    on groups of that size, so each group's rows of X are a block, checked
    unitary, which checks U.  ConfigError unless perm is a permutation.
    """
    k = np.arange(sys.dim)
    perm = np.asarray(perm)
    if (perm.shape != k.shape or perm.dtype.kind not in "iu"
            or not np.array_equal(np.sort(perm), k)):
        raise ConfigError(f"target is not a permutation of range({sys.dim})")
    kept = [p for p in range(sys.n_planes)
            if all(ev.flip_angle == math.pi for ev in seq.events
                   if ev.target in ("broadband", p))]
    key, pos, blocks = sys._groups(kept)
    X = np.eye(blocks[-1].shape[1], dtype=complex)[pos]
    for _, step in _walk(sys, seq, "ideal", fuse=True):
        X = step(X)
    mask = 0
    for ev in seq.events:
        for s in _pulse_rotation(sys, ev)[0]:
            mask ^= 1 << (sys.total_spins - 1 - s)
    entries = np.where(key[perm] == key[k ^ mask], X[perm, pos], 0.0)
    X = X[np.concatenate([rows.ravel() for rows in blocks])]  # rows by group
    ends = np.cumsum([rows.size for rows in blocks])
    for rows, Xb in zip(blocks, np.split(X, ends[:-1])):  # views of X
        n_b, b = rows.shape
        _check_unitary(Xb.reshape(n_b, b, -1)[..., :b])
    return entries


def expectation_iz_plane(sys: SpinSystem, state: QuantumState,
                         plane: int) -> float:
    """Sum of <Iz> over the chains of one plane."""
    sys.plane_spins(plane)  # ConfigError when out of range
    m = sys._plane_iz[:, plane]
    if state.kind == "pure":
        return float(m @ np.abs(state.data) ** 2)
    return float(m @ np.real(np.diag(state.data)))


def cnot_permutation(sys: SpinSystem, control: int,
                     target: int) -> np.ndarray:
    """The ideal CNOT on every chain copy as a basis permutation: basis
    state k goes to perm[k], which has the target spin of each chain
    flipped where that chain's control spin is down."""
    down = sys._iz_table[:, sys.plane_spins(control)] < 0
    flip = 1 << (sys.total_spins - 1 - np.array(sys.plane_spins(target)))
    return np.arange(sys.dim) ^ (down @ flip)


def gate_fidelity(entries: np.ndarray) -> float:
    """|Tr(P^dag U)| / d = |sum_k U[perm[k], k]| / d for the permutation P
    that sends basis state k to perm[k], from the d entries
    propagator_entries(sys, seq, perm); invariant under global phase."""
    return float(abs(entries.sum()) / entries.shape[0])


def diagonal_z_fidelity(U: np.ndarray):
    """Fidelity of U to the nearest product of single-spin z rotations.

    Fits a global phase plus one phase per spin from the computational-basis
    diagonal of U (phase of basis state k = sum of per-spin phases over the
    down bits of k) and returns (fidelity, phases) with fidelity
    |Tr(V^dag U)|/d for the fitted diagonal V.  Any zz phase or population
    leakage lowers the fidelity.  U is the matrix or its diagonal.
    """
    diag = U if U.ndim == 1 else np.diag(U)
    d = diag.shape[0]
    n = int(round(math.log2(d)))
    if 2 ** n != d:
        raise ConfigError("propagator dimension must be a power of 2")
    ref = diag[0] if abs(diag[0]) > 1e-30 else 1.0
    phases = np.zeros(n)
    for s in range(n):
        k = 1 << (n - 1 - s)  # basis index with only spin s flipped down
        if abs(diag[k]) > 1e-30:
            phases[s] = float(np.angle(diag[k] / ref))
    V = np.exp(1j * (np.angle(ref) + _down_bits(n) @ phases))
    fid = float(abs(np.sum(np.conj(V) * diag)) / d)
    return fid, phases


def average_hamiltonian_0(sys: SpinSystem, seq) -> np.ndarray:
    """Zeroth-order average Hamiltonian of an ideal-pulse cycle.

    Hbar = (1/T) sum_w tau_w U_w^dag H U_w, U_w the pulses before window w.
    An ideal pulse rotates all spins of a plane alike, so U_w^dag I^a U_w =
    sum_b R_p(w)[a, b] I^b, and Hbar is written like H, _bit_blocks' one
    block, from plane fields w_p sum_w (tau_w/T) R_p^T e_z and, for a
    coupling c D between planes p and q (D by p == q, as in H), c G[p, q]
    with G[p, q] = sum_w (tau_w/T) R_p^T D R_q: one contraction over
    windows.
    """
    T = seq.cycle_time
    if T <= 0:
        raise ConfigError("cycle time must be positive")
    if any(ev.duration != 0.0 for ev in seq.events):
        raise ConfigError("average_hamiltonian_0 needs instantaneous pulses")
    S = np.array([SX, SY, SZ])
    R = np.tile(np.eye(3), (sys.n_planes, 1, 1))
    windows = []  # (tau_w / T, R at window w)
    for t0, t1, ev in seq.segments():
        if ev is None:
            windows.append(((t1 - t0) / T, R.copy()))
        else:
            _, r = _pulse_rotation(sys, ev)
            planes = slice(None) if ev.target == "broadband" else ev.target
            # r^dag I^a r = sum_b adj[a, b] I^b, as Tr(I^a I^b) = delta_ab / 2
            adj = 2 * np.einsum("ji,ajk,kl,bli->ab", r.conj(), S, r, S).real
            R[planes] = adj @ R[planes]
    tau, R = map(np.array, zip(*windows))  # R: (window, plane, 3, 3)
    fields = np.einsum("w,p,wpb->pb", tau, sys.offsets, R[:, :, 2])
    G = {same: np.einsum("w,wpai,ab,wqbj->pqij", tau, R, D, R, optimize=True)
         for same, D in _TENSOR.items()}
    return _bit_blocks(sys, fields, [
        c.coeff * G[p == q][p, q]
        for c, (p, q) in zip(sys.couplings, sys._coupling_planes())])[0][1][0]
