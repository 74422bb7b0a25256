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
Iz = +1/2).  H is written straight from that bit table: a diagonal of
offsets and zz terms plus the in-plane flip-flop entries.  Free evolution
runs through one cached eigendecomposition of H per system, and an ideal
pulse is a 2x2 rotation applied to each target spin's axis of the state
reshaped to (2,)*n.  A sampled (finite-width) pulse writes its drive from
the same bit table and steps in the drive's rotating frame.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .constants import HBAR, MU0_OVER_4PI
from .errors import ConfigError
from .lattice import ChainLattice, splitting

__all__ = [
    "MAX_SPINS",
    "Coupling",
    "SpinSystem",
    "QuantumState",
    "Propagator",
    "build_system",
    "evolve",
    "propagator",
    "expectation_iz_plane",
    "gate_fidelity",
    "diagonal_z_fidelity",
    "average_hamiltonian_0",
]

MAX_SPINS = 12

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


def single_spin_op(n_spins: int, index: int, op: np.ndarray) -> np.ndarray:
    """Embed a single-spin operator at position ``index`` in an n-spin space."""
    out = np.array([[1.0 + 0.0j]])
    for k in range(n_spins):
        out = np.kron(out, op if k == index else ID2)
    return out


def _down_bits(n_spins: int) -> np.ndarray:
    """(2**n, n) table: entry [k, s] is 1 where spin s is down in basis state k."""
    k = np.arange(2 ** n_spins)
    return (k[:, None] >> np.arange(n_spins - 1, -1, -1)) & 1


class Coupling(NamedTuple):
    i: int              # spin index
    j: int              # spin index
    kind: str           # 'zz' or 'full_dipolar'
    coeff: float        # rad/s


@dataclass(frozen=True)
class SpinSystem:
    n_planes: int
    chain_positions: tuple[tuple[float, float], ...]  # units of a
    offsets: tuple[float, ...]                        # rad/s, per plane
    couplings: tuple[Coupling, ...]

    def __post_init__(self):
        if self.total_spins > MAX_SPINS:
            raise ConfigError(
                f"{self.total_spins} spins exceeds the cap of {MAX_SPINS}")
        if len(self.offsets) != self.n_planes:
            raise ConfigError("need one offset per plane")
        seen = set()
        for c in self.couplings:
            if c.i == c.j:
                raise ConfigError("self-coupling in coupling table")
            if (min(c.i, c.j), max(c.i, c.j)) in seen:
                raise ConfigError("duplicate pair in coupling table")
            seen.add((min(c.i, c.j), max(c.i, c.j)))

    @property
    def n_chains(self) -> int:
        return len(self.chain_positions)

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
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) with H = V diag(w) V^T, computed once per system."""
        return np.linalg.eigh(self.hamiltonian())

    def hamiltonian(self) -> np.ndarray:
        """Internal Hamiltonian (rad/s) in the plane-0 rotating frame.

        Real symmetric: offsets and c Iz_i Iz_j on the diagonal, and for a
        full_dipolar pair the flip-flop entries -c/4 between basis states
        that differ by swapping its two (unequal) bits, which is
        (1/2) c (3 Iz Iz - I.I) written out.
        """
        sz = self._iz_table
        diag = np.zeros(self.dim)
        for p, w in enumerate(self.offsets):
            diag += w * sz[:, self.plane_spins(p)].sum(axis=1)
        H = np.zeros((self.dim, self.dim))
        k = np.arange(self.dim)
        n = self.total_spins
        for c in self.couplings:
            if c.kind not in ("zz", "full_dipolar"):
                raise ConfigError(f"unknown coupling kind {c.kind!r}")
            diag += c.coeff * sz[:, c.i] * sz[:, c.j]
            if c.kind == "full_dipolar":
                rows = k[sz[:, c.i] != sz[:, c.j]]
                mask = (1 << (n - 1 - c.i)) | (1 << (n - 1 - c.j))
                H[rows, rows ^ mask] = -0.25 * c.coeff
        H[k, k] = diag
        return H


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
    def product(cls, single_states: Iterable[np.ndarray]) -> "QuantumState":
        vec = np.array([1.0 + 0.0j])
        for s in single_states:
            vec = np.kron(vec, np.asarray(s, dtype=complex))
        return cls.pure(vec / np.linalg.norm(vec))

    @classmethod
    def all_up(cls, n_spins: int) -> "QuantumState":
        return cls.product([UP] * n_spins)

    @classmethod
    def all_plus_x(cls, n_spins: int) -> "QuantumState":
        plus = (UP + DOWN) / math.sqrt(2.0)
        return cls.product([plus] * n_spins)

    @classmethod
    def maximally_mixed(cls, n_spins: int) -> "QuantumState":
        d = 2 ** n_spins
        return cls.density(np.eye(d) / d)

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
            rho = step(step(self.data).conj().T).conj().T  # U rho U^dag
            rho = 0.5 * (rho + rho.conj().T)
            out.data = rho / np.trace(rho).real
        return out

    def expectation(self, op: np.ndarray) -> float:
        if self.kind == "pure":
            return float(np.real(self.data.conj() @ op @ self.data))
        return float(np.real(np.trace(op @ self.data)))

    def fidelity_to(self, other: "QuantumState") -> float:
        if self.kind == "pure" and other.kind == "pure":
            return float(abs(np.vdot(other.data, self.data)) ** 2)
        raise ConfigError("fidelity_to implemented for pure states only")


@dataclass(frozen=True)
class Propagator:
    matrix: np.ndarray

    def __post_init__(self):
        U = self.matrix
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ConfigError("propagator must be square")
        err = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
        if not err <= 1e-9:
            raise ConfigError(f"propagator not unitary (deviation {err:.2e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_system(lat: ChainLattice, n_planes: int, chain_positions,
                 grad: float, include_same_plane: bool = True) -> SpinSystem:
    """Assemble a SpinSystem from crystal geometry and a field gradient.

    Offsets are omega_p = p * gamma*a*|grad| relative to plane 0.  Every
    pairwise coefficient is evaluated from the full 3D separation vector;
    same-plane pairs keep the full dipolar form (optionally dropped via
    ``include_same_plane`` to isolate cross-chain zz effects).
    """
    positions = [tuple(float(c) for c in p) for p in chain_positions]
    if len(set(positions)) != len(positions):
        raise ConfigError("duplicate chain positions")
    n_chains = len(positions)
    if n_planes < 1 or n_chains < 1:
        raise ConfigError("need at least one plane and one chain")
    if n_planes * n_chains > MAX_SPINS:  # fail before the O(n^2) pair loop
        raise ConfigError(
            f"{n_planes * n_chains} spins exceeds the cap of {MAX_SPINS}")
    dw = splitting(lat, grad)
    offsets = tuple(p * dw for p in range(n_planes))
    base = MU0_OVER_4PI * lat.gamma**2 * HBAR
    couplings = []
    for s1, s2 in itertools.combinations(range(n_planes * n_chains), 2):
        (p1, c1), (p2, c2) = divmod(s1, n_chains), divmod(s2, n_chains)
        dxy = (np.array(positions[c2]) - np.array(positions[c1])) * lat.a
        dz = (p2 - p1) * lat.a
        r = math.sqrt(dxy[0]**2 + dxy[1]**2 + dz**2)
        r3 = r**3
        coeff = (base * (1.0 - 3.0 * (dz / r) ** 2) / r3
                 if r3 > 0.0 else math.inf)
        if not math.isfinite(coeff):
            raise ConfigError(
                f"spins {s1} and {s2} are too close "
                f"(r = {r:.3e} m) for a finite coupling")
        if p1 == p2:
            if include_same_plane:
                couplings.append(Coupling(s1, s2, "full_dipolar", coeff))
        else:
            couplings.append(Coupling(s1, s2, "zz", coeff))
    return SpinSystem(
        n_planes=n_planes,
        chain_positions=tuple(positions),
        offsets=offsets,
        couplings=tuple(couplings),
    )


def _expm_herm(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def _free_step(sys: SpinSystem, t: float):
    """X -> exp(-i H t) X in the eigenbasis of the system's cached H."""
    w, V = sys._eigensystem
    phase = np.exp(-1j * w * t)[:, None]

    def step(X):
        return (V @ (phase * (V.T @ X.reshape(sys.dim, -1)))).reshape(X.shape)
    return step


def _pulse_step(sys: SpinSystem, event):
    """X -> U X for an ideal pulse: a 2x2 rotation on each target spin.

    r = exp(+i theta/2 (cos(phi) sx + sin(phi) sy)); X is viewed as
    (2**s, 2, rest) so that its middle axis is spin s.
    """
    if event.target == "broadband":
        spins = range(sys.total_spins)
    else:
        spins = sys.plane_spins(event.target)
    c = math.cos(0.5 * event.flip_angle)
    i_sin = 1j * math.sin(0.5 * event.flip_angle)
    e = cmath.exp(1j * event.phase)
    r = np.array([[c, i_sin * e.conjugate()], [i_sin * e, c]])

    def step(X):
        shape = X.shape
        for s in spins:
            X = (r @ X.reshape(1 << s, 2, -1)).reshape(shape)
        return X
    return step


def _sampled_pulse_step(sys: SpinSystem, H: np.ndarray, event):
    """X -> U X for a finite pulse: a rotating-wave drive on every spin.

    The drive oscillates at the target plane's offset wd (0 for broadband),
    so spins in other planes see it off-resonance; selectivity is physical,
    not imposed.  Sub-step j holds the drive at its midpoint phase ph_j, and
    Hd(ph) = -w1 (cos(ph) Fx + sin(ph) Fy) = R Hd(0) R^dag with
    R = exp(-i ph Fz).  H conserves total Fz, so each sub-step is
    exp(-i (H + Hd(ph_j)) dt) = R_j W R_j^dag with W = exp(-i (H - w1 Fx) dt):
    one eigendecomposition per pulse and diagonal phases around it.
    """
    w1 = event.flip_angle / event.duration
    if event.target != "broadband":
        sys.plane_spins(event.target)  # ConfigError when out of range
    wd = 0.0 if event.target == "broadband" else sys.offsets[event.target]
    max_off = max(sys.offsets) - min(sys.offsets)
    dt = event.duration / 10.0
    if max_off > 0:
        dt = min(dt, 1.0 / (20.0 * max_off))
    n_steps = max(1, int(math.ceil(event.duration / dt)))
    dt = event.duration / n_steps
    if dt <= 0:
        raise ConfigError("sampled-pulse step underflow")
    k = np.arange(sys.dim)
    Hp = H.copy()
    for b in range(sys.total_spins):
        Hp[k, k ^ (1 << b)] = -0.5 * w1  # -w1 Ix of the spin on bit b
    W = _expm_herm(Hp, dt)
    fz = sys._iz_table.sum(axis=1)

    def step(X):
        Y = X.reshape(sys.dim, -1)
        for j in range(n_steps):
            ph = wd * (event.t_start + (j + 0.5) * dt) + event.phase
            r = np.exp(-1j * ph * fz)[:, None]
            Y = r * (W @ (r.conj() * Y))
        return Y.reshape(X.shape)
    return step


def _walk(sys: SpinSystem, seq, mode: str):
    """Yield (end time, step) for each piece of seq.segments().

    step(X) returns U_segment @ X for X of shape (dim,) or (dim, m).
    """
    if mode not in ("ideal", "sampled"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "ideal" and any(e.duration > 0 for e in seq.events):
        raise ConfigError("ideal mode takes only zero-width pulses; "
                          "finite widths need mode='sampled'")
    H = sys.hamiltonian() if mode == "sampled" else None
    for t0, t1, ev in seq.segments():
        if ev is None:
            yield t1, _free_step(sys, t1 - t0)
        elif ev.duration == 0.0:
            yield t1, _pulse_step(sys, ev)
        else:
            yield t1, _sampled_pulse_step(sys, H, ev)


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
    """Total unitary of the sequence (composed left-to-right in time)."""
    U = np.eye(sys.dim, dtype=complex)
    for _, step in _walk(sys, seq, mode):
        U = step(U)
    return Propagator(U)


def expectation_iz_plane(sys: SpinSystem, state: QuantumState,
                         plane: int) -> float:
    """Sum of <Iz> over the chains of one plane."""
    m = sys._iz_table[:, sys.plane_spins(plane)].sum(axis=1)
    if state.kind == "pure":
        return float(m @ np.abs(state.data) ** 2)
    return float(m @ np.real(np.diag(state.data)))


def gate_fidelity(actual: Propagator, target: Propagator) -> float:
    """|Tr(target^dag actual)| / d, invariant under global phase."""
    if actual.dim != target.dim:
        raise ConfigError("propagator dimensions do not match")
    d = actual.dim
    return float(abs(np.trace(target.matrix.conj().T @ actual.matrix)) / d)


def diagonal_z_fidelity(U: np.ndarray):
    """Fidelity of U to the nearest product of single-spin z rotations.

    Fits a global phase plus one phase per spin from the computational-basis
    diagonal of U (phase of basis state k = sum of per-spin phases over the
    down bits of k) and returns (fidelity, phases) with fidelity
    |Tr(V^dag U)|/d for the fitted diagonal V.  Any zz phase or population
    leakage lowers the fidelity.
    """
    d = U.shape[0]
    n = int(round(math.log2(d)))
    if 2 ** n != d:
        raise ConfigError("propagator dimension must be a power of 2")
    diag = np.diag(U)
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

    Computed in the toggling frame of the accumulated pulse unitaries:
    Hbar = (1/T) sum_windows tau_j U_j^dag H U_j with U_j the product of the
    pulses applied before window j.
    """
    T = seq.cycle_time
    if T <= 0:
        raise ConfigError("cycle time must be positive")
    for ev in seq.events:
        if ev.duration != 0.0:
            raise ConfigError(
                "average_hamiltonian_0 requires instantaneous pulses")
    H = sys.hamiltonian()
    Urf = np.eye(sys.dim, dtype=complex)
    Hbar = np.zeros_like(Urf)
    for t0, t1, ev in seq.segments():
        if ev is None:
            Hbar += (t1 - t0) * (Urf.conj().T @ H @ Urf)
        else:
            Urf = _pulse_step(sys, ev)(Urf)
    Hbar /= T
    return 0.5 * (Hbar + Hbar.conj().T)
