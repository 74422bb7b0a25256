"""Force-microscopy readout and scalability models.

Covers the effective-pure-state magnetization (evaluated in log space so
large qubit counts do not overflow), the gradient readout force, cantilever
thermal force noise, the measurable-qubit and required-field curves, the
cycle-time and gate-budget models, and a single-spin simulation of cyclic
adiabatic inversion (CAI) readout.  The scalability formulas are plain
`math`; only the CAI simulation imports numpy.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, NamedTuple

from .constants import HBAR, KB, TWO_PI
from .errors import Checked, ConfigError, ConvergenceError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CantileverModel",
    "ScalabilityParams",
    "CAIParams",
    "CAIResult",
    "effective_pure_magnetization",
    "readout_force",
    "thermal_force_noise",
    "force_at_n",
    "max_measurable_qubits",
    "required_field_over_temp",
    "cycle_time_model",
    "budget_times_l",
    "gate_budget",
    "GateBudget",
    "simulate_cai_readout",
]

# Largest CAI trace (three float arrays, 240 MB); the default readout takes
# 32 000 steps.
MAX_CAI_STEPS = 10**7
# Steps per block of the CAI trace: one block's step coefficients and
# prefix products hold a few MB, so the cap's trace arrays dominate its
# memory.
_CAI_BLOCK = 2**16
# Steps per sub-block of the CAI scan: a Python loop of this length runs
# across each block's sub-blocks, and one over the sub-blocks carries the
# state; the square root of _CAI_BLOCK makes the two loops equally long.
_CAI_SUB = 256


class _CantileverModelFields(NamedTuple):
    spring_constant: float   # N/m
    resonance_freq: float    # Hz
    quality: float
    temperature: float       # K


class CantileverModel(Checked, _CantileverModelFields):
    __slots__ = ()

    def _check(self):
        for name in ("spring_constant", "resonance_freq", "quality",
                     "temperature"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")


class _ScalabilityParamsFields(NamedTuple):
    B0: float                # T
    temperature: float       # K
    N: float                 # equivalent-frequency copies per plane
    n: int                   # qubits (planes)
    grad: float              # T/m
    gamma: float             # rad/s/T
    T2_0: float              # s
    L: float                 # decoupling block length
    delta_omega: float       # rad/s, splitting of adjacent planes
    force_threshold: float   # N/sqrt(Hz)
    bandwidth: float         # Hz


class ScalabilityParams(Checked, _ScalabilityParamsFields):
    __slots__ = ()

    def _check(self):
        # delta_omega too: gamma * a * grad of finite factors can be inf
        for name in ("B0", "temperature", "N", "grad", "gamma", "T2_0",
                     "L", "delta_omega", "force_threshold", "bandwidth"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        # the log-space magnetization starts from ln(gamma * hbar * N)
        if not self.gamma * HBAR * self.N > 0:
            raise ConfigError("gamma * hbar * N underflows to 0")
        if not self.n >= 1:
            raise ConfigError("n must be at least 1")

    @property
    def detection_threshold(self) -> float:
        """Force threshold for the configured bandwidth (N)."""
        return self.force_threshold * math.sqrt(self.bandwidth)


class _CAIParamsFields(NamedTuple):
    b1: float                # T
    omega_m: float           # rad/s, modulation frequency
    excursion: float         # rad/s, peak detuning Omega
    n_periods: int           # whole modulation periods in the trace
    gamma: float             # rad/s/T


class CAIParams(Checked, _CAIParamsFields):
    """Cyclic-adiabatic-inversion drive parameters."""

    __slots__ = ()

    def _check(self):
        if not self.b1 >= 0:
            raise ConfigError("b1 must be non-negative")
        for name in ("omega_m", "excursion", "gamma"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not math.isfinite(self.omega_1):
            raise ConfigError(f"b1_T = {self.b1:.3e} T times gamma = "
                              f"{self.gamma:.3e} rad/s/T is not finite")
        if not (isinstance(self.n_periods, int) and self.n_periods >= 1):
            raise ConfigError("n_periods must be an integer of at least 1")

    @property
    def duration(self) -> float:
        """Length of the trace (s)."""
        return self.n_periods * TWO_PI / self.omega_m

    @property
    def omega_1(self) -> float:
        return self.gamma * self.b1

    @property
    def adiabaticity(self) -> float:
        return self.omega_1**2 / (self.excursion * self.omega_m)

    def excursion_warning(self, delta_omega: float | None) -> str | None:
        """The excursion should stay well below a given plane splitting."""
        if delta_omega is not None and self.excursion >= 0.5 * delta_omega:
            return (f"frequency excursion {self.excursion:.3e} rad/s is not "
                    f"small compared to the plane splitting "
                    f"{delta_omega:.3e} rad/s")
        return None


def _log_sinh(y: float) -> float:
    """log(sinh(y)) for y > 0, overflow-safe."""
    if y <= 0:
        raise ConfigError("log sinh requires positive argument")
    if y < 20:
        return math.log(math.sinh(y))
    return y - math.log(2.0) + math.log1p(-math.exp(-2.0 * y))


def _log_cosh(x: float) -> float:
    return abs(x) - math.log(2.0) + math.log1p(math.exp(-2.0 * abs(x)))


def effective_pure_magnetization(p: ScalabilityParams) -> float:
    """Usable effective-pure-state magnetization M^z (J/T).

    M^z = gamma*hbar*(N/2^n) * sinh(n*x)/cosh^n(x), x = hbar*gamma*B0/(2*kB*T),
    evaluated in log space.  At high polarization (n*x >> 1, sinh(n*x) ->
    e^{n*x}/2) this tends to M^z -> (gamma*hbar*N/2) * ((1 + tanh x)/2)^n,
    dropping a factor 1 - e^{-2*n*x}.
    """
    return _magnetization(p.gamma, p.N, p.n, p.B0, p.temperature)


def _magnetization(gamma, N, n, B0, temperature) -> float:
    x = HBAR * gamma * B0 / (2.0 * KB * temperature)
    ln_m = (math.log(gamma * HBAR * N) - n * math.log(2.0)
            + _log_sinh(n * x) - n * _log_cosh(x))
    return math.exp(ln_m)


def readout_force(mz: float, grad: float) -> float:
    """Gradient force F = M^z * |grad B^z| (N)."""
    if not (math.isfinite(mz) and math.isfinite(grad)):
        raise ConfigError("readout_force requires finite inputs")
    return mz * abs(grad)


def thermal_force_noise(c: CantileverModel) -> float:
    """Thermal force noise density sqrt(4 k kB T / (2 pi f0 Q)) (N/sqrt(Hz))."""
    return math.sqrt(4.0 * c.spring_constant * KB * c.temperature
                     / (TWO_PI * c.resonance_freq * c.quality))


def force_at_n(p: ScalabilityParams, n: int) -> float:
    return readout_force(
        _magnetization(p.gamma, p.N, n, p.B0, p.temperature), p.grad)


_N_SCAN_CAP = 100_000


def max_measurable_qubits(p: ScalabilityParams) -> int:
    """Largest n whose readout force clears the detection threshold.

    F(1) = F(2) exactly (both are gamma*hbar*N*|G|*tanh(x)/2), and ln F is
    concave in n (d^2/dn^2 ln sinh(n*x) < 0), so the force peaks at n in
    {1, 2} and decreases beyond.  Returns 0 when the peak is below
    threshold; otherwise "F < thr" is monotone over 2 <= n < _N_SCAN_CAP
    and its first n is found by bisection.  ConvergenceError when
    F(_N_SCAN_CAP) still clears the threshold.
    """
    thr = p.detection_threshold
    if max(force_at_n(p, 1), force_at_n(p, 2)) < thr:
        return 0
    if force_at_n(p, _N_SCAN_CAP) >= thr:
        raise ConvergenceError(
            f"measurable-qubit search exceeded n={_N_SCAN_CAP}")
    return bisect.bisect_left(range(2, _N_SCAN_CAP), True,
                              key=lambda n: force_at_n(p, n) < thr) + 1


def required_field_over_temp(n: int, p: ScalabilityParams) -> float:
    """B0/T (T/K) at which n qubits are exactly measurable.

    Solves readout_force = threshold by bisection over B0/T in
    [1e-6, 1e7] T/K; the force is monotone increasing in B0/T at fixed n.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    thr = p.detection_threshold

    def f(bt: float) -> float:
        mz = _magnetization(p.gamma, p.N, n, bt, 1.0)
        return readout_force(mz, p.grad) - thr

    lo, hi = 1e-6, 1e7
    flo, fhi = f(lo), f(hi)
    if flo > 0 or fhi < 0:
        raise ConvergenceError(
            f"no B0/T bracket for n={n}: f({lo:.3e})={flo:.3e}, "
            f"f({hi:.3e})={fhi:.3e}")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1 + 1e-12:
            break
    return math.sqrt(lo * hi)


def cycle_time_model(n: int, L: float, delta_omega: float) -> float:
    """Clock period of the decoupling/recoupling scheme: t_c = L*n^2/delta_omega."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    for name, v in (("L", L), ("delta_omega", delta_omega)):
        if not 0 < v < math.inf:
            raise ConfigError(f"{name} must be positive and finite")
    return L * n * n / delta_omega


def budget_times_l(T2: float, delta_omega: float, n: int) -> float:
    """Gate budget times the block length L: T2 * delta_omega / n^2."""
    return T2 * delta_omega / (n * n)


class GateBudget(NamedTuple):
    budget: float          # T2_0 / t_c(n)
    budget_times_l: float  # T2_0 * delta_omega / n^2, independent of L
    cycle_time: float      # s


def gate_budget(p: ScalabilityParams) -> GateBudget:
    """Number of gates fitting into the decoherence time at qubit count n."""
    t_c = cycle_time_model(p.n, p.L, p.delta_omega)
    return GateBudget(
        budget=p.T2_0 / t_c,
        budget_times_l=budget_times_l(p.T2_0, p.delta_omega, p.n),
        cycle_time=t_c,
    )


class CAIResult(NamedTuple):
    times: np.ndarray            # s
    iz: np.ndarray               # <Iz>(t)
    detuning: np.ndarray         # rad/s at the sample times
    following_figure: float | None  # min |<Iz>| / adiabatic prediction
    modulation_amplitude: float  # Fourier amplitude of <Iz> at omega_m
    norm_drift: float            # max | ||psi|| - 1 | over the trace


def simulate_cai_readout(params: CAIParams, initial: str = "up",
                         steps_per_period: int = 4000) -> CAIResult:
    """Single-spin cyclic adiabatic inversion trace.

    H(t) = -[Delta(t) Iz + omega_1 Ix] with Delta(t) = Omega*cos(omega_m*t):
    the modulation starts at peak detuning so the effective field is nearly
    axial at t=0, and the spin starts in the adiabatic state of H(0) whose
    <Iz> sign matches ``initial`` (the turn-on at peak detuning models the
    adiabatic half passage that locks the thermal magnetization to the
    effective field).  Each step is the exact SU(2) propagator of H at its
    midpoint.  The steps run as a two-level scan, block by block: within a
    sub-block of _CAI_SUB steps each prefix product comes from one
    vectorised loop over the positions, and the state (p, q) is carried
    across the sub-block totals as two Python complex scalars, so round-off
    grows with the number of sub-blocks rather than of steps.
    The adiabatic-following figure compares |<Iz>(t)| against the locked-spin
    prediction (1/2)|Delta|/sqrt(Delta^2+omega_1^2) where it exceeds 0.1,
    and is None where it never does.
    """
    import numpy as np

    if initial not in ("up", "down"):
        raise ConfigError("initial must be 'up' or 'down'")
    if not steps_per_period >= 1:
        raise ConfigError("steps_per_period must be at least 1")
    period = TWO_PI / params.omega_m
    w1 = params.omega_1
    Om = params.excursion
    w_eff_max = math.hypot(w1, Om)
    dt = min(period / steps_per_period, 0.1 / w_eff_max)
    # A tiny omega_m makes the step count, and with it the three trace
    # arrays, unbounded.
    if not params.duration / dt <= MAX_CAI_STEPS:
        raise ConfigError(
            f"CAI readout needs {params.duration / dt:.3g} steps, more than "
            f"the limit of {MAX_CAI_STEPS}")
    n_steps = int(math.ceil(params.duration / dt))
    dt = params.duration / n_steps

    # Initial state: eigenstate of H(0) (field in the x-z plane), with the
    # sign of <Iz> chosen by `initial`.  For b1 = 0 this is exactly |up>.
    theta = math.atan2(w1, Om)  # angle of the effective field from +z
    ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if initial == "up":
        p, q = complex(ch), complex(sh)
    else:
        # orthogonal (anti-aligned) eigenstate, <Iz> < 0 at t = 0
        p, q = complex(sh), complex(-ch)

    iz = np.empty(n_steps)
    det = np.empty(n_steps)
    times = np.arange(1, n_steps + 1) * dt
    norm_drift = 0.0
    figures = []  # each block's min |<Iz>| / prediction
    amp_re, amp_im = [], []  # each block's Fourier sum, real and imaginary
    for k0 in range(0, n_steps, _CAI_BLOCK):
        k1 = min(k0 + _CAI_BLOCK, n_steps)
        n_sub = -(-(k1 - k0) // _CAI_SUB)
        # the block's steps padded to whole sub-blocks, as a grid whose
        # column i is sub-block i and whose row j is step j of each
        k = k0 + np.arange(n_sub * _CAI_SUB).reshape(n_sub, _CAI_SUB).T
        delta = Om * np.cos(params.omega_m * ((k + 0.5) * dt))
        # exp(-i H dt) for H = -(delta Iz + w1 Ix) = v . sigma/2
        vx, vz = -w1, -delta
        nv = np.hypot(vx, vz)
        th = 0.5 * nv * dt
        c, s = np.cos(th), np.sin(th)
        # a zero field (w1 and delta underflowed to 0) is the identity step
        moving = nv != 0.0
        ux = np.divide(vx, nv, out=np.zeros_like(nv), where=moving)
        uz = np.divide(vz, nv, out=np.zeros_like(nv), where=moving)
        # U = c*I - i*s*(ux*sigma_x + uz*sigma_z) = [[a, b], [-b*, a*]];
        # a padding step is the identity
        pad = k >= k1
        a = np.where(pad, 1.0, c - 1j * s * uz)
        b = np.where(pad, 0.0, -1j * s * ux)
        # row by row, (a, b) becomes each sub-block's prefix product
        # U_j ... U_0 = [[a, b], [-b*, a*]]
        for j in range(1, _CAI_SUB):
            a_j, b_j, a_p, b_p = a[j], b[j], a[j - 1], b[j - 1]
            a[j], b[j] = (a_j * a_p - b_j * b_p.conj(),
                          a_j * b_p + b_j * a_p.conj())
        # each sub-block's start state, carried through the sub-block
        # totals as two Python complex scalars
        p0, q0 = [], []
        for a_n, b_n in zip(a[-1].tolist(), b[-1].tolist()):
            p0.append(p)
            q0.append(q)
            p, q = a_n * p + b_n * q, a_n.conjugate() * q - b_n.conjugate() * p
        p0, q0 = np.array(p0), np.array(q0)
        ps = (a * p0 + b * q0).T.ravel()[:k1 - k0]
        qs = (a.conj() * q0 - b.conj() * p0).T.ravel()[:k1 - k0]
        pp = ps.real * ps.real + ps.imag * ps.imag
        qq = qs.real * qs.real + qs.imag * qs.imag
        iz_blk = iz[k0:k1] = 0.5 * (pp - qq)
        norm_drift = max(norm_drift,
                         float(np.max(np.abs(np.sqrt(pp + qq) - 1.0))))
        d = det[k0:k1] = Om * np.cos(params.omega_m * times[k0:k1])
        field = np.hypot(d, w1)
        pred = np.divide(0.5 * np.abs(d), field, out=np.zeros_like(field),
                         where=field != 0.0)
        mask = pred > 0.1
        if mask.any():
            figures.append(float(np.min(np.abs(iz_blk[mask]) / pred[mask])))
        # Fourier amplitude at omega_m over the integer number of periods
        part = np.sum(np.exp(-1j * params.omega_m * times[k0:k1]) * iz_blk)
        amp_re.append(part.real)
        amp_im.append(part.imag)

    amp = 2.0 * abs(complex(math.fsum(amp_re), math.fsum(amp_im))) / n_steps
    return CAIResult(times=times, iz=iz, detuning=det,
                     following_figure=min(figures, default=None),
                     modulation_amplitude=amp, norm_drift=norm_drift)
