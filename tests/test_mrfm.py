"""Readout force, scalability curves, and adiabatic-inversion simulation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from chainqc.constants import HBAR, KB, TWO_PI
from chainqc.errors import ConfigError, ConvergenceError
from chainqc import config, mrfm
from chainqc.mrfm import CAIParams, CantileverModel, ScalabilityParams


DESIGN = ScalabilityParams()


class TestMagnetization:
    def test_matches_direct_formula(self):
        # overflow-free path vs the plain expression where it is safe
        for n, b0, temp in ((1, 7.0, 4.0), (5, 7.0, 4.0), (10, 7.0, 4.0),
                            (20, 100.0, 1.0)):
            p = replace(DESIGN, n=n, B0=b0, temperature=temp)
            x = HBAR * p.gamma * b0 / (2 * KB * temp)
            direct = (p.gamma * HBAR * p.N * 2.0**-n
                      * math.sinh(n * x) / math.cosh(x) ** n)
            assert mrfm.effective_pure_magnetization(p) == pytest.approx(
                direct, rel=1e-12)

    def test_no_overflow_in_extreme_regime(self):
        p = replace(DESIGN, n=300, B0=2000.0, temperature=1.0)
        m = mrfm.effective_pure_magnetization(p)
        assert math.isfinite(m)
        assert m > 0

    def test_high_temperature_limit(self):
        p = replace(DESIGN, B0=1e-4)
        full = mrfm.effective_pure_magnetization(p)
        approx = mrfm.high_temp_magnetization(p)
        assert full == pytest.approx(approx, rel=1e-3)

    def test_scaling_with_copies(self):
        p2 = replace(DESIGN, N=2 * DESIGN.N)
        assert mrfm.effective_pure_magnetization(p2) == pytest.approx(
            2 * mrfm.effective_pure_magnetization(DESIGN))


class TestForce:
    def test_design_point_value(self):
        # frozen at development time; about 10^-15 * n * 2^-n N at n=10
        f = mrfm.force_at_n(DESIGN, 10)
        assert f == pytest.approx(6.0869e-18, rel=1e-3)
        assert 0.5 < f / (1e-15 * 10 * 2.0**-10) < 2.0

    def test_readout_force_linear_in_gradient(self):
        m = mrfm.effective_pure_magnetization(DESIGN)
        assert mrfm.readout_force(m, 2.8e6) == pytest.approx(
            2 * mrfm.readout_force(m, 1.4e6))

    def test_thermal_noise(self):
        c = CantileverModel(spring_constant=1e-3, resonance_freq=5e3,
                            quality=5e4, temperature=4.0)
        expect = math.sqrt(4 * 1e-3 * KB * 4.0 / (TWO_PI * 5e3 * 5e4))
        assert mrfm.thermal_force_noise(c) == pytest.approx(expect)
        # order 1e-17 N/sqrt(Hz) for these cantilever numbers
        assert 1e-18 < mrfm.thermal_force_noise(c) < 1e-16


class TestMeasurableQubits:
    def test_design_point(self):
        assert mrfm.max_measurable_qubits(DESIGN) == 10

    def test_zero_when_hopeless(self):
        p = replace(DESIGN, N=1.0)
        assert mrfm.max_measurable_qubits(p) == 0

    def test_matches_linear_scan(self):
        answers = set()
        for bt in (1.75, 40.0, 2000.0):
            for n_copies in (1.0, 1e3, 1e7):
                p = replace(DESIGN, B0=bt, temperature=1.0, N=n_copies)
                f1 = mrfm.force_at_n(p, 1)
                for thr in (1e-22, 5.6e-18, 1e-15, 0.9 * f1, f1):
                    q = replace(p, force_threshold=thr)
                    scan = [n for n in range(1, 1200)
                            if mrfm.force_at_n(q, n) >= thr]
                    expect = max(scan, default=0)
                    assert mrfm.max_measurable_qubits(q) == expect
                    answers.add(expect)
        assert 0 in answers
        assert answers & {1, 2}
        assert max(answers) >= 100

    def test_required_field_monotone(self):
        vals = [mrfm.required_field_over_temp(n, DESIGN)
                for n in (2, 5, 10, 30, 100, 300)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_round_trip(self):
        for n in (5, 10, 40):
            bt = mrfm.required_field_over_temp(n, DESIGN)
            p = replace(DESIGN, B0=bt * 1.0001, temperature=1.0)
            assert abs(mrfm.max_measurable_qubits(p) - n) <= 1

    def test_design_field_over_temp(self):
        # the 7 T / 4 K design point sits at the n=10 boundary
        assert mrfm.required_field_over_temp(10, DESIGN) == pytest.approx(
            1.61, rel=0.01)

    def test_bracket_failure(self):
        with pytest.raises(ConvergenceError):
            mrfm.required_field_over_temp(
                10, replace(DESIGN, force_threshold=1e10))


class TestGateBudget:
    def test_splitting_follows_gradient(self):
        assert DESIGN.delta_omega == mrfm.DEFAULT_GAMMA * 3.442e-10 * 1.4e6
        doubled = replace(DESIGN, grad=2 * DESIGN.grad)
        assert doubled.delta_omega == 2 * DESIGN.delta_omega
        assert (mrfm.gate_budget(doubled).budget
                == 2 * mrfm.gate_budget(DESIGN).budget)

    def test_algebraic_identity(self):
        for n in (2, 10, 100):
            p = replace(DESIGN, n=n)
            b = mrfm.gate_budget(p)
            assert b.budget_times_l == pytest.approx(
                p.T2_0 * p.delta_omega / n**2, rel=1e-15)
            assert b.budget * p.L == pytest.approx(b.budget_times_l,
                                                   rel=1e-12)

    def test_spot_value(self):
        b = mrfm.gate_budget(replace(DESIGN, n=10, T2_0=0.1))
        assert b.budget_times_l == pytest.approx(121.1, rel=0.01)

    def test_t2_spacing_20db(self):
        b1 = mrfm.gate_budget(replace(DESIGN, T2_0=0.1)).budget
        b2 = mrfm.gate_budget(replace(DESIGN, T2_0=10.0)).budget
        b3 = mrfm.gate_budget(replace(DESIGN, T2_0=1000.0)).budget
        assert b2 / b1 == pytest.approx(100.0)
        assert b3 / b2 == pytest.approx(100.0)


def cai_params(adiabaticity=10.0, ratio=2.0, w1=TWO_PI * 10e3, periods=6):
    omega_m = w1 / (adiabaticity * ratio)
    return CAIParams(
        b1=w1 / (TWO_PI * 40e6),
        omega_m=omega_m,
        excursion=ratio * w1,
        duration=periods * TWO_PI / omega_m,
    )


def stepwise_cai_readout(params, initial="up", steps_per_period=4000):
    """Reference CAI integrator: the state is a numpy 2-vector, rebuilt and
    normalised-checked with np.linalg.norm at every step, and the trace is
    filled by index."""
    period = TWO_PI / params.omega_m
    w1 = params.omega_1
    Om = params.excursion
    w_eff_max = math.hypot(w1, Om)
    dt = min(period / steps_per_period, 0.1 / w_eff_max)
    n_steps = int(math.ceil(params.duration / dt))
    dt = params.duration / n_steps

    d0 = Om  # Delta(0) = Omega (peak)
    theta = math.atan2(w1, d0)  # angle of the effective field from +z
    if initial == "up":
        psi = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)],
                       dtype=complex)
    else:
        # orthogonal (anti-aligned) eigenstate, <Iz> < 0 at t = 0
        psi = np.array([math.sin(theta / 2.0), -math.cos(theta / 2.0)],
                       dtype=complex)

    times = np.empty(n_steps)
    iz = np.empty(n_steps)
    det = np.empty(n_steps)
    norm_drift = 0.0
    for k in range(n_steps):
        tm = (k + 0.5) * dt
        delta = Om * math.cos(params.omega_m * tm)
        # exp(-i H dt) for H = -(delta Iz + w1 Ix) = v . sigma/2
        vx, vz = -w1, -delta
        nv = math.hypot(vx, vz)
        th = 0.5 * nv * dt
        c, s = math.cos(th), math.sin(th)
        ux, uz = vx / nv, vz / nv
        # U = c*I - i*s*(ux*sigma_x + uz*sigma_z)
        a = c - 1j * s * uz
        b = -1j * s * ux
        psi = np.array([a * psi[0] + b * psi[1],
                        b * psi[0] + np.conj(a) * psi[1]])
        t = (k + 1) * dt
        times[k] = t
        iz[k] = 0.5 * (abs(psi[0])**2 - abs(psi[1])**2)
        det[k] = Om * math.cos(params.omega_m * t)
        norm_drift = max(norm_drift, abs(np.linalg.norm(psi) - 1.0))

    pred = 0.5 * np.abs(det) / np.hypot(det, w1)
    mask = pred > 0.1
    if mask.any():
        following = float(np.min(np.abs(iz[mask]) / pred[mask]))
    else:
        following = math.nan
    # Fourier amplitude at omega_m over the integer number of periods.
    phase = np.exp(-1j * params.omega_m * times)
    amp = 2.0 * abs(np.sum(iz * phase)) / n_steps
    return mrfm.CAIResult(times=times, iz=iz, detuning=det,
                          following_figure=following,
                          modulation_amplitude=amp, norm_drift=norm_drift)


def _same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


_DEFAULT_CAI = config.load_config(None).cai()
# A short, strongly driven trace whose step is set by 0.1/w_eff_max rather
# than by period/steps_per_period.
_FAST = cai_params(adiabaticity=50.0, periods=1)
assert 0.1 / math.hypot(_FAST.omega_1, _FAST.excursion) < (
    TWO_PI / _FAST.omega_m / 100)


@pytest.mark.parametrize("params, initial, steps_per_period", [
    (_DEFAULT_CAI, "up", 4000),
    (_DEFAULT_CAI, "down", 4000),
    (replace(_DEFAULT_CAI, b1=0.0), "up", 4000),
    (cai_params(adiabaticity=2.0), "up", 4000),
    (cai_params(adiabaticity=20.0), "down", 4000),
    (cai_params(periods=1), "up", 100),
    (_FAST, "up", 100),
], ids=["default-up", "default-down", "b1-zero", "adiabaticity-2",
        "adiabaticity-20", "100-steps-1-period", "dt-from-w-eff"])
def test_cai_matches_stepwise_oracle_exactly(params, initial,
                                             steps_per_period):
    got = mrfm.simulate_cai_readout(params, initial, steps_per_period)
    ref = stepwise_cai_readout(params, initial, steps_per_period)
    for name in ("times", "iz", "detuning"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    for name in ("following_figure", "modulation_amplitude", "norm_drift"):
        assert _same_float(getattr(got, name), getattr(ref, name)), name


class TestCAI:
    def test_adiabaticity_value(self):
        p = cai_params(adiabaticity=10.0)
        assert p.adiabaticity == pytest.approx(10.0)

    def test_following_at_adiabaticity_10(self):
        res = mrfm.simulate_cai_readout(cai_params(adiabaticity=10.0))
        assert res.following_figure >= 0.99
        assert res.norm_drift < 1e-10

    def test_following_improves_with_adiabaticity(self):
        lo = mrfm.simulate_cai_readout(cai_params(adiabaticity=2.0))
        hi = mrfm.simulate_cai_readout(cai_params(adiabaticity=20.0))
        assert hi.following_figure > lo.following_figure

    def test_down_initial_mirrors_up(self):
        up = mrfm.simulate_cai_readout(cai_params(), initial="up")
        dn = mrfm.simulate_cai_readout(cai_params(), initial="down")
        assert np.max(np.abs(up.iz + dn.iz)) < 1e-6

    def test_spectral_peak_at_modulation_frequency(self):
        p = cai_params()
        res = mrfm.simulate_cai_readout(p)
        spec = np.abs(np.fft.rfft(res.iz))
        freqs = np.fft.rfftfreq(len(res.iz), d=res.times[1] - res.times[0])
        peak = freqs[1 + np.argmax(spec[1:])] * TWO_PI
        assert peak == pytest.approx(p.omega_m, rel=0.02)
        assert res.modulation_amplitude > 0.3
        wave = p.excursion * np.cos(p.omega_m * res.times)
        assert np.max(np.abs(res.detuning - wave)) <= 1e-12 * p.excursion

    def test_duration_must_be_integer_periods(self):
        p = cai_params()
        bad = CAIParams(b1=p.b1, omega_m=p.omega_m, excursion=p.excursion,
                        duration=p.duration * 1.1)
        with pytest.raises(ConfigError):
            mrfm.simulate_cai_readout(bad)

    def test_excursion_warning(self):
        p = cai_params()
        assert p.excursion_warning(1e9) is None
        assert p.excursion_warning(p.excursion) is not None

    @pytest.mark.parametrize("steps", [0, -5])
    def test_invalid_steps_per_period(self, steps):
        with pytest.raises(ConfigError, match="steps_per_period"):
            mrfm.simulate_cai_readout(cai_params(), steps_per_period=steps)

    def test_invalid_initial(self):
        with pytest.raises(ConfigError):
            mrfm.simulate_cai_readout(cai_params(), initial="sideways")
