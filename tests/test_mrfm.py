"""Readout force, scalability curves, and adiabatic-inversion simulation."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainqc.constants import HBAR, KB, TWO_PI
from chainqc.errors import ConfigError, ConvergenceError
from chainqc import config, mrfm
from chainqc.mrfm import CAIParams, CantileverModel


DESIGN = config.load_config(None).scalability()


def high_temp_magnetization(p):
    """High-temperature limit (gamma^2 hbar^2 B0 / 2 kB T) * N * n * 2^-n."""
    return (p.gamma**2 * HBAR**2 * p.B0 / (2.0 * KB * p.temperature)
            * p.N * p.n * math.exp(-p.n * math.log(2.0)))


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
        approx = high_temp_magnetization(p)
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

    def test_scan_cap(self, monkeypatch):
        # the count is searched up to the cap; only a force that still
        # clears the threshold at the cap raises
        monkeypatch.setattr(mrfm, "_N_SCAN_CAP", 100)
        p = replace(DESIGN, B0=1000.0, temperature=1.0)
        expect = max(n for n in range(1, 100)
                     if mrfm.force_at_n(p, n) >= p.detection_threshold)
        assert 64 <= expect < 100
        assert mrfm.max_measurable_qubits(p) == expect
        p = replace(p, B0=1200.0)
        assert mrfm.force_at_n(p, 100) >= p.detection_threshold
        with pytest.raises(ConvergenceError, match="exceeded n=100"):
            mrfm.max_measurable_qubits(p)

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

    @pytest.mark.parametrize("p", [
        DESIGN, replace(DESIGN, N=1e9, grad=2e6, force_threshold=1e-19)],
        ids=["design", "dense-strong-gradient"])
    def test_required_field_matches_replace_bisection(self, p):
        for n in range(1, 61):
            assert (mrfm.required_field_over_temp(n, p)
                    == replace_bisection(n, p)), n

    def test_copies_underflow_refused(self):
        # ln(gamma * hbar * N) would be a math domain error
        with pytest.raises(ConfigError, match="underflows"):
            replace(DESIGN, N=1e-300)

    def test_bracket_failure(self):
        with pytest.raises(ConvergenceError):
            mrfm.required_field_over_temp(
                10, replace(DESIGN, force_threshold=1e10))


def replace_bisection(n, p):
    """Reference for required_field_over_temp: the bisection with a
    validated ScalabilityParams per step."""
    thr = p.detection_threshold

    def f(bt):
        q = replace(p, B0=bt, temperature=1.0, n=n)
        return mrfm.readout_force(
            mrfm.effective_pure_magnetization(q), p.grad) - thr

    lo, hi = 1e-6, 1e7
    assert f(lo) <= 0 <= f(hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1 + 1e-12:
            break
    return math.sqrt(lo * hi)


class TestGateBudget:
    def test_splitting_follows_gradient(self):
        assert DESIGN.delta_omega == TWO_PI * 40e6 * 3.442e-10 * 1.4e6
        doubled = config.parse_config({
            "schema_version": 1,
            "spin_system": {"grad_T_per_m": 2 * DESIGN.grad}}).scalability()
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


class TestCycleTimeModel:
    def test_formula(self):
        assert mrfm.cycle_time_model(10, 16.0, 1.21e5) == pytest.approx(
            16.0 * 100 / 1.21e5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            mrfm.cycle_time_model(0, 16.0, 1.0)

    @pytest.mark.parametrize("name, L, delta_omega", [
        ("L", math.nan, 1.0), ("L", math.inf, 1.0), ("L", 0.0, 1.0),
        ("L", -16.0, 1.0),
        ("delta_omega", 16.0, math.nan), ("delta_omega", 16.0, math.inf),
        ("delta_omega", 16.0, 0.0), ("delta_omega", 16.0, -1.0),
    ])
    def test_rejects_non_positive_or_non_finite(self, name, L, delta_omega):
        with pytest.raises(ConfigError,
                           match=f"^{name} must be positive and finite$"):
            mrfm.cycle_time_model(10, L, delta_omega)


def cai_params(adiabaticity=10.0, ratio=2.0, w1=TWO_PI * 10e3, periods=6):
    omega_m = w1 / (adiabaticity * ratio)
    return CAIParams(
        b1=w1 / (TWO_PI * 40e6),
        omega_m=omega_m,
        excursion=ratio * w1,
        n_periods=periods,
        gamma=TWO_PI * 40e6,
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
        following = None
    # Fourier amplitude at omega_m over the integer number of periods.
    phase = np.exp(-1j * params.omega_m * times)
    amp = 2.0 * abs(np.sum(iz * phase)) / n_steps
    return mrfm.CAIResult(times=times, iz=iz, detuning=det,
                          following_figure=following,
                          modulation_amplitude=amp, norm_drift=norm_drift)


_DEFAULT_CAI = config.load_config(None).cai()
# A short, strongly driven trace whose step is set by 0.1/w_eff_max rather
# than by period/steps_per_period.
_FAST = cai_params(adiabaticity=50.0, periods=1)
assert 0.1 / math.hypot(_FAST.omega_1, _FAST.excursion) < (
    TWO_PI / _FAST.omega_m / 100)


# The scan multiplies the steps in another order than the oracle's loop,
# so the two agree to round-off.  Largest deviations measured over the
# oracle cases below, with _CAI_SUB of 1, 3 and 256 and _CAI_BLOCK of 997
# and 2^16 (numpy 2.4, x86-64): iz 3.1e-14, following figure 4.6e-14,
# amplitude 1.6e-14, norm drift 1.7e-14, detuning bit-equal.  Each bound
# is about three times the largest; the detuning's allows numpy's cos one
# last-bit difference from math's.
_CAI_BOUNDS = {"iz": 1e-13, "following_figure": 1.5e-13,
               "modulation_amplitude": 5e-14, "norm_drift": 5e-14}


def assert_cai_near_oracle(got, ref, params):
    assert np.array_equal(got.times, ref.times)
    assert np.max(np.abs(got.detuning - ref.detuning)) <= (
        2 * np.spacing(params.excursion))
    assert np.max(np.abs(got.iz - ref.iz)) <= _CAI_BOUNDS["iz"]
    if ref.following_figure is None:
        assert got.following_figure is None
    else:
        assert abs(got.following_figure - ref.following_figure) <= (
            _CAI_BOUNDS["following_figure"])
    for name in ("modulation_amplitude", "norm_drift"):
        assert abs(getattr(got, name) - getattr(ref, name)) <= (
            _CAI_BOUNDS[name]), name


_oracle = functools.cache(stepwise_cai_readout)

_CAI_CASES = [
    ("default-up", (_DEFAULT_CAI, "up", 4000)),
    ("default-down", (_DEFAULT_CAI, "down", 4000)),
    ("b1-zero", (replace(_DEFAULT_CAI, b1=0.0), "up", 4000)),
    ("adiabaticity-2", (cai_params(adiabaticity=2.0), "up", 4000)),
    ("adiabaticity-20", (cai_params(adiabaticity=20.0), "down", 4000)),
    ("100-steps-1-period", (cai_params(periods=1), "up", 100)),
    ("dt-from-w-eff", (_FAST, "up", 100)),
]
# 769 steps: three whole sub-blocks of 256 (or 256 of 3) and one step, so
# the scan pads the last sub-block with identity steps
_PADDED = ("last-sub-block-padded", (cai_params(adiabaticity=2.0, periods=1),
                                     "up", 769))


def cai_grid(cases):
    """Each case at each patched _CAI_SUB; the default keeps the case id."""
    return [pytest.param(*case, sub, id=name if sub == mrfm._CAI_SUB
                         else f"{name}-sub-{sub}")
            for name, case in cases for sub in (1, 3, mrfm._CAI_SUB)]


def test_padded_case_ends_one_step_into_a_sub_block():
    params, initial, steps_per_period = _PADDED[1]
    got = mrfm.simulate_cai_readout(params, initial, steps_per_period)
    assert len(got.times) % mrfm._CAI_SUB == 1
    assert len(got.times) % 3 == 1


@pytest.mark.parametrize("params, initial, steps_per_period, sub",
                         cai_grid(_CAI_CASES + [_PADDED]))
def test_cai_matches_stepwise_oracle_exactly(monkeypatch, params, initial,
                                             steps_per_period, sub):
    monkeypatch.setattr(mrfm, "_CAI_SUB", sub)
    got = mrfm.simulate_cai_readout(params, initial, steps_per_period)
    assert_cai_near_oracle(got, _oracle(params, initial, steps_per_period),
                           params)


@pytest.mark.parametrize("params, initial, steps_per_period, sub",
                         cai_grid(_CAI_CASES))
def test_cai_blocks_match_stepwise_oracle_exactly(monkeypatch, params,
                                                  initial, steps_per_period,
                                                  sub):
    # The oracle's cases in blocks of 997 steps: each crosses block
    # boundaries that do not fall on sub-block boundaries, so p, q and
    # norm_drift must carry from block to block through padded sub-blocks.
    monkeypatch.setattr(mrfm, "_CAI_BLOCK", 997)
    monkeypatch.setattr(mrfm, "_CAI_SUB", sub)
    got = mrfm.simulate_cai_readout(params, initial, steps_per_period)
    assert len(got.times) > 2 * mrfm._CAI_BLOCK
    assert_cai_near_oracle(got, _oracle(params, initial, steps_per_period),
                           params)


@settings(settings.get_profile("oracle-deep")
          if settings.get_current_profile_name() == "oracle-deep"
          else settings(max_examples=25, deadline=None))
@given(adiabaticity=st.floats(1.0, 20.0), ratio=st.floats(0.5, 4.0),
       periods=st.integers(1, 3), initial=st.sampled_from(["up", "down"]),
       steps_per_period=st.integers(100, 400))
def test_cai_near_stepwise_oracle(adiabaticity, ratio, periods, initial,
                                  steps_per_period):
    params = cai_params(adiabaticity=adiabaticity, ratio=ratio,
                        periods=periods)
    got = mrfm.simulate_cai_readout(params, initial, steps_per_period)
    assert_cai_near_oracle(
        got, stepwise_cai_readout(params, initial, steps_per_period), params)


class TestCAI:
    def test_excursion_warning_from_half_the_splitting(self):
        p = cai_params()
        half = 2.0 * p.excursion  # excursion exactly 0.5 delta_omega
        assert p.excursion_warning(half) is not None
        assert p.excursion_warning(math.nextafter(half, math.inf)) is None
        assert p.excursion_warning(None) is None

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
        for n_periods in (0, 1.5):
            with pytest.raises(ConfigError, match="n_periods"):
                cai_params(periods=n_periods)

    def test_following_undefined_without_prediction(self):
        # an excursion far below omega_1 keeps the prediction under 0.1
        p = replace(cai_params(periods=1), excursion=1.0)
        res = mrfm.simulate_cai_readout(p, steps_per_period=100)
        assert res.following_figure is None

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
