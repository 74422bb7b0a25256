"""Lattice geometry and dipolar-coupling sums."""

import math

import numpy as np
import pytest

from chainqc.constants import HBAR, MU0, TWO_PI
from chainqc.errors import ConfigError
from chainqc import lattice


FAP = lattice.get_preset("fluorapatite")
CUBIC = lattice.get_preset("simple_cubic")


class TestPresets:
    def test_names(self):
        assert lattice.preset_names() == ["fluorapatite", "simple_cubic"]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            lattice.get_preset("nope")

    def test_fluorapatite_geometry(self):
        assert FAP.a == pytest.approx(3.442e-10)
        assert FAP.min_transverse_spacing == pytest.approx(9.367e-10, rel=1e-12)
        # triangular lattice: six nearest neighbors at the same distance
        pts = lattice.chain_sites_within(FAP, 9.37e-10)
        assert len(pts) == 6

    def test_simple_cubic_geometry(self):
        assert CUBIC.min_transverse_spacing == pytest.approx(2.7255e-10)
        pts = lattice.chain_sites_within(CUBIC, 2.73e-10)
        assert len(pts) == 4

    def test_invalid_lattice(self):
        with pytest.raises(ConfigError):
            lattice.ChainLattice("bad", -1.0, ((1e-10, 0), (0, 1e-10)), 1.0)
        with pytest.raises(ConfigError):
            lattice.ChainLattice("bad", 1e-10,
                                 ((1e-10, 0), (2e-10, 0)), 1.0)


class TestIntraChainCoupling:
    def test_nearest_neighbor_magnitude(self):
        # direct evaluation of (mu0/4pi) gamma^2 hbar (1-3cos^2 phi)/a^3
        gamma = TWO_PI * 40e6
        expect = (MU0 / (4 * math.pi)) * gamma**2 * HBAR * (-2.0) / 3.442e-10**3
        assert lattice.intra_chain_coupling(FAP, 0, 1) == pytest.approx(expect)
        # about 2*pi*5.2 kHz in magnitude
        assert abs(expect) / TWO_PI == pytest.approx(5.2e3, rel=0.01)

    def test_inverse_cube_falloff(self):
        d1 = lattice.intra_chain_coupling(FAP, 0, 1)
        d3 = lattice.intra_chain_coupling(FAP, 2, 5)
        assert d3 == pytest.approx(d1 / 27.0)

    def test_same_plane_rejected(self):
        with pytest.raises(ConfigError):
            lattice.intra_chain_coupling(FAP, 3, 3)


class TestBCoefficient:
    def test_known_values(self):
        assert lattice.b_coefficient(0.0) == pytest.approx(-1.0)
        # b(1) = (1-2)/(2*2^2.5)
        assert lattice.b_coefficient(1.0) == pytest.approx(
            -1.0 / (2.0 * 2.0**2.5))
        # zero crossing at lambda = sqrt(2)
        assert lattice.b_coefficient(math.sqrt(2.0)) == pytest.approx(0.0)

    def test_far_field_decay(self):
        # b(lambda) ~ 1/(2 lambda^3) for large lambda
        lam = 100.0
        assert lattice.b_coefficient(lam) == pytest.approx(
            0.5 / lam**3, rel=1e-3)

    def test_vectorized(self):
        lam = np.array([0.0, 1.0, 2.0])
        out = lattice.b_coefficient(lam)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(-1.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            lattice.b_coefficient(-0.1)


class TestChainSites:
    def test_square_lattice_count(self):
        # integer points with 0 < x^2+y^2 <= 2.5^2: 5x5 block minus the
        # origin and the four (+-2, +-2) corners
        a = CUBIC.min_transverse_spacing
        pts = lattice.chain_sites_within(CUBIC, 2.5 * a)
        assert len(pts) == 20

    def test_sorted_by_norm(self):
        pts = lattice.chain_sites_within(FAP, 5e-9)
        norms = np.linalg.norm(pts, axis=1)
        assert np.all(np.diff(norms) >= -1e-18)

    def test_grid_cap(self):
        with pytest.raises(ConfigError, match="coefficient grid"):
            lattice.chain_sites_within(FAP, 1e-3)

    def test_origin_flag(self):
        a = CUBIC.min_transverse_spacing
        pts = lattice.chain_sites_within(CUBIC, a)
        assert len(pts) == 4
        assert np.all(np.any(pts != 0.0, axis=1))


class TestSigmaOverDelta:
    def test_fluorapatite_value(self):
        m = lattice.sigma_over_delta(FAP)
        # independent lattice sum frozen at development time; close to the
        # quoted ~1/58
        assert m.sigma_over_delta == pytest.approx(0.0173917, rel=1e-3)
        assert m.sigma == pytest.approx(
            m.sigma_over_delta * abs(m.delta_omega_nn))

    def test_simple_cubic_value(self):
        m = lattice.sigma_over_delta(CUBIC)
        assert m.sigma_over_delta == pytest.approx(0.0980278, rel=1e-3)

    def test_direct_sum_oracle(self):
        # brute-force square-lattice sum without the library helpers
        lat = CUBIC
        total = 0.0
        for i in range(-60, 61):
            for j in range(-60, 61):
                if i == 0 and j == 0:
                    continue
                lam = math.hypot(i, j)  # a == transverse spacing here
                total += ((lam**2 - 2.0)
                          / (2.0 * (1.0 + lam**2) ** 2.5)) ** 2
        oracle = 0.5 * math.sqrt(total)
        m = lattice.sigma_over_delta(lat, rel_tol=1e-6)
        assert m.sigma_over_delta == pytest.approx(oracle, rel=1e-4)

    def test_trace_monotone_convergence(self):
        m = lattice.sigma_over_delta(FAP)
        ratios = [r for _, r in m.trace]
        assert len(ratios) >= 2
        assert abs(ratios[-1] - ratios[-2]) <= 1e-4 * ratios[-1]

    def test_lower_plane_factor(self):
        base = lattice.sigma_over_delta(FAP).sigma_over_delta
        both = lattice.sigma_over_delta(
            FAP, include_lower_plane=True).sigma_over_delta
        assert both == pytest.approx(base * math.sqrt(2.0), rel=1e-6)


class TestSplitting:
    def test_value(self):
        dw = lattice.splitting(FAP, 1.4e6)
        assert dw == pytest.approx(FAP.gamma * FAP.a * 1.4e6)
        assert dw / TWO_PI == pytest.approx(19.28e3, rel=1e-3)

    def test_sign_insensitive(self):
        assert lattice.splitting(FAP, -1.4e6) == lattice.splitting(FAP, 1.4e6)
