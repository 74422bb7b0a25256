"""Lattice geometry and dipolar-coupling sums."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chainqc.constants import HBAR, MU0_OVER_4PI, TWO_PI
from chainqc.errors import ConfigError
from chainqc import lattice


FAP = lattice.get_preset("fluorapatite")
CUBIC = lattice.get_preset("simple_cubic")


def whole_grid_sites(lat, radius):
    """Oracle for the row blocks: the lattice points other than the origin
    with norm <= radius and their norms, from the whole coefficient grid at
    once, in grid order."""
    B = np.array(lat.transverse_basis, dtype=float).T  # basis as columns
    smin = np.linalg.svd(B, compute_uv=False)[-1]
    if radius == 0.0 or smin == 0.0:
        nmax = 0
    else:
        nmax = int(math.ceil(radius / smin)) + 1
    rng = np.arange(-nmax, nmax + 1)
    ii, jj = np.meshgrid(rng, rng, indexing="ij")
    coeffs = np.stack([ii.ravel(), jj.ravel()], axis=1)
    pts = coeffs @ B.T
    norms = np.linalg.norm(pts, axis=1)
    mask = (norms <= radius) & ~np.all(coeffs == 0, axis=1)
    return pts[mask], norms[mask]


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
        # on one chain (mu0/4pi) gamma^2 hbar (1-3cos^2 0)/a^3, bit for bit
        gamma = TWO_PI * 40e6
        r = 3.442e-10
        expect = MU0_OVER_4PI * gamma**2 * HBAR * -2.0 / r**3
        assert lattice.dipolar_coupling(FAP, 0.0, 0.0, FAP.a) == expect
        assert lattice.dipolar_coupling(FAP, 0.0, 0.0, -FAP.a) == expect
        # about 2*pi*5.2 kHz in magnitude
        assert abs(expect) / TWO_PI == pytest.approx(5.2e3, rel=0.01)

    def test_inverse_cube_falloff(self):
        d1 = lattice.dipolar_coupling(FAP, 0.0, 0.0, FAP.a)
        d3 = lattice.dipolar_coupling(FAP, 0.0, 0.0, 3 * FAP.a)
        assert d3 == pytest.approx(d1 / 27.0)


class TestDipolarCoupling:
    def test_zero_at_the_magic_angle(self):
        # cos^2 theta = 1/3: dx^2 + dy^2 = 2 dz^2
        dz = FAP.a
        c = lattice.dipolar_coupling(FAP, dz, dz, dz)
        scale = abs(lattice.dipolar_coupling(FAP, 0.0, 0.0, math.sqrt(3) * dz))
        assert abs(c) <= 1e-15 * scale

    @pytest.mark.parametrize("dz", [1e-120, 1e-170, 0.0])
    def test_inf_where_r_cubed_underflows(self, dz):
        # r^3 underflows at 1e-120 and r itself at 1e-170
        assert lattice.dipolar_coupling(FAP, 0.0, 0.0, dz) == math.inf


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

    @pytest.mark.parametrize("radius", [-1e-9, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ConfigError, match="radius must be"):
            lattice.chain_sites_within(FAP, radius)

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

    @pytest.mark.parametrize("step", [0, 1, 2])
    def test_stops_at_the_first_doubling_within_rel_tol(self, step):
        # rel_tol set just under one doubling's relative step: the sum must
        # run past that doubling and stop at the next, whose step is about
        # 15 times smaller, with the same ratios on the way
        trace = lattice.sigma_over_delta(FAP, rel_tol=1e-6).trace
        (_, prev), (_, ratio) = trace[step:step + 2]
        m = lattice.sigma_over_delta(
            FAP, rel_tol=abs(ratio - prev) / ratio / 1.5)
        assert m.trace == trace[:step + 3]

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-4, math.nan])
    def test_bad_rel_tol_rejected(self, rel_tol):
        # NaN fails the check up front instead of running every doubling
        # into the grid cap
        with pytest.raises(ConfigError, match="rel_tol must be positive"):
            lattice.sigma_over_delta(FAP, rel_tol=rel_tol)

    def test_lower_plane_factor(self):
        base = lattice.sigma_over_delta(FAP).sigma_over_delta
        both = lattice.sigma_over_delta(
            FAP, include_lower_plane=True).sigma_over_delta
        assert both == pytest.approx(base * math.sqrt(2.0), rel=1e-6)


def sorted_sigma_over_delta(lat, rel_tol, include_lower_plane):
    """Reference for sigma_over_delta: the doublings summed over the
    sorted chain_sites_within, with the norms recomputed.  Returns n_sites
    and the trace."""
    radius = 4.0 * lat.min_transverse_spacing
    prev = None
    trace = []
    while True:
        pts = lattice.chain_sites_within(lat, radius)
        lam = np.linalg.norm(pts, axis=1) / lat.a
        total = float(np.sum(lattice.b_coefficient(lam) ** 2))
        if include_lower_plane:
            total *= 2.0
        ratio = 0.5 * math.sqrt(total)
        trace.append((radius, ratio))
        if prev is not None and abs(ratio - prev) <= rel_tol * ratio:
            return len(pts), trace
        prev = ratio
        radius *= 2.0


@pytest.mark.parametrize("lat", [FAP, CUBIC], ids=lambda lat: lat.name)
@pytest.mark.parametrize("include_lower_plane", [False, True])
@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
def test_sum_matches_sorted_reference(lat, include_lower_plane, rel_tol):
    m = lattice.sigma_over_delta(lat, rel_tol, include_lower_plane)
    n_sites, trace = sorted_sigma_over_delta(lat, rel_tol,
                                             include_lower_plane)
    assert m.n_sites == n_sites
    assert len(m.trace) == len(trace)
    for (radius, ratio), (ref_radius, ref_ratio) in zip(m.trace, trace):
        assert radius == ref_radius
        assert abs(ratio - ref_ratio) <= 1e-14 * ref_ratio
    assert m.convergence_radius == trace[-1][0]
    assert m.sigma_over_delta == m.trace[-1][1]


@pytest.mark.parametrize("lat", [FAP, CUBIC], ids=lambda lat: lat.name)
@pytest.mark.parametrize("include_lower_plane", [False, True])
@pytest.mark.parametrize("rel_tol", [1e-4, 1e-7])
def test_sum_does_not_depend_on_the_row_block(lat, include_lower_plane,
                                              rel_tol):
    m = lattice.sigma_over_delta(lat, rel_tol, include_lower_plane)
    for rows in (1, 7, 10**6):
        with mock.patch.object(lattice, "_GRID_ROWS", rows):
            assert lattice.sigma_over_delta(
                lat, rel_tol, include_lower_plane) == m


@pytest.mark.parametrize("lat", [FAP, CUBIC], ids=lambda lat: lat.name)
def test_trace_sums_each_shell_exactly(lat):
    # each shell's sum is its b^2 terms added in exact rational arithmetic
    # and rounded once; the total is the correctly rounded sum of the shells
    m = lattice.sigma_over_delta(lat, rel_tol=1e-5)
    inner = -math.inf
    shells = []
    for radius, ratio in m.trace:
        _, norms = whole_grid_sites(lat, radius)
        terms = lattice.b_coefficient(norms[norms > inner] / lat.a) ** 2
        shells.append(float(sum(map(Fraction, terms.tolist()), Fraction())))
        total = float(sum(map(Fraction, shells), Fraction()))
        assert ratio == 0.5 * math.sqrt(total)
        inner = radius
    assert m.n_sites == len(norms)


_COMPONENT = st.floats(-1.0, 1.0, allow_subnormal=False).map(
    lambda x: 1e-9 * x)


@settings(max_examples=60, deadline=None)
@given(basis=st.tuples(st.tuples(_COMPONENT, _COMPONENT),
                       st.tuples(_COMPONENT, _COMPONENT)),
       extent=st.floats(1.0, 25.0),
       picks=st.tuples(st.floats(0.0, 0.9), st.floats(0.5, 1.0)),
       open_inner=st.booleans(),
       rows=st.integers(1, 20))
def test_shell_blocks_hold_the_whole_grid_sites(basis, extent, picks,
                                                open_inner, rows):
    (ax, ay), (bx, by) = basis
    assume(ax * by - ay * bx != 0.0)  # ChainLattice refuses collinear bases
    lat = lattice.ChainLattice("random", 1e-10, basis, 1.0)
    smin = np.linalg.svd(np.array(basis).T, compute_uv=False)[-1]
    _, norms = whole_grid_sites(lat, extent * smin)
    # shell edges on site norms, so that sites lie on both edges
    edges = np.sort(np.append(norms, extent * smin))
    inner, radius = sorted(float(edges[int(p * (len(edges) - 1))])
                           for p in picks)
    if open_inner:
        inner = -math.inf
    pts, norms = whole_grid_sites(lat, radius)
    keep = norms > inner
    with mock.patch.object(lattice, "_GRID_ROWS", rows):
        blocks = list(lattice._site_blocks(lat, inner, radius))
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), pts[keep])
    assert np.array_equal(np.concatenate([b[1] for b in blocks]),
                          norms[keep])


class TestSplitting:
    def test_value(self):
        dw = lattice.splitting(FAP, 1.4e6)
        assert dw == pytest.approx(FAP.gamma * FAP.a * 1.4e6)
        assert dw / TWO_PI == pytest.approx(19.28e3, rel=1e-3)

    def test_sign_insensitive(self):
        assert lattice.splitting(FAP, -1.4e6) == lattice.splitting(FAP, 1.4e6)
