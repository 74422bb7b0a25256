"""Prism magnetostatics against quadrature and finite-difference oracles."""

import functools
import math

import numpy as np
import pytest

from chainqc.constants import MU0, TWO_PI
from chainqc.errors import ConfigError, ConvergenceError
from chainqc import magnet
from chainqc.magnet import PrismMagnet


MAG = PrismMagnet(w=10e-6, h=10e-6, d=10e-6, center=(0.0, 0.0, 6e-6),
                  magnetization=1.75e6)


def moment(mag: PrismMagnet) -> float:
    """Total magnetic moment (A*m^2)."""
    return mag.magnetization * mag.w * mag.h * mag.d


def bz_quadrature(mag: PrismMagnet, r, order=160):
    """Surface-charge quadrature oracle for B_z (Gauss-Legendre per face)."""
    (x1, x2), (y1, y2), (z1, z2) = mag.bounds
    xg, wx = np.polynomial.legendre.leggauss(order)
    xs = 0.5 * (x2 - x1) * xg + 0.5 * (x1 + x2)
    ys = 0.5 * (y2 - y1) * xg + 0.5 * (y1 + y2)
    wxs = 0.5 * (x2 - x1) * wx
    wys = 0.5 * (y2 - y1) * wx
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = np.outer(wxs, wys)
    x, y, z = r
    total = 0.0
    for zc, sgn in ((z2, 1.0), (z1, -1.0)):
        Z = z - zc
        R3 = ((x - X) ** 2 + (y - Y) ** 2 + Z**2) ** 1.5
        total += sgn * np.sum(W * Z / R3)
    return MU0 * mag.magnetization / (4.0 * math.pi) * total


def exterior_points(mag: PrismMagnet, count, seed, margin=0.5):
    """Random points at least margin*max_dim outside the prism bounds."""
    rng = np.random.default_rng(seed)
    (x1, x2), (y1, y2), (z1, z2) = mag.bounds
    dmax = max(mag.w, mag.h, mag.d)
    pts = []
    while len(pts) < count:
        p = rng.uniform(-3, 3, size=3) * dmax + np.array(mag.center)
        gap = max(x1 - p[0], p[0] - x2, y1 - p[1], p[1] - y2,
                  z1 - p[2], p[2] - z2)
        if gap > margin * dmax:
            pts.append(p)
    return pts


class TestPrism:
    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            PrismMagnet(w=-1.0, h=1.0, d=1.0)

    def test_contains(self):
        assert MAG.contains((0.0, 0.0, 6e-6))
        assert not MAG.contains((0.0, 0.0, 0.5e-6))

    def test_moment(self):
        assert moment(MAG) == pytest.approx(1.75e6 * (10e-6) ** 3)

    def test_interior_rejected(self):
        with pytest.raises(ConfigError):
            magnet.bz_at(MAG, (0.0, 0.0, 6e-6))
        with pytest.raises(ConfigError):
            magnet.grad_bz_at(MAG, (0.0, 0.0, 6e-6))


class TestFieldOracles:
    def test_bz_matches_quadrature(self):
        for p in exterior_points(MAG, 8, seed=1):
            ana = magnet.bz_at(MAG, p)
            quad = bz_quadrature(MAG, p)
            assert ana == pytest.approx(quad, rel=1e-8, abs=1e-15)

    def test_grad_matches_finite_difference(self):
        h = 1e-11
        for p in exterior_points(MAG, 8, seed=2):
            g = magnet.grad_bz_at(MAG, p)
            for ax in range(3):
                e = np.zeros(3)
                e[ax] = h
                fd = (magnet.bz_at(MAG, p + e)
                      - magnet.bz_at(MAG, p - e)) / (2 * h)
                assert g[ax] == pytest.approx(fd, rel=1e-5, abs=1e-4)

    def test_divergence_and_curl_free(self):
        h = 1e-11
        for p in exterior_points(MAG, 4, seed=3):
            J = np.zeros((3, 3))
            for ax in range(3):
                e = np.zeros(3)
                e[ax] = h
                J[:, ax] = (magnet.b_field(MAG, p + e)
                            - magnet.b_field(MAG, p - e)) / (2 * h)
            scale = max(np.max(np.abs(J)), 1e-3)
            assert abs(np.trace(J)) < 1e-4 * scale
            curl = np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0],
                             J[1, 0] - J[0, 1]])
            assert np.max(np.abs(curl)) < 1e-4 * scale

    def test_dipole_far_field(self):
        m = moment(MAG)
        c = np.array(MAG.center)
        for hat, expect_fac in (((0.0, 0.0, 1.0), 2.0),
                                ((1.0, 0.0, 0.0), -1.0)):
            r = 60 * 10e-6
            p = c + r * np.array(hat)
            dip = MU0 * m / (4 * math.pi) * expect_fac / r**3
            assert magnet.bz_at(MAG, p) == pytest.approx(dip, rel=0.01)

    def test_superposition_and_scaling(self):
        m2 = PrismMagnet(w=4e-6, h=2e-6, d=6e-6, center=(12e-6, 0.0, 6e-6),
                         magnetization=1e6)
        p = np.array([0.0, 1e-6, -2e-6])
        total = magnet.bz_at(MAG, p) + magnet.bz_at(m2, p)
        # linearity in magnetization
        m2x = PrismMagnet(w=4e-6, h=2e-6, d=6e-6, center=(12e-6, 0.0, 6e-6),
                          magnetization=2e6)
        assert magnet.bz_at(m2x, p) == pytest.approx(2 * magnet.bz_at(m2, p))
        assert isinstance(total, float)

    def test_split_halves_equal_whole(self):
        # two stacked half-height prisms reproduce the full prism
        top = PrismMagnet(w=10e-6, h=5e-6, d=10e-6, center=(0, 0, 8.5e-6),
                          magnetization=1.75e6)
        bot = PrismMagnet(w=10e-6, h=5e-6, d=10e-6, center=(0, 0, 3.5e-6),
                          magnetization=1.75e6)
        p = np.array([3e-6, -2e-6, -1e-6])
        assert (magnet.bz_at(top, p) + magnet.bz_at(bot, p)
                == pytest.approx(magnet.bz_at(MAG, p), rel=1e-10))


def linear_field(g):
    """Field function B = (0, 0, g*z), grad B_z = (0, 0, g)."""
    grad = np.array([0.0, 0.0, g])
    return lambda r: (r * grad, np.zeros_like(r) + grad)


PRISM_FIELD = functools.partial(magnet.field, MAG)


class TestBatchedField:
    def test_batch_equals_single_points(self):
        pts = np.array(exterior_points(MAG, 12, seed=4))
        b, g = magnet.field(MAG, pts)
        assert b.shape == g.shape == (12, 3)
        for k, p in enumerate(pts):
            b1, g1 = magnet.field(MAG, p)
            assert np.array_equal(b[k], b1)
            assert np.array_equal(g[k], g1)
            assert magnet.bz_at(MAG, p) == b[k, 2]
            assert np.array_equal(magnet.grad_bz_at(MAG, p), g[k])
        grid = pts.reshape(3, 4, 3)
        bg, gg = magnet.field(MAG, grid)
        assert np.array_equal(bg.reshape(12, 3), b)
        assert np.array_equal(gg.reshape(12, 3), g)

    def test_interior_point_in_batch_rejected(self):
        pts = np.array(exterior_points(MAG, 6, seed=5))
        for k in (0, 3, 5):
            bad = pts.copy()
            bad[k] = MAG.center
            with pytest.raises(ConfigError):
                magnet.field(MAG, bad)
        on_face = pts.copy()
        on_face[2] = (0.0, 0.0, MAG.bounds[2][0])
        with pytest.raises(ConfigError):
            magnet.field(MAG, on_face.reshape(2, 3, 3))

    def test_singular_edge_line_rejected(self):
        # On the line through the edge x = x1, z = z1 the corner sums are
        # log(0) and 0/0; the field must not come back as NaN.
        (x1, _), (y1, _), (z1, _) = MAG.bounds
        pts = np.array(exterior_points(MAG, 3, seed=6))
        pts[1] = (x1, y1 - 2e-6, z1)
        with pytest.raises(ConvergenceError):
            magnet.field(MAG, pts)


class TestSplittingProfile:
    def test_linear_field(self):
        g = 1.4e6
        a = 3.442e-10
        gamma = TWO_PI * 40e6
        offsets, deltas = magnet.splitting_profile(
            linear_field(g), (0.0, 0.0, 0.0), a, 5, gamma)
        assert offsets[0] == 0.0
        assert np.allclose(deltas, gamma * a * g, rtol=1e-9)
        assert deltas[0] / TWO_PI == pytest.approx(19.28e3, rel=1e-3)

    def test_prism_input(self):
        offsets, deltas = magnet.splitting_profile(
            PRISM_FIELD, (0.0, 0.0, 0.0), 3.442e-10, 4, TWO_PI * 40e6)
        g = magnet.grad_bz_at(MAG, (0.0, 0.0, 0.0))[2]
        assert deltas[0] == pytest.approx(
            TWO_PI * 40e6 * 3.442e-10 * g, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            magnet.splitting_profile(linear_field(0.0), (0, 0, 0), -1.0, 3,
                                     1.0)
        with pytest.raises(ConfigError):
            magnet.splitting_profile(linear_field(0.0), (0, 0, 0), 1.0, 0,
                                     1.0)


class TestHomogeneity:
    def test_linear_field_passes(self):
        rep = magnet.plane_homogeneity(
            linear_field(1.4e6), (0.0, 0.0, 0.0), 1e-7, 1e-7, 3.442e-10)
        assert rep.max_variation_t == 0.0
        assert rep.passed

    def test_no_plane_step_is_undefined(self):
        rep = magnet.plane_homogeneity(
            linear_field(0.0), (0.0, 0.0, 0.0), 1e-7, 1e-7, 3.442e-10)
        assert rep.plane_step_t == 0.0
        assert rep.variation_fraction is None
        assert not rep.passed

    def test_blocks_match_row_at_a_time(self):
        # 101 samples per side: five blocks of 20 rows and a last block of
        # one.  Off-centre in x, the largest variation is in the last row.
        samples, r0 = 101, np.array([2e-6, 1e-6, 0.0])
        shapes = []

        def field_fn(r):
            shapes.append(np.shape(r))
            return PRISM_FIELD(r)

        rep = magnet.plane_homogeneity(field_fn, r0, 4e-7, 3e-7, 3.442e-10,
                                       samples=samples)
        rows = magnet.HOMOGENEITY_BLOCK_POINTS // samples
        assert 1 < rows < samples and samples % rows != 0
        assert len(shapes) == 1 + -(-samples // rows)
        assert sum(math.prod(s[:-1]) for s in shapes[1:]) == samples**2

        bz0 = PRISM_FIELD(r0)[0][2]
        ys = np.linspace(-1.5e-7, 1.5e-7, samples)
        row_var = []
        for x in np.linspace(-2e-7, 2e-7, samples):
            row = r0 + np.column_stack(
                [np.full(samples, x), ys, np.zeros(samples)])
            bz = PRISM_FIELD(row)[0][:, 2]
            row_var.append(float(np.max(np.abs(bz - bz0))))
        assert row_var[-1] == max(row_var)
        assert rep.max_variation_t == max(row_var)

    def test_prism_report(self):
        rep = magnet.plane_homogeneity(
            PRISM_FIELD, (0.0, 0.0, 0.0), 2e-8, 2e-8, 3.442e-10, samples=5)
        assert rep.plane_step_t > 0
        assert rep.variation_fraction >= 0
        assert rep.passed == (rep.variation_fraction <= rep.threshold)
