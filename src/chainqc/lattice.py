"""Chain-crystal geometry and static dipolar-coupling quantities.

A crystal is modeled as parallel chains of spin-1/2 nuclei along z with
intra-chain spacing ``a``; the chains form a 2D lattice in the transverse
plane.  This module holds the one writing of the secular dipolar law
(dipolar_coupling, which gives every coupling), the closed-form cross-chain
coefficient b(lambda), the effective-linewidth ratio sigma/delta_omega
obtained by summing b^2 over the transverse lattice, and the gradient-induced
splitting between adjacent planes.

All frequencies are angular (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR, MU0_OVER_4PI, TWO_PI
from .errors import ConfigError

__all__ = [
    "ChainLattice",
    "CouplingMetrics",
    "get_preset",
    "preset_names",
    "dipolar_coupling",
    "b_coefficient",
    "sigma_over_delta",
    "splitting",
    "chain_sites_within",
]

# Cap on the coefficient grid of chain_sites_within; both presets converge
# within it for rel_tol >= 1e-10.  It also bounds the sigma sum's doublings:
# the basis's smallest singular value is at most the chain spacing, so any
# lattice reaches the cap by the 9th.
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class ChainLattice:
    """Geometry and nuclear constants of a chain crystal.

    a: intra-chain spacing (m); transverse_basis: two 2-vectors (m) spanning
    the chain lattice; gamma: gyromagnetic ratio (rad/s/T).  The applied
    field lies along the chains.
    """

    name: str
    a: float
    transverse_basis: tuple[tuple[float, float], tuple[float, float]]
    gamma: float

    def __post_init__(self):
        if not self.a > 0:
            raise ConfigError(f"chain spacing must be positive, got {self.a}")
        if not self.gamma > 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        (ax, ay), (bx, by) = self.transverse_basis
        if abs(ax * by - ay * bx) == 0.0:
            raise ConfigError("transverse basis vectors are collinear")

    @property
    def min_transverse_spacing(self) -> float:
        """Distance to the nearest transverse neighbor chain."""
        pts = chain_sites_within(self, 4.0 * max(
            np.linalg.norm(v) for v in self.transverse_basis))
        return float(np.linalg.norm(pts[0]))


class CouplingMetrics(NamedTuple):
    """Result of the effective-linewidth lattice sum."""

    delta_omega_nn: float       # nearest-neighbor intra-chain coupling, rad/s
    sigma: float                # effective linewidth, rad/s
    sigma_over_delta: float     # dimensionless ratio
    convergence_radius: float   # final cutoff used, m
    n_sites: int                # transverse sites inside the final cutoff
    trace: tuple = ()           # (radius, ratio) per doubling


# Fluorapatite: F- chains along c, a = c/2; chains form a triangular lattice
# of spacing 9.367 A.  CaF2 fluorine sublattice: simple cubic, chains on a
# square lattice.  gamma for 19F.
_S_FAP = 9.367e-10
_A_CAF2 = 2.7255e-10
_PRESETS = {
    "fluorapatite": ChainLattice(
        name="fluorapatite",
        a=3.442e-10,
        transverse_basis=((_S_FAP, 0.0),
                          (0.5 * _S_FAP, 0.5 * math.sqrt(3.0) * _S_FAP)),
        gamma=TWO_PI * 40e6,
    ),
    "simple_cubic": ChainLattice(
        name="simple_cubic",
        a=_A_CAF2,
        transverse_basis=((_A_CAF2, 0.0), (0.0, _A_CAF2)),
        gamma=TWO_PI * 40e6,
    ),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def get_preset(name: str) -> ChainLattice:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown lattice preset {name!r}; available: {preset_names()}"
        ) from None


def dipolar_coupling(lat: ChainLattice, dx, dy, dz) -> float:
    """Secular dipolar coefficient (rad/s) of spins (dx, dy, dz) m apart,
    the field along z: (mu0/4pi) gamma^2 hbar (1 - 3 cos^2 theta) / r^3,
    -2 (mu0/4pi) gamma^2 hbar / r^3 on one chain; inf where r^3 underflows.
    """
    base = MU0_OVER_4PI * lat.gamma**2 * HBAR
    r = math.sqrt(dx**2 + dy**2 + dz**2)
    r3 = r**3
    return base * (1.0 - 3.0 * (dz / r) ** 2) / r3 if r3 > 0.0 else math.inf


def b_coefficient(lam):
    """Dimensionless cross-chain recoupling coefficient b(lambda).

    lambda is the transverse distance in units of the chain spacing a.
    b(0) = -1 recovers the in-chain nearest-neighbor coupling.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ConfigError("lambda must be non-negative")
    out = (lam**2 - 2.0) / (2.0 * (1.0 + lam**2) ** 2.5)
    return float(out) if out.ndim == 0 else out


def splitting(lat: ChainLattice, grad: float) -> float:
    """Gradient-induced frequency separation of adjacent planes (rad/s)."""
    if not math.isfinite(grad):
        raise ConfigError("gradient must be finite")
    return lat.gamma * lat.a * abs(grad)


def chain_sites_within(lat: ChainLattice, radius: float) -> np.ndarray:
    """Transverse lattice points other than the origin with norm <= radius,
    sorted by (norm, x, y)."""
    pts, norms = _sites(lat, radius)
    order = np.lexsort((pts[:, 1], pts[:, 0], norms))
    return pts[order]


def _sites(lat: ChainLattice, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """chain_sites_within's points and their norms, in coefficient-grid
    order."""
    if not 0 <= radius < math.inf:
        raise ConfigError("radius must be non-negative and finite")
    B = np.array(lat.transverse_basis, dtype=float).T  # basis as columns
    # Integer coefficient bound from the smallest singular value of B.
    smin = np.linalg.svd(B, compute_uv=False)[-1]
    if radius == 0.0 or smin == 0.0:
        nmax = 0
    else:
        nmax = int(math.ceil(radius / smin)) + 1
    if (2 * nmax + 1) ** 2 > MAX_GRID_POINTS:
        raise ConfigError(
            f"lattice sum needs a {(2 * nmax + 1) ** 2}-point coefficient "
            f"grid, past the cap of {MAX_GRID_POINTS}")
    rng = np.arange(-nmax, nmax + 1)
    ii, jj = np.meshgrid(rng, rng, indexing="ij")
    coeffs = np.stack([ii.ravel(), jj.ravel()], axis=1)
    pts = coeffs @ B.T
    norms = np.linalg.norm(pts, axis=1)
    mask = (norms <= radius) & ~np.all(coeffs == 0, axis=1)
    return pts[mask], norms[mask]


def sigma_over_delta(lat: ChainLattice, rel_tol: float = 1e-4,
                     include_lower_plane: bool = False) -> CouplingMetrics:
    """Effective linewidth ratio sigma/|delta_omega| during recoupling.

    Sums b(lambda)^2 over all transverse lattice sites, expanding the cutoff
    radius from 4x the nearest-chain spacing by successive doublings until
    the ratio changes by less than ``rel_tol``; ConfigError once the site
    grid would pass MAX_GRID_POINTS.

    ``include_lower_plane`` additionally counts the copies in plane i-1
    (sensitivity study; the baseline sum covers one plane only).
    """
    if not rel_tol > 0:
        raise ConfigError("rel_tol must be positive")
    spacing = lat.min_transverse_spacing
    radius = 4.0 * spacing
    prev = None
    trace = []
    while True:
        _, norms = _sites(lat, radius)
        total = float(np.sum(b_coefficient(norms / lat.a) ** 2))
        if include_lower_plane:
            total *= 2.0
        ratio = 0.5 * math.sqrt(total)
        trace.append((radius, ratio))
        if prev is not None:
            if ratio == prev or abs(ratio - prev) <= rel_tol * ratio:
                delta = dipolar_coupling(lat, 0.0, 0.0, lat.a)
                return CouplingMetrics(
                    delta_omega_nn=delta,
                    sigma=ratio * abs(delta),
                    sigma_over_delta=ratio,
                    convergence_radius=radius,
                    n_sites=len(norms),
                    trace=tuple(trace),
                )
        prev = ratio
        radius *= 2.0
