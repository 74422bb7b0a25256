"""Chain-crystal geometry and static dipolar-coupling quantities.

A crystal is modeled as parallel chains of spin-1/2 nuclei along z with
intra-chain spacing ``a``; the chains form a 2D lattice in the transverse
plane.  This module holds the one writing of the secular dipolar law
(dipolar_coupling, which gives every coupling), the closed-form cross-chain
coefficient b(lambda), the effective-linewidth ratio sigma/delta_omega
obtained by summing b^2 over the transverse lattice, and the gradient-induced
splitting between adjacent planes.

All frequencies are angular (rad/s).  numpy is imported inside the functions
that build arrays, so `config`, which imports this module, and the scalar
formulas run without it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .constants import HBAR, MU0_OVER_4PI, TWO_PI
from .errors import ConfigError

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

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

# Cap on the coefficient grid of chain_sites_within and of each doubling of
# the sigma sum; both presets converge within it for rel_tol >= 1e-10.  The
# grid is enumerated a row block at a time, so the cap bounds time, not
# memory: a grid at the cap takes about 0.6 s.  It also bounds the sigma
# sum's doublings: the basis's smallest singular value is at most the chain
# spacing, so any lattice reaches the cap by the 9th.
MAX_GRID_POINTS = 10_000_000
# Coefficient rows per block of that enumeration: at the cap a block is
# 16 x 3161 points, a few MB of temporaries.
_GRID_ROWS = 16


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
        import numpy as np

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
    try:
        base = MU0_OVER_4PI * lat.gamma**2 * HBAR
        r = math.sqrt(dx**2 + dy**2 + dz**2)
        r3 = r**3
    except OverflowError:
        raise OverflowError(
            f"dipolar coupling overflows for gamma = {lat.gamma:.3e} rad/s/T "
            f"and separation ({dx:.3e}, {dy:.3e}, {dz:.3e}) m") from None
    return base * (1.0 - 3.0 * (dz / r) ** 2) / r3 if r3 > 0.0 else math.inf


def b_coefficient(lam):
    """Dimensionless cross-chain recoupling coefficient b(lambda).

    lambda is the transverse distance in units of the chain spacing a.
    b(0) = -1 recovers the in-chain nearest-neighbor coupling.
    """
    import numpy as np

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
    import numpy as np

    blocks = list(_site_blocks(lat, -math.inf, radius))
    pts = np.concatenate([pts for pts, _ in blocks])
    norms = np.concatenate([norms for _, norms in blocks])
    order = np.lexsort((pts[:, 1], pts[:, 0], norms))
    return pts[order]


def _site_blocks(lat: ChainLattice, inner: float, radius: float
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the lattice points other than the origin with
    inner < norm <= radius, and their norms, a block of _GRID_ROWS
    coefficient rows at a time, in coefficient-grid order."""
    import numpy as np

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
    for i0 in range(0, len(rng), _GRID_ROWS):
        ii, jj = np.meshgrid(rng[i0:i0 + _GRID_ROWS], rng, indexing="ij")
        coeffs = np.stack([ii.ravel(), jj.ravel()], axis=1)
        pts = coeffs @ B.T
        norms = np.linalg.norm(pts, axis=1)
        mask = ((norms > inner) & (norms <= radius)
                & ((ii != 0) | (jj != 0)).ravel())
        yield pts[mask], norms[mask]


def sigma_over_delta(lat: ChainLattice, rel_tol: float = 1e-4,
                     include_lower_plane: bool = False) -> CouplingMetrics:
    """Effective linewidth ratio sigma/|delta_omega| during recoupling.

    Sums b(lambda)^2 over all transverse lattice sites, expanding the cutoff
    radius R from 4x the nearest-chain spacing by successive doublings until
    the ratio changes by less than ``rel_tol``; ConfigError once a doubling's
    coefficient grid would pass MAX_GRID_POINTS.  Each doubling adds only the
    new shell R/2 < |r| <= R, enumerated a row block at a time and summed
    correctly rounded (math.fsum); the total is the fsum of the shell sums,
    so the bits do not depend on the blocking.

    ``include_lower_plane`` additionally counts the copies in plane i-1
    (sensitivity study; the baseline sum covers one plane only).
    """
    if not rel_tol > 0:
        raise ConfigError("rel_tol must be positive")
    spacing = lat.min_transverse_spacing
    inner, radius = -math.inf, 4.0 * spacing
    counts = []

    def shell_terms(inner, radius):
        # b(lambda)^2 of the shell's sites, one list per block
        for _, norms in _site_blocks(lat, inner, radius):
            counts.append(len(norms))
            yield (b_coefficient(norms / lat.a) ** 2).tolist()

    prev = None
    shells = []
    trace = []
    while True:
        shells.append(math.fsum(itertools.chain.from_iterable(
            shell_terms(inner, radius))))
        total = math.fsum(shells)
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
                    n_sites=sum(counts),
                    trace=tuple(trace),
                )
        prev = ratio
        inner, radius = radius, 2.0 * radius
