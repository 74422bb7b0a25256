"""Magnetostatics of a uniformly magnetized rectangular prism.

The prism is magnetized along z; its field outside is that of two uniformly
charged rectangular faces (surface charge +-M on the top/bottom faces).  The
closed forms below are the standard corner sums of logarithms (transverse
components) and arctangents (z component), plus the analytic gradient of
B_z.

Coordinates: x across the width W, y along the length D, z vertical (the
magnetization / applied-field axis).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import MU0
from .errors import Checked, ConfigError, ConvergenceError

__all__ = [
    "PrismMagnet",
    "FieldSample",
    "HomogeneityReport",
    "field",
    "b_field",
    "bz_at",
    "grad_bz_at",
    "sample",
    "splitting_profile",
    "plane_homogeneity",
    "HOMOGENEITY_BLOCK_POINTS",
]

# Grid points per field call in plane_homogeneity: the 41 x 41 grid is one
# call, the 1001 x 1001 config cap 501 calls of 2 rows.  Larger blocks save
# no time on big grids: their temporaries fall out of the CPU caches.
HOMOGENEITY_BLOCK_POINTS = 2048


class _PrismMagnetFields(NamedTuple):
    w: float
    h: float
    d: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    magnetization: float = 0.0


class PrismMagnet(Checked, _PrismMagnetFields):
    """Uniformly z-magnetized rectangular prism.

    w, h, d: edge lengths (m) along x, z, y; center: prism center (m);
    magnetization: A/m along +z.
    """

    __slots__ = ()

    def _check(self):
        if not (self.w > 0 and self.h > 0 and self.d > 0):
            raise ConfigError("prism dimensions must be positive")
        if not self.magnetization >= 0:
            raise ConfigError("magnetization must be non-negative")

    @property
    def bounds(self):
        cx, cy, cz = self.center
        return (
            (cx - self.w / 2, cx + self.w / 2),
            (cy - self.d / 2, cy + self.d / 2),
            (cz - self.h / 2, cz + self.h / 2),
        )

    def contains(self, r):
        """True where r, of shape (..., 3), lies inside or on the prism
        boundary."""
        lo, hi = np.array(self.bounds).T
        r = np.asarray(r, dtype=float)
        return ((lo <= r) & (r <= hi)).all(axis=-1)


class FieldSample(NamedTuple):
    position: tuple[float, float, float]
    bz: float
    grad_bz: tuple[float, float, float]


class HomogeneityReport(NamedTuple):
    """Transverse B_z variation over a patch, in units of the local
    plane-to-plane field step a*|dBz/dz|."""

    max_variation_t: float      # max |Bz - Bz(center)| over the patch, T
    plane_step_t: float         # a * |dBz/dz| at the patch center, T
    variation_fraction: float | None  # max_variation_t / plane_step_t
    threshold: float
    passed: bool


def field(mag: PrismMagnet, points):
    """Field B (T) and analytic gradient of B_z (T/m) at exterior points.

    ``points`` has shape (..., 3); returns (B, grad_Bz), each of that shape.
    Each face's four corner terms are summed in order, and the bottom face
    is subtracted from the top.
    Raises ConfigError if any point lies inside or on the magnet body, and
    ConvergenceError if the field is not finite at some point (a
    non-finite coordinate, or a point on the line through a prism edge,
    where the corner sums are singular).
    """
    r = np.asarray(points, dtype=float)
    (x1, x2), (y1, y2), (z1, z2) = mag.bounds
    inside = mag.contains(r)
    if inside.any():
        at = tuple(float(c) for c in r[inside][0])
        raise ConfigError(f"field requested inside the magnet body at {at}")
    # Trailing axes: face (top, bottom), then corner (x1,y1), (x1,y2),
    # (x2,y1), (x2,y2) with alternating sign s.
    u = r[..., 0, None, None] - np.array([x1, x1, x2, x2])
    v = r[..., 1, None, None] - np.array([y1, y2, y1, y2])
    Z = r[..., 2, None, None] - np.array([[z2], [z1]])
    s = np.array([1.0, -1.0, -1.0, 1.0])
    # A singular or overflowing corner term is caught by the finite check.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        R = np.sqrt(u * u + v * v + Z * Z)
        uz = u * u + Z * Z
        vz = v * v + Z * Z
        t = np.stack([-s * np.log(v + R), -s * np.log(u + R),
                      s * np.arctan2(u * v, Z * R),
                      s * Z * v / (R * uz), s * Z * u / (R * vz),
                      -s * u * v * (R * R + Z * Z) / (R * uz * vz)],
                     axis=-3)
        faces = ((t[..., 0] + t[..., 1]) + t[..., 2]) + t[..., 3]
        pref = MU0 * mag.magnetization / (4.0 * math.pi)
        bg = pref * (faces[..., 0] - faces[..., 1])
    b, g = bg[..., :3], bg[..., 3:]
    finite = np.isfinite(b).all(axis=-1) & np.isfinite(g).all(axis=-1)
    if not finite.all():
        at = tuple(float(c) for c in r[~finite][0])
        raise ConvergenceError(f"prism field is not finite at {at}")
    return b, g


def b_field(mag: PrismMagnet, r) -> np.ndarray:
    """Full magnetic field vector (T) at an exterior point."""
    return field(mag, r)[0]


def bz_at(mag: PrismMagnet, r) -> float:
    """z component of the field (T) at an exterior point."""
    return float(field(mag, r)[0][2])


def grad_bz_at(mag: PrismMagnet, r) -> np.ndarray:
    """Analytic gradient of B_z (T/m) at an exterior point."""
    return field(mag, r)[1]


def sample(mag: PrismMagnet, r) -> FieldSample:
    b, g = field(mag, r)
    return FieldSample(position=tuple(float(c) for c in r), bz=float(b[2]),
                       grad_bz=tuple(float(c) for c in g))


def splitting_profile(field_fn, r0, a: float, n: int, gamma: float):
    """Per-plane angular-frequency offsets and adjacent splittings (rad/s).

    Planes sit at r0 + i*a*zhat for i = 0..n-1; ``field_fn`` has the
    signature of :func:`field` with the magnet bound, for instance
    ``functools.partial(field, mag)``.
    omega_i = gamma * (B_z(r0 + i*a*zhat) - B_z(r0)).  Returns
    (offsets, deltas) with deltas[i] = omega_{i+1} - omega_i.
    """
    if n < 1:
        raise ConfigError("need at least one plane")
    if a <= 0:
        raise ConfigError("plane spacing must be positive")
    with np.errstate(over="raise"):  # FloatingPointError, exit 3
        planes = np.asarray(r0, dtype=float) + np.outer(np.arange(n) * a,
                                                        (0.0, 0.0, 1.0))
    bz = field_fn(planes)[0][:, 2]
    offsets = gamma * (bz - bz[0])
    deltas = np.diff(offsets)
    return offsets, deltas


def plane_homogeneity(field_fn, r0, extent_x: float, extent_y: float,
                      a: float, samples: int = 11,
                      threshold: float = 1.0) -> HomogeneityReport:
    """B_z variation over an extent_x x extent_y patch at fixed z.

    ``field_fn`` is as in :func:`splitting_profile`.  The variation is
    expressed as a fraction of the plane-to-plane field step a*|dBz/dz| and
    compared against ``threshold``: below it, all equivalent-frequency
    nuclei stay within one plane bandwidth.  The samples x samples grid is
    evaluated in blocks of whole rows, at most HOMOGENEITY_BLOCK_POINTS
    points each (one row if a row is longer), so memory stays
    O(max(samples, HOMOGENEITY_BLOCK_POINTS)) whatever the grid size.
    """
    if extent_x < 0 or extent_y < 0:
        raise ConfigError("extents must be non-negative")
    if samples < 2:
        raise ConfigError("need at least 2 samples per axis")
    r0 = np.asarray(r0, dtype=float)
    b0, g0 = field_fn(r0)
    xs = np.linspace(-extent_x / 2, extent_x / 2, samples)
    n_rows = max(1, HOMOGENEITY_BLOCK_POINTS // samples)
    block = np.zeros((min(n_rows, samples), samples, 3))
    block[..., 1] = np.linspace(-extent_y / 2, extent_y / 2, samples)
    var = 0.0
    for start in range(0, samples, n_rows):
        x = xs[start:start + n_rows]
        block[:len(x), :, 0] = x[:, None]
        bz = field_fn(r0 + block[:len(x)])[0][..., 2]
        var = max(var, float(np.max(np.abs(bz - b0[2]))))
    step = float(a * abs(g0[2]))
    # undefined without a plane step, and then not passed
    frac = var / step if step > 0 else None
    return HomogeneityReport(
        max_variation_t=var,
        plane_step_t=step,
        variation_fraction=frac,
        threshold=threshold,
        passed=frac is not None and bool(frac <= threshold),
    )
