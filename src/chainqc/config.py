"""Run configuration: JSON document, one table of checks and defaults.

A config is a single JSON object with a ``schema_version`` field and one
optional section per command.  Unknown keys are rejected; every physical
quantity carries its SI unit in the key name (``a_m``, ``grad_T_per_m``,
``b1_T``, ...).  Frequencies are angular (rad/s) unless the key says
otherwise.
"""

from __future__ import annotations

import copy
import json
import math
from typing import TYPE_CHECKING, NamedTuple

from .constants import TWO_PI
from .errors import ConfigError, finite_json_number, is_number
from .lattice import ChainLattice, get_preset, splitting

if TYPE_CHECKING:
    from .magnet import PrismMagnet
    from .mrfm import CAIParams, CantileverModel, ScalabilityParams

__all__ = ["CONFIG_SCHEMA_VERSION", "RunConfig", "load_config",
           "parse_config", "default_config"]

CONFIG_SCHEMA_VERSION = 1

# Size keys that set a loop or an output table one for one.  At each cap a
# run writes at most about a megabyte and takes under a second, except
# `magnet` at MAX_HOMOGENEITY_SAMPLES: 1.0e6 field points, 1.1-1.6 s end to
# end on a 2-core x86-64 host.
MAX_PLANE_SEPARATION = 10_000      # lattice rows
MAX_MAGNET_PLANES = 10_000         # splitting-table rows
MAX_HOMOGENEITY_SAMPLES = 1001     # per side of the field grid
MAX_SEQUENCE_PLANES = 64           # Hadamard rows of a schedule
MAX_N_GRID = 1000                  # scalability-curve rows
MAX_T2_GRID = 32                   # gate-budget columns per row

# The config table: every key appears once, as ``key: (check, default)``, and
# a nested dict is a section.  A check takes (value, path) and returns the
# value (arrays as new lists) or raises ConfigError.  A default of None means
# the key stays absent unless the config gives it.
_REQUIRED = object()


def _fail(path: str, msg: str):
    raise ConfigError(f"config invalid at {path or '<root>'}: {msg}")


def _rule(test, what: str):
    def check(x, path):
        if not test(x):
            _fail(path, f"expected {what}, got {x!r}")
        return x
    return check


_NUMBER = _rule(is_number, "a number")
_POS = _rule(lambda x: is_number(x) and x > 0, "a positive number")
_NONNEG = _rule(lambda x: is_number(x) and x >= 0, "a non-negative number")
_BOOL = _rule(lambda x: type(x) is bool, "true or false")
_STR = _rule(lambda x: type(x) is str, "a string")


def _int(lo: int, hi: float = math.inf):
    """A JSON integer in [lo, hi]; 3.0 and true are not integers."""
    return _rule(lambda x: type(x) is int and is_number(x) and lo <= x <= hi,
                 f"an integer in [{lo}, {hi}]")


def _enum(*values):
    return _rule(lambda x: any(type(x) is type(v) and x == v for v in values),
                 " or ".join(map(repr, values)))


def _array(item, lo: int, hi: float = math.inf):
    """A list of lo..hi elements, each passing the check ``item``."""
    size = (str(lo) if hi == lo else f"at least {lo}" if hi == math.inf
            else f"{lo} to {hi}")
    def check(x, path):
        if not isinstance(x, list) or not lo <= len(x) <= hi:
            got = len(x) if isinstance(x, list) else repr(x)
            _fail(path, f"expected an array of {size} items, got {got}")
        return [item(v, f"{path}/{i}") for i, v in enumerate(x)]
    return check


_POSINT = _int(1)
_VEC2 = _array(_NUMBER, 2, 2)
_VEC3 = _array(_NUMBER, 3, 3)

_SPEC = {
    "schema_version": (_enum(CONFIG_SCHEMA_VERSION), _REQUIRED),
    "lattice": {
        "preset": (_STR, "fluorapatite"),
        "name": (_STR, None),
        "a_m": (_POS, None),
        "transverse_basis_m": (_array(_VEC2, 2, 2), None),
        "gamma_rad_per_s_T": (_POS, None),
        "rel_tol": (_POS, 1e-4),
        "include_lower_plane": (_BOOL, False),
        "max_plane_separation": (_int(1, MAX_PLANE_SEPARATION), 10),
    },
    "magnet": {
        # 10 um cube, mu0*M = 2.2 T, sample line 1 um below the bottom face.
        "w_m": (_POS, 10e-6),
        "h_m": (_POS, 10e-6),
        "d_m": (_POS, 10e-6),
        "center_m": (_VEC3, [0.0, 0.0, 6e-6]),
        "magnetization_A_per_m": (_NONNEG, 1.7507e6),
        "sample_origin_m": (_VEC3, [0.0, 0.0, 0.0]),
        "n_planes": (_int(1, MAX_MAGNET_PLANES), 12),
        "extent_x_m": (_NONNEG, 2e-8),
        "extent_y_m": (_NONNEG, 2e-8),
        "homogeneity_samples": (_int(2, MAX_HOMOGENEITY_SAMPLES), 11),
        "homogeneity_threshold": (_POS, 1.0),
        "grad_override_T_per_m": (_POS, None),
    },
    "spin_system": {
        "n_planes": (_POSINT, 3),
        "chain_positions_a": (_array(_VEC2, 1), [[0.0, 0.0]]),
        "grad_T_per_m": (_POS, 1.4e6),
        "include_same_plane": (_BOOL, True),
        "cnot_control": (_int(0), 0),
        "cnot_target": (_int(0), 1),
        "schedule": (_enum("decoupling", "cnot"), "decoupling"),
    },
    "sequence": {
        "n_planes": (_int(1, MAX_SEQUENCE_PLANES), 3),
        "tau_s": (_POS, 1e-6),
        "slot_s": (_POS, 6e-6),
        "pulse_width_s": (_NONNEG, 0.0),
        "pi_width_s": (_NONNEG, 0.0),
        "recouple": (_array(_int(0), 2, 2), None),
    },
    "scalability": {
        "B0_T": (_POS, 7.0),
        "temperature_K": (_POS, 4.0),
        "copies_N": (_POS, 1e7),
        "n": (_POSINT, 10),
        "T2_0_s": (_POS, 0.1),
        "L": (_POS, 16.0),
        # the reported 4 K force resolution, at 1 Hz
        "force_threshold_N_per_sqrt_Hz": (_POS, 5.6e-18),
        "bandwidth_Hz": (_POS, 1.0),
        "n_grid": (_array(_POSINT, 1, MAX_N_GRID), list(range(2, 31))),
        "T2_grid_s": (_array(_POS, 1, MAX_T2_GRID), [0.1, 10.0, 1000.0]),
    },
    "readout": {
        # w1/2pi = 10 kHz, Omega = 2*w1, w_m = w1^2/(10*Omega):
        # adiabaticity w1^2/(Omega*w_m) = 10.
        "b1_T": (_NONNEG,
                 TWO_PI * 10e3 / get_preset("fluorapatite").gamma),
        "omega_m_rad_per_s": (_POS, TWO_PI * 10e3 / 20.0),
        "excursion_rad_per_s": (_POS, 2.0 * TWO_PI * 10e3),
        "n_periods": (_POSINT, 8),
        "initial": (_enum("up", "down"), "up"),
        "steps_per_period": (_int(100), 4000),
        "delta_omega_rad_per_s": (_POS, None),
        "cantilever": {
            "spring_constant_N_per_m": (_POS, 1e-3),
            "resonance_freq_Hz": (_POS, 5e3),
            "quality": (_POS, 5e4),
            "temperature_K": (_POS, 4.0),
        },
    },
}


def _validate(spec: dict, obj, path: str) -> dict:
    """Check obj against a spec table; return a new dict with defaults."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {obj!r}")
    for key in obj:
        if key not in spec:
            _fail(path, f"unknown key {key!r}")
    out = {}
    for key, entry in spec.items():
        sub = f"{path}/{key}" if path else key
        if isinstance(entry, dict):
            out[key] = _validate(entry, obj.get(key, {}), sub)
        elif key in obj:
            out[key] = entry[0](obj[key], sub)
        elif entry[1] is _REQUIRED:
            _fail(path, f"missing key {key!r}")
        elif entry[1] is not None:
            out[key] = copy.deepcopy(entry[1])
    return out


class RunConfig(NamedTuple):
    """Validated configuration with defaults applied."""

    raw: dict

    def section(self, name: str) -> dict:
        return copy.deepcopy(self.raw[name])

    def lattice(self) -> ChainLattice:
        """The preset, with any field the config overrides replaced."""
        s = self.raw["lattice"]
        fields = {"name": "name", "a": "a_m", "gamma": "gamma_rad_per_s_T"}
        over = {f: s[k] for f, k in fields.items() if k in s}
        if "transverse_basis_m" in s:
            over["transverse_basis"] = tuple(
                tuple(v) for v in s["transverse_basis_m"])
        return get_preset(s["preset"])._replace(**over)

    def magnet(self) -> PrismMagnet:
        from .magnet import PrismMagnet

        s = self.raw["magnet"]
        return PrismMagnet(
            w=s["w_m"], h=s["h_m"], d=s["d_m"],
            center=tuple(s["center_m"]),
            magnetization=s["magnetization_A_per_m"],
        )

    def scalability(self) -> ScalabilityParams:
        """gamma comes from the lattice, the gradient from spin_system, and
        the plane splitting from both, by lattice.splitting."""
        from .mrfm import ScalabilityParams

        s = self.raw["scalability"]
        lat = self.lattice()
        grad = self.raw["spin_system"]["grad_T_per_m"]
        return ScalabilityParams(
            B0=s["B0_T"],
            temperature=s["temperature_K"],
            N=s["copies_N"],
            n=s["n"],
            grad=grad,
            gamma=lat.gamma,
            T2_0=s["T2_0_s"],
            L=s["L"],
            delta_omega=splitting(lat, grad),
            force_threshold=s["force_threshold_N_per_sqrt_Hz"],
            bandwidth=s["bandwidth_Hz"],
        )

    def cai(self) -> CAIParams:
        from .mrfm import CAIParams

        s = self.raw["readout"]
        return CAIParams(
            b1=s["b1_T"],
            omega_m=s["omega_m_rad_per_s"],
            excursion=s["excursion_rad_per_s"],
            n_periods=s["n_periods"],
            gamma=self.lattice().gamma,
        )

    def cantilever(self) -> CantileverModel:
        from .mrfm import CantileverModel

        s = self.raw["readout"]["cantilever"]
        return CantileverModel(
            spring_constant=s["spring_constant_N_per_m"],
            resonance_freq=s["resonance_freq_Hz"],
            quality=s["quality"],
            temperature=s["temperature_K"],
        )


def default_config() -> dict:
    return _validate(_SPEC, {"schema_version": CONFIG_SCHEMA_VERSION}, "")


def parse_config(obj: dict) -> RunConfig:
    """Validate a config object against the table and apply defaults."""
    return RunConfig(raw=_validate(_SPEC, obj, ""))


def load_config(path: str | None) -> RunConfig:
    """Read and validate a JSON config file; None gives the defaults."""
    if path is None:
        return RunConfig(raw=default_config())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_float=finite_json_number,
                            parse_constant=finite_json_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an int past 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(obj)
