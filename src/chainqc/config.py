"""Run configuration: JSON document, schema validation, and defaults.

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
from dataclasses import dataclass

import jsonschema

from .constants import TWO_PI
from .errors import ConfigError
from .lattice import ChainLattice, get_preset
from .magnet import PrismMagnet
from .mrfm import CAIParams, CantileverModel, ScalabilityParams

__all__ = ["CONFIG_SCHEMA_VERSION", "RunConfig", "load_config",
           "parse_config", "default_config"]

CONFIG_SCHEMA_VERSION = 1

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POSINT = {"type": "integer", "minimum": 1}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version"],
    "properties": {
        "schema_version": {"const": CONFIG_SCHEMA_VERSION},
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"type": "string"},
                "name": {"type": "string"},
                "a_m": _POS,
                "transverse_basis_m": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "items": {"type": "number"},
                    },
                },
                "gamma_rad_per_s_T": _POS,
                "phi_rad": {"type": "number"},
                "rel_tol": _POS,
                "include_lower_plane": {"type": "boolean"},
                "max_plane_separation": _POSINT,
            },
        },
        "magnet": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "w_m": _POS,
                "h_m": _POS,
                "d_m": _POS,
                "center_m": {
                    "type": "array", "minItems": 3, "maxItems": 3,
                    "items": {"type": "number"},
                },
                "magnetization_A_per_m": _NONNEG,
                "sample_origin_m": {
                    "type": "array", "minItems": 3, "maxItems": 3,
                    "items": {"type": "number"},
                },
                "n_planes": _POSINT,
                "extent_x_m": _NONNEG,
                "extent_y_m": _NONNEG,
                "homogeneity_samples": {"type": "integer", "minimum": 2},
                "homogeneity_threshold": _POS,
                "grad_override_T_per_m": _POS,
            },
        },
        "spin_system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_planes": _POSINT,
                "chain_positions_a": {
                    "type": "array", "minItems": 1,
                    "items": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "items": {"type": "number"},
                    },
                },
                "grad_T_per_m": _POS,
                "include_same_plane": {"type": "boolean"},
                "cnot_control": {"type": "integer", "minimum": 0},
                "cnot_target": {"type": "integer", "minimum": 0},
                "schedule": {"enum": ["decoupling", "cnot"]},
            },
        },
        "sequence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_planes": _POSINT,
                "tau_s": _POS,
                "slot_s": _POS,
                "pulse_width_s": _NONNEG,
                "pi_width_s": _NONNEG,
                "L": _POS,
                "recouple": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {"type": "integer", "minimum": 0},
                },
            },
        },
        "scalability": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "B0_T": _POS,
                "temperature_K": _POS,
                "copies_N": _POS,
                "n": _POSINT,
                "grad_T_per_m": _POS,
                "gamma_rad_per_s_T": _POS,
                "T2_0_s": _POS,
                "L": _POS,
                "delta_omega_rad_per_s": _POS,
                "force_threshold_N_per_sqrt_Hz": _POS,
                "bandwidth_Hz": _POS,
                "n_grid": {
                    "type": "array", "minItems": 1,
                    "items": _POSINT,
                },
                "T2_grid_s": {
                    "type": "array", "minItems": 1,
                    "items": _POS,
                },
            },
        },
        "readout": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "b1_T": _NONNEG,
                "omega_m_rad_per_s": _POS,
                "excursion_rad_per_s": _POS,
                "n_periods": _POSINT,
                "gamma_rad_per_s_T": _POS,
                "initial": {"enum": ["up", "down"]},
                "steps_per_period": {"type": "integer", "minimum": 100},
                "delta_omega_rad_per_s": _POS,
                "cantilever": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "spring_constant_N_per_m": _POS,
                        "resonance_freq_Hz": _POS,
                        "quality": _POS,
                        "temperature_K": _POS,
                        "bandwidth_Hz": _POS,
                    },
                },
            },
        },
    },
}

_GAMMA_F = TWO_PI * 40e6

_DEFAULTS = {
    "schema_version": CONFIG_SCHEMA_VERSION,
    "lattice": {
        "preset": "fluorapatite",
        "rel_tol": 1e-4,
        "include_lower_plane": False,
        "max_plane_separation": 10,
    },
    "magnet": {
        # 10 um cube, mu0*M = 2.2 T, sample line 1 um below the bottom face.
        "w_m": 10e-6,
        "h_m": 10e-6,
        "d_m": 10e-6,
        "center_m": [0.0, 0.0, 6e-6],
        "magnetization_A_per_m": 1.7507e6,
        "sample_origin_m": [0.0, 0.0, 0.0],
        "n_planes": 12,
        "extent_x_m": 2e-8,
        "extent_y_m": 2e-8,
        "homogeneity_samples": 11,
        "homogeneity_threshold": 1.0,
    },
    "spin_system": {
        "n_planes": 3,
        "chain_positions_a": [[0.0, 0.0]],
        "grad_T_per_m": 1.4e6,
        "include_same_plane": True,
        "cnot_control": 0,
        "cnot_target": 1,
        "schedule": "decoupling",
    },
    "sequence": {
        "n_planes": 3,
        "tau_s": 1e-6,
        "slot_s": 6e-6,
        "pulse_width_s": 0.0,
        "pi_width_s": 0.0,
        "L": 16.0,
    },
    "scalability": {
        "B0_T": 7.0,
        "temperature_K": 4.0,
        "copies_N": 1e7,
        "n": 10,
        "grad_T_per_m": 1.4e6,
        "gamma_rad_per_s_T": _GAMMA_F,
        "T2_0_s": 0.1,
        "L": 16.0,
        "delta_omega_rad_per_s": _GAMMA_F * 3.442e-10 * 1.4e6,
        "force_threshold_N_per_sqrt_Hz": 5.6e-18,
        "bandwidth_Hz": 1.0,
        "n_grid": list(range(2, 31)),
        "T2_grid_s": [0.1, 10.0, 1000.0],
    },
    "readout": {
        # w1/2pi = 10 kHz, Omega = 2*w1, w_m = w1^2/(10*Omega):
        # adiabaticity w1^2/(Omega*w_m) = 10.
        "b1_T": TWO_PI * 10e3 / _GAMMA_F,
        "omega_m_rad_per_s": TWO_PI * 10e3 / 20.0,
        "excursion_rad_per_s": 2.0 * TWO_PI * 10e3,
        "n_periods": 8,
        "gamma_rad_per_s_T": _GAMMA_F,
        "initial": "up",
        "steps_per_period": 4000,
        "cantilever": {
            "spring_constant_N_per_m": 1e-3,
            "resonance_freq_Hz": 5e3,
            "quality": 5e4,
            "temperature_K": 4.0,
            "bandwidth_Hz": 1.0,
        },
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with defaults applied."""

    raw: dict

    def section(self, name: str) -> dict:
        return copy.deepcopy(self.raw[name])

    def lattice(self) -> ChainLattice:
        s = self.raw["lattice"]
        override_keys = {"name", "a_m", "transverse_basis_m",
                         "gamma_rad_per_s_T", "phi_rad"}
        if override_keys & set(s):
            base = get_preset(s["preset"]) if "preset" in s else None
            def pick(key, attr, default=None):
                if key in s:
                    return s[key]
                if base is not None:
                    return getattr(base, attr)
                if default is not None:
                    return default
                raise ConfigError(f"lattice override requires {key!r}")
            basis = pick("transverse_basis_m", "transverse_basis")
            return ChainLattice(
                name=pick("name", "name", "custom"),
                a=pick("a_m", "a"),
                transverse_basis=tuple(tuple(v) for v in basis),
                gamma=pick("gamma_rad_per_s_T", "gamma"),
                phi=pick("phi_rad", "phi", 0.0) if "phi_rad" in s or base
                else 0.0,
            )
        return get_preset(s["preset"])

    def magnet(self) -> PrismMagnet:
        s = self.raw["magnet"]
        return PrismMagnet(
            w=s["w_m"], h=s["h_m"], d=s["d_m"],
            center=tuple(s["center_m"]),
            magnetization=s["magnetization_A_per_m"],
        )

    def scalability(self) -> ScalabilityParams:
        s = self.raw["scalability"]
        return ScalabilityParams(
            B0=s["B0_T"],
            temperature=s["temperature_K"],
            N=s["copies_N"],
            n=s["n"],
            grad=s["grad_T_per_m"],
            gamma=s["gamma_rad_per_s_T"],
            T2_0=s["T2_0_s"],
            L=s["L"],
            delta_omega=s["delta_omega_rad_per_s"],
            force_threshold=s["force_threshold_N_per_sqrt_Hz"],
            bandwidth=s["bandwidth_Hz"],
        )

    def cai(self) -> CAIParams:
        s = self.raw["readout"]
        omega_m = s["omega_m_rad_per_s"]
        return CAIParams(
            b1=s["b1_T"],
            omega_m=omega_m,
            excursion=s["excursion_rad_per_s"],
            duration=s["n_periods"] * TWO_PI / omega_m,
            gamma=s["gamma_rad_per_s_T"],
        )

    def cantilever(self) -> CantileverModel:
        s = self.raw["readout"]["cantilever"]
        return CantileverModel(
            spring_constant=s["spring_constant_N_per_m"],
            resonance_freq=s["resonance_freq_Hz"],
            quality=s["quality"],
            temperature=s["temperature_K"],
            bandwidth=s["bandwidth_Hz"],
        )


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def default_config() -> dict:
    return copy.deepcopy(_DEFAULTS)


def parse_config(obj: dict) -> RunConfig:
    """Validate a config object against the schema and apply defaults."""
    try:
        jsonschema.validate(obj, _SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from None
    return RunConfig(raw=_merge(_DEFAULTS, obj))


def _finite(text: str) -> float:
    """json number hook: NaN, Infinity and overflowing literals are errors."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {text} in config")
    return x


def load_config(path: str | None) -> RunConfig:
    """Read and validate a JSON config file; None gives the defaults."""
    if path is None:
        return RunConfig(raw=default_config())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(obj)
