"""Config validation and CLI behavior: outputs and exit codes.

Byte identity across reruns and thread counts is acceptance criterion 11.
"""

import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainqc import cli, config, lattice, magnet, mrfm, pulses, spinsys
from chainqc.errors import ConfigError


def run(args):
    return cli.main(args)


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _v1(**sections):
    return dict(sections, schema_version=1)


# (config, path named in the error): one case per rule of the config table.
_REJECTED = [
    (_v1(bogus={}), "<root>"),
    (_v1(lattice={"spacing": 1.0}), "lattice"),
    (_v1(readout={"cantilever": {"mass_kg": 1.0}}), "readout/cantilever"),
    ({}, "<root>"),
    ({"schema_version": 2}, "schema_version"),
    ({"schema_version": 1.0}, "schema_version"),
    ({"schema_version": True}, "schema_version"),
    ([], "<root>"),
    (_v1(magnet=[]), "magnet"),
    (_v1(readout={"cantilever": 1.0}), "readout/cantilever"),
    (_v1(magnet={"sample_origin_m": ["0", 0.0, 0.0]}),
     "magnet/sample_origin_m/0"),
    (_v1(lattice={"a_m": True}), "lattice/a_m"),
    (_v1(lattice={"a_m": 0}), "lattice/a_m"),
    (_v1(lattice={"a_m": 10**400}), "lattice/a_m"),
    (_v1(magnet={"sample_origin_m": [math.nan, 0.0, 0.0]}),
     "magnet/sample_origin_m/0"),
    (_v1(readout={"cantilever": {"quality": 0.0}}),
     "readout/cantilever/quality"),
    (_v1(magnet={"magnetization_A_per_m": -1}),
     "magnet/magnetization_A_per_m"),
    (_v1(magnet={"extent_x_m": None}), "magnet/extent_x_m"),
    (_v1(spin_system={"n_planes": 3.0}), "spin_system/n_planes"),
    (_v1(spin_system={"n_planes": True}), "spin_system/n_planes"),
    (_v1(spin_system={"cnot_target": -1}), "spin_system/cnot_target"),
    (_v1(magnet={"homogeneity_samples": 1}), "magnet/homogeneity_samples"),
    (_v1(readout={"n_periods": 10**400}), "readout/n_periods"),
    (_v1(lattice={"include_lower_plane": 1}), "lattice/include_lower_plane"),
    (_v1(lattice={"preset": 5}), "lattice/preset"),
    (_v1(spin_system={"schedule": "swap"}), "spin_system/schedule"),
    (_v1(readout={"initial": 1}), "readout/initial"),
    (_v1(magnet={"center_m": [0.0, 0.0]}), "magnet/center_m"),
    (_v1(sequence={"recouple": [1, 2, 3]}), "sequence/recouple"),
    (_v1(lattice={"transverse_basis_m": [[1e-9, 0.0], [0.0]]}),
     "lattice/transverse_basis_m/1"),
    (_v1(magnet={"sample_origin_m": [0.0, 0.0, "x"]}),
     "magnet/sample_origin_m/2"),
    (_v1(scalability={"n_grid": []}), "scalability/n_grid"),
    (_v1(spin_system={"chain_positions_a": []}),
     "spin_system/chain_positions_a"),
    (_v1(scalability={"T2_grid_s": 0.1}), "scalability/T2_grid_s"),
    (_v1(scalability={"T2_grid_s": [0.1, 0]}), "scalability/T2_grid_s/1"),
    (_v1(scalability={"n_grid": [2, 3.0]}), "scalability/n_grid/1"),
    # derived from gamma, a and the gradient since it stopped being a key
    (_v1(scalability={"delta_omega_rad_per_s": 1e5}), "scalability"),
]

# Every key of the table, for the fuzz test: sections, keys with defaults,
# the optional keys that have none, and one unknown key.
_DEFAULT_CFG = config.load_config(None)
_DEFAULTS = config.default_config()
_SECTIONS = [k for k in _DEFAULTS if k != "schema_version"]
_KEY_PATHS = (
    [(sec,) for sec in _SECTIONS]
    + [(sec, key) for sec in _SECTIONS for key in _DEFAULTS[sec]]
    + [("readout", "cantilever", key)
       for key in _DEFAULTS["readout"]["cantilever"]]
    + [("lattice", k) for k in ("name", "a_m", "transverse_basis_m",
                                "gamma_rad_per_s_T")]
    + [("magnet", "grad_override_T_per_m"), ("sequence", "recouple"),
       ("readout", "delta_omega_rad_per_s"), ("schema_version",),
       ("lattice", "bogus")]
)

# Numbers at the edges of the float range, where an accessor's arithmetic
# can overflow or divide by zero, then any JSON value at all.
_EDGE = st.sampled_from([10**400, 1e-320, 1e300, 1.7e308, 0, 3.0, -1, True,
                         "up"])
_JSON = st.recursive(
    _EDGE | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
_VALUE = _EDGE | st.lists(_EDGE, min_size=1, max_size=3) | _JSON


# Records that check their fields: a valid example of each, by keyword in
# field order, and one field value that the check refuses.
_CHECKED = {
    lattice.ChainLattice: (
        dict(name="x", a=3e-10, transverse_basis=((1e-9, 0.0), (0.0, 1e-9)),
             gamma=2.5e8),
        "transverse_basis", ((1e-9, 0.0), (2e-9, 0.0))),
    magnet.PrismMagnet: (
        dict(w=1e-5, h=1e-5, d=1e-5, center=(0.0, 0.0, 6e-6),
             magnetization=1.75e6),
        "magnetization", -1.0),
    mrfm.CantileverModel: (
        dict(spring_constant=1e-3, resonance_freq=5e3, quality=1e4,
             temperature=4.0),
        "quality", 0.0),
    mrfm.ScalabilityParams: (_DEFAULT_CFG.scalability()._asdict(), "n", 0),
    mrfm.CAIParams: (_DEFAULT_CFG.cai()._asdict(), "n_periods", 1.5),
    pulses.SignMatrix: (dict(rows=((1, -1), (1, 1))),
                        "rows", ((1, -1), (1,))),
    spinsys.SpinSystem: (
        dict(n_planes=2, n_chains=1, offsets=(0.0, 1e5),
             couplings=(spinsys.Coupling(0, 1, 1e3),)),
        "couplings", (spinsys.Coupling(1, 1, 1e3),)),
    spinsys.Propagator: (dict(matrix=np.eye(2)), "matrix", 2 * np.eye(2)),
}


def _accessors(cfg):
    calls = [lambda name=name: cfg.section(name) for name in _SECTIONS]
    return calls + [cfg.lattice, cfg.magnet, cfg.scalability, cfg.cai,
                    cfg.cantilever]


class TestConfig:
    def test_defaults_validate(self):
        cfg = config.parse_config(config.default_config())
        assert cfg.lattice().name == "fluorapatite"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_config({"schema_version": 1, "bogus": {}})
        with pytest.raises(ConfigError):
            config.parse_config({"schema_version": 1,
                                 "lattice": {"spacing": 1.0}})

    def test_schema_version_required(self):
        with pytest.raises(ConfigError):
            config.parse_config({})
        with pytest.raises(ConfigError):
            config.parse_config({"schema_version": 2})

    def test_lattice_override(self):
        cfg = config.parse_config({
            "schema_version": 1,
            "lattice": {"preset": "fluorapatite", "a_m": 5e-10},
        })
        lat = cfg.lattice()
        assert lat.a == 5e-10
        assert lat.gamma == pytest.approx(2.513274e8, rel=1e-6)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            config.load_config("/nonexistent/cfg.json")

    def test_negative_quantity_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_config({"schema_version": 1,
                                 "magnet": {"w_m": -1.0}})

    @pytest.mark.parametrize("obj, path", _REJECTED)
    def test_rejection_names_path(self, obj, path):
        with pytest.raises(ConfigError) as exc:
            config.parse_config(obj)
        assert str(exc.value).startswith(f"config invalid at {path}: ")

    def test_defaults_are_fresh_copies(self):
        a, b = config.default_config(), config.default_config()
        a["scalability"]["n_grid"].append(99)
        assert b == config.default_config()
        given_grid = [2, 3]
        cfg = config.parse_config(_v1(scalability={"n_grid": given_grid}))
        given_grid.append(4)
        assert cfg.raw["scalability"]["n_grid"] == [2, 3]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_KEY_PATHS), _VALUE),
                    min_size=1, max_size=4))
    def test_fuzzed_config_raises_only_config_error(self, edits):
        obj = {"schema_version": 1}
        for path, value in edits:
            node = obj
            for key in path[:-1]:
                if not isinstance(node.get(key), dict):
                    node[key] = {}
                node = node[key]
            node[path[-1]] = value
        try:
            cfg = config.parse_config(obj)
        except ConfigError:
            return
        for call in _accessors(cfg):
            try:
                call()
            except ConfigError:
                pass

    @pytest.mark.parametrize("make", [
        lambda: lattice.ChainLattice("x", math.nan, ((1e-9, 0.0), (0.0, 1e-9)),
                                     2.5e8),
        lambda: lattice.ChainLattice("x", 3e-10, ((1e-9, 0.0), (0.0, 1e-9)),
                                     math.nan),
        lambda: magnet.PrismMagnet(1e-5, math.nan, 1e-5),
        lambda: magnet.PrismMagnet(1e-5, 1e-5, 1e-5, magnetization=math.nan),
        lambda: _DEFAULT_CFG.scalability()._replace(B0=math.nan),
        lambda: _DEFAULT_CFG.scalability()._replace(n=math.nan),
        lambda: _DEFAULT_CFG.cai()._replace(b1=math.nan),
        lambda: _DEFAULT_CFG.cai()._replace(omega_m=math.nan),
        lambda: mrfm.CantileverModel(1e-3, 5e3, math.nan, 4.0),
    ])
    def test_dataclasses_reject_nan(self, make):
        with pytest.raises(ConfigError):
            make()

    @pytest.mark.parametrize("record", list(_CHECKED),
                             ids=lambda r: r.__name__)
    def test_checked_record_refuses_bad_field(self, record):
        # _replace too: namedtuple builds its result through tuple.__new__,
        # which would skip a check in the record's __new__
        good, name, bad = _CHECKED[record]
        with pytest.raises(ConfigError):
            record(**{**good, name: bad})
        with pytest.raises(ConfigError):
            record(**good)._replace(**{name: bad})

    def test_import_loads_no_jsonschema(self):
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run(
            [sys.executable, "-c",
             "import chainqc.cli, sys; assert 'jsonschema' not in sys.modules"],
            env=dict(os.environ, PYTHONPATH=str(src)), check=True)


# Modules the import tests watch: numpy, which only the array models load;
# dataclasses, which no command loads; inspect, which numpy imports itself
# and dataclasses would.
_WATCHED = ("numpy", "dataclasses", "inspect")


def _fresh_modules(code: str) -> tuple[set, set]:
    """The chainqc modules a fresh interpreter holds after running code, and
    which of _WATCHED it has loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    report = ("\nimport json, sys\nprint(json.dumps([sorted("
              "m[len('chainqc.'):] for m in sys.modules "
              "if m.startswith('chainqc.')), "
              f"[m for m in {_WATCHED!r} if m in sys.modules]]))")
    done = subprocess.run([sys.executable, "-c", code + report],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    modules, loaded = json.loads(done.stdout.splitlines()[-1])
    return set(modules), set(loaded)


# Modules every command loads: the CLI, its config and what config needs.
_STARTUP = {"cli", "config", "constants", "errors", "lattice"}
# Commands whose models are plain arithmetic: they never load numpy.
_NUMPY_FREE = {"schedule", "scalability"}


# Records are NamedTuples, cheap to define at import: results that check
# nothing, built here from 0, 1, ..., and the records of _CHECKED, built from
# their valid examples.  Schedules are not tuples (below).
_RECORDS = [
    (magnet.FieldSample, ("position", "bz", "grad_bz")),
    (magnet.HomogeneityReport,
     ("max_variation_t", "plane_step_t", "variation_fraction", "threshold",
      "passed")),
    (mrfm.GateBudget, ("budget", "budget_times_l", "cycle_time")),
    (mrfm.CAIResult,
     ("times", "iz", "detuning", "following_figure", "modulation_amplitude",
      "norm_drift")),
    (pulses.RecoupleResult, ("matrix", "degraded_pairs")),
    (lattice.CouplingMetrics,
     ("delta_omega_nn", "sigma", "sigma_over_delta", "convergence_radius",
      "n_sites", "trace")),
    (config.RunConfig, ("raw",)),
    (lattice.ChainLattice, ("name", "a", "transverse_basis", "gamma")),
    (magnet.PrismMagnet, ("w", "h", "d", "center", "magnetization")),
    (mrfm.CantileverModel,
     ("spring_constant", "resonance_freq", "quality", "temperature")),
    (mrfm.ScalabilityParams,
     ("B0", "temperature", "N", "n", "grad", "gamma", "T2_0", "L",
      "delta_omega", "force_threshold", "bandwidth")),
    (mrfm.CAIParams, ("b1", "omega_m", "excursion", "n_periods", "gamma")),
    (pulses.SignMatrix, ("rows",)),
    (spinsys.SpinSystem, ("n_planes", "n_chains", "offsets", "couplings")),
    (spinsys.Propagator, ("matrix",)),
]


class TestImports:
    """A command imports only the models it runs (start-up time)."""

    def test_config_and_pulses_load_no_other_model(self):
        assert _fresh_modules(
            "import chainqc.cli\n"
            "chainqc.cli.config.load_config(None)") == (_STARTUP, set())
        assert "spinsys" not in _fresh_modules("import chainqc.pulses")[0]

    @pytest.mark.parametrize("command, models", [
        ("lattice", set()),
        ("magnet", {"magnet"}),
        ("schedule", {"pulses", "mrfm"}),
        ("simulate", {"pulses", "spinsys"}),
        ("scalability", {"mrfm"}),
        ("readout", {"mrfm"}),
    ])
    def test_command_loads_its_models(self, tmp_path, command, models):
        out = tmp_path / "out"
        code = ("from chainqc import cli\n"
                f"assert cli.main([{command!r}, '--no-meta', "
                f"'--out', {str(out)!r}]) == 0")
        modules, loaded = _fresh_modules(code)
        assert modules == _STARTUP | models
        if command in _NUMPY_FREE:
            assert loaded == set()
        else:  # numpy imports inspect itself
            assert loaded - {"inspect"} == {"numpy"}

    def test_recoupled_schedule_loads_no_numpy(self, tmp_path):
        code = ("from chainqc import cli\n"
                "assert cli.main(['schedule', '--recouple', '0,2', "
                f"'--no-meta', '--out', {str(tmp_path / 'out')!r}]) == 0")
        assert _fresh_modules(code) == (_STARTUP | {"pulses", "mrfm"}, set())

    def test_version_and_config_error_load_no_numpy(self, tmp_path):
        code = ("from chainqc import cli\n"
                "try:\n"
                "    cli.main(['--version'])\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0\n")
        assert _fresh_modules(code) == (_STARTUP, set())
        cfg = write_cfg(tmp_path, {"schema_version": 1, "nope": 1})
        code = ("from chainqc import cli\n"
                f"assert cli.main(['lattice', '--config', {cfg!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]) == 2")
        assert _fresh_modules(code) == (_STARTUP, set())

    @pytest.mark.parametrize("record, fields", _RECORDS,
                             ids=[r.__name__ for r, _ in _RECORDS])
    def test_result_records(self, record, fields):
        values = (_CHECKED[record][0] if record in _CHECKED
                  else {f: k for k, f in enumerate(fields)})
        rec = record(**values)
        assert rec._fields == fields
        assert tuple(rec) == tuple(values[f] for f in fields)

    def test_schedules_are_not_tuples(self):
        # benchmarks/traced.py tells compile_cnot's (Sequence, perm) from a
        # Sequence by isinstance(result, tuple).
        seq = pulses.wahuha(1e-6)
        assert not isinstance(seq, tuple)
        assert not isinstance(seq.events[0], tuple)


# A π pulse wider than τ: the schedule fails validation and exits 3.
_WIDE_PI_PULSE = {"schema_version": 1,
                  "sequence": {"tau_s": 1e-6, "slot_s": 6e-6,
                               "pi_width_s": 1.5e-6}}


class TestExitCodes:
    def test_malformed_config_exits_2_no_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, {"schema_version": 1, "nope": 1})
        out = tmp_path / "out"
        assert run(["lattice", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["lattice", "--threads", "0", "--out", str(out)]) == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_spin_cap_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "spin_system": {"n_planes": 13},
        })
        assert run(["simulate", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    def test_bad_recouple_pair_exits_2(self, tmp_path, capsys):
        assert run(["schedule", "--recouple", "0,7",
                    "--out", str(tmp_path / "o")]) == 2
        assert run(["schedule", "--recouple", "x,y",
                    "--out", str(tmp_path / "o")]) == 2
        # pulses.recouple checks the pair, from the flag or the config
        assert run(["schedule", "--recouple=-1,0",
                    "--out", str(tmp_path / "o")]) == 2
        cfg = write_cfg(tmp_path, _v1(sequence={"recouple": [0, 3]}))
        assert run(["schedule", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "recouple pair (-1, 0) invalid for n=3" in err
        assert "recouple pair (0, 3) invalid for n=3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_colliding_t2_columns_exit_2(self, tmp_path, capsys):
        # :g keeps six digits, so 0.1000001 would also head budgetL_T2_0p1s
        cfg = write_cfg(tmp_path, _v1(scalability={
            "T2_grid_s": [0.1, 0.1000001, 0.1]}))
        out = tmp_path / "o"
        assert run(["scalability", "--config", cfg, "--out", str(out)]) == 2
        assert ("scalability.T2_grid_s: 0.1 and 0.1000001 both name column "
                "budgetL_T2_0p1s") in capsys.readouterr().err
        assert not out.exists()

    def test_wide_pi_pulse_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, _WIDE_PI_PULSE)
        assert run(["schedule", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 3

    def test_interior_sampling_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "magnet": {"sample_origin_m": [0.0, 0.0, 6e-6]},
        })
        assert run(["magnet", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    def test_magnet_edge_line_exits_3(self, tmp_path):
        (x1, _), (y1, _), (_, z2) = config.load_config(None).magnet().bounds
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "magnet": {"sample_origin_m": [x1, y1 - 3e-6, z2],
                       "n_planes": 1},
        })
        assert run(["magnet", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command, section, text", [
        ("magnet", "magnet",
         '{"grad_override_T_per_m": 1.4e6, "sample_origin_m": [0, 0, NaN]}'),
        ("lattice", "lattice", '{"preset": "fluorapatite", "phi_rad": NaN}'),
        ("magnet", "magnet", '{"sample_origin_m": [0, 0, -1e400]}'),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command,
                                       section, text):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"schema_version": 1, "{section}": {text}}}',
                        encoding="utf-8")
        out = tmp_path / "o"
        assert run([command, "--config", str(path), "--out", str(out)]) == 2
        assert "non-finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_coincident_spins_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "spin_system": {"n_planes": 2,
                            "chain_positions_a": [[0.0, 0.0], [1e-300, 0.0]]},
        })
        assert run(["simulate", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "too close" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, body", [
        ("simulate", "spin_system", {"n_planes": 3.0}),
        ("schedule", "sequence", {"n_planes": 3.0}),
        ("lattice", "lattice", {"max_plane_separation": 3.0}),
        ("magnet", "magnet", {"homogeneity_samples": 11.0}),
        ("simulate", "spin_system", {"n_planes": 2, "schedule": "cnot",
                                     "cnot_control": 0.0}),
        ("schedule", "sequence", {"recouple": [1.0, 2]}),
    ])
    def test_integral_float_in_integer_field_exits_2(
            self, tmp_path, capsys, command, section, body):
        cfg = write_cfg(tmp_path, _v1(**{section: body}))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config invalid at" in err and "Traceback" not in err
        assert not out.exists()

    _OVERFLOW = "dipolar coupling overflows for gamma = "

    @pytest.mark.parametrize("command, body, message", [
        # an inf coupling the table refuses
        pytest.param("lattice", {"lattice": {"a_m": 1e-300}},
                     "lattice_coupling.csv would hold a non-finite number",
                     id="lattice-1e-300"),
        # a power in the dipolar coupling overflows
        pytest.param("simulate", {"lattice": {"a_m": 1e300}},
                     _OVERFLOW + "2.513e+08 rad/s/T and separation "
                     "(0.000e+00, 0.000e+00, 1.000e+300) m",
                     id="simulate-1e+300"),
        pytest.param("lattice", {"lattice": {"a_m": 1e300}},
                     _OVERFLOW + "2.513e+08", id="lattice-a_m"),
        pytest.param("lattice", {"lattice": {"gamma_rad_per_s_T": 1e300}},
                     _OVERFLOW + "1.000e+300", id="lattice-gamma"),
        pytest.param("simulate", {"lattice": {"gamma_rad_per_s_T": 1e300}},
                     _OVERFLOW + "1.000e+300", id="simulate-gamma"),
        pytest.param("simulate", {"spin_system": {
                         "chain_positions_a": [[0.0, 0.0], [1e300, 0.0]]}},
                     _OVERFLOW + "2.513e+08 rad/s/T and separation "
                     "(3.442e+290, 0.000e+00, 0.000e+00) m",
                     id="simulate-chain-position"),
    ])
    def test_arithmetic_error_exits_3(self, tmp_path, capsys, command, body,
                                      message):
        cfg = write_cfg(tmp_path, _v1(**body))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_readout_non_finite_drive_exits_2(self, tmp_path, capsys):
        # gamma * b1 overflows to inf, and the step 0.1 / inf would be 0
        cfg = write_cfg(tmp_path, _v1(readout={"b1_T": 1e300}))
        out = tmp_path / "o"
        assert run(["readout", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("config error: b1_T = 1.000e+300 T times gamma = "
                "2.513e+08 rad/s/T is not finite") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_converging_lattice_sum_exits_2(self, tmp_path, capsys):
        # chains far apart against their transverse spacing: every site has
        # lambda << 1 and b ~ -1, so the ratio grows at every doubling until
        # the coefficient grid passes its cap
        cfg = write_cfg(tmp_path, _v1(lattice={"a_m": 3.0}))
        out = tmp_path / "o"
        assert run(["lattice", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "coefficient grid, past the cap of 10000000" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(spinsys, "propagator_entries", fail)
        out = tmp_path / "o"
        assert run(["simulate", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: eigh did not converge" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, code", [
        ("magnet", {"lattice": {"a_m": 1.7e308}}, 3),    # plane positions
        ("magnet", {"magnet": {"extent_x_m": 1.7e308}}, 3),  # field terms
        ("magnet", {"magnet": {"w_m": 1.7e308}}, 3),
        ("simulate", {"lattice": {"a_m": 1.7e308},       # chain offsets
                      "spin_system": {"n_planes": 1, "chain_positions_a":
                                      [[0.0, 0.0], [2.7214, 0.0]]}}, 2),
        ("simulate", {"lattice": {"a_m": 1e70},          # CNOT z rotation
                      "spin_system": {"n_planes": 2, "schedule": "cnot"}}, 2),
    ])
    def test_overflow_exits_without_warning(self, tmp_path, capsys, command,
                                            body, code):
        # tier-1 turns a RuntimeWarning into an error, so an overflow seen
        # only as a numpy warning fails here
        cfg = write_cfg(tmp_path, _v1(**body))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not out.exists()
        if body.get("spin_system", {}).get("schedule") == "cnot":
            # the cause: plane 1's offset times the gate time pi/|J|
            assert "CNOT z rotation of plane 1 overflows" in err
            assert "rad/s times gate time pi/|J|" in err

    @pytest.mark.parametrize("omega_m", [1e-300, 1e-320])
    def test_readout_step_cap_exits_2(self, tmp_path, capsys, omega_m):
        cfg = write_cfg(tmp_path, _v1(readout={"omega_m_rad_per_s": omega_m}))
        out = tmp_path / "o"
        assert run(["readout", "--config", cfg, "--out", str(out)]) == 2
        assert "steps, more than the limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schedule", ["decoupling", "cnot"])
    def test_simulate_finite_pi_width_exits_2(self, tmp_path, capsys,
                                              schedule):
        cfg = write_cfg(tmp_path, _v1(
            spin_system={"n_planes": 2, "schedule": schedule},
            sequence={"pi_width_s": 1e-7}))
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "zero-width" in err and "sequence.pi_width_s" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key, cap", [
        ("lattice", "lattice", "max_plane_separation",
         config.MAX_PLANE_SEPARATION),
        ("magnet", "magnet", "n_planes", config.MAX_MAGNET_PLANES),
        ("magnet", "magnet", "homogeneity_samples",
         config.MAX_HOMOGENEITY_SAMPLES),
        ("schedule", "sequence", "n_planes", config.MAX_SEQUENCE_PLANES),
    ])
    def test_size_key_above_cap_exits_2(self, tmp_path, capsys, command,
                                        section, key, cap):
        config.parse_config(_v1(**{section: {key: cap}}))
        cfg = write_cfg(tmp_path, _v1(**{section: {key: cap + 1}}))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"config invalid at {section}/{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, item, cap", [
        ("n_grid", 2, config.MAX_N_GRID),
        ("T2_grid_s", 0.1, config.MAX_T2_GRID),
    ])
    def test_scalability_grid_above_cap_exits_2(self, tmp_path, capsys, key,
                                                item, cap):
        config.parse_config(_v1(scalability={key: [item] * cap}))
        cfg = write_cfg(tmp_path, _v1(scalability={key: [item] * (cap + 1)}))
        out = tmp_path / "o"
        assert run(["scalability", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"config invalid at scalability/{key}: expected an array of "
                f"1 to {cap} items, got {cap + 1}") in err
        assert not out.exists()

    def test_scalability_at_both_grid_caps_exits_0(self, tmp_path):
        # 1000 rows of 2 + 32 cells: under a second, about 0.6 MB
        cfg = write_cfg(tmp_path, _v1(scalability={
            "n_grid": list(range(1, config.MAX_N_GRID + 1)),
            "T2_grid_s": [10.0 ** (k / 4 - 4)
                          for k in range(config.MAX_T2_GRID)]}))
        out = tmp_path / "o"
        assert run(["scalability", "--config", cfg, "--out", str(out),
                    "--no-meta"]) == 0
        curve = out / "scalability_curve.csv"
        assert len(curve.read_text().splitlines()) == 1 + config.MAX_N_GRID
        assert curve.stat().st_size < 1e6

    @pytest.mark.parametrize("seq", [
        {"n_planes": 100000},   # the Sylvester block alone needs 2 GiB
        {"n_planes": 256},      # minutes of window scanning
        {"tau_s": 1e-12},       # 4e6 WAHUHA repetitions
        {"n_planes": 64, "tau_s": 4.9e-7},  # 12 events past the cap
        {"tau_s": 1e-320},      # inf repetitions, which math.ceil rejects
    ])
    def test_unbounded_schedule_exits_2(self, tmp_path, capsys, seq):
        cfg = write_cfg(tmp_path, _v1(sequence=seq))
        out = tmp_path / "o"
        assert run(["schedule", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config ") and "Traceback" not in err
        assert not out.exists()

    def test_schedule_splitting_overflow_leaves_no_output(self, tmp_path,
                                                          capsys):
        cfg = write_cfg(tmp_path, _v1(lattice={"gamma_rad_per_s_T": 1e300},
                                      spin_system={"grad_T_per_m": 1e300}))
        out = tmp_path / "o"
        assert run(["schedule", "--config", cfg, "--out", str(out)]) == 2
        assert "delta_omega must be positive and finite" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_schedule_ignores_scalability_design_point(self, tmp_path, fmt):
        # schedule reads only scalability.L; a design point whose
        # gamma * hbar * N underflows stops scalability, not schedule
        cfg = write_cfg(tmp_path, _v1(scalability={"copies_N": 1e-300}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["schedule", "--out", str(a), "--no-meta",
                    "--format", fmt]) == 0
        assert run(["schedule", "--config", cfg, "--out", str(b), "--no-meta",
                    "--format", fmt]) == 0
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("below", [False, True])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("kept", encoding="utf-8")
        out = blocker / "sub" if below else blocker
        assert run(["lattice", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write outputs under {out}")
        assert "Traceback" not in err
        assert blocker.read_text(encoding="utf-8") == "kept"

    def test_field_angle_key_rejected(self, tmp_path, capsys):
        # the field lies along the chains in every model
        cfg = write_cfg(tmp_path, _v1(lattice={"phi_rad": 0.9553}))
        out = tmp_path / "o"
        assert run(["lattice", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key 'phi_rad'" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_at_both_caps_exits_0(self, tmp_path):
        # 64 planes and 128 WAHUHA cycles: 2048 + 512 events
        cfg = write_cfg(tmp_path, _v1(sequence={
            "n_planes": config.MAX_SEQUENCE_PLANES, "tau_s": 5e-7}))
        out = tmp_path / "o"
        assert run(["schedule", "--config", cfg, "--out", str(out),
                    "--no-meta"]) == 0
        rep = json.loads((out / "schedule_validation.json").read_text())
        assert rep["n_events"] == pulses.MAX_SCHEDULE_EVENTS

    def test_simulate_oblique_field_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, _v1(lattice={"phi_rad": 0.9553}))
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "phi" in capsys.readouterr().err
        assert not out.exists()

    def test_oblique_basis_hits_grid_cap_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, _v1(lattice={"transverse_basis_m": [
            [9.367e-10, 0.0], [9.367e-10, 1e-16]]}))
        out = tmp_path / "o"
        assert run(["lattice", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "coefficient grid" in err and "Traceback" not in err
        assert not out.exists()

    def test_lattice_override_the_record_refuses_exits_2(self, tmp_path,
                                                         capsys):
        # each basis vector passes the config table; ChainLattice refuses
        # the collinear pair when the override replaces the preset's basis
        cfg = write_cfg(tmp_path, _v1(lattice={"transverse_basis_m": [
            [9.367e-10, 0.0], [4.6835e-10, 0.0]]}))
        out = tmp_path / "o"
        assert run(["lattice", "--config", cfg, "--out", str(out)]) == 2
        assert "collinear" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"schema_version": 1, "lattice": {"rel_tol": '
                        + "9" * 5000 + "}}", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["lattice", "--config", str(path),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key", [
        ("scalability", {"scalability": {"gamma_rad_per_s_T": 2.5e8}},
         "gamma_rad_per_s_T"),
        ("scalability", {"scalability": {"grad_T_per_m": 1.4e6}},
         "grad_T_per_m"),
        ("readout", {"readout": {"gamma_rad_per_s_T": 2.5e8}},
         "gamma_rad_per_s_T"),
        ("schedule", {"sequence": {"L": 16.0}}, "L"),
        ("readout", {"readout": {"cantilever": {"bandwidth_Hz": 1.0}}},
         "bandwidth_Hz"),
    ], ids=["scalability-gamma", "scalability-grad", "readout-gamma",
            "sequence-L", "cantilever-bandwidth"])
    def test_copy_of_another_key_exits_2(self, tmp_path, capsys, command,
                                         section, key):
        # gamma comes from the lattice, the gradient from spin_system and
        # L from scalability; the cantilever bandwidth was never read
        cfg = write_cfg(tmp_path, _v1(**section))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, sections, code, message", [
        ("scalability", {"scalability": {"copies_N": 1e-300}}, 2,
         "gamma * hbar * N underflows to 0"),
        ("scalability", {"lattice": {"gamma_rad_per_s_T": 1e-300}}, 2,
         "gamma * hbar * N underflows to 0"),
        ("schedule", {"lattice": {"a_m": 5e-324}}, 3,
         "schedule_validation.json would hold a non-finite number"),
        ("scalability", {"lattice": {"a_m": 5e-324}}, 3,
         "scalability_summary.json would hold a non-finite number"),
        ("schedule", {"scalability": {"L": 1.7e308}}, 3,
         "schedule_validation.json would hold a non-finite number"),
        ("scalability", {"scalability": {"L": 1.7e308}}, 3,
         "scalability_summary.json would hold a non-finite number"),
        ("readout",
         {"readout": {"cantilever": {"spring_constant_N_per_m": 1.7e308}}}, 3,
         "readout_summary.json would hold a non-finite number"),
    ], ids=["copies-underflow", "gamma-underflow", "schedule-tiny-a",
            "scalability-tiny-a", "schedule-huge-L", "scalability-huge-L",
            "readout-stiff-cantilever"])
    def test_non_finite_result_writes_nothing(self, tmp_path, capsys, command,
                                              sections, code, message):
        cfg = write_cfg(tmp_path, _v1(**sections))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out),
                    "--format", "json"]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_scalability_bracket_failure_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "scalability": {"force_threshold_N_per_sqrt_Hz": 1e10},
        })
        assert run(["scalability", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 3


_ROOT = Path(__file__).resolve().parents[1]
# The installed `chainqc` script's wrapper exits with the return of this
# callable: pyproject's [project.scripts] target.
_SCRIPT_MODULE, _SCRIPT_FUNC = re.search(
    r'^chainqc = "([\w.]+):(\w+)"$',
    (_ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups()
# A child that reports its collector's freeze count as it exits, entering
# the CLI as `python -m chainqc.cli` does or as the installed script does.
_REPORT_FREEZE = ("import atexit, gc, importlib, runpy, sys\n"
                  "atexit.register(lambda: print('freeze count', "
                  "gc.get_freeze_count()))\n")
_ENTRIES = {
    "module": "runpy.run_module('chainqc.cli', run_name='__main__')",
    "script": (f"sys.exit(importlib.import_module({_SCRIPT_MODULE!r})."
               f"{_SCRIPT_FUNC}())"),
}
# (arguments, exit code, start of the first stderr line)
_ENTRY_CASES = {
    "schedule-defaults": (["schedule", "--no-meta"], 0, ""),
    "malformed-config": (["lattice", "--config", "{bad}"], 2,
                         "config error: "),
    "wide-pi-pulse": (["schedule", "--config", "{wide}"], 3,
                      "validation error: "),
    "unknown-command": (["nope"], 2, "usage: chainqc"),
    "version": (["--version"], 0, ""),
}


def _child(code, args, **kw):
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
                          capture_output=True, text=True, **kw)


def _first_line(text):
    return text.splitlines()[0] if text else ""


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestProcessEntry:
    """Both process entries freeze the collector before the interpreter
    exits; cli.main never does."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("case", list(_ENTRY_CASES))
    def test_entry_freezes_before_exit(self, tmp_path, capsys, entry, case):
        args, code, err_start = _ENTRY_CASES[case]
        cfgs = {"bad": write_cfg(tmp_path, {"schema_version": 1, "nope": 1},
                                 "bad.json"),
                "wide": write_cfg(tmp_path, _WIDE_PI_PULSE, "wide.json")}
        args = [a.format(**cfgs) for a in args]
        if args != ["--version"]:
            args += ["--out", str(tmp_path / "out")]
        frozen = gc.get_freeze_count()
        try:
            assert run(args) == code
        except SystemExit as exc:
            assert exc.code == code
        assert gc.get_freeze_count() == frozen
        want_err = _first_line(capsys.readouterr().err)
        assert want_err.startswith(err_start)
        done = _child(_REPORT_FREEZE + _ENTRIES[entry], args)
        assert done.returncode == code
        assert _first_line(done.stderr) == want_err
        report = done.stdout.splitlines()[-1].split()
        assert report[:2] == ["freeze", "count"] and int(report[2]) > 0

    def test_entry_freezes_after_a_traceback(self):
        done = _child(_REPORT_FREEZE + "import chainqc.cli as cli\n"
                      "cli.main = lambda: 1 / 0\n"
                      "cli.entry()\n", [])
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1].startswith("ZeroDivisionError")
        assert int(done.stdout.split()[-1]) > 0

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_main_does_not_freeze(self, tmp_path, command):
        frozen = gc.get_freeze_count()
        assert run([command, "--no-meta", "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_entry_writes_what_main_writes(self, tmp_path, command, fmt):
        # Frozen cyclic garbage is never finalised at exit, so a file whose
        # writing waited on a finaliser would be missing or short here.
        args = [command, "--no-meta", "--format", fmt, "--out"]
        assert run(args + [str(tmp_path / "main")]) == 0
        _child("import runpy\n" + _ENTRIES["module"],
               args + [str(tmp_path / "entry")], check=True)
        assert _files(tmp_path / "entry") == _files(tmp_path / "main")


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _strict_json(path):
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


class TestOutputs:
    def test_default_outputs_are_strict_json(self, tmp_path):
        for command in cli._COMMANDS:
            for fmt in ("csv", "json"):
                out = tmp_path / f"{command}-{fmt}"
                assert run([command, "--out", str(out), "--no-meta",
                            "--format", fmt]) == 0
                for path in sorted(out.glob("*.json")):
                    _strict_json(path)

    def test_undefined_values_are_null(self, tmp_path):
        for fmt in ("csv", "json"):
            out = tmp_path / f"magnet-{fmt}"
            assert run(["magnet", "--out", str(out), "--no-meta",
                        "--format", fmt]) == 0
        last = _strict_json(tmp_path / "magnet-json"
                            / "magnet_splitting_profile.json")["rows"][-1]
        assert last[3:] == [None, None]
        csv_text = (tmp_path / "magnet-csv"
                    / "magnet_splitting_profile.csv").read_text()
        assert csv_text.endswith(",nan,nan\n")

        cfg = write_cfg(tmp_path, _v1(readout={"excursion_rad_per_s": 1.0}))
        out = tmp_path / "readout"
        assert run(["readout", "--config", cfg, "--out", str(out),
                    "--no-meta", "--format", "json"]) == 0
        summary = _strict_json(out / "readout_summary.json")
        assert summary["following_figure"] is None

        cfg = write_cfg(tmp_path, _v1(magnet={"w_m": 5e-324}))
        out = tmp_path / "flat"
        assert run(["magnet", "--config", cfg, "--out", str(out),
                    "--no-meta", "--format", "json"]) == 0
        rep = _strict_json(out / "magnet_summary.json")["homogeneity"]
        assert rep["plane_step_T"] == 0.0
        assert rep["variation_fraction"] is None and rep["passed"] is False

    @pytest.mark.parametrize("sections, budget, cycle_time, omega_1", [
        ({"lattice": {"gamma_rad_per_s_T": 2.6752e8}},
         8.0570, 1.1170e-3, 66880.0),
        ({"spin_system": {"grad_T_per_m": 2.8e6}},
         15.1387, 5.9450e-4, 62831.9),
        ({"scalability": {"L": 32.0}}, 3.7847, 2.3780e-3, 62831.9),
    ], ids=["gamma", "gradient", "L"])
    def test_one_key_moves_every_model(self, tmp_path, sections, budget,
                                       cycle_time, omega_1):
        # at the defaults: 7.5694, 1.1890e-3 s and 62831.9 rad/s
        cfg = write_cfg(tmp_path, _v1(**sections))
        docs = {}
        for command, name in (("scalability", "scalability_summary"),
                              ("schedule", "schedule_validation"),
                              ("readout", "readout_summary")):
            out = tmp_path / command
            assert run([command, "--config", cfg, "--out", str(out),
                        "--no-meta"]) == 0
            docs[command] = _strict_json(out / f"{name}.json")
        assert docs["scalability"]["gate_budget"] == pytest.approx(
            budget, rel=1e-4)
        assert docs["schedule"]["cycle_time_model_s"] == pytest.approx(
            cycle_time, rel=1e-4)
        assert docs["scalability"]["cycle_time_s"] == pytest.approx(
            cycle_time * 10**2 / 3**2, rel=1e-4)
        assert docs["readout"]["omega_1_rad_per_s"] == pytest.approx(
            omega_1, rel=1e-5)
    def test_lattice_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run(["lattice", "--out", str(out), "--no-meta"]) == 0
        summary = json.loads((out / "lattice_summary.json").read_text())
        assert summary["sigma_over_delta"] == pytest.approx(0.01739, rel=1e-3)
        assert (out / "lattice_coupling.csv").exists()
        assert (out / "lattice_b_coefficient.csv").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "o"
        assert run(["lattice", "--out", str(out), "--no-meta",
                    "--format", "json"]) == 0
        doc = json.loads((out / "lattice_coupling.json").read_text())
        assert doc["header"][0] == "plane_separation"

    def test_meta_line_toggle(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run(["lattice", "--out", str(o1)])
        run(["lattice", "--out", str(o2), "--no-meta"])
        first = (o1 / "lattice_coupling.csv").read_text().splitlines()[0]
        assert first.startswith("# chainqc")
        first2 = (o2 / "lattice_coupling.csv").read_text().splitlines()[0]
        assert not first2.startswith("#")

    def test_magnet_grad_override(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "magnet": {"grad_override_T_per_m": 1.4e6},
        })
        out = tmp_path / "o"
        assert run(["magnet", "--config", cfg, "--out", str(out),
                    "--no-meta"]) == 0
        summary = json.loads((out / "magnet_summary.json").read_text())
        assert summary["splitting_Hz"] == pytest.approx(19.28e3, rel=1e-3)
        assert summary["homogeneity"]["passed"] is True

    def test_magnet_grad_override_offset_origin(self, tmp_path):
        g, z = 1.4e6, -3e-7
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "magnet": {"grad_override_T_per_m": g,
                       "sample_origin_m": [0.0, 0.0, z]},
        })
        out = tmp_path / "o"
        assert run(["magnet", "--config", cfg, "--out", str(out),
                    "--no-meta", "--format", "json"]) == 0
        summary = json.loads((out / "magnet_summary.json").read_text())
        fmap = json.loads((out / "magnet_field_map.json").read_text())
        row0 = dict(zip(fmap["header"], fmap["rows"][0]))
        assert row0["z_m"] == z
        assert summary["bz_at_origin_T"] == row0["bz_T"] == g * z
        assert summary["grad_bz_at_origin_T_per_m"] == [0.0, 0.0, g]
        a = config.load_config(None).lattice().a
        assert summary["homogeneity"]["plane_step_T"] == a * g
        csv_out = tmp_path / "c"
        assert run(["magnet", "--config", cfg, "--out", str(csv_out),
                    "--no-meta"]) == 0
        lines = (csv_out / "magnet_field_map.csv").read_text().splitlines()
        assert float(lines[1].split(",")[2]) == g * z

    def test_schedule_recouple_report(self, tmp_path):
        out = tmp_path / "o"
        assert run(["schedule", "--recouple", "1,2", "--out", str(out),
                    "--no-meta"]) == 0
        rep = json.loads((out / "schedule_validation.json").read_text())
        assert rep["valid"] is True
        assert rep["effective_coupling_scales"][1][2] == 1.0
        assert rep["effective_coupling_scales"][0][1] == 0.0
        assert rep["degraded_pairs"] == []
        assert (out / "schedule.json").exists()

    def test_simulate_decoupling_summary(self, tmp_path):
        out = tmp_path / "o"
        assert run(["simulate", "--out", str(out), "--no-meta"]) == 0
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["identity_infidelity"] < 1e-9

    def test_simulate_cnot_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "spin_system": {"n_planes": 2, "schedule": "cnot"},
        })
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", str(out),
                    "--no-meta"]) == 0
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["cnot_fidelity"] > 1 - 1e-6

    @pytest.mark.parametrize("schedule", ["decoupling", "cnot"])
    def test_simulate_takes_no_kronecker_product(self, tmp_path, monkeypatch,
                                                 schedule):
        # operators and initial states are written from the bit table
        def kron(a, b):
            raise AssertionError("numpy.kron called")
        monkeypatch.setattr("numpy.kron", kron)
        cfg = write_cfg(tmp_path, {"schema_version": 1,
                                   "spin_system": {"schedule": schedule}})
        assert run(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "o"), "--no-meta"]) == 0

    def test_decoupling_simulate_builds_no_propagator(self, tmp_path,
                                                      monkeypatch):
        # the cycle's diagonal is carried sector by sector: at 12 spins no
        # d x d array (134 MB as floats) is allocated
        import tracemalloc

        def fail(*args, **kwargs):
            raise AssertionError("spinsys.propagator called")
        monkeypatch.setattr(spinsys, "propagator", fail)
        cfg = write_cfg(tmp_path, _v1(spin_system={
            "n_planes": 4, "schedule": "decoupling",
            "chain_positions_a": [[0, 0], [2.7214, 0], [1.3607, 2.3568]]}))
        tracemalloc.start()
        try:
            code = run(["simulate", "--config", cfg, "--out",
                        str(tmp_path / "o"), "--no-meta"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4096 ** 2 * 8

    def test_cnot_simulate_builds_no_propagator(self, tmp_path, monkeypatch):
        # the CNOT's fidelity reads d entries of U through
        # propagator_entries, as the decoupling cycle's does
        def fail(*args, **kwargs):
            raise AssertionError("spinsys.propagator called")
        monkeypatch.setattr(spinsys, "propagator", fail)
        cfg = write_cfg(tmp_path, _v1(spin_system={"n_planes": 3,
                                                   "schedule": "cnot"}))
        assert run(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "o"), "--no-meta"]) == 0

    def test_scalability_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "scalability": {"n_grid": [10, 20]},
        })
        out = tmp_path / "o"
        assert run(["scalability", "--config", cfg, "--out", str(out),
                    "--no-meta"]) == 0
        lines = (out / "scalability_curve.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["n", "B_over_T_required_T_per_K"]
        assert "budgetL_T2_0p1s" in header
        row10 = lines[1].split(",")
        assert float(row10[1]) == pytest.approx(1.61, rel=0.01)
        assert float(row10[2]) == pytest.approx(121.1, rel=0.01)

    def test_curve_and_summary_share_budget_times_l(self, tmp_path):
        cfg = write_cfg(tmp_path, _v1(scalability={
            "n": 7, "T2_0_s": 0.3, "n_grid": [7], "T2_grid_s": [0.3]}))
        out = tmp_path / "o"
        assert run(["scalability", "--config", cfg, "--out", str(out),
                    "--no-meta", "--format", "json"]) == 0
        curve = json.loads((out / "scalability_curve.json").read_text())
        summary = json.loads((out / "scalability_summary.json").read_text())
        assert curve["rows"][0][2] == summary["gate_budget_times_L"]

    def test_gate_budget_follows_gradient(self, tmp_path):
        def summary(grad):
            cfg = write_cfg(tmp_path, _v1(spin_system={"grad_T_per_m": grad}))
            out = tmp_path / f"o{grad:g}"
            assert run(["scalability", "--config", cfg, "--out", str(out),
                        "--no-meta"]) == 0
            return json.loads((out / "scalability_summary.json").read_text())
        base, doubled = summary(1.4e6), summary(2.8e6)
        assert doubled["gate_budget"] == pytest.approx(
            2 * base["gate_budget"], rel=1e-15)
        assert doubled["cycle_time_s"] == pytest.approx(
            base["cycle_time_s"] / 2, rel=1e-15)

    def test_readout_summary(self, tmp_path):
        out = tmp_path / "o"
        assert run(["readout", "--out", str(out), "--no-meta"]) == 0
        summary = json.loads((out / "readout_summary.json").read_text())
        assert summary["adiabaticity"] == pytest.approx(10.0)
        assert summary["following_figure"] >= 0.99

    def test_readout_zero_field_exits_0(self, tmp_path):
        # omega_1 and the detuning underflow to 0: a zero-field step is the
        # identity, with no 0/0 (a RuntimeWarning, an error under tier-1)
        cfg = write_cfg(tmp_path, _v1(
            lattice={"gamma_rad_per_s_T": 5e-324},
            readout={"excursion_rad_per_s": 5e-324}))
        out = tmp_path / "o"
        assert run(["readout", "--config", cfg, "--out", str(out),
                    "--no-meta"]) == 0
        with open(out / "readout_cai_trace.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(math.isfinite(float(x)) for r in rows for x in r)
        summary = json.loads((out / "readout_summary.json").read_text())
        assert summary["omega_1_rad_per_s"] == 0.0
        assert summary["norm_drift"] == 0.0
        assert math.isfinite(summary["modulation_amplitude"])

    @pytest.mark.parametrize("delta_omega", [None, 1e9, 1e4])
    def test_readout_warning(self, tmp_path, delta_omega):
        readout = {"n_periods": 1, "steps_per_period": 100}
        if delta_omega is not None:
            readout["delta_omega_rad_per_s"] = delta_omega
        cfg = write_cfg(tmp_path, _v1(readout=readout))
        out = tmp_path / "o"
        assert run(["readout", "--config", cfg, "--out", str(out),
                    "--no-meta"]) == 0
        summary = json.loads((out / "readout_summary.json").read_text())
        excursion = summary["excursion_rad_per_s"]
        if delta_omega is None or excursion < 0.5 * delta_omega:
            assert summary["warning"] is None
        else:
            assert summary["warning"] == (
                f"frequency excursion {excursion:.3e} rad/s is not small "
                f"compared to the plane splitting {delta_omega:.3e} rad/s")

    @pytest.mark.parametrize("command, sections, line, files", [
        ("lattice", {}, "sigma/delta = 0.0173917",
         ["lattice_coupling.csv", "lattice_b_coefficient.csv",
          "lattice_sigma_trace.csv", "lattice_summary.json"]),
        ("magnet", {}, "splitting = 2*pi * 2343.83 Hz",
         ["magnet_splitting_profile.csv", "magnet_field_map.csv",
          "magnet_summary.json"]),
        ("magnet", {"magnet": {"n_planes": 1}}, None,
         ["magnet_splitting_profile.csv", "magnet_field_map.csv",
          "magnet_summary.json"]),
        ("schedule", {}, "schedule: 22 events over 2.400e-05 s",
         ["schedule_timeline.csv", "schedule_validation.json",
          "schedule.json"]),
        ("simulate", {}, "fidelity = 1.000000000000",
         ["simulate_trajectory.csv", "simulate_summary.json"]),
        ("scalability", {}, "max measurable qubits = 10",
         ["scalability_curve.csv", "scalability_summary.json"]),
        ("readout", {}, "following figure = 0.999393",
         ["readout_cai_trace.csv", "readout_summary.json"]),
        ("readout", {"readout": {"excursion_rad_per_s": 1.0}}, None,
         ["readout_cai_trace.csv", "readout_summary.json"]),
    ], ids=["lattice", "magnet", "magnet-one-plane", "schedule", "simulate",
            "scalability", "readout", "readout-no-figure"])
    def test_verbose_stdout(self, tmp_path, capsys, command, sections, line,
                            files):
        # the summary line, where a command has one, then the files written
        cfg = write_cfg(tmp_path, _v1(**sections))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert run([command, "--config", cfg, "--out", str(out),
                    "--verbose"]) == 0
        lines = [f"wrote {out / f}" for f in files]
        if line is not None:
            lines.insert(0, line)
        assert capsys.readouterr().out == "".join(f"{x}\n" for x in lines)


# --- command-level fuzz ------------------------------------------------------
#
# Up to four edits per config, each a key of config._SPEC set to a value at
# an edge: a size cap +- 1, the float range's ends, 0, -1, 3.0 for an integer
# key, true, a string or a list of the wrong length; then one command through
# cli.main.  Tier-1 draws only cheap sizes, so the test stays near 10 s: at
# most 8 spins (a 12-spin simulate takes seconds and most of a GB), rel_tol of
# at least 1e-8 (a lower one grows the lattice sum to its 10**7-point cap,
# 2.7 s and 0.7 GB) and grids of at most 100 per side.  Sizes past a cap still
# draw, since they exit 2 at once.  ``--hypothesis-profile=cli-deep`` draws the
# full ranges.

_CLI_DEEP = settings.get_current_profile_name() == "cli-deep"


def _leaf_paths(spec, prefix=()):
    for key, entry in spec.items():
        if isinstance(entry, dict):
            yield from _leaf_paths(entry, prefix + (key,))
        else:
            yield prefix + (key,)


def _around(cap):
    return [cap - 1, cap, cap + 1]


def _chains(n):
    return [[2.7214 * k, 0.0] for k in range(n)]


_SPINS = spinsys.MAX_SPINS
# With the defaults' one chain and three planes, n_planes is the spin count
# and four chains make 12 spins.
_CAPS = {
    ("lattice", "max_plane_separation"): _around(config.MAX_PLANE_SEPARATION),
    ("magnet", "n_planes"): _around(config.MAX_MAGNET_PLANES),
    ("magnet", "homogeneity_samples"): (
        _around(config.MAX_HOMOGENEITY_SAMPLES) if _CLI_DEEP
        else [100, config.MAX_HOMOGENEITY_SAMPLES + 1]),
    ("sequence", "n_planes"): _around(config.MAX_SEQUENCE_PLANES),
    ("scalability", "n_grid"): [
        list(range(1, n + 1)) for n in (
            _around(config.MAX_N_GRID) if _CLI_DEEP
            else [100, config.MAX_N_GRID + 1])],
    ("scalability", "T2_grid_s"): [
        [0.1 * (k + 1) for k in range(n)]
        for n in _around(config.MAX_T2_GRID)],
    ("spin_system", "n_planes"): (_around(_SPINS) if _CLI_DEEP
                                  else [8, _SPINS + 1]),
    ("spin_system", "chain_positions_a"): [
        _chains(n) for n in ([4, 5] if _CLI_DEEP else [2, 5])],
}
_FUZZ_EDGES = [5e-324, 1e-300, 1.7e308, 0, -1, True, "up", [], [0.0],
               [0.0] * 4]


def _fuzz_pool(path):
    """(every value drawn for the key, the ones its own check accepts)."""
    values = _FUZZ_EDGES + _CAPS.get(path, [])
    if path == ("lattice", "rel_tol") and not _CLI_DEEP:
        values = [v for v in values if v not in (5e-324, 1e-300)]
    entry, default = config._SPEC, config.default_config()
    for key in path:
        entry, default = entry[key], default.get(key)
    if type(default) is int:
        values = values + [3.0]
    return values, [v for v in values if _accepts(entry[0], v)]


def _fuzz_values(path):
    # Half the draws come from the values the key's own check accepts, so
    # that most configs reach a model rather than stop at validation.
    values, accepted = _fuzz_pool(path)
    drawn = st.sampled_from(values)
    if accepted:
        drawn = st.sampled_from(accepted) | drawn
    return st.tuples(st.just(path), drawn)


def _accepts(check, value):
    try:
        check(value, "")
    except ConfigError:
        return False
    return True


_FUZZ_EDIT = st.sampled_from(list(_leaf_paths(config._SPEC))).flatmap(
    _fuzz_values)
# README: the undefined values an output may hold as null (nan in CSV)
_MAY_BE_NULL = ("following_figure", "variation_fraction", "warning",
                "recoupled_pair")


def _check_value(x, key, last_row):
    if x is None:
        assert key in _MAY_BE_NULL or (
            key.startswith("delta_to_next_") and last_row), key
    elif isinstance(x, dict):
        if set(x) == {"header", "rows"}:
            for i, row in enumerate(x["rows"]):
                for col, v in zip(x["header"], row):
                    _check_value(v, col, i == len(x["rows"]) - 1)
        else:
            for k, v in x.items():
                _check_value(v, k, False)
    elif isinstance(x, list):
        for v in x:
            _check_value(v, key, last_row)
    elif isinstance(x, float):
        assert math.isfinite(x), key


def _check_outputs(out):
    for path in out.iterdir():
        if path.suffix == ".json":
            _check_value(_strict_json(path), path.name, False)
            continue
        header, *rows = csv.reader(io.StringIO(path.read_text()))
        for i, row in enumerate(rows):
            for col, cell in zip(header, row):
                try:
                    x = float(cell)
                except ValueError:
                    continue
                _check_value(None if math.isnan(x) else x, col,
                             i == len(rows) - 1)


@settings(max_examples=1500 if _CLI_DEEP else 500, deadline=None)
@given(command=st.sampled_from(sorted(cli._COMMANDS)),
       fmt=st.sampled_from(["csv", "json"]),
       edits=st.lists(_FUZZ_EDIT, min_size=1, max_size=4))
def test_command_fuzz(tmp_path_factory, command, fmt, edits):
    """Any config the table accepts or refuses ends in exit 0, 2 or 3; on 0
    every number written is finite or a documented null, otherwise no
    output directory exists."""
    obj = {"schema_version": 1}
    for path, value in edits:
        node = obj
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = write_cfg(tmp, obj)
    out = tmp / "out"
    code = run([command, "--config", cfg, "--out", str(out), "--no-meta",
                "--format", fmt])
    assert code in (0, 2, 3)
    if code == 0:
        _check_outputs(out)
    else:
        assert not out.exists()
