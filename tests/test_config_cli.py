"""Config validation, CSV/SVG artifacts, and end-to-end command-line runs."""

import ast
import copy
import csv
import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import libration
from libration import cli
from libration.cli import main
from libration.config import ConfigError, load_config
from libration.model import (DEFAULT_DAMPING_PER_PASCAL, DWELL_DAMPING_CYCLES,
                             NanoparticleSpec, mode_parameters, thermal_occupancy)
from libration.output import svg_line_chart, write_csv
from libration.squeezing import squeeze_params
from libration.steadystate import _linspace, turning_points
from oracles import moment_mpmath

TWO_PI = 2.0 * math.pi

BASE = {
    "particle": {"material": "diamond", "r_a_m": 5e-8, "r_b_m": 4e-8},
    "trap": {"power_w": 0.1, "waist_m": 0.6e-6},
    "environment": {"pressure_pa": 1.3332236842105263, "temperature_k": 300.0},
}

# e = 0.9 particle whose mean-field fit underlies the bistability configs
WINDOW = {
    "particle": {"material": "diamond", "r_a_m": 5e-8, "eccentricity": 0.9},
    "trap": {"power_w": 0.1, "waist_m": 0.6e-6},
    "environment": {"pressure_pa": 1.3332236842105263, "temperature_k": 300.0},
    "drive": {"detuning_rad_s": -34283.6799057411},
}


def write_cfg(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    """A CSV written by ``write_csv``: columns where every entry parses as a
    float come back as float arrays, anything else as a list of strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty CSV file: {path}")
    data = {}
    for j, name in enumerate(rows[0]):
        raw = [row[j] for row in rows[1:]]
        try:
            data[name] = np.array([float(v) for v in raw])
        except ValueError:
            data[name] = raw
    return data


def with_sections(base, **sections):
    cfg = copy.deepcopy(base)
    for key, value in sections.items():
        cfg[key] = value
    return cfg


# ---------------------------------------------------------------- config


def test_minimal_config_loads(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert cfg.particle.r_a == 5e-8 and cfg.particle.r_b == 4e-8
    assert cfg.particle.density == 3500.0  # diamond preset
    assert cfg.trap.power == 0.1
    assert cfg.gamma_b == DEFAULT_DAMPING_PER_PASCAL * 1.3332236842105263
    assert cfg.mode == mode_parameters(cfg.particle, cfg.trap)
    assert cfg.drive is None and cfg.ramp is None and cfg.squeeze is None


def test_hz_and_rad_s_suffixes_agree(tmp_path):
    in_hz = with_sections(
        BASE,
        environment={**BASE["environment"], "gamma_b_hz": 1275.3},
        drive={"detuning_hz": -200.0, "power_w": 1e-5},
    )
    in_rad = with_sections(
        BASE,
        environment={**BASE["environment"], "gamma_b_rad_s": 1275.3 * TWO_PI},
        drive={"detuning_rad_s": -200.0 * TWO_PI, "power_w": 1e-5},
    )
    a = load_config(write_cfg(tmp_path, in_hz, "a.json"))
    b = load_config(write_cfg(tmp_path, in_rad, "b.json"))
    assert a.gamma_b == b.gamma_b == 1275.3 * TWO_PI
    assert a.drive.delta_ml == b.drive.delta_ml == -200.0 * TWO_PI


def test_damping_per_pascal_sets_gamma_b(tmp_path, capsys):
    pressure = BASE["environment"]["pressure_pa"]
    env = {**BASE["environment"], "damping_per_pascal_rad_s": 4321.5}
    path = write_cfg(tmp_path, with_sections(BASE, environment=env))
    assert load_config(path).gamma_b == 4321.5 * pressure  # bit for bit
    # derive reports the resolved damping
    assert run_cli(["derive", "--config", path, "--out", tmp_path / "out"]) == 0
    assert f"gamma_b                      {4321.5 * pressure:.10g} rad/s" in capsys.readouterr().out
    table = read_csv(tmp_path / "out" / "derive.csv")
    assert dict(zip(table["quantity"], table["value"]))["gamma_b"] == 4321.5 * pressure
    # an explicit damping rate wins over the pressure model
    env["gamma_b_hz"] = 1000.0
    path = write_cfg(tmp_path, with_sections(BASE, environment=env))
    assert load_config(path).gamma_b == 1000.0 * TWO_PI
    # a product beyond float range is a config error, not an infinite damping
    env = {**BASE["environment"], "pressure_pa": 1e300, "damping_per_pascal_rad_s": 1e300}
    with pytest.raises(ConfigError, match=r"environment: damping_per_pascal_rad_s \* pressure"):
        load_config(write_cfg(tmp_path, with_sections(BASE, environment=env)))


def test_both_unit_suffixes_rejected(tmp_path):
    bad = with_sections(
        BASE,
        environment={**BASE["environment"], "gamma_b_hz": 1.0, "gamma_b_rad_s": 6.0},
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_cfg(tmp_path, bad))


def test_material_preset_override(tmp_path):
    cfg = with_sections(BASE)
    cfg["particle"]["density_kg_m3"] = 2000.0
    loaded = load_config(write_cfg(tmp_path, cfg))
    assert loaded.particle.density == 2000.0
    assert loaded.particle.eps_r == 5.7  # preset eps_r kept
    cfg["particle"]["material"] = "unobtainium"
    with pytest.raises(ConfigError, match="particle.material"):
        load_config(write_cfg(tmp_path, cfg))
    del cfg["particle"]["material"]
    del cfg["particle"]["density_kg_m3"]
    with pytest.raises(ConfigError, match="density_kg_m3"):
        load_config(write_cfg(tmp_path, cfg))


def test_unknown_keys_report_dotted_paths(tmp_path):
    cfg = with_sections(BASE)
    cfg["particle"]["r_a"] = 5e-8  # missing unit suffix
    with pytest.raises(ConfigError, match=r"particle.*unknown key"):
        load_config(write_cfg(tmp_path, cfg))
    cfg = with_sections(BASE, extra={})
    with pytest.raises(ConfigError, match=r"\(root\).*unknown key"):
        load_config(write_cfg(tmp_path, cfg))
    cfg = with_sections(BASE)
    cfg["environment"]["pressure"] = 1.0
    with pytest.raises(ConfigError, match=r"environment.*unknown key"):
        load_config(write_cfg(tmp_path, cfg))


def test_particle_shape_exclusivity(tmp_path):
    cfg = with_sections(BASE)
    cfg["particle"]["eccentricity"] = 0.6  # r_b_m already present
    with pytest.raises(ConfigError, match="exactly one of 'r_b_m' or 'eccentricity'"):
        load_config(write_cfg(tmp_path, cfg))
    del cfg["particle"]["eccentricity"]
    del cfg["particle"]["r_b_m"]
    with pytest.raises(ConfigError, match="exactly one of 'r_b_m' or 'eccentricity'"):
        load_config(write_cfg(tmp_path, cfg))
    cfg["particle"]["r_b_m"] = 6e-8  # exceeds r_a -> oblate, rejected upstream
    with pytest.raises(ConfigError, match="particle"):
        load_config(write_cfg(tmp_path, cfg))


@pytest.mark.parametrize("material", [[], ["diamond"], {}, 3, None])
def test_cli_rejects_a_material_that_is_not_a_string(tmp_path, capsys, material):
    # a list or an object cannot be hashed: looking it up among the presets
    # ended the run in a TypeError traceback
    cfg = with_sections(BASE)
    cfg["particle"]["material"] = material
    assert run_cli(["derive", "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error at particle.material: expected one of ['diamond', 'silica'], "
                   f"got {material!r}\n")


@pytest.mark.parametrize("key, value, message", [
    ("r_b_m", "4e-8", "expected a finite number, got '4e-8'"),
    ("r_b_m", 0.0, "must be > 0.0, got 0.0"),
    ("eccentricity", "0.9", "expected a finite number, got '0.9'"),
    ("eccentricity", -0.5, "must be >= 0.0, got -0.5"),
])
def test_cli_particle_shape_errors_name_the_key_once(tmp_path, capsys, key, value, message):
    cfg = with_sections(BASE)
    del cfg["particle"]["r_b_m"]
    cfg["particle"][key] = value
    assert run_cli(["derive", "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err == f"config error at particle.{key}: {message}\n"
    assert err.count("config error") == 1


def test_drive_validation(tmp_path):
    both = with_sections(BASE, drive={"frequency_hz": 1.2e6, "detuning_hz": -200.0})
    with pytest.raises(ConfigError, match="exactly one of a drive"):
        load_config(write_cfg(tmp_path, both))
    neither = with_sections(BASE, drive={"power_w": 1e-5})
    with pytest.raises(ConfigError, match="exactly one of a drive"):
        load_config(write_cfg(tmp_path, neither))
    twice = with_sections(
        BASE, drive={"detuning_hz": -200.0, "power_w": 1e-5, "amplitude_rad_s": 1e6}
    )
    with pytest.raises(ConfigError, match="at most one"):
        load_config(write_cfg(tmp_path, twice))
    negative = with_sections(BASE, drive={"frequency_hz": -5.0})
    with pytest.raises(ConfigError, match="frequency"):
        load_config(write_cfg(tmp_path, negative))


def test_ramp_validation(tmp_path):
    backwards = with_sections(
        BASE,
        drive={"detuning_hz": -200.0},
        ramp={"amplitude_start_rad_s": 2e6, "amplitude_stop_rad_s": 1e6, "steps": 10},
    )
    with pytest.raises(ConfigError, match="amplitude_stop"):
        load_config(write_cfg(tmp_path, backwards))
    short = with_sections(
        BASE,
        drive={"detuning_hz": -200.0},
        ramp={"amplitude_start_rad_s": 1e6, "amplitude_stop_rad_s": 2e6, "steps": 2},
    )
    with pytest.raises(ConfigError, match="ramp.steps"):
        load_config(write_cfg(tmp_path, short))


def test_ramp_dwell_resolves_at_load(tmp_path):
    ramp = {"amplitude_start_rad_s": 1e6, "amplitude_stop_rad_s": 2e6, "steps": 5}
    cfg = load_config(write_cfg(tmp_path, with_sections(BASE, ramp=ramp)))
    assert cfg.ramp.dwell == DWELL_DAMPING_CYCLES / cfg.gamma_b
    cfg = load_config(write_cfg(tmp_path, with_sections(BASE, ramp={**ramp, "dwell_s": 2.5e-3})))
    assert cfg.ramp.dwell == 2.5e-3
    # a damping so weak that 20 / gamma_b overflows needs an explicit dwell
    weak = with_sections(BASE, ramp=ramp,
                         environment={**BASE["environment"], "gamma_b_rad_s": 1e-320})
    with pytest.raises(ConfigError, match=r"config error at ramp: .*give 'dwell_s'"):
        load_config(write_cfg(tmp_path, weak))


def test_squeeze_validation(tmp_path):
    def squeeze_cfg(**squeeze):
        return with_sections(BASE, drive={"detuning_hz": 200.0}, squeeze=squeeze)

    ok = load_config(
        write_cfg(tmp_path, squeeze_cfg(r=40.0, phi_rad=[3.14, 1.57], t_max_s=1e-3))
    )
    assert ok.squeeze.phi_rad == (3.14, 1.57)
    assert len(ok.squeeze.t) == 400  # default points
    scalar = load_config(
        write_cfg(tmp_path, squeeze_cfg(r=40.0, phi_rad=0.5, t_max_s=1e-3), "s.json")
    )
    assert scalar.squeeze.phi_rad == (0.5,)
    for bad, pattern in [
        (squeeze_cfg(r=1.0, from_drive=True, phi_rad=0.0, t_max_s=1e-3), "not both"),
        (squeeze_cfg(r=1.0, phi_rad=[], t_max_s=1e-3), "phi_rad"),
        (squeeze_cfg(r=1.0, t_max_s=1e-3), "phi_rad"),
        (squeeze_cfg(r=1.0, phi_rad=0.0, t_max_s=1e-3, nbar=2.0, thermal=True),
         "either 'nbar' or 'thermal'"),
        (squeeze_cfg(r=1.0, phi_rad=0.0, t_max_s=1e-3, branch="middle"), "branch"),
    ]:
        with pytest.raises(ConfigError, match=pattern):
            load_config(write_cfg(tmp_path, bad, "bad.json"))


def test_scan_validation(tmp_path):
    bad_axis = with_sections(BASE, derive={"scan": "volume", "min": 1, "max": 2, "points": 3})
    with pytest.raises(ConfigError, match="derive.scan"):
        load_config(write_cfg(tmp_path, bad_axis))
    ecc_high = with_sections(
        BASE, derive={"scan": "eccentricity", "min": 0.1, "max": 1.0, "points": 3}
    )
    with pytest.raises(ConfigError, match="below 1"):
        load_config(write_cfg(tmp_path, ecc_high))


def test_cli_derive_scan_rejects_zero_radius(tmp_path, capsys):
    # a zero semi-major axis has no particle: a config error, not a traceback
    cfg = write_cfg(tmp_path, with_sections(
        BASE, derive={"scan": "r_a_m", "min": 0, "max": 1e-7, "points": 3}
    ))
    assert run_cli(["derive", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "derive.min" in err and "must be > 0" in err
    assert "Traceback" not in err
    ecc_from_zero = with_sections(
        BASE, derive={"scan": "eccentricity", "min": 0, "max": 0.5, "points": 3}
    )
    assert load_config(write_cfg(tmp_path, ecc_from_zero)).scan.grid[0] == 0.0


@pytest.mark.parametrize("axis, lo, hi", [("r_a_m", 3e-8, 1e200), ("r_a_m", 1e-320, 1e-7)])
def test_cli_derive_scan_beyond_float_range_is_a_config_error(tmp_path, capsys, axis, lo, hi):
    # the scan's modes resolve at load, through the same range guard as the mode
    cfg = write_cfg(tmp_path, with_sections(
        BASE, derive={"scan": axis, "min": lo, "max": hi, "points": 4}
    ))
    assert run_cli(["derive", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at derive: the librational mode at {axis} = ")
    assert "beyond float range" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "derive.csv").exists()


def test_derive_scan_modes_resolve_at_load(tmp_path, capsys):
    cfg = load_config(write_cfg(tmp_path, with_sections(
        BASE, derive={"scan": "eccentricity", "min": 0.5, "max": 0.9, "points": 3}
    )))
    assert cfg.scan.grid == (0.5, 0.7, 0.9)
    assert cfg.scan.modes[1] == mode_parameters(
        NanoparticleSpec.from_eccentricity(cfg.particle.r_a, 0.7, cfg.particle.density,
                                           cfg.particle.eps_r), cfg.trap)
    # a scan from eccentricity 0 starts at a sphere: it loads without modes, and
    # derive reports the missing confinement after writing derive.csv
    sphere = write_cfg(tmp_path, with_sections(
        BASE, derive={"scan": "eccentricity", "min": 0, "max": 0.5, "points": 3}
    ), name="sphere.json")
    assert load_config(sphere).scan.modes == ()
    assert run_cli(["derive", "--config", sphere, "--out", tmp_path / "out"]) == 2
    assert "numerical failure: the derive scan reaches a sphere" in capsys.readouterr().err
    assert (tmp_path / "out" / "derive.csv").exists()


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    # a path that exists but is no readable file
    with pytest.raises(ConfigError, match="cannot read") as exc:
        load_config(tmp_path)
    assert str(tmp_path) in str(exc.value)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(broken)
    # Python's int() refuses integer literals of more than 4300 digits
    broken.write_text(json.dumps(BASE)[:-1] + ', "sweep": {"points": 1' + "0" * 5000 + "}}")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected an object"):
        load_config(listy)


# ---------------------------------------------------------------- output


def test_csv_roundtrip_is_exact(tmp_path):
    path = tmp_path / "t.csv"
    values = np.array([math.pi, 1e-300, -2.5e17, 0.1 + 0.2, math.nan])
    write_csv(path, {
        "x": values,
        "flag": [True, False, True, False, True],
        "label": ["a", "b", "c", "d", "e"],
    })
    back = read_csv(path)
    assert list(back) == ["x", "flag", "label"]
    np.testing.assert_array_equal(back["x"], values)  # repr round trip, NaN included
    np.testing.assert_array_equal(back["flag"], [1.0, 0.0, 1.0, 0.0, 1.0])
    assert back["label"] == ["a", "b", "c", "d", "e"]


def test_csv_rejects_embedded_separators(tmp_path):
    with pytest.raises(ValueError, match="separators"):
        write_csv(tmp_path / "t.csv", {"s": ["safe", "no,good"]})
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "t.csv", {"a": [1.0], "b": [1.0, 2.0]})


def test_write_csv_bytes_are_pinned(tmp_path):
    # captured from the writer that tested numpy types cell by cell: numpy
    # scalars and arrays write exactly as the Python values they hold
    a = np.array([0.5, -1.0, math.inf, 2.0])
    b = np.array([1.0, -1.0, 0.0, math.nan])
    path = tmp_path / "t.csv"
    write_csv(path, {
        "np_scalars": [np.bool_(True), np.int64(-7), np.float32(0.1), np.float64(math.pi)],
        "bool_array": np.array([True, False, True, False]),
        "int_array": np.array([0, -3, 2**40, 7]),
        "float_array": np.array([1e-300, -2.5e17, 0.1 + 0.2, -0.0]),
        "float32_array": np.array([0.1, 1.0 / 3.0, 1e30, -0.0], dtype=np.float32),
        "less": (a < b).astype(int),
        "py_scalars": [True, 3, 1.5, "label"],
        "non_finite": [math.nan, math.inf, -math.inf, np.float64(-math.inf)],
        "array_non_finite": np.array([math.nan, math.inf, -math.inf, 0.0]),
        "str_list": ["hyperbolic", "oscillatory", "", "hyperbolic"],
        "bool_list": [True, False, False, True],
    })
    assert path.read_text() == (
        "np_scalars,bool_array,int_array,float_array,float32_array,less,py_scalars,"
        "non_finite,array_non_finite,str_list,bool_list\n"
        "1,1,0,1e-300,0.10000000149011612,1,1,nan,nan,hyperbolic,1\n"
        "-7,0,-3,-2.5e+17,0.3333333432674408,0,3,inf,inf,oscillatory,0\n"
        "0.10000000149011612,1,1099511627776,0.30000000000000004,1.0000000150474662e+30,"
        "0,1.5,-inf,-inf,,0\n"
        "3.141592653589793,0,7,-0.0,-0.0,0,label,-inf,0.0,hyperbolic,1\n"
    )


# sha256 of the pinned chart, captured from the numpy-based writer
SVG_PINNED = {
    False: "03592a1fe456d3c37356b4284695a07c8776ce27ae9ff2ab9895488e1c5b1e43",
    True: "e4e7c954f9342fe2b86c5d009e340507ff492368c777486ac074e5886d071453",
}


@pytest.mark.parametrize("markers", [False, True])
@pytest.mark.parametrize("as_array", [False, True])
def test_svg_chart_bytes_are_pinned(tmp_path, markers, as_array):
    x = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    # leading and trailing NaN, a two-point run, a one-point run, a two-point run
    gapped = [math.nan, 1.0, 2.0, math.nan, 3.0, math.nan, -4.0, 5.0, math.nan]
    x_gap = [0.0, 0.5, math.nan, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    conv = np.array if as_array else list
    series = [
        ("gapped", x, gapped),
        ("all NaN", x, [math.nan] * 9),
        ("x < 2 & y", x_gap, [v * v - 1.0 for v in x]),
        ("", [1.0], [2.0]),
    ]
    path = tmp_path / "chart.svg"
    svg_line_chart(path, [(label, conv(xs), conv(ys)) for label, xs, ys in series],
                   title="gaps & <runs>", x_label="x", y_label="y", markers=markers)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SVG_PINNED[markers]


def test_svg_chart_is_wellformed(tmp_path):
    path = tmp_path / "chart.svg"
    x = np.linspace(0.0, 1.0, 30)
    gapped = np.sin(x * 6)
    gapped[10] = math.nan  # split into two polylines
    svg_line_chart(
        path,
        [("wave", x, gapped), ("dot", np.array([0.5]), np.array([0.2]))],
        title="demo",
        x_label="x",
        y_label="y",
        markers=True,
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert body.count("<polyline") >= 2  # the NaN split both sides
    assert "demo" in body and "wave" in body


def test_escape_matches_saxutils():
    from xml.sax.saxutils import escape

    from libration.output import _escape

    for text in ("", "plain", "a &amp; b", "<tag>", "x > y < z", "&&<<>>",
                 "'single' \"double\"", "Ω/2π ≈ 5 kHz & η < 1", "&lt;not&gt; twice"):
        assert _escape(text) == escape(text)


# ------------------------------------------------------------------- cli


def run_cli(args):
    return main([str(a) for a in args])


DERIVE_ROWS = [
    ("r_a", "m"), ("r_b", "m"), ("eccentricity", "1"), ("inertia", "kg m^2"),
    ("kappa_x", "1"), ("kappa_y", "1"), ("omega_t", "rad/s"), ("omega_t_over_2pi", "Hz"),
    ("period", "s"), ("eta", "rad/s"), ("eta_over_2pi", "Hz"), ("eta_over_omega_t", "1"),
    ("theta0", "rad"), ("J0", "J s"), ("gamma_b", "rad/s"), ("gamma_b_over_2pi", "Hz"),
    ("thermal_occupancy", "1"),
]
DERIVE_DRIVE_ROWS = [
    ("omega_ml", "rad/s"), ("omega_ml_over_2pi", "Hz"), ("delta_ml", "rad/s"),
    ("delta_ml_over_2pi", "Hz"), ("omega_c", "rad/s"), ("omega_c_over_2pi", "Hz"),
    ("bistable", "bool"), ("drive_amplitude", "rad/s"), ("drive_amplitude_over_2pi", "Hz"),
]


def test_cli_derive_report_and_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, with_sections(BASE, drive={"detuning_hz": 200.0,
                                                         "power_w": 1e-5}))
    out = tmp_path / "out"
    assert run_cli(["derive", "--config", cfg, "--out", out]) == 0
    report = capsys.readouterr().out
    assert "omega_t" in report and "eta" in report and "bistable" in report
    table = read_csv(out / "derive.csv")
    assert table["quantity"][:2] == ["r_a", "r_b"]
    by_name = dict(zip(table["quantity"], table["value"]))
    mode = mode_parameters(load_config(cfg).particle, load_config(cfg).trap)
    assert by_name["omega_t"] == mode.omega_t  # repr round trip is exact
    assert by_name["eta"] == mode.eta
    assert by_name["delta_ml"] == TWO_PI * 200.0
    assert by_name["drive_amplitude"] > 0.0
    assert table["quantity"] == [q for q, _ in DERIVE_ROWS + DERIVE_DRIVE_ROWS]
    assert table["unit"] == [u for _, u in DERIVE_ROWS + DERIVE_DRIVE_ROWS]
    for name in ("omega_t", "eta", "gamma_b", "omega_ml", "delta_ml", "omega_c",
                 "drive_amplitude"):
        assert by_name[f"{name}_over_2pi"] == by_name[name] / TWO_PI


def test_cli_derive_reports_a_zero_drive_power(tmp_path):
    # power_w 0 is a zero drive, as amplitude_* 0 is
    cfg = write_cfg(tmp_path, with_sections(BASE, drive={"detuning_hz": 200.0,
                                                         "power_w": 0.0}))
    assert run_cli(["derive", "--config", cfg, "--out", tmp_path / "out"]) == 0
    table = read_csv(tmp_path / "out" / "derive.csv")
    assert table["quantity"] == [q for q, _ in DERIVE_ROWS + DERIVE_DRIVE_ROWS]
    assert dict(zip(table["quantity"], table["value"]))["drive_amplitude"] == 0.0


def test_cli_derive_cold_mode_is_in_its_ground_state(tmp_path):
    # hbar omega_t / kB T ~ 1e8 overflows expm1: the occupancy is 0, not a traceback
    cold = copy.deepcopy(BASE)
    cold["environment"]["temperature_k"] = 1e-12
    out = tmp_path / "out"
    assert run_cli(["derive", "--config", write_cfg(tmp_path, cold), "--out", out]) == 0
    table = read_csv(out / "derive.csv")
    assert dict(zip(table["quantity"], table["value"]))["thermal_occupancy"] == 0.0


@pytest.mark.parametrize("command", ["derive", "bistability", "hysteresis", "squeeze"])
def test_cli_occupancy_beyond_float_range_is_a_config_error(tmp_path, capsys, command):
    # at 1e308 K hbar omega_t / kB T is subnormal and n_bar = 1/expm1 of it
    # overflows: a config error at load, not inf in derive.csv or, with
    # thermal: true, a traceback from the squeeze parameters
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / f"{command}.json").read_text())
    cfg["environment"]["temperature_k"] = 1e308
    if command == "squeeze":
        del cfg["squeeze"]["nbar"]
        cfg["squeeze"]["thermal"] = True
    out = tmp_path / "out"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at environment.temperature_k: ")
    assert "beyond float range" in err and "Traceback" not in err
    assert not out.exists()


def _from_drive(cfg):
    del cfg["squeeze"]["r"]
    cfg["squeeze"]["from_drive"] = True
    cfg["drive"]["amplitude_rad_s"] = 1e300


def _set(section, key, value):
    def edit(cfg):
        cfg[section][key] = value
    return edit


@pytest.mark.parametrize("command, edit, key", [
    ("bistability", _set("sweep", "amplitude_max_rad_s", 1e300), "sweep.amplitude_max_rad_s"),
    ("bistability", _set("environment", "gamma_b_rad_s", 1e300), "environment.gamma_b_rad_s"),
    ("bistability", _set("drive", "detuning_rad_s", 1e300), "drive.detuning_rad_s"),
    ("derive", lambda cfg: cfg.update(drive={"detuning_rad_s": 1e300}), "drive.detuning_rad_s"),
    ("squeeze", _from_drive, "drive.amplitude_rad_s"),
], ids=["sweep-amplitude", "gamma_b", "bistability-detuning", "derive-detuning",
        "squeeze-from-drive"])
def test_cli_steady_state_beyond_float_range_is_a_config_error(
    tmp_path, capsys, command, edit, key
):
    # squares of these rates overflowed in the steady-state solve (an
    # OverflowError traceback), or derive reported them with exit 0: now one
    # config error line at load that names the key
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / f"{command}.json").read_text())
    edit(cfg)
    out = tmp_path / "out"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error at {key}: ")
    assert "beyond float range" in err[0]
    assert not out.exists()


def test_cli_low_damping_root_counts_match_the_fold_window(tmp_path):
    # a narrow window just past the edge at gamma_b = 1e-3 rad/s: the drives
    # with three roots are exactly those strictly inside the reported folds
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / "bistability.json").read_text())
    cfg["environment"]["gamma_b_rad_s"] = 0.001
    cfg["drive"] = {"detuning_rad_s": -0.2553786715868009}
    cfg["sweep"] = {"amplitude_min_rad_s": 5.5008e-05, "amplitude_max_rad_s": 5.5009e-05,
                    "points": 201}
    out = tmp_path / "out"
    assert run_cli(["bistability", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    summary = read_csv(out / "bistability_summary.csv")
    lo, hi = summary["drive_down_fold_rad_s"][0], summary["drive_up_fold_rad_s"][0]
    table = read_csv(out / "bistability.csv")
    drives, counts = np.unique(table["omega_drive"], return_counts=True)
    inside = (lo < drives) & (drives < hi)
    assert 0 < inside.sum() < len(drives)
    assert list(counts) == [3 if k else 1 for k in inside]


@pytest.mark.parametrize("command", ["derive", "bistability"])
def test_cli_rejects_a_detuning_below_minus_omega_t(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        drive={"detuning_rad_s": -1e9},
        sweep={"amplitude_min_rad_s": 1.0e6, "amplitude_max_rad_s": 1.2e7, "points": 5},
    ))
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "detuning -1000000000.0 rad/s" in err and "omega_ml = " in err
    assert "Traceback" not in err


def test_cli_derive_svg_of_a_sub_ulp_scan_terminates(tmp_path):
    # a scan span of two ulp, three points one ulp apart, once left the SVG
    # tick loop stuck (more points would collide, a config error); a fresh
    # interpreter with a deadline
    cfg = write_cfg(tmp_path, with_sections(
        BASE, derive={"scan": "eccentricity", "min": 0.3, "max": 0.3000000000000001,
                      "points": 3},
    ))
    root = Path(libration.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "libration.cli", "derive", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--format", "csv+svg"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    ET.parse(tmp_path / "out" / "derive_scan.svg")


def test_cli_derive_scan_outputs(tmp_path):
    cfg = write_cfg(tmp_path, with_sections(
        BASE,
        derive={"scan": "r_a_m", "min": 3e-8, "max": 1e-7, "points": 7},
    ))
    out = tmp_path / "out"
    assert run_cli(["derive", "--config", cfg, "--out", out,
                    "--format", "csv+svg"]) == 0
    table = read_csv(out / "derive.csv")  # no drive section: no drive rows
    assert table["quantity"] == [q for q, _ in DERIVE_ROWS]
    assert table["unit"] == [u for _, u in DERIVE_ROWS]
    scan = read_csv(out / "derive_scan.csv")
    assert list(scan)[0] == "r_a_m"
    # stiffer but heavier rotor: both frequency and anharmonicity fall with size
    assert np.all(np.diff(scan["omega_t"]) < 0)
    assert np.all(np.diff(scan["eta"]) < 0)
    ET.parse(out / "derive_scan.svg")


BISTABILITY_HEADER = "omega_drive,n,delta_eff,stable,re_eig1,im_eig1,re_eig2,im_eig2"
FOLD_COLUMNS = ["drive_up_fold", "drive_down_fold", "delta_eff_up_fold", "delta_eff_down_fold"]
BISTABILITY_SUMMARY_HEADER = ",".join(
    ["regime"]
    + [f"{name}_{unit}" for name in ["omega_ml", "omega_c", "window_width", *FOLD_COLUMNS]
       for unit in ("rad_s", "hz")]
    + ["n_up_fold", "n_down_fold"]
)


def test_cli_bistability_run(tmp_path):
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        sweep={"amplitude_min_rad_s": 1.0e6, "amplitude_max_rad_s": 1.2e7,
               "points": 41},
    ))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["bistability", "--config", cfg, "--out", out1,
                    "--format", "csv+svg"]) == 0
    assert (out1 / "bistability.csv").read_text().splitlines()[0] == BISTABILITY_HEADER
    table = read_csv(out1 / "bistability.csv")
    assert np.any(table["stable"] == 0.0) and np.any(table["stable"] == 1.0)
    summary_text = (out1 / "bistability_summary.csv").read_text()
    assert summary_text.splitlines()[0] == BISTABILITY_SUMMARY_HEADER
    summary = read_csv(out1 / "bistability_summary.csv")
    assert summary["regime"] == ["bistable"]
    for name in ("omega_ml", "omega_c", "window_width", *FOLD_COLUMNS):
        assert summary[f"{name}_hz"][0] == summary[f"{name}_rad_s"][0] / TWO_PI
    mode = mode_parameters(load_config(cfg).particle, load_config(cfg).trap)
    gamma_b = 1.3332236842105263 * DEFAULT_DAMPING_PER_PASCAL
    delta = -34283.6799057411
    omega_c = delta + mode.omega_t - (mode.omega_t - 12.0 * mode.eta
                                      - math.sqrt(3.0) * gamma_b / 2.0)
    tp = turning_points(omega_c, mode.eta, gamma_b)
    assert summary["drive_up_fold_rad_s"][0] == pytest.approx(tp.drive_low, rel=1e-12)
    assert summary["drive_down_fold_rad_s"][0] == pytest.approx(tp.drive_high, rel=1e-12)
    ET.parse(out1 / "bistability.svg")
    # byte-identical on rerun
    assert run_cli(["bistability", "--config", cfg, "--out", out2,
                    "--format", "csv+svg"]) == 0
    for name in ("bistability.csv", "bistability_summary.csv", "bistability.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_bistability_monostable_has_nan_folds(tmp_path):
    # blue detuning: one branch everywhere, so there are no folds to report
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        drive={"detuning_rad_s": 34283.6799057411},
        sweep={"amplitude_min_rad_s": 1.0e6, "amplitude_max_rad_s": 1.2e7,
               "points": 21},
    ))
    out = tmp_path / "out"
    assert run_cli(["bistability", "--config", cfg, "--out", out]) == 0
    assert (out / "bistability_summary.csv").read_text().splitlines()[0] == (
        BISTABILITY_SUMMARY_HEADER
    )
    summary = read_csv(out / "bistability_summary.csv")
    assert summary["regime"] == ["monostable"]
    for name in FOLD_COLUMNS:
        assert math.isnan(summary[f"{name}_rad_s"][0])
        assert math.isnan(summary[f"{name}_hz"][0])
    assert math.isnan(summary["n_up_fold"][0]) and math.isnan(summary["n_down_fold"][0])
    assert math.isfinite(summary["omega_c_hz"][0])


HYSTERESIS_HEADER = "t,re_beta,im_beta,n,omega_applied"
JUMP_COLUMNS = ["jump_drive_rad_s", "jump_drive_hz", "jump_delta_eff_rad_s",
                "jump_delta_eff_hz", "jump_n_before", "jump_n_after"]
HYSTERESIS_SUMMARY_HEADER = ",".join(
    ["direction", "jump_detected", *JUMP_COLUMNS,
     "static_fold_drive_rad_s", "static_fold_delta_eff_rad_s", "loop_area"]
)


def test_cli_hysteresis_run(tmp_path):
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        ramp={"amplitude_start_rad_s": 2.35e6, "amplitude_stop_rad_s": 1.08e7,
              "steps": 48},
    ))
    out = tmp_path / "out"
    assert run_cli(["hysteresis", "--config", cfg, "--out", out,
                    "--format", "csv+svg"]) == 0
    for name in ("hysteresis_up.csv", "hysteresis_down.csv"):
        assert (out / name).read_text().splitlines()[0] == HYSTERESIS_HEADER
    assert (out / "hysteresis_summary.csv").read_text().splitlines()[0] == (
        HYSTERESIS_SUMMARY_HEADER
    )
    summary = read_csv(out / "hysteresis_summary.csv")
    assert summary["direction"] == ["up", "down"]
    assert list(summary["jump_detected"]) == [1.0, 1.0]
    np.testing.assert_array_equal(summary["jump_drive_hz"], summary["jump_drive_rad_s"] / TWO_PI)
    # jumps land near the static folds even on this coarse ramp
    assert summary["jump_drive_rad_s"][0] == pytest.approx(
        summary["static_fold_drive_rad_s"][0], rel=0.05
    )
    assert summary["jump_drive_rad_s"][1] == pytest.approx(
        summary["static_fold_drive_rad_s"][1], rel=0.05
    )
    assert summary["loop_area"][0] > 0.0
    # the jump's effective detuning is that of the last plateau before it
    run = load_config(cfg)
    for delta_eff, n_before in zip(summary["jump_delta_eff_rad_s"], summary["jump_n_before"]):
        assert delta_eff == run.drive.delta_ml + 24.0 * run.mode.eta * n_before
    ET.parse(out / "hysteresis.svg")


def test_cli_hysteresis_reports_an_unstartable_plateau(tmp_path, capsys):
    # at a drive of 1e300 rad/s the initial-step estimate of a plateau
    # underflows to zero: a numerical failure, not a ZeroDivisionError
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        ramp={"amplitude_start_rad_s": 2.35e6, "amplitude_stop_rad_s": 1e300, "steps": 3},
    ))
    assert run_cli(["hysteresis", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "up-sweep integration failed" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", [1e290, 1e300])
def test_cli_hysteresis_loose_tolerance_is_a_numerical_failure(tmp_path, capsys, tolerance):
    # an error scale beyond float range: exit 2 with one line, not a traceback
    root = Path(libration.__file__).resolve().parents[2]
    payload = json.loads((root / "configs" / "hysteresis.json").read_text())
    payload["ramp"]["tolerance"] = tolerance
    cfg = write_cfg(tmp_path, payload)
    assert run_cli(["hysteresis", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "numerical failure: up-sweep integration failed\n"


def test_cli_hysteresis_short_dwell_warns_without_a_path(tmp_path):
    # a dwell far below the damping time: one path-free warning line per run
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        ramp={"amplitude_start_rad_s": 2.35e6, "amplitude_stop_rad_s": 1.08e7,
              "steps": 6, "dwell_s": 1e-4},
    ))
    root = Path(libration.__file__).resolve().parents[2]
    argv = ["hysteresis", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = f"import sys; from libration.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert out.returncode == 0
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: dwell*gamma_b = ")
    assert "not quasi-static" in lines[0]
    assert ".py" not in out.stderr and str(root) not in out.stderr


@pytest.mark.parametrize("change", [
    {"ramp": {"dwell_s": 1e3}},
    {"drive": {"detuning_rad_s": 1e10}},
    {"ramp": {"dwell_s": 1e300}, "drive": {"detuning_rad_s": 1e10}},
], ids=["dwell 1e3 s", "detuning 1e10 rad/s", "both, dwell 1e300 s"])
def test_cli_hysteresis_work_is_bounded_by_settling(tmp_path, change):
    # a damped plateau's work ends once the state has settled enough for the
    # closed form, however long the dwell or fast the rotation
    root = Path(libration.__file__).resolve().parents[2]
    payload = json.loads((root / "configs" / "hysteresis.json").read_text())
    payload["ramp"]["steps"] = 3
    for section, values in change.items():
        payload[section].update(values)
    cfg = write_cfg(tmp_path, payload)
    argv = ["hysteresis", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = f"import sys; from libration.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert out.returncode == 0, out.stderr
    for name in ("hysteresis_up.csv", "hysteresis_down.csv"):
        table = read_csv(tmp_path / "out" / name)
        assert len(table["n"]) == 3
        for column in ("re_beta", "im_beta", "n"):
            assert np.isfinite(table[column]).all()


def test_cli_hysteresis_blue_detuned_has_no_jumps(tmp_path):
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        drive={"detuning_rad_s": 34283.6799057411},
        ramp={"amplitude_start_rad_s": 2.35e6, "amplitude_stop_rad_s": 1.08e7,
              "steps": 12},
    ))
    out = tmp_path / "out"
    assert run_cli(["hysteresis", "--config", cfg, "--out", out]) == 0
    assert (out / "hysteresis_summary.csv").read_text().splitlines()[0] == (
        HYSTERESIS_SUMMARY_HEADER
    )
    summary = read_csv(out / "hysteresis_summary.csv")
    assert summary["direction"] == ["up", "down"]
    assert list(summary["jump_detected"]) == [0.0, 0.0]
    for name in JUMP_COLUMNS + ["static_fold_drive_rad_s", "static_fold_delta_eff_rad_s"]:
        assert np.all(np.isnan(summary[name])), name


SQUEEZE_HEADER = "t,S_theta,S_J,squeezed_theta,squeezed_J,regime"


def test_cli_squeeze_run(tmp_path):
    cfg = write_cfg(tmp_path, with_sections(
        BASE,
        drive={"detuning_hz": 200.0},
        squeeze={"r": 40.0, "phi_rad": [math.pi, math.pi / 2.0],
                 "t_max_s": 2.5e-3, "points": 140},
    ))
    out = tmp_path / "out"
    assert run_cli(["squeeze", "--config", cfg, "--out", out,
                    "--format", "csv+svg"]) == 0
    closed0 = read_csv(out / "squeeze_closed_0.csv")
    oracle0 = read_csv(out / "squeeze_oracle_0.csv")
    assert (out / "squeeze_closed_0.csv").read_text().splitlines()[0] == SQUEEZE_HEADER
    assert closed0["regime"][0] == "oscillatory"
    assert np.max(np.abs(closed0["S_theta"] - oracle0["S_theta"])) < 1e-8
    # phi = pi squeezes the angle, the quarter-turn phase does not
    assert np.any(closed0["squeezed_theta"] == 1.0)
    assert not np.any(closed0["squeezed_J"] == 1.0)
    closed1 = read_csv(out / "squeeze_closed_1.csv")
    assert not np.any(closed1["squeezed_theta"] == 1.0)
    assert np.any(closed1["squeezed_J"] == 1.0)
    ET.parse(out / "squeeze.svg")


def test_cli_squeeze_warns_on_an_aliased_grid(tmp_path, capsys):
    # samples 1.7e3 s apart cannot follow a ~2 ms breathing period
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / "squeeze.json").read_text())
    cfg["squeeze"]["t_max_s"] = 1e6
    assert run_cli(["squeeze", "--config", write_cfg(tmp_path, cfg),
                    "--out", tmp_path / "out"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: the grid step 1669.449082 s exceeds a quarter")
    assert err[0].endswith("s: aliased traces")
    # a hyperbolic trace has no breathing period to alias, however coarse the grid
    cfg["drive"] = {"detuning_rad_s": -157.0}
    cfg["squeeze"].update({"t_max_s": 1.0, "points": 3})
    assert run_cli(["squeeze", "--config", write_cfg(tmp_path, cfg),
                    "--out", tmp_path / "out2"]) == 0
    captured = capsys.readouterr()
    assert "regime hyperbolic" in captured.out and captured.err == ""


def test_cli_squeeze_damped_below_threshold_matches_mpmath(tmp_path):
    # a strongly non-normal moment matrix (entries ~2 xi = 2e3 rad/s, eigenvalues
    # within gamma_b = 1 rad/s) below threshold, 2 lam_p = 0.7 gamma_b
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / "squeeze.json").read_text())
    cfg["environment"]["gamma_b_rad_s"] = 1
    cfg["drive"] = {"detuning_rad_s": -3000}
    cfg["squeeze"].update({"r": 135.0539118978372, "phi_rad": [0.7], "t_max_s": 10,
                           "points": 50, "include_damping": True})
    path = write_cfg(tmp_path, cfg)
    assert run_cli(["squeeze", "--config", path, "--out", tmp_path / "out"]) == 0
    table = read_csv(tmp_path / "out" / "squeeze_oracle.csv")
    s_theta, s_j = table["S_theta"], table["S_J"]
    assert len(s_theta) == 50
    assert np.all(s_theta > 0.0) and np.all(s_j > 0.0)
    assert np.all(s_theta * s_j >= 1.0 / 16.0)
    loaded = load_config(path)
    p = squeeze_params(loaded.drive.delta_ml, loaded.mode.eta, 135.0539118978372, 0.7)
    assert 2.0 * p.lambda_p.real == pytest.approx(0.7, rel=1e-6)
    ref_theta, ref_j = moment_mpmath(p, table["t"], gamma_b=1.0, nbar_bath=0.0)
    np.testing.assert_allclose(s_theta, ref_theta, rtol=1e-8, atol=0)
    np.testing.assert_allclose(s_j, ref_j, rtol=1e-8, atol=0)


def test_cli_squeeze_from_drive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        drive={**WINDOW["drive"], "amplitude_rad_s": 6.0e6},
        squeeze={"from_drive": True, "t_max_s": 1e-3, "points": 80,
                 "include_damping": True, "branch": "upper"},
    ))
    out = tmp_path / "out"
    assert run_cli(["squeeze", "--config", cfg, "--out", out]) == 0
    assert "r = " in capsys.readouterr().out
    closed = read_csv(out / "squeeze_closed.csv")  # single phi: no suffix
    oracle = read_csv(out / "squeeze_oracle.csv")
    # the reference trace includes gas damping here, the closed form never does
    assert np.max(np.abs(closed["S_theta"] - oracle["S_theta"])) > 1e-6


def test_cli_squeeze_thermal_occupation(tmp_path, capsys):
    # thermal: true starts the traces, and damps the oracle, at the mode's
    # Bose-Einstein occupancy at temperature_k
    cfg = write_cfg(tmp_path, with_sections(
        BASE,
        drive={"detuning_hz": 200.0},
        squeeze={"r": 40.0, "phi_rad": math.pi, "t_max_s": 1e-3, "points": 50,
                 "thermal": True},
    ))
    out = tmp_path / "out"
    assert run_cli(["squeeze", "--config", cfg, "--out", out]) == 0
    loaded = load_config(cfg)
    nbar = thermal_occupancy(300.0, mode_parameters(loaded.particle, loaded.trap).omega_t)
    assert nbar > 1e6  # room temperature
    assert f", nbar = {nbar:.10g}, " in capsys.readouterr().out.splitlines()[-1]
    for name in ("squeeze_closed.csv", "squeeze_oracle.csv"):
        assert read_csv(out / name)["S_theta"][0] == pytest.approx((2.0 * nbar + 1.0) / 4.0,
                                                                    rel=1e-12)


def test_cli_squeeze_from_a_zero_drive_power(tmp_path, capsys):
    # from_drive with power_w 0 squeezes about r = 0, exactly as amplitude_rad_s 0
    squeeze = {"from_drive": True, "t_max_s": 1e-3, "points": 80}
    for name, strength in (("power", {"power_w": 0.0}), ("amplitude", {"amplitude_rad_s": 0.0})):
        cfg = write_cfg(tmp_path, with_sections(
            WINDOW, drive={**WINDOW["drive"], **strength}, squeeze=squeeze), f"{name}.json")
        assert run_cli(["squeeze", "--config", cfg, "--out", tmp_path / name]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("r = 0, ")
    for csv in ("squeeze_closed.csv", "squeeze_oracle.csv"):
        power, amplitude = (tmp_path / name / csv for name in ("power", "amplitude"))
        assert power.read_bytes() == amplitude.read_bytes()


def shipped_squeeze():
    root = Path(libration.__file__).resolve().parents[2]
    return json.loads((root / "configs" / "squeeze.json").read_text())


def test_cli_squeeze_r_beyond_float_range_is_a_config_error(tmp_path, capsys):
    # an r whose lam = delta_ml + 24 eta r^2 overflows is rejected at load
    cfg = shipped_squeeze()
    cfg["squeeze"]["r"] = 1e160
    out = tmp_path / "out"
    assert run_cli(["squeeze", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at squeeze: r = 1e+160 ")
    assert "beyond float range" in err and "Traceback" not in err
    assert list(out.glob("squeeze_*")) == []


@pytest.mark.parametrize("damped", [False, True], ids=["undamped", "damped"])
def test_cli_squeeze_overflow_fails_before_any_write(tmp_path, damped):
    # lam = 0 puts lam_p = xi ~ 87.7 rad/s: the undamped trace overflows within
    # t_max_s, damped or not, so the run fails with one line and no squeeze_* file
    cfg = shipped_squeeze()
    cfg["drive"] = {"detuning_rad_s": -175.44284072173244}
    cfg["squeeze"]["t_max_s"] = 10
    if damped:
        cfg["environment"]["gamma_b_rad_s"] = 200
        cfg["squeeze"].update({"include_damping": True, "phi_rad": [0.3]})
    root = Path(libration.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = tmp_path / "out"
    argv = ["squeeze", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-c", f"import sys; from libration.cli import main; "
                               f"sys.exit(main({argv!r}))"],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 2
    assert run.stderr == "numerical failure: moment propagation overflowed\n"
    assert list(out.glob("squeeze_*")) == []


@pytest.mark.parametrize("include_damping, calls", [(False, 3), (True, 6)])
def test_cli_squeeze_evaluates_each_trace_once(tmp_path, monkeypatch, include_damping, calls):
    # one variance evaluation and one formatted table per phase behind both
    # CSVs, and one more of each per phase for the damped oracle
    def counting(module, name):
        original, seen = getattr(module, name), []

        def counted(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return seen

    evaluated = counting(libration.squeezing, "_variances")
    written = counting(cli, "write_csv")
    cfg = shipped_squeeze()
    cfg["squeeze"]["include_damping"] = include_damping
    out = tmp_path / "out"
    assert run_cli(["squeeze", "--config", write_cfg(tmp_path, cfg),
                    "--out", out, "--format", "csv+svg"]) == 0
    assert len(evaluated) == calls
    assert len(written) == calls
    if not include_damping:  # each oracle file is a copy of its closed file
        for idx in range(3):
            closed = (out / f"squeeze_closed_{idx}.csv").read_bytes()
            assert (out / f"squeeze_oracle_{idx}.csv").read_bytes() == closed


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli(["derive", "--config", tmp_path / "missing.json"]) == 1
    assert "not found" in capsys.readouterr().err

    unknown = write_cfg(tmp_path, with_sections(BASE, bogus={}), "unknown.json")
    assert run_cli(["derive", "--config", unknown]) == 1

    sphere_cfg = with_sections(BASE)
    sphere_cfg["particle"] = {"material": "diamond", "r_a_m": 5e-8, "eccentricity": 0.0}
    sphere = write_cfg(tmp_path, sphere_cfg, "sphere.json")
    assert run_cli(["derive", "--config", sphere, "--out", tmp_path / "s"]) == 2
    assert "numerical failure" in capsys.readouterr().err

    no_sweep = write_cfg(tmp_path, WINDOW, "nosweep.json")
    assert run_cli(["bistability", "--config", no_sweep]) == 1
    assert "needs a 'sweep' section" in capsys.readouterr().err

    undamped = with_sections(
        WINDOW,
        ramp={"amplitude_start_rad_s": 1e6, "amplitude_stop_rad_s": 2e6, "steps": 5},
    )
    undamped["environment"] = {"pressure_pa": 0.0, "temperature_k": 300.0}
    free = write_cfg(tmp_path, undamped, "free.json")
    assert run_cli(["hysteresis", "--config", free]) == 1
    assert "dwell_s" in capsys.readouterr().err


@pytest.mark.parametrize("target, strerror", [("file/sub", "Not a directory"),
                                              ("file", "File exists")])
def test_cli_unusable_out_is_a_config_error(tmp_path, capsys, target, strerror):
    # an --out below a regular file, or that is one: exit 1 with one line
    (tmp_path / "file").write_text("")
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / target
    assert run_cli(["derive", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: cannot write {out} ({strerror})\n"


def test_cli_names_the_resonance_error(tmp_path, capsys):
    # undamped drive points whose root sits on the resonance exit 2 and say why
    cfg = with_sections(
        WINDOW,
        drive={"detuning_rad_s": -1.42e5},
        sweep={"amplitude_min_rad_s": 0.05, "amplitude_max_rad_s": 5.0, "points": 5},
    )
    cfg["environment"] = {"pressure_pa": 0.0, "temperature_k": 300.0}
    path = write_cfg(tmp_path, cfg)
    assert run_cli(["bistability", "--config", path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ResonanceError: ")
    assert "gamma_b=0.0" in err


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    # exit 2 is kept for numerical failures; a bad command line is a config error
    cfg = write_cfg(tmp_path, BASE)
    for args, message in (
        (["derive"], "--config"),
        (["derive", "--config", cfg, "--bogus"], "unrecognized arguments"),
        (["derive", "--config", cfg, "--seed", "3"], "unrecognized arguments"),
        (["nonsense", "--config", cfg], "invalid choice"),
    ):
        assert run_cli(args) == 1, args
        assert message in capsys.readouterr().err
    for args in (["--help"], ["--version"], ["derive", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 0
    assert libration.__version__ in capsys.readouterr().out


# tokens of command lines: the commands, the options, and what argparse reads
# otherwise (an inline value, an abbreviation, help, the end of options, an
# empty value, values starting with "-", and format values)
ARGV_TOKENS = ["derive", "bistability", "hysteresis", "squeeze", "--config", "--out", "--format",
               "--config=x", "--conf", "-h", "--", "", "-", "-1", "pdf", "csv+svg", "csv", "x"]
# any run of tokens, or a command and option-value pairs, the lines main may
# read itself, now and then with one token more
COMMAND_LINES = st.lists(st.sampled_from(ARGV_TOKENS), max_size=8) | st.builds(
    lambda command, pairs, tail: [command, *(token for pair in pairs for token in pair), *tail],
    st.sampled_from(["derive", "bistability", "hysteresis", "squeeze"]),
    st.lists(st.tuples(st.sampled_from(["--config", "--out", "--format"]),
                       st.sampled_from(["x", "", "csv", "csv+svg"]) | st.sampled_from(ARGV_TOKENS)),
             min_size=1, max_size=4),
    st.just([]) | st.lists(st.sampled_from(ARGV_TOKENS), max_size=1),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=COMMAND_LINES)
@example(argv=["squeeze", "--config", "c.json", "--out", "o", "--format", "csv+svg"])
@example(argv=["derive", "--config", "a", "--format", "csv+svg", "--config", "", "--format", "csv"])
@example(argv=["derive", "--config", "x", "--format", "x", "--format", "csv"])
def test_cli_plain_command_lines_parse_as_argparse(argv):
    # wherever main reads a line itself, argparse reads the same values from it
    plain = cli._plain_args(argv)
    if plain is not None:
        args = cli.build_parser().parse_args(argv)
        assert plain == (args.command, args.config, args.out, args.format)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cli_rejects_non_finite_detuning(tmp_path, capsys, value):
    # json.dumps writes NaN / Infinity, which Python's JSON reader accepts
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        drive={"detuning_rad_s": value},
        sweep={"amplitude_min_rad_s": 1.0e6, "amplitude_max_rad_s": 1.2e7, "points": 5},
    ))
    out = tmp_path / "out"
    assert run_cli(["bistability", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "drive.detuning_rad_s" in err and "finite" in err
    assert "Traceback" not in err
    assert not (out / "bistability_summary.csv").exists()


@pytest.mark.parametrize("command, section, key", [
    ("hysteresis", "ramp", "steps"),
    ("bistability", "sweep", "points"),
    ("derive", "derive", "points"),
    ("squeeze", "squeeze", "points"),
])
def test_cli_rejects_counts_beyond_float_range(tmp_path, capsys, command, section, key):
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / f"{command}.json").read_text())
    cfg[section][key] = 10**400
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {section}.{key}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, section, key", [
    ("bistability", "environment", "gamma_b"),
    ("bistability", "sweep", "amplitude_max"),
    ("squeeze", "drive", "detuning"),
])
def test_cli_rejects_hz_values_beyond_float_range(tmp_path, capsys, command, section, key):
    # 1e308 Hz is a finite number, but 2 pi times it is not
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / f"{command}.json").read_text())
    cfg[section].pop(f"{key}_rad_s", None)
    cfg[section][f"{key}_hz"] = 1e308
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {section}.{key}_hz: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["derive", "squeeze"])
def test_cli_rejects_a_drive_power_whose_amplitude_overflows(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, with_sections(
        WINDOW,
        drive={**WINDOW["drive"], "power_w": 1e308},
        squeeze={"from_drive": True, "t_max_s": 1e-3, "points": 80},
    ))
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at drive: ") and "power_w" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, section, bad", [
    ("derive", "drive", {"power_w": 1e-5}),
    ("bistability", "sweep", {"points": 5}),
    ("squeeze", "squeeze", {"r": 1.0}),
])
def test_cli_sphere_reports_config_errors_first(tmp_path, capsys, command, section, bad):
    # a sphere has no librational mode (exit 2), but only once every
    # section is valid: an invalid one is a config error (exit 1)
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / f"{command}.json").read_text())
    cfg["particle"] = {"material": "diamond", "r_a_m": 5e-8, "eccentricity": 0.0}
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"]) == 2
    assert "no librational confinement" in capsys.readouterr().err
    cfg[section] = bad
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err.startswith(f"config error at {section}")


@pytest.mark.parametrize("command", ["derive", "bistability", "hysteresis", "squeeze"])
def test_cli_undamped_ramp_without_dwell_fails_at_load(tmp_path, capsys, command):
    # no damping time sets the default dwell: every command stops at load,
    # before it creates the output directory
    cfg = with_sections(
        WINDOW,
        ramp={"amplitude_start_rad_s": 1e6, "amplitude_stop_rad_s": 2e6, "steps": 5},
        sweep={"amplitude_min_rad_s": 1e6, "amplitude_max_rad_s": 2e6, "points": 5},
        squeeze={"r": 40.0, "phi_rad": 0.5, "t_max_s": 1e-3, "points": 50},
    )
    cfg["environment"] = {"pressure_pa": 0.0, "temperature_k": 300.0}
    out = tmp_path / "out"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 1
    assert capsys.readouterr().err == (
        "config error: ramp.dwell_s is required when gamma_b is zero "
        "(no damping time to set the quasi-static dwell)\n"
    )
    assert not out.exists()


SWEEP_COLLISION = ("sweep", "bistability",
                   {"amplitude_min_rad_s": 1.0, "amplitude_max_rad_s": 1.0000000000000002,
                    "points": 5},
                   "amplitude_min_*, amplitude_max_* and points")
SQUEEZE_COLLISION = ("squeeze", "squeeze", {"t_max_s": 5e-324, "points": 10},
                     "t_max_s and points")
SCAN_COLLISION = ("derive", "derive",
                  {"scan": "eccentricity", "min": 0.5, "max": 0.5000000000000002, "points": 5},
                  "min, max and points")
RAMP_COLLISION = ("ramp", "hysteresis",
                  {"amplitude_start_rad_s": 2.35e6, "amplitude_stop_rad_s": 2.3500000000000005e6,
                   "steps": 5},
                  "amplitude_start_*, amplitude_stop_* and steps")


@pytest.mark.parametrize("command, section, config, grid, keys", [
    ("bistability", *SWEEP_COLLISION),
    ("squeeze", *SQUEEZE_COLLISION),
    ("derive", *SWEEP_COLLISION),
    ("derive", *SQUEEZE_COLLISION),
    ("derive", *SCAN_COLLISION),
    ("hysteresis", *RAMP_COLLISION),
], ids=["bistability", "squeeze", "derive-sweep", "derive-squeeze", "derive-scan",
        "hysteresis-ramp"])
def test_cli_rejects_colliding_grid_points(tmp_path, capsys, command, section, config, grid,
                                           keys):
    # a span too narrow for the point count rounds neighbouring points
    # together; the grids are built at load, so a command that samples
    # neither, as derive does, rejects them too, before it creates --out
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / f"{config}.json").read_text())
    cfg[section].update(grid)
    out = tmp_path / "o"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error at {section}: {keys} give a grid whose points collide; "
                   "widen the span or use fewer points\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["derive", "squeeze"])
def test_cli_from_drive_without_an_amplitude_fails_at_load(tmp_path, capsys, command):
    # squeeze.from_drive solves the steady state at the drive amplitude, so a
    # drive without one is a config error of every command, before --out
    root = Path(libration.__file__).resolve().parents[2]
    cfg = json.loads((root / "configs" / "squeeze.json").read_text())
    del cfg["squeeze"]["r"]
    cfg["squeeze"]["from_drive"] = True
    out = tmp_path / "o"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 1
    assert capsys.readouterr().err == (
        "config error: squeeze.from_drive needs a drive amplitude "
        "('power_w' or 'amplitude_*') in the drive section\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("section, values", [
    ("trap", {"trap": {"power_w": 0.1, "waist_m": 1e200}}),  # waist**2 overflows
    ("particle", {"particle": {"material": "diamond", "r_a_m": 1e-120, "r_b_m": 5e-121}}),
    ("trap", {"trap": {"power_w": 1e308, "waist_m": 1e-30}}),  # omega_t = inf
], ids=["wide-waist", "tiny-particle", "huge-power"])
def test_cli_rejects_a_mode_beyond_float_range(tmp_path, capsys, section, values):
    root = Path(libration.__file__).resolve().parents[2]
    cfg = {**json.loads((root / "configs" / "derive.json").read_text()), **values}
    assert run_cli(["derive", "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {section}: ") and "beyond float range" in err
    assert "Traceback" not in err


def test_non_finite_numbers_rejected_everywhere(tmp_path):
    for section, key in (("trap", "power_w"), ("environment", "temperature_k")):
        for value in (math.nan, -math.inf, 10**400):
            bad = copy.deepcopy(BASE)
            bad[section][key] = value
            with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
                load_config(write_cfg(tmp_path, bad))
    bad = with_sections(BASE, drive={"detuning_hz": 200.0},
                        squeeze={"r": 40.0, "phi_rad": [0.0, math.nan], "t_max_s": 1e-3})
    with pytest.raises(ConfigError, match=r"squeeze\.phi_rad"):
        load_config(write_cfg(tmp_path, bad))


# modules each command must not load (beyond these, none loads scipy, the
# modules xml.sax.saxutils pulls in, as the SVG writer escapes text itself,
# dataclasses and the inspect it imports: the records are NamedTuples, or
# argparse and its gettext and locale: main reads a plain command line itself)
NEVER_LOADED = ("scipy", "xml", "email", "http.client", "urllib.request", "dataclasses",
                "inspect", "argparse", "gettext", "locale")
NOT_LOADED_BY = {
    "derive": ("numpy", "libration.dynamics", "libration.squeezing"),
    "bistability": ("numpy", "libration.dynamics", "libration.squeezing"),
    "hysteresis": ("numpy", "libration.squeezing"),
    "squeeze": ("numpy", "libration.dynamics"),
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED_BY))
def test_cli_import_footprint(tmp_path, command):
    # each command imports only the layers it uses; a shipped-config run
    # with every artifact, in a fresh interpreter
    root = Path(libration.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [command, "--config", str(root / "configs" / f"{command}.json"),
            "--out", str(tmp_path), "--format", "csv+svg"]
    banned = NEVER_LOADED + NOT_LOADED_BY[command]
    code = (f"import sys; from libration.cli import main; code = main({argv!r}); "
            f"print(code, [m for m in {banned!r} if m in sys.modules], file=sys.stderr)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    assert out.stderr.strip() == "0 []"
    if command == "squeeze":  # the moment oracle ran too, for each of the three phases
        assert (tmp_path / "squeeze_oracle_2.csv").exists()


def test_cli_squeeze_run_loads_no_scipy(tmp_path):
    # a CSV-only squeeze run, moment oracle included, stays free of scipy too
    root = Path(libration.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["squeeze", "--config", str(root / "configs" / "squeeze.json"),
            "--out", str(tmp_path), "--format", "csv"]
    code = (f"import sys; from libration.cli import main; code = main({argv!r}); "
            "print(code, 'scipy' in sys.modules, file=sys.stderr)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    assert out.stderr.strip() == "0 False"
    assert (tmp_path / "squeeze_oracle_2.csv").exists()


PACKAGE_MODULES = ["libration"] + [
    f"libration.{m.name}" for m in pkgutil.iter_modules(libration.__path__)
]


def _loaded_by_import(module: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` importing ``module`` loads, in a fresh interpreter."""
    root = Path(libration.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = (f"import json, sys, {module}; "
            f"print(json.dumps([m for m in {names!r} if m in sys.modules]))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_package_imports_no_numpy(module):
    # no module loads numpy on import: squeezing's array API loads it when called
    assert _loaded_by_import(module, ("numpy",)) == []


@pytest.mark.parametrize("module", [m for m in PACKAGE_MODULES if m != "libration.cli"])
def test_public_names_resolve(module):
    # every name a module exports exists; the package's names are its
    # re-exports, each of which must be the object of the module it names
    # (cli is the entry point and exports none)
    mod = importlib.import_module(module)
    names = list(getattr(mod, "__all__", ()))
    if module == "libration":
        tree = ast.parse(Path(mod.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = importlib.import_module(node.module)
                for alias in node.names:
                    assert getattr(mod, alias.name) is getattr(source, alias.name), alias.name
                    names.append(alias.name)
    assert names
    assert [name for name in names if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", [m for m in PACKAGE_MODULES if m != "libration"])
def test_no_unused_imports(module):
    # every name a module imports is read somewhere in it, or exported by
    # __all__ (the package's own imports are its re-exports, held to their
    # sources by test_public_names_resolve)
    mod = importlib.import_module(module)
    tree = ast.parse(Path(mod.__file__).read_text())
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(mod, "__all__", ()))
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_only_squeezing_imports_numpy():
    # numpy is imported, at any depth of a file, by squeezing alone: the other
    # modules, the commands' own imports included, reach arrays through it;
    # and every such import sits in a function body, none at module level
    importers, outside_functions = set(), []
    for module in PACKAGE_MODULES:
        path = Path(importlib.import_module(module).__file__)
        tree = ast.parse(path.read_text())
        in_functions = {id(inner) for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(f"{path.parent.name}/{path.name}")
                if id(node) not in in_functions:
                    outside_functions.append(f"{path.name}:{node.lineno}")
    assert importers == {"libration/squeezing.py"}
    assert outside_functions == []


def _imports_of(top: str) -> list[str]:
    """``file:line`` of each import of the module ``top``, at any depth of a
    file, across the package."""
    importers = []
    for module in PACKAGE_MODULES:
        path = Path(importlib.import_module(module).__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == top for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    return importers


def test_no_module_imports_warnings():
    # a run's warnings are printed by the CLI, each once, as one "warning:"
    # line on stderr: no module raises them through the warnings machinery
    assert _imports_of("warnings") == []


def test_no_module_imports_dataclasses():
    # the records are NamedTuples: dataclasses, with the inspect, ast and
    # tokenize it imports, would be a third of a cold import of the package
    assert _imports_of("dataclasses") == []


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_package_imports_no_scipy(module):
    # scipy is a test-only dependency: no module of the package may load it
    assert _loaded_by_import(module, ("scipy",)) == []


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    lo=st.one_of(st.just(0.0), st.floats(0.0, 1e12)),
    span=st.floats(5e-324, 1e12),
    n=st.integers(2, 2000),
)
@example(lo=0.0, span=5e-324, n=2000)  # step underflows to 0: numpy's other branch
@example(lo=0.0, span=1e-310, n=7)
@example(lo=1e6, span=1.1e7, n=241)
def test_linspace_is_numpy_linspace(lo, span, n):
    hi = lo + span
    if not hi > lo:
        return
    assert [v.hex() for v in _linspace(lo, hi, n)] == [
        v.hex() for v in np.linspace(lo, hi, n).tolist()
    ]
