"""Tests drawn from ``config._SECTIONS``, the one list of every section's keys.

* A fuzzer edits up to three keys of a config with all eight sections, or
  deletes keys or whole sections, and runs ``load_config``: only a
  ``ConfigError`` or a ``NoConfinementError`` may escape.
* Every key, set to a value of the wrong JSON type, fails a ``main`` run with
  exit 1 and a message that names the key's dotted path.
* Every key with a lower bound, set to that bound, fails to load if and only
  if the key is one whose zero means nothing.
* README's "Config format" section names every key of the table, and its
  config block has exactly the table's sections.
"""

import copy
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import libration
from libration.cli import main
from libration.config import _SECTIONS, ConfigError, load_config
from libration.model import NoConfinementError

ROOT = Path(libration.__file__).resolve().parents[2]

# a valid config with every section, its grids kept small
FULL = {
    "particle": {"material": "diamond", "r_a_m": 5e-8, "eccentricity": 0.9},
    "trap": {"power_w": 0.1, "waist_m": 6e-7},
    "environment": {"pressure_pa": 1.3332236842105263, "temperature_k": 300.0},
    "drive": {"detuning_rad_s": -34283.6799057411, "power_w": 1e-5},
    "sweep": {"amplitude_min_rad_s": 1.0e6, "amplitude_max_rad_s": 1.2e7, "points": 24},
    "ramp": {"amplitude_start_rad_s": 2.35e6, "amplitude_stop_rad_s": 1.08e7,
             "steps": 30, "tolerance": 1e-8},
    "squeeze": {"r": 40.0, "phi_rad": [3.141592653589793], "nbar": 0.0,
                "t_max_s": 5e-3, "points": 50},
    "derive": {"scan": "r_a_m", "min": 3e-8, "max": 1e-7, "points": 5},
}


# (section, JSON key, table key, kind) of every key: a frequency as both of its units
KEYS = [(section, key + unit, key, kind)
        for section, table in _SECTIONS.items() for key, (kind, _, _) in table.items()
        for unit in (("_hz", "_rad_s") if kind == "frequency" else ("",))]
CHOICES = sorted({c for keys in _SECTIONS.values() for kind, _, _ in keys.values()
                  if isinstance(kind, tuple) for c in kind})
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e154, -1e154,
               1e300, -1e300, 1.7976931348623157e308, float("nan"), float("inf")]

values = st.one_of(
    st.sampled_from([None, True, False, "", "abc", [], {}, {"a": 1}, [1.0, "x"],
                     10**400, -10**400]),
    st.sampled_from(CHOICES + ["upper ", "Diamond"]),
    st.sampled_from(EDGE_FLOATS),
    st.floats(-1e9, 1e9),
    st.integers(-3, 60),  # counts small enough that every grid is cheap to build
    st.lists(st.floats(-10.0, 10.0), max_size=3),
)
edits = st.one_of(
    st.tuples(st.just("set"), st.sampled_from([k[:2] for k in KEYS]), values),
    st.tuples(st.just("delete"), st.sampled_from([k[:2] for k in KEYS]), st.none()),
    st.tuples(st.just("drop"), st.sampled_from(sorted(_SECTIONS)), st.none()),
)


def edited(cfg, changes):
    cfg = copy.deepcopy(cfg)
    for action, target, value in changes:
        if action == "drop":
            cfg.pop(target, None)
            continue
        section, key = target
        if not isinstance(cfg.get(section), dict):
            continue
        if action == "set":
            cfg[section][key] = value
        else:
            cfg[section].pop(key, None)
    return cfg


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@example(changes=[("set", ("particle", "material"), [])])
@example(changes=[("set", ("particle", "material"), {"a": 1})])
@given(changes=st.lists(edits, max_size=3))
def test_load_config_fuzz(changes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(edited(FULL, changes)))
        try:
            load_config(path)
        except (ConfigError, NoConfinementError):
            pass


def test_full_config_loads(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FULL))
    cfg = load_config(path)
    assert None not in (cfg.drive, cfg.sweep, cfg.ramp, cfg.squeeze, cfg.scan)


@pytest.mark.parametrize("section, key, table_key, kind", KEYS,
                         ids=[f"{section}.{key}" for section, key, _, _ in KEYS])
def test_cli_names_every_key_of_the_wrong_type(tmp_path, capsys, section, key, table_key, kind):
    cfg = copy.deepcopy(FULL)
    for unit in ("_hz", "_rad_s"):  # a frequency in one unit only
        cfg[section].pop(table_key + unit, None)
    cfg[section][key] = 1 if isinstance(kind, tuple) else "1"  # a number where a string goes
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {section}.{key}: ")
    assert "Traceback" not in err


# (section, JSON key, table key, minimum) of every key with a lower bound
BOUNDED = [(section, key + ("_rad_s" if kind == "frequency" else ""), key, minimum)
           for section, table in _SECTIONS.items()
           for key, (kind, minimum, _) in table.items() if minimum is not None]
# the keys whose zero means nothing, and so must be positive; every other
# bounded key may sit at its minimum
POSITIVE = {"environment.temperature_k", "particle.density_kg_m3", "particle.r_a_m",
            "particle.r_b_m", "trap.power_w", "trap.waist_m", "drive.frequency",
            "ramp.dwell_s", "ramp.tolerance", "squeeze.t_max_s"}


@pytest.mark.parametrize("section, key, table_key, minimum", BOUNDED,
                         ids=[f"{section}.{key}" for section, key, _, _ in BOUNDED])
def test_a_value_at_its_bound_fails_only_where_it_must_be_positive(tmp_path, section, key,
                                                                   table_key, minimum):
    cfg = copy.deepcopy(FULL)
    cfg[section][key] = minimum
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    try:
        load_config(path)
        error = ""
    except (ConfigError, NoConfinementError) as exc:  # a sphere, at eccentricity 0
        error = str(exc)
    strict = f"{section}.{table_key}" in POSITIVE
    assert (f"must be > {minimum}" in error) == strict, error
    assert f"must be >= {minimum}" not in error


def readme_config_format():
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("section", sorted(_SECTIONS))
def test_readme_names_every_key(section):
    text = readme_config_format()
    missing = []
    for key, (kind, _, _) in _SECTIONS[section].items():
        suffix = r"_(hz|rad_s|\*)" if kind == "frequency" else ""  # <key>_* names both
        if not re.search(rf"(?<!\w){re.escape(key)}{suffix}(?!\w)", text):
            missing.append(key)
    assert missing == []


def test_readme_config_block_has_the_table_sections():
    block = readme_config_format().split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r'^  "(\w+)"\s*:', block, re.MULTILINE)) == set(_SECTIONS)
