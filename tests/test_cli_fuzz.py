"""Config fuzzers for the ``bistability``, ``derive`` and ``squeeze`` commands.

Each ``bistability``/``derive`` example edits up to three keys of the shipped
``bistability`` config, drawn over the documented schema, to an edge float
(zero, subnormals, 1e154, 1e300, both signs) or to a shipped-scale value times
10^[-3, 3], and runs ``cli.main`` in process.  Every run must end with a
documented exit code and no escaping exception; a ``bistability`` run that
succeeds must show the S-curve pattern on every three-root drive and root
counts that agree with its summary's fold window.

Each ``squeeze`` example draws the squeeze section of the shipped ``squeeze``
config, with at most 50 points, and its damping and detuning; a run that
succeeds must write traces whose S_theta and S_J are finite and positive and
obey the uncertainty bound S_theta S_J >= 1/16 (theta0 J0 = 2 hbar).
(``hysteresis`` is left out: its run time is not bounded over this schema.)
"""

import copy
import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import libration
from libration.cli import main
from libration.config import load_config

ROOT = Path(libration.__file__).resolve().parents[2]
SHIPPED = json.loads((ROOT / "configs" / "bistability.json").read_text())

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1e154, -1e154, 1e300, -1e300, 1.7976931348623157e308]

# (section, key, shipped-scale value); of each group of alternatives in one
# section a config keeps at most one key, the last one drawn
KEYS = [
    ("particle", "r_a_m", 5e-8),
    ("particle", "eccentricity", 0.9),
    ("particle", "r_b_m", 4e-8),
    ("particle", "density_kg_m3", 3500.0),
    ("particle", "eps_r", 5.7),
    ("trap", "power_w", 0.1),
    ("trap", "waist_m", 6e-7),
    ("environment", "pressure_pa", 1.3332236842105263),
    ("environment", "temperature_k", 300.0),
    ("environment", "gamma_b_rad_s", 8012.985643210628),
    ("environment", "gamma_b_hz", 1275.3),
    ("environment", "damping_per_pascal_rad_s", 6010.0),
    ("drive", "detuning_rad_s", -34283.6799057411),
    ("drive", "detuning_hz", -5456.4),
    ("drive", "frequency_hz", 2.9e6),
    ("drive", "amplitude_rad_s", 6.0e6),
    ("drive", "power_w", 1e-5),
    ("sweep", "amplitude_min_rad_s", 1.0e6),
    ("sweep", "amplitude_max_rad_s", 1.2e7),
    ("sweep", "amplitude_min_hz", 1.6e5),
    ("sweep", "amplitude_max_hz", 1.9e6),
    ("derive", "min", 3e-8),
    ("derive", "max", 1e-7),
]
EXCLUSIVE = [
    {"eccentricity", "r_b_m"},
    {"gamma_b_rad_s", "gamma_b_hz"},
    {"detuning_rad_s", "detuning_hz", "frequency_hz"},
    {"amplitude_rad_s", "power_w"},
    {"amplitude_min_rad_s", "amplitude_min_hz"},
    {"amplitude_max_rad_s", "amplitude_max_hz"},
]


@st.composite
def configs(draw):
    cfg = copy.deepcopy(SHIPPED)
    cfg["sweep"]["points"] = draw(st.integers(1, 24))
    if draw(st.booleans()):
        cfg["derive"] = {"scan": draw(st.sampled_from(["r_a_m", "eccentricity"])),
                         "min": 3e-8, "max": 1e-7, "points": draw(st.integers(1, 6))}
        if cfg["derive"]["scan"] == "eccentricity":
            cfg["derive"].update(min=0.5, max=0.95)
    for section, key, scale in draw(st.lists(st.sampled_from(KEYS), max_size=3)):
        if draw(st.integers(0, 3)) == 0:
            value = draw(st.sampled_from(EDGE_FLOATS))
        else:
            value = scale * 10.0 ** draw(st.floats(-3.0, 3.0))
        target = cfg.setdefault(section, {})
        for group in EXCLUSIVE:
            if key in group:
                for other in group - {key}:
                    target.pop(other, None)
        target[key] = value
    return cfg


def rows_by_drive(path):
    """[(drive, [row, ...])] of bistability.csv, in file order, rows as dicts of floats."""
    groups = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["omega_drive"], []).append(
                {k: float(v) for k, v in row.items()})
    return [(float(w), rows) for w, rows in groups.items()]


# a subnormal damping rate: the fluctuation matrix's trace, 2 * (gamma_b/2),
# underflowed to 0 and turned the outer branches marginal
SUBNORMAL_DAMPING = copy.deepcopy(SHIPPED)
SUBNORMAL_DAMPING["environment"]["gamma_b_rad_s"] = 5e-324
SUBNORMAL_DAMPING["sweep"]["points"] = 5


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@example(cfg=SUBNORMAL_DAMPING, command="bistability", fmt="csv")
@given(cfg=configs(), command=st.sampled_from(["bistability", "derive"]),
       fmt=st.sampled_from(["csv", "csv+svg"]))
def test_cli_config_fuzz(cfg, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        code = main([command, "--config", str(path), "--out", str(out), "--format", fmt])
        assert code in (0, 1, 2)
        if code != 0 or command != "bistability":
            return
        gamma_b = load_config(path).gamma_b
        with open(out / "bistability_summary.csv", newline="") as fh:
            summary = next(csv.DictReader(fh))
        lo = float(summary["drive_down_fold_rad_s"])
        hi = float(summary["drive_up_fold_rad_s"])
        for w, rows in rows_by_drive(out / "bistability.csv"):
            assert len(rows) in (1, 3)
            ns = [row["n"] for row in rows]
            assert ns == sorted(ns)
            if len(set(ns)) == len(ns):  # no tangent pair on a fold
                assert (len(rows) == 3) == (lo < w < hi), (w, lo, hi)
            if len(rows) == 3 and len(set(ns)) == 3:
                outer = 1.0 if gamma_b > 0.0 else 0.0
                assert [row["stable"] for row in rows] == [outer, 0.0, outer]
                assert max(rows[1]["re_eig1"], rows[1]["re_eig2"]) > 0.0


SQUEEZE = json.loads((ROOT / "configs" / "squeeze.json").read_text())


def scaled(value):
    """``value`` times 10^[-3, 3]."""
    return st.floats(-3.0, 3.0).map(lambda e: value * 10.0 ** e)


@st.composite
def squeeze_configs(draw):
    cfg = copy.deepcopy(SQUEEZE)
    sq = cfg["squeeze"] = {"t_max_s": draw(scaled(5e-3)), "points": draw(st.integers(2, 50)),
                           "include_damping": draw(st.booleans())}
    phis = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    if draw(st.booleans()):  # r and the default phase from a stable steady branch
        sq.update(from_drive=True, branch=draw(st.sampled_from(["upper", "lower"])))
        cfg["drive"]["power_w"] = draw(scaled(1e-5))
        if draw(st.booleans()):
            sq["phi_rad"] = phis
    else:
        sq["r"] = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e77, 1e154]), scaled(40.0)))
        sq["phi_rad"] = phis if draw(st.booleans()) else phis[0]
    if draw(st.booleans()):
        sq["thermal"] = True
    else:
        sq["nbar"] = draw(st.one_of(st.just(0.0), scaled(1.0)))
    damping = draw(st.one_of(st.none(), st.sampled_from([0.0, 5e-324]), scaled(8e3)))
    if damping is not None:
        cfg["environment"]["gamma_b_rad_s"] = damping
    cfg["drive"]["detuning_hz"] = draw(st.one_of(st.sampled_from([0.0, -200.0]), scaled(200.0)))
    return cfg


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=squeeze_configs(), fmt=st.sampled_from(["csv", "csv+svg"]))
def test_cli_squeeze_fuzz(cfg, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        code = main(["squeeze", "--config", str(path), "--out", str(out), "--format", fmt])
        assert code in (0, 1, 2)
        if code != 0:
            return
        traces = sorted(out.glob("squeeze_*.csv"))
        assert traces
        for trace in traces:
            with open(trace, newline="") as fh:
                for row in csv.DictReader(fh):
                    s_theta, s_j = float(row["S_theta"]), float(row["S_J"])
                    assert 0.0 < s_theta < math.inf and 0.0 < s_j < math.inf, (trace.name, row)
                    assert s_theta * s_j >= (1.0 - 1e-9) / 16.0, (trace.name, row)
