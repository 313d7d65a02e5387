"""Tests of the benchmark itself: checker, span arithmetic, input generator.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import inputs
import spans
from workloads import REFERENCE

SVG = '<svg xmlns="http://www.w3.org/2000/svg"><g/></svg>'


def _staged(tmp_path: Path, cmd: str) -> Path:
    out = tmp_path / cmd
    shutil.copytree(REFERENCE / cmd, out, ignore=shutil.ignore_patterns("config.json"))
    for name in checks.CLI_SVGS[cmd]:
        (out / name).write_text(SVG)
    return out


def _edit_cell(path: Path, row: int, column: str, value) -> None:
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    cells = lines[row].split(",")
    cells[head.index(column)] = value(cells[head.index(column)])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("cmd", ["derive", "bistability", "squeeze", "hysteresis"])
def test_reference_outputs_pass(tmp_path, cmd):
    assert checks.check_cli_outputs(cmd, _staged(tmp_path, cmd), REFERENCE / cmd, 1e-8) == []


def test_float_within_tolerance_passes(tmp_path):
    out = _staged(tmp_path, "hysteresis")
    _edit_cell(out / "hysteresis_up.csv", 5, "re_beta", lambda v: repr(float(v) * (1 + 1e-12)))
    assert checks.check_cli_outputs("hysteresis", out, REFERENCE / "hysteresis", 1e-8) == []


@pytest.mark.parametrize("cmd,name,row,column,value", [
    ("bistability", "bistability.csv", 40, "n", lambda v: repr(float(v) * (1 + 1e-3))),
    ("hysteresis", "hysteresis_down.csv", 7, "n", lambda v: repr(float(v) * (1 + 1e-5))),
    ("squeeze", "squeeze_oracle_1.csv", 300, "S_J", lambda v: repr(float(v) + 1e-6)),
    ("derive", "derive.csv", 3, "value", lambda v: "nan"),
])
def test_checker_rejects_corrupted_float(tmp_path, cmd, name, row, column, value):
    out = _staged(tmp_path, cmd)
    _edit_cell(out / name, row, column, value)
    problems = checks.check_cli_outputs(cmd, out, REFERENCE / cmd, 1e-8)
    assert any(column in p for p in problems), problems


@pytest.mark.parametrize("cmd,name,row,column,value", [
    ("bistability", "bistability.csv", 1, "stable", lambda v: "0" if v == "1" else "1"),
    ("bistability", "bistability_summary.csv", 1, "regime", lambda v: "monostable"),
    ("hysteresis", "hysteresis_summary.csv", 2, "jump_detected", lambda v: "0"),
    ("squeeze", "squeeze_closed_0.csv", 10, "regime", lambda v: "hyperbolic"),
    ("derive", "derive.csv", 2, "unit", lambda v: "kg"),
])
def test_checker_rejects_altered_discrete_field(tmp_path, cmd, name, row, column, value):
    out = _staged(tmp_path, cmd)
    _edit_cell(out / name, row, column, value)
    problems = checks.check_cli_outputs(cmd, out, REFERENCE / cmd, 1e-8)
    assert any(column in p for p in problems), problems


def test_checker_rejects_shifted_jump_step(tmp_path):
    out = _staged(tmp_path, "hysteresis")
    ref = REFERENCE / "hysteresis" / "hysteresis_up.csv"
    drives = [float(line.split(",")[-1]) for line in ref.read_text().splitlines()[1:]]
    step = drives[1] - drives[0]
    _edit_cell(out / "hysteresis_summary.csv", 1, "jump_drive_rad_s",
               lambda v: repr(float(v) + step))
    problems = checks.check_cli_outputs("hysteresis", out, REFERENCE / "hysteresis", 1e-8)
    assert any("jump_drive_rad_s" in p for p in problems), problems


def test_checker_rejects_missing_truncated_and_broken_files(tmp_path):
    out = _staged(tmp_path, "bistability")
    lines = (out / "bistability.csv").read_text().splitlines()
    (out / "bistability.csv").write_text("\n".join(lines[:-1]) + "\n")
    (out / "bistability.svg").write_text("<svg")
    (out / "bistability_summary.csv").unlink()
    problems = checks.check_cli_outputs("bistability", out, REFERENCE / "bistability", 1e-8)
    assert any("rows" in p for p in problems)
    assert any("SVG" in p for p in problems)
    assert any("missing" in p for p in problems)


def _branch(n, stable=True, tangent=False):
    return SimpleNamespace(n=n, stable=stable, tangent=tangent,
                           verdict=SimpleNamespace(value="stable" if stable else "unstable"))


def test_branch_checks_use_residual_count_and_pattern():
    delta, gamma, eta = -1.0e4, 1.0e3, 1.0  # folds at drives ~1.6e5 and ~6.7e5
    down, up = checks._fold_drives(delta, gamma, eta)
    assert down < up
    omega = (down + up) / 2.0
    from libration.steadystate import MeanFieldParams, solve_branches
    good = solve_branches(MeanFieldParams(delta, omega, gamma, eta))
    assert len(good) == 3
    assert checks.check_branches(delta, omega, gamma, eta, good) == []
    assert not checks.missed_branches(delta, omega, gamma, eta, good)
    bad_root = [_branch(good[0].n * (1 + 1e-6)), good[1], good[2]]
    assert any("residual" in p for p in checks.check_branches(delta, omega, gamma, eta, bad_root))
    flipped = [good[0], _branch(good[1].n, stable=True), good[2]]
    assert any("stability" in p for p in checks.check_branches(delta, omega, gamma, eta, flipped))
    assert checks.check_branches(delta, omega, gamma, eta, good[:2])
    assert checks.missed_branches(delta, omega, gamma, eta, [good[2]])


def test_self_times_on_a_hand_built_tree():
    #  root   0 ........................................ 100
    #  a        10 ......... 40                  (child of root)
    #  a1          15 . 20                       (child of a)
    #  b                 30 ........ 60          (child of root, overlaps a)
    #  c                                  90 ........ 120  (child of root, runs past it)
    tree = [
        ["root", 0, 100, None, "r"],
        ["a", 10, 40, 0, "r"],
        ["a1", 15, 20, 1, "r"],
        ["b", 30, 60, 0, "r"],
        ["c", 90, 120, 0, "r"],
    ]
    # root: children cover 10..60 and 90..100, 60 of its 100
    assert spans.self_times(tree) == [40, 25, 5, 30, 30]


def test_tracer_nests_spans_and_restores_the_package():
    from libration import cli, steadystate
    original = steadystate.solve_branches
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert cli.sweep_diagram is steadystate.sweep_diagram
        steadystate.sweep_diagram([1e6, 2e6, 3e6], -34283.68, 8012.99, 0.0212, 1.84e7)
    finally:
        restore()
    assert steadystate.solve_branches is original
    assert cli.solve_branches is original
    assert tracer.spans[0][0] == "steadystate.sweep_diagram"
    solves = [s for s in tracer.spans if s[0] == "steadystate.solve_branches"]
    assert len(solves) == 3 and all(s[3] == 0 for s in solves)
    assert tracer.counts["steadystate.points"] == 3
    assert tracer.counts["steadystate.grid_points"] == 3


def test_generator_is_deterministic():
    a = inputs.steady_inputs(7, grids=3, grid_points=5, draws=50)
    b = inputs.steady_inputs(7, grids=3, grid_points=5, draws=50)
    assert a == b and inputs.digest(a) == inputs.digest(b)
    assert inputs.digest(inputs.steady_inputs(8, 3, 5, 50)) != inputs.digest(a)
    c = inputs.squeeze_inputs(7, sets=8, closed_samples=61, oracle_samples=7)
    assert c == inputs.squeeze_inputs(7, sets=8, closed_samples=61, oracle_samples=7)
    assert inputs.digest(inputs.squeeze_inputs(8, 8, 61, 7)) != inputs.digest(c)


def test_generator_covers_the_roadmap_range_unfiltered():
    points = inputs.steady_inputs(3, grids=0, grid_points=2, draws=4000)["points"]
    for key, (lo, hi) in (("eta", inputs.LOG_ETA), ("gamma_b", inputs.LOG_GAMMA_B),
                          ("Omega", inputs.LOG_OMEGA)):
        values = [p[key] for p in points]
        assert 10 ** lo <= min(values) < 10 ** (lo + 1)
        assert 10 ** (hi - 1) < max(values) <= 10 ** hi
    signs = {p["delta_ml"] > 0 for p in points}
    assert signs == {True, False}


def test_squeeze_draws_land_in_their_regimes():
    sets = inputs.squeeze_inputs(5, sets=40, closed_samples=61, oracle_samples=7)["sets"]
    for s in sets:
        xi = 12.0 * s["eta"] * s["r"] ** 2
        regime = checks.expected_regime(s["delta_ml"] + 2.0 * xi, xi)
        if s["kind"] == "degenerate-inside":
            assert regime == "degenerate"
        elif s["kind"] == "degenerate-outside":
            assert regime in ("hyperbolic", "oscillatory")
        else:
            assert regime == s["kind"]
