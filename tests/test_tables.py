"""The CLI's column table against its writer and against the benchmark's checks.

* ``_write_table`` takes one column per declared column and refuses more or
  fewer, and writes a twin column as its value / 2 pi.
* ``perfbench/checks.py``'s column rules name only columns the table writes,
  and every float column the table writes has a rule: ``compare_table``
  ignores a rule whose column is gone and then compares that float column
  byte for byte.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from libration import cli

ROOT = Path(__file__).resolve().parents[1]
# compared exactly by design: text, the 0/1 stability and jump verdicts
EXACT = {"quantity", "unit", "stable", "regime", "direction", "jump_detected"}
SCAN_AXES = {"r_a_m", "eccentricity"}


def header(table: str) -> list[str]:
    """The CSV header ``_write_table`` writes for ``table``, scan axis aside."""
    names = []
    for column in cli._TABLES[table]:
        if isinstance(column, tuple):  # a frequency and its twin
            name, suffixes = column
            names += [name + suffix for suffix in suffixes]
        else:
            names.append(column)
    return names


def table_of(file: str) -> str:
    """The ``_TABLES`` entry behind a CSV file the commands write."""
    stem = file.removesuffix(".csv")
    if stem in ("hysteresis_up", "hysteresis_down"):
        return "hysteresis_ramp"
    if stem.startswith(("squeeze_closed", "squeeze_oracle")):
        return "squeeze_trace"
    assert stem in cli._TABLES, file
    return stem


def cli_rules() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks._cli_rules(1e-8)


def test_write_table_expands_twins_in_declared_order(tmp_path):
    path = tmp_path / "s.csv"
    cli._write_table(path, "hysteresis_summary", (
        ["up"], [1], [math.tau], [-math.pi], [2.0], [3.0], [4.0], [5.0], [6.0]))
    head, row = path.read_text().splitlines()
    assert head.split(",") == header("hysteresis_summary")
    assert row == "up,1,6.283185307179586,1.0,-3.141592653589793,-0.5,2.0,3.0,4.0,5.0,6.0"


def test_write_table_leads_with_the_scan_axis(tmp_path):
    path = tmp_path / "scan.csv"
    cli._write_table(path, "derive_scan", ([1.0], [math.tau], [2.0], [3.0]),
                     lead={"eccentricity": [0.5]})
    assert path.read_text() == ("eccentricity,inertia,omega_t,omega_t_over_2pi,eta,"
                                "eta_over_omega_t\n0.5,1.0,6.283185307179586,1.0,2.0,3.0\n")


@pytest.mark.parametrize("count", [4, 6])
def test_write_table_refuses_a_column_count_off_the_table(tmp_path, count):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        cli._write_table(path, "hysteresis_ramp", [[0.0]] * count)
    assert not path.exists()


def test_perfbench_rules_name_the_table_columns():
    rules = cli_rules()
    covered = set()
    for command, files in rules.items():
        for file, columns in files.items():
            table = table_of(file)
            covered.add(table)
            written = set(header(table)) | (SCAN_AXES if table == "derive_scan" else set())
            assert set(columns) - written == set(), (command, file)
            floats = set(header(table)) - EXACT
            assert floats - set(columns) == set(), (command, file)
    assert covered == set(cli._TABLES)
