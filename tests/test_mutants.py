"""The mutation harness's list stays applicable to the tree.

``tests/mutants.py`` is run by hand; it stops at a mutant whose text no longer
occurs exactly once in its file only after its baseline test run.  These
checks catch that in Tier-1, as soon as an edit moves a mutated line, and
hold its record ``MUTANTS.json`` to the list, so a renamed or deleted test
module cannot leave a stale record behind.
"""

import json
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_text_occurs_once_in_its_file(mutant):
    source = (ROOT / "src" / "libration" / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for module in mutant.tests:
        assert (ROOT / "tests" / f"{module}.py").is_file()


def test_record_matches_the_list():
    record = json.loads((ROOT / "MUTANTS.json").read_text())
    assert [(r["id"], r["file"], r["old"], r["new"], r["tests"]) for r in record["mutants"]] == [
        (m.id, f"src/libration/{m.file}", m.old, m.new, [f"tests/{t}.py" for t in m.tests])
        for m in MUTANTS]
    statuses = [r["status"] for r in record["mutants"]]
    assert record["counts"] == {s: statuses.count(s) for s in ("killed", "survived", "equivalent")}
    for entry, mutant in zip(record["mutants"], MUTANTS):
        if entry["status"] == "killed":
            assert (ROOT / entry["killed_by"].split("::")[0]).is_file()
        else:
            assert (entry["status"], entry.get("reason")) == ("equivalent", mutant.equivalent)
