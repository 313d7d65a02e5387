"""Capture the reference outputs the CLI workloads are checked against.

Usage (from the repository root): python3 perfbench/capture_reference.py

Runs each CLI command on the shipped ``configs/<cmd>.json`` with the current
sources and stores a copy of the config and the CSV files it wrote under
``perfbench/reference/<cmd>/``.  Run it only on a commit whose outputs are
known good; the references define what the benchmark accepts.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import REFERENCE, child_env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for cmd in ("derive", "bistability", "squeeze", "hysteresis"):
        dest = REFERENCE / cmd
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        shutil.copyfile(ROOT / "configs" / f"{cmd}.json", dest / "config.json")
        with tempfile.TemporaryDirectory(dir=ROOT) as out:
            subprocess.run([sys.executable, "-m", "libration.cli", cmd, "--config",
                            str(dest / "config.json"), "--out", out, "--format", "csv"],
                           env=child_env(ROOT), check=True, stdout=subprocess.DEVNULL)
            for csv in sorted(Path(out).glob("*.csv")):
                shutil.copyfile(csv, dest / csv.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
