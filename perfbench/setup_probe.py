"""Perform one workload's set-up in a fresh interpreter, then exit.

Usage: python setup_probe.py ROOT WORKLOAD SEED

run.py times this process three times and reports the median as setup_s, so
set-up cost includes interpreter start and imports as a user would pay them.
"""

import sys
from pathlib import Path

import workloads


def main() -> int:
    root, name, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    workloads.make(name, seed, root, root / ".bench_work" / f"probe-{name}").setup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
