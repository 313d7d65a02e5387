"""Mutation harness for the numerical core: run by hand, not collected by pytest.

    python tests/mutants.py [--workdir DIR] [--out MUTANTS.json] [ID ...]

Each mutant is one text edit of one file of ``src/libration``, whose old text
must occur there exactly once, and names the test modules that should catch
it.  The tool copies ``src``, ``tests``, ``configs``, ``perfbench``
(``tests/test_tables.py`` reads its column rules), ``README.md`` and
``pyproject.toml`` to the work directory (a new temporary one by default) and
first runs every named module on the unmutated copy, which must pass.  Then,
one mutant at a time, it edits the copy, runs the mutant's modules with
``pytest -x`` and restores the file.  A mutant is *killed* when pytest fails,
*equivalent* when it passes and the list gives the reason no test can tell it
apart, and *survived* otherwise.  The tree it is run from is never edited;
only the result file is written, by default ``MUTANTS.json`` at its root.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "perfbench", "README.md", "pyproject.toml")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    id: str
    file: str  # module file name under src/libration
    old: str
    new: str
    tests: tuple[str, ...]  # module names under tests/
    equivalent: str | None = None  # why no test can tell it apart


MUTANTS = [
    Mutant("jump-delta-eff-after-the-jump", "dynamics.py",
           "delta_eff_before=delta_ml + 24.0 * eta * n[k - 1],",
           "delta_eff_before=delta_ml + 24.0 * eta * n[k],",
           ("test_dynamics", "test_config_cli")),
    Mutant("fold-crossing-strict", "dynamics.py",
           "if sign * n[k - 1] <= sign * fold < sign * n[k]:",
           "if sign * n[k - 1] < sign * fold < sign * n[k]:",
           ("test_dynamics", "test_config_cli")),
    Mutant("threshold-band-a-decade-narrower", "squeezing.py",
           "away = abs(gamma * gamma - mu2) >= 0.5 * gamma * gamma",
           "away = abs(gamma * gamma - mu2) >= 0.05 * gamma * gamma",
           ("test_squeezing", "test_config_cli", "test_standalone")),
    Mutant("root-tolerance-1e-10", "steadystate.py",
           "tol = 1e-13 * target", "tol = 1e-10 * target",
           ("test_steadystate", "test_standalone")),
    Mutant("curve-slope-scaled-1e-9", "steadystate.py",
           "return gamma_b**2 / 4.0 + (u + x) * (u + 3.0 * x)",
           "return (gamma_b**2 / 4.0 + (u + x) * (u + 3.0 * x)) * (1.0 + 1e-9)",
           ("test_steadystate", "test_standalone")),
    Mutant("effective-detuning-scaled-1e-12", "steadystate.py",
           "return params.delta_ml + 24.0 * params.eta * n",
           "return (params.delta_ml + 24.0 * params.eta * n) * (1.0 + 1e-12)",
           ("test_steadystate", "test_standalone")),
    Mutant("table-difference-swapped", "dynamics.py",
           "d10, d20, d21, d30, d31 = z1 - z0, z2 - z0, z2 - z1, z3 - z0, z3 - z1",
           "d10, d20, d21, d30, d31 = z1 - z0, z2 - z0, z1 - z2, z3 - z0, z3 - z1",
           ("test_propagator",)),
    Mutant("table-product-reordered", "dynamics.py",
           "p4_0 * d41 * d42", "p4_0 * d42 * d41",
           ("test_propagator",)),
    Mutant("table-gap-half", "dynamics.py",
           "abs(d) * T > 1.0 for d in", "abs(d) * T > 0.5 for d in",
           ("test_propagator",)),
    Mutant("stable-roots-keep-unstable", "dynamics.py",
           "for n, det in slopes if det > 0.0]", "for n, det in slopes]",
           ("test_propagator", "test_dynamics")),
    Mutant("newton-cubic-constant-one-ulp", "steadystate.py",
           "g2_cubic = params.gamma_b * params.gamma_b / 4.0",
           "g2_cubic = math.nextafter(params.gamma_b * params.gamma_b / 4.0, math.inf)",
           ("test_steadystate",)),
    Mutant("newton-slope-constant-one-ulp", "steadystate.py",
           "g2_slope = params.gamma_b**2 / 4.0",
           "g2_slope = math.nextafter(params.gamma_b**2 / 4.0, math.inf)",
           ("test_steadystate",)),
    Mutant("down-grid-not-reversed", "dynamics.py",
           "down = _ramp(params[::-1], roots[::-1],", "down = _ramp(params, roots,",
           ("test_dynamics",)),
    Mutant("drive-grid-monotone-unchecked", "steadystate.py",
           "    if not (all(a < b for a, b in pairs) or descending and all(a > b for a, b in pairs)"
           "):\n",
           "    if False:\n",
           ("test_dynamics", "test_steadystate")),
    Mutant("hysteresis-sweep-may-descend", "dynamics.py",
           "_ramp_grid(delta_ml, gamma_b, eta, drives, dwell, False)",
           "_ramp_grid(delta_ml, gamma_b, eta, drives, dwell, True)",
           ("test_dynamics",)),
    Mutant("down-ramp-roots-one-off", "dynamics.py",
           "params[::-1], roots[::-1]", "params[::-1], roots[-2::-1] + roots[-1:]",
           ("test_dynamics", "test_standalone")),
    Mutant("plateau-gate-0.1", "dynamics.py",
           "0.01 * math.sqrt(det1),", "0.1 * math.sqrt(det1),",
           ("test_dynamics",)),
    Mutant("plateau-start-gate-0.1", "dynamics.py",
           "< 0.01 * math.sqrt(det)\n", "< 0.1 * math.sqrt(det)\n",
           ("test_dynamics",)),
    Mutant("plateau-acceptance-without-2", "dynamics.py",
           "if 2.0 * abs(d2) <= tol * abs(root):", "if abs(d2) <= tol * abs(root):",
           ("test_dynamics", "test_propagator")),
    Mutant("retry-bound-without-sqrt", "dynamics.py",
           "abs(beta - root) * math.sqrt(tol * abs(root) / (2.0 * abs(d2)))",
           "abs(beta - root) * (tol * abs(root) / (2.0 * abs(d2)))",
           ("test_dynamics",)),
    Mutant("stop-test-farthest-root", "dynamics.py",
           "if e1 <= e2:", "if e1 > e2:",
           ("test_dynamics",)),
    Mutant("warm-start-from-the-other-bracket", "steadystate.py",
           "(0.0, n_low, True, first)", "(0.0, n_low, True, last)",
           ("test_steadystate", "test_dynamics")),
    Mutant("middle-bracket-kept", "steadystate.py",
           "            if near is not None:\n                del brackets[1]\n", "",
           ("test_steadystate", "test_dynamics")),
    Mutant("loop-area-sign", "dynamics.py",
           "(x0 - x1) * (y0 + y1) / 2.0", "(x1 - x0) * (y0 + y1) / 2.0",
           ("test_dynamics",)),
    Mutant("loop-area-up-ramp-only", "dynamics.py",
           "for sweep in (up, down):", "for sweep in (up,):",
           ("test_dynamics",)),
    Mutant("sine-weight-scaled-1e-12", "squeezing.py",
           "xi * (xi + lam * c2), xi * s2", "xi * (xi + lam * c2), xi * s2 * (1.0 + 1e-12)",
           ("test_squeezing",)),
    Mutant("dp45-rtol-tol-over-5", "dynamics.py",
           "rtol = max(tol / 10.0, 1e-13)", "rtol = max(tol / 5.0, 1e-13)",
           ("test_dynamics",)),
    Mutant("scalar-float-to-numpy", "squeezing.py",
           "if isinstance(t, numbers.Real):", "if isinstance(t, numbers.Integral):",
           ("test_standalone", "test_squeezing")),
    Mutant("scalar-returns-theta-twice", "squeezing.py",
           "return s_theta[0], s_j[0]", "return s_theta[0], s_theta[0]",
           ("test_standalone", "test_squeezing")),
    Mutant("non-finite-variance-passes", "squeezing.py",
           "if not all(map(math.isfinite, s_theta + s_j)):\n            raise OverflowError",
           "if not all(map(math.isfinite, s_theta + s_j)):\n            pass",
           ("test_standalone", "test_squeezing", "test_config_cli")),
    Mutant("ramp-grid-unchecked", "config.py",
           '_checked_linspace(start, stop, steps, "ramp",\n'
           '                             "amplitude_start_*, amplitude_stop_* and steps")',
           "tuple(_linspace(start, stop, steps))", ("test_config_cli", "test_config_keys")),
    Mutant("scan-grid-unchecked", "config.py",
           '_checked_linspace(lo, hi, points, "derive", "min, max and points")',
           "tuple(_linspace(lo, hi, points))", ("test_config_cli", "test_config_keys")),
    Mutant("strict-bound-non-strict", "config.py",
           '"tolerance": ("number", 0.0, True)', '"tolerance": ("number", 0.0, False)',
           ("test_config_cli", "test_config_keys")),
    Mutant("summary-columns-swapped", "cli.py",
           '"regime", ("omega_ml", _HZ), ("omega_c", _HZ),',
           '"regime", ("omega_c", _HZ), ("omega_ml", _HZ),',
           ("test_tables", "test_config_cli", "test_standalone")),
    Mutant("jump-drive-twin-dropped", "cli.py",
           '("jump_drive", _HZ)', '"jump_drive"',
           ("test_tables", "test_config_cli", "test_standalone")),
    Mutant("twin-divisor-times-two-pi", "cli.py",
           "[value / TWO_PI for value in values]", "[value * TWO_PI for value in values]",
           ("test_tables", "test_config_cli", "test_standalone")),
    Mutant("format-checked-at-its-last-occurrence", "cli.py",
           '        if option == "--format" and value not in _FORMATS:\n'
           '            raise _usage_error(f"argument --format: invalid choice: {value!r} "\n'
           '                               f"(choose from {\', \'.join(map(repr, _FORMATS))})")\n'
           "        given[option] = value\n",
           "        given[option] = value\n"
           '    if given.get("--format", "csv") not in _FORMATS:\n'
           '        raise _usage_error("argument --format: invalid choice")\n',
           ("test_config_cli",)),
    Mutant("first-repeated-option-wins", "cli.py",
           "given[option] = value", "given.setdefault(option, value)", ("test_config_cli",)),
    Mutant("inline-value-not-split", "cli.py",
           'option, inline, value = token.partition("=")', 'option, inline, value = token, "", ""',
           ("test_config_cli",)),
    Mutant("csv-bool-text-reversed", "output.py",
           'bool: ("0", "1").__getitem__', 'bool: ("1", "0").__getitem__',
           ("test_config_cli", "test_standalone")),
    Mutant("tick-guard-0.4-ulp", "output.py",
           "if step <= 4.0 * math.ulp(", "if step <= 0.4 * math.ulp(",
           ("test_config_cli",)),
    Mutant("depolarization-series-to-1e-1", "model.py",
           "if e < 0.3:", "if e < 1e-1:", ("test_model", "test_standalone")),
    Mutant("depolarization-series-to-1e-2", "model.py",
           "if e < 0.3:", "if e < 1e-2:", ("test_model", "test_standalone")),
    Mutant("depolarization-switch-at-0.5", "model.py",
           "if e < 0.3:", "if e < 0.5:", ("test_model", "test_standalone")),
    Mutant("depolarization-series-13-terms", "model.py",
           "for k in range(13, -1, -1):", "for k in range(12, -1, -1):",
           ("test_model", "test_standalone")),
    Mutant("depolarization-one-minus-e-squared", "model.py",
           "la = ((1.0 - e) * (1.0 + e) / (e * e)", "la = ((1.0 - e * e) / (e * e)",
           ("test_model", "test_standalone")),
    Mutant("thermal-occupancy-exp-minus-1", "model.py",
           "nbar = 1.0 / math.expm1(HBAR * omega / kt if kt > 0.0 else math.inf)",
           "nbar = 1.0 / (math.exp(HBAR * omega / kt if kt > 0.0 else math.inf) - 1.0)",
           ("test_model", "test_config_cli")),
]


def run_tests(work: Path, modules) -> tuple[int, str]:
    """pytest's exit code on ``modules`` in ``work``, and the first failing test."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
            *(f"tests/{m}.py" for m in modules)]
    proc = subprocess.Popen(args, cwd=work, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, f"timeout after {TIMEOUT_S} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return proc.returncode, failed.group(1) if failed else out.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--workdir", type=Path, help="copy of the tree to mutate")
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    args = parser.parse_args(argv)
    unknown = set(args.ids) - {m.id for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s) {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.ids or m.id in args.ids]

    work = args.workdir or Path(tempfile.mkdtemp(prefix="mutants-"))
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.rmtree(work / name, ignore_errors=True)
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, work / name)
    modules = sorted({t for m in chosen for t in m.tests})
    code, detail = run_tests(work, modules)
    if code != 0:
        print(f"the unmutated copy fails: {detail}", file=sys.stderr)
        return 1

    results = []
    for m in chosen:
        path = work / "src" / "libration" / m.file
        source = path.read_text()
        if source.count(m.old) != 1:
            print(f"{m.id}: old text occurs {source.count(m.old)} times in {m.file}",
                  file=sys.stderr)
            return 1
        path.write_text(source.replace(m.old, m.new))
        try:
            code, detail = run_tests(work, m.tests)
        finally:
            path.write_text(source)
        status = "killed" if code != 0 else "equivalent" if m.equivalent else "survived"
        entry = {"id": m.id, "file": f"src/libration/{m.file}", "old": m.old, "new": m.new,
                 "tests": [f"tests/{t}.py" for t in m.tests], "status": status}
        entry.update({"killed_by": detail} if status == "killed" else
                     {"reason": m.equivalent} if status == "equivalent" else {})
        results.append(entry)
        print(f"{status:10} {m.id}  {detail}", flush=True)

    counts = {s: sum(r["status"] == s for r in results)
              for s in ("killed", "survived", "equivalent")}
    args.out.write_text(json.dumps({"counts": counts, "mutants": results}, indent=2) + "\n")
    print(counts)
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
