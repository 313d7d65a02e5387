"""The package runs on the standard library alone; numpy is a test dependency.

* Each command, run on its shipped config with ``--format csv+svg`` in an
  interpreter where ``import numpy`` fails, exits 0 and writes the files,
  stdout and stderr of a run with numpy available, byte for byte; its CSV
  files are pinned by sha256.
* Importing any ``libration`` module loads only standard-library modules.
* A real scalar ``t`` in ``variance_*_closed`` is evaluated without numpy,
  with the bits and the overflow error of ``moment_oracle``.
* README "Output schemas" shows every CSV header line the commands write.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import libration
from libration.cli import main
from libration.squeezing import SqueezeParams, variance_J_closed, variance_theta_closed

ROOT = Path(libration.__file__).resolve().parents[2]
COMMANDS = ("derive", "bistability", "hysteresis", "squeeze")
MODULES = ["libration"] + [f"libration.{m.name}" for m in pkgutil.iter_modules(libration.__path__)]
# a None entry in sys.modules makes every later ``import numpy`` raise ImportError
NO_NUMPY = "import sys; sys.modules['numpy'] = None\n"

# sha256 of each CSV the shipped configs write; captured with CPython's math
# on glibc, whose last-bit rounding another libm may not share
PINNED_CSV = {
    "derive/derive.csv": "f03073048fa432f8c62d7fe9a4ca9c5a9e23f0988c311e47dde656b5e41e226d",
    "derive/derive_scan.csv": "78bc11a7953a90f32154c2424b492143e099cfb1591e838884bacd5711712dda",
    "bistability/bistability.csv":
        "f94cb38b7473923968d825c38f8fe00fa4ee9e896d8fb2bfb61e9069a2ebb66c",
    "bistability/bistability_summary.csv":
        "c86768af4222046a631d06dffa88bceecd7589b32c28030fbc1bc4b9150d4340",
    "hysteresis/hysteresis_up.csv":
        "fc6407d935926666840797d66b362e771addb1419442c468d30dc4c494a67ec4",
    "hysteresis/hysteresis_down.csv":
        "e1e73702ebe9773c00adbb62bbbc0eb7ae6949f462f9f0d7df2560acb1c0213d",
    "hysteresis/hysteresis_summary.csv":
        "753ac6fde552c83c1c0e747a3a80dbd8d758a233633af7cbef8631517fa8cbf1",
    # phases 0, pi/4 and pi/2; the undamped oracle file is the closed-form one
    **{f"squeeze/squeeze_{kind}_{i}.csv": digest
       for kind in ("closed", "oracle") for i, digest in enumerate((
           "635396525cf7e783ad90e40659c0b0b82cc0ac05b3e0d47bb91eba820246d863",
           "ead98b0a2260f82efd165af7995152d0c3faf3e704d857d6a9eec4cfc6611fe1",
           "edaf3f9a0f8c29b978cb681feb77c71eb60ff03b8a8734f4213a51e4756a0579"))},
}


def run_without_numpy(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that cannot import numpy."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", NO_NUMPY + code],
                          capture_output=True, text=True, env=env)


def argv(command: str, out: Path, config: Path | None = None) -> list[str]:
    return [command, "--config", str(config or ROOT / "configs" / f"{command}.json"),
            "--out", str(out), "--format", "csv+svg"]


def files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """Per command: (exit code, stdout, stderr, files) without numpy, then with it."""
    root = tmp_path_factory.mktemp("shipped")
    runs = {}
    for command in COMMANDS:
        blocked = run_without_numpy(
            f"from libration.cli import main; sys.exit(main({argv(command, root / 'blocked' / command)!r}))")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv(command, root / "plain" / command))
        runs[command] = (
            (blocked.returncode, blocked.stdout, blocked.stderr, files(root / "blocked" / command)),
            (code, stdout.getvalue(), stderr.getvalue(), files(root / "plain" / command)),
        )
    return runs


@pytest.mark.parametrize("command", COMMANDS)
def test_command_without_numpy_writes_the_same_bytes(shipped_runs, command):
    blocked, plain = shipped_runs[command]
    assert blocked[0] == 0, blocked[2]
    assert blocked == plain


def test_shipped_csv_files_are_pinned(shipped_runs):
    digests = {f"{command}/{name}": hashlib.sha256(data).hexdigest()
               for command in COMMANDS for name, data in shipped_runs[command][0][3].items()
               if name.endswith(".csv")}
    assert digests == PINNED_CSV


def test_modules_import_only_the_standard_library():
    # each module in turn: what its import adds to sys.modules, with numpy blocked
    out = run_without_numpy(
        "import importlib, json\n"
        "added, before = {}, set(sys.modules)\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "    added[name], before = sorted(set(sys.modules) - before), set(sys.modules)\n"
        "print(json.dumps(added))\n")
    assert out.returncode == 0, out.stderr
    added = json.loads(out.stdout)
    assert sorted(added) == sorted(MODULES)
    outside = {name: [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names
                      and m.split(".")[0] != "libration"] for name, loaded in added.items()}
    assert outside == {name: [] for name in MODULES}


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


def test_scalar_closed_forms_are_the_oracle_bits_without_numpy():
    # one time per regime: the benchmark's oscillatory point, hyperbolic, degenerate
    out = run_without_numpy(
        "import json, math\n"
        "from libration.squeezing import *\n"
        "xi, rows = 87.72142036086622, []\n"
        "for lam, phi, nbar, t in ((16.326 * xi, math.pi, 0.0, 1e-3), (0.3 * xi, 0.7, 2.5, 4e-3),\n"
        "                          (xi, 0.4, 0.0, 2e-3)):\n"
        "    p = SqueezeParams(lam=lam, xi=xi, phi=phi, r=40.0, nbar=nbar)\n"
        "    trace = moment_oracle(p, [0.0, t])\n"
        "    th, j = variance_theta_closed(t, p), variance_J_closed(t, p)\n"
        "    rows.append([p.regime, type(th).__name__, type(j).__name__, th.hex(), j.hex(),\n"
        "                 trace.S_theta[1].hex(), trace.S_J[1].hex()])\n"
        "print(json.dumps(rows))\n")
    assert out.returncode == 0, out.stderr
    rows = json.loads(out.stdout)
    assert [row[0] for row in rows] == ["oscillatory", "hyperbolic", "degenerate"]
    for _, type_theta, type_j, theta, j, oracle_theta, oracle_j in rows:
        assert (type_theta, type_j) == ("float", "float")
        assert (theta, j) == (oracle_theta, oracle_j)


@pytest.mark.parametrize("t, lam_over_xi", [
    (20.0, 0.3),       # hyperbolic: e^{2 lam_p t} ~ e^{3300} overflows in math.sinh
    (math.inf, 16.3),  # oscillatory: the sine of an infinite phase
    (1e160, 1.0),      # degenerate: t^2 overflows to inf without an exception
], ids=["overflow", "infinite-phase", "degenerate-growth"])
def test_scalar_closed_forms_raise_as_the_oracle_does(t, lam_over_xi):
    xi = 87.72142036086622
    p = SqueezeParams(lam=lam_over_xi * xi, xi=xi, phi=0.0, r=40.0, nbar=0.0)
    for closed in (variance_theta_closed, variance_J_closed):
        with pytest.raises(RuntimeError, match="^moment propagation overflowed$"):
            closed(t, p)


def output_schemas() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Output schemas\n", 1)[1].split("\n## ", 1)[0]


def test_readme_output_schemas_show_every_csv_header(shipped_runs, tmp_path):
    # the shipped runs, and a one-phase squeeze, whose files carry no _i suffix
    cfg = json.loads((ROOT / "configs" / "squeeze.json").read_text())
    cfg["squeeze"]["phi_rad"] = math.pi
    config = tmp_path / "one_phase.json"
    config.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv("squeeze", tmp_path / "o", config)) == 0
    written = files(tmp_path / "o")
    for command in COMMANDS:
        written.update(shipped_runs[command][0][3])
    axis = json.loads((ROOT / "configs" / "derive.json").read_text())["derive"]["scan"]
    headers = {}
    for name, data in written.items():
        if name.endswith(".csv"):
            header = data.decode().split("\n", 1)[0]
            if name == "derive_scan.csv":
                assert header.startswith(axis + ",")
                header = "<axis>" + header[len(axis):]
            headers[name] = header
    assert {"squeeze_closed.csv", "squeeze_oracle_2.csv", "derive_scan.csv"} <= set(headers)
    section = output_schemas()
    assert {name: h for name, h in headers.items() if f"`{h}`" not in section} == {}
