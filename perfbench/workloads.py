"""The benchmark's workloads.

Each workload runs a fixed set of operations per pass from one closed-loop
client: one operation in flight, no threads, CLI children one at a time.  A
pass returns one ``OpResult`` per operation; latencies exclude the output
checks, which run between operations.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from spans import Tracer, install

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

#: A child still running after this long is killed and the run aborted; a
#: 50-second run plus one such child stays inside a 180-second limit.
CHILD_TIMEOUT_S = 100


@dataclass
class OpResult:
    label: str
    latency_s: float
    # "ok"; "unsolved": a valid input got no trustworthy answer, because the
    # program raised or returned fewer branches than the fold drives imply;
    # "failed": an output check failed, an operation that must succeed raised,
    # or a CLI run exited non-zero.
    status: str = "ok"
    problems: list[str] = field(default_factory=list)
    rss_kb: int = 0


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child: the checkout's sources, no bytecode cache.

    PYTHONDONTWRITEBYTECODE=1 makes every cold run compile libration afresh,
    whatever the caller's environment, so both sides of a comparison match.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], env: dict, stdout: Path, stderr: Path,
              timeout_s: int = CHILD_TIMEOUT_S) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB).

    posix_spawn plus wait4 gives the child's own peak RSS; on timeout or
    interrupt the child is killed and reaped before this returns.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss


class CliWorkload:
    """Cold ``libration <cmd> --format csv+svg`` runs, commands in rotation.

    The configs are the copies of ``configs/<cmd>.json`` kept with the
    reference outputs, so a change to the shipped configs cannot change the
    workload; outputs are checked against those references.
    """

    in_process = False

    def __init__(self, name: str, commands: tuple[str, ...], root: Path, work: Path):
        self.name = name
        self.commands = commands
        self.work = work
        self.env = child_env(root)
        self.ramp_tol = json.loads((REFERENCE / "hysteresis" / "config.json").read_text()
                                   )["ramp"]["tolerance"]

    def setup(self) -> None:
        """Stage the configs and warm the file cache with one package import."""
        staged = self.work / "configs"
        staged.mkdir(parents=True, exist_ok=True)
        for cmd in self.commands:
            shutil.copyfile(REFERENCE / cmd / "config.json", staged / f"{cmd}.json")
        code, _, _ = run_child([sys.executable, "-c", "import libration.cli"], self.env,
                               self.work / "warmup.out", self.work / "warmup.err")
        if code != 0:
            raise RuntimeError(f"import libration.cli failed: "
                               f"{(self.work / 'warmup.err').read_text()[-2000:]}")

    def input_digest(self) -> str:
        return inputs.digest({cmd: (REFERENCE / cmd / "config.json").read_text()
                              for cmd in self.commands})

    def run_pass(self, tracer: Tracer | None = None, pass_index: int = 0) -> list[OpResult]:
        results = []
        for cmd in self.commands:
            out = self.work / "out" / cmd
            shutil.rmtree(out, ignore_errors=True)
            cli_args = [cmd, "--config", str(self.work / "configs" / f"{cmd}.json"),
                        "--out", str(out), "--format", "csv+svg"]
            spans_file = self.work / f"spans-{cmd}.json"
            spans_file.unlink(missing_ok=True)
            if tracer is None:
                argv = [sys.executable, "-m", "libration.cli", *cli_args]
            else:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), *cli_args]
            code, wall, rss = run_child(argv, self.env, self.work / f"{cmd}.out",
                                        self.work / f"{cmd}.err")
            result = OpResult(cmd, wall, rss_kb=rss)
            if code != 0:
                err = (self.work / f"{cmd}.err").read_text()[-2000:]
                result.problems.append(f"{cmd} exited {code}: {err}")
            else:
                result.problems += checks.check_cli_outputs(cmd, out, REFERENCE / cmd,
                                                             self.ramp_tol)
            if tracer is not None and spans_file.exists():
                tracer.merge(json.loads(spans_file.read_text()), f"{self.name}#{pass_index}:{cmd}")
                spans_file.unlink()
            if result.problems:
                result.status = "failed"
            results.append(result)
        return results

    def peak_rss_kb(self, results: list[OpResult]) -> int:
        return max(r.rss_kb for r in results)


class _InProcess:
    """A workload that calls the package from the client process."""

    in_process = True
    commands: tuple[str, ...] = ()

    def input_digest(self) -> str:
        return inputs.digest(self.inputs)

    def peak_rss_kb(self, results: list[OpResult]) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _classify(result: OpResult, problems: list[str], missed: int, tracer: Tracer | None) -> None:
    """A failed check fails the operation; otherwise missed branches leave it unsolved."""
    result.problems = problems
    if problems:
        result.status = "failed"
    elif missed:
        result.status = "unsolved"
        result.problems = ["missed branches"]
    if tracer is not None:
        tracer.counts["steadystate.check_failures"] += bool(problems)
        tracer.counts["steadystate.missed_branches"] += bool(missed) and not problems


class SteadyScan(_InProcess):
    """sweep_diagram over dense drive grids near the calibration working point,
    and single solve_branches calls over the whole ROADMAP range.

    The two halves are sized to take about equal time with the current code.
    Every returned root is checked by the benchmark itself.  A raise, or a
    single root where the closed-form folds give three, leaves the operation
    unsolved: the current solver does both on parts of the ROADMAP range.
    """

    GRIDS, GRID_POINTS, DRAWS = 32, 241, 15000

    def __init__(self, name: str, seed: int):
        self.name = name
        self.inputs = inputs.steady_inputs(seed, self.GRIDS, self.GRID_POINTS, self.DRAWS)

    def setup(self) -> None:
        from libration import steadystate
        self.ss = steadystate
        self.run_pass(limit=(2, 300))

    def run_pass(self, tracer: Tracer | None = None, pass_index: int = 0,
                 limit: tuple[int, int] | None = None) -> list[OpResult]:
        ss, clock = self.ss, time.perf_counter
        sweeps, points = self.inputs["sweeps"], self.inputs["points"]
        if limit:
            sweeps, points = sweeps[:limit[0]], points[:limit[1]]
        restore = install(tracer) if tracer is not None else None
        results = []
        try:
            for i, sweep in enumerate(sweeps):
                if tracer is not None:
                    tracer.run_id = f"{self.name}#{pass_index}:grid{i}"
                start = clock()
                try:
                    diagram = ss.sweep_diagram(sweep["drives"], sweep["delta_ml"], sweep["gamma_b"],
                                               sweep["eta"], sweep["omega_t"])
                except Exception as exc:
                    results.append(OpResult("grid", clock() - start, "failed",
                                            [f"sweep_diagram raised {exc!r}"]))
                    continue
                result = OpResult("grid", clock() - start)
                _classify(result, *checks.check_diagram(sweep, diagram), tracer)
                results.append(result)
            for i, p in enumerate(points):
                if tracer is not None:
                    tracer.run_id = f"{self.name}#{pass_index}:point{i}"
                start = clock()
                try:
                    branches = ss.solve_branches(ss.MeanFieldParams(
                        delta_ml=p["delta_ml"], Omega=p["Omega"], gamma_b=p["gamma_b"],
                        eta=p["eta"]))
                except Exception as exc:
                    results.append(OpResult("point", clock() - start, "unsolved",
                                            [f"raised {type(exc).__name__}"]))
                    continue
                result = OpResult("point", clock() - start)
                args = (p["delta_ml"], p["Omega"], p["gamma_b"], p["eta"], branches)
                _classify(result, checks.check_branches(*args), checks.missed_branches(*args),
                          tracer)
                results.append(result)
        finally:
            if restore is not None:
                restore()
        return results


class SqueezeScan(_InProcess):
    """Closed-form variance traces on long time grids, and moment-oracle
    traces with and without damping, over seeded (delta, eta, r, phi, nbar).

    The closed forms sample CLOSED_SAMPLES times per trace and the oracle every
    STRIDE-th of those times; the two halves take about equal time with the
    current code.  Each undamped oracle trace also checks the closed forms.
    """

    SETS, CLOSED_SAMPLES, ORACLE_SAMPLES = 24, 150001, 601
    STRIDE = (CLOSED_SAMPLES - 1) // (ORACLE_SAMPLES - 1)

    def __init__(self, name: str, seed: int):
        self.name = name
        self.inputs = inputs.squeeze_inputs(seed, self.SETS, self.CLOSED_SAMPLES,
                                            self.ORACLE_SAMPLES)

    def setup(self) -> None:
        import numpy as np
        from libration import squeezing
        self.sq = squeezing
        self.params, self.setup_problems = [], []
        for spec in self.inputs["sets"]:
            params = squeezing.squeeze_params(spec["delta_ml"], spec["eta"], spec["r"],
                                              spec["phi"], spec["nbar"])
            self.setup_problems += checks.check_squeeze_params(spec, params)
            t = np.linspace(0.0, spec["t_max"], self.CLOSED_SAMPLES)
            self.params.append((spec, params, t, t[::self.STRIDE]))
        self.run_pass(limit=4)

    def run_pass(self, tracer: Tracer | None = None, pass_index: int = 0,
                 limit: int | None = None) -> list[OpResult]:
        sq, clock = self.sq, time.perf_counter
        restore = install(tracer) if tracer is not None else None
        results = []
        try:
            for i, (spec, params, t, t_oracle) in enumerate(self.params[:limit]):
                if tracer is not None:
                    tracer.run_id = f"{self.name}#{pass_index}:set{i}"
                outputs, ops = {}, []
                for label, call in (
                    ("closed_theta", lambda: sq.variance_theta_closed(t, params)),
                    ("closed_J", lambda: sq.variance_J_closed(t, params)),
                    ("oracle", lambda: sq.moment_oracle(params, t_oracle)),
                    ("oracle_damped", lambda: sq.moment_oracle(params, t_oracle,
                                                               gamma_b=spec["gamma_b"])),
                ):
                    start = clock()
                    try:
                        outputs[label] = call()
                        ops.append(OpResult(label, clock() - start))
                    except Exception as exc:
                        ops.append(OpResult(label, clock() - start, "failed",
                                            [f"{label} raised {exc!r}"]))
                results += ops
                if len(outputs) < 4:
                    continue
                ops[0].problems = self._check(spec, params, outputs, tracer)
        finally:
            if restore is not None:
                restore()
        if results:
            results[0].problems += self.setup_problems
        for result in results:
            if result.problems:
                result.status = "failed"
        return results

    def _check(self, spec, params, outputs, tracer) -> list[str]:
        closed = (outputs["closed_theta"], outputs["closed_J"])
        oracle, damped = outputs["oracle"], outputs["oracle_damped"]
        scale = max(float(closed[0].max()), float(closed[1].max()))
        tol = checks.ORACLE_ATOL * scale
        problems = checks.check_trace(*closed, spec["nbar"], self.CLOSED_SAMPLES, tol)
        for trace in (oracle, damped):
            problems += checks.check_trace(trace.S_theta, trace.S_J, spec["nbar"],
                                           self.ORACLE_SAMPLES, tol)
            if trace.regime != params.regime:
                problems.append(f"oracle regime {trace.regime} != {params.regime}")
        dev, bad = checks.closed_vs_oracle(closed, (oracle.S_theta, oracle.S_J), self.STRIDE)
        if tracer is not None:
            tracer.gauge_max("squeezing.max_rel_dev", dev)
        return problems + bad


#: Tail percentile per workload, fixed so that parent and change report the
#: same statistic.  In a 50-second run of the current code each leaves at least
#: ten samples beyond it, except on cli-hysteresis: no percentile of its six to
#: nine runs has ten beyond it, so its tail falls back to the median.
TAIL_PERCENTILE = {"cli-quick": 75.0, "cli-hysteresis": 50.0, "steady-scan": 99.9,
                   "squeeze-scan": 99.0}


def make(name: str, seed: int, root: Path, work: Path):
    if name == "cli-quick":
        return CliWorkload(name, ("derive", "bistability", "squeeze"), root, work)
    if name == "cli-hysteresis":
        return CliWorkload(name, ("hysteresis",), root, work)
    if name == "steady-scan":
        return SteadyScan(name, seed)
    if name == "squeeze-scan":
        return SqueezeScan(name, seed)
    raise ValueError(f"unknown workload {name!r}")
