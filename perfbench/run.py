"""libration benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it sets the workload up three times in fresh interpreters
(setup_s is the median), then repeats the workload's fixed operation set for
S seconds from one closed-loop client and reports the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass of every workload
(the layers differ between workloads) and reports the per-layer metrics,
self times and the tracing overhead.  Every output is checked.  The last line
of stdout is the JSON result; README.md in this directory explains the rest.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import array  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib.metadata import PackageNotFoundError, version  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
CLI_COMMANDS = ("derive", "bistability", "squeeze", "hysteresis")
IMPORTED_MODULES = ("cli", "config", "model", "steadystate", "dynamics", "squeezing", "output")


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _version(dist: str) -> str | None:
    try:
        return version(dist)
    except PackageNotFoundError:
        return None


def environment() -> dict:
    """What a result depends on besides the code: machine, toolchain, sources."""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "libration").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": commit or None,
        "source_sha256": sources.hexdigest(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "children_PYTHONDONTWRITEBYTECODE": "1",
        "platform": platform.platform(),
    }


def _tally(results: list[workloads.OpResult]) -> dict:
    failed = [r for r in results if r.status == "failed"]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "unsolved": sum(r.status == "unsolved" for r in results),
        "problems": [p for r in failed for p in r.problems],
    }


def measured_run(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict, dict]:
    env = workloads.child_env(ROOT)
    setups = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = workloads.run_child(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), name, str(seed)], env,
            work / "probe.out", work / "probe.err")
        if code != 0:
            raise RuntimeError(f"set-up failed: {(work / 'probe.err').read_text()[-2000:]}")
        setups.append(wall)
    workload = workloads.make(name, seed, ROOT, work)
    workload.setup()
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()

    # Only per-pass summaries are kept, so memory does not grow with speed.
    tally = {"attempted": 0, "failed": 0, "unsolved": 0, "problems": []}
    pass_walls, ok_ms, by_cmd = [], array.array("d"), collections.defaultdict(list)
    unsolved_reasons: collections.Counter = collections.Counter()
    rss_kb = 0
    # A pass starts only while another one as long as the last still fits in
    # `seconds`, so a run ends within `seconds` however slow the machine is.
    start = time.perf_counter()
    last = 0.0
    while not pass_walls or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results = workload.run_pass(pass_index=len(pass_walls) + 1)
        pass_walls.append(sum(r.latency_s for r in results))
        for key, value in _tally(results).items():
            tally[key] += value
        del tally["problems"][200:]
        ok_ms.extend(r.latency_s * 1e3 for r in results if r.status == "ok")
        unsolved_reasons.update(r.problems[0] for r in results if r.status == "unsolved")
        if workload.commands:
            for r in results:
                by_cmd[r.label].append(r.latency_s)
        # In process, the first pass has touched everything a pass allocates.
        if not workload.in_process or len(pass_walls) == 1:
            rss_kb = max(rss_kb, workload.peak_rss_kb(results))
        last = time.perf_counter() - began
    attempted, failed, unsolved = tally["attempted"], tally["failed"], tally["unsolved"]
    tail_pct = workloads.TAIL_PERCENTILE[name]
    tail = percentile(ok_ms, tail_pct) if ok_ms else float("nan")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        "op_p50_ms": (statistics.median(ok_ms) if ok_ms else float("nan"), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": ((attempted - failed - unsolved) / attempted, "1"),
    }
    extra = {
        "passes": len(pass_walls),
        "setup_samples_s": setups,
        "failed_frac": (failed + unsolved) / attempted,
        "unsolved_reasons": dict(unsolved_reasons),
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": sum(v > tail for v in ok_ms),
        "op_samples": len(ok_ms),
        "input_sha256": workload.input_digest(),
        **{f"cli.{cmd}_s": statistics.median(v) for cmd, v in by_cmd.items()},
        **{f"cli.{cmd}_runs": len(v) for cmd, v in by_cmd.items()},
    }
    return metrics, extra, tally


def profile_imports(env: dict, work: Path) -> dict:
    """Interpreter floor, and each module's cumulative -X importtime figure."""
    walls = []
    for _ in range(3):
        _, wall, _ = workloads.run_child([sys.executable, "-c", "pass"], env,
                                         work / "imp.out", work / "imp.err")
        walls.append(wall)
    metrics = {"cli.interpreter_ms": (statistics.median(walls) * 1e3, "ms")}
    for mod in IMPORTED_MODULES:
        code, _, _ = workloads.run_child(
            [sys.executable, "-X", "importtime", "-c", f"import libration.{mod}"], env,
            work / "imp.out", work / "imp.err")
        cumulative = None
        for line in (work / "imp.err").read_text().splitlines():
            parts = line.split("|")
            if code == 0 and len(parts) == 3 and parts[2].strip() == f"libration.{mod}":
                cumulative = int(parts[1]) / 1e3
        if cumulative is None:
            raise RuntimeError(f"import libration.{mod} failed or was not timed")
        metrics[f"{mod}.import_ms"] = (cumulative, "ms")
    return metrics


def traced_run(seed: int, work: Path) -> tuple[dict, dict, dict]:
    env = workloads.child_env(ROOT)
    metrics = profile_imports(env, work)
    tracer = spans.Tracer()
    results = []
    for name in workloads.TAIL_PERCENTILE:
        workload = workloads.make(name, seed, ROOT, ROOT / ".bench_work" / name)
        workload.setup()
        plain = workload.run_pass(pass_index=1)
        traced = workload.run_pass(tracer=tracer, pass_index=2)
        results += plain + traced
        overhead = sum(r.latency_s for r in traced) - sum(r.latency_s for r in plain)
        metrics[f"trace.{name}.overhead_ms"] = (overhead * 1e3, "ms")
    metrics.update(spans.layer_metrics(tracer, CLI_COMMANDS))

    per_workload = collections.defaultdict(lambda: collections.defaultdict(float))
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        per_workload[span[4].split("#")[0]][span[0].split(".")[0]] += own / 1e6
    (work / "trace-spans.json").write_text(json.dumps(tracer.to_json()))
    extra = {"self_ms_by_workload": {w: dict(v) for w, v in per_workload.items()},
             "spans": len(tracer.spans), "counts": dict(tracer.counts)}
    return metrics, extra, _tally(results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "libration" / "__init__.py").is_file():
        print(f"no libration sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env_record = environment()

    if args.trace:
        metrics, extra, tally = traced_run(args.seed, work)
    else:
        metrics, extra, tally = measured_run(args.workload, args.seed, args.seconds, work)
    problems = tally["problems"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally['attempted']}  failed {tally['failed']}  "
          f"unsolved {tally['unsolved']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit}")
    for key, value in extra.items():
        print(f"  {key:34s} {value}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(f"environment {json.dumps(env_record)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env_record, "metrics": metrics, "extra": extra,
              "problems": problems[:200]}
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
