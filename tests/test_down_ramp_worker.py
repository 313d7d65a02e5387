"""The down ramp of ``hysteresis_sweep`` and process hygiene.

The down ramp once ran in a forked worker; it now runs in the caller's
process after the up ramp.  These tests keep the worker's process checks:
a sweep forks nothing, leaves no child to reap, runs the caller's handlers
once, leaves nothing behind when it is killed, and equals the two plain
ramps bit for bit whatever the host offers (fork or not, one CPU or more).
"""

import functools
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

import libration
from libration import dynamics
from libration.config import load_config
from libration.dynamics import RampProtocol, hysteresis_sweep, quasi_static_sweep

ROOT = Path(libration.__file__).resolve().parents[2]
DOUBLE = struct.Struct("<d")


@functools.cache
def _shipped():
    """(delta_ml, gamma_b, eta), the up protocol and tol of configs/hysteresis.json."""
    cfg = load_config(ROOT / "configs" / "hysteresis.json")
    ramp = cfg.ramp
    proto = RampProtocol(ramp.amplitude_start, ramp.amplitude_stop, ramp.steps, ramp.dwell)
    return (cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta), proto, ramp.tolerance


def _sequential(delta_ml, gamma_b, eta, proto, tol=1e-8):
    """The hysteresis sweep as two plain ramps."""
    up = quasi_static_sweep(delta_ml, gamma_b, eta, proto, tol=tol)
    down = quasi_static_sweep(delta_ml, gamma_b, eta, proto.reversed(), up.trajectory.beta[-1], tol)
    return up, down


def _assert_same_sweeps(result, up, down):
    """Two sweep pairs agree in every field, floats bit for bit."""
    for got, want in ((result.up, up), (result.down, down)):
        a, b = got.trajectory, want.trajectory
        assert [DOUBLE.pack(x) for b_ in a.beta for x in (b_.real, b_.imag)] == \
               [DOUBLE.pack(x) for b_ in b.beta for x in (b_.real, b_.imag)]
        assert (a.t, a.omega_applied, a.complete, a.n_rhs, a.n_rejected) == \
               (b.t, b.omega_applied, b.complete, b.n_rhs, b.n_rejected)
        assert (got.jump, got.direction, got.turning) == (want.jump, want.direction, want.turning)


@pytest.fixture
def spied_fork(monkeypatch):
    """Two CPUs to the sweep, whatever the host has, and the pids it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


# (delta_ml, gamma_b, eta) of the reference working point, and a short ramp
REF = (-34283.6799057411, 8012.985643210628, 0.021209365972552064)
SHORT_RAMP = RampProtocol(2.35e6, 1.08e7, 40, 20.0 / REF[1])


def test_sweep_reaps_its_worker(spied_fork):
    # with two CPUs offered the sweep still forks nothing, so nothing is left to reap
    result = hysteresis_sweep(*REF, SHORT_RAMP)
    assert spied_fork == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    _assert_same_sweeps(result, *_sequential(*REF, SHORT_RAMP))


def test_sweep_that_raises_in_the_up_ramp_reaps_its_worker(spied_fork, monkeypatch):
    calls, integrate = [], dynamics.integrate

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("integrator failed")
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", failing)
    with pytest.raises(RuntimeError, match="integrator failed"):
        hysteresis_sweep(*REF, SHORT_RAMP)
    assert spied_fork == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_script(code, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                            env=env, **kwargs)


PRELUDE = f"""
import os, sys
from libration import dynamics
os.sched_getaffinity = lambda pid: {{0, 1}}
fork = os.fork
def spy():
    pid = fork()
    if pid:
        print("forked", pid, flush=True)
    return pid
os.fork = spy
args = {REF!r}
"""


def test_caller_handlers_run_once_in_the_caller():
    # a forked copy of the caller would run its finally blocks and atexit
    # handlers a second time; the sweep forks none
    code = PRELUDE + """
import atexit
atexit.register(print, "atexit", flush=True)
ramp = dynamics.RampProtocol(2.35e6, 1.08e7, 40, 20.0 / args[1])
try:
    dynamics.hysteresis_sweep(*args, ramp)
finally:
    print("finally", flush=True)
integrate = dynamics.integrate
def failing(*a, **k):
    raise RuntimeError("integrator failed")
dynamics.integrate = failing
try:
    dynamics.hysteresis_sweep(*args, ramp)
except RuntimeError:
    print("raised", flush=True)
finally:
    print("finally", flush=True)
"""
    proc = _run_script(code)
    out, _ = proc.communicate(timeout=60)
    lines = [line.split()[0] for line in out.splitlines()]
    assert proc.returncode == 0
    assert lines == ["finally", "raised", "finally", "atexit"]


def test_orphaned_worker_exits_by_its_next_plateau():
    # A sweep ended by SIGTERM in the middle of its ramp leaves no process of
    # its session behind.  Its 10,000-plateau ramp runs for about a second.
    code = PRELUDE + """
ramp = dynamics.RampProtocol(2.35e6, 1.08e7, 10_000, 20.0 / args[1])
print("started", flush=True)
dynamics.hysteresis_sweep(*args, ramp)
print("done", flush=True)
"""
    proc = _run_script(code, start_new_session=True)
    try:
        assert proc.stdout.readline().split() == ["started"]
        time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=10)
        assert proc.returncode == -signal.SIGTERM
        assert out == ""  # neither a fork nor the end of the sweep
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


@functools.cache
def _speculative():
    """The shipped sweep as on any host with two CPUs."""
    args, proto, tol = _shipped()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return hysteresis_sweep(*args, proto, tol=tol)


@pytest.mark.parametrize("fallback", ["no fork", "one CPU"])
def test_fallbacks_equal_the_speculative_sweep(monkeypatch, fallback):
    args, proto, tol = _shipped()
    speculative = _speculative()
    if fallback == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    result = hysteresis_sweep(*args, proto, tol=tol)
    _assert_same_sweeps(result, speculative.up, speculative.down)
    assert DOUBLE.pack(result.loop_area) == DOUBLE.pack(speculative.loop_area)
    # test_sweep_counts_on_shipped_hysteresis_config's counts for the sweep itself
    trajectories = (result.up.trajectory, result.down.trajectory)
    assert sum(tr.n_rhs for tr in trajectories) == 31_400
    assert sum(len(tr.t) for tr in trajectories) == 600


def test_undamped_sweep_forks_no_worker(spied_fork):
    ramp = RampProtocol(2.35e6, 1.08e7, 20, 1e-4)
    result = hysteresis_sweep(REF[0], 0.0, REF[2], ramp)
    assert spied_fork == []
    _assert_same_sweeps(result, *_sequential(REF[0], 0.0, REF[2], ramp))


def test_chains_that_never_meet_leave_the_sequential_sweep(spied_fork):
    # a 40/gamma_b dwell, where the worker's two down chains never met, is
    # the sequential sweep bit for bit and forks nothing
    ramp = RampProtocol(2.35e6, 1.08e7, 100, 40.0 / REF[1])
    result = hysteresis_sweep(*REF, ramp)
    assert spied_fork == []
    _assert_same_sweeps(result, *_sequential(*REF, ramp))
