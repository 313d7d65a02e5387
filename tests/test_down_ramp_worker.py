"""The forked down-ramp worker of ``hysteresis_sweep``: splicing, fallbacks, process hygiene.

The worker steps the down ramp from the closed-form top root while the parent
steps the up ramp; the parent splices the worker's plateaus in where the two
chains meet bit for bit.  Every sweep here must equal the sequential one bit
for bit, whatever the worker delivered and whenever it delivered it.
"""

import functools
import os
import random
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
from libration.steadystate import MeanFieldParams, beta_from_n, steady_occupations

ROOT = Path(libration.__file__).resolve().parents[2]
DOUBLE = struct.Struct("<d")


@functools.cache
def _shipped():
    """(delta_ml, gamma_b, eta), the up protocol and tol of configs/hysteresis.json."""
    cfg = load_config(ROOT / "configs" / "hysteresis.json")
    ramp = cfg.ramp
    proto = RampProtocol(ramp.amplitude_start, ramp.amplitude_stop, ramp.steps, ramp.dwell)
    return (cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta), proto, ramp.tolerance


@functools.cache
def _chains():
    """The shipped down ramp: its protocol, the up ramp's end state, the exact
    chain's records from there, and the worker's records from the top root."""
    args, proto, tol = _shipped()
    down = proto.reversed()
    start = quasi_static_sweep(*args, proto, tol=tol).trajectory.beta[-1]
    exact = dynamics._plateaus(*args, down, start, tol)
    top = MeanFieldParams(args[0], down.omega_start, args[1], args[2])
    guess_start = beta_from_n(top, steady_occupations(top)[0])
    guess = dynamics._plateaus(*args, down, guess_start, tol)
    return down, start, exact, guess


def _bits(records):
    return [dynamics._RECORD.pack(*r) for r in records]


def _sequential(delta_ml, gamma_b, eta, proto, tol=1e-8):
    """The hysteresis sweep as two plain ramps, with no worker."""
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


class _Feed:
    """A record source that hands out one batch per poll, then nothing."""

    def __init__(self, batches):
        self.batches = iter(batches)

    def poll(self):
        return list(next(self.batches, []))


def _bursts(records, seed):
    """``records`` in seeded bursts of 0-30, with empty polls between them."""
    rng, batches, k = random.Random(seed), [], 0
    while k < len(records):
        size = rng.choice([0, 0, 1, 2, 7, 30])
        batches.append(records[k:k + size])
        k += size
    return batches


def _wrong(records):
    """Records of a chain that meets no plateau of the exact one: twice its states."""
    return [(2.0 * r[0], 2.0 * r[1], *r[2:]) for r in records]


BATCHINGS = {
    "all at once": lambda g: [g],
    "one per parent step": lambda g: [[r] for r in g],
    "half, a pause, the rest": lambda g: [g[:50], [], [], [], g[50:]],
    "bursts seed 1": lambda g: _bursts(g, 1),
    "bursts seed 2": lambda g: _bursts(g, 2),
    "wrong records": lambda g: [_wrong(g)],
    "wrong then right": lambda g: [_wrong(g[:60]), g[60:]],
    "truncated before the meeting": lambda g: [g[:30]],
    "truncated after the meeting": lambda g: [g[:100]],
    "incomplete record": lambda g: [g[:10] + [(*g[10][:4], False)]],
}


@pytest.mark.parametrize("batching", sorted(BATCHINGS))
def test_spliced_down_ramp_equals_the_exact_chain(batching):
    down, start, exact, guess = _chains()
    args, _, tol = _shipped()
    feed = _Feed(BATCHINGS[batching](guess))
    spliced = dynamics._plateaus(*args, down, start, tol, source=feed)
    assert _bits(spliced) == _bits(exact)


def test_chains_meet_at_down_plateau_42_and_the_parent_steps_43(monkeypatch):
    down, start, exact, guess = _chains()
    args, _, tol = _shipped()
    same = [a[:2] == b[:2] for a, b in zip(exact, guess)]
    assert same.index(True) == 42 and all(same[42:])
    stepped, integrate = [], dynamics.integrate

    def counted(*args, **kwargs):
        stepped.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    spliced = dynamics._plateaus(*args, down, start, tol, source=_Feed([guess]))
    assert len(stepped) == 43
    assert _bits(spliced) == _bits(exact)


def test_an_incomplete_record_taken_from_the_source_ends_the_ramp():
    # a worker whose plateau failed after the meeting: the exact chain would
    # have failed there too, so the ramp ends on that record
    down, start, exact, guess = _chains()
    args, _, tol = _shipped()
    failed = (*guess[50][:4], False)
    feed = _Feed([guess[:50] + [failed] + guess[51:]])
    spliced = dynamics._plateaus(*args, down, start, tol, source=feed)
    assert _bits(spliced) == _bits(exact[:50] + [failed])


def test_worker_records_are_read_whole_from_any_chunking():
    _, _, _, guess = _chains()
    data = b"".join(_bits(guess[:20]))
    read, write = os.pipe()
    try:
        os.set_blocking(read, False)
        reader = dynamics._Worker(-1, read)  # never closed: close() kills its pid
        got, written = reader.poll(), 0  # nothing written yet
        for cut in (5, 33, 34, 100, 101, 640, len(data)):
            os.write(write, data[written:cut])
            written = cut
            got += reader.poll()
            assert len(got) == cut // dynamics._RECORD.size
        assert _bits(got) == _bits(guess[:20]) and reader.pending == b""
    finally:
        os.close(read)
        os.close(write)


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
    result = hysteresis_sweep(*REF, SHORT_RAMP)
    assert len(spied_fork) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    _assert_same_sweeps(result, *_sequential(*REF, SHORT_RAMP))


def test_sweep_that_raises_in_the_up_ramp_reaps_its_worker(spied_fork, monkeypatch):
    calls, integrate, parent = [], dynamics.integrate, os.getpid()

    def failing(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("integrator failed")
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", failing)
    with pytest.raises(RuntimeError, match="integrator failed"):
        hysteresis_sweep(*REF, SHORT_RAMP)
    assert len(spied_fork) == 1
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
    code = PRELUDE + f"""
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
    assert lines == ["forked", "finally", "forked", "raised", "finally", "atexit"]


def _state(pid):
    """The process state letter of ``pid``, or None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_orphaned_worker_exits_by_its_next_plateau():
    # A holder forked next to the worker keeps the pipe's read end open, so
    # the worker's writes still succeed after its parent dies and only its
    # parent check can stop it.  Its 10,000-plateau ramp would run for
    # seconds, and then block on the full pipe; a plateau takes a millisecond.
    code = PRELUDE + """
import time
def spy():
    pid = fork()
    if pid:
        holder = fork()
        if holder == 0:
            time.sleep(60)
            os._exit(0)
        print("forked", pid, holder, flush=True)
    return pid
os.fork = spy
ramp = dynamics.RampProtocol(2.35e6, 1.08e7, 10_000, 20.0 / args[1])
dynamics.hysteresis_sweep(*args, ramp)
"""
    proc = _run_script(code)
    orphans = []
    try:
        orphans = [int(pid) for pid in proc.stdout.readline().split()[1:]]
        time.sleep(0.05)
        assert _state(orphans[0]) not in (None, "Z")
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while _state(orphans[0]) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _state(orphans[0]) in (None, "Z")
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        for pid in orphans:
            if _state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)


@functools.cache
def _speculative():
    """The shipped sweep with the worker on, as on any host with two CPUs."""
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
    # test_sweep_counts_on_shipped_hysteresis_config's counts, without the worker
    trajectories = (result.up.trajectory, result.down.trajectory)
    assert sum(tr.n_rhs for tr in trajectories) == 564_642
    assert sum(len(tr.t) for tr in trajectories) == 600


def test_undamped_sweep_forks_no_worker(spied_fork):
    ramp = RampProtocol(2.35e6, 1.08e7, 20, 1e-4)
    result = hysteresis_sweep(REF[0], 0.0, REF[2], ramp)
    assert spied_fork == []
    _assert_same_sweeps(result, *_sequential(REF[0], 0.0, REF[2], ramp))


def test_chains_that_never_meet_leave_the_sequential_sweep(spied_fork):
    # at a 40/gamma_b dwell the two down chains do not meet within 100 plateaus
    ramp = RampProtocol(2.35e6, 1.08e7, 100, 40.0 / REF[1])
    result = hysteresis_sweep(*REF, ramp)
    assert len(spied_fork) == 1
    _assert_same_sweeps(result, *_sequential(*REF, ramp))
