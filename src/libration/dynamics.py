"""Time evolution of the driven mode and quasi-static hysteresis sweeps.

The rotating-frame amplitude follows the mean-field equation of
:mod:`libration.steadystate`; here it is integrated in time, either for one
fixed drive or along a stepped drive-amplitude ramp.  Ramping the amplitude
slowly up and then back down traces the lower and upper stable branches of the
S-curve and jumps at the fold points, which is how the hysteresis loop and the
(drive, effective-detuning) jump coordinates are extracted.

The integrator is an adaptive Dormand-Prince 5(4) stepper written here for
the scalar amplitude, stepped as the real pair (Re beta, Im beta) in Python
floats with the operation order of complex arithmetic: the same steps and the
same bits as on the complex amplitude, without the cost of generic complex
arithmetic.  Its step loop is flat float code, with the right-hand side and
error norm written out inline and no function calls per stage.  It
reproduces the tableau, error norm and step controller of scipy's RK45, so
it takes the same accepted steps, without scipy's per-step overhead on a
two-dimensional system.  Trajectories and sweeps are lists of Python floats
and complex numbers, so this module imports neither scipy nor numpy.  The
occupation n is ``re*re + im*im``, the expression the right-hand side uses.
:func:`mean_field_rhs` is the complex reference form of the right-hand side.

A jump is a fold crossing: the first plateau whose occupation passes the
closed-form fold occupation of :func:`libration.steadystate.turning_points` in
the ramp direction (up past n_low, down past n_high), leaving the stable branch
it was following.  An S-curve that does not fold has no jumps.

:func:`hysteresis_sweep` steps the down ramp on two cores where it can:
``os.fork`` exists, the CPU affinity set has two or more CPUs, gamma_b > 0
and the top drive has a steady root.  Before the up ramp it forks one worker,
at nice 19, that steps the down ramp from that closed-form root.  A plateau
shrinks a difference of start states by about exp(-gamma_b*dwell/2), e^-10
at the default dwell, so that chain soon meets the exact one bit for bit.
The parent steps the exact chain until one of its plateau end states equals
the worker's, then takes every plateau the worker has finished.  A plateau is
a function of its start state alone, so outputs and counters are those of the
sequential sweep whether the worker matched, lagged, died or never started;
the parent never waits for it, and kills and reaps it before returning or
raising.  On ``configs/hysteresis.json`` the chains meet at down plateau 42
of 300.  At the default dwell they met on 19 of 27 variants of it (detuning
x0.5/1/2, 50/150/300 steps, tol 1e-6/1e-8/1e-10), 1-79 % of the way down,
and at a 40/gamma_b dwell not at all; there the worker costs the fork and the
CPU time it takes from other processes.
"""

from __future__ import annotations

import math
import operator
import os
import signal
import struct
import sys
from collections.abc import Callable
from typing import NamedTuple

from libration.model import _Validated
from libration.steadystate import (
    MeanFieldParams,
    ResonanceError,
    TurningPoints,
    _linspace,
    _physical_folds,
    beta_from_n,
    steady_occupations,
)

__all__ = [
    "RampProtocol",
    "Trajectory",
    "SweepResult",
    "JumpEvent",
    "HysteresisResult",
    "mean_field_rhs",
    "integrate",
    "quasi_static_sweep",
    "hysteresis_sweep",
]

# One plateau record of _plateaus, as the worker writes it: end state, counts, complete.
_RECORD = struct.Struct("<ddqq?")
_STATE = struct.Struct("<dd")


def mean_field_rhs(beta: complex, params: MeanFieldParams) -> complex:
    """d(beta)/dt = (i delta_ml - gamma_b/2 + 12 i eta (|beta|^2 + 1)) beta - i Omega/2."""
    n = beta.real * beta.real + beta.imag * beta.imag
    coef = 1j * (params.delta_ml + 12.0 * params.eta * (n + 1.0)) - params.gamma_b / 2.0
    return coef * beta - 0.5j * params.Omega


class Trajectory(NamedTuple):
    """Integrated rotating-frame trajectory.

    ``omega_applied`` holds the drive amplitude in force at each sample, so a
    stepped-ramp trajectory is self-describing.  ``complete`` is False when
    the integrator failed (step-size underflow) and the lists only reach the
    failure time.  ``n_rhs`` and ``n_rejected`` count the right-hand-side
    evaluations and rejected steps that produced it.
    """

    t: list[float]
    beta: list[complex]
    omega_applied: list[float]
    complete: bool = True
    n_rhs: int = 0
    n_rejected: int = 0

    @property
    def n(self) -> list[float]:
        """Occupation |beta(t)|^2, as re*re + im*im."""
        return [b.real * b.real + b.imag * b.imag for b in self.beta]


def integrate(
    params: MeanFieldParams,
    beta_init: complex = 0.0 + 0.0j,
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-8,
) -> Trajectory:
    """Integrate the mean-field equation with an adaptive Dormand-Prince 5(4) stepper.

    The stepper (Dormand & Prince, J. Comput. Appl. Math. 6, 19, 1980) works
    on the real pair (Re beta, Im beta) in Python floats, in the operation
    order of complex arithmetic, so it takes the same steps to the same bits
    as it would on the complex amplitude.  The initial step and the step loop
    evaluate the right-hand side and the error norm inline, with no function
    calls per stage.  It uses the step controller of scipy's
    RK45: RMS error norm over the real and imaginary parts, safety 0.9, step
    factor in [0.2, 10] with no growth right after a rejection, and the
    Hairer-Norsett-Wanner initial step.

    ``tol`` is the accuracy target for the trajectory: the stepper is run
    a fixed safety factor tighter than ``tol`` so that the accumulated
    (global) error stays below ``tol`` at benchmark amplitude scales, not
    just the per-step local error.  Every accepted step is returned.  When
    the step falls below 10 ulp of the time the partial trajectory up to that
    time is returned with ``complete=False``, as is the start state when the
    initial step is zero or NaN (a derivative that overflows).  A zero-length
    span returns the start state.  ``n_rhs`` and ``n_rejected`` count the
    right-hand-side evaluations and the rejected steps.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    t, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_end) and t <= t_end):
        raise ValueError(f"t_span must be finite and increasing, got {t_span!r}")
    y = complex(beta_init)
    if not (math.isfinite(y.real) and math.isfinite(y.imag)):
        raise ValueError(f"beta_init must be finite, got {beta_init!r}")
    # Local-error control alone lets global error build to ~60x the step
    # tolerance over a multi-cycle run; dividing by 10 keeps the end-to-end
    # error under 10*tol against closed-form linear solutions.
    rtol = max(tol / 10.0, 1e-13)
    atol = rtol * max(1.0, abs(y))
    yr, yi = y.real, y.imag
    # mean_field_rhs on (re, im), in complex arithmetic's operation order, is
    # (g re - c im, g im + c re - w), c = delta + k (re*re + im*im + 1)
    delta, k = params.delta_ml, 12.0 * params.eta
    g, w = -(params.gamma_b / 2.0), 0.5 * params.Omega
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf

    ts = [t]
    yrs, yis = [yr], [yi]
    complete = True
    n_rhs = n_rejected = 0
    if t < t_end:
        c = delta + k * (yr * yr + yi * yi + 1.0)
        k1r, k1i = g * yr - c * yi, g * yi + c * yr - w
        # Hairer-Norsett-Wanner initial step (Solving ODEs I, Sec. II.4): RMS
        # norms, each part over its scale, of y, f(y) and f's change over h0
        s_re = atol + abs(yr) * rtol
        s_im = atol + abs(yi) * rtol
        d0, d1 = (sqrt((a / s_re) * (a / s_re) + (b / s_im) * (b / s_im)) / 2.0 ** 0.5
                  for a, b in ((yr, yi), (k1r, k1i)))
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        # a zero step (the derivative overflowed) becomes NaN, as a NaN
        # derivative makes it: h_abs is then NaN, which fails the loop's size
        # test and ends the run with complete=False
        h0 = min(h0, t_end - t) or math.nan
        xr, xi = yr + h0 * k1r, yi + h0 * k1i
        c = delta + k * (xr * xr + xi * xi + 1.0)
        a, b = (g * xr - c * xi - k1r) / s_re, (g * xi + c * xr - w - k1i) / s_im
        d2 = sqrt(a * a + b * b) / 2.0 ** 0.5 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        h_abs = min(100.0 * h0, h1, t_end - t)
        n_rhs = 2

    # The loop runs ~10^5 times per sweep, so it is straight-line float code:
    # each stage is the right-hand side above written out, the error norm is
    # the RMS norm of the initial step, and abs/min/max are comparisons that
    # pick the operand the call would; a zero of the other sign only ever
    # feeds atol + x * rtol.
    while t < t_end:
        min_step = 10.0 * (nextafter(t, inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        ayr = yr if yr > 0.0 else -yr
        ayi = yi if yi > 0.0 else -yi
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = h_abs = t_new - t
            xr = yr + 1 / 5 * k1r * h
            xi = yi + 1 / 5 * k1i * h
            c = delta + k * (xr * xr + xi * xi + 1.0)
            k2r, k2i = g * xr - c * xi, g * xi + c * xr - w
            xr = yr + (3 / 40 * k1r + 9 / 40 * k2r) * h
            xi = yi + (3 / 40 * k1i + 9 / 40 * k2i) * h
            c = delta + k * (xr * xr + xi * xi + 1.0)
            k3r, k3i = g * xr - c * xi, g * xi + c * xr - w
            xr = yr + (44 / 45 * k1r - 56 / 15 * k2r + 32 / 9 * k3r) * h
            xi = yi + (44 / 45 * k1i - 56 / 15 * k2i + 32 / 9 * k3i) * h
            c = delta + k * (xr * xr + xi * xi + 1.0)
            k4r, k4i = g * xr - c * xi, g * xi + c * xr - w
            xr = yr + (19372 / 6561 * k1r - 25360 / 2187 * k2r + 64448 / 6561 * k3r
                       - 212 / 729 * k4r) * h
            xi = yi + (19372 / 6561 * k1i - 25360 / 2187 * k2i + 64448 / 6561 * k3i
                       - 212 / 729 * k4i) * h
            c = delta + k * (xr * xr + xi * xi + 1.0)
            k5r, k5i = g * xr - c * xi, g * xi + c * xr - w
            xr = yr + (9017 / 3168 * k1r - 355 / 33 * k2r + 46732 / 5247 * k3r
                       + 49 / 176 * k4r - 5103 / 18656 * k5r) * h
            xi = yi + (9017 / 3168 * k1i - 355 / 33 * k2i + 46732 / 5247 * k3i
                       + 49 / 176 * k4i - 5103 / 18656 * k5i) * h
            c = delta + k * (xr * xr + xi * xi + 1.0)
            k6r, k6i = g * xr - c * xi, g * xi + c * xr - w
            ynr = yr + h * (35 / 384 * k1r + 500 / 1113 * k3r + 125 / 192 * k4r
                            - 2187 / 6784 * k5r + 11 / 84 * k6r)
            yni = yi + h * (35 / 384 * k1i + 500 / 1113 * k3i + 125 / 192 * k4i
                            - 2187 / 6784 * k5i + 11 / 84 * k6i)
            c = delta + k * (ynr * ynr + yni * yni + 1.0)
            k7r, k7i = g * ynr - c * yni, g * yni + c * ynr - w
            ar = ynr if ynr > 0.0 else -ynr
            ai = yni if yni > 0.0 else -yni
            er = ((-71 / 57600 * k1r + 71 / 16695 * k3r - 71 / 1920 * k4r
                   + 17253 / 339200 * k5r - 22 / 525 * k6r + 1 / 40 * k7r) * h
                  / (atol + (ar if ar > ayr else ayr) * rtol))
            ei = ((-71 / 57600 * k1i + 71 / 16695 * k3i - 71 / 1920 * k4i
                   + 17253 / 339200 * k5i - 22 / 525 * k6i + 1 / 40 * k7i) * h
                  / (atol + (ai if ai > ayi else ayi) * rtol))
            err_norm = sqrt(er * er + ei * ei) / 2.0 ** 0.5
            if err_norm < 1.0:
                factor = 10.0 if err_norm == 0.0 else 0.9 * err_norm ** -0.2
                limit = 1.0 if rejected else 10.0
                h_abs *= factor if factor < limit else limit
                break
            factor = 0.9 * err_norm ** -0.2
            h_abs *= factor if factor > 0.2 else 0.2
            rejected = True
            n_rejected += 1
        else:
            complete = False
            break
        ts.append(t_new)
        yrs.append(ynr)
        yis.append(yni)
        t, yr, yi, k1r, k1i = t_new, ynr, yni, k7r, k7i

    return Trajectory(
        t=ts,
        beta=list(map(complex, yrs, yis)),
        omega_applied=[params.Omega] * len(ts),
        complete=complete,
        n_rhs=n_rhs + 6 * (len(ts) - 1 + n_rejected),
        n_rejected=n_rejected,
    )


class _RampFields(NamedTuple):
    omega_start: float
    omega_end: float
    n_steps: int
    dwell: float


class RampProtocol(_Validated, _RampFields):
    """Stepped quasi-static ramp of the drive amplitude.

    The drive moves linearly from ``omega_start`` to ``omega_end`` in
    ``n_steps`` plateaus of ``dwell`` seconds each; the mode relaxes on each
    plateau before the amplitude moves again.  ``n_steps`` may be of any
    integral type; it is stored as an int.
    """

    __slots__ = ()

    def __new__(cls, omega_start: float, omega_end: float, n_steps: int, dwell: float):
        # The count first: math.isfinite overflows on an integer beyond float range.
        if not hasattr(n_steps, "__index__") or not 3 <= n_steps <= sys.float_info.max:
            raise ValueError(f"need a finite integer of at least 3 ramp steps, got {n_steps!r}")
        return super().__new__(cls, omega_start, omega_end, operator.index(n_steps), dwell)

    def _check(self) -> None:
        fields = (self.omega_start, self.omega_end, self.dwell)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError(f"ramp fields must be finite, got {fields!r}")
        if self.omega_start < 0.0 or self.omega_end < 0.0:
            raise ValueError("drive amplitudes must be >= 0")
        if self.omega_start == self.omega_end:
            raise ValueError("ramp endpoints must differ")
        if not self.dwell > 0.0:
            raise ValueError(f"dwell must be positive, got {self.dwell!r}")

    @property
    def direction(self) -> str:
        return "up" if self.omega_end > self.omega_start else "down"

    def amplitudes(self) -> list[float]:
        """The plateau drives, ``np.linspace(omega_start, omega_end, n_steps)`` bit for bit."""
        return _linspace(float(self.omega_start), float(self.omega_end), self.n_steps)

    def reversed(self) -> "RampProtocol":
        return RampProtocol(self.omega_end, self.omega_start, self.n_steps, self.dwell)


class JumpEvent(NamedTuple):
    """Fold crossing: the first plateau whose end state left its branch.

    ``drive`` is the midpoint of the two plateau amplitudes bracketing the
    jump; ``delta_eff_before`` is the effective detuning of the last settled
    plateau on the branch being left.  Because the occupation varies steeply
    near a fold, this approaches the fold coordinate only as the ramp grid is
    refined; the drive coordinates converge much faster.
    """

    drive: float
    n_before: float
    n_after: float
    delta_eff_before: float


class SweepResult(NamedTuple):
    """One quasi-static ramp: per-plateau end states plus its fold crossing.

    ``trajectory`` holds one sample per plateau: its drive, end state and
    occupation.  ``turning`` is the closed-form fold pair (None when the
    S-curve does not fold); ``jump`` is the first fold crossing, or None:
    n[k-1] <= n_low < n[k] on an up ramp, n[k-1] >= n_high > n[k] on a down
    ramp.
    """

    trajectory: Trajectory
    jump: JumpEvent | None
    direction: str
    turning: TurningPoints | None


def _fold_crossing(
    drives: list[float], n: list[float], delta_ml: float, eta: float,
    turning: TurningPoints | None, direction: str,
) -> JumpEvent | None:
    """The first plateau whose occupation crosses the fold in the ramp direction."""
    if turning is None:
        return None
    sign, fold = (1.0, turning.n_low) if direction == "up" else (-1.0, turning.n_high)
    for k in range(1, len(n)):
        if sign * n[k - 1] <= sign * fold < sign * n[k]:
            return JumpEvent(
                drive=0.5 * (drives[k - 1] + drives[k]),
                n_before=n[k - 1],
                n_after=n[k],
                delta_eff_before=delta_ml + 24.0 * eta * n[k - 1],
            )
    return None


def _plateaus(
    delta_ml: float,
    gamma_b: float,
    eta: float,
    protocol: RampProtocol,
    beta: complex,
    tol: float,
    source: _Worker | None = None,
    emit: Callable[[tuple], None] | None = None,
) -> list[tuple]:
    """Step the plateaus of ``protocol`` from ``beta``: one record per plateau.

    A record is (Re beta, Im beta, n_rhs, n_rejected, complete) of the
    plateau's end state; the loop ends after the last drive or the first
    incomplete plateau.  ``emit`` receives each record as it is stepped.

    ``source.poll()`` returns, in order, the records that another chain over
    the same drives has finished since the last call.  Each plateau is a
    function of its start state alone, so once one of those records equals
    this chain's record of the same plateau bit for bit, the two chains are
    one from there on: the loop takes every record the source has finished
    in place of stepping it, moves its state to the last one taken, and steps
    only where the source has not got yet.  It never waits for the source.
    """
    drives = protocol.amplitudes()
    records: list[tuple] = []
    ahead: list[tuple] = []
    checked, matched = 0, False
    while len(records) < len(drives):
        p = MeanFieldParams(delta_ml=delta_ml, Omega=drives[len(records)], gamma_b=gamma_b,
                            eta=eta)
        traj = integrate(p, beta, (0.0, protocol.dwell), tol=tol)
        beta = traj.beta[-1]
        records.append((beta.real, beta.imag, traj.n_rhs, traj.n_rejected, traj.complete))
        if emit is not None:
            emit(records[-1])
        if not traj.complete:
            break
        if source is None:
            continue
        ahead += source.poll()
        while not matched and checked < min(len(ahead), len(records)):
            matched = _STATE.pack(*ahead[checked][:2]) == _STATE.pack(*records[checked][:2])
            checked += 1
        if matched and len(ahead) > len(records):
            for record in ahead[len(records):len(drives)]:
                records.append(record)
                if not record[4]:
                    return records
            beta = complex(records[-1][0], records[-1][1])
    return records


def _sweep(
    delta_ml: float, gamma_b: float, eta: float, protocol: RampProtocol, records: list[tuple],
) -> SweepResult:
    """The sweep of ``protocol`` whose plateaus :func:`_plateaus` recorded."""
    beta = [complex(re, im) for re, im, *_ in records]
    drives = protocol.amplitudes()[: len(beta)]
    trajectory = Trajectory(
        t=[(k + 1) * protocol.dwell for k in range(len(beta))], beta=beta,
        omega_applied=drives, complete=records[-1][4],
        n_rhs=sum(r[2] for r in records), n_rejected=sum(r[3] for r in records),
    )
    turning = _physical_folds(delta_ml, eta, gamma_b)
    return SweepResult(
        trajectory=trajectory,
        jump=_fold_crossing(drives, trajectory.n, delta_ml, eta, turning, protocol.direction),
        direction=protocol.direction,
        turning=turning,
    )


def quasi_static_sweep(
    delta_ml: float,
    gamma_b: float,
    eta: float,
    protocol: RampProtocol,
    beta_init: complex = 0.0 + 0.0j,
    tol: float = 1e-8,
) -> SweepResult:
    """Ramp the drive amplitude through its plateaus and record the end states.

    Each plateau is integrated for ``protocol.dwell`` seconds from the end
    state of the previous one.  A dwell much shorter than the damping time
    cannot settle; that case is run as given (the CLI prints a warning).
    """
    records = _plateaus(delta_ml, gamma_b, eta, protocol, complex(beta_init), tol)
    return _sweep(delta_ml, gamma_b, eta, protocol, records)


class _Worker:
    """A forked process stepping a ramp ahead of the parent, read as a record source.

    :func:`_fork_worker` starts it; the parent reads it with :meth:`poll`,
    which never blocks, and must :meth:`close` it, which kills and reaps it.
    """

    __slots__ = ("pid", "fd", "pending")

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd, self.pending = pid, fd, b""

    def poll(self) -> list[tuple]:
        """The records written since the last call; a partial record waits for its rest."""
        try:
            self.pending += os.read(self.fd, 1 << 16)
        except BlockingIOError:
            return []
        whole = len(self.pending) - len(self.pending) % _RECORD.size
        records = list(_RECORD.iter_unpack(self.pending[:whole]))
        self.pending = self.pending[whole:]
        return records

    def close(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.fd)


def _fork_worker(
    delta_ml: float, gamma_b: float, eta: float, protocol: RampProtocol, tol: float,
) -> _Worker | None:
    """Fork a worker that steps ``protocol`` from the steady root at its first drive.

    Returns None, and starts nothing, where the worker cannot pay: without
    ``os.fork``, on fewer than two CPUs, without damping (start states would
    never be forgotten), or where the first drive has no steady root.  The
    worker runs at nice 19, writes one record of :func:`_plateaus` per plateau
    to a pipe, exits by its next plateau once its parent is gone, and leaves
    only through ``os._exit``, so no handler of the caller runs twice.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2 or not gamma_b > 0.0:
        return None
    top = MeanFieldParams(delta_ml=delta_ml, Omega=protocol.omega_start, gamma_b=gamma_b, eta=eta)
    try:
        beta = beta_from_n(top, steady_occupations(top)[0])
    except (ValueError, ResonanceError):
        return None
    read, write = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        try:
            os.close(read)
            os.nice(19)

            def emit(record: tuple) -> None:
                if os.getppid() != parent:
                    os._exit(0)
                os.write(write, _RECORD.pack(*record))

            _plateaus(delta_ml, gamma_b, eta, protocol, beta, tol, emit=emit)
        finally:
            os._exit(0)
    os.close(write)
    os.set_blocking(read, False)
    return _Worker(pid, read)


class HysteresisResult(NamedTuple):
    """Up/down sweep pair (each with its own ``jump``) and enclosed loop area.

    ``loop_area`` is the integral of (n_down - n_up) over the drive range:
    positive inside a bistability window, ~0 for a monostable curve.
    """

    up: SweepResult
    down: SweepResult
    loop_area: float


def hysteresis_sweep(
    delta_ml: float,
    gamma_b: float,
    eta: float,
    protocol_up: RampProtocol,
    tol: float = 1e-8,
) -> HysteresisResult:
    """Run an up ramp, then its reverse from the final state, and compare.

    The down ramp's drives, ``linspace(hi, lo, n)``, equal the up grid only
    to rounding (a few differ in the last bit), so each branch is integrated
    by the trapezoid rule on its own plateaus.  The terms (x0 - x1)(y0 + y1)/2
    along both ramps are +integral(n_down) on the falling drive and
    -integral(n_up) on the rising one; ``loop_area`` is their ``math.fsum``.
    A forked worker may step part of the down ramp (see the module
    docstring); the result is the sequential one bit for bit.
    """
    if protocol_up.direction != "up":
        raise ValueError("protocol_up must ramp the amplitude upward")
    protocol_down = protocol_up.reversed()
    worker = _fork_worker(delta_ml, gamma_b, eta, protocol_down, tol)
    try:
        up = quasi_static_sweep(delta_ml, gamma_b, eta, protocol_up, tol=tol)
        records = _plateaus(delta_ml, gamma_b, eta, protocol_down, up.trajectory.beta[-1], tol,
                            source=worker)
    finally:
        if worker is not None:
            worker.close()
    down = _sweep(delta_ml, gamma_b, eta, protocol_down, records)
    terms = []
    for sweep in (up, down):
        x, y = sweep.trajectory.omega_applied, sweep.trajectory.n
        terms += [(x0 - x1) * (y0 + y1) / 2.0 for x0, x1, y0, y1 in zip(x, x[1:], y, y[1:])]
    return HysteresisResult(up=up, down=down, loop_area=math.fsum(terms))
