"""Time evolution of the driven mode and quasi-static hysteresis sweeps.

The rotating-frame amplitude follows the mean-field equation of
:mod:`libration.steadystate`; here it is integrated in time, either for one
fixed drive or along a stepped drive-amplitude ramp.  Ramping the amplitude
slowly up and then back down traces the lower and upper stable branches of the
S-curve and jumps at the fold points, which is how the hysteresis loop and the
(drive, effective-detuning) jump coordinates are extracted.

The integrator is an adaptive Dormand-Prince 5(4) stepper written here for
the complex scalar amplitude.  It reproduces the tableau, error norm and step
controller of scipy's RK45, so it takes the same accepted steps, without
scipy's per-step overhead on a two-dimensional system; this module imports no
scipy.

A jump is a fold crossing: the first plateau whose occupation passes the
closed-form fold occupation of :func:`libration.steadystate.turning_points` in
the ramp direction (up past n_low, down past n_high), leaving the stable branch
it was following.  An S-curve that does not fold has no jumps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from libration.steadystate import MeanFieldParams, TurningPoints, turning_points

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

#: Default dwell per ramp step, in units of 1/gamma_b.
DWELL_DAMPING_CYCLES = 20.0


def mean_field_rhs(beta: complex, params: MeanFieldParams) -> complex:
    """d(beta)/dt = (i delta_ml - gamma_b/2 + 12 i eta (|beta|^2 + 1)) beta - i Omega/2."""
    n = beta.real * beta.real + beta.imag * beta.imag
    coef = 1j * (params.delta_ml + 12.0 * params.eta * (n + 1.0)) - params.gamma_b / 2.0
    return coef * beta - 0.5j * params.Omega


@dataclass(frozen=True)
class Trajectory:
    """Integrated rotating-frame trajectory.

    ``omega_applied`` holds the drive amplitude in force at each sample, so a
    stepped-ramp trajectory is self-describing.  ``complete`` is False when
    the integrator failed (step-size underflow) and the arrays only reach the
    failure time.
    """

    t: np.ndarray
    beta: np.ndarray
    omega_applied: np.ndarray
    complete: bool = True

    @property
    def n(self) -> np.ndarray:
        """Occupation |beta(t)|^2."""
        return np.abs(self.beta) ** 2

    def final_beta(self) -> complex:
        return complex(self.beta[-1])


# Dense-output weights of the Dormand-Prince pair for the optimum c_6 of
# Shampine (Math. Comp. 46, 135, 1986): row i weights stage k_{i+1} in the
# coefficients of x, x^2, x^3, x^4, where x is the fraction of the step.
_DENSE = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _rms(z: complex, scale_re: float, scale_im: float) -> float:
    """RMS norm of (z.real, z.imag), each part divided by its own scale."""
    a = z.real / scale_re
    b = z.imag / scale_im
    return math.sqrt(a * a + b * b) / 2.0 ** 0.5


def integrate(
    params: MeanFieldParams,
    beta_init: complex = 0.0 + 0.0j,
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-8,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the mean-field equation with an adaptive Dormand-Prince 5(4) stepper.

    The stepper (Dormand & Prince, J. Comput. Appl. Math. 6, 19, 1980) works
    on the complex amplitude and uses the step controller of scipy's RK45:
    RMS error norm over the real and imaginary parts, safety 0.9, step factor
    in [0.2, 10] with no growth right after a rejection, and the
    Hairer-Norsett-Wanner initial step.

    ``tol`` is the accuracy target for the trajectory: the stepper is run
    a fixed safety factor tighter than ``tol`` so that the accumulated
    (global) error stays below ``tol`` at benchmark amplitude scales, not
    just the per-step local error.  Without ``t_eval`` every accepted step is
    returned; with it, the trajectory is sampled at those (increasing, in
    span) times by the pair's fourth-order dense output.  When the step
    falls below 10 ulp of the time the partial trajectory up to that time is
    returned with ``complete=False``.  A zero-length span returns the start
    state.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    t, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_end) and t <= t_end):
        raise ValueError(f"t_span must be finite and increasing, got {t_span!r}")
    y = complex(beta_init)
    if not (math.isfinite(y.real) and math.isfinite(y.imag)):
        raise ValueError(f"beta_init must be finite, got {beta_init!r}")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or np.any(t_eval < t) or np.any(t_eval > t_end) or np.any(
            np.diff(t_eval) <= 0.0
        ):
            raise ValueError("t_eval must be 1-d, increasing and within t_span")
    # Local-error control alone lets global error build to ~60x the step
    # tolerance over a multi-cycle run; dividing by 10 keeps the end-to-end
    # error under 10*tol against closed-form linear solutions.
    rtol = max(tol / 10.0, 1e-13)
    atol = rtol * max(1.0, abs(y))
    rhs = mean_field_rhs  # looked up per call, so a wrapped RHS sees every evaluation

    ts = [t]
    ys = [y]
    n_eval = 0
    if t_eval is not None:
        n_eval = int(np.searchsorted(t_eval, t, side="right"))
        ts, ys = list(t_eval[:n_eval]), [y] * n_eval

    complete = True
    if t < t_end:
        k1 = rhs(y, params)
        # Hairer-Norsett-Wanner initial step (Solving ODEs I, Sec. II.4)
        s_re = atol + abs(y.real) * rtol
        s_im = atol + abs(y.imag) * rtol
        d0 = _rms(y, s_re, s_im)
        d1 = _rms(k1, s_re, s_im)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_end - t)
        d2 = _rms(rhs(y + h0 * k1, params) - k1, s_re, s_im) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        h_abs = min(100.0 * h0, h1, t_end - t)

    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            k2 = rhs(y + (1 / 5 * k1) * h, params)
            k3 = rhs(y + (3 / 40 * k1 + 9 / 40 * k2) * h, params)
            k4 = rhs(y + (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3) * h, params)
            k5 = rhs(
                y + (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                     - 212 / 729 * k4) * h,
                params,
            )
            k6 = rhs(
                y + (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                     + 49 / 176 * k4 - 5103 / 18656 * k5) * h,
                params,
            )
            y_new = y + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                             - 2187 / 6784 * k5 + 11 / 84 * k6)
            k7 = rhs(y_new, params)
            err = (-71 / 57600 * k1 + 71 / 16695 * k3 - 71 / 1920 * k4
                   + 17253 / 339200 * k5 - 22 / 525 * k6 + 1 / 40 * k7) * h
            err_norm = _rms(
                err,
                atol + max(abs(y.real), abs(y_new.real)) * rtol,
                atol + max(abs(y.imag), abs(y_new.imag)) * rtol,
            )
            if err_norm < 1.0:
                factor = 10.0 if err_norm == 0.0 else min(10.0, 0.9 * err_norm ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err_norm ** -0.2)
            rejected = True
        else:
            complete = False
            break
        if t_eval is None:
            ts.append(t_new)
            ys.append(y_new)
        else:
            stages = (k1, k2, k3, k4, k5, k6, k7)
            q = [sum(k * w[j] for k, w in zip(stages, _DENSE)) for j in range(4)]
            while n_eval < len(t_eval) and t_eval[n_eval] <= t_new:
                x = (t_eval[n_eval] - t) / h
                ts.append(t_eval[n_eval])
                ys.append(y + h * (q[0] * x + q[1] * x**2 + q[2] * x**3 + q[3] * x**4))
                n_eval += 1
        t, y, k1 = t_new, y_new, k7

    t_out = np.array(ts, dtype=float)
    return Trajectory(
        t=t_out,
        beta=np.array(ys, dtype=complex),
        omega_applied=np.full(t_out.shape, params.Omega),
        complete=complete,
    )


@dataclass(frozen=True)
class RampProtocol:
    """Stepped quasi-static ramp of the drive amplitude.

    The drive moves linearly from ``omega_start`` to ``omega_end`` in
    ``n_steps`` plateaus of ``dwell`` seconds each; the mode relaxes on each
    plateau before the amplitude moves again.
    """

    omega_start: float
    omega_end: float
    n_steps: int
    dwell: float

    def __post_init__(self) -> None:
        fields = (self.omega_start, self.omega_end, self.n_steps, self.dwell)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError(f"ramp fields must be finite, got {fields!r}")
        if self.omega_start < 0.0 or self.omega_end < 0.0:
            raise ValueError("drive amplitudes must be >= 0")
        if self.omega_start == self.omega_end:
            raise ValueError("ramp endpoints must differ")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 3:
            raise ValueError(f"need an integer of at least 3 ramp steps, got {self.n_steps!r}")
        if not self.dwell > 0.0:
            raise ValueError(f"dwell must be positive, got {self.dwell!r}")

    @classmethod
    def quasi_static(
        cls,
        omega_start: float,
        omega_end: float,
        gamma_b: float,
        n_steps: int,
        dwell_cycles: float = DWELL_DAMPING_CYCLES,
    ) -> "RampProtocol":
        """Ramp with dwell = dwell_cycles / gamma_b (default 20 damping times)."""
        if not gamma_b > 0.0:
            raise ValueError("quasi-static dwell needs gamma_b > 0")
        return cls(omega_start, omega_end, n_steps, dwell_cycles / gamma_b)

    @property
    def direction(self) -> str:
        return "up" if self.omega_end > self.omega_start else "down"

    @property
    def ramp_rate(self) -> float:
        """Mean amplitude slew rate in rad/s per second."""
        return (self.omega_end - self.omega_start) / (self.n_steps * self.dwell)

    def amplitudes(self) -> np.ndarray:
        return np.linspace(self.omega_start, self.omega_end, self.n_steps)

    def reversed(self) -> "RampProtocol":
        return RampProtocol(self.omega_end, self.omega_start, self.n_steps, self.dwell)


@dataclass(frozen=True)
class JumpEvent:
    """Fold crossing: the first plateau ``step`` whose end state left its branch.

    ``drive`` is the midpoint of the two plateau amplitudes bracketing the
    jump; ``delta_eff_before`` is the effective detuning of the last settled
    plateau on the branch being left.  Because the occupation varies steeply
    near a fold, this approaches the fold coordinate only as the ramp grid is
    refined; the drive coordinates converge much faster.
    """

    step: int
    drive: float
    drive_before: float
    drive_after: float
    n_before: float
    n_after: float
    delta_eff_before: float


@dataclass(frozen=True)
class SweepResult:
    """One quasi-static ramp: per-plateau end states plus its fold crossing.

    ``turning`` is the closed-form fold pair (None when the S-curve does not
    fold); ``jump`` is the first fold crossing, or None: n[k-1] <= n_low <
    n[k] on an up ramp, n[k-1] >= n_high > n[k] on a down ramp.
    """

    drives: np.ndarray
    beta: np.ndarray
    trajectory: Trajectory
    jump: JumpEvent | None
    direction: str
    turning: TurningPoints | None

    @property
    def n(self) -> np.ndarray:
        return np.abs(self.beta) ** 2


def _fold_crossing(
    drives: np.ndarray, n: np.ndarray, delta_ml: float, eta: float,
    turning: TurningPoints | None, direction: str,
) -> JumpEvent | None:
    """The first plateau whose occupation crosses the fold in the ramp direction."""
    if turning is None:
        return None
    sign, fold = (1.0, turning.n_low) if direction == "up" else (-1.0, turning.n_high)
    for k in range(1, len(n)):
        if sign * n[k - 1] <= sign * fold < sign * n[k]:
            return JumpEvent(
                step=k,
                drive=0.5 * (drives[k - 1] + drives[k]),
                drive_before=float(drives[k - 1]),
                drive_after=float(drives[k]),
                n_before=float(n[k - 1]),
                n_after=float(n[k]),
                delta_eff_before=delta_ml + 24.0 * eta * float(n[k - 1]),
            )
    return None


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
    cannot settle; that case is allowed but warned about.
    """
    if gamma_b > 0.0 and protocol.dwell * gamma_b < 0.5 * DWELL_DAMPING_CYCLES:
        warnings.warn(
            f"dwell*gamma_b = {protocol.dwell * gamma_b:.2f} < "
            f"{0.5 * DWELL_DAMPING_CYCLES}: sweep is not quasi-static",
            stacklevel=2,
        )
    drives = protocol.amplitudes()
    beta = np.empty(len(drives), dtype=complex)
    times = np.empty(len(drives))
    current = complex(beta_init)
    failed = False
    for k, w in enumerate(drives):
        p = MeanFieldParams(delta_ml=delta_ml, Omega=float(w), gamma_b=gamma_b, eta=eta)
        traj = integrate(p, current, (0.0, protocol.dwell), tol=tol)
        current = traj.final_beta()
        beta[k] = current
        times[k] = (k + 1) * protocol.dwell
        if not traj.complete:
            failed = True
            beta = beta[: k + 1]
            times = times[: k + 1]
            drives = drives[: k + 1]
            break
    trajectory = Trajectory(
        t=times, beta=beta, omega_applied=drives.astype(float), complete=not failed
    )
    tp = turning_points(delta_ml + 12.0 * eta + math.sqrt(3.0) * gamma_b / 2.0, eta, gamma_b)
    turning = tp if tp.physical else None
    return SweepResult(
        drives=drives.astype(float),
        beta=beta,
        trajectory=trajectory,
        jump=_fold_crossing(drives, trajectory.n, delta_ml, eta, turning, protocol.direction),
        direction=protocol.direction,
        turning=turning,
    )


@dataclass(frozen=True)
class HysteresisResult:
    """Up/down sweep pair (each with its own ``jump``) and enclosed loop area.

    ``loop_area`` is the integral of (n_down - n_up) over the common drive
    range: positive inside a bistability window, ~0 for a monostable curve.
    """

    up: SweepResult
    down: SweepResult
    loop_area: float


def hysteresis_sweep(
    delta_ml: float,
    gamma_b: float,
    eta: float,
    protocol_up: RampProtocol,
    protocol_down: RampProtocol | None = None,
    beta_init: complex = 0.0 + 0.0j,
    tol: float = 1e-8,
) -> HysteresisResult:
    """Run an up ramp, then a down ramp from the final state, and compare.

    The default down ramp retraces the up ramp's plateaus in reverse, so the
    two branches are sampled on the same drive grid and the loop area is a
    plain trapezoid integral of their difference.
    """
    if protocol_up.direction != "up":
        raise ValueError("protocol_up must ramp the amplitude upward")
    if protocol_down is None:
        protocol_down = protocol_up.reversed()
    if protocol_down.direction != "down":
        raise ValueError("protocol_down must ramp the amplitude downward")
    up = quasi_static_sweep(delta_ml, gamma_b, eta, protocol_up, beta_init, tol)
    down = quasi_static_sweep(
        delta_ml, gamma_b, eta, protocol_down, up.beta[-1], tol
    )
    grid = up.drives
    n_up = up.n
    n_down = np.interp(grid, down.drives[::-1], down.n[::-1])
    diff = n_down - n_up
    # the trapezoid rule in scipy's operation order
    loop_area = float((np.diff(grid) * (diff[1:] + diff[:-1]) / 2.0).sum())
    return HysteresisResult(up=up, down=down, loop_area=loop_area)
