"""Time evolution of the driven mode and quasi-static hysteresis sweeps.

The rotating-frame amplitude follows the mean-field equation of
:mod:`libration.steadystate`; here it is integrated in time, either for one
fixed drive or along a stepped drive-amplitude ramp.  Ramping the amplitude
slowly up and then back down traces the lower and upper stable branches of the
S-curve and jumps at the fold points, which is how the hysteresis loop and the
(drive, effective-detuning) jump coordinates are extracted.

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
from scipy.integrate import solve_ivp, trapezoid

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


def _rhs_real(t: float, y: np.ndarray, params: MeanFieldParams) -> list[float]:
    d = mean_field_rhs(complex(y[0], y[1]), params)
    return [d.real, d.imag]


def integrate(
    params: MeanFieldParams,
    beta_init: complex = 0.0 + 0.0j,
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-8,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the mean-field equation with an adaptive RK45 stepper.

    ``tol`` is the accuracy target for the trajectory: the stepper is run
    a fixed safety factor tighter than ``tol`` so that the accumulated
    (global) error stays below ``tol`` at benchmark amplitude scales, not
    just the per-step local error.  On integrator failure the partial
    trajectory up to the failure time is returned with ``complete=False``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    y0 = [beta_init.real, beta_init.imag]
    # Local-error control alone lets global error build to ~60x the step
    # tolerance over a multi-cycle run; dividing by 10 keeps the end-to-end
    # error under 10*tol against closed-form linear solutions.
    solver_tol = max(tol / 10.0, 1e-13)
    atol = solver_tol * max(1.0, abs(beta_init))
    sol = solve_ivp(
        _rhs_real,
        t_span,
        y0,
        method="RK45",
        rtol=solver_tol,
        atol=atol,
        t_eval=t_eval,
        args=(params,),
        dense_output=False,
    )
    beta = sol.y[0] + 1j * sol.y[1]
    omega = np.full(sol.t.shape, params.Omega)
    return Trajectory(t=sol.t, beta=beta, omega_applied=omega, complete=(sol.status == 0))


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
        if self.omega_start < 0.0 or self.omega_end < 0.0:
            raise ValueError("drive amplitudes must be >= 0")
        if self.omega_start == self.omega_end:
            raise ValueError("ramp endpoints must differ")
        if self.n_steps < 3:
            raise ValueError(f"need at least 3 ramp steps, got {self.n_steps!r}")
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
    """Up/down sweep pair with jump coordinates and enclosed loop area.

    ``loop_area`` is the integral of (n_down - n_up) over the common drive
    range: positive inside a bistability window, ~0 for a monostable curve.
    """

    up: SweepResult
    down: SweepResult
    jump_up: JumpEvent | None
    jump_down: JumpEvent | None
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
    loop_area = float(trapezoid(n_down - n_up, grid))
    return HysteresisResult(
        up=up,
        down=down,
        jump_up=up.jump,
        jump_down=down.jump,
        loop_area=loop_area,
    )
