"""Calibration of detuning and damping from measured hysteresis jumps.

A frequency-locked drive whose amplitude is swept up and down jumps between
branches at the two fold points of the S-curve.  Each jump has a measurable
coordinate pair: the drive amplitude at which it happens and the effective
detuning delta_eff = delta_ml + 24 eta n of the branch just before it lets
go.  Given the four numbers (up and down jumps) and the particle's eta, the
fold formulas of :mod:`libration.steadystate` can be inverted for the two
unknowns (delta_ml, gamma_b) by least squares.

The module also carries the reference benchmark used by the acceptance tests:
a 50 nm diamond particle of eccentricity 0.9 at 10 mTorr whose measured jump
coordinates are listed below, together with the frozen fit results (these are
what :data:`libration.model.DEFAULT_DAMPING_PER_PASCAL` descends from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import least_squares

from libration.model import NanoparticleSpec, TrapConfig
from libration.steadystate import TurningPoints, turning_points

__all__ = [
    "JumpCoordinates",
    "CalibrationResult",
    "fit_turning_points",
    "REFERENCE_PARTICLE",
    "REFERENCE_TRAP",
    "REFERENCE_JUMPS",
    "REFERENCE_PRESSURE",
    "REFERENCE_TEMPERATURE",
    "REFERENCE_DELTA_ML",
    "REFERENCE_GAMMA_B",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class JumpCoordinates:
    """Measured hysteresis jump coordinates (all angular, rad/s).

    drive_up / delta_eff_up : drive amplitude and pre-jump effective detuning
        of the upward jump (lower branch folding).
    drive_down / delta_eff_down : the same for the downward jump.
    """

    drive_up: float
    delta_eff_up: float
    drive_down: float
    delta_eff_down: float

    def __post_init__(self) -> None:
        if not (self.drive_up > 0.0 and self.drive_down > 0.0):
            raise ValueError("jump drive amplitudes must be positive")
        if self.drive_down >= self.drive_up:
            raise ValueError("the downward jump must sit at lower drive than the upward one")


@dataclass(frozen=True)
class CalibrationResult:
    delta_ml: float
    gamma_b: float
    predicted: TurningPoints
    residuals: tuple[float, float, float, float]

    @property
    def max_residual(self) -> float:
        """Largest relative deviation among the four fitted coordinates."""
        return max(abs(r) for r in self.residuals)


def _predict(u: float, gamma_b: float, eta: float) -> TurningPoints | None:
    if gamma_b <= 0.0 or u >= -math.sqrt(3.0) * gamma_b / 2.0:
        return None
    delta = u + math.sqrt(3.0) * gamma_b / 2.0
    tp = turning_points(delta, eta, gamma_b)
    return tp if tp.physical else None


def fit_turning_points(
    measured: JumpCoordinates,
    eta: float,
    delta_ml_guess: float,
    gamma_b_guess: float,
) -> CalibrationResult:
    """Least-squares fit of (delta_ml, gamma_b) to measured jump coordinates.

    Minimizes the four relative residuals (drives and effective detunings of
    both folds).  The problem is overdetermined (four observations, two
    parameters), so the residuals of the optimum quantify how consistent the
    measurement is with the single-mode model.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta!r}")

    targets = (
        measured.drive_up,
        measured.delta_eff_up,
        measured.drive_down,
        measured.delta_eff_down,
    )
    scales = tuple(max(abs(x), 1e-30) for x in targets)

    def residuals(params):
        u, gamma_b = params
        tp = _predict(u, gamma_b, eta)
        if tp is None:
            return [1e3] * 4
        pred = (tp.drive_low, tp.delta_eff_low, tp.drive_high, tp.delta_eff_high)
        return [(p - t) / s for p, t, s in zip(pred, targets, scales)]

    fit = least_squares(
        residuals,
        x0=[delta_ml_guess + 12.0 * eta, gamma_b_guess],
        method="lm",
        xtol=1e-15,
        ftol=1e-15,
    )
    u, gamma_b = fit.x
    tp = _predict(u, gamma_b, eta)
    if tp is None:
        raise RuntimeError("calibration did not converge to a bistable working point")
    return CalibrationResult(
        delta_ml=u - 12.0 * eta,
        gamma_b=float(gamma_b),
        predicted=tp,
        residuals=tuple(residuals(fit.x)),
    )


# ---------------------------------------------------------------------------
# Reference benchmark: e = 0.9 diamond particle, amplitude-swept drive at
# 10 mTorr and room temperature.  Jump coordinates as measured (Hz values
# times 2 pi); fit results frozen from fit_turning_points with the nominal
# detuning -2pi*6007 rad/s quoted alongside the measured jumps, and
# gamma_b ~ 2e3 as the initial guess.
# ---------------------------------------------------------------------------

REFERENCE_PARTICLE = NanoparticleSpec.from_eccentricity(
    r_a=50e-9, eccentricity=0.9, density=3500.0, eps_r=5.7
)
REFERENCE_TRAP = TrapConfig(power=0.1, waist=0.6e-6)
REFERENCE_PRESSURE = 1.3332236842105263  # Pa (10 mTorr)
REFERENCE_TEMPERATURE = 300.0  # K

REFERENCE_JUMPS = JumpCoordinates(
    drive_up=TWO_PI * 1.55e6,
    delta_eff_up=-TWO_PI * 1.65e3,
    drive_down=TWO_PI * 466e3,
    delta_eff_down=TWO_PI * 5.89e3,
)

#: Frozen fit output for the reference particle (max residual 8.6%).
REFERENCE_DELTA_ML = -34283.6799057411  # rad/s  (~ -2 pi * 5456.4)
REFERENCE_GAMMA_B = 8012.985643210628  # rad/s  (~ 2 pi * 1275.3)
