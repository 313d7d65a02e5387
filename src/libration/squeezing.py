"""Variance dynamics of the linearized fluctuations about a steady amplitude.

Writing beta = r e^{i phi} + b for the fluctuation operator b, the quadratic
part of the rotating-frame Hamiltonian is

    H / hbar = -lam b'b - (xi/2) (e^{2i phi} b'^2 + e^{-2i phi} b^2),

with lam = delta_ml + 24 eta r^2 and xi = 12 eta r^2, so b evolves as
db/dt = i lam b + i xi e^{2i phi} b'.  The quadrature variances
S_theta = Var(theta)/theta0^2 and S_J = Var(J)/J0^2 of an initial thermal
state (occupation nbar, no initial correlations) evolve as

    S_theta(t) = (2 nbar + 1)/4 * [1 + xi (xi - lam cos 2phi) g1(t) - xi sin(2phi) g2(t)]
    S_J(t)     = (2 nbar + 1)/4 * [1 + xi (xi + lam cos 2phi) g1(t) + xi sin(2phi) g2(t)]

where g1 = (cosh(2 lam_p t) - 1)/lam_p^2 = 2 t^2 sinhc(lam_p t)^2 and
g2 = sinh(2 lam_p t)/lam_p = 2 t sinhc(2 lam_p t), with sinhc(z) = sinh(z)/z,
are entire functions of lam_p^2 = xi^2 - lam^2.  They are evaluated in that
sinhc form, in complex arithmetic, for every regime.  Three regimes follow
from the sign of lam_p^2, equivalently from the drive frequency relative to
the characteristic points omega_ml1 = omega_t - 36 eta r^2 and
omega_ml2 = omega_t - 12 eta r^2:

    hyperbolic   (omega_ml1 < omega_ml < omega_ml2): lam_p real, exponential
                 squeezing/antisqueezing; pure e^{-+2 lam_p t} decay at
                 phi = +-(1/2) arctan(lam_p / lam).
    oscillatory  (outside that window): lam_p = i lam_p', variances breathe
                 periodically with period pi / lam_p'.
    degenerate   (|lam_p^2| <= DEGENERATE_BAND * xi^2): the crossover, where
                 g1 ~ 2 t^2 and g2 ~ 2 t grow polynomially.

The closed forms are cross-checked against :func:`moment_oracle`, the ground
truth for the test suite: the exact propagator expm(A t) of the linear
second-moment equations (optionally damped), computed without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SqueezeParams",
    "VarianceTrace",
    "squeeze_params",
    "characteristic_frequencies",
    "exponential_angle",
    "variance_theta_closed",
    "variance_J_closed",
    "moment_oracle",
    "thermal_squeezing_check",
]

#: |lam_p^2| below this fraction of xi^2 is labelled the degenerate regime.
DEGENERATE_BAND = 1e-9


@dataclass(frozen=True)
class SqueezeParams:
    """Linearized-fluctuation parameters (all rad/s except the dimensionless nbar).

    lam  : effective detuning of the fluctuation mode, delta_ml + 24 eta r^2.
    xi   : parametric (down-conversion) strength, 12 eta r^2.
    phi  : phase angle of the steady amplitude; sets the squeezing direction.
    r    : modulus of the steady amplitude (dimensionless).
    nbar : initial thermal occupation of the fluctuation mode.
    """

    lam: float
    xi: float
    phi: float
    r: float
    nbar: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lam", "xi", "phi", "r", "nbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.xi < 0.0:
            raise ValueError(f"xi must be >= 0, got {self.xi!r}")
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r!r}")
        if self.nbar < 0.0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar!r}")

    @property
    def lambda_p_sq(self) -> float:
        """lam_p^2 = xi^2 - lam^2 (signed; negative in the oscillatory regime)."""
        return self.xi**2 - self.lam**2

    @property
    def lambda_p(self) -> complex:
        """Principal square root of lam_p^2 (imaginary when oscillatory)."""
        return complex(np.sqrt(complex(self.lambda_p_sq)))

    @property
    def regime(self) -> str:
        lps = self.lambda_p_sq
        if abs(lps) <= DEGENERATE_BAND * max(self.xi**2, 1e-300):
            return "degenerate"
        return "hyperbolic" if lps > 0.0 else "oscillatory"


def squeeze_params(
    delta_ml: float, eta: float, r: float, phi: float, nbar: float = 0.0
) -> SqueezeParams:
    """Fluctuation parameters about a steady amplitude r e^{i phi}."""
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta!r}")
    return SqueezeParams(
        lam=delta_ml + 24.0 * eta * r * r,
        xi=12.0 * eta * r * r,
        phi=phi,
        r=r,
        nbar=nbar,
    )


def characteristic_frequencies(omega_t: float, eta: float, r: float) -> tuple[float, float]:
    """Regime boundaries (omega_ml1, omega_ml2) = omega_t - (36, 12) eta r^2."""
    return omega_t - 36.0 * eta * r * r, omega_t - 12.0 * eta * r * r


def exponential_angle(params: SqueezeParams) -> float:
    """Angle phi* = (1/2) arctan(lam_p / lam) of pure exponential theta decay.

    Only meaningful in the hyperbolic regime, where S_theta at phi* is exactly
    ((2 nbar + 1)/4) e^{-2 lam_p t}; at -phi* it grows as e^{+2 lam_p t}.
    """
    if params.regime != "hyperbolic":
        raise ValueError("pure exponential decay needs the hyperbolic regime")
    lam_p = math.sqrt(params.lambda_p_sq)
    return 0.5 * math.atan2(lam_p, params.lam)


def _sinhc(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z in complex arithmetic, equal to 1 only at z = 0."""
    nonzero = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.sinh(nonzero) / nonzero)


def _variances(t, params: SqueezeParams) -> tuple[np.ndarray, np.ndarray]:
    tt = np.asarray(t, dtype=float)
    z = params.lambda_p * tt
    g1 = 2.0 * tt * tt * _sinhc(z).real ** 2
    g2 = 2.0 * tt * _sinhc(2.0 * z).real
    pref = (2.0 * params.nbar + 1.0) / 4.0
    c2 = math.cos(2.0 * params.phi)
    s2 = math.sin(2.0 * params.phi)
    xi, lam = params.xi, params.lam
    s_theta = pref * (1.0 + xi * (xi - lam * c2) * g1 - xi * s2 * g2)
    s_j = pref * (1.0 + xi * (xi + lam * c2) * g1 + xi * s2 * g2)
    return s_theta, s_j


def variance_theta_closed(t, params: SqueezeParams):
    """Angle variance S_theta(t) (in units of theta0^2), closed form."""
    out = _variances(t, params)[0]
    return float(out) if np.isscalar(t) else out


def variance_J_closed(t, params: SqueezeParams):
    """Angular-momentum variance S_J(t) (in units of J0^2), closed form."""
    out = _variances(t, params)[1]
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class VarianceTrace:
    """Sampled variance evolution, with the regime the parameters fall in."""

    t: np.ndarray
    S_theta: np.ndarray
    S_J: np.ndarray
    regime: str
    nbar: float


#: [13/13] Pade coefficients b_0 .. b_13 of exp, and the 1-norm up to which
#: that approximant is accurate to double precision (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in the stack ``a`` by Pade-13 scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), with one scaling
    2^-s that brings the largest 1-norm in the stack below theta_13."""
    s = max(0, math.frexp(float(np.abs(a).sum(axis=-2).max()) / _THETA13)[1])
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def moment_oracle(
    params: SqueezeParams,
    t_grid: np.ndarray,
    gamma_b: float = 0.0,
    nbar_bath: float | None = None,
) -> VarianceTrace:
    """Ground-truth variances from the exact propagator of the moment equations.

    The second moments z = <b^2> and m = <b'b> of the quadratic model obey

        dz/dt = (2 i lam - gamma_b) z + i xi e^{2 i phi} (2 m + 1)
        dm/dt = 2 xi Im(e^{-2 i phi} z) - gamma_b (m - nbar_bath)

    with thermal initial conditions z = 0, m = nbar at t_grid[0].  Appending a
    constant 1 to y = (Re z, Im z, m) makes this y' = A y with a 4x4 A (Van
    Loan, IEEE Trans. Autom. Control 23, 395 (1978)), so each sample is
    expm(A (t - t_grid[0])) y(t_grid[0]), exact and without stepping.  No
    eigendecomposition is used: A is defective in the degenerate band.

    The variances are S_theta = (2 Re z + 2 m + 1)/4 and
    S_J = (-2 Re z + 2 m + 1)/4.  With gamma_b = 0 this is an independent
    check of the closed forms; with damping it is the reference the closed
    (undamped) forms are compared against.  A negative or non-finite gamma_b
    or nbar_bath, or a t_grid that is not finite and increasing, raises
    ``ValueError``; moments that overflow raise ``RuntimeError``.
    """
    if nbar_bath is None:
        nbar_bath = params.nbar
    for name, value in (("gamma_b", gamma_b), ("nbar_bath", nbar_bath)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    t_grid = np.array(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must be a 1-d array with at least 2 samples")
    if not np.isfinite(t_grid).all() or (np.diff(t_grid) <= 0.0).any():
        raise ValueError("t_grid must be finite and increasing")
    lam, xi, g = params.lam, params.xi, gamma_b
    c2, s2 = math.cos(2.0 * params.phi), math.sin(2.0 * params.phi)
    a = np.array([
        [-g, -2.0 * lam, -2.0 * xi * s2, -xi * s2],
        [2.0 * lam, -g, 2.0 * xi * c2, xi * c2],
        [-2.0 * xi * s2, 2.0 * xi * c2, -g, g * nbar_bath],
        [0.0, 0.0, 0.0, 0.0],
    ])
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        prop = _expm(a * (t_grid - t_grid[0])[:, None, None])
        y = prop[:, :, 2] * params.nbar + prop[:, :, 3]
    if not np.isfinite(y).all():
        raise RuntimeError("moment propagation overflowed")
    re_z, m = y[:, 0], y[:, 2]
    return VarianceTrace(
        t=t_grid,
        S_theta=(2.0 * re_z + 2.0 * m + 1.0) / 4.0,
        S_J=(-2.0 * re_z + 2.0 * m + 1.0) / 4.0,
        regime=params.regime,
        nbar=params.nbar,
    )


def thermal_squeezing_check(
    trace: VarianceTrace, nbar: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks where S_theta / S_J beat the thermal floor (2 nbar + 1)/4.

    For a vacuum initial state this reduces to the usual 1/4 criterion.
    """
    if nbar is None:
        nbar = trace.nbar
    floor = (2.0 * nbar + 1.0) / 4.0
    return trace.S_theta < floor, trace.S_J < floor
