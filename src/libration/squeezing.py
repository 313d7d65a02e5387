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

With gas damping the variances come from :func:`moment_oracle`, the exact
closed-form solution of the uniformly damped second-moment equations, built
on the same g1 and g2.  The tests hold both to independent references in
``tests/oracles.py``: a Pade matrix exponential, DOP853 integration and mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SqueezeParams",
    "VarianceTrace",
    "squeeze_params",
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
        """lam_p^2 = xi^2 - lam^2 (signed; negative in the oscillatory regime),
        factored so that it keeps its relative accuracy near the degenerate band."""
        return (self.xi - self.lam) * (self.xi + self.lam)

    @property
    def lambda_p(self) -> complex:
        """Principal square root of lam_p^2 (imaginary when oscillatory)."""
        return cmath.sqrt(self.lambda_p_sq)

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


def _quadratures(params: SqueezeParams, k0, k1, k2) -> tuple:
    """(S_theta, S_J) per unit (2 nbar + 1)/4 of the moments (k0 + k1 B + k2 B^2)
    applied to the m axis: g1 = 4 k2 and g2 = 2 k1 in the closed forms."""
    c2, s2 = math.cos(2.0 * params.phi), math.sin(2.0 * params.phi)
    xi, lam, g1, g2 = params.xi, params.lam, 4.0 * k2, 2.0 * k1
    return (k0 + xi * (xi - lam * c2) * g1 - xi * s2 * g2,
            k0 + xi * (xi + lam * c2) * g1 + xi * s2 * g2)


def _damped(t, gamma: float, params: SqueezeParams, e1, e2) -> tuple:
    """(h0, h1, h2) of e^{(B - gamma) t} = h0 + h1 B + h2 B^2 and (a0, a1, a2) of
    int_0^t e^{(B - gamma) s} ds, for gamma > 0, given e1 and e2.

    h1, h2 = e^{-gamma t} (e1, e2), or where |mu t| > 1 (mu = 2 lam_p) the same
    from e^{(+-mu - gamma) t}, finite while e^{|mu| t} may not be.  a2 =
    int_0^t e^{-gamma s} (cosh(mu s) - 1)/mu^2 ds takes the exact form that does
    not cancel: its Taylor series in t where |mu t| < 1/2 and gamma t < 1; where
    gamma t >= 1 away from threshold, the B part of (B - gamma) int = e^{(B -
    gamma) t} - 1; else the phi_1 divided difference.  The B^2 part gives
    a1 = h2 + gamma a2, a sum of non-negative terms."""
    x = gamma * t
    mu, mu2 = 2.0 * params.lambda_p, 4.0 * params.lambda_p_sq
    h0, a0 = np.exp(-x), -np.expm1(-x) / gamma
    z = np.array([(mu - gamma) * t, -(mu + gamma) * t])
    ez, far = np.exp(z), np.abs(mu * t) > 1.0
    h1 = np.where(far, ((ez[0] - ez[1]) / (2.0 * mu)).real, h0 * e1)
    h2 = np.where(far, (0.5 * (ez[0] + ez[1]).real - h0) / mu2, h0 * e2)
    # (u, v, w)_n t^n: the s^n/n! coefficients of the 1, B and B^2 parts of
    # e^{(B - gamma) s}, so that a2 = t^3 sum_n w_n / (n + 1)!
    u, v, w, series = np.ones_like(t), 0.0 * t, 0.0 * t, 0.0 * t
    m2 = mu2 * t * t
    for n in range(2, 26):
        u, v, w = m2 * v - x * u, u - x * v, v - x * w
        series += w / math.factorial(n)
    phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / np.where(z == 0.0, 1.0, z)).real
    by_series = (np.abs(m2) < 0.25) & (x < 1.0)
    by_relation = (x >= 1.0) & (abs(gamma * gamma - mu2) >= 0.5 * gamma * gamma)
    a2 = np.where(by_series, t ** 3 * series, np.where(
        by_relation, (a0 - h1 - gamma * h2) / (gamma * gamma - mu2),
        (0.5 * t * (phi1[0] + phi1[1]) - a0) / mu2))
    return (h0, h1, h2), (a0, h2 + gamma * a2, a2)


def _variances(t, params: SqueezeParams, gamma: float = 0.0,
               nbar_bath: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(S_theta, S_J) a time t after the thermal start, damped at rate gamma.

    k = (1, e1, e2) of e^{B t} = 1 + e1 B + e2 B^2, with e1 = t sinhc(2 lam_p t)
    and e2 = (t^2/2) sinhc(lam_p t)^2 since B^3 = 4 lam_p^2 B.
    """
    pref = (2.0 * params.nbar + 1.0) / 4.0
    z = params.lambda_p * t
    k = (1.0, t * _sinhc(2.0 * z).real, 0.5 * t * t * _sinhc(z).real ** 2)
    if gamma > 0.0:  # y0 decays, and the bath feeds in (a0 + a1 B + a2 B^2) f
        h, a = _damped(t, gamma, params, k[1], k[2])
        bath = gamma * (2.0 * nbar_bath + 1.0) / (4.0 * pref)
        k = tuple(hi + bath * ai for hi, ai in zip(h, a))
    s_theta, s_j = _quadratures(params, *k)
    return pref * s_theta, pref * s_j


def variance_theta_closed(t, params: SqueezeParams):
    """Angle variance S_theta(t) (in units of theta0^2), closed form."""
    out = _variances(np.asarray(t, dtype=float), params)[0]
    return float(out) if np.isscalar(t) else out


def variance_J_closed(t, params: SqueezeParams):
    """Angular-momentum variance S_J(t) (in units of J0^2), closed form."""
    out = _variances(np.asarray(t, dtype=float), params)[1]
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class VarianceTrace:
    """Sampled variance evolution, with the regime the parameters fall in."""

    t: np.ndarray
    S_theta: np.ndarray
    S_J: np.ndarray
    regime: str
    nbar: float


def moment_oracle(
    params: SqueezeParams,
    t_grid: np.ndarray,
    gamma_b: float = 0.0,
    nbar_bath: float | None = None,
) -> VarianceTrace:
    """Variances from the exact closed-form solution of the moment equations.

    The second moments z = <b^2> and m = <b'b> of the quadratic model obey

        dz/dt = (2 i lam - gamma_b) z + i xi e^{2 i phi} (2 m + 1)
        dm/dt = 2 xi Im(e^{-2 i phi} z) - gamma_b (m - nbar_bath)

    with thermal initial conditions z = 0, m = nbar at t_grid[0].  On
    y = (Re z, Im z, m + 1/2) they read y' = (B - gamma_b) y + f, with f =
    gamma_b (nbar_bath + 1/2) along m, so at tau = t - t_grid[0]

        y = e^{-gamma_b tau} (1 + e1 B + e2 B^2) y0 + (a0 + a1 B + a2 B^2) f,

    where e1 and e2 are the coefficients of the undamped closed forms, to which
    this reduces bit for bit at gamma_b = 0.  No eigendecomposition is used,
    so the degenerate band (where B is defective) and the threshold
    2 lam_p = gamma_b need no special case.  S_theta = (Re z + m + 1/2)/2 and
    S_J = (m + 1/2 - Re z)/2.

    A negative or non-finite gamma_b or nbar_bath, or a t_grid that is not
    finite and increasing, raises ``ValueError``; moments that overflow raise
    ``RuntimeError``.
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
    with np.errstate(all="ignore"):  # overflow is reported just below
        s_theta, s_j = _variances(t_grid - t_grid[0], params, gamma_b, nbar_bath)
    if not (np.isfinite(s_theta).all() and np.isfinite(s_j).all()):
        raise RuntimeError("moment propagation overflowed")
    return VarianceTrace(t=t_grid, S_theta=s_theta, S_J=s_j, regime=params.regime,
                         nbar=params.nbar)


def thermal_squeezing_check(
    trace: VarianceTrace, nbar: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks where S_theta / S_J beat the thermal floor (2 nbar + 1)/4.

    For a vacuum initial state this reduces to the usual 1/4 criterion.  The
    ``squeeze`` command writes them as the 0/1 ``squeezed_*`` columns.
    """
    if nbar is None:
        nbar = trace.nbar
    floor = (2.0 * nbar + 1.0) / 4.0
    return trace.S_theta < floor, trace.S_J < floor
