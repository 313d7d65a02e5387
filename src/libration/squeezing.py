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
sinhc form for every regime.  Three regimes follow
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

:func:`moment_oracle` is the exact closed-form solution of the uniformly
damped second-moment equations, built on the same g1 and g2: plain Python,
sample by sample, with lists in its :class:`VarianceTrace`, so a ``squeeze``
run loads no numpy.  :func:`variance_theta_closed` and
:func:`variance_J_closed` are the vectorised array API of the undamped forms:
they evaluate in numpy, imported on their first call, and agree with
``moment_oracle`` to rounding.  The tests hold both to independent references
in ``tests/oracles.py``: a Pade matrix exponential, DOP853 integration and
mpmath.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from libration.model import _Validated

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


class _SqueezeFields(NamedTuple):
    lam: float
    xi: float
    phi: float
    r: float
    nbar: float = 0.0


class SqueezeParams(_Validated, _SqueezeFields):
    """Linearized-fluctuation parameters (all rad/s except the dimensionless nbar).

    lam  : effective detuning of the fluctuation mode, delta_ml + 24 eta r^2.
    xi   : parametric (down-conversion) strength, 12 eta r^2.
    phi  : phase angle of the steady amplitude; sets the squeezing direction.
    r    : modulus of the steady amplitude (dimensionless).
    nbar : initial thermal occupation of the fluctuation mode.
    """

    __slots__ = ()

    def _check(self) -> None:
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
        """The band test |lam_p^2| <= DEGENERATE_BAND * max(xi^2, 1e-300), made on
        lam_p^2 / xi^2 where xi^2 is above the floor, so that no xi overflows it."""
        xi, lam = self.xi, self.lam
        if xi * xi >= 1e-300:
            lps, band = (xi - lam) / xi * ((xi + lam) / xi), DEGENERATE_BAND
        else:
            lps, band = self.lambda_p_sq, DEGENERATE_BAND * 1e-300
        if abs(lps) <= band:
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


#: 1/n! for n = 2..25: the weights of the damped kernel's Taylor series.
_INV_FACTORIAL = tuple(1.0 / math.factorial(n) for n in range(2, 26))


def _weights(params: SqueezeParams) -> tuple[float, float, float, float]:
    """(pref, xi (xi - lam cos 2phi), xi (xi + lam cos 2phi), xi sin 2phi): the
    per-trace factors of the closed forms, pref = (2 nbar + 1)/4."""
    c2, s2 = math.cos(2.0 * params.phi), math.sin(2.0 * params.phi)
    xi, lam = params.xi, params.lam
    return (2.0 * params.nbar + 1.0) / 4.0, xi * (xi - lam * c2), xi * (xi + lam * c2), xi * s2


def _quadratures(weights: tuple, k0, k1, k2) -> tuple:
    """(S_theta, S_J) of the moments (k0 + k1 B + k2 B^2) applied to the m axis:
    g1 = 4 k2 and g2 = 2 k1 in the closed forms.  Floats or arrays alike."""
    pref, w_theta, w_j, w_s = weights
    g1, g2 = 4.0 * k2, 2.0 * k1
    return pref * (k0 + w_theta * g1 - w_s * g2), pref * (k0 + w_j * g1 + w_s * g2)


def _expm1(z: complex) -> complex:
    """e^z - 1 without cancellation near z = 0 (numpy's complex expm1)."""
    half = math.sin(0.5 * z.imag)
    return complex(math.expm1(z.real) * math.cos(z.imag) - 2.0 * half * half,
                   math.exp(z.real) * math.sin(z.imag))


def _damped(t: float, gamma: float, mu: complex, mu2: float, away: bool, undamped) -> tuple:
    """(h0, h1, h2) of e^{(B - gamma) t} = h0 + h1 B + h2 B^2 and (a0, a1, a2) of
    int_0^t e^{(B - gamma) s} ds, for gamma > 0, mu = 2 lam_p, mu2 = mu^2 and
    away = |gamma^2 - mu2| >= gamma^2 / 2 (away from threshold).

    h = e^{-gamma t} undamped(t) where |mu t| <= 1; beyond, where e^{|mu| t} may
    overflow, h1 and h2 come from e^{(+-mu - gamma) t}.  a2 =
    int_0^t e^{-gamma s} (cosh(mu s) - 1)/mu^2 ds takes the exact form that does
    not cancel: its Taylor series in t where |mu t| < 1/2 and gamma t < 1; where
    gamma t >= 1 away from threshold, the B part of (B - gamma) int = e^{(B -
    gamma) t} - 1; else the phi_1 divided difference.  Only that one branch is
    evaluated.  The B^2 part gives a1 = h2 + gamma a2, a sum of non-negative terms."""
    x = gamma * t
    h0, a0 = math.exp(-x), -math.expm1(-x) / gamma
    z = ((mu - gamma) * t, -(mu + gamma) * t)
    if abs(mu * t) > 1.0:
        ez = (cmath.exp(z[0]), cmath.exp(z[1]))
        h1 = ((ez[0] - ez[1]) / (2.0 * mu)).real
        h2 = (0.5 * (ez[0] + ez[1]).real - h0) / mu2
    else:
        h0, h1, h2 = (h0 * k for k in undamped(t))
    m2 = mu2 * t * t
    if abs(m2) < 0.25 and x < 1.0:
        # (u, v, w) t^n: the s^n/n! coefficients of the 1, B and B^2 parts of
        # e^{(B - gamma) s}, so that a2 = t^3 sum_n w_n / (n + 1)!
        u, v, w, series = 1.0, 0.0, 0.0, 0.0
        for inv in _INV_FACTORIAL:
            u, v, w = m2 * v - x * u, u - x * v, v - x * w
            series += w * inv
        a2 = t ** 3 * series
    elif x >= 1.0 and away:
        a2 = (a0 - h1 - gamma * h2) / (gamma * gamma - mu2)
    else:
        phi1 = [1.0 if zi == 0.0 else (_expm1(zi) / zi).real for zi in z]
        a2 = (0.5 * t * (phi1[0] + phi1[1]) - a0) / mu2
    return (h0, h1, h2), (a0, h2 + gamma * a2, a2)


def _variances(ts: list[float], params: SqueezeParams, gamma: float = 0.0,
               nbar_bath: float = 0.0) -> tuple[list[float], list[float]]:
    """(S_theta, S_J) at the times ts after the thermal start, damped at rate gamma.

    k = (1, e1, e2) of e^{B t} = 1 + e1 B + e2 B^2, with e1 = t sinhc(2 lam_p t)
    and e2 = (t^2/2) sinhc(lam_p t)^2 since B^3 = 4 lam_p^2 B.  sinhc is taken in
    real arithmetic: sinh(x)/x for real lam_p, sin(x)/x for imaginary lam_p.
    math raises ``OverflowError`` where a sample overflows, and ``ValueError``
    where it is not a number (the sine of an infinite phase).
    """
    lps = params.lambda_p_sq
    lp, fn = (math.sqrt(lps), math.sinh) if lps >= 0.0 else (math.sqrt(-lps), math.sin)

    def undamped(t: float) -> tuple[float, float, float]:
        x = lp * t
        if x == 0.0:
            return 1.0, t, 0.5 * t * t
        s = fn(x) / x
        return 1.0, t * (fn(2.0 * x) / (2.0 * x)), 0.5 * t * t * (s * s)

    weights = _weights(params)
    if gamma > 0.0:  # y0 decays, and the bath feeds in (a0 + a1 B + a2 B^2) f
        mu, mu2 = 2.0 * params.lambda_p, 4.0 * lps
        away = abs(gamma * gamma - mu2) >= 0.5 * gamma * gamma
        bath = gamma * (2.0 * nbar_bath + 1.0) / (4.0 * weights[0])

        def kernel(t: float) -> list[float]:
            h, a = _damped(t, gamma, mu, mu2, away, undamped)
            return [hi + bath * ai for hi, ai in zip(h, a)]
    else:
        kernel = undamped
    s = [_quadratures(weights, *kernel(t)) for t in ts]
    return [si[0] for si in s], [si[1] for si in s]


def _closed(t, params: SqueezeParams) -> tuple:
    """(S_theta, S_J) of the undamped closed forms at the times t, vectorised.

    The array counterpart of ``_variances`` at gamma = 0, on the same weights
    but in numpy's complex arithmetic; floats for a scalar t.
    """
    import numpy as np  # only the array API loads numpy

    def sinhc(z):  # sinh(z)/z, equal to 1 only at z = 0
        nonzero = np.where(z == 0.0, 1.0, z)
        return np.where(z == 0.0, 1.0, np.sinh(nonzero) / nonzero).real

    times = np.asarray(t, dtype=float)
    z = params.lambda_p * times
    s_theta, s_j = _quadratures(_weights(params), 1.0, times * sinhc(2.0 * z),
                                0.5 * times * times * sinhc(z) ** 2)
    return (float(s_theta), float(s_j)) if np.isscalar(t) else (s_theta, s_j)


def variance_theta_closed(t, params: SqueezeParams):
    """Angle variance S_theta(t) (in units of theta0^2), closed form.

    A float for a scalar t, else a numpy array: the vectorised API, which
    loads numpy on its first call.
    """
    return _closed(t, params)[0]


def variance_J_closed(t, params: SqueezeParams):
    """Angular-momentum variance S_J(t) (in units of J0^2), closed form, as
    :func:`variance_theta_closed`."""
    return _closed(t, params)[1]


class VarianceTrace(NamedTuple):
    """Sampled variance evolution, with the regime the parameters fall in.

    ``t``, ``S_theta`` and ``S_J`` are lists of floats of equal length.
    """

    t: list[float]
    S_theta: list[float]
    S_J: list[float]
    regime: str
    nbar: float


def _times(t_grid) -> list[float]:
    """The samples of a 1-d sequence or numpy array of times, as floats."""
    items = t_grid.tolist() if hasattr(t_grid, "tolist") else t_grid
    try:  # float() refuses the rows of a 2-d array, and iteration a scalar
        times = [float(t) for t in items]
    except TypeError:
        times = []
    if len(times) < 2:
        raise ValueError("t_grid must be a 1-d array with at least 2 samples")
    if not all(map(math.isfinite, times)) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("t_grid must be finite and increasing")
    return times


def moment_oracle(
    params: SqueezeParams,
    t_grid,
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
    this reduces at gamma_b = 0.  No eigendecomposition is used, so the
    degenerate band (where B is defective) and the threshold 2 lam_p = gamma_b
    need no special case.  S_theta = (Re z + m + 1/2)/2 and S_J = (m + 1/2 -
    Re z)/2.  Plain Python, sample by sample: t_grid is any 1-d sequence of
    real numbers (a list or a numpy array), and the trace holds lists.

    A negative or non-finite gamma_b or nbar_bath, or a t_grid that is not
    1-d, finite and increasing, raises ``ValueError``; moments that overflow
    raise ``RuntimeError``.
    """
    if nbar_bath is None:
        nbar_bath = params.nbar
    for name, value in (("gamma_b", gamma_b), ("nbar_bath", nbar_bath)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    times = _times(t_grid)
    try:
        s_theta, s_j = _variances([t - times[0] for t in times], params, gamma_b, nbar_bath)
        if not all(map(math.isfinite, s_theta + s_j)):
            raise OverflowError
    except (OverflowError, ValueError):  # math raises where numpy returns inf or nan
        raise RuntimeError("moment propagation overflowed") from None
    return VarianceTrace(t=times, S_theta=s_theta, S_J=s_j, regime=params.regime,
                         nbar=params.nbar)


def thermal_squeezing_check(
    trace: VarianceTrace, nbar: float | None = None
) -> tuple[list[bool], list[bool]]:
    """Where S_theta / S_J beat the thermal floor (2 nbar + 1)/4, as lists of bools.

    For a vacuum initial state this reduces to the usual 1/4 criterion.  The
    ``squeeze`` command writes them as the 0/1 ``squeezed_*`` columns.
    """
    if nbar is None:
        nbar = trace.nbar
    floor = (2.0 * nbar + 1.0) / 4.0
    return [s < floor for s in trace.S_theta], [s < floor for s in trace.S_J]
