"""Mean-field steady states of the driven nonlinear librational mode.

In a frame rotating at the drive frequency the mode amplitude beta obeys

    d(beta)/dt = (i*delta_ml - gamma_b/2 + 12i*eta*(|beta|^2 + 1)) * beta - i*Omega/2,

with detuning delta_ml = omega_ml - omega_t, damping gamma_b, nonlinearity eta
(negative Kerr shift per phonon enters as +12*eta*(n+1) on the detuning), and
coherent drive amplitude Omega.  Setting the time derivative to zero and taking
the modulus square gives a cubic in the occupation n = |beta_0|^2,

    n * [ gamma_b^2/4 + (u + 12*eta*n)^2 ] = Omega^2 / 4,     u = delta_ml + 12*eta,

whose one or three positive roots are the steady branches.  Linearizing about a
root gives a 2x2 fluctuation matrix with trace gamma_b and determinant equal to
the S-curve slope d(Omega^2/4)/dn = gamma_b^2/4 + (u + x)(u + 3x), x = 12*eta*n,
so its Routh-Hurwitz conditions (both positive) make the middle branch of an
S-curve, between the folds where the slope vanishes, always the unstable one.

In x the cubic reads F(x) = x (gamma_b^2/4 + (u + x)^2) = 3*eta*Omega^2.  Its
closed-form extrema x_low < x_high (the folds) give three roots exactly when
x_low > 0 and F(x_high) <= 3*eta*Omega^2 <= F(x_low), bracketed by [0, x_low],
[x_low, x_high] and [x_high, top]; otherwise one root lies in [0, top],
top = max(-u, 0) + (3*eta*Omega^2)^(1/3).  Newton's method on the same slope,
from the bracket end where the residual and its curvature share a sign
(Fourier's condition), converges monotonically; bisection takes over any step
that would leave the bracket (Kahan, "To Solve a Real Cubic Equation", 1986).
All frequencies are angular (rad/s).

Branches are solved in Python scalars: this module imports no numpy, so
``bistability`` runs without loading it.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from typing import NamedTuple, Sequence

from libration.model import _Validated

__all__ = [
    "MeanFieldParams",
    "ResonanceError",
    "Stability",
    "SteadyBranch",
    "TurningPoints",
    "BistabilityDiagram",
    "steady_occupations",
    "beta_from_n",
    "solve_branches",
    "effective_detuning",
    "bistability_condition",
    "turning_points",
    "sweep_diagram",
]

#: Residual bound enforced on returned roots: |cubic(n)| <= RESIDUAL_RTOL * Omega^2/4.
RESIDUAL_RTOL = 1e-9


class _MeanFieldFields(NamedTuple):
    delta_ml: float
    Omega: float
    gamma_b: float
    eta: float


class MeanFieldParams(_Validated, _MeanFieldFields):
    """Rotating-frame parameters of the driven mode (all rad/s).

    delta_ml : drive detuning omega_ml - omega_t (signed).
    Omega    : coherent drive amplitude, >= 0.
    gamma_b  : energy damping rate, >= 0.
    eta      : nonlinear shift per phonon, > 0.
    """

    __slots__ = ()

    def _check(self) -> None:
        for name in ("delta_ml", "Omega", "gamma_b", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.Omega >= 0.0:
            raise ValueError(f"Omega must be >= 0, got {self.Omega!r}")
        if not self.gamma_b >= 0.0:
            raise ValueError(f"gamma_b must be >= 0, got {self.gamma_b!r}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta!r}")

    @property
    def u(self) -> float:
        """Shifted detuning u = delta_ml + 12*eta (absorbs the +1 in n+1)."""
        return self.delta_ml + 12.0 * self.eta


class ResonanceError(RuntimeError):
    """A steady-state root that float64 cannot resolve to the residual contract.

    This happens for a root on the resonance, u + 12*eta*n ~ 0, with a tiny
    gamma_b: u + 12*eta*n resolves there only to ulp(u), so the residual is
    rounding noise that can exceed the bound at every float64 n.  ``params``
    is the drive point, ``bracket`` the (lo, hi) occupations searched, and
    ``n`` the root with the smallest residual, ``residual``.
    """

    def __init__(
        self, params: MeanFieldParams, bracket: tuple[float, float], n: float, residual: float
    ) -> None:
        self.params, self.bracket, self.n, self.residual = params, bracket, n, residual
        bound = RESIDUAL_RTOL * params.Omega**2 / 4.0
        super().__init__(
            f"steady-state root failed residual check at n={n!r} in [{bracket[0]!r}, "
            f"{bracket[1]!r}]: |residual| {abs(residual):.3g} > {bound:.3g} "
            f"(delta_ml={params.delta_ml!r}, Omega={params.Omega!r}, "
            f"gamma_b={params.gamma_b!r}, eta={params.eta!r})"
        )


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


class SteadyBranch(NamedTuple):
    """One steady-state solution of the driven mode.

    eigenvalues are those of the linearized fluctuation dynamics
    d(dbeta)/dt = -A dbeta; negative real parts mean a decaying perturbation.
    """

    n: float
    beta0: complex
    delta_eff: float
    eigenvalues: tuple[complex, complex]
    verdict: Stability
    tangent: bool = False

    @property
    def stable(self) -> bool:
        return self.verdict is Stability.STABLE


class TurningPoints(NamedTuple):
    """Saddle-node (fold) points of the steady-state S-curve.

    delta_eff_low/high are the effective detunings delta_ml + 24*eta*n at the
    two folds; width = delta_eff_high - delta_eff_low.  drive_low/high are the
    drive amplitudes at which the folds sit (the up-jump happens at drive_low's
    fold, the down-jump at drive_high's).  ``physical`` is False when the
    closed-form fold occupations come out negative, i.e. the formula has a real
    branch but the S-curve does not actually fold at positive occupation.
    """

    delta_eff_low: float | None
    delta_eff_high: float | None
    width: float
    drive_low: float | None
    drive_high: float | None
    n_low: float | None
    n_high: float | None
    physical: bool


class BistabilityDiagram(NamedTuple):
    """Steady branches sampled over a drive-amplitude grid at fixed detuning."""

    branches: tuple[tuple[float, SteadyBranch], ...]
    omega_ml: float
    omega_c: float
    regime: str  # "bistable" | "monostable" | "platform"
    turning: TurningPoints | None
    window_width: float


def _fold_x(u: float, gamma_b: float) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Folds (x_low, F(x_low)), (x_high, F(x_high)) of F(x) = x (gamma_b^2/4 + (u + x)^2).

    x = 12 eta n.  F'(x) = 3x^2 + 4ux + u^2 + gamma_b^2/4 vanishes at
    x = (-2u -+ s)/3, where u + x = (u -+ s)/3, with
    s^2 = (u + sqrt(3) gamma_b/2)(u - sqrt(3) gamma_b/2), a product that does
    not cancel near the bistability edge.  The two offsets u + x multiply to
    gamma_b^2/12, which gives the small one without cancellation.  x_low is
    the local maximum of F, x_high the local minimum; None when F is monotone.
    """
    half = math.sqrt(3.0) * gamma_b / 2.0
    s_sq = (u + half) * (u - half)
    if s_sq < 0.0:
        return None
    s = math.sqrt(s_sq)
    g2 = gamma_b**2 / 4.0
    off_low = (u - s) / 3.0
    off_high = (u + s) / 3.0 if u >= 0.0 or off_low == 0.0 else g2 / (3.0 * off_low)
    x_low, x_high = off_low - u, off_high - u
    return (x_low, x_low * (g2 + off_low**2)), (x_high, x_high * (g2 + off_high**2))


def _curve_slope(u: float, gamma_b: float, x: float) -> float:
    """The S-curve slope d(Omega^2/4)/dn = gamma_b^2/4 + (u + x)(u + 3x), x = 12 eta n."""
    return gamma_b**2 / 4.0 + (u + x) * (u + 3.0 * x)


def _range_fault(detuning: str, u: float, gamma_b: float, eta: float,
                 Omega: float = 0.0) -> str | None:
    """The field that puts the steady-state cubic beyond float range, or None.

    The cubic's terms in n and its folds are O(max(S, S^3) / min(12 eta, 1))
    with S = |u| + 12 eta + gamma_b + (3 eta Omega^2)^(1/3).  Past 1e300,
    eight decades short of float range, the larger factor is at fault: the
    largest term of S (``detuning`` for u), or a small eta in n = x / (12 eta).
    """
    sizes = {detuning: abs(u), "eta": 12.0 * eta, "gamma_b": gamma_b,
             "Omega": (3.0 * eta * Omega * Omega) ** (1.0 / 3.0)}
    scale = sum(sizes.values())
    cube = scale * scale * scale  # inf, not OverflowError, out of range
    rates, small = max(scale, cube), min(12.0 * eta, 1.0)
    if rates / small <= 1e300:
        return None
    return max(sizes, key=sizes.__getitem__) if rates * small >= 1.0 else "eta"


def _cubic_n(params: MeanFieldParams, n: float) -> float:
    """Residual  n*(gamma^2/4 + (u + 12 eta n)^2) - Omega^2/4  at occupation n."""
    u = params.u
    g = params.gamma_b
    return n * (g * g / 4.0 + (u + 12.0 * params.eta * n) ** 2) - params.Omega**2 / 4.0


def steady_occupations(params: MeanFieldParams,
                       near: Sequence[float] | None = None) -> list[float]:
    """Steady-state occupations n = |beta_0|^2, sorted ascending.

    Returns one or three roots of the steady-state cubic, each from its own
    fold-bounded bracket (see the module docstring), iterated until
    |cubic(n)| <= 1e-13 * Omega^2/4.  At a drive exactly on a fold two of the
    roots can coincide; :func:`solve_branches` marks such a pair as tangent.
    An undriven mode (Omega = 0) returns [0.0]: with damping the vacuum is
    the unique fixed point, and the undamped degenerate circle of fixed
    points at u + 12*eta*n = 0 collapses to the same reported state.

    With ``near``, the ascending outer roots of a neighbouring drive (or
    none), only the outer brackets are solved, not the middle one between
    the folds: the roots that can be stable.  The lower bracket's Newton
    starts at near[0] and the upper (or only) one's at near[-1], each where
    it lies in the bracket, else from Fourier's end as without ``near``.

    Raises :class:`ResonanceError` when a root misses |cubic(n)| <=
    RESIDUAL_RTOL * Omega^2/4, and ValueError naming the field when the
    cubic is beyond float range (:func:`_range_fault`).
    """
    fault = _range_fault("delta_ml", params.u, params.gamma_b, params.eta, params.Omega)
    if fault is not None:
        raise ValueError(f"{fault}={getattr(params, fault)!r} puts the steady-state cubic "
                         "beyond float range")
    if params.Omega == 0.0:
        return [0.0]
    u = params.u
    k = 12.0 * params.eta
    target = params.Omega**2 / 4.0
    tol = 1e-13 * target
    # the constant terms of _cubic_n and _curve_slope, in their own expressions
    g2_cubic = params.gamma_b * params.gamma_b / 4.0
    g2_slope = params.gamma_b**2 / 4.0

    def solve(lo: float, hi: float, rising: bool, start: float | None) -> tuple[float, float]:
        # Newton from ``start``, or from the end where the residual and its
        # curvature 4u + 6x share a sign (Fourier), so it converges
        # monotonically; bisection whenever a step would leave the bracket.
        if start is not None and lo <= start <= hi:
            n = start
        elif (4.0 * u + 6.0 * k * lo < 0.0) == rising:
            n = lo
        elif (4.0 * u + 6.0 * k * hi > 0.0) == rising:
            n = hi
        else:
            n = 0.5 * (lo + hi)
        # on the resonance the residual is rounding noise that can stall
        # short of tol: return the smallest one seen, and its iterate
        best_abs, best, best_f = math.inf, n, math.inf
        for _ in range(200):  # under 70 needed over the whole ROADMAP range
            # _cubic_n and _curve_slope written out, to the bit
            x = k * n
            f = n * (g2_cubic + (u + x) ** 2) - target
            abs_f = f if f >= 0.0 else -f
            if abs_f < best_abs:
                best_abs, best, best_f = abs_f, n, f
            if abs_f <= tol:
                break
            if (f < 0.0) == rising:
                lo = n
            else:
                hi = n
            slope = g2_slope + (u + x) * (u + 3.0 * x)
            n = n - f / slope if slope else lo
            if not lo < n < hi:
                n = 0.5 * (lo + hi)
                if not lo < n < hi:
                    break
        return best, best_f

    drive_x = 3.0 * params.eta * params.Omega**2
    top = (max(-u, 0.0) + drive_x ** (1.0 / 3.0)) / k
    first, last = (near[0], near[-1]) if near else (None, None)
    brackets = [(0.0, top, True, last)]
    folds = _fold_x(u, params.gamma_b)
    if folds is not None:
        (x_low, f_low), (x_high, f_high) = folds
        if x_low > 0.0 and f_high <= drive_x <= f_low:
            n_low, n_high = x_low / k, x_high / k
            brackets = [(0.0, n_low, True, first), (n_low, n_high, False, None),
                        (n_high, top, True, last)]
            if near is not None:
                del brackets[1]
    solved = [solve(*b) for b in brackets]
    for (lo, hi, _, _), (n, residual) in zip(brackets, solved):
        # beta_0 is unbounded on an undamped resonance, passed when Omega^2 underflows
        resonant = u + k * n == 0.0 and params.gamma_b / 2.0 == 0.0
        if resonant or not abs(residual) <= RESIDUAL_RTOL * target:
            raise ResonanceError(params, (lo, hi), n, residual)
    return [n for n, _ in solved]


def beta_from_n(params: MeanFieldParams, n: float) -> complex:
    """Steady amplitude beta_0 on the branch with occupation n.

    beta_0 = (i Omega/2) / (i (u + 12 eta n) - gamma_b/2); for an undamped mode
    the amplitude is purely real in this phase convention.  Raises ValueError
    if n is not actually a root of the steady-state cubic.
    """
    if n < 0.0:
        raise ValueError(f"occupation must be >= 0, got {n!r}")
    if params.Omega == 0.0:
        if n != 0.0:
            raise ValueError("undriven mode has only the vacuum steady state")
        return 0.0 + 0.0j
    try:
        residual = abs(_cubic_n(params, n))
    except OverflowError:  # (u + 12 eta n)**2 beyond float range: far off the S-curve
        residual = math.inf
    if residual > 1e-6 * (params.Omega**2 / 4.0):
        raise ValueError(f"n={n!r} is not a steady-state occupation for {params}")
    denom = 1j * (params.u + 12.0 * params.eta * n) - params.gamma_b / 2.0
    return (1j * params.Omega / 2.0) / denom


def effective_detuning(params: MeanFieldParams, n: float) -> float:
    """Occupation-shifted detuning delta_eff = delta_ml + 24 eta n."""
    return params.delta_ml + 24.0 * params.eta * n


def _branch_from_n(params: MeanFieldParams, n: float, tangent: bool) -> SteadyBranch:
    """The branch at occupation n, classified by the S-curve slope.

    About the steady state d(dbeta)/dt = -A dbeta, where A has trace gamma_b
    and determinant d(Omega^2/4)/dn (:func:`_curve_slope`), so the eigenvalues
    of -A are -(tr -+ sqrt(tr^2 - 4 det))/2.  Stable needs both positive
    (Routh-Hurwitz); a fold (det == 0) is marginal, as is an undamped mode
    (tr == 0) that only precesses (det > 0).
    """
    tr = params.gamma_b
    det = _curve_slope(params.u, params.gamma_b, 12.0 * params.eta * n)
    s = cmath.sqrt(tr * tr - 4.0 * det)  # real >= 0 or positive imaginary
    return SteadyBranch(
        n=n,
        beta0=beta_from_n(params, n),
        delta_eff=effective_detuning(params, n),
        eigenvalues=(-(tr + s) / 2.0, -(tr - s) / 2.0),  # in (real, imag) order
        verdict=(Stability.UNSTABLE if det < 0.0 else
                 Stability.MARGINAL if det == 0.0 or tr == 0.0 else Stability.STABLE),
        tangent=tangent,
    )


def solve_branches(params: MeanFieldParams) -> tuple[SteadyBranch, ...]:
    """All steady branches (ascending n) with stability and eigenvalues."""
    ns = steady_occupations(params)
    # two equal roots are a fold touching the drive: a tangent pair
    return tuple(_branch_from_n(params, n, tangent=ns.count(n) > 1) for n in ns)


def bistability_condition(
    omega_ml: float, omega_t: float, eta: float, gamma_b: float
) -> tuple[bool, float]:
    """Whether a drive at omega_ml can produce bistability, and the edge omega_c.

    omega_c = omega_t - 12 eta (zeta + 1),  zeta = sqrt(3) gamma_b / (24 eta);
    three steady roots exist for some drive amplitude iff omega_ml < omega_c
    (drive red-detuned beyond the fold edge).  Blue-detuned drives never give
    three positive roots.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta!r}")
    if gamma_b < 0.0:
        raise ValueError(f"gamma_b must be >= 0, got {gamma_b!r}")
    omega_c = omega_t - 12.0 * eta - math.sqrt(3.0) * gamma_b / 2.0
    return (0.0 <= omega_ml < omega_c), omega_c


def turning_points(delta: float, eta: float, gamma_b: float) -> TurningPoints:
    """Fold coordinates of the S-curve versus drive frequency.

    ``delta = omega_ml - omega_c`` measures how far past the bistability edge
    the drive sits.  The fold occupations solve d(Omega^2)/dn = 0:

        12 eta n_pm = (-2u +/- sqrt(u^2 - 3 gamma_b^2/4)) / 3,   u = delta - sqrt(3) gamma_b/2,

    real iff delta <= 0 or delta >= sqrt(3) gamma_b.  Only delta < 0 puts both
    folds at positive occupation (``physical``); the delta >= sqrt(3) gamma_b
    branch of the surd is reported with physical=False and no drive values.
    For 0 < delta < sqrt(3) gamma_b the window is closed: zero width, no folds.
    The window width (4/3) sqrt(delta^2 - sqrt(3) gamma_b delta) shrinks to
    zero at both ends of its domain, delta -> 0 and delta -> sqrt(3) gamma_b.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta!r}")
    if gamma_b < 0.0:
        raise ValueError(f"gamma_b must be >= 0, got {gamma_b!r}")
    u = delta - math.sqrt(3.0) * gamma_b / 2.0
    fault = _range_fault("delta", u, gamma_b, eta)
    if fault is not None:
        value = {"delta": delta, "gamma_b": gamma_b, "eta": eta}[fault]
        raise ValueError(f"{fault}={value!r} puts the fold coordinates beyond float range")
    folds = _fold_x(u, gamma_b)
    if folds is None:
        return TurningPoints(
            delta_eff_low=None,
            delta_eff_high=None,
            width=0.0,
            drive_low=None,
            drive_high=None,
            n_low=None,
            n_high=None,
            physical=False,
        )
    # x_low: fold closer to the lower branch (local max of Omega^2)
    (x_low, f_low), (x_high, f_high) = folds
    delta_ml = u - 12.0 * eta
    d_low = delta_ml + 2.0 * x_low
    d_high = delta_ml + 2.0 * x_high
    # both folds at n = 0 only on the undamped edge, delta = gamma_b = 0
    physical = x_low > 0.0 or (x_low == 0.0 and x_high == 0.0)
    drive_low = drive_high = None
    if physical:  # Omega^2 = F(x) / (3 eta) at a fold
        drive_low = math.sqrt(f_low / (3.0 * eta))
        drive_high = math.sqrt(f_high / (3.0 * eta))
    return TurningPoints(
        delta_eff_low=d_low,
        delta_eff_high=d_high,
        width=d_high - d_low,
        drive_low=drive_low,
        drive_high=drive_high,
        n_low=x_low / (12.0 * eta),
        n_high=x_high / (12.0 * eta),
        physical=physical,
    )


def _physical_folds(delta_ml: float, eta: float, gamma_b: float) -> TurningPoints | None:
    """The folds at detuning delta_ml, or None when the S-curve does not fold.

    Offset omega_ml - omega_c = delta_ml + 12 eta + sqrt(3) gamma_b/2, not via omega_t."""
    tp = turning_points(delta_ml + 12.0 * eta + math.sqrt(3.0) * gamma_b / 2.0, eta, gamma_b)
    return tp if tp.physical else None


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n).tolist()`` for an int n >= 2, bit for bit."""
    step = (hi - lo) / (n - 1)
    # where the step underflows to 0, numpy divides first and scales by the span
    points = [lo + (i * step if step else i / (n - 1) * (hi - lo)) for i in range(n - 1)]
    return points + [hi]


def _drive_grid(drives: Sequence[float], least: int = 1, descending: bool = False) -> list[float]:
    """``drives`` as floats: at least ``least``, each finite and >= 0, strictly
    increasing (or, with ``descending``, decreasing); else ValueError."""
    grid = [float(w) for w in drives]
    if len(grid) < least:
        raise ValueError(f"need {least} or more drive amplitudes, got {len(grid)}")
    bad = [w for w in grid if not 0.0 <= w < math.inf]
    if bad:
        raise ValueError(f"drive amplitudes must be finite and >= 0, got {bad[0]!r}")
    pairs = list(zip(grid, grid[1:]))
    if not (all(a < b for a, b in pairs) or descending and all(a > b for a, b in pairs)):
        order = "increasing or decreasing" if descending else "increasing"
        raise ValueError(f"drive amplitude grid must be strictly {order}")
    return grid


def sweep_diagram(
    drive_amplitudes: Sequence[float],
    delta_ml: float,
    gamma_b: float,
    eta: float,
    omega_t: float,
) -> BistabilityDiagram:
    """Solve the steady branches over a monotone drive-amplitude grid.

    The diagram regime is decided by omega_ml - omega_c: "bistable" below the
    edge, "monostable" above, and "platform" on the edge itself (within
    floating-point resolution of the input frequencies), where the S-curve
    degenerates to a monotone curve with an inflection.  The fold pair is that
    of :func:`_physical_folds` at delta_ml, the same as the branches'.
    """
    grid = _drive_grid(drive_amplitudes)
    omega_ml = omega_t + delta_ml
    _, omega_c = bistability_condition(omega_ml, omega_t, eta, gamma_b)
    delta = omega_ml - omega_c
    edge_tol = 32.0 * sys.float_info.epsilon * max(abs(omega_t), abs(omega_ml), 1.0)
    if abs(delta) <= edge_tol:
        regime = "platform"
    elif delta < 0.0:
        regime = "bistable"
    else:
        regime = "monostable"
    rows: list[tuple[float, SteadyBranch]] = []
    for w in grid:
        p = MeanFieldParams(delta_ml=delta_ml, Omega=w, gamma_b=gamma_b, eta=eta)
        for branch in solve_branches(p):
            rows.append((w, branch))
    turning = _physical_folds(delta_ml, eta, gamma_b)
    return BistabilityDiagram(
        branches=tuple(rows),
        omega_ml=omega_ml,
        omega_c=omega_c,
        regime=regime,
        turning=turning,
        window_width=turning.width if turning is not None else 0.0,
    )
