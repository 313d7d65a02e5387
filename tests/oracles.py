"""Independent numerical routes used by the tests to cross-check results.

Nothing in here reuses the package's closed-form algebra: depolarization
factors come from the defining ellipsoid integral, inertia from Monte-Carlo
volume sampling, steady-state occupations from a dense scan with bisection
refinement, fold coordinates from bounded scalar optimization of the drive
curve, branch stability from the fluctuation matrix as a numpy array,
variance traces from adaptive integration of the moment equations and from
the matrix exponential of their augmented matrix (Pade-13 in floats, mpmath
at 60 digits), and plateaus from the Dormand-Prince stepper in complex
arithmetic.  The only shared ingredients are the fixed-point polynomial, the
fluctuation matrix, the moment equations and the mean-field right-hand side
themselves, which *are* the model.

Three references keep the operation order of package code that has since
been rewritten for speed, so the tests can hold the new code to them bit for
bit: the complex-arithmetic Dormand-Prince stepper, the sum formula of the
exponential divided differences, and the steady-state Newton loop that calls
``_cubic_n`` and ``_curve_slope``.

Two paper formulas that no command uses are kept here too, with the tests
that check them: the regime window (omega_ml1, omega_ml2) of the fluctuation
dynamics and the minimum drive to a target effective detuning.  The one
exception is the calibration at the end: a least-squares fit of the
package's closed-form folds to the measured jump coordinates of the
reference particle, which reproduces the frozen working point
``libration.model.REFERENCE_DELTA_ML`` / ``REFERENCE_GAMMA_B``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, least_squares, minimize_scalar

from libration.model import NanoparticleSpec, TrapConfig
from libration.steadystate import Stability, TurningPoints, beta_from_n, turning_points

SQRT3 = math.sqrt(3.0)


def depolarization_quad(eccentricity: float) -> tuple[float, float]:
    """(L_a, L_b) from the ellipsoid integrals, semi-axes (1, b, b), b^2 = 1-e^2.

    L_a = (b^2/2) Int_0^inf ds / ((s+1)^{3/2} (s+b^2))
    L_b = (b^2/2) Int_0^inf ds / ((s+b^2)^2 (s+1)^{1/2})
    """
    b2 = 1.0 - eccentricity**2
    la, _ = quad(lambda s: 1.0 / ((s + 1.0) ** 1.5 * (s + b2)), 0.0, np.inf, limit=400)
    lb, _ = quad(lambda s: 1.0 / ((s + b2) ** 2 * math.sqrt(s + 1.0)), 0.0, np.inf, limit=400)
    return 0.5 * b2 * la, 0.5 * b2 * lb


def inertia_monte_carlo(
    r_a: float, r_b: float, density: float,
    n_samples: int = 2_000_000, seed: int = 20260825,
) -> float:
    """Transverse moment of inertia by uniform rejection sampling in the box.

    The long axis lies along x; the libration axis is y, so the integrand is
    rho (x^2 + z^2) over the spheroid volume.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_samples, 3))
    inside = (pts**2).sum(axis=1) <= 1.0
    u = pts[inside]
    volume = 4.0 * math.pi * r_a * r_b**2 / 3.0
    x = r_a * u[:, 0]
    z = r_b * u[:, 2]
    return density * volume * float(np.mean(x**2 + z**2))


def _drive_curve(n, u: float, gamma_b: float, eta: float):
    """Omega^2 needed to hold occupation n: 4 n (gamma^2/4 + (u + 12 eta n)^2)."""
    return 4.0 * n * (gamma_b**2 / 4.0 + (u + 12.0 * eta * n) ** 2)


def scan_roots(
    delta_ml: float, Omega: float, gamma_b: float, eta: float,
    n_grid: int = 1_000_000,
) -> list[float]:
    """Steady occupations located by dense sign-change scan + bisection."""
    u = delta_ml + 12.0 * eta
    target = Omega * Omega

    def f(n: float) -> float:
        return _drive_curve(n, u, gamma_b, eta) - target

    # Cauchy-style bound on the monic cubic in x = 12 eta n keeps the scan finite.
    xmax = 2.0 * max(
        abs(2.0 * u),
        math.sqrt(gamma_b**2 / 4.0 + u * u),
        (3.0 * eta * Omega * Omega) ** (1.0 / 3.0),
    )
    n_hi = 1.1 * xmax / (12.0 * eta) + 1.0
    grid = np.linspace(0.0, n_hi, n_grid)
    # _drive_curve(grid) - target in place: the same values bit for bit
    # (scaling by 4 is exact) in a fraction of the array passes
    vals = grid * (12.0 * eta)
    vals += u
    vals *= vals
    vals += gamma_b**2 / 4.0
    vals *= grid
    vals *= 4.0
    vals -= target
    sign = np.sign(vals)
    roots = [float(grid[k]) for k in np.flatnonzero(sign == 0.0) if grid[k] > 0.0 or Omega == 0.0]
    for k in np.flatnonzero(sign[:-1] != sign[1:]):
        if sign[k] * sign[k + 1] < 0:  # a step onto or off an exact zero is not a crossing
            roots.append(brentq(f, float(grid[k]), float(grid[k + 1]), xtol=1e-30, rtol=1e-14))
    return sorted(roots)


def fold_extrema_scan(
    delta_ml: float, gamma_b: float, eta: float, n_grid: int = 200_000
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Interior (local max, local min) of the drive curve, or None if monotone.

    Returns ((n_at_max, Omega_at_max), (n_at_min, Omega_at_min)); the local
    max is the fold a rising sweep jumps at, the local min the falling one.
    """
    u = delta_ml + 12.0 * eta
    n_hi = max(1.5 * abs(u) / (12.0 * eta), 1.0)
    grid = np.linspace(0.0, n_hi, n_grid)
    w = _drive_curve(grid, u, gamma_b, eta)
    interior = np.arange(1, n_grid - 1)
    is_max = (w[interior] > w[interior - 1]) & (w[interior] > w[interior + 1])
    is_min = (w[interior] < w[interior - 1]) & (w[interior] < w[interior + 1])
    max_idx = interior[is_max]
    min_idx = interior[is_min]
    if len(max_idx) != 1 or len(min_idx) != 1:
        return None

    def refine(k: int, sign: float) -> tuple[float, float]:
        res = minimize_scalar(
            lambda n: sign * _drive_curve(n, u, gamma_b, eta),
            bounds=(float(grid[k - 1]), float(grid[k + 1])),
            method="bounded",
            options={"xatol": 1e-12 * max(float(grid[k]), 1.0)},
        )
        return float(res.x), math.sqrt(sign * res.fun if sign > 0 else -res.fun)

    n_max, om_max = refine(int(max_idx[0]), -1.0)
    n_min, om_min = refine(int(min_idx[0]), +1.0)
    return (n_max, om_max), (n_min, om_min)


def drive_curve_folds(
    delta_ml: float, gamma_b: float, eta: float, n_grid: int = 400_000
) -> bool:
    """Whether the steady drive curve decreases anywhere, i.e. the S folds back.

    A strict interior decrease of Omega^2(n) is exactly the condition for some
    drive amplitude to meet three occupations.  The threshold sits ~3 decades
    above float noise on the curve values.
    """
    u = delta_ml + 12.0 * eta
    n_hi = max(1.5 * abs(u) / (12.0 * eta), 1.0)
    grid = np.linspace(0.0, n_hi, n_grid)
    w = _drive_curve(grid, u, gamma_b, eta)
    return bool((np.diff(w) < -1e-12 * float(np.max(w))).any())


def draw_mean_field(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """One random (delta_ml, Omega, gamma_b, eta) set, half forced bistable.

    The bistable half places the drive strictly inside the fold window (3%
    margins) so three-root cases are exercised as often as one-root cases.
    """
    eta = 10.0 ** rng.uniform(-3.0, -1.0)
    gamma_b = 10.0 ** rng.uniform(2.5, 4.5)
    edge = 12.0 * eta + SQRT3 * gamma_b / 2.0
    if rng.uniform() < 0.5:
        delta = -gamma_b * 10.0 ** rng.uniform(0.3, 1.5)
        delta_ml = delta - edge
        u = delta - SQRT3 * gamma_b / 2.0
        s = math.sqrt(delta * (delta - SQRT3 * gamma_b))
        x_lo, x_hi = (-2.0 * u - s) / 3.0, (-2.0 * u + s) / 3.0
        om_up = math.sqrt(_drive_curve(x_lo / (12.0 * eta), u, gamma_b, eta))
        om_down = math.sqrt(_drive_curve(x_hi / (12.0 * eta), u, gamma_b, eta))
        lo, hi = om_down * 1.03, om_up * 0.97
        if lo < hi:
            return delta_ml, rng.uniform(lo, hi), gamma_b, eta
        # window narrower than the margins; fall through to a generic draw
    delta_ml = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(2.0, 5.0)
    Omega = 10.0 ** rng.uniform(4.0, 7.0)
    return delta_ml, Omega, gamma_b, eta


def stability_matrix(params, n: float, beta0: complex | None = None) -> np.ndarray:
    """Fluctuation matrix A of d(dbeta)/dt = -A dbeta about a steady state.

    A = [[kappa + 2 chi n,        chi beta_0^2       ],
         [conj(chi beta_0^2),     conj(kappa + 2 chi n)]]

    with kappa = gamma_b/2 - i u and chi = -12i eta, for ``params`` a
    MeanFieldParams.  Its trace is exactly gamma_b and its determinant equals
    d(Omega^2/4)/dn on the S-curve.
    """
    if beta0 is None:
        beta0 = beta_from_n(params, n)
    kappa = params.gamma_b / 2.0 - 1j * params.u
    chi = -12j * params.eta
    a00, a01 = kappa + 2.0 * chi * n, chi * beta0 * beta0
    return np.array([[a00, a01], [np.conj(a01), np.conj(a00)]])


def classify_stability(matrix: np.ndarray) -> Stability:
    """Routh-Hurwitz verdict for the 2x2 fluctuation matrix.

    Stable needs trace > 0 and determinant > 0 (both eigenvalues of -A in the
    left half-plane).  An undamped mode (trace == 0) with positive determinant
    only precesses: marginal.  A vanishing determinant (fold point) is
    marginal as well.
    """
    tr = float((matrix[0, 0] + matrix[1, 1]).real)
    det = float((matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]).real)
    if det < 0.0:
        return Stability.UNSTABLE
    if det == 0.0 or tr == 0.0:
        return Stability.MARGINAL
    return Stability.STABLE if tr > 0.0 else Stability.UNSTABLE


def branch_mpmath(params, n: float, dps: int = 60):
    """(n, (lam1, lam2), det) of the steady branch at occupation ~n in ``dps`` digits.

    The float inputs of ``params`` (a MeanFieldParams) are taken exactly, n is
    refined by Newton's method on the steady-state cubic, and at the refined
    root the fluctuation matrix A of :func:`stability_matrix` gives the
    eigenvalues of -A, sorted by (real, imag), and det(A).  Raises
    ArithmeticError when Newton does not converge (no exact root near n).
    """
    with mpmath.workdps(dps):
        delta_ml, omega, g, eta = (mpmath.mpf(v) for v in params)
        u, k = delta_ml + 12 * eta, 12 * eta
        m = mpmath.mpf(n)
        for _ in range(400):
            f = m * (g * g / 4 + (u + k * m) ** 2) - omega * omega / 4
            step = f / (g * g / 4 + (u + k * m) * (u + 3 * k * m))
            m -= step
            if abs(step) <= mpmath.mpf(10) ** (5 - dps) * abs(m):
                break
        else:
            raise ArithmeticError(f"no root of the exact cubic near n={n!r} for {params}")
        beta0 = (1j * omega / 2) / (1j * (u + k * m) - g / 2)
        a00 = g / 2 - 1j * u - 24j * eta * m  # kappa + 2 chi n
        a01 = -12j * eta * beta0 * beta0  # chi beta_0^2
        tr = 2 * a00.real
        det = (a00 * mpmath.conj(a00) - a01 * mpmath.conj(a01)).real
        s = mpmath.sqrt(mpmath.mpc(tr * tr - 4 * det))
        lams = sorted((-(tr + s) / 2, -(tr - s) / 2), key=lambda z: (z.real, z.imag))
        return m, tuple(lams), det


def _variances_of(re_z, m):
    """(S_theta, S_J) of the moments Re z = Re <b^2> and m = <b'b>."""
    return (2.0 * re_z + 2.0 * m + 1.0) / 4.0, (-2.0 * re_z + 2.0 * m + 1.0) / 4.0


def moment_dop853(
    params, t_grid, gamma_b: float = 0.0, nbar_bath: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(S_theta, S_J) by DOP853 integration (rtol 1e-11) of the second-moment
    equations

        dz/dt = (2 i lam - gamma_b) z + i xi e^{2 i phi} (2 m + 1)
        dm/dt = 2 xi Im(e^{-2 i phi} z) - gamma_b (m - nbar_bath)

    from z = 0, m = nbar at t_grid[0], for ``params`` a SqueezeParams.
    """
    rtol = 1e-11
    if nbar_bath is None:
        nbar_bath = params.nbar
    lam, xi = params.lam, params.xi
    e2 = complex(math.cos(2.0 * params.phi), math.sin(2.0 * params.phi))

    def rhs(t, y):
        z = complex(y[0], y[1])
        m = y[2]
        dz = (2j * lam - gamma_b) * z + 1j * xi * e2 * (2.0 * m + 1.0)
        dm = 2.0 * xi * (np.conj(e2) * z).imag - gamma_b * (m - nbar_bath)
        return [dz.real, dz.imag, dm]

    scale = 2.0 * max(params.nbar, nbar_bath) + 1.0
    sol = solve_ivp(
        rhs, (t_grid[0], t_grid[-1]), [0.0, 0.0, params.nbar], method="DOP853",
        rtol=rtol, atol=rtol * scale * 1e-2, t_eval=t_grid,
    )
    if sol.status != 0:
        raise RuntimeError(f"moment integration failed: {sol.message}")
    return _variances_of(sol.y[0], sol.y[2])


def _moment_matrix(lam, xi, phi, g, nbar_bath, trig=math) -> list[list]:
    """The moment equations as y' = A y on y = (Re z, Im z, m, 1): appending a
    constant 1 makes them homogeneous (Van Loan, IEEE Trans. Autom. Control 23,
    395 (1978)).  ``trig`` supplies cos and sin (math, or mpmath for mpf inputs)."""
    c2, s2 = trig.cos(2 * phi), trig.sin(2 * phi)
    return [
        [-g, -2.0 * lam, -2.0 * xi * s2, -xi * s2],
        [2.0 * lam, -g, 2.0 * xi * c2, xi * c2],
        [-2.0 * xi * s2, 2.0 * xi * c2, -g, g * nbar_bath],
        [0.0, 0.0, 0.0, 0.0],
    ]


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


def moment_expm(
    params, t_grid, gamma_b: float = 0.0, nbar_bath: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(S_theta, S_J) from the propagator expm(A (t - t_grid[0])) of the
    augmented moment matrix, by batched Pade-13 scaling and squaring.

    Accurate while A is near normal: for |lam_p| much below xi with damping
    its scaling and squaring loses digits (Moler & Van Loan, SIAM Rev. 45, 3
    (2003)); use :func:`moment_mpmath` there.
    """
    if nbar_bath is None:
        nbar_bath = params.nbar
    t_grid = np.asarray(t_grid, dtype=float)
    a = np.array(_moment_matrix(params.lam, params.xi, params.phi, gamma_b, nbar_bath))
    prop = _expm(a * (t_grid - t_grid[0])[:, None, None])
    y = prop[:, :, 2] * params.nbar + prop[:, :, 3]
    return _variances_of(y[:, 0], y[:, 2])


def moment_mpmath(
    params, t_grid, gamma_b: float = 0.0, nbar_bath: float | None = None, dps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """(S_theta, S_J) from ``mpmath.expm`` of the augmented moment matrix in
    ``dps``-digit arithmetic, on the same float inputs."""
    if nbar_bath is None:
        nbar_bath = params.nbar
    with mpmath.workdps(dps):
        a = mpmath.matrix(_moment_matrix(
            *(mpmath.mpf(v) for v in (params.lam, params.xi, params.phi, gamma_b, nbar_bath)),
            trig=mpmath,
        ))
        y0 = mpmath.matrix([0, 0, mpmath.mpf(params.nbar), 1])
        t0 = mpmath.mpf(float(t_grid[0]))
        out = []
        for tk in t_grid:
            y = mpmath.expm(a * (mpmath.mpf(float(tk)) - t0)) * y0
            out.append([float(s) for s in _variances_of(y[0], y[2])])
    return np.array(out)[:, 0], np.array(out)[:, 1]


def dopri_complex(params, beta_init: complex, t_span, tol: float = 1e-8):
    """(t, beta) of the complex-arithmetic Dormand-Prince 5(4).

    This is ``libration.dynamics.integrate`` as it was written on the complex
    amplitude, before its kernel moved to (Re beta, Im beta) float pairs:
    the same tableau, RMS error norm, step controller and Hairer-Norsett-Wanner
    initial step, evaluated through ``mean_field_rhs``.  Every accepted step
    is returned.  No input checks; a step-size underflow raises.
    """
    from libration.dynamics import mean_field_rhs as rhs

    def rms(z, scale_re, scale_im):
        a = z.real / scale_re
        b = z.imag / scale_im
        return math.sqrt(a * a + b * b) / 2.0 ** 0.5

    t, t_end = float(t_span[0]), float(t_span[1])
    y = complex(beta_init)
    rtol = max(tol / 10.0, 1e-13)
    atol = rtol * max(1.0, abs(y))
    ts, ys = [t], [y]
    if t < t_end:
        k1 = rhs(y, params)
        s_re = atol + abs(y.real) * rtol
        s_im = atol + abs(y.imag) * rtol
        d0 = rms(y, s_re, s_im)
        d1 = rms(k1, s_re, s_im)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_end - t)
        d2 = rms(rhs(y + h0 * k1, params) - k1, s_re, s_im) / h0
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
            err_norm = rms(
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
            raise RuntimeError(f"step size underflow at t = {t!r}")
        ts.append(t_new)
        ys.append(y_new)
        t, y, k1 = t_new, y_new, k7
    return np.array(ts, dtype=float), np.array(ys, dtype=complex)


def exp_divided_difference_sum(nodes, T: float, mask: int) -> complex:
    """exp_T over the nodes whose bits are set in ``mask``, by the sum formula.

    sum_i e^(T z_i) / prod_(j != i) (z_i - z_j) in the operation order of
    ``libration.dynamics._exp_divided_differences`` on separated nodes, as it
    was written before the propagator's table: ``sum`` from int 0 over the
    subset in ascending order, each product ``math.prod`` from int 1.
    """
    z = [i for i in range(len(nodes)) if mask >> i & 1]
    return sum(cmath.exp(T * nodes[i]) / math.prod(nodes[i] - nodes[j] for j in z if j != i)
               for i in z)


def steady_occupations_calls(params) -> list[float]:
    """``libration.steadystate.steady_occupations`` with its Newton loop as first written.

    Each iteration calls ``_cubic_n`` for the residual, ``abs`` for its size
    and ``_curve_slope`` for the slope; the brackets, start points, stall
    guard and residual check are the package's.  The package now writes
    these expressions out in the loop, and must give the same bits.
    """
    from libration.steadystate import (
        RESIDUAL_RTOL, ResonanceError, _cubic_n, _curve_slope, _fold_x, _range_fault)

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

    def solve(lo: float, hi: float, rising: bool) -> float:
        if (4.0 * u + 6.0 * k * lo < 0.0) == rising:
            n = lo
        elif (4.0 * u + 6.0 * k * hi > 0.0) == rising:
            n = hi
        else:
            n = 0.5 * (lo + hi)
        best_f, best = math.inf, n
        for _ in range(200):
            f = _cubic_n(params, n)
            if abs(f) < best_f:
                best_f, best = abs(f), n
            if abs(f) <= tol:
                break
            if (f < 0.0) == rising:
                lo = n
            else:
                hi = n
            slope = _curve_slope(u, params.gamma_b, k * n)
            n = n - f / slope if slope else lo
            if not lo < n < hi:
                n = 0.5 * (lo + hi)
                if not lo < n < hi:
                    break
        return best

    drive_x = 3.0 * params.eta * params.Omega**2
    top = (max(-u, 0.0) + drive_x ** (1.0 / 3.0)) / k
    brackets = [(0.0, top, True)]
    folds = _fold_x(u, params.gamma_b)
    if folds is not None:
        (x_low, f_low), (x_high, f_high) = folds
        if x_low > 0.0 and f_high <= drive_x <= f_low:
            n_low, n_high = x_low / k, x_high / k
            brackets = [(0.0, n_low, True), (n_low, n_high, False), (n_high, top, True)]
    roots = [solve(*b) for b in brackets]
    for (lo, hi, _), n in zip(brackets, roots):
        residual = _cubic_n(params, n)
        resonant = u + k * n == 0.0 and params.gamma_b / 2.0 == 0.0
        if resonant or not abs(residual) <= RESIDUAL_RTOL * target:
            raise ResonanceError(params, (lo, hi), n, residual)
    return roots


# Paper formulas that no command uses, kept as evidence.


def characteristic_frequencies(omega_t: float, eta: float, r: float) -> tuple[float, float]:
    """Regime boundaries (omega_ml1, omega_ml2) = omega_t - (36, 12) eta r^2."""
    return omega_t - 36.0 * eta * r * r, omega_t - 12.0 * eta * r * r


def minimum_drive(delta_eff: float, eta: float, gamma_b: float) -> tuple[float, float]:
    """Smallest drive amplitude that reaches a target effective detuning.

    Minimizing the required Omega over the drive detuning at fixed
    delta_eff = delta_ml + 24 eta n gives, to leading order in
    gamma_b / (delta_eff + 12 eta),

        Omega_min = gamma_b * sqrt((delta_eff + 12 eta) / (12 eta))

    attained at delta_0 = sqrt(3) gamma_b / 2 - 12 eta - delta_eff (measured,
    like ``delta`` in :func:`libration.steadystate.turning_points`, from the bistability edge).
    Requires delta_eff > -12 eta; below that the target is reached at
    vanishing drive in the detuning limit and no interior minimum exists.
    """
    k = delta_eff + 12.0 * eta
    if not k > 0.0:
        raise ValueError(
            f"target delta_eff must exceed -12*eta = {-12.0 * eta!r}, got {delta_eff!r}"
        )
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta!r}")
    if gamma_b < 0.0:
        raise ValueError(f"gamma_b must be >= 0, got {gamma_b!r}")
    omega_min = gamma_b * math.sqrt(k / (12.0 * eta))
    delta0 = math.sqrt(3.0) * gamma_b / 2.0 - k
    return omega_min, delta0


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
    if gamma_b <= 0.0 or u >= -SQRT3 * gamma_b / 2.0:
        return None
    tp = turning_points(u + SQRT3 * gamma_b / 2.0, eta, gamma_b)
    return tp if tp.physical else None


def fit_turning_points(
    measured: JumpCoordinates,
    eta: float,
    delta_ml_guess: float,
    gamma_b_guess: float,
) -> CalibrationResult:
    """Least-squares fit of (delta_ml, gamma_b) to measured jump coordinates.

    A frequency-locked drive swept up and down in amplitude jumps between
    branches at the two folds of the S-curve; each jump has a drive amplitude
    and the effective detuning delta_eff = delta_ml + 24 eta n of the branch
    just before it lets go.  The fit inverts the closed-form folds of
    :func:`libration.steadystate.turning_points` for the two unknowns by
    minimizing the four relative residuals.  The problem is overdetermined
    (four observations, two parameters), so the residuals of the optimum
    quantify how consistent the measurement is with the single-mode model.
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


# Reference measurement behind libration.model's REFERENCE_* working point:
# the e = 0.9 diamond particle, amplitude-swept at 10 mTorr and room
# temperature.  Jump coordinates as measured (Hz values times 2 pi).
REFERENCE_PARTICLE = NanoparticleSpec.from_eccentricity(
    r_a=50e-9, eccentricity=0.9, density=3500.0, eps_r=5.7
)
REFERENCE_TRAP = TrapConfig(power=0.1, waist=0.6e-6)
REFERENCE_TEMPERATURE = 300.0  # K
REFERENCE_JUMPS = JumpCoordinates(
    drive_up=2.0 * math.pi * 1.55e6,
    delta_eff_up=-2.0 * math.pi * 1.65e3,
    drive_down=2.0 * math.pi * 466e3,
    delta_eff_down=2.0 * math.pi * 5.89e3,
)
