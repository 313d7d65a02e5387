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
same bits as on the complex amplitude.  Its step loop is flat float code, with
the right-hand side and error norm written out inline.  It reproduces the
tableau, error norm and step controller of scipy's RK45, so it takes the same
accepted steps, without scipy's per-step overhead on a two-dimensional system.
Trajectories and sweeps are lists of Python floats and complex numbers, so
this module imports neither scipy nor numpy.  The occupation n is
``re*re + im*im``, the expression the right-hand side uses.
:func:`mean_field_rhs` is the complex reference form of the right-hand side.

A damped plateau runs DP45 only until, about the stable steady root beta*
nearest the state, the gate 12 eta (2|beta*| + |d|)|d| < 0.01 sqrt(det J)
holds for d = beta - beta*: the quadratic remainder of the force is small
against the linear restoring rate.  The gate is tested at the plateau's
start, then by :func:`integrate` after every accepted step.  The rest of the
dwell is one closed-form step about beta*, the linear flow e^(JT) d plus the
second-order term d2(T) (:func:`_propagate`), kept when its error estimate
2|d2|/|beta*|, relative in n, is at most ``tol``; else DP45 runs on until |d|
has shrunk by sqrt(tol |beta*| / (2|d2|)), as d2 scales as |d|^2.  So a damped
plateau's work is bounded by its settling time, not its dwell.  Without
stable roots (undamped, or unsolvable) a plateau is one DP45 run, ungated.

The up and down ramps of a hysteresis sweep walk one list of drives (from
``hysteresis``, the config's ``RampSettings.grid``), the down ramp in
reverse, and each drive's stable roots are solved once for both, in one
ascending pass: only the outer brackets of the cubic, each Newton from the
previous drive's root.  On ``configs/hysteresis.json`` that is 300 steady
solves for 600 plateaus.  115 plateaus step DP45, 2,708 steps and 19,090
right-hand-side evaluations in all; 598 end in closed form, in 623
closed-form steps (25 refused) whose nodes all lie over 1/T apart, so every
step reads its divided differences from one table of node differences.
Warm, on a 2-core x86-64 host under CPython 3.11, a closed-form step takes
about 12 us, the 300 stable-root solves 3 ms, and the whole sweep about
25 ms, half of it in DP45.

A jump is a fold crossing: the first plateau whose occupation passes the
closed-form fold occupation of :func:`libration.steadystate.turning_points` in
the ramp direction (up past n_low, down past n_high), leaving the stable branch
it was following.  An S-curve that does not fold has no jumps.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Callable, Sequence
from typing import NamedTuple

from libration.steadystate import (
    MeanFieldParams,
    ResonanceError,
    TurningPoints,
    _curve_slope,
    _drive_grid,
    _physical_folds,
    beta_from_n,
    steady_occupations,
)

__all__ = [
    "Trajectory",
    "SweepResult",
    "JumpEvent",
    "HysteresisResult",
    "mean_field_rhs",
    "integrate",
    "quasi_static_sweep",
    "hysteresis_sweep",
]


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
    *,
    _stop: tuple[float, ...] | None = None,
) -> Trajectory:
    """Integrate the mean-field equation with an adaptive Dormand-Prince 5(4) stepper.

    The stepper (Dormand & Prince, J. Comput. Appl. Math. 6, 19, 1980) works
    on the real pair (Re beta, Im beta) in Python floats, in the operation
    order of complex arithmetic, so it takes the same steps to the same bits
    as it would on the complex amplitude.  It uses the step controller of
    scipy's RK45: RMS error norm over the real and imaginary parts, safety
    0.9, step factor in [0.2, 10] with no growth right after a rejection, and
    the Hairer-Norsett-Wanner initial step.

    ``tol`` is the accuracy target for the trajectory: the stepper is run
    ten times tighter than ``tol``, so that the accumulated (global) error,
    not just the per-step local error, stays under 10 tol end to end at
    benchmark amplitude scales.  A plateau that leaves its branch at a fold
    is the exception: on ``configs/hysteresis.json`` the up-jump plateau's n
    is 1.5e-7 (15 tol) off the same sweep at tol 1e-12, the down-jump one's
    1.2e-8, and every other plateau's within 9e-10.

    Every accepted step is returned.  When the step falls below 10 ulp of
    the time the partial trajectory up to that time is returned with
    ``complete=False``, as is the start state when the initial step is zero
    or NaN (a derivative that overflows).  A zero-length span returns the
    start state.  ``n_rhs`` and ``n_rejected`` count the right-hand-side
    evaluations and the rejected steps.

    ``_stop`` is :func:`_plateau`'s: with it only the first and the last
    state are returned.  Nine floats, (Re, Im, 2|beta*|, 0.01 sqrt(det J))
    of two stable roots and a reach, also stop the run at the first accepted
    step where the plateau gate of the module docstring holds about the
    nearer root with |d| within the reach; a stopped run ends before
    ``t_span[1]``.
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

    record, gated = _stop is None, bool(_stop)
    if gated:
        p1, q1, a1, b1, p2, q2, a2, b2, reach = _stop
    ts = [t]
    yrs, yis = [yr], [yi]
    complete = True
    n_rhs = n_rejected = steps = 0
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
        else:  # a NaN d2 (f overflowed over h0) makes the step NaN, as a NaN h0 does
            h1 = math.nan if math.isnan(d2) else (0.01 / max(d1, d2)) ** (1 / 5)
        h_abs = min(h1, 100.0 * h0, t_end - t)
        n_rhs = 2

    # The loop takes 2,708 steps on configs/hysteresis.json; a call per stage
    # cost +33 % per step, so it is straight-line float code: each stage is the
    # right-hand side above written out, the error norm is the RMS norm of the
    # initial step, and abs/min/max are comparisons that pick the operand the
    # call would; a zero of the other sign only ever feeds atol + x * rtol.
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
        t, yr, yi, k1r, k1i = t_new, ynr, yni, k7r, k7i
        steps += 1
        if record:
            ts.append(t)
            yrs.append(yr)
            yis.append(yi)
        elif gated:
            # 12 eta (2|beta*| + |d|)|d| < 0.01 sqrt(det J) about the nearer
            # stable root, with |d| within reach
            xr, xi, zr, zi = yr - p1, yi - q1, yr - p2, yi - q2
            e1, e2 = xr * xr + xi * xi, zr * zr + zi * zi
            if e1 <= e2:
                d = sqrt(e1)
                if d <= reach and k * (a1 + d) * d < b1:
                    break
            else:
                d = sqrt(e2)
                if d <= reach and k * (a2 + d) * d < b2:
                    break

    if not record and steps:
        ts.append(t)
        yrs.append(yr)
        yis.append(yi)
    return Trajectory(ts, list(map(complex, yrs, yis)), [params.Omega] * len(ts), complete,
                      n_rhs + 6 * (steps + n_rejected), n_rejected)


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


#: Taylor terms for nodes within 1/T of each other: the j-th is < 1/j! of the first.
_TAYLOR_TERMS = 20
_INV_FACTORIAL = [1.0 / math.factorial(j) for j in range(_TAYLOR_TERMS + 5)]


def _exp_divided_differences(nodes: tuple[complex, ...], T: float) -> Callable[[int], complex]:
    """Divided differences of x -> exp(T x) over subsets of ``nodes``, keyed by bit mask.

    A subset whose nodes are all more than 1/T apart is the sum over its nodes
    z_i of e^(T z_i) / prod_(j != i) (z_i - z_j).  One whose p + 1 nodes z all
    lie within 1/T of each other is the Taylor series about their mean m,
    e^(T m) T^p sum_j h_j(T (z - m)) / (p + j)!, h_j being the complete
    homogeneous symmetric polynomial of degree j; that covers coincident nodes.
    Any other is split at its farthest pair (a, b), (exp[Z - a] - exp[Z - b]) /
    (b - a).  None of these cancels much, and no node has a positive real part.
    """
    exps = [cmath.exp(T * z) for z in nodes]
    memo: dict[int, complex] = {}

    def divided(mask: int) -> complex:
        if mask in memo:
            return memo[mask]
        z = [i for i in range(len(nodes)) if mask >> i & 1]
        pairs = [(abs(nodes[i] - nodes[j]) * T, i, j) for k, i in enumerate(z) for j in z[k + 1:]]
        if min(pairs, default=(math.inf,))[0] > 1.0:
            value = sum(exps[i] / math.prod(nodes[i] - nodes[j] for j in z if j != i) for i in z)
        elif max(pairs)[0] > 1.0:
            _, a, b = max(pairs)
            value = (divided(mask ^ 1 << a) - divided(mask ^ 1 << b)) / (nodes[b] - nodes[a])
        else:
            m = sum(nodes[i] for i in z) / len(z)
            h = [1.0] + [0.0] * (_TAYLOR_TERMS - 1)
            for i in z:
                w = (nodes[i] - m) * T
                for j in range(1, _TAYLOR_TERMS):
                    h[j] += w * h[j - 1]
            p = len(z) - 1
            value = cmath.exp(T * m) * T**p * sum(map(operator.mul, h, _INV_FACTORIAL[p:]))
        memo[mask] = value
        return value

    return divided


#: The subsets of the nodes (l1, l2, 2 l1, l1 + l2, 2 l2) that :func:`_propagate` reads.
_MASKS = (1, 3, 5, 7, 13, 15, 29, 31)


def _separated_divided_differences(
    nodes: tuple[complex, ...], T: float,
) -> tuple[complex, ...] | None:
    """exp_T over the ``_MASKS`` subsets of five nodes all more than 1/T apart, else None.

    The values are those of :func:`_exp_divided_differences`, to the bit: its
    sum formula in its operation order, ``sum`` from int 0 over the subset's
    nodes z_i in ascending order, each e^(T z_i) divided by the product, from
    int 1 and in ascending order, of z_i - z_j over the subset's other nodes.
    Nested subsets share the products' prefixes.  None leaves nodes closer
    than that to the recursion.
    """
    z0, z1, z2, z3, z4 = nodes
    d01, d02, d03, d04, d12 = z0 - z1, z0 - z2, z0 - z3, z0 - z4, z1 - z2
    d13, d14, d23, d24, d34 = z1 - z3, z1 - z4, z2 - z3, z2 - z4, z3 - z4
    if not all(abs(d) * T > 1.0 for d in (d01, d02, d03, d04, d12, d13, d14, d23, d24, d34)):
        return None
    e0, e1, e2, e3, e4 = [cmath.exp(T * z) for z in nodes]
    d10, d20, d21, d30, d31 = z1 - z0, z2 - z0, z2 - z1, z3 - z0, z3 - z1
    d32, d40, d41, d42, d43 = z3 - z2, z4 - z0, z4 - z1, z4 - z2, z4 - z3
    # p<i>_<js>: node i's product of z_i - z_j over j in js; 1 * d is math.prod's first step
    p0_1, p0_2, p1_0, p2_0, p3_0, p4_0 = 1 * d01, 1 * d02, 1 * d10, 1 * d20, 1 * d30, 1 * d40
    p0_12, p0_23, p1_02, p2_01 = p0_1 * d02, p0_2 * d03, p1_0 * d12, p2_0 * d21
    p2_03, p3_01, p3_02, p4_02 = p2_0 * d23, p3_0 * d31, p3_0 * d32, p4_0 * d42
    p0_123, p1_023, p2_013 = p0_12 * d03, p1_02 * d13, p2_01 * d23
    p3_012, p4_012 = p3_01 * d32, p4_0 * d41 * d42
    return (
        sum((e0 / 1,)),  # one node: over the empty product, int 1
        sum((e0 / p0_1, e1 / p1_0)),
        sum((e0 / p0_2, e2 / p2_0)),
        sum((e0 / p0_12, e1 / p1_02, e2 / p2_01)),
        sum((e0 / p0_23, e2 / p2_03, e3 / p3_02)),
        sum((e0 / p0_123, e1 / p1_023, e2 / p2_013, e3 / p3_012)),
        sum((e0 / (p0_23 * d04), e2 / (p2_03 * d24), e3 / (p3_02 * d34), e4 / (p4_02 * d43))),
        sum((e0 / (p0_123 * d04), e1 / (p1_023 * d14), e2 / (p2_013 * d24),
             e3 / (p3_012 * d34), e4 / (p4_012 * d43))),
    )


def _propagate(params: MeanFieldParams, root: complex, beta: complex,
               T: float) -> tuple[complex, complex]:
    """(state after ``T`` seconds from ``beta``, d2): the flow about a stable root to second order.

    As a real pair, d = beta - root follows d' = J d + Q(d) + 12 i eta |d|^2 d,
    with Q(d) = 12 i eta (|d|^2 root + 2 Re(conj(root) d) d).  J has the
    eigenvalues l1, l2 = -gamma_b/2 -+ s, s^2 = -(u + x)(u + 3x), x = 12 eta n
    (det J is :func:`libration.steadystate._curve_slope`), and in Newton form
    e^(Jt) = e^(l1 t) I + exp_t[l1, l2] (J - l1 I), exp_t[...] being divided
    differences of x -> e^(x t).  The state returned is root + e^(JT) d + d2
    with the second-order term d2 = integral_0^T e^(J(T-t)) Q(e^(Jt) d) dt.
    Q(e^(Jt) d) is a sum of exponentials at 2 l1, l1 + l2 and 2 l2, so d2 is
    a sum of divided differences over those nodes and l1, l2, finite at
    every confluence: s = 0, 2 l2 = l1 (s = gamma_b/6) or a fold.  Nodes all
    over 1/T apart take :func:`_separated_divided_differences`, others the
    recursion of :func:`_exp_divided_differences`; where both apply they give
    the same bits.  |d2| is the error of the first-order state, to within
    O(|d|^3).
    """
    k = 12.0 * params.eta
    p, q = root.real, root.imag
    n = p * p + q * q
    a = params.delta_ml + k * (n + 1.0)
    g = params.gamma_b / 2.0
    s = cmath.sqrt(-a * (a + 2.0 * k * n))
    # 800 decay times of the slowest mode take every exponential below float range
    T = min(T, 800.0 / (g - s.real)) if s.real < g else T
    # N = J - l1 I, J = [[-g - 2k p q, -a - 2k q^2], [a + 2k p^2, -g + 2k p q]]
    n00, n01 = s - 2.0 * k * p * q, -a - 2.0 * k * q * q
    n10, n11 = a + 2.0 * k * p * p, s + 2.0 * k * p * q
    x0, y0 = beta.real - p, beta.imag - q
    x1, y1 = n00 * x0 + n01 * y0, n10 * x0 + n11 * y0

    def form(vx: complex, vy: complex, wx: complex, wy: complex) -> tuple[complex, complex]:
        # the symmetric bilinear form of Q: Q(d) = form(d, d)
        dot, pv, pw = vx * wx + vy * wy, p * vx + q * vy, p * wx + q * wy
        return k * (-q * dot - pv * wy - pw * vy), k * (p * dot + pv * wx + pw * vx)

    (aa_x, aa_y), (ab_x, ab_y), (bb_x, bb_y) = (
        form(x0, y0, x0, y0), form(x0, y0, x1, y1), form(x1, y1, x1, y1))
    # Q(e^(Jt) d) = e^(2 l1 t) Q(d) + 2 exp_t[2 l1, l1 + l2] form(d, N d)
    # + 2 exp_t[2 l1, l1 + l2, 2 l2] Q(N d), and integral_0^T e^(J(T-t)) exp_t[M] dt
    # = exp_T[M, l1] I + exp_T[M, l1, l2] N; l1, l2, 2 l1, l1 + l2, 2 l2 are mask bits 1-16
    l1 = -g - s
    nodes = (l1, -g + s, 2.0 * l1, -2.0 * g, -2.0 * g + 2.0 * s)
    dd = _separated_divided_differences(nodes, T)
    if dd is None:  # confluent nodes: the recursion's Taylor series and splits
        dd = tuple(map(_exp_divided_differences(nodes, T), _MASKS))
    e1, e12, dd5, dd7, dd13, dd15, dd29, dd31 = dd
    c1, c2, c3 = dd5, 2.0 * dd13, 2.0 * dd29
    c4, c5, c6 = dd7, 2.0 * dd15, 2.0 * dd31
    vx, vy = c4 * aa_x + c5 * ab_x + c6 * bb_x, c4 * aa_y + c5 * ab_y + c6 * bb_y
    d2x = (c1 * aa_x + c2 * ab_x + c3 * bb_x + n00 * vx + n01 * vy).real
    d2y = (c1 * aa_y + c2 * ab_y + c3 * bb_y + n10 * vx + n11 * vy).real
    end = complex(p + (e1 * x0 + e12 * x1).real + d2x, q + (e1 * y0 + e12 * y1).real + d2y)
    return end, complex(d2x, d2y)


def _grid_roots(grid: list[MeanFieldParams]) -> list[list[tuple[complex, float]]]:
    """(beta*, det J) of each drive's stable steady roots, in one pass over an ascending grid.

    Each drive solves only its outer brackets, each Newton starting at the
    previous drive's root where that lies in the bracket
    (:func:`libration.steadystate.steady_occupations` with ``near``).  An
    undamped drive has none, and so has a drive whose roots fail; the next
    drive then starts cold.
    """
    stable, near = [], []
    for params in grid:
        roots = []
        if params.gamma_b > 0.0:
            k, u = 12.0 * params.eta, params.u
            try:
                near = steady_occupations(params, near)
                slopes = [(n, _curve_slope(u, params.gamma_b, k * n)) for n in near]
                roots = [(beta_from_n(params, n), det) for n, det in slopes if det > 0.0]
            except (ValueError, ResonanceError):
                near = []
        stable.append(roots)
    return stable


def _plateau(params: MeanFieldParams, roots: list[tuple[complex, float]], beta: complex,
             dwell: float, tol: float) -> tuple[complex, int, int, bool]:
    """(end state, n_rhs, n_rejected, complete) of a plateau of ``dwell`` seconds from ``beta``.

    ``roots`` are the drive's stable roots, from :func:`_grid_roots`.  Where
    the module docstring's gate does not hold about the nearest stable root at
    the start, one DP45 run stops at the first step where it does;
    :func:`_propagate` then finishes the dwell if its estimate 2|d2|/|beta*|
    is at most ``tol``.  After a refusal DP45 runs on, and the next attempt
    waits until |d| <= |d_r| sqrt(tol |beta*| / (2|d2|)), as d2 scales as
    |d|^2.  A closed form whose exponentials leave float range is not tried
    again: DP45 runs to the end of the dwell, as on a drive without stable
    roots (undamped, or unsolvable).
    """
    stop, gated = (), False
    if roots:
        (r1, det1), (r2, det2) = roots[0], roots[-1]
        stop = (r1.real, r1.imag, 2.0 * abs(r1), 0.01 * math.sqrt(det1),
                r2.real, r2.imag, 2.0 * abs(r2), 0.01 * math.sqrt(det2), math.inf)
        root, det = min(roots, key=lambda r: abs(beta - r[0]))
        d = abs(beta - root)
        gated = 12.0 * params.eta * (2.0 * abs(root) + d) * d < 0.01 * math.sqrt(det)
    t, n_rhs, n_rejected = 0.0, 0, 0
    while True:
        if not gated:  # DP45 until the gate holds after a step, or to the dwell's end
            traj = integrate(params, beta, (t, dwell), tol=tol, _stop=stop)
            beta, t = traj.beta[-1], traj.t[-1]
            n_rhs += traj.n_rhs
            n_rejected += traj.n_rejected
            if t == dwell or not traj.complete:  # the run reached its span's end, or failed
                return beta, n_rhs, n_rejected, traj.complete
            root, _ = min(roots, key=lambda r: abs(beta - r[0]))
        gated = False
        try:
            end, d2 = _propagate(params, root, beta, dwell - t)
        except (ArithmeticError, ValueError):  # a phase T Im(l) beyond float range
            stop = ()
            continue
        if 2.0 * abs(d2) <= tol * abs(root):
            return end, n_rhs, n_rejected, True
        reach = abs(beta - root) * math.sqrt(tol * abs(root) / (2.0 * abs(d2)))
        stop = stop[:-1] + (reach,)


def _ramp(params: list[MeanFieldParams], roots: list[list[tuple[complex, float]]],
          dwell: float, beta_init: complex, tol: float,
          turning: TurningPoints | None) -> SweepResult:
    """The plateaus of ``params`` in order, each about its ``roots``: see quasi_static_sweep."""
    direction = "up" if params[0].Omega < params[-1].Omega else "down"
    beta, ends = complex(beta_init), []
    n_rhs, n_rejected, complete = 0, 0, True
    for p, stable in zip(params, roots):
        beta, rhs, rejected, complete = _plateau(p, stable, beta, dwell, tol)
        ends.append(beta)
        n_rhs += rhs
        n_rejected += rejected
        if not complete:
            break
    drives = [p.Omega for p in params]
    trajectory = Trajectory([(k + 1) * dwell for k in range(len(ends))], ends,
                            drives[: len(ends)], complete, n_rhs, n_rejected)
    p = params[0]
    jump = _fold_crossing(drives, trajectory.n, p.delta_ml, p.eta, turning, direction)
    return SweepResult(trajectory, jump, direction, turning)


def _ramp_grid(delta_ml: float, gamma_b: float, eta: float, drives: Sequence[float],
               dwell: float, descending: bool) -> tuple[list, list]:
    """The params and :func:`_grid_roots` of ``drives``, in their order.

    The sweeps' input contract: at least 3 drives, each finite and >= 0,
    strictly increasing (or, with ``descending``, strictly decreasing), and a
    finite dwell > 0; else ValueError.  The roots are solved over the drives
    in ascending order, whichever way they run.
    """
    if not 0.0 < dwell < math.inf:
        raise ValueError(f"dwell must be positive and finite, got {dwell!r}")
    grid = _drive_grid(drives, 3, descending)
    order = -1 if grid[0] > grid[-1] else 1
    params = [MeanFieldParams(delta_ml, w, gamma_b, eta) for w in grid[::order]]
    return params[::order], _grid_roots(params)[::order]


def quasi_static_sweep(delta_ml: float, gamma_b: float, eta: float, drives: Sequence[float],
                       dwell: float, beta_init: complex = 0.0 + 0.0j,
                       tol: float = 1e-8) -> SweepResult:
    """Ramp the drive amplitude through its plateaus and record the end states.

    Each plateau (:func:`_plateau`) of ``drives``, in ramp order up or down
    (:func:`_ramp_grid`), runs for ``dwell`` seconds from the end state of
    the previous one; the ramp stops after the first incomplete plateau.  The
    drives' stable roots are solved first, in one pass (:func:`_grid_roots`).
    A dwell much shorter than the damping time cannot settle; that case is
    run as given (the CLI prints a warning).
    """
    params, roots = _ramp_grid(delta_ml, gamma_b, eta, drives, dwell, True)
    return _ramp(params, roots, dwell, beta_init, tol, _physical_folds(delta_ml, eta, gamma_b))


class HysteresisResult(NamedTuple):
    """Up/down sweep pair (each with its own ``jump``) and enclosed loop area.

    ``loop_area`` is the integral of (n_down - n_up) over the drive range:
    positive inside a bistability window, ~0 for a monostable curve.
    """

    up: SweepResult
    down: SweepResult
    loop_area: float


def hysteresis_sweep(delta_ml: float, gamma_b: float, eta: float, drives: Sequence[float],
                     dwell: float, tol: float = 1e-8) -> HysteresisResult:
    """Run an up ramp over ``drives``, then its reverse from the final state, and compare.

    ``drives`` must be strictly increasing (:func:`_ramp_grid`).  Both
    ramps run plateau by plateau (:func:`_plateau`), ``dwell`` seconds each,
    on that one grid: the down ramp visits the drives in reverse.  The stable
    roots of each drive are solved once, in one ascending pass
    (:func:`_grid_roots`) into a list that the up ramp reads forwards and the
    down ramp backwards, and the fold pair once; the result equals
    :func:`quasi_static_sweep` up and then down, bit for bit.  The terms
    (x0 - x1)(y0 + y1)/2 along both ramps are +integral(n_down) on the
    falling drive and -integral(n_up) on the rising one; ``loop_area`` is
    their ``math.fsum``.
    """
    params, roots = _ramp_grid(delta_ml, gamma_b, eta, drives, dwell, False)
    turning = _physical_folds(delta_ml, eta, gamma_b)
    up = _ramp(params, roots, dwell, 0.0j, tol, turning)
    down = _ramp(params[::-1], roots[::-1], dwell, up.trajectory.beta[-1], tol, turning)
    terms = []
    for sweep in (up, down):
        x, y = sweep.trajectory.omega_applied, sweep.trajectory.n
        terms += [(x0 - x1) * (y0 + y1) / 2.0 for x0, x1, y0, y1 in zip(x, x[1:], y, y[1:])]
    return HysteresisResult(up=up, down=down, loop_area=math.fsum(terms))
