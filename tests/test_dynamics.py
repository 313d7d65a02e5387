import csv
import functools
import math
import os
import re

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import libration
from libration import dynamics
from libration.cli import main
from libration.config import ConfigError, _parse_ramp, load_config
from libration.dynamics import (
    Trajectory,
    _fold_crossing,
    hysteresis_sweep,
    integrate,
    mean_field_rhs,
    quasi_static_sweep,
)
from libration.model import DWELL_DAMPING_CYCLES, NumericalError, mode_parameters
from libration.steadystate import (
    RESIDUAL_RTOL,
    MeanFieldParams,
    ResonanceError,
    _cubic_n,
    _curve_slope,
    _linspace,
    beta_from_n,
    steady_occupations,
    turning_points,
)
from oracles import dopri_complex

REF_DELTA_ML = -34283.6799057411
REF_GAMMA_B = 8012.985643210628
REF_ETA = 0.021209365972552064
SQRT3 = math.sqrt(3.0)


def ref_params(Omega):
    return MeanFieldParams(delta_ml=REF_DELTA_ML, Omega=Omega,
                           gamma_b=REF_GAMMA_B, eta=REF_ETA)


def test_rhs_matches_equation_of_motion():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = MeanFieldParams(
            delta_ml=float(rng.normal(scale=1e4)),
            Omega=float(rng.uniform(0, 1e6)),
            gamma_b=float(rng.uniform(0, 1e4)),
            eta=float(rng.uniform(1e-3, 1e-1)),
        )
        beta = complex(rng.normal(scale=50.0), rng.normal(scale=50.0))
        expected = (
            (1j * p.delta_ml - p.gamma_b / 2.0
             + 12j * p.eta * (abs(beta) ** 2 + 1.0)) * beta
            - 1j * p.Omega / 2.0
        )
        # association order differs between this expression and the
        # implementation, so agreement is to rounding, not bitwise
        got = mean_field_rhs(beta, p)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-9)


def test_integrator_global_error_vs_linear_solution():
    # with eta ~ 0 the flow is linear with closed-form solution
    def exact(p, beta0, t):
        a = 1j * p.delta_ml - p.gamma_b / 2.0
        b = -1j * p.Omega / 2.0
        fixed = -b / a
        return fixed + (beta0 - fixed) * np.exp(a * t)

    for Omega, label_scale in ((9.0e6, 220.0), (7.0e4, 1.7)):
        p = MeanFieldParams(delta_ml=REF_DELTA_ML, Omega=Omega,
                            gamma_b=REF_GAMMA_B, eta=1e-30)
        for tol in (1e-6, 1e-8, 1e-10):
            tr = integrate(p, 0.0 + 0.0j, (0.0, 0.01), tol=tol)
            assert tr.complete
            ref = exact(p, 0.0 + 0.0j, np.asarray(tr.t))  # at every accepted step
            err = float(np.max(np.abs(np.asarray(tr.beta) - ref)))
            scale = float(np.max(np.abs(ref)))
            assert scale == pytest.approx(label_scale, rel=0.2)
            assert err < 10.0 * tol * scale
        # order-one amplitudes also satisfy the bound in the absolute sense
        if label_scale < 10.0:
            assert err < 10.0 * tol


def test_integrate_drive_column():
    p = ref_params(5.0e6)
    tr = integrate(p, 1.0 + 0.0j, (0.0, 1e-4), tol=1e-8)
    assert tr.t[0] == 0.0 and tr.t[-1] == 1e-4 and np.all(np.diff(tr.t) > 0.0)
    assert tr.beta[0] == 1.0
    assert tr.omega_applied == [5.0e6] * len(tr.t)
    np.testing.assert_allclose(tr.n, np.abs(tr.beta) ** 2, rtol=1e-14)
    with pytest.raises(ValueError):
        integrate(p, 0.0 + 0.0j, (0.0, 1.0), tol=0.0)


def test_relaxation_selects_nearby_stable_branch():
    p = ref_params(6.0e6)
    lo, mid, hi = steady_occupations(p)
    horizon = 40.0 / REF_GAMMA_B
    tr = integrate(p, 0.0 + 0.0j, (0.0, horizon), tol=1e-10)
    np.testing.assert_allclose(float(tr.n[-1]), lo, rtol=1e-6)
    start = beta_from_n(p, hi) * 1.05
    tr = integrate(p, start, (0.0, horizon), tol=1e-10)
    np.testing.assert_allclose(float(tr.n[-1]), hi, rtol=1e-6)


def _scipy_rk45(p, beta0, t_span, tol):
    """scipy's RK45 with the tolerances ``integrate`` documents for ``tol``."""
    rtol = max(tol / 10.0, 1e-13)

    def rhs(t, y):
        d = mean_field_rhs(complex(y[0], y[1]), p)
        return [d.real, d.imag]

    sol = solve_ivp(rhs, t_span, [beta0.real, beta0.imag], method="RK45",
                    rtol=rtol, atol=rtol * max(1.0, abs(beta0)))
    assert sol.status == 0
    return sol.t, sol.y[0] + 1j * sol.y[1]


def test_stepper_matches_scipy_rk45():
    # the in-module Dormand-Prince stepper takes scipy RK45's accepted steps
    # on one quasi-static plateau, from rest and from near each steady branch
    dwell = 20.0 / REF_GAMMA_B
    bistable = ref_params(6.0e6)
    cases = [(2.0e6, 0.0j), (1.2e7, 0.0j), (6.0e6, 0.0j)]
    cases += [(6.0e6, beta_from_n(bistable, n) * 1.05) for n in steady_occupations(bistable)]
    for Omega, beta0 in cases:
        p = ref_params(Omega)
        for tol in (1e-6, 1e-8, 1e-10):
            tr = integrate(p, beta0, (0.0, dwell), tol=tol)
            t_ref, beta_ref = _scipy_rk45(p, beta0, (0.0, dwell), tol)
            assert tr.complete
            assert len(tr.t) == len(t_ref)
            assert abs(tr.beta[-1] - beta_ref[-1]) <= 1e-12 * abs(beta_ref[-1])


def _reference_plateaus():
    """(params, beta0) of one plateau from rest and from near each steady branch."""
    bistable = ref_params(6.0e6)
    cases = [(ref_params(w), 0.0j) for w in (2.0e6, 1.2e7, 6.0e6)]
    cases += [(bistable, beta_from_n(bistable, n) * 1.05) for n in steady_occupations(bistable)]
    return cases


def _assert_same_steps(p, beta0, t_span, tol):
    """The complex stepper's accepted steps, and the work counted for them."""
    tr = integrate(p, beta0, t_span, tol=tol)
    t_ref, beta_ref = dopri_complex(p, beta0, t_span, tol)
    assert tr.complete
    assert np.array_equal(tr.t, t_ref)
    assert np.array_equal(tr.beta, beta_ref)
    # two evaluations for the initial step, six per tried step
    assert tr.n_rhs == 2 + 6 * (len(tr.t) - 1 + tr.n_rejected)
    return tr


def test_pair_kernel_is_bit_identical_to_complex_stepper():
    # the real-pair kernel takes the complex form's accepted steps to the bit
    dwell = 20.0 / REF_GAMMA_B
    rejected = 0
    for p, beta0 in _reference_plateaus():
        for tol in (1e-6, 1e-8, 1e-10):
            rejected += _assert_same_steps(p, beta0, (0.0, dwell), tol).n_rejected
    assert rejected > 0
    # an undamped plateau with an explicit dwell
    undamped = MeanFieldParams(delta_ml=REF_DELTA_ML, Omega=6.0e6, gamma_b=0.0, eta=REF_ETA)
    _assert_same_steps(undamped, 0.0j, (0.0, 2.5e-3), 1e-8)
    # starts with negative and negative-zero parts, where the comparisons
    # standing in for abs/min/max would show a sign slip
    bistable = ref_params(6.0e6)
    low = beta_from_n(bistable, steady_occupations(bistable)[0])
    assert low.real < 0.0 and low.imag < 0.0
    starts = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
              0.95 * low, complex(low.real, -1e-3), -abs(low) * (1.0 + 1.0j)]
    for beta0 in starts:
        for tol in (1e-6, 1e-10):
            _assert_same_steps(bistable, beta0, (0.0, dwell), tol)


def _dp45_ramp(params, drives, dwell, beta, tol):
    """A ramp with every plateau one ``integrate`` call over the dwell, DP45 alone.

    Returns the plateau end states, the accepted steps and the right-hand-side
    evaluations: the sweep as it was stepped before the closed form.
    """
    ends, steps, n_rhs = [], 0, 0
    for w in drives:
        tr = integrate(params._replace(Omega=float(w)), beta, (0.0, dwell), tol=tol)
        beta = tr.beta[-1]
        ends.append(beta)
        steps += len(tr.t) - 1
        n_rhs += tr.n_rhs
    return ends, steps, n_rhs


def test_ramp_across_both_folds_is_bit_identical_to_complex_stepper():
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B
    )
    lo, hi = 0.8 * tp.drive_high, 1.1 * tp.drive_low
    drives, dwell = _linspace(lo, hi, 40), DWELL_DAMPING_CYCLES / REF_GAMMA_B
    # undamped, each plateau is one integrate call: the complex stepper's steps to the bit
    undamped = MeanFieldParams(delta_ml=REF_DELTA_ML, Omega=0.0, gamma_b=0.0, eta=REF_ETA)
    result = hysteresis_sweep(REF_DELTA_ML, 0.0, REF_ETA, _linspace(lo, hi, 12), 1e-3)
    beta = 0.0j
    for sweep in (result.up, result.down):
        ends = []
        n_rhs = n_rejected = 0
        for w in sweep.trajectory.omega_applied:
            tr = _assert_same_steps(undamped._replace(Omega=float(w)), beta, (0.0, 1e-3), 1e-8)
            beta = tr.beta[-1]
            ends.append(beta)
            n_rhs += tr.n_rhs
            n_rejected += tr.n_rejected
        assert np.array_equal(sweep.trajectory.beta, ends)
        # the sweep's work counters are the sums over its plateaus
        assert sweep.trajectory.n_rhs == n_rhs
        assert sweep.trajectory.n_rejected == n_rejected
    # damped, each plateau is within 10 tol (relative in n) of DP45 at tol
    # 1e-12 from the same start state, but for the jump plateaus, which run on
    # DP45 alone and are as accurate as DP45 at the sweep's tol; the jumps
    # fall on the plateaus of the DP45-only sweep
    tol = 1e-8
    result = hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives, dwell, tol=tol)
    damped = ref_params(0.0)
    beta = 0.0j
    for sweep, ramp in ((result.up, drives), (result.down, drives[::-1])):
        dp45, _, _ = _dp45_ramp(damped, ramp, dwell, beta, tol)
        jump = sweep.jump
        assert jump is not None
        k_jump = sweep.trajectory.n.index(jump.n_after)
        dp45_n = [b.real * b.real + b.imag * b.imag for b in dp45]
        assert _fold_crossing(ramp, dp45_n, REF_DELTA_ML, REF_ETA, sweep.turning,
                              sweep.direction).drive == jump.drive
        for k, (w, end, n) in enumerate(zip(ramp, sweep.trajectory.beta, sweep.trajectory.n)):
            p = damped._replace(Omega=w)
            n_ref = abs(integrate(p, beta, (0.0, dwell), tol=1e-12).beta[-1]) ** 2
            if k == k_jump:
                n_dp45 = abs(integrate(p, beta, (0.0, dwell), tol=tol).beta[-1]) ** 2
                bound = max(10.0 * tol * n_ref, 2.0 * abs(n_dp45 - n_ref))
            else:
                bound = 10.0 * tol * n_ref
            assert abs(n - n_ref) <= bound
            beta = end


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    delta_ml=st.floats(-1e8, 1e8),
    Omega=st.one_of(st.just(0.0), st.floats(0.0, 1e10)),
    gamma_b=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    eta=st.floats(1e-8, 1e2),
    br=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    bi=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
)
def test_stepper_matches_complex_stepper_on_drawn_states(delta_ml, Omega, gamma_b, eta,
                                                          br, bi):
    # the inline right-hand side of the initial step and of every stage, from
    # states with zero, signed-zero and large parts, takes the complex form's
    # steps to the bit; the span is a few of the fastest time scales: the
    # detuning, the damping, the Kerr rotation at the start and once the drive
    # has grown the amplitude, and the drive's growth of |beta|
    p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
    n = br * br + bi * bi
    rate = (1.0 + abs(delta_ml) + gamma_b + 12.0 * eta * (n + 1.0)
            + (3.0 * eta * Omega * Omega) ** (1 / 3) + Omega / (1.0 + math.sqrt(n)))
    _assert_same_steps(p, complex(br, bi), (0.0, 4.0 / rate), 1e-8)


@functools.cache
def _shipped_hysteresis():
    """The CLI's sweep of configs/hysteresis.json."""
    root = Path(libration.__file__).resolve().parents[2]
    cfg = load_config(root / "configs" / "hysteresis.json")
    mode = mode_parameters(cfg.particle, cfg.trap)
    ramp = cfg.ramp
    return hysteresis_sweep(cfg.drive.delta_ml, cfg.gamma_b, mode.eta, ramp.grid, ramp.dwell,
                            tol=ramp.tolerance)


def test_sweep_counts_on_shipped_hysteresis_config():
    # the CLI's sweep of configs/hysteresis.json on DP45 alone, one integrate
    # call per plateau: 600 plateaus, 86,988 accepted steps, 564,642
    # right-hand-side evaluations
    root = Path(libration.__file__).resolve().parents[2]
    cfg = load_config(root / "configs" / "hysteresis.json")
    ramp = cfg.ramp
    params = MeanFieldParams(delta_ml=cfg.drive.delta_ml, Omega=0.0, gamma_b=cfg.gamma_b,
                             eta=cfg.mode.eta)
    up, up_steps, up_rhs = _dp45_ramp(params, ramp.grid, ramp.dwell, 0.0j, ramp.tolerance)
    _, down_steps, down_rhs = _dp45_ramp(params, ramp.grid[::-1], ramp.dwell, up[-1],
                                         ramp.tolerance)
    assert up_steps + down_steps == 86_988
    assert up_rhs + down_rhs == 564_642
    # the sweep itself, DP45 only until the first gated step hands over to
    # the closed form: 19,090 evaluations, and 598 plateaus end in closed form
    result = _shipped_hysteresis()
    trajectories = (result.up.trajectory, result.down.trajectory)
    assert sum(len(tr.t) for tr in trajectories) == 600
    assert sum(tr.n_rhs for tr in trajectories) == 19_090


def _stop_test(roots, reach=math.inf):
    """integrate's plateau stop test about a drive's stable roots, as _plateau passes it."""
    (r1, det1), (r2, det2) = roots[0], roots[-1]
    return (r1.real, r1.imag, 2.0 * abs(r1), 0.01 * math.sqrt(det1),
            r2.real, r2.imag, 2.0 * abs(r2), 0.01 * math.sqrt(det2), reach)


def _gate_holds(params, roots, beta, reach=math.inf):
    """The plateau gate by its definition: about the nearest stable root beta*,
    12 eta (2|beta*| + |d|)|d| < 0.01 sqrt(det J), and |d| <= reach."""
    root, det = min(roots, key=lambda r: abs(beta - r[0]))
    d = abs(beta - root)
    return d <= reach and 12.0 * REF_ETA * (2.0 * abs(root) + d) * d < 0.01 * math.sqrt(det)


@pytest.mark.parametrize("omega, start", [
    (2.0e6, 0.0j), (1.2e7, 0.0j), (6.0e6, 0.0j), (6.0e6, "middle"), (6.0e6, "near low"),
])
def test_a_stopped_run_is_a_prefix_of_the_unstopped_run(omega, start):
    # with a stop test, integrate takes the unstopped run's steps to the bit
    # and ends at the first accepted step where the test holds, keeping only
    # the ends; the start state is not tested
    p = ref_params(omega)
    if start == "middle":
        start = beta_from_n(p, steady_occupations(p)[1]) * (1.0 + 1e-3)
    elif start == "near low":  # the gate holds from the start: one step
        start = beta_from_n(p, steady_occupations(p)[0]) * (1.0 + 1e-9)
    roots = dynamics._grid_roots([p])[0]
    span = (0.0, 20.0 / REF_GAMMA_B)
    full = integrate(p, start, span, tol=1e-8)
    last = len(full.t) - 1
    stops = [next(i for i in range(1, last) if _gate_holds(p, roots, full.beta[i]))]
    # a reach of a tenth of that stop's distance, and a test that never holds
    reach = 0.1 * min(abs(full.beta[stops[0]] - r) for r, _ in roots)
    stops.append(next((i for i in range(1, last) if _gate_holds(p, roots, full.beta[i], reach)),
                      last))
    for i, stop in zip(stops + [last], (_stop_test(roots), _stop_test(roots, reach), ())):
        stopped = integrate(p, start, span, tol=1e-8, _stop=stop)
        assert stopped.complete and (stopped.t[-1] < span[1]) == (i < last)
        assert stopped.t == [full.t[0], full.t[i]]
        assert stopped.beta == [full.beta[0], full.beta[i]]
        assert stopped.n_rejected <= full.n_rejected
        assert stopped.n_rhs == 2 + 6 * (i + stopped.n_rejected)
    assert stopped.n_rhs == full.n_rhs and stops[0] < stops[1]
    if omega == 6.0e6 and abs(start) > 1.0:
        assert (stops[0] == 1) == _gate_holds(p, roots, start)


def test_a_refused_closed_form_is_retried_at_the_first_step_within_the_bound(monkeypatch):
    # d2 scales as |d|^2, so after a refusal at d_r the next closed form is
    # tried at the first DP45 step where the gate holds and |d| is within
    # |d_r| sqrt(tol |beta*| / (2|d2|))
    events, real_propagate, real_integrate = [], dynamics._propagate, dynamics.integrate

    def propagate(params, root, beta, T):
        end, d2 = real_propagate(params, root, beta, T)
        events.append(("closed", params, root, beta, T, d2))
        return end, d2

    def run(params, beta, t_span, tol, **plateau):
        events.append(("dp45", params, beta, t_span))
        return real_integrate(params, beta, t_span, tol=tol, **plateau)

    monkeypatch.setattr(dynamics, "_propagate", propagate)
    monkeypatch.setattr(dynamics, "integrate", run)
    shipped = _shipped_hysteresis.__wrapped__()
    monkeypatch.undo()
    tol, up = 1e-8, shipped.up.trajectory.omega_applied
    grid_roots = dict(zip(up, dynamics._grid_roots([ref_params(w) for w in up])))
    refusals = [k for k, e in enumerate(events)
                if e[0] == "closed" and 2.0 * abs(e[5]) > tol * abs(e[2])]
    assert len(refusals) == 25
    retries = 0
    for k in refusals:
        _, params, root, beta_r, T, d2 = events[k]
        kind, _, start, span = events[k + 1]
        assert (kind, start) == ("dp45", beta_r) and span[1] - span[0] == T
        reach = abs(beta_r - root) * math.sqrt(tol * abs(root) / (2.0 * abs(d2)))
        roots = grid_roots[params.Omega]
        full = real_integrate(params, beta_r, span, tol=tol)
        i = next((i for i, b in enumerate(full.beta) if _gate_holds(params, roots, b, reach)),
                 None)
        if i is None:  # DP45 to the end of the dwell; the next plateau starts there
            following = events[k + 2] if k + 2 < len(events) else None
            assert following is None or following[2 if following[0] == "dp45" else 3] == \
                full.beta[-1]
            continue
        kind, retried, _, beta, T_retry, _ = events[k + 2]
        assert (kind, retried, beta) == ("closed", params, full.beta[i])
        assert T_retry == span[1] - full.t[i]
        retries += 1
    assert retries == 24  # one refused plateau runs DP45 to its end


def test_every_plateau_but_the_jumps_is_within_10_tol_of_a_tight_sweep():
    # relative in n, against the same sweep at tol 1e-12; the two jump
    # plateaus cross to the other branch on DP45 and are within 20 tol (up
    # 265: 1.5e-7; down 279: 1.2e-8)
    tol, shipped = 1e-8, _shipped_hysteresis()
    root = Path(libration.__file__).resolve().parents[2]
    cfg = load_config(root / "configs" / "hysteresis.json")
    ramp = cfg.ramp
    tight = hysteresis_sweep(cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta, ramp.grid,
                             ramp.dwell, tol=1e-12)
    for sweep, ref in ((shipped.up, tight.up), (shipped.down, tight.down)):
        n, n_ref = sweep.trajectory.n, ref.trajectory.n
        errors = [abs(a - b) / b for a, b in zip(n, n_ref)]
        k_jump = n.index(sweep.jump.n_after)
        assert max(errors[:k_jump] + errors[k_jump + 1:]) <= 10.0 * tol
        assert errors[k_jump] <= 20.0 * tol
    assert (shipped.up.trajectory.n.index(shipped.up.jump.n_after),
            shipped.down.trajectory.n.index(shipped.down.jump.n_after)) == (265, 279)


def test_grid_roots_are_each_drives_steady_roots(monkeypatch):
    # one ascending pass, each Newton from the previous drive's root: every
    # drive's outer roots are its own, within the residual contract, and its
    # stable roots are those with a positive S-curve slope
    solved, real = [], dynamics.steady_occupations

    def spied(params, near=None):
        solved.append(real(params, near))
        return solved[-1]

    monkeypatch.setattr(dynamics, "steady_occupations", spied)
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B)
    up = _shipped_hysteresis().up.trajectory.omega_applied
    for drives in (up, _linspace(0.5 * tp.drive_high, 1.5 * tp.drive_low, 41)):
        grid = [ref_params(w) for w in drives]
        solved.clear()
        roots = dynamics._grid_roots(grid)
        assert len(solved) == len(grid)
        for p, ns, stable in zip(grid, solved, roots):
            cold = steady_occupations(p)
            assert len(ns) == min(len(cold), 2)
            for n, m in zip(ns, (cold[0], cold[-1])):
                assert abs(_cubic_n(p, n)) <= RESIDUAL_RTOL * p.Omega**2 / 4.0
                assert n == pytest.approx(m, rel=1e-12, abs=0.0)
            slopes = [(n, _curve_slope(p.u, p.gamma_b, 12.0 * p.eta * n)) for n in ns]
            assert stable == [(beta_from_n(p, n), det) for n, det in slopes if det > 0.0]
            assert len(stable) == len(ns)


def test_an_outer_root_with_a_negative_slope_is_not_stable():
    # within 4e-14 above the up-fold drive the residual contract also admits
    # occupations by the fold, past it on the unstable side: a cold Newton
    # from 0 stops there, and the drive has no stable root
    p = ref_params(9835328.677567387)
    (n,) = steady_occupations(p)
    assert _curve_slope(p.u, p.gamma_b, 12.0 * p.eta * n) < 0.0
    assert dynamics._grid_roots([p]) == [[]]


def test_a_drive_whose_roots_fail_has_none_and_the_next_starts_cold(monkeypatch):
    # a drive beyond float range, or one whose root raises ResonanceError,
    # gets [] and passes no start on: its neighbours' roots are their own
    low, high = ref_params(5.0e6), ref_params(6.0e6)
    alone = [dynamics._grid_roots([low])[0], dynamics._grid_roots([high])[0]]
    assert dynamics._grid_roots([low, ref_params(1e300), high]) == [alone[0], [], alone[1]]
    real = dynamics.steady_occupations

    def resonant(params, near=None):
        if params.Omega == 5.5e6:
            raise ResonanceError(params, (0.0, 1.0), 0.5, 1.0)
        return real(params, near)

    monkeypatch.setattr(dynamics, "steady_occupations", resonant)
    assert dynamics._grid_roots([low, ref_params(5.5e6), high]) == [alone[0], [], alone[1]]


def test_default_down_grid_is_the_up_grid_reversed(tmp_path):
    # the CLI's up and down omega_applied are load_config's grid and its
    # reverse, bit for bit, where linspace(hi, lo, n) would differ from the up
    # grid in the last bit at 72 of the 300 drives of configs/hysteresis.json
    root = Path(libration.__file__).resolve().parents[2]
    grid = load_config(root / "configs" / "hysteresis.json").ramp.grid
    assert sum(a != b for a, b in zip(np.linspace(grid[-1], grid[0], len(grid)), grid[::-1])) \
        == 72
    assert main(["hysteresis", "--config", str(root / "configs" / "hysteresis.json"),
                 "--out", str(tmp_path)]) == 0
    columns = {}
    for direction in ("up", "down"):
        with open(tmp_path / f"hysteresis_{direction}.csv") as f:
            columns[direction] = [float(row["omega_applied"]) for row in csv.DictReader(f)]
    assert [w.hex() for w in columns["up"]] == [w.hex() for w in grid]
    assert [w.hex() for w in columns["down"]] == [w.hex() for w in grid[::-1]]


def test_shipped_sweep_solves_each_drive_once(monkeypatch):
    # one steady solve per drive, shared by both ramps: 300 calls, not one
    # per plateau (600)
    calls = []

    def counted(params, near=None):
        calls.append(params.Omega)
        return steady_occupations(params, near)

    monkeypatch.setattr(dynamics, "steady_occupations", counted)
    _shipped_hysteresis.__wrapped__()
    assert len(calls) == 300 and len(set(calls)) == 300


def _interpolated_loop_area(result):
    """(area, scale): the loop area as first defined, the down branch
    interpolated onto the up grid before the trapezoid rule, and the same rule
    over n_up + n_down, the magnitude that cancels in the area."""
    up, down = result.up.trajectory, result.down.trajectory
    grid = np.asarray(up.omega_applied)
    n_up = np.asarray(up.n)
    n_down = np.interp(grid, down.omega_applied[::-1], down.n[::-1])
    diff, total = n_down - n_up, n_down + n_up
    return tuple(float((np.diff(grid) * (y[1:] + y[:-1]) / 2.0).sum()) for y in (diff, total))


def test_loop_area_matches_interpolated_trapezoid():
    # on the shipped bistable ramp and on a monostable one, whose area is a
    # cancellation residue ~1e-7 of the integrals it is the difference of
    monostable = hysteresis_sweep(2.0 * math.pi * 500.0, REF_GAMMA_B, REF_ETA,
                                  _linspace(1.0e6, 6.0e6, 60), DWELL_DAMPING_CYCLES / REF_GAMMA_B)
    for result, cancels in ((_shipped_hysteresis(), False), (monostable, True)):
        area, scale = _interpolated_loop_area(result)
        # relative to the area itself where it does not cancel
        assert abs(result.loop_area - area) <= 1e-12 * (scale if cancels else abs(area))


def test_occupation_is_the_rhs_expression():
    # n is re*re + im*im, the occupation the right-hand side uses, to the bit
    # (numpy's |beta|^2 differs from it in the last bit on many samples)
    sweep = quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, _linspace(2.35e6, 1.08e7, 12),
                               DWELL_DAMPING_CYCLES / REF_GAMMA_B)
    tr = integrate(ref_params(6.0e6), 3.0 - 1.0j, (0.0, 1e-3))
    for owner in (tr, sweep.trajectory):
        assert owner.n == [b.real * b.real + b.imag * b.imag for b in owner.beta]
        assert all(type(v) is float for v in owner.n)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    lo=st.one_of(st.just(0.0), st.floats(0.0, 1e12)),
    span=st.floats(5e-324, 1e12),
    n=st.integers(3, 2000),
)
def test_ramp_amplitudes_are_numpy_linspace(lo, span, n):
    # the up ramp's drives that load_config keeps, RampSettings.grid, are
    # np.linspace(start, stop, steps) bit for bit; a grid whose points collide
    # is a config error
    hi = lo + span
    if not hi > lo:
        return
    grid = np.linspace(lo, hi, n).tolist()
    ramp = {"amplitude_start": lo, "amplitude_stop": hi, "steps": n, "dwell_s": 1e-3,
            "tolerance": None}
    if all(a < b for a, b in zip(grid, grid[1:])):
        assert [v.hex() for v in _parse_ramp(ramp, REF_GAMMA_B).grid] == [v.hex() for v in grid]
    else:
        with pytest.raises(ConfigError, match="collide"):
            _parse_ramp(ramp, REF_GAMMA_B)


def test_unusable_initial_step_returns_start_state():
    # a state whose derivative overflows gives a zero initial step (this
    # divided by zero), one whose occupation overflows a NaN one: both end
    # the run at the start state, as a step underflow does
    p = MeanFieldParams(delta_ml=REF_DELTA_ML, Omega=1e300, gamma_b=REF_GAMMA_B, eta=REF_ETA)
    for beta0 in (1e150 + 0.0j, 1e200 + 0.0j):
        tr = integrate(p, beta0, (0.0, 1e-3))
        assert not tr.complete
        assert tr.t == [0.0] and tr.beta == [beta0]
        assert (tr.n_rhs, tr.n_rejected) == (2, 0)


def test_nan_initial_step_norm_returns_start_state():
    # a tolerance so loose that the error scale overflows: f's change over
    # the trial step is inf / inf, a NaN norm, which once divided by zero
    p = MeanFieldParams(delta_ml=REF_DELTA_ML, Omega=1.08e7, gamma_b=REF_GAMMA_B, eta=REF_ETA)
    tr = integrate(p, 1e100 + 0j, (0.0, 2.5e-4), tol=1e300)
    assert not tr.complete
    assert tr.t == [0.0] and tr.beta == [1e100 + 0j]
    assert (tr.n_rhs, tr.n_rejected) == (2, 0)


def test_step_underflow_returns_partial_trajectory():
    # at t ~ 1e12 s ten ulp exceed any step the error control accepts
    tr = integrate(ref_params(6.0e6), 300.0 + 0.0j, (1e12, 1e12 + 1.0))
    assert not tr.complete
    assert len(tr.t) == 1 and tr.t[0] == 1e12 and tr.beta[0] == 300.0 + 0.0j
    # the rejected tries that ended the run are counted
    assert tr.n_rejected > 0 and tr.n_rhs == 2 + 6 * tr.n_rejected


def test_integrate_rejects_non_finite_and_reversed_input():
    p = ref_params(6.0e6)
    for span in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="t_span"):
            integrate(p, 0.0j, span)
    for beta in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="beta_init"):
            integrate(p, beta, (0.0, 1e-4))


def test_zero_length_span_returns_start_state():
    tr = integrate(ref_params(6.0e6), 3.0 - 1.0j, (0.5, 0.5))
    assert tr.complete
    np.testing.assert_array_equal(tr.t, [0.5])
    np.testing.assert_array_equal(tr.beta, [3.0 - 1.0j])
    assert (tr.n_rhs, tr.n_rejected) == (0, 0)


def test_ramp_protocol_basics():
    # a ramp is a drive list and a dwell: the up ramp visits the drives in
    # order, the down ramp in reverse, one plateau of `dwell` seconds each
    drives, dwell = _linspace(1.0e6, 2.0e6, 11), 1e-3
    assert drives[0] == 1.0e6 and drives[-1] == 2.0e6 and len(drives) == 11
    result = hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives, dwell)
    assert (result.up.direction, result.down.direction) == ("up", "down")
    assert result.up.trajectory.omega_applied == drives
    assert result.down.trajectory.omega_applied == drives[::-1]
    for sweep in (result.up, result.down):
        assert sweep.trajectory.t == [(k + 1) * dwell for k in range(11)]
    down = quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives[::-1], dwell)
    assert down.direction == "down" and down.trajectory.omega_applied == drives[::-1]
    with pytest.raises(ValueError):
        hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives[:2], dwell)


@pytest.mark.parametrize("drives, dwell, message", [
    ([1.0e6, 2.0e6], 1e-3, "need 3 or more drive amplitudes, got 2"),
    ([1.0e6, 1.5e6, 1.5e6], 1e-3, "drive amplitude grid must be strictly increasing"),
    ([1.0e6, 2.0e6, 1.5e6], 1e-3, "drive amplitude grid must be strictly increasing"),
    ([2.0e6, 1.5e6, 1.0e6], 1e-3, "drive amplitude grid must be strictly increasing"),
    ([-1.0, 1.0e6, 2.0e6], 1e-3, "drive amplitudes must be finite and >= 0, got -1.0"),
    ([1.0e6, 2.0e6, math.inf], 1e-3, "drive amplitudes must be finite and >= 0, got inf"),
    ([1.0e6, math.nan, 2.0e6], 1e-3, "drive amplitudes must be finite and >= 0, got nan"),
    ([1.0e6, 1.5e6, 2.0e6], 0.0, "dwell must be positive and finite, got 0.0"),
    ([1.0e6, 1.5e6, 2.0e6], math.inf, "dwell must be positive and finite, got inf"),
    ([1.0e6, 1.5e6, 2.0e6], math.nan, "dwell must be positive and finite, got nan"),
], ids=["two-drives", "repeated", "not-monotone", "descending", "negative", "infinite", "nan",
        "zero-dwell", "infinite-dwell", "nan-dwell"])
def test_sweeps_check_their_drives_and_dwell(drives, dwell, message):
    # at least 3 finite drives >= 0, strictly monotone, and a finite dwell > 0;
    # a hysteresis sweep's drives ascend, a quasi-static ramp's go either way
    # (its message reads "increasing or decreasing")
    for sweep in (hysteresis_sweep, quasi_static_sweep):
        if sweep is quasi_static_sweep and drives[0] > drives[-1]:  # a down ramp
            assert sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives, dwell).direction == "down"
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives, dwell)


def test_plateaus_track_steady_branch():
    sweep = quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, _linspace(1.0e6, 2.5e6, 25),
                               DWELL_DAMPING_CYCLES / REF_GAMMA_B)
    assert sweep.direction == "up"
    assert len(sweep.trajectory.omega_applied) == 25
    for w, n in zip(sweep.trajectory.omega_applied, sweep.trajectory.n):
        roots = steady_occupations(ref_params(float(w)))
        assert min(abs(n - r) / max(r, 1.0) for r in roots) < 1e-3


def test_hysteresis_jumps_and_loop():
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B
    )
    drives = _linspace(0.8 * tp.drive_high, 1.1 * tp.drive_low, 120)
    result = hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives,
                              DWELL_DAMPING_CYCLES / REF_GAMMA_B)
    step = drives[1] - drives[0]
    up, down = result.up.jump, result.down.jump
    assert up is not None and down is not None
    assert abs(up.drive - tp.drive_low) < 1.5 * step
    assert abs(down.drive - tp.drive_high) < 1.5 * step
    assert up.n_after > up.n_before
    assert down.n_after < down.n_before
    assert result.loop_area > 0.0
    # the down ramp retraces the same grid by default
    # linspace(b, a, n) is not the bitwise reverse of linspace(a, b, n)
    np.testing.assert_allclose(
        result.down.trajectory.omega_applied, result.up.trajectory.omega_applied[::-1],
        rtol=1e-12,
    )


def test_short_dwell_cold_start_is_not_a_jump():
    # a 5-damping-time dwell leaves the first plateaus far from the branch;
    # only the crossing of the up fold occupation counts as the jump
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B
    )
    result = hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, _linspace(2.35e6, 1.08e7, 100),
                              5.0 / REF_GAMMA_B)
    jump = result.up.jump
    assert jump is not None
    assert jump.n_before <= tp.n_low < jump.n_after


def test_monostable_sweep_has_no_loop():
    # blue-detuned: single branch everywhere, up and down retrace each other
    delta_ml = +2.0 * math.pi * 500.0
    result = hysteresis_sweep(delta_ml, REF_GAMMA_B, REF_ETA, _linspace(1.0e6, 6.0e6, 60),
                              DWELL_DAMPING_CYCLES / REF_GAMMA_B)
    assert result.up.jump is None and result.down.jump is None
    up, down = result.up.trajectory, result.down.trajectory
    n_scale = float(np.max(up.n))
    n_down = np.interp(up.omega_applied, down.omega_applied[::-1], down.n[::-1])
    # the very first plateau still carries the cold-start transient
    # (~exp(-gamma*dwell/2) of the vacuum-to-branch gap); skip it
    assert float(np.max(np.abs(n_down - up.n)[1:])) < 1e-5 * n_scale
    assert float(np.abs(n_down - up.n)[0]) < 1e-3 * n_scale
    assert abs(result.loop_area) < 1e-6 * n_scale * (
        up.omega_applied[-1] - up.omega_applied[0]
    )


def test_trajectory_container():
    t = np.array([0.0, 1.0])
    beta = np.array([1.0 + 0j, 2.0 + 0j])
    tr = Trajectory(t=t, beta=beta, omega_applied=np.zeros(2), complete=False)
    assert tr.beta[-1] == 2.0 + 0j
    np.testing.assert_array_equal(tr.n, [1.0, 4.0])
    assert not tr.complete


def test_hysteresis_sweep_starts_no_process(monkeypatch):
    # the shipped sweep runs in the caller's process alone, so a signal that
    # ends the caller leaves nothing behind
    def refuse(*args, **kwargs):
        raise AssertionError("hysteresis_sweep started a process")

    monkeypatch.setattr(os, "fork", refuse, raising=False)
    monkeypatch.setattr(os, "posix_spawn", refuse, raising=False)
    result = _shipped_hysteresis.__wrapped__()  # a fresh sweep, not the cached one
    shipped = _shipped_hysteresis()
    for sweep, same in ((result.up, shipped.up), (result.down, shipped.down)):
        assert sweep.trajectory.beta == same.trajectory.beta


def _bits(trajectory):
    """A trajectory's fields, each float as its hex: equal only bit for bit."""
    return ([(b.real.hex(), b.imag.hex()) for b in trajectory.beta],
            [t.hex() for t in trajectory.t], [w.hex() for w in trajectory.omega_applied],
            trajectory.complete, trajectory.n_rhs, trajectory.n_rejected)


@pytest.mark.parametrize("gamma_b, steps, dwell", [
    (REF_GAMMA_B, 40, 20.0 / REF_GAMMA_B),
    (0.0, 20, 1e-4),
    (REF_GAMMA_B, 100, 40.0 / REF_GAMMA_B),
], ids=["damped", "undamped", "long-dwell"])
def test_hysteresis_sweep_is_two_plain_ramps(gamma_b, steps, dwell):
    # the sweep equals quasi_static_sweep up and then down from its end, bit for bit
    drives = _linspace(2.35e6, 1.08e7, steps)
    result = hysteresis_sweep(REF_DELTA_ML, gamma_b, REF_ETA, drives, dwell)
    up = quasi_static_sweep(REF_DELTA_ML, gamma_b, REF_ETA, drives, dwell)
    down = quasi_static_sweep(REF_DELTA_ML, gamma_b, REF_ETA, drives[::-1], dwell,
                              up.trajectory.beta[-1])
    for got, want in ((result.up, up), (result.down, down)):
        assert _bits(got.trajectory) == _bits(want.trajectory)
        assert (got.jump, got.direction, got.turning) == (want.jump, want.direction, want.turning)


def test_integrate_failure_in_the_up_ramp_propagates(monkeypatch):
    calls, real_integrate = [], dynamics.integrate

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("integrator failed")
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", failing)
    with pytest.raises(RuntimeError, match="integrator failed"):
        hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, _linspace(2.35e6, 1.08e7, 40),
                         20.0 / REF_GAMMA_B)
    assert len(calls) == 5


@pytest.mark.parametrize("direction, k", [("up", 5), ("down", 1), ("down", 40)],
                         ids=["up-5", "down-1", "down-40"])
def test_a_failed_plateau_raises_and_returns_no_partial_sweep(monkeypatch, direction, k):
    # the first plateau that comes back incomplete, here the k-th of its
    # ramp, raises NumericalError naming the ramp, and no plateau runs after
    # it: a failed up ramp never starts the down ramp
    calls, plateau = [], dynamics._plateau
    offset = 0 if direction == "up" else 40  # a sweep's 40 up plateaus come first

    def incomplete_at(*args):
        calls.append(1)
        beta, n_rhs, n_rejected, complete = plateau(*args)
        return beta, n_rhs, n_rejected, complete and len(calls) != offset + k

    monkeypatch.setattr(dynamics, "_plateau", incomplete_at)
    drives, dwell = _linspace(2.35e6, 1.08e7, 40), 20.0 / REF_GAMMA_B
    message = f"^{direction}-sweep integration failed$"
    with pytest.raises(NumericalError, match=message):
        hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives, dwell)
    assert len(calls) == offset + k
    calls.clear()
    offset = 0  # one ramp alone
    with pytest.raises(NumericalError, match=message):
        quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA,
                           drives if direction == "up" else drives[::-1], dwell)
    assert len(calls) == k


def test_damped_plateau_without_roots_is_one_integrate_call(monkeypatch):
    # where a drive's steady roots cannot be solved, each damped plateau is
    # one integrate call over the whole dwell, DP45 alone, with no closed form
    def unsolvable(params, near=None):
        raise ValueError("no roots")

    spans, real_integrate = [], dynamics.integrate

    def spied(params, beta, t_span, tol, **plateau):
        spans.append(t_span)
        return real_integrate(params, beta, t_span, tol=tol, **plateau)

    monkeypatch.setattr(dynamics, "steady_occupations", unsolvable)
    monkeypatch.setattr(dynamics, "integrate", spied)
    drives, dwell = _linspace(2.35e6, 1.08e7, 12), 20.0 / REF_GAMMA_B
    sweep = quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, drives, dwell)
    assert spans == [(0.0, dwell)] * 12
    monkeypatch.undo()
    ends, _, n_rhs = _dp45_ramp(ref_params(0.0), drives, dwell, 0.0j, 1e-8)
    assert _bits(sweep.trajectory)[0] == [(b.real.hex(), b.imag.hex()) for b in ends]
    assert sweep.trajectory.n_rhs == n_rhs


def test_fold_crossing_from_a_plateau_exactly_on_the_fold():
    # n[k-1] on the fold occupation itself still leaves the branch at plateau k
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B
    )
    drives = [1.0e6, 2.0e6, 3.0e6, 4.0e6]
    for direction, fold, n in (
        ("up", tp.n_low, [0.25 * tp.n_low, 0.5 * tp.n_low, tp.n_low, 3.0 * tp.n_low]),
        ("down", tp.n_high, [3.0 * tp.n_high, 2.0 * tp.n_high, tp.n_high, 0.5 * tp.n_high]),
    ):
        jump = _fold_crossing(drives, n, REF_DELTA_ML, REF_ETA, tp, direction)
        assert jump is not None
        assert (jump.drive, jump.n_before, jump.n_after) == (3.5e6, fold, n[3])
        assert jump.delta_eff_before == REF_DELTA_ML + 24.0 * REF_ETA * fold
