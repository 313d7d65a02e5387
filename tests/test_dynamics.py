import functools
import math

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import libration
from libration.config import load_config
from libration.dynamics import (
    RampProtocol,
    Trajectory,
    _pair_rhs,
    hysteresis_sweep,
    integrate,
    mean_field_rhs,
    quasi_static_sweep,
)
from libration.model import mode_parameters
from libration.steadystate import (
    MeanFieldParams,
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
            assert abs(tr.final_beta() - beta_ref[-1]) <= 1e-12 * abs(beta_ref[-1])


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


def test_ramp_across_both_folds_is_bit_identical_to_complex_stepper():
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B
    )
    proto = RampProtocol.quasi_static(
        0.8 * tp.drive_high, 1.1 * tp.drive_low, REF_GAMMA_B, 40
    )
    result = hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, proto)
    assert result.up.jump is not None and result.down.jump is not None
    beta = 0.0j
    for sweep in (result.up, result.down):
        ends = []
        n_rhs = n_rejected = 0
        for w in sweep.drives:
            tr = _assert_same_steps(ref_params(float(w)), beta, (0.0, proto.dwell), 1e-8)
            beta = tr.final_beta()
            ends.append(beta)
            n_rhs += tr.n_rhs
            n_rejected += tr.n_rejected
        assert np.array_equal(sweep.beta, ends)
        # the sweep's work counters are the sums over its plateaus
        assert sweep.trajectory.n_rhs == n_rhs
        assert sweep.trajectory.n_rejected == n_rejected


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    delta_ml=st.floats(-1e8, 1e8),
    Omega=st.one_of(st.just(0.0), st.floats(0.0, 1e10)),
    gamma_b=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    eta=st.floats(1e-8, 1e2),
    br=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    bi=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
)
def test_pair_rhs_matches_complex_rhs(delta_ml, Omega, gamma_b, eta, br, bi):
    # equal parts: the same bits, except that a zero may differ in sign
    p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
    z = mean_field_rhs(complex(br, bi), p)
    assert _pair_rhs(p)(br, bi) == (z.real, z.imag)


@functools.cache
def _shipped_hysteresis():
    """The CLI's sweep of configs/hysteresis.json."""
    root = Path(libration.__file__).resolve().parents[2]
    cfg = load_config(root / "configs" / "hysteresis.json")
    mode = mode_parameters(cfg.particle, cfg.trap)
    delta_ml = cfg.drive.delta_ml
    proto = RampProtocol.quasi_static(
        cfg.ramp.amplitude_start, cfg.ramp.amplitude_stop, cfg.gamma_b, cfg.ramp.steps
    )
    return hysteresis_sweep(delta_ml, cfg.gamma_b, mode.eta, proto, tol=cfg.ramp.tolerance)


def test_sweep_counts_on_shipped_hysteresis_config():
    # the CLI's sweep of configs/hysteresis.json: 600 plateaus, 86,988
    # accepted steps, 564,642 right-hand-side evaluations
    result = _shipped_hysteresis()
    trajectories = (result.up.trajectory, result.down.trajectory)
    plateaus = sum(len(tr.t) for tr in trajectories)
    n_rhs = sum(tr.n_rhs for tr in trajectories)
    n_rejected = sum(tr.n_rejected for tr in trajectories)
    assert plateaus == 600
    assert n_rhs == 564_642
    assert (n_rhs - 2 * plateaus) // 6 - n_rejected == 86_988


def test_default_down_grid_matches_up_grid_to_rounding():
    # the reversed ramp's linspace(hi, lo, n) is not the bitwise reverse of
    # linspace(lo, hi, n), so loop_area integrates each ramp on its own
    # plateaus; both grids span the same range and agree to rounding
    root = Path(libration.__file__).resolve().parents[2]
    ramp = load_config(root / "configs" / "hysteresis.json").ramp
    proto = RampProtocol(ramp.amplitude_start, ramp.amplitude_stop, ramp.steps, 1e-3)
    up = proto.amplitudes()
    down = proto.reversed().amplitudes()[::-1]
    np.testing.assert_allclose(down, up, rtol=1e-15, atol=0.0)


def _interpolated_loop_area(result):
    """(area, scale): the loop area as first defined, the down branch
    interpolated onto the up grid before the trapezoid rule, and the same rule
    over n_up + n_down, the magnitude that cancels in the area."""
    grid = np.asarray(result.up.drives)
    n_up = np.asarray(result.up.n)
    n_down = np.interp(grid, result.down.drives[::-1], result.down.n[::-1])
    diff, total = n_down - n_up, n_down + n_up
    return tuple(float((np.diff(grid) * (y[1:] + y[:-1]) / 2.0).sum()) for y in (diff, total))


def test_loop_area_matches_interpolated_trapezoid():
    # on the shipped bistable ramp and on a monostable one, whose area is a
    # cancellation residue ~1e-7 of the integrals it is the difference of
    monostable = hysteresis_sweep(
        2.0 * math.pi * 500.0, REF_GAMMA_B, REF_ETA,
        RampProtocol.quasi_static(1.0e6, 6.0e6, REF_GAMMA_B, 60),
    )
    for result, cancels in ((_shipped_hysteresis(), False), (monostable, True)):
        area, scale = _interpolated_loop_area(result)
        # relative to the area itself where it does not cancel
        assert abs(result.loop_area - area) <= 1e-12 * (scale if cancels else abs(area))


def test_occupation_is_the_rhs_expression():
    # n is re*re + im*im, the occupation _pair_rhs integrates, to the bit
    # (numpy's |beta|^2 differs from it in the last bit on many samples)
    proto = RampProtocol.quasi_static(2.35e6, 1.08e7, REF_GAMMA_B, 12)
    sweep = quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, proto)
    tr = integrate(ref_params(6.0e6), 3.0 - 1.0j, (0.0, 1e-3))
    for owner in (tr, sweep, sweep.trajectory):
        assert owner.n == [b.real * b.real + b.imag * b.imag for b in owner.beta]
        assert all(type(v) is float for v in owner.n)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    lo=st.one_of(st.just(0.0), st.floats(0.0, 1e12)),
    span=st.floats(5e-324, 1e12),
    n=st.integers(3, 2000),
    numpy_int=st.booleans(),
    downward=st.booleans(),
)
def test_ramp_amplitudes_are_numpy_linspace(lo, span, n, numpy_int, downward):
    hi = lo + span
    if not hi > lo:
        return
    start, stop = (hi, lo) if downward else (lo, hi)
    proto = RampProtocol(start, stop, np.int64(n) if numpy_int else n, 1e-3)
    assert type(proto.n_steps) is int
    assert [v.hex() for v in proto.amplitudes()] == [
        v.hex() for v in np.linspace(start, stop, n).tolist()
    ]


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
    proto = RampProtocol(1.0e6, 2.0e6, 11, 1e-3)
    amps = proto.amplitudes()
    assert amps[0] == 1.0e6 and amps[-1] == 2.0e6 and len(amps) == 11
    assert proto.direction == "up"
    assert proto.reversed().direction == "down"
    np.testing.assert_array_equal(proto.reversed().amplitudes(), amps[::-1])
    np.testing.assert_allclose(proto.ramp_rate, 1.0e6 / (11 * 1e-3))
    qs = RampProtocol.quasi_static(1.0e6, 2.0e6, 100.0, 5)
    np.testing.assert_allclose(qs.dwell, 20.0 / 100.0)
    with pytest.raises(ValueError):
        RampProtocol(1.0e6, 2.0e6, 2, 1e-3)
    for steps in (10.5, 10.0):  # np.linspace needs an integer count
        with pytest.raises(ValueError, match="integer"):
            RampProtocol(1.0e6, 2.0e6, steps, 1e-3)
    assert len(RampProtocol(1.0e6, 2.0e6, np.int64(5), 1e-3).amplitudes()) == 5
    with pytest.raises(ValueError):
        RampProtocol(1.0e6, 1.0e6, 5, 1e-3)
    with pytest.raises(ValueError):
        RampProtocol(1.0e6, 2.0e6, 5, 0.0)
    with pytest.raises(ValueError):
        RampProtocol.quasi_static(1.0e6, 2.0e6, 0.0, 5)
    for bad in ((1.0e6, 2.0e6, 5, math.inf), (1.0e6, math.nan, 5, 1e-3),
                (math.inf, 2.0e6, 5, 1e-3), (1.0e6, 2.0e6, math.inf, 1e-3),
                (1.0e6, 2.0e6, 10**400, 1e-3)):  # a count beyond float range
        with pytest.raises(ValueError, match="finite"):
            RampProtocol(*bad)


def test_plateaus_track_steady_branch():
    proto = RampProtocol.quasi_static(1.0e6, 2.5e6, REF_GAMMA_B, 25)
    sweep = quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, proto)
    assert sweep.direction == "up"
    assert len(sweep.drives) == 25
    for w, n in zip(sweep.drives, sweep.n):
        roots = steady_occupations(ref_params(float(w)))
        assert min(abs(n - r) / max(r, 1.0) for r in roots) < 1e-3


def test_short_dwell_warns():
    proto = RampProtocol(1.0e6, 2.0e6, 3, 1.0 / REF_GAMMA_B)
    with pytest.warns(UserWarning, match="not quasi-static"):
        quasi_static_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, proto)


def test_hysteresis_jumps_and_loop():
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B
    )
    proto = RampProtocol.quasi_static(
        0.8 * tp.drive_high, 1.1 * tp.drive_low, REF_GAMMA_B, 120
    )
    result = hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, proto)
    step = proto.amplitudes()[1] - proto.amplitudes()[0]
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
        result.down.drives, result.up.drives[::-1], rtol=1e-12
    )


def test_short_dwell_cold_start_is_not_a_jump():
    # a 5-damping-time dwell leaves the first plateaus far from the branch;
    # only the crossing of the up fold occupation counts as the jump
    tp = turning_points(
        REF_DELTA_ML + 12.0 * REF_ETA + SQRT3 * REF_GAMMA_B / 2.0, REF_ETA, REF_GAMMA_B
    )
    proto = RampProtocol(2.35e6, 1.08e7, 100, 5.0 / REF_GAMMA_B)
    with pytest.warns(UserWarning, match="not quasi-static"):
        result = hysteresis_sweep(REF_DELTA_ML, REF_GAMMA_B, REF_ETA, proto)
    jump = result.up.jump
    assert jump is not None
    assert jump.n_before <= tp.n_low < jump.n_after


def test_monostable_sweep_has_no_loop():
    # blue-detuned: single branch everywhere, up and down retrace each other
    delta_ml = +2.0 * math.pi * 500.0
    proto = RampProtocol.quasi_static(1.0e6, 6.0e6, REF_GAMMA_B, 60)
    result = hysteresis_sweep(delta_ml, REF_GAMMA_B, REF_ETA, proto)
    assert result.up.jump is None and result.down.jump is None
    n_scale = float(np.max(result.up.n))
    n_down = np.interp(result.up.drives, result.down.drives[::-1], result.down.n[::-1])
    # the very first plateau still carries the cold-start transient
    # (~exp(-gamma*dwell/2) of the vacuum-to-branch gap); skip it
    assert float(np.max(np.abs(n_down - result.up.n)[1:])) < 1e-5 * n_scale
    assert float(np.abs(n_down - result.up.n)[0]) < 1e-3 * n_scale
    assert abs(result.loop_area) < 1e-6 * n_scale * (
        result.up.drives[-1] - result.up.drives[0]
    )


def test_trajectory_container():
    t = np.array([0.0, 1.0])
    beta = np.array([1.0 + 0j, 2.0 + 0j])
    tr = Trajectory(t=t, beta=beta, omega_applied=np.zeros(2), complete=False)
    assert tr.final_beta() == 2.0 + 0j
    np.testing.assert_array_equal(tr.n, [1.0, 4.0])
    assert not tr.complete
