import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from libration.config import load_config
from libration.dynamics import RampProtocol, mean_field_rhs, quasi_static_sweep
from libration.steadystate import (
    RESIDUAL_RTOL,
    MeanFieldParams,
    ResonanceError,
    Stability,
    beta_from_n,
    bistability_condition,
    effective_detuning,
    solve_branches,
    steady_occupations,
    sweep_diagram,
    turning_points,
)
from oracles import (
    branch_mpmath,
    classify_stability,
    draw_mean_field,
    drive_curve_folds,
    fold_extrema_scan,
    minimum_drive,
    scan_roots,
    stability_matrix,
    steady_occupations_calls,
)

SQRT3 = math.sqrt(3.0)

# fitted working point used by the hysteresis benchmark (libration.model.REFERENCE_*)
REF_DELTA_ML = -34283.6799057411
REF_GAMMA_B = 8012.985643210628
REF_ETA = 0.021209365972552064


def ref_params(Omega: float) -> MeanFieldParams:
    return MeanFieldParams(delta_ml=REF_DELTA_ML, Omega=Omega,
                           gamma_b=REF_GAMMA_B, eta=REF_ETA)


def residual(p: MeanFieldParams, n: float) -> float:
    u = p.delta_ml + 12.0 * p.eta
    return n * (p.gamma_b**2 / 4.0 + (u + 12.0 * p.eta * n) ** 2) - p.Omega**2 / 4.0


def test_undriven_mode_is_vacuum():
    p = ref_params(0.0)
    assert steady_occupations(p) == [0.0]
    (branch,) = solve_branches(p)
    assert branch.beta0 == 0.0
    assert branch.verdict is Stability.STABLE


def test_three_roots_inside_window():
    p = ref_params(6.0e6)
    ns = steady_occupations(p)
    assert len(ns) == 3
    oracle = scan_roots(p.delta_ml, p.Omega, p.gamma_b, p.eta)
    np.testing.assert_allclose(ns, oracle, rtol=1e-10)


def test_roots_match_scan_oracle_random():
    rng = np.random.default_rng(42)
    checked_three = 0
    for _ in range(150):
        delta_ml, Omega, gamma_b, eta = draw_mean_field(rng)
        p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
        ns = steady_occupations(p)
        oracle = scan_roots(delta_ml, Omega, gamma_b, eta, n_grid=200_000)
        assert len(ns) == len(oracle)
        np.testing.assert_allclose(ns, oracle, rtol=1e-8)
        checked_three += len(ns) == 3
    assert checked_three > 30  # the sampler must actually exercise the window


def test_root_residual_contract():
    rng = np.random.default_rng(11)
    for _ in range(60):
        delta_ml, Omega, gamma_b, eta = draw_mean_field(rng)
        p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
        for n in steady_occupations(p):
            assert abs(residual(p, n)) <= 1e-9 * p.Omega**2 / 4.0


def test_steady_amplitude_consistency():
    rng = np.random.default_rng(5)
    for _ in range(40):
        delta_ml, Omega, gamma_b, eta = draw_mean_field(rng)
        p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
        for n in steady_occupations(p):
            beta0 = beta_from_n(p, n)
            np.testing.assert_allclose(abs(beta0) ** 2, n, rtol=1e-9)
            # a fixed point of the flow, at drive scale
            assert abs(mean_field_rhs(beta0, p)) <= 1e-9 * max(p.Omega, 1.0)
            # energy balance: dissipation equals drive input
            np.testing.assert_allclose(
                gamma_b * n, -Omega * beta0.imag, rtol=1e-9, atol=1e-30
            )


def fold_window_drives(p: MeanFieldParams) -> tuple[float, float] | None:
    """(lower, upper) fold drives of the S-curve, or None when it does not fold.

    The far fold comes from the surd, the near one from the product of the
    two extrema of x (gamma^2/4 + (u + x)^2) (Vieta), x = 12 eta n.
    """
    u = p.u
    half = SQRT3 * p.gamma_b / 2.0
    if u >= 0.0 or (u + half) * (u - half) <= 0.0:
        return None
    x_far = (-2.0 * u + math.sqrt((u + half) * (u - half))) / 3.0
    x_near = (p.gamma_b**2 / 4.0 + u * u) / (3.0 * x_far)

    def drive(x: float) -> float:
        return math.sqrt(x / (3.0 * p.eta) * (p.gamma_b**2 / 4.0 + (u + x) ** 2))

    return drive(x_far), drive(x_near)


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    eta=log_uniform(-8.0, 2.0),
    gamma_b=st.one_of(st.just(0.0), log_uniform(-3.0, 6.0)),
    abs_delta=log_uniform(-3.0, 8.0),
    sign=st.sampled_from([-1.0, 1.0]),
    Omega=log_uniform(-3.0, 10.0),
)
def test_roots_property_over_roadmap_range(eta, gamma_b, abs_delta, sign, Omega):
    # every draw either returns the fold-window root count, within the
    # residual contract and with the S-curve stability pattern, or raises
    # ResonanceError (a root on the resonance, below float resolution)
    p = MeanFieldParams(delta_ml=sign * abs_delta, Omega=Omega, gamma_b=gamma_b, eta=eta)
    try:
        branches = solve_branches(p)
    except ResonanceError:
        return
    ns = [b.n for b in branches]
    assert ns == sorted(ns) and ns[0] > 0.0
    for n in ns:
        assert abs(residual(p, n)) <= 1e-9 * Omega**2 / 4.0
    folds = fold_window_drives(p)
    # within the residual contract of a fold drive either count is right
    if folds is None or all(abs(Omega**2 - f**2) > 1e-9 * f**2 for f in folds):
        inside = folds is not None and folds[0] < Omega < folds[1]
        assert len(ns) == (3 if inside else 1)
    if len(ns) == 3:
        # an undamped mode only precesses about its outer branches
        outer = Stability.STABLE if gamma_b > 0.0 else Stability.MARGINAL
        assert [b.verdict for b in branches] == [outer, Stability.UNSTABLE, outer]


def _occupations_or_error(solver, p):
    """The roots' bytes, or the type and text of the error ``solver`` raises."""
    try:
        return [struct.pack("<d", n) for n in solver(p)]
    except (ArithmeticError, ValueError, ResonanceError) as err:
        return type(err), str(err)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    eta=log_uniform(-8.0, 2.0),
    gamma_b=st.one_of(st.just(0.0), log_uniform(-3.0, 6.0)),
    abs_delta=log_uniform(-3.0, 8.0),
    sign=st.sampled_from([-1.0, 1.0]),
    Omega=st.one_of(st.just(0.0), log_uniform(-3.0, 10.0)),
    fold=st.sampled_from([None, 0, 1]),
    offset=st.floats(-1e-6, 1e-6),
)
def test_newton_loop_equals_the_calling_form_bit_for_bit(
        eta, gamma_b, abs_delta, sign, Omega, fold, offset):
    # the roots, or the error, of the Newton loop that calls _cubic_n and
    # _curve_slope; half the draws put the drive near a fold
    p = MeanFieldParams(delta_ml=sign * abs_delta, Omega=Omega, gamma_b=gamma_b, eta=eta)
    folds = fold_window_drives(p)
    if fold is not None and folds is not None:
        p = p._replace(Omega=folds[fold] * (1.0 + offset))
    assert _occupations_or_error(steady_occupations, p) == \
        _occupations_or_error(steady_occupations_calls, p)


def test_newton_loop_equals_the_calling_form_on_the_shipped_drives():
    # the 600 plateau drives of configs/hysteresis.json, up and down
    root = Path(__file__).resolve().parents[1]
    cfg = load_config(root / "configs" / "hysteresis.json")
    ramp = cfg.ramp
    proto = RampProtocol(ramp.amplitude_start, ramp.amplitude_stop, ramp.steps, ramp.dwell)
    drives = proto.amplitudes() + proto.reversed().amplitudes()
    assert len(drives) == 600
    for omega in drives:
        p = MeanFieldParams(cfg.drive.delta_ml, omega, cfg.gamma_b, cfg.mode.eta)
        assert _occupations_or_error(steady_occupations, p) == \
            _occupations_or_error(steady_occupations_calls, p)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    eta=log_uniform(-8.0, 2.0),
    gamma_b=st.one_of(st.just(0.0), log_uniform(-3.0, 6.0)),
    abs_delta=log_uniform(-3.0, 8.0),
    sign=st.sampled_from([-1.0, 1.0]),
    Omega=log_uniform(-3.0, 10.0),
)
def test_scalar_branch_matches_matrix_path(eta, gamma_b, abs_delta, sign, Omega):
    # solve_branches takes each branch's eigenvalues and verdict from the
    # trace gamma_b and the S-curve slope; at the root refined in 60 digits
    # the fluctuation matrix gives the same eigenvalues to within 1e-8 of
    # the rate scale |u| + 12 eta n + gamma_b, and the same Routh-Hurwitz
    # sign rule on its exact determinant gives the same verdict
    p = MeanFieldParams(delta_ml=sign * abs_delta, Omega=Omega, gamma_b=gamma_b, eta=eta)
    try:
        branches = solve_branches(p)
    except ResonanceError:
        return
    for b in branches:
        _, exact, det = branch_mpmath(p, b.n)
        scale = abs(p.u) + 12.0 * eta * b.n + gamma_b
        for got, want in zip(b.eigenvalues, exact):
            assert abs(got - complex(want)) <= 1e-8 * scale
        rule = (Stability.UNSTABLE if det < 0 else
                Stability.MARGINAL if det == 0 or gamma_b == 0.0 else Stability.STABLE)
        assert b.verdict is rule


def test_near_fold_example_is_stable_unstable_stable():
    # a drive just inside the window of a narrow-damping, strongly nonlinear
    # mode: the S-curve slope at the outer roots is positive though tiny
    # next to the terms of the fluctuation-matrix determinant
    p = MeanFieldParams(delta_ml=-1144.094940059948, Omega=2.509182087995138e-06,
                        gamma_b=1.9497235547034162e-06, eta=35.89356688142274)
    branches = solve_branches(p)
    assert [b.verdict for b in branches] == [
        Stability.STABLE, Stability.UNSTABLE, Stability.STABLE]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    eta=log_uniform(-8.0, 2.0),
    gamma_b=log_uniform(-6.0, 4.0),
    depth=log_uniform(-3.0, 10.0),
    fold=st.sampled_from(["drive_low", "drive_high"]),
    offset=st.floats(-1e-8, 1e-8),
)
def test_near_fold_stability_pattern(eta, gamma_b, depth, fold, offset):
    # drives within 1e-8 of a fold, past the edge by depth * gamma_b: every
    # three-root point off a tangency is (stable, unstable, stable)
    delta = -depth * gamma_b
    tp = turning_points(delta, eta, gamma_b)
    p = MeanFieldParams(delta_ml=delta - 12.0 * eta - SQRT3 * gamma_b / 2.0,
                        Omega=getattr(tp, fold) * (1.0 + offset), gamma_b=gamma_b, eta=eta)
    try:
        branches = solve_branches(p)
    except ResonanceError:
        return
    if len(branches) == 3 and not any(b.tangent for b in branches):
        assert [b.verdict for b in branches] == [
            Stability.STABLE, Stability.UNSTABLE, Stability.STABLE]


@pytest.mark.parametrize("field, value", [
    ("delta_ml", 1e300), ("delta_ml", -1e300), ("Omega", 1e300), ("Omega", 1e155),
    ("gamma_b", 1e300), ("gamma_b", 1e155), ("eta", 1e-300),
])
def test_cubic_beyond_float_range_names_the_field(field, value):
    # a ValueError naming the field, not an OverflowError from a square or
    # an inf occupation
    fields = {"delta_ml": -3.0e4, "Omega": 6.0e6, "gamma_b": 8.0e3, "eta": 0.02, field: value}
    p = MeanFieldParams(**fields)
    for solve in (steady_occupations, solve_branches):
        with pytest.raises(ValueError, match=f"^{field}="):
            solve(p)
    with pytest.raises(ValueError, match=f"^{field}="):
        sweep_diagram([1.0e6, p.Omega], p.delta_ml, p.gamma_b, p.eta, 1.8e7)


@pytest.mark.parametrize("field, delta, gamma_b, eta", [
    ("delta", 1e300, 8.0e3, 0.02), ("delta", -1e155, 8.0e3, 0.02),
    ("gamma_b", -3.0e4, 1e300, 0.02), ("eta", -3.0e4, 8.0e3, 1e-300),
    ("eta", 0.0, 1e-8, 5e-324), ("eta", 0.0, 0.0, 1.5e307),
])
def test_folds_beyond_float_range_name_the_field(field, delta, gamma_b, eta):
    # an OverflowError, or inf fold occupations and detunings, at the parent
    with pytest.raises(ValueError, match=f"^{field}="):
        turning_points(delta, eta, gamma_b)


def test_folds_of_a_subnormal_damping_rate():
    # the near-fold offset underflowed to 0 and divided the far one by zero
    tp = turning_points(0.0, 1.0, 5e-324)
    assert tp.physical and tp.width == 0.0 and tp.drive_low == tp.drive_high


def test_undamped_resonance_below_float_resolution_is_a_resonance_error():
    # Omega^2 underflows to 0, so a root on the undamped resonance, where
    # beta_0 is unbounded, passed the residual check and divided by zero
    p = MeanFieldParams(delta_ml=-1.0892692048377128e31, Omega=5e-324, gamma_b=0.0,
                        eta=10.0**8.5)
    with pytest.raises(ResonanceError):
        solve_branches(p)


def test_resonance_error_carries_the_failing_root():
    # undamped, with the upper root on the resonance u + 12 eta n = 0, where
    # no float64 n meets the residual contract
    p = MeanFieldParams(delta_ml=-1.42e5, Omega=0.118, gamma_b=0.0, eta=1.7e-3)
    with pytest.raises(ResonanceError) as info:
        steady_occupations(p)
    err = info.value
    assert isinstance(err, RuntimeError)
    assert err.params == p
    lo, hi = err.bracket
    assert lo <= err.n <= hi
    assert err.residual == residual(p, err.n)
    assert abs(err.residual) > RESIDUAL_RTOL * p.Omega**2 / 4.0
    assert err.n == pytest.approx(-p.u / (12.0 * p.eta), rel=1e-9)
    assert "residual check" in str(err)


@pytest.mark.parametrize("delta_ml", [-1.0e6, 1.0e5])
@pytest.mark.parametrize("Omega", [1.0, 2.0, 5.0, 10.0])
def test_weak_drive_is_linear_response(delta_ml, Omega):
    # far from resonance a weak drive leaves one root at the linear response
    p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=REF_GAMMA_B, eta=REF_ETA)
    (n,) = steady_occupations(p)
    linear = Omega**2 / (4.0 * (REF_GAMMA_B**2 / 4.0 + p.u**2))
    np.testing.assert_allclose(n, linear, rtol=1e-9)


def test_beta_from_n_rejects_non_roots():
    p = ref_params(6.0e6)
    ns = steady_occupations(p)
    with pytest.raises(ValueError):
        beta_from_n(p, 1.7 * ns[-1] + 1.0)


def test_beta_from_n_rejects_an_occupation_whose_residual_overflows():
    # (u + 12 eta n)**2 is beyond float range here: a ValueError, as for any
    # other non-root, not the OverflowError of the square
    for n in (1e200, 1e300, sys.float_info.max):
        with pytest.raises(ValueError, match="not a steady-state occupation"):
            beta_from_n(MeanFieldParams(-3e4, 6e6, 8e3, 0.02), n)


def test_trace_equals_damping_exactly():
    rng = np.random.default_rng(17)
    for _ in range(40):
        delta_ml, Omega, gamma_b, eta = draw_mean_field(rng)
        p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
        for n in steady_occupations(p):
            a = stability_matrix(p, n)
            tr = a[0, 0] + a[1, 1]
            assert tr.real == gamma_b
            assert tr.imag == 0.0


def test_three_root_stability_pattern():
    rng = np.random.default_rng(23)
    seen = 0
    while seen < 40:
        delta_ml, Omega, gamma_b, eta = draw_mean_field(rng)
        p = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
        branches = solve_branches(p)
        if len(branches) != 3:
            continue
        seen += 1
        verdicts = tuple(b.verdict for b in branches)
        assert verdicts == (Stability.STABLE, Stability.UNSTABLE, Stability.STABLE)
        for b in branches:
            re1, re2 = b.eigenvalues[0].real, b.eigenvalues[1].real
            if b.stable:
                assert re1 < 0.0 and re2 < 0.0
            else:
                assert max(re1, re2) > 0.0
            np.testing.assert_allclose(re1 + re2, -gamma_b, rtol=1e-9)


def test_determinant_is_curve_slope():
    # det(A) = d(Omega^2/4)/dn along the S-curve: central difference check
    p = ref_params(6.0e6)
    for n in steady_occupations(p):
        a = stability_matrix(p, n)
        det = float(np.real(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
        h = 1e-6 * n
        slope = (residual(p, n + h) - residual(p, n - h)) / (2.0 * h)
        np.testing.assert_allclose(det, slope, rtol=1e-5)


def test_classify_stability_edge_cases():
    assert classify_stability(np.diag([1.0 + 0j, 1.0])) is Stability.STABLE
    assert classify_stability(np.array([[1.0, 2.0], [2.0, 1.0]])) is Stability.UNSTABLE
    assert classify_stability(np.diag([1j, -1j])) is Stability.MARGINAL  # undamped
    assert classify_stability(np.array([[1.0, 1.0], [1.0, 1.0]])) is Stability.MARGINAL


def test_bistability_edge_formula():
    omega_t = 2.0 * math.pi * 2.93e6
    flag, omega_c = bistability_condition(omega_t - 5e4, omega_t, REF_ETA, REF_GAMMA_B)
    np.testing.assert_allclose(
        omega_c, omega_t - 12.0 * REF_ETA - SQRT3 * REF_GAMMA_B / 2.0, rtol=1e-15
    )
    assert flag
    assert not bistability_condition(omega_c, omega_t, REF_ETA, REF_GAMMA_B)[0]
    assert not bistability_condition(omega_t + 1e3, omega_t, REF_ETA, REF_GAMMA_B)[0]


def test_edge_agrees_with_fold_scan():
    # straddle the edge and ask the brute-force curve scan on each side
    rng = np.random.default_rng(31)
    for _ in range(30):
        eta = 10.0 ** rng.uniform(-3.0, -1.0)
        gamma_b = 10.0 ** rng.uniform(2.5, 4.5)
        eps = 10.0 ** rng.uniform(-3.0, -0.5)
        omega_t = 10.0 ** rng.uniform(6.5, 7.5)
        _, omega_c = bistability_condition(omega_t, omega_t, eta, gamma_b)
        for side, expect in ((-1.0, True), (+1.0, False)):
            omega_ml = omega_c + side * eps * SQRT3 * gamma_b
            delta_ml = omega_ml - omega_t
            assert drive_curve_folds(delta_ml, gamma_b, eta) is expect


def test_turning_points_frozen_benchmark():
    omega_t = 2.0 * math.pi * 2929656.97817988
    _, omega_c = bistability_condition(omega_t + REF_DELTA_ML, omega_t, REF_ETA, REF_GAMMA_B)
    tp = turning_points(omega_t + REF_DELTA_ML - omega_c, REF_ETA, REF_GAMMA_B)
    assert tp.physical
    np.testing.assert_allclose(tp.drive_low, 9835328.67756706, rtol=1e-10)
    np.testing.assert_allclose(tp.drive_high, 2935852.0807849653, rtol=1e-10)
    np.testing.assert_allclose(tp.delta_eff_low, -10954.952138514087, rtol=1e-9)
    np.testing.assert_allclose(tp.delta_eff_high, 33810.06004263037, rtol=1e-9)
    np.testing.assert_allclose(tp.width, tp.delta_eff_high - tp.delta_eff_low, rtol=1e-12)


def test_turning_points_match_extremum_scan():
    rng = np.random.default_rng(19)
    done = 0
    while done < 20:
        eta = 10.0 ** rng.uniform(-3.0, -1.0)
        gamma_b = 10.0 ** rng.uniform(2.5, 4.5)
        delta = -gamma_b * 10.0 ** rng.uniform(0.3, 1.5)
        tp = turning_points(delta, eta, gamma_b)
        delta_ml = delta - SQRT3 * gamma_b / 2.0 - 12.0 * eta
        folds = fold_extrema_scan(delta_ml, gamma_b, eta)
        if folds is None:
            continue
        (n_up, om_up), (n_down, om_down) = folds
        # the curve is flat at an extremum: its location is only good to
        # ~sqrt(eps), the drive value there to full precision
        np.testing.assert_allclose(tp.n_low, n_up, rtol=1e-6)
        np.testing.assert_allclose(tp.n_high, n_down, rtol=1e-6)
        np.testing.assert_allclose(tp.drive_low, om_up, rtol=1e-9)
        np.testing.assert_allclose(tp.drive_high, om_down, rtol=1e-9)
        done += 1
    assert done == 20


def test_turning_points_window_closures():
    gamma_b, eta = 4.0e3, 0.02
    # width -> 0 as delta -> 0-
    for eps in (1e-2, 1e-4, 1e-6):
        tp = turning_points(-eps * SQRT3 * gamma_b, eta, gamma_b)
        assert tp.physical
        np.testing.assert_allclose(
            tp.width, (4.0 / 3.0) * SQRT3 * gamma_b * eps * math.sqrt(1.0 + 1.0 / eps),
            rtol=1e-9,
        )
    widths = [turning_points(-e * SQRT3 * gamma_b, eta, gamma_b).width
              for e in (1e-2, 1e-4, 1e-6)]
    assert widths[0] > widths[1] > widths[2]
    # closed window between the surd's real branches
    tp = turning_points(0.5 * SQRT3 * gamma_b, eta, gamma_b)
    assert not tp.physical and tp.width == 0.0 and tp.drive_low is None
    # real surd again past sqrt(3) gamma, but occupations negative: not physical
    tp = turning_points(1.5 * SQRT3 * gamma_b, eta, gamma_b)
    assert not tp.physical
    assert tp.drive_low is None and tp.n_low < 0.0


def test_minimum_drive_against_scan():
    eta = 0.02
    gamma_b = 5.0e3
    for ratio in (1e3, 1e2, 1e1):
        K = ratio * gamma_b
        delta_eff = K - 12.0 * eta
        om_f, d0_f = minimum_drive(delta_eff, eta, gamma_b)
        deltas = np.concatenate([
            np.linspace(-4.0 * K, 0.99 * K, 400_000),
            np.linspace(-1.2 * K, -0.8 * K, 400_000),
        ])
        u = deltas - SQRT3 * gamma_b / 2.0
        x = 0.5 * (K - u)
        keep = x > 0
        om2 = x[keep] * (gamma_b**2 / 4.0 + (u[keep] + x[keep]) ** 2) / (3.0 * eta)
        k = int(np.argmin(om2))
        om_s, d0_s = math.sqrt(om2[k]), float(deltas[keep][k])
        tol = 0.1 * (gamma_b / K) ** 2 + 1e-7
        np.testing.assert_allclose(om_f, om_s, rtol=tol)
        np.testing.assert_allclose(d0_f, d0_s, rtol=(gamma_b / K) ** 2 + 1e-4)
    with pytest.raises(ValueError):
        minimum_drive(-13.0 * eta, eta, gamma_b)


def test_sweep_diagram_regimes():
    omega_t = 2.0 * math.pi * 2929656.97817988
    grid = np.linspace(1.0e6, 1.2e7, 121)
    diagram = sweep_diagram(grid, REF_DELTA_ML, REF_GAMMA_B, REF_ETA, omega_t)
    assert diagram.regime == "bistable"
    assert diagram.turning is not None and diagram.turning.physical
    by_drive: dict[float, int] = {}
    for w, branch in diagram.branches:
        by_drive[w] = by_drive.get(w, 0) + 1
        assert branch.n >= 0.0
    lo, hi = diagram.turning.drive_high, diagram.turning.drive_low
    for w, count in by_drive.items():
        assert count == (3 if lo < w < hi else 1)

    mono = sweep_diagram(grid, +2000.0, REF_GAMMA_B, REF_ETA, omega_t)
    assert mono.regime == "monostable"
    assert mono.turning is None
    assert all(count == 1 for count in
               np.unique([w for w, _ in mono.branches], return_counts=True)[1])

    _, omega_c = bistability_condition(omega_t, omega_t, REF_ETA, REF_GAMMA_B)
    edge = sweep_diagram(grid, omega_c - omega_t, REF_GAMMA_B, REF_ETA, omega_t)
    assert edge.regime == "platform"

    with pytest.raises(ValueError):
        sweep_diagram([2.0e6, 1.0e6], REF_DELTA_ML, REF_GAMMA_B, REF_ETA, omega_t)
    with pytest.raises(ValueError):
        sweep_diagram([], REF_DELTA_ML, REF_GAMMA_B, REF_ETA, omega_t)


def test_shipped_diagram_folds_equal_the_sweep_folds():
    # the bistability diagram and the hysteresis sweep of the shipped working
    # point report the same fold pair, bit for bit
    root = Path(__file__).resolve().parents[1] / "configs"
    cfg, ramp = load_config(root / "bistability.json"), load_config(root / "hysteresis.json")
    assert (cfg.drive.delta_ml, cfg.gamma_b, cfg.mode) == (ramp.drive.delta_ml, ramp.gamma_b,
                                                           ramp.mode)
    grid = [cfg.sweep.grid[0], cfg.sweep.grid[-1]]
    diagram = sweep_diagram(grid, cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta,
                            cfg.mode.omega_t)
    protocol = RampProtocol(ramp.ramp.amplitude_start, ramp.ramp.amplitude_stop, 3,
                            ramp.ramp.dwell)
    sweep = quasi_static_sweep(ramp.drive.delta_ml, ramp.gamma_b, ramp.mode.eta, protocol)
    assert diagram.turning is not None
    assert [x.hex() for x in diagram.turning[:-1]] == [x.hex() for x in sweep.turning[:-1]]
    assert diagram.turning.physical and sweep.turning.physical


def test_solve_at_exact_fold_drive():
    omega_t = 2.0 * math.pi * 2929656.97817988
    _, omega_c = bistability_condition(omega_t + REF_DELTA_ML, omega_t, REF_ETA, REF_GAMMA_B)
    tp = turning_points(omega_t + REF_DELTA_ML - omega_c, REF_ETA, REF_GAMMA_B)
    for drive in (tp.drive_low, tp.drive_high):
        branches = solve_branches(ref_params(drive))
        assert len(branches) in (1, 3)
        tangents = [b for b in branches if b.tangent]
        if tangents:
            ns = [b.n for b in branches if b.tangent]
            assert ns[0] == ns[1]


def test_near_solves_the_outer_brackets_from_the_given_roots():
    # with ``near`` only the outer, possibly stable roots are solved: from
    # Fourier's ends when near is empty, the same bits as without it
    p = ref_params(6.0e6)
    low, _, high = steady_occupations(p)
    assert steady_occupations(p, ()) == [low, high]
    # each Newton starts at its own bracket's entry of near: a start one ulp
    # off the root already meets the iteration target and comes back as given
    up = [math.nextafter(low, math.inf), math.nextafter(high, math.inf)]
    assert all(abs(residual(p, n)) <= 1e-13 * p.Omega**2 / 4.0 for n in up)
    assert up != [low, high] and steady_occupations(p, up) == up
    # the only root of a monostable drive starts at near[-1]; a start outside
    # the bracket is not taken
    q = ref_params(1.2e7)
    (n,) = steady_occupations(q)
    start = math.nextafter(n, math.inf)
    assert abs(residual(q, start)) <= 1e-13 * q.Omega**2 / 4.0
    assert steady_occupations(q, [low, start]) == [start]
    assert steady_occupations(q, [start, 1e300]) == [n]


def test_effective_detuning_shift():
    p = ref_params(6.0e6)
    np.testing.assert_allclose(
        effective_detuning(p, 100.0), REF_DELTA_ML + 2400.0 * REF_ETA, rtol=1e-14
    )


def test_params_validation():
    with pytest.raises(ValueError):
        MeanFieldParams(delta_ml=0.0, Omega=-1.0, gamma_b=1.0, eta=0.01)
    with pytest.raises(ValueError):
        MeanFieldParams(delta_ml=0.0, Omega=1.0, gamma_b=-1.0, eta=0.01)
    with pytest.raises(ValueError):
        MeanFieldParams(delta_ml=0.0, Omega=1.0, gamma_b=1.0, eta=0.0)


@pytest.mark.parametrize("field", ["delta_ml", "Omega", "gamma_b", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    fields = {"delta_ml": -3.0e4, "Omega": 6.0e6, "gamma_b": 8.0e3, "eta": 0.02}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        MeanFieldParams(**{**fields, field: value})
