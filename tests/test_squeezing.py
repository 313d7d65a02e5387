"""Variance dynamics: closed forms and moment_oracle vs independent references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from libration.model import REFERENCE_DELTA_ML, NumericalError
from libration.squeezing import (
    DEGENERATE_BAND,
    SqueezeParams,
    exponential_angle,
    moment_oracle,
    squeeze_params,
    thermal_squeezing_check,
    variance_J_closed,
    variance_theta_closed,
)
from oracles import characteristic_frequencies, moment_dop853, moment_expm, moment_mpmath

# benchmark particle (50 x 40 nm diamond in the standard trap)
ETA = 0.004568823977128449
OMEGA_T = 7932763.637499492
DELTA_ML = 2.0 * math.pi * 200.0

# oscillatory breathing at the benchmark drive amplitudes: minimum angle
# variance (1/4)(lam - xi)/(lam + xi) and breathing period pi / lam_p'
FROZEN_OSCILLATORY = {
    10.0: (0.24784673077039632, 0.0024783973571203253),
    20.0: (0.2417082998133014, 0.002416028303004007),
    40.0: (0.22114049742518319, 0.0021978543963648294),
}


def bench_params(r, phi, nbar=0.0):
    return squeeze_params(DELTA_ML, ETA, r, phi, nbar)


def test_params_frozen_benchmark():
    p = bench_params(40.0, math.pi)
    assert p.lam == pytest.approx(1432.0799021576497, rel=1e-14)
    assert p.xi == pytest.approx(87.72142036086622, rel=1e-14)
    assert p.lambda_p_sq < 0.0
    assert p.regime == "oscillatory"


def test_parameter_validation():
    with pytest.raises(ValueError):
        SqueezeParams(lam=0.0, xi=-1.0, phi=0.0, r=1.0)
    with pytest.raises(ValueError):
        SqueezeParams(lam=0.0, xi=1.0, phi=0.0, r=-1.0)
    with pytest.raises(ValueError):
        SqueezeParams(lam=0.0, xi=1.0, phi=0.0, r=1.0, nbar=-0.5)
    with pytest.raises(ValueError):
        squeeze_params(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        moment_oracle(bench_params(10.0, 0.0), np.linspace(0, 1e-3, 50), gamma_b=-1.0)
    with pytest.raises(ValueError):
        moment_oracle(bench_params(10.0, 0.0), np.array([0.0]))


@pytest.mark.parametrize(
    "t_grid",
    [
        [0.0, 1e-4, math.nan],
        [0.0, math.inf],
        [-math.inf, 0.0],
        [0.0, 2e-4, 1e-4],   # decreasing
        [1e-4, 0.0],
        [0.0, 1e-4, 1e-4],   # repeated sample
    ],
)
def test_oracle_rejects_bad_time_grid(t_grid):
    with pytest.raises(ValueError, match="t_grid must be finite and increasing"):
        moment_oracle(bench_params(10.0, 0.0), np.array(t_grid))


@pytest.mark.parametrize("t_grid", [np.zeros((2, 2)), np.zeros((3, 1)),
                                    [[0.0, 1e-4], [2e-4, 3e-4]], 1e-3])
def test_oracle_rejects_a_time_grid_that_is_not_1d(t_grid):
    with pytest.raises(ValueError, match="t_grid must be a 1-d array"):
        moment_oracle(bench_params(10.0, 0.0), t_grid)


def test_oracle_takes_a_list_and_returns_lists():
    p = bench_params(40.0, math.pi)
    tr = moment_oracle(p, [0, 1e-4, 2e-4])
    assert tr.t == [0.0, 1e-4, 2e-4] and [type(t) for t in tr.t] == [float] * 3
    assert type(tr.S_theta) is list and type(tr.S_J) is list
    assert moment_oracle(p, np.array([0.0, 1e-4, 2e-4])) == tr


@pytest.mark.parametrize("gamma_b,nbar_bath", [(math.nan, None), (math.inf, None),
                                               (300.0, -1.0), (300.0, math.nan)])
def test_oracle_rejects_bad_bath(gamma_b, nbar_bath):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        moment_oracle(bench_params(10.0, 0.0), np.linspace(0.0, 1e-3, 5),
                      gamma_b=gamma_b, nbar_bath=nbar_bath)


def test_oracle_overflow_is_a_runtime_error():
    # e^{2 lam_p t} ~ e^{3300} at the end of this hyperbolic grid
    xi = 87.72142036086622
    p = SqueezeParams(lam=0.3 * xi, xi=xi, phi=0.0, r=40.0, nbar=0.0)
    with pytest.raises(RuntimeError, match="overflowed") as info:
        moment_oracle(p, np.linspace(0.0, 20.0, 50))
    assert type(info.value) is NumericalError  # raised where it is found


@pytest.mark.parametrize("field", ["lam", "xi", "phi", "r", "nbar"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_parameters_reject_non_finite(field, value):
    fields = {"lam": 1432.0, "xi": 87.7, "phi": 1.0, "r": 40.0, "nbar": 0.5}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SqueezeParams(**{**fields, field: value})


def test_regime_of_a_huge_amplitude_does_not_overflow():
    # xi = 6e155: xi^2 and lam_p^2 leave float range, xi and lam do not
    p = squeeze_params(REFERENCE_DELTA_ML, 0.05, 1e78, 0.0)
    assert p.lambda_p_sq == -math.inf
    assert p.regime == "oscillatory"


def test_regime_labels_follow_the_band_test():
    # |lam_p^2| <= DEGENERATE_BAND * max(xi^2, 1e-300) wherever xi^2 is finite,
    # around and between the band edges and the 1e-300 floor
    ratios = (0.0, 0.5, -0.99, 1.0, 1.0 + 1e-11, 1.0 - 1e-11, -1.0 + 1e-11,
              1.0 + 1e-8, 1.0 - 1e-8, -1.0 - 1e-8, 3.0, -20.0)
    cases = [(0.0, lam) for lam in (0.0, 1e-160, -1e-155, 1e-150, 1.0)]
    cases += [(xi, ratio * xi) for xi in (1e-160, 1e-149, 3e-7, 87.7, 1e150)
              for ratio in ratios]
    for xi, lam in cases:
        lps = (xi - lam) * (xi + lam)
        want = ("degenerate" if abs(lps) <= DEGENERATE_BAND * max(xi * xi, 1e-300)
                else "hyperbolic" if lps > 0.0 else "oscillatory")
        assert SqueezeParams(lam=lam, xi=xi, phi=0.0, r=1.0).regime == want, (xi, lam)


@pytest.mark.parametrize("nbar", [0.0, 3.2])
def test_initial_variance_is_thermal(nbar):
    p = bench_params(40.0, 1.3, nbar)
    floor = (2.0 * nbar + 1.0) / 4.0
    assert variance_theta_closed(0.0, p) == pytest.approx(floor, rel=1e-14)
    assert variance_J_closed(0.0, p) == pytest.approx(floor, rel=1e-14)
    tr = moment_oracle(p, np.linspace(0.0, 1e-4, 8))
    assert tr.S_theta[0] == pytest.approx(floor, rel=1e-12)
    assert tr.S_J[0] == pytest.approx(floor, rel=1e-12)


def test_regime_window_matches_characteristic_frequencies():
    # the window boundaries and the parameter regime must tell one story
    r = 25.0
    om1, om2 = characteristic_frequencies(OMEGA_T, ETA, r)
    assert om1 < om2 < OMEGA_T
    cases = [
        (0.5 * (om1 + om2), "hyperbolic"),
        (om1 - 50.0, "oscillatory"),
        (om2 + 50.0, "oscillatory"),
    ]
    for omega_ml, expected in cases:
        p = squeeze_params(omega_ml - OMEGA_T, ETA, r, 0.0)
        assert p.regime == expected
    # exactly on a boundary lam_p^2 vanishes
    edge = squeeze_params(om2 - OMEGA_T, ETA, r, 0.0)
    assert edge.regime == "degenerate"


def grid_for(p, n=400):
    if p.regime == "hyperbolic":
        lam_p = math.sqrt(p.lambda_p_sq)
        return np.linspace(0.0, 2.2 / lam_p, n)  # growth capped at e^4.4
    if p.regime == "oscillatory":
        return np.linspace(0.0, 2.0 * math.pi / math.sqrt(-p.lambda_p_sq), n)
    return np.linspace(0.0, 2.0 / p.xi, n)


@pytest.mark.parametrize(
    "lam_over_xi,phi",
    [
        (0.3, 0.0),          # hyperbolic
        (0.3, 1.0),
        (-0.6, 2.5),         # hyperbolic, negative detuning side
        (16.326, math.pi),   # oscillatory (benchmark-like ratio)
        (-4.0, 0.7),
        (1.0, 0.4),          # degenerate edge
    ],
)
def test_closed_forms_match_moment_oracle(lam_over_xi, phi):
    # both against the Pade propagator of the augmented moment matrix
    xi = 87.72142036086622
    p = SqueezeParams(lam=lam_over_xi * xi, xi=xi, phi=phi, r=40.0, nbar=0.0)
    t = grid_for(p)
    ref_theta, ref_j = moment_expm(p, t)
    tr = moment_oracle(p, t)
    scale = max(float(np.max(ref_theta)), float(np.max(ref_j)))
    for s_theta, s_j in ((variance_theta_closed(t, p), variance_J_closed(t, p)),
                         (tr.S_theta, tr.S_J)):
        np.testing.assert_allclose(s_theta, ref_theta, rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(s_j, ref_j, rtol=0, atol=1e-8 * scale)
    assert tr.regime == p.regime


def test_closed_forms_match_oracle_random_draws():
    rng = np.random.default_rng(20260825)
    for _ in range(12):
        lam = float(rng.choice([-1, 1]) * 10 ** rng.uniform(2, 4))
        xi = float(abs(lam) * rng.uniform(0.1, 2.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        nbar = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
        p = SqueezeParams(lam=lam, xi=xi, phi=phi, r=1.0, nbar=nbar)
        t = grid_for(p, n=160)
        ref_theta, ref_j = moment_expm(p, t)
        s_theta = variance_theta_closed(t, p)
        s_j = variance_J_closed(t, p)
        scale = max(float(np.max(s_theta)), float(np.max(s_j)))
        np.testing.assert_allclose(ref_theta, s_theta, rtol=0, atol=2e-8 * scale)
        np.testing.assert_allclose(ref_j, s_j, rtol=0, atol=2e-8 * scale)


def test_uncertainty_product_never_below_initial_purity():
    # quadratic evolution preserves the symplectic eigenvalue, so the
    # variance product can only gain (correlation)^2 on top of it
    rng = np.random.default_rng(7)
    for nbar in (0.0, 2.7):
        bound = ((2.0 * nbar + 1.0) / 4.0) ** 2
        for _ in range(6):
            lam = float(rng.choice([-1, 1]) * 10 ** rng.uniform(2, 4))
            xi = float(abs(lam) * rng.uniform(0.2, 1.8))
            p = SqueezeParams(
                lam=lam, xi=xi, phi=float(rng.uniform(0, 7)), r=1.0, nbar=nbar
            )
            t = grid_for(p, n=250)
            product = variance_theta_closed(t, p) * variance_J_closed(t, p)
            assert float(np.min(product)) >= bound * (1.0 - 1e-9)


def test_exponential_angle_gives_pure_decay():
    xi = 87.72142036086622
    for lam_frac in (0.25, -0.4, 0.0):
        p = SqueezeParams(lam=lam_frac * xi, xi=xi, phi=0.0, r=40.0, nbar=0.0)
        lam_p = math.sqrt(p.lambda_p_sq)
        phi_star = exponential_angle(p)
        t = np.linspace(0.0, 2.5 / lam_p, 300)
        decay = variance_theta_closed(t, p._replace(phi=phi_star))
        # cosh - sinh cancellation leaves ~eps * e^{2 lam_p t} absolute noise
        np.testing.assert_allclose(
            decay, 0.25 * np.exp(-2.0 * lam_p * t), rtol=0, atol=1e-11
        )
        growth = variance_theta_closed(t, p._replace(phi=-phi_star))
        np.testing.assert_allclose(
            growth, 0.25 * np.exp(+2.0 * lam_p * t), rtol=1e-12
        )


def test_exponential_angle_requires_hyperbolic():
    with pytest.raises(ValueError):
        exponential_angle(bench_params(40.0, 0.0))


def test_degenerate_series_branch():
    xi = 87.72142036086622
    # lam = xi bitwise puts lam_p^2 at exactly zero -> series branch
    p0 = SqueezeParams(lam=xi, xi=xi, phi=0.9, r=40.0, nbar=0.0)
    assert p0.lambda_p_sq == 0.0
    assert p0.regime == "degenerate"
    t = np.linspace(0.0, 2.0 / xi, 300)
    ref_theta, ref_j = moment_expm(p0, t)
    np.testing.assert_allclose(variance_theta_closed(t, p0), ref_theta, rtol=0, atol=1e-9)
    np.testing.assert_allclose(variance_J_closed(t, p0), ref_j, rtol=0, atol=1e-9)
    # continuity across the band edge: a nearby exact-branch parameter set
    # produces nearly the same curves
    p1 = SqueezeParams(lam=xi * (1.0 + 3e-5), xi=xi, phi=0.9, r=40.0, nbar=0.0)
    assert p1.regime == "oscillatory"
    np.testing.assert_allclose(
        variance_theta_closed(t, p1), variance_theta_closed(t, p0),
        rtol=0, atol=2e-4,
    )


def mp_variances(p, t):
    """S_theta, S_J from (cosh(2 lam_p t) - 1)/lam_p^2 and sinh(2 lam_p t)/lam_p
    in 40-digit arithmetic, with lam_p^2 taken exactly from the float inputs."""
    with mpmath.workdps(40):
        xi, lam = mpmath.mpf(p.xi), mpmath.mpf(p.lam)
        lps = xi * xi - lam * lam
        lam_p = mpmath.sqrt(mpmath.mpc(lps))
        pref = (2 * mpmath.mpf(p.nbar) + 1) / 4
        c2, s2 = mpmath.cos(2 * mpmath.mpf(p.phi)), mpmath.sin(2 * mpmath.mpf(p.phi))
        s_theta, s_j = [], []
        for tk in t:
            tk = mpmath.mpf(float(tk))
            g1 = mpmath.re((mpmath.cosh(2 * lam_p * tk) - 1) / lps)
            g2 = mpmath.re(mpmath.sinh(2 * lam_p * tk) / lam_p)
            s_theta.append(float(pref * (1 + xi * (xi - lam * c2) * g1 - xi * s2 * g2)))
            s_j.append(float(pref * (1 + xi * (xi + lam * c2) * g1 + xi * s2 * g2)))
    return np.array(s_theta), np.array(s_j)


@pytest.mark.parametrize(
    "offset,regime",
    [
        (2e-10, "degenerate"),   # lam_p^2 ~ -2 offset xi^2: inside the band
        (-4e-10, "degenerate"),
        (1e-9, "oscillatory"),   # two band widths outside it, either side
        (-1e-9, "hyperbolic"),
    ],
)
@pytest.mark.parametrize("phi", [0.0, 0.9, math.pi / 2.0])
def test_closed_forms_across_the_degenerate_band(offset, regime, phi):
    # one formula for every regime: long times make lam_p t of order one at
    # the band edge, where a truncated series or a cosine difference fails
    xi = 87.72142036086622
    p = SqueezeParams(lam=xi * (1.0 + offset), xi=xi, phi=phi, r=40.0, nbar=0.7)
    assert p.regime == regime
    t = np.linspace(0.0, 300.0, 61)
    ref_theta, ref_j = mp_variances(p, t)
    np.testing.assert_allclose(variance_theta_closed(t, p), ref_theta, rtol=1e-6)
    np.testing.assert_allclose(variance_J_closed(t, p), ref_j, rtol=1e-6)


def test_oscillatory_depth_and_period_frozen():
    for r, (s_min, period) in FROZEN_OSCILLATORY.items():
        p = bench_params(r, math.pi)
        lam_pp = math.sqrt(-p.lambda_p_sq)
        assert math.pi / lam_pp == pytest.approx(period, rel=1e-12)
        # closed-form minimum (1/4)(lam - xi)/(lam + xi)
        assert 0.25 * (p.lam - p.xi) / (p.lam + p.xi) == pytest.approx(
            s_min, rel=1e-12
        )
        t = np.linspace(0.0, 2.0 * period, 4001)
        s = variance_theta_closed(t, p)
        assert float(np.min(s)) == pytest.approx(s_min, rel=1e-6)
        # the trace repeats after one period
        half = len(t) // 2
        np.testing.assert_allclose(s[half:], s[: half + 1], rtol=0, atol=1e-12)
    # deeper drive squeezes harder and breathes faster
    mins = [FROZEN_OSCILLATORY[r][0] for r in (10.0, 20.0, 40.0)]
    periods = [FROZEN_OSCILLATORY[r][1] for r in (10.0, 20.0, 40.0)]
    assert mins[0] > mins[1] > mins[2]
    assert periods[0] > periods[1] > periods[2]


def test_thermal_floor_masks_by_phase():
    p = bench_params(40.0, math.pi)
    t = np.linspace(0.0, 5e-3, 1200)
    tr = moment_oracle(p, t)
    below_theta, below_j = thermal_squeezing_check(tr)
    assert any(below_theta) and not any(below_j)
    # a quarter turn of the steady phase swaps which quadrature squeezes
    tr_quarter = moment_oracle(bench_params(40.0, math.pi / 2.0), t)
    q_theta, q_j = thermal_squeezing_check(tr_quarter)
    assert any(q_j)
    assert float(np.min(tr_quarter.S_theta)) >= 0.25 * (1.0 - 1e-12)
    # a thermal initial state raises the floor accordingly
    nbar = 4.0
    tr_hot = moment_oracle(bench_params(40.0, math.pi, nbar), t)
    hot_theta, _ = thermal_squeezing_check(tr_hot)
    assert any(hot_theta)
    assert float(np.min(tr_hot.S_theta)) >= (2.0 * nbar + 1.0) * 0.25 * (
        1.0 - 1e-12
    ) * (p.lam - p.xi) / (p.lam + p.xi)


def test_damping_relaxes_to_bath_occupation():
    # with no parametric term the damped moments settle on the bath floor
    p = SqueezeParams(lam=500.0, xi=0.0, phi=0.0, r=0.0, nbar=6.0)
    gamma = 2000.0
    t = np.linspace(0.0, 12.0 / gamma, 300)
    tr = moment_oracle(p, t, gamma_b=gamma, nbar_bath=1.0)
    floor = (2.0 * 1.0 + 1.0) / 4.0
    assert tr.S_theta[-1] == pytest.approx(floor, rel=1e-4)
    assert tr.S_J[-1] == pytest.approx(floor, rel=1e-4)
    # undamped closed form keeps the initial occupation instead
    assert variance_theta_closed(t[-1], p) == pytest.approx(13.0 / 4.0, rel=1e-12)


@pytest.mark.parametrize(
    "lam_over_xi,phi,gamma_b,nbar,nbar_bath,t0",
    [
        (0.3, 1.0, 0.0, 0.0, None, 0.0),          # hyperbolic
        (16.326, math.pi, 0.0, 2.0, None, 0.0),   # oscillatory, thermal start
        (1.0 - 4e-10, 0.9, 0.0, 0.7, None, 0.0),  # degenerate band, |lam_p^2| ~ 1e-9 xi^2
        (-0.6, 2.5, 300.0, 0.0, None, 0.0),       # damped, hyperbolic
        (16.326, math.pi, 300.0, 0.0, 1.0, 0.0),  # damped, thermal bath
        (1.0 + 2e-10, 0.4, 300.0, 2.0, 1.0, 0.0), # damped, degenerate band
        (-4.0, 0.7, 300.0, 0.5, 1.0, 3e-3),       # grid starting after 0
    ],
)
def test_oracle_matches_dop853_integration(lam_over_xi, phi, gamma_b, nbar, nbar_bath, t0):
    xi = 87.72142036086622
    p = SqueezeParams(lam=lam_over_xi * xi, xi=xi, phi=phi, r=40.0, nbar=nbar)
    t = t0 + grid_for(p, n=300)
    tr = moment_oracle(p, t, gamma_b=gamma_b, nbar_bath=nbar_bath)
    ref_theta, ref_j = moment_dop853(p, t, gamma_b=gamma_b, nbar_bath=nbar_bath)
    scale = max(float(np.max(ref_theta)), float(np.max(ref_j)))
    np.testing.assert_array_equal(tr.t, t)
    np.testing.assert_allclose(tr.S_theta, ref_theta, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(tr.S_J, ref_j, rtol=0, atol=1e-9 * scale)
    assert tr.regime == p.regime


DAMPED_REGIMES = ["oscillatory", "below", "above", "degenerate", "threshold", "undamped",
                  "gamma_dominated", "fast_lambda", "nonnormal"]


@st.composite
def damped_cases(draw, regime):
    """(params, gamma_b, nbar_bath, t_grid) in ``regime``, with xi between 1 and
    1e4 rad/s and a grid that may start after 0."""
    xi = 10.0 ** draw(st.floats(0.0, 4.0))
    if regime in ("oscillatory", "fast_lambda"):
        lam = draw(st.sampled_from([-1.0, 1.0])) * xi * 10.0 ** draw(st.floats(0.01, 3.0))
    elif regime == "degenerate":  # |lam_p^2| <= 1e-9 xi^2
        lam = xi * (1.0 + draw(st.floats(-5e-10, 5e-10)))
    elif regime == "nonnormal":  # hyperbolic with |lam_p| down to 2.5e-4 xi
        lam = draw(st.sampled_from([-1.0, 1.0])) * xi * (1.0 - 10.0 ** -draw(st.floats(4.0, 7.5)))
    else:
        lam = xi * draw(st.floats(-0.999, 0.999))
    p = SqueezeParams(lam=lam, xi=xi, phi=draw(st.floats(0.0, 2.0 * math.pi)), r=1.0,
                      nbar=draw(st.sampled_from([0.0, 2.5])))
    rate = 2.0 * math.sqrt(abs(p.lambda_p_sq))  # 2 |lam_p|
    gamma_b = {
        "oscillatory": xi * 10.0 ** draw(st.floats(-2.0, 1.0)),
        "below": rate * 10.0 ** draw(st.floats(0.05, 2.0)),
        "nonnormal": rate * 10.0 ** draw(st.floats(0.05, 1.0)),
        "above": rate * 10.0 ** draw(st.floats(-3.0, -0.05)),
        "degenerate": xi * 10.0 ** draw(st.floats(-2.0, 1.0)),
        "threshold": rate * (1.0 + draw(st.floats(-1e-8, 1e-8))),
        "undamped": 0.0,
        "gamma_dominated": max(rate, xi * 1e-3) * 10.0 ** draw(st.floats(2.0, 5.0)),
        "fast_lambda": abs(lam) * 10.0 ** -draw(st.floats(0.0, 6.0)),
    }[regime]
    # spans from far below to far above 1 / xi and 1 / gamma_b; above threshold
    # the growth e^{(2 lam_p - gamma_b) t} stays below e^6
    horizon = 10.0 ** draw(st.floats(-3.0, 1.5)) / (min(xi, gamma_b) if gamma_b > 0.0 else xi)
    if p.lambda_p_sq > 0.0 and rate > gamma_b:
        horizon = min(horizon, 6.0 / (rate - gamma_b))
    t0 = draw(st.sampled_from([0.0, 0.37 * horizon]))
    return p, gamma_b, draw(st.sampled_from([0.0, 1.5])), t0 + horizon * np.array(
        [0.0, 0.013, 0.21, 1.0])


@pytest.mark.parametrize("regime", DAMPED_REGIMES)
@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_damped_oracle_matches_mpmath(regime, data):
    p, gamma_b, nbar_bath, t = data.draw(damped_cases(regime))
    tr = moment_oracle(p, t, gamma_b=gamma_b, nbar_bath=nbar_bath)
    ref_theta, ref_j = moment_mpmath(p, t, gamma_b, nbar_bath)
    np.testing.assert_allclose(tr.S_theta, ref_theta, rtol=1e-8, atol=0)
    np.testing.assert_allclose(tr.S_J, ref_j, rtol=1e-8, atol=0)
    assert float(np.min(np.asarray(tr.S_theta) * tr.S_J)) >= (1.0 - 1e-9) / 16.0


@pytest.mark.parametrize("gamma_b,t_max", [(799.0, 1.0), (1000.0, 5.0)])
def test_damped_oracle_where_the_undamped_growth_overflows(gamma_b, t_max):
    # 2 lam_p = 800 rad/s: e^{2 lam_p t} leaves float range at t ~ 0.89 s, while
    # the damped moments grow as e^{(2 lam_p - gamma_b) t} at most
    p = SqueezeParams(lam=0.0, xi=400.0, phi=0.3, r=1.0)
    t = np.linspace(0.0, t_max, 6)
    tr = moment_oracle(p, t, gamma_b=gamma_b, nbar_bath=0.5)
    ref_theta, ref_j = moment_mpmath(p, t, gamma_b, 0.5)
    np.testing.assert_allclose(tr.S_theta, ref_theta, rtol=1e-8, atol=0)
    np.testing.assert_allclose(tr.S_J, ref_j, rtol=1e-8, atol=0)


@pytest.mark.parametrize("offset,phi", [(0.1, 1.0), (-0.1, 2.5)])
def test_damped_oracle_near_threshold_is_accurate_to_rounding(offset, phi):
    # |gamma^2 - 4 lam_p^2| = 0.1 gamma^2 and gamma t up to 20: the phi_1 form
    # of a2 stays within a few ulp of mpmath, where the far-from-threshold form
    # (a0 - h1 - gamma h2)/(gamma^2 - 4 lam_p^2) loses ~10x that to cancellation
    gamma_b = 300.0
    lps = gamma_b * gamma_b * (1.0 - offset) / 4.0
    xi = 2.0 * math.sqrt(lps)
    p = SqueezeParams(lam=math.sqrt(xi * xi - lps), xi=xi, phi=phi, r=1.0, nbar=0.0)
    t = [k / gamma_b for k in range(21)]
    tr = moment_oracle(p, t, gamma_b=gamma_b, nbar_bath=0.0)
    ref_theta, ref_j = moment_mpmath(p, t, gamma_b, 0.0, dps=40)
    np.testing.assert_allclose(tr.S_theta, ref_theta, rtol=1.5e-15, atol=0)
    np.testing.assert_allclose(tr.S_J, ref_j, rtol=1.5e-15, atol=0)


@pytest.mark.parametrize("lam_over_xi,phi", [(16.326, math.pi), (0.3, 1.0)])
def test_damped_trace_settles_on_the_stationary_moments(lam_over_xi, phi):
    # the undamped growth rate 2 lam_p ~ 167 rad/s of the hyperbolic case is
    # below gamma_b, so both cases settle; after 40 / gamma_b the transient
    # e^{-(gamma_b - 2 Re lam_p) t} is below 1e-8
    xi, gamma, nbar_bath = 87.72142036086622, 300.0, 1.0
    p = SqueezeParams(lam=lam_over_xi * xi, xi=xi, phi=phi, r=40.0, nbar=3.0)
    t = np.linspace(0.0, 40.0 / gamma, 400)
    tr = moment_oracle(p, t, gamma_b=gamma, nbar_bath=nbar_bath)
    # stationary point of the moment equations in (Re z, Im z, m)
    c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
    lam = p.lam
    a = np.array([[-gamma, -2.0 * lam, -2.0 * xi * s2],
                  [2.0 * lam, -gamma, 2.0 * xi * c2],
                  [-2.0 * xi * s2, 2.0 * xi * c2, -gamma]])
    re_z, _, m = np.linalg.solve(a, [xi * s2, -xi * c2, -gamma * nbar_bath])
    s_theta = (2.0 * re_z + 2.0 * m + 1.0) / 4.0
    s_j = (-2.0 * re_z + 2.0 * m + 1.0) / 4.0
    assert tr.S_theta[-1] == pytest.approx(s_theta, rel=1e-8)
    assert tr.S_J[-1] == pytest.approx(s_j, rel=1e-8)
    # it started hot, away from the stationary point
    assert abs(tr.S_theta[0] - s_theta) > 0.1 * s_theta


def test_damping_shallows_the_breathing_minimum():
    p = bench_params(40.0, math.pi)
    t = np.linspace(0.0, 5e-3, 1500)
    undamped = moment_oracle(p, t)
    damped = moment_oracle(p, t, gamma_b=300.0)
    assert float(np.min(damped.S_theta)) > float(np.min(undamped.S_theta))


def test_benchmark_window_for_typical_amplitudes():
    # at the benchmark trap the breathing window sits a few hundred rad/s
    # below the carrier; r = 40 drives outside it (oscillatory regime)
    om1, om2 = characteristic_frequencies(OMEGA_T, ETA, 40.0)
    # differencing ~8e6 rad/s leaves ~1e-9 rad/s of rounding in the gap
    assert OMEGA_T - om1 == pytest.approx(36.0 * ETA * 1600.0, abs=1e-8)
    assert OMEGA_T - om2 == pytest.approx(12.0 * ETA * 1600.0, abs=1e-8)
    assert DELTA_ML + OMEGA_T > om2  # blue of the window -> oscillatory
