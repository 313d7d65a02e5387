"""The closed-form plateau propagator of ``libration.dynamics`` on single plateaus.

About a stable root the flow is propagated as root + e^(JT) d + d2, d2 being
the second-order term; a sweep uses it once its estimate 2|d2|/|beta*| is at
most ``tol``.  Each check here is against DP45 at tol 1e-12 from the same start
state, in the three regimes of J's eigenvalues -gamma_b/2 -+ s: oscillatory
(s^2 < 0), overdamped (s^2 > 0) and near the confluent points s = 0 and
2 l2 = l1 (s = gamma_b/6), where divided differences replace the eigenbasis.
"""

import cmath
import collections
import math
import random
import struct
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import libration
from libration import dynamics
from libration.config import load_config
from libration.dynamics import hysteresis_sweep, integrate, quasi_static_sweep
from libration.steadystate import (
    MeanFieldParams, _curve_slope, _linspace, _physical_folds, beta_from_n, steady_occupations)
from oracles import exp_divided_difference_sum

DELTA_ML = -34283.6799057411
GAMMA_B = 8012.985643210628
ETA = 0.021209365972552064
K = 12.0 * ETA
U = DELTA_ML + K
G2 = (GAMMA_B / 2.0) ** 2
TOL = 1e-8

#: s^2 / (gamma_b/2)^2 of each regime, from a draw t in [0, 1]
REGIMES = {
    "oscillatory": lambda t: -(10.0 ** (-2.0 + 4.0 * t)),
    "overdamped": lambda t: 0.01 + 0.98 * t,
    "s = 0": lambda t: 1e-4 * (2.0 * t - 1.0) ** 3,
    "2 l2 = l1": lambda t: (1.0 + 1e-4 * (2.0 * t - 1.0) ** 3) / 9.0,
}


def _plateau_at(s_sq, upper):
    """(params, beta*, det J) of the drive whose lower or upper stable root has s^2 = ``s_sq``.

    s^2 = -(u + x)(u + 3x) with x = 12 eta n, so x solves 3x^2 + 4ux + u^2 + s^2 = 0;
    the drive follows from the S-curve, Omega^2/4 = n ((gamma_b/2)^2 + (u + x)^2).
    None where that root is not physical or not stable.
    """
    disc = U * U - 3.0 * s_sq
    if disc < 0.0:
        return None
    x = (-2.0 * U + (1.0 if upper else -1.0) * math.sqrt(disc)) / 3.0
    if not x > 0.0:
        return None
    n = x / K
    params = MeanFieldParams(DELTA_ML, 2.0 * math.sqrt(n * (G2 + (U + x) ** 2)), GAMMA_B, ETA)
    root = min(steady_occupations(params), key=lambda r: abs(r - n))
    det = _curve_slope(U, GAMMA_B, K * root)
    return (params, beta_from_n(params, root), det) if det > 0.0 else None


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    regime=st.sampled_from(sorted(REGIMES)),
    shape=st.floats(0.0, 1.0),
    upper=st.booleans(),
    size=st.floats(-2.5, -1.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    cycles=st.floats(1.0, 20.0),
)
def test_closed_form_matches_dp45_on_one_plateau(regime, shape, upper, size, angle, cycles):
    case = _plateau_at(REGIMES[regime](shape) * G2, upper)
    assume(case is not None)
    params, root, det = case
    # an offset of 10^size of the largest the gate admits, 12 eta 2|beta*| |d| = 0.01 sqrt(det)
    d = 10.0 ** size * 0.01 * math.sqrt(det) / (2.0 * K * abs(root))
    beta = root + d * cmath.exp(1j * angle)
    T = cycles / GAMMA_B
    end, d2 = dynamics._propagate(params, root, beta, T)
    ref = integrate(params, beta, (0.0, T), tol=1e-12).beta[-1]
    n_end, n_ref = abs(end) ** 2, abs(ref) ** 2
    estimate = 2.0 * abs(d2) / abs(root)
    if estimate <= TOL:
        # where a sweep at tol 1e-8 accepts it
        assert abs(n_end - n_ref) <= 10.0 * TOL * n_ref
    if estimate >= 1e-10:
        # above DP45's own error d2 is the first-order error, to within the third order
        first_error = abs(end - d2 - ref)
        assert 0.95 * abs(d2) <= first_error <= 1.05 * abs(d2)


@pytest.mark.parametrize("s_sq", [0.0, G2 / 9.0], ids=["s = 0", "2 l2 = l1"])
def test_closed_form_at_the_confluent_points(s_sq):
    # exactly on a confluence a denominator of the eigenbasis form vanishes
    for upper in (False, True):
        params, root, det = _plateau_at(s_sq, upper)
        beta = root * (1.0 + 1e-6j)
        for T in (0.1 / GAMMA_B, 20.0 / GAMMA_B):
            end, d2 = dynamics._propagate(params, root, beta, T)
            ref = integrate(params, beta, (0.0, T), tol=1e-12).beta[-1]
            assert 2.0 * abs(d2) / abs(root) <= TOL
            assert abs(abs(end) ** 2 - abs(ref) ** 2) <= 10.0 * TOL * abs(ref) ** 2


def _mp_divided_difference(nodes, T):
    """exp_T[nodes], the (0, p) entry of exp(T Z) for the bidiagonal Z of the nodes (Opitz)."""
    with mpmath.workdps(30):
        p = len(nodes)
        Z = mpmath.matrix(p, p)
        for i, z in enumerate(nodes):
            Z[i, i] = mpmath.mpc(z) * T
            if i + 1 < p:
                Z[i, i + 1] = T
        return complex(mpmath.expm(Z)[0, p - 1])


@pytest.mark.parametrize("s_sq", [-4.0, 0.0, 1.0 / 9.0, 0.25],
                         ids=["oscillatory", "s = 0", "2 l2 = l1", "overdamped"])
def test_divided_differences_match_mpmath(s_sq):
    # the subsets of the nodes l1, l2, 2 l1, l1 + l2, 2 l2 that the propagator
    # reads, on dwells whose nodes sit closer than 1/T, around 1/T and far beyond it
    g = GAMMA_B / 2.0
    s = cmath.sqrt(s_sq * G2)
    nodes = (-g - s, -g + s, -2.0 * g - 2.0 * s, -2.0 * g, -2.0 * g + 2.0 * s)
    for T in (0.05 / GAMMA_B, 2.0 / GAMMA_B, 20.0 / GAMMA_B):
        divided = dynamics._exp_divided_differences(nodes, T)
        for mask in (1, 3, 5, 7, 13, 15, 29, 31):
            subset = [z for i, z in enumerate(nodes) if mask >> i & 1]
            want = _mp_divided_difference(subset, T)
            # the size of exp_T over p + 1 nodes: T^p max|e^(T z)| / p!
            p = len(subset) - 1
            scale = T**p * max(abs(cmath.exp(T * z)) for z in subset) / math.factorial(p)
            assert abs(divided(mask) - want) <= 1e-13 * scale


def _bits(z):
    """The bytes of a complex number: equal only for the same bits, signed zeros and NaNs too."""
    return struct.pack("<dd", z.real, z.imag)


def _propagator_nodes(g, s):
    """(l1, l2, 2 l1, l1 + l2, 2 l2) as :func:`dynamics._propagate` forms them."""
    l1 = -g - s
    return (l1, -g + s, 2.0 * l1, -2.0 * g, -2.0 * g + 2.0 * s)


#: the propagator's (g, s) at some s^2 / g^2, g in units of 1/T
_propagator_shape = st.builds(
    lambda g, s_sq: (g, cmath.sqrt(s_sq * g * g)), st.floats(0.5, 60.0), st.floats(-30.0, 1.0))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(shape=_propagator_shape, log_t=st.floats(-9.0, 2.0))
def test_gap_table_matches_the_sum_formula_and_the_recursion(shape, log_t):
    T = 10.0**log_t
    g, s = shape[0] / T, shape[1] / T
    table = dynamics._gap_table(g, s, T)
    assume(table is not None)
    nodes = _propagator_nodes(g, s)
    recursion = dynamics._exp_divided_differences(nodes, T)
    for mask, value in zip(dynamics._MASKS, table):
        # the size of exp_T over p + 1 nodes, as in test_divided_differences_match_mpmath
        subset = [z for i, z in enumerate(nodes) if mask >> i & 1]
        p = len(subset) - 1
        scale = T**p * max(abs(cmath.exp(T * z)) for z in subset) / math.factorial(p)
        assert abs(value - exp_divided_difference_sum(nodes, T, mask)) <= 1e-14 * scale
        assert abs(value - recursion(mask)) <= 1e-14 * scale


def test_gap_table_needs_every_gap_over_1_over_t():
    # (g, s) with one gap of size exactly 1 and the other four larger: at T = 1
    # it is left to the recursion, at T one ulp above 1 it is not
    cases = {"A = 2s": (10.0, 0.5), "B = g + s": (6.0, -5.0), "C = g - s": (10.0, 9.0),
             "D = g - 3s": (10.0, 3.0), "F = g + 3s": (10.0, -3.0)}
    for gap, (g, s) in cases.items():
        assert dynamics._gap_table(g, complex(s), 1.0) is None, gap
        assert dynamics._gap_table(g, complex(s), math.nextafter(1.0, 2.0)) is not None, gap
    # and the confluent points of the propagator's nodes, s = 0 and 2 l2 = l1
    for s in (0.0, GAMMA_B / 6.0):
        assert dynamics._gap_table(GAMMA_B / 2.0, complex(s), 20.0 / GAMMA_B) is None


def _sweep_bits(result):
    return [_bits(b) for sweep in (result.up, result.down) for b in sweep.trajectory.beta]


def _shipped_sweep():
    root = Path(libration.__file__).resolve().parents[2]
    cfg = load_config(root / "configs" / "hysteresis.json")
    ramp = cfg.ramp
    return _sweep_bits(hysteresis_sweep(cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta,
                                        ramp.grid, ramp.dwell, tol=ramp.tolerance))


def _count_divided_differences(monkeypatch):
    """A Counter of the gap table's steps ("table", "confluent") and of recursion calls."""
    calls = collections.Counter()
    table, recursion = dynamics._gap_table, dynamics._exp_divided_differences

    def counted_table(g, s, T):
        dd = table(g, s, T)
        calls["table" if dd is not None else "confluent"] += 1
        return dd

    def counted_recursion(nodes, T):
        calls["recursion"] += 1
        return recursion(nodes, T)

    monkeypatch.setattr(dynamics, "_gap_table", counted_table)
    monkeypatch.setattr(dynamics, "_exp_divided_differences", counted_recursion)
    return calls


def test_every_closed_form_step_of_the_shipped_sweep_takes_the_table(monkeypatch):
    # all 623 closed-form steps of configs/hysteresis.json have nodes over
    # 1/T apart; the sweep on the recursion alone ends in the same bits
    calls = _count_divided_differences(monkeypatch)
    ends = _shipped_sweep()
    assert calls == {"table": 623}
    monkeypatch.setattr(dynamics, "_gap_table", lambda g, s, T: None)
    assert _shipped_sweep() == ends
    assert calls == {"table": 623, "recursion": 623}


def test_seeded_damped_sweeps_end_in_the_same_bits_on_the_recursion_alone(monkeypatch):
    # 16 folding working points, gamma_b = 10^U(3, 5), delta = -10^U(3, 5.5),
    # 40 drives up to 1.5 times the up-fold drive, a dwell of 20 / gamma_b:
    # both the gap table and the confluent recursion run, and the sweeps end
    # in the bits of the recursion alone
    rng = random.Random(7)
    points = []
    while len(points) < 16:
        gamma_b, delta = 10.0 ** rng.uniform(3.0, 5.0), -(10.0 ** rng.uniform(3.0, 5.5))
        folds = _physical_folds(delta, 0.0212, gamma_b)
        if folds is not None:
            points.append((delta, gamma_b, _linspace(0.0, 1.5 * folds.drive_low, 40)))

    def sweeps():
        return [_sweep_bits(hysteresis_sweep(delta, gamma_b, 0.0212, drives, 20.0 / gamma_b))
                for delta, gamma_b, drives in points]

    calls = _count_divided_differences(monkeypatch)
    ends = sweeps()
    assert calls["table"] > 0 and calls["confluent"] > 0
    monkeypatch.setattr(dynamics, "_gap_table", lambda g, s, T: None)
    assert sweeps() == ends


def test_stable_roots_inside_the_window_are_the_outer_branches():
    # three roots, the middle one unstable: only the outer two, each with
    # beta_from_n's amplitude and the S-curve slope as det J, to the bit
    folds = _physical_folds(DELTA_ML, ETA, GAMMA_B)
    params = MeanFieldParams(DELTA_ML, 0.5 * (folds.drive_low + folds.drive_high), GAMMA_B, ETA)
    low, middle, high = steady_occupations(params)
    assert _curve_slope(U, GAMMA_B, K * middle) < 0.0
    assert dynamics._grid_roots([params])[0] == [
        (beta_from_n(params, n), _curve_slope(U, GAMMA_B, K * n)) for n in (low, high)]
    # a plateau from the unstable root settles on a stable one
    beta = beta_from_n(params, middle) * (1.0 + 1e-3)
    end, _, _, complete = dynamics._plateau(params, dynamics._grid_roots([params])[0], beta,
                                            40.0 / GAMMA_B, TOL)
    n_end = abs(end) ** 2
    assert complete and min(abs(n_end - low) / low, abs(n_end - high) / high) < 1e-6


def _worst_deficit(sweep):
    """The largest settling deficit |beta - beta*| / |beta*| of a sweep's plateaus."""
    worst = 0.0
    for omega, beta in zip(sweep.trajectory.omega_applied, sweep.trajectory.beta):
        roots = dynamics._grid_roots([MeanFieldParams(DELTA_ML, omega, GAMMA_B, ETA)])[0]
        root = min((r for r, _ in roots), key=lambda r: abs(beta - r))
        worst = max(worst, abs(beta - root) / abs(root))
    return worst


def test_settling_deficit_shrinks_with_the_dwell():
    # the same ramp across both folds at a dwell of 10, 20 and 40 damping times
    deficits = []
    for cycles in (10.0, 20.0, 40.0):
        drives = _linspace(2.35e6, 1.08e7, 40)
        up = quasi_static_sweep(DELTA_ML, GAMMA_B, ETA, drives, cycles / GAMMA_B)
        down = quasi_static_sweep(DELTA_ML, GAMMA_B, ETA, drives[::-1], cycles / GAMMA_B,
                                  beta_init=up.trajectory.beta[-1])
        assert up.jump is not None and down.jump is not None
        deficits.append(max(_worst_deficit(up), _worst_deficit(down)))
    assert deficits[0] > deficits[1] > deficits[2]


def test_a_closed_form_beyond_float_range_leaves_the_plateau_to_dp45(monkeypatch):
    # at gamma_b = 1e-300 and a detuning of 1e10 rad/s the default dwell's
    # phase T Im(l) is beyond float range, and the closed form raises
    far = MeanFieldParams(1e10, 3e6, 1e-300, ETA)
    (root, _), = dynamics._grid_roots([far])[0]
    with pytest.raises(ValueError):
        dynamics._propagate(far, root, root * (1.0 + 1e-6), 20.0 / far.gamma_b)
    # a plateau whose closed form raises is one DP45 run to the end of its dwell
    tried = []

    def beyond(*args):
        tried.append(args)
        raise ValueError("math domain error")

    monkeypatch.setattr(dynamics, "_propagate", beyond)
    params, root, _ = _plateau_at(-4.0 * G2, True)
    beta = root * (1.0 + 1e-6)
    end, n_rhs, n_rejected, complete = dynamics._plateau(
        params, dynamics._grid_roots([params])[0], beta, 5.0 / GAMMA_B, TOL)
    tr = integrate(params, beta, (0.0, 5.0 / GAMMA_B), tol=TOL)
    assert len(tried) == 1 and tried[0][2] == beta  # the gate holds at the start
    assert complete and (end, n_rhs, n_rejected) == (tr.beta[-1], tr.n_rhs, tr.n_rejected)
