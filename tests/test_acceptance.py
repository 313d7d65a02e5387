"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test also asserts, so the suite fails loudly if a guarantee slips.
"""

import math
import time
from pathlib import Path

import numpy as np

from libration.dynamics import hysteresis_sweep
from libration.model import (
    DWELL_DAMPING_CYCLES,
    REFERENCE_DELTA_ML,
    REFERENCE_GAMMA_B,
    NanoparticleSpec,
    TrapConfig,
    mode_parameters,
)
from libration.squeezing import SqueezeParams, exponential_angle, moment_oracle
from libration.steadystate import (
    MeanFieldParams,
    _linspace,
    bistability_condition,
    solve_branches,
    steady_occupations,
    turning_points,
)
from audit import DEVIATION_TOLERANCE, DOCUMENTED_STATUS, load_findings, run_audit
from oracles import (
    REFERENCE_JUMPS,
    REFERENCE_PARTICLE,
    REFERENCE_TRAP,
    draw_mean_field,
    drive_curve_folds,
    fold_extrema_scan,
    scan_roots,
    stability_matrix,
)

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

DIAMOND = {"density": 3500.0, "eps_r": 5.7}
TRAP = TrapConfig(power=0.1, waist=0.6e-6)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_trap_frequency():
    spec = NanoparticleSpec(r_a=50e-9, r_b=40e-9, **DIAMOND)
    mode = mode_parameters(spec, TRAP)
    f = mode.omega_t / TWO_PI
    period = TWO_PI / mode.omega_t
    err_f = abs(f - 1.2621e6) / 1.2621e6
    err_p = abs(period - 0.79e-6) / 0.79e-6
    report(
        1, "trap frequency",
        err_f < 0.03 and err_p < 0.03,
        f"omega_t/2pi = {f:.6g} Hz (ref 1.2621 MHz, dev {err_f:.2%}), "
        f"period = {period:.4g} s (ref 0.79 us, dev {err_p:.2%}), tol 3%",
    )


def test_criterion_02_nonlinearity_ratio():
    slender = NanoparticleSpec.from_eccentricity(50e-9, 0.8, **DIAMOND)
    mode = mode_parameters(slender, TRAP)
    ratio = TWO_PI * mode.eta / mode.omega_t
    err = abs(ratio - 4.6e-9) / 4.6e-9
    tiny = mode_parameters(
        NanoparticleSpec.from_eccentricity(5e-9, 0.8, **DIAMOND), TRAP
    )
    gain = (TWO_PI * tiny.eta / tiny.omega_t) / ratio
    err_gain = abs(gain - 1e4) / 1e4
    report(
        2, "nonlinearity ratio",
        err < 0.10 and err_gain < 0.01,
        f"2pi*eta/omega_t = {ratio:.4g} (ref 4.6e-9, dev {err:.2%}, tol 10%); "
        f"r_a/10 scales it by {gain:.6g} (ref 1e4, dev {err_gain:.3%}, tol 1%)",
    )


def test_criterion_03_power_independence():
    spec = NanoparticleSpec(r_a=50e-9, r_b=40e-9, **DIAMOND)
    etas = {
        mode_parameters(spec, TrapConfig(power=p, waist=0.6e-6)).eta
        for p in (0.01, 0.1, 1.0)
    }
    report(
        3, "power independence",
        len(etas) == 1,
        f"eta over P0 in {{0.01, 0.1, 1}} W: {sorted(etas)} (must be one bitwise value)",
    )


def test_criterion_04_cubic_oracle_equivalence():
    rng = np.random.default_rng(20260825)
    t0 = time.perf_counter()
    solver_s = 0.0  # the solver alone; the 400k-point oracle scans dominate the total
    worst = 0.0
    count_mismatch = 0
    for _ in range(1000):
        delta_ml, Omega, gamma_b, eta = draw_mean_field(rng)
        params = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
        s0 = time.perf_counter()
        roots = steady_occupations(params)
        solver_s += time.perf_counter() - s0
        ref = scan_roots(delta_ml, Omega, gamma_b, eta, n_grid=400_000)
        if len(roots) != len(ref):
            count_mismatch += 1
            continue
        for a, b in zip(sorted(roots), ref):
            worst = max(worst, abs(a - b) / abs(b))
    elapsed = time.perf_counter() - t0
    report(
        4, "cubic-oracle equivalence",
        count_mismatch == 0 and worst < 1e-6 and solver_s < 1.0 and elapsed < 10.0,
        f"1000 random sets: count mismatches {count_mismatch}, "
        f"max rel dev {worst:.2e} (tol 1e-6), solver {solver_s * 1e3:.1f} ms "
        f"(budget 1 s), with oracle {elapsed:.1f} s (budget 10 s)",
    )


def test_criterion_05_stability_pattern():
    rng = np.random.default_rng(5)
    checked = 0
    pattern_ok = trace_ok = True
    for _ in range(400):
        delta_ml, Omega, gamma_b, eta = draw_mean_field(rng)
        params = MeanFieldParams(delta_ml=delta_ml, Omega=Omega, gamma_b=gamma_b, eta=eta)
        branches = solve_branches(params)
        for b in branches:
            if stability_matrix(params, b.n).trace() != gamma_b:
                trace_ok = False
        if len(branches) == 3:
            checked += 1
            verdicts = tuple(b.stable for b in sorted(branches, key=lambda b: b.n))
            if verdicts != (True, False, True):
                pattern_ok = False
    report(
        5, "stability pattern",
        pattern_ok and trace_ok and checked >= 100,
        f"{checked} three-root diagrams: verdicts all (stable, unstable, stable) "
        f"in ascending n = {pattern_ok}; Tr(A) = gamma_b bitwise on every branch "
        f"= {trace_ok}",
    )


def test_criterion_06_bistability_boundary():
    rng = np.random.default_rng(6)
    agree = 0
    for _ in range(200):
        eta = 10.0 ** rng.uniform(-3.0, -1.0)
        gamma_b = 10.0 ** rng.uniform(2.5, 4.0)
        omega_t = 10.0 ** rng.uniform(6.5, 7.5)
        _, omega_c = bistability_condition(omega_t, omega_t, eta, gamma_b)
        # straddle the edge on both sides, from 1% to 10x gamma_b away
        offset = rng.choice([-1.0, 1.0]) * gamma_b * 10.0 ** rng.uniform(-2.0, 1.0)
        omega_ml = omega_c + offset
        predicted = bistability_condition(omega_ml, omega_t, eta, gamma_b)[0]
        brute = drive_curve_folds(omega_ml - omega_t, gamma_b, eta)
        agree += brute == predicted == (omega_ml < omega_c)
    blue_clean = True
    for _ in range(50):
        eta = 10.0 ** rng.uniform(-3.0, -1.0)
        gamma_b = 10.0 ** rng.uniform(2.5, 4.0)
        delta_ml = 10.0 ** rng.uniform(1.0, 5.0)  # blue-detuned drive
        if drive_curve_folds(delta_ml, gamma_b, eta):
            blue_clean = False
    report(
        6, "bistability boundary",
        agree == 200 and blue_clean,
        f"{agree}/200 straddling configs: folds exist iff "
        f"omega_ml < omega_t - 12 eta - sqrt(3) gamma_b / 2; "
        f"no blue-detuned folds = {blue_clean}",
    )


def test_criterion_07_turning_point_formulas():
    rng = np.random.default_rng(7)
    worst_drive = worst_n = 0.0
    checked = 0
    while checked < 200:
        eta = 10.0 ** rng.uniform(-3.0, -1.0)
        gamma_b = 10.0 ** rng.uniform(2.5, 4.5)
        delta = -gamma_b * 10.0 ** rng.uniform(-1.5, 1.5)
        tp = turning_points(delta, eta, gamma_b)
        if not tp.physical:
            continue
        delta_ml = delta - SQRT3 * gamma_b / 2.0 - 12.0 * eta
        scan = fold_extrema_scan(delta_ml, gamma_b, eta)
        if scan is None:
            continue
        (n_max, om_max), (n_min, om_min) = scan
        worst_drive = max(
            worst_drive,
            abs(tp.drive_low - om_max) / om_max,
            abs(tp.drive_high - om_min) / om_min,
        )
        worst_n = max(
            worst_n,
            abs(tp.n_low - n_max) / n_max,
            abs(tp.n_high - n_min) / n_min,
        )
        checked += 1
    # tangency: the fold window closes as delta approaches sqrt(3) gamma_b
    gamma_b = 5.0e3
    widths = [
        turning_points(SQRT3 * gamma_b * (1.0 + eps), 1e-2, gamma_b).width
        for eps in (1e-2, 1e-4, 1e-6)
    ]
    tangent = widths[0] > widths[1] > widths[2] and widths[2] < 3.0 * gamma_b * 1e-3
    report(
        7, "turning-point formulas",
        worst_drive < 1e-6 and worst_n < 1e-6 and tangent,
        f"200 bistable sets: fold drives within {worst_drive:.2e}, "
        f"fold occupations within {worst_n:.2e} of scanned extrema (tol 1e-6); "
        f"window width -> 0 at tangency: {[f'{w:.3g}' for w in widths]}",
    )


def test_criterion_08_hysteresis():
    t0 = time.perf_counter()
    mode = mode_parameters(REFERENCE_PARTICLE, REFERENCE_TRAP)
    gamma_b = REFERENCE_GAMMA_B
    omega_ml = mode.omega_t + REFERENCE_DELTA_ML
    _, omega_c = bistability_condition(omega_ml, mode.omega_t, mode.eta, gamma_b)
    tp = turning_points(omega_ml - omega_c, mode.eta, gamma_b)

    # fitted static folds reproduce the measured jump coordinates within 10%
    residuals = [
        (tp.drive_low - REFERENCE_JUMPS.drive_up) / REFERENCE_JUMPS.drive_up,
        (tp.delta_eff_low - REFERENCE_JUMPS.delta_eff_up)
        / abs(REFERENCE_JUMPS.delta_eff_up),
        (tp.drive_high - REFERENCE_JUMPS.drive_down) / REFERENCE_JUMPS.drive_down,
        (tp.delta_eff_high - REFERENCE_JUMPS.delta_eff_down)
        / abs(REFERENCE_JUMPS.delta_eff_down),
    ]
    fit_ok = max(abs(r) for r in residuals) < 0.10

    result = hysteresis_sweep(REFERENCE_DELTA_ML, gamma_b, mode.eta,
                              _linspace(2.35e6, 1.08e7, 300), DWELL_DAMPING_CYCLES / gamma_b)
    up_err = down_err = math.nan
    if result.up.jump is not None and result.down.jump is not None:
        up_err = abs(result.up.jump.drive - tp.drive_low) / tp.drive_low
        down_err = abs(result.down.jump.drive - tp.drive_high) / tp.drive_high
    inside_ok = up_err < 0.02 and down_err < 0.02 and result.loop_area > 0.0

    # outside the window (blue detuning) the ramp retraces with no loop
    mono = hysteresis_sweep(+TWO_PI * 500.0, gamma_b, mode.eta, _linspace(1.0e6, 6.0e6, 60),
                            DWELL_DAMPING_CYCLES / gamma_b)
    up = mono.up.trajectory
    span = (up.omega_applied[-1] - up.omega_applied[0]) * float(np.max(up.n))
    outside_ok = (
        mono.up.jump is None
        and mono.down.jump is None
        and abs(mono.loop_area) < 1e-5 * span
    )
    elapsed = time.perf_counter() - t0
    report(
        8, "hysteresis",
        fit_ok and inside_ok and outside_ok and elapsed < 60.0,
        f"static folds vs measured jumps: max residual "
        f"{max(abs(r) for r in residuals):.2%} (tol 10%); quasi-static jumps at "
        f"{up_err:.3%} / {down_err:.3%} of static folds (tol 2%); "
        f"loop {result.loop_area:.3g} > 0 inside, "
        f"{mono.loop_area / span:.1e} of span outside (tol 1e-5); "
        f"{elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_09_squeezing_ground_truth():
    xi = 87.72142036086622
    # initial condition, all regimes, vacuum and thermal
    init_dev = 0.0
    for lam_frac in (0.4, 2.5, 1.0):
        for nbar in (0.0, 2.4):
            p = SqueezeParams(lam=lam_frac * xi, xi=xi, phi=1.1, r=40.0, nbar=nbar)
            rate = math.sqrt(abs(p.lambda_p_sq)) or xi
            tr = moment_oracle(p, np.linspace(0.0, 1.0 / rate, 60))
            floor = (2.0 * nbar + 1.0) / 4.0
            init_dev = max(
                init_dev,
                abs(tr.S_theta[0] - floor) / floor,
                abs(tr.S_J[0] - floor) / floor,
            )

    # Heisenberg bound on undamped vacuum traces at all sampled times
    min_product = math.inf
    for lam_frac, phi in ((0.4, 0.7), (0.4, 2.9), (2.5, 1.3), (1.0, 0.2)):
        p = SqueezeParams(lam=lam_frac * xi, xi=xi, phi=phi, r=40.0, nbar=0.0)
        rate = math.sqrt(abs(p.lambda_p_sq)) or xi
        horizon = 2.2 / rate if p.regime == "hyperbolic" else 2.0 * math.pi / rate
        tr = moment_oracle(p, np.linspace(0.0, horizon, 400))
        min_product = min(min_product, float(np.min(np.asarray(tr.S_theta) * tr.S_J)))
    heisenberg_ok = min_product >= (1.0 / 16.0) * (1.0 - 1e-8)

    # pure exponential decay at the special angle, hyperbolic regime
    decay_dev = 0.0
    for lam_frac in (0.25, -0.4):
        p = SqueezeParams(lam=lam_frac * xi, xi=xi, phi=0.0, r=40.0, nbar=0.0)
        lam_p = math.sqrt(p.lambda_p_sq)
        p_star = SqueezeParams(
            lam=p.lam, xi=p.xi, phi=exponential_angle(p), r=p.r, nbar=0.0
        )
        t = np.linspace(0.0, 2.5 / lam_p, 300)
        tr = moment_oracle(p_star, t)
        ref = 0.25 * np.exp(-2.0 * lam_p * t)
        decay_dev = max(decay_dev, float(np.max(np.abs(np.asarray(tr.S_theta) - ref) / ref)))

    report(
        9, "squeezing ground truth",
        init_dev < 1e-11 and heisenberg_ok and decay_dev < 1e-6,
        f"S(0) = (2 nbar + 1)/4 within {init_dev:.1e}; "
        f"min S_theta*S_J = {min_product:.12f} >= 1/16; "
        f"special-angle decay within {decay_dev:.2e} rel (tol 1e-6)",
    )


def _measured_period(t: np.ndarray, s: np.ndarray) -> float:
    """Breathing period from parabola-refined minima of a sampled trace."""
    k = np.flatnonzero((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])) + 1
    mins = []
    for i in k:
        y0, y1, y2 = s[i - 1], s[i], s[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
        mins.append(t[i] + shift * (t[1] - t[0]))
    if len(mins) < 2:
        raise RuntimeError("need at least two minima to measure a period")
    return float(np.polyfit(np.arange(len(mins)), mins, 1)[0])


def test_criterion_10_oscillatory_regime():
    eta = 0.004568823977128449
    delta_ml = TWO_PI * 200.0
    depths, periods = [], []
    period_dev = 0.0
    ceiling_ok = floor_ok = True
    for r in (10.0, 20.0, 40.0):
        xi = 12.0 * eta * r * r
        lam = delta_ml + 2.0 * xi
        p = SqueezeParams(lam=lam, xi=xi, phi=math.pi, r=r, nbar=0.0)
        lam_pp = math.sqrt(-p.lambda_p_sq)
        expected = math.pi / lam_pp
        t = np.linspace(0.0, 4.5 * expected, 3000)
        tr = moment_oracle(p, t)
        period = _measured_period(t, np.asarray(tr.S_theta))
        period_dev = max(period_dev, abs(period - expected) / expected)
        if float(np.max(tr.S_theta)) > 0.25 * (1.0 + 1e-9):
            ceiling_ok = False
        depths.append(0.25 - float(np.min(tr.S_theta)))
        periods.append(period)
        quarter = SqueezeParams(lam=lam, xi=xi, phi=math.pi / 2.0, r=r, nbar=0.0)
        tr_q = moment_oracle(quarter, t)
        if float(np.min(tr_q.S_theta)) < 0.25 * (1.0 - 1e-9):
            floor_ok = False
    monotone = (
        depths[0] < depths[1] < depths[2] and periods[0] > periods[1] > periods[2]
    )
    report(
        10, "oscillatory regime",
        period_dev < 1e-6 and ceiling_ok and floor_ok and monotone,
        f"measured periods match pi/lam_p' within {period_dev:.2e} (tol 1e-6); "
        f"phi = pi stays <= 1/4: {ceiling_ok}; phi = pi/2 never below 1/4: "
        f"{floor_ok}; depths {[f'{d:.4g}' for d in depths]} rise and periods "
        f"{[f'{p:.4g}' for p in periods]} fall over r = 10, 20, 40: {monotone}",
    )


def test_criterion_11_closed_form_audit():
    findings = {f.formula: f for f in run_audit()}
    shipped = {
        f.formula: f
        for f in load_findings(Path(__file__).resolve().parents[1] / "findings.json")
    }
    documented = all(
        findings[name].status == DOCUMENTED_STATUS[name] for name in findings
    )
    captured = set(shipped) == set(findings) and all(
        shipped[name].status == findings[name].status for name in findings
    )
    mismatches = sorted(
        name for name, f in findings.items() if f.status == "mismatch"
    )
    undocumented = sorted(
        name
        for name, f in findings.items()
        if f.max_rel_deviation > DEVIATION_TOLERANCE
        and DOCUMENTED_STATUS[name] != "mismatch"
    )
    report(
        11, "closed-form audit",
        documented and captured and not undocumented,
        f"live mismatches {mismatches} all documented in findings.json; "
        f"undocumented deviations above {DEVIATION_TOLERANCE:g}: "
        f"{undocumented or 'none'}",
    )
