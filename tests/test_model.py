import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

import libration
from libration.config import load_config
from libration.model import (
    MATERIALS,
    NanoparticleSpec,
    NoConfinementError,
    TrapConfig,
    depolarization_factors,
    drive_amplitude,
    gas_damping,
    mode_parameters,
    rotational_inertia,
    susceptibilities,
    thermal_occupancy,
)
from oracles import depolarization_quad, inertia_monte_carlo


def test_depolarization_sphere_limit():
    la, lb = depolarization_factors(0.0)
    assert la == lb == 1.0 / 3.0


def test_depolarization_against_quadrature():
    # frozen from the defining ellipsoid integral at e = 0.8
    la, lb = depolarization_factors(0.8)
    np.testing.assert_allclose(la, 0.20996176546976447, rtol=1e-12)
    np.testing.assert_allclose(lb, 0.39501911726511774, rtol=1e-12)
    for e in (0.3, 0.6, 0.8, 0.9, 0.99):
        la, lb = depolarization_factors(e)
        qa, qb = depolarization_quad(e)
        np.testing.assert_allclose(la, qa, rtol=1e-10)
        np.testing.assert_allclose(lb, qb, rtol=1e-10)
        np.testing.assert_allclose(la + 2.0 * lb, 1.0, rtol=1e-13)
        assert la < lb  # long axis always depolarizes least


def test_depolarization_series_joins_closed_form():
    # the small-e series and the log form must agree through the switchover
    for e in (5e-3, 9.9e-3, 1.01e-2, 2e-2, 5.4e-2, 5.5e-2, 5.6e-2):
        la, _ = depolarization_factors(e)
        qa, _ = depolarization_quad(e)
        np.testing.assert_allclose(la, qa, rtol=1e-10)


def _la_50_digits(e):
    with mpmath.workdps(50):
        x = mpmath.mpf(e)
        return float((1 - x * x) / (x * x) * (mpmath.atanh(x) / x - 1))


def test_depolarization_above_the_series_range_is_accurate_to_rounding():
    # the closed form is within 1e-14 of a 50-digit evaluation from the
    # switch at e = 0.3 up
    for e in (0.3, 0.31, 0.4, 0.6, 0.9, 0.98):
        assert depolarization_factors(e)[0] == pytest.approx(_la_50_digits(e), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("e", [0.0101, 0.02, 0.03, 0.05, 0.07])
def test_depolarization_on_both_sides_of_the_switch_is_within_1e_13(e):
    # the closed form is 1.6e-13 off at e = 0.0101 and 2.4e-13 at 0.06, so
    # each of these e takes the series
    assert depolarization_factors(e)[0] == pytest.approx(_la_50_digits(e), rel=1e-13, abs=0.0)


def test_depolarization_is_accurate_to_rounding_across_the_switch():
    # 300 e below the switch at 0.3, uniform and log-uniform, take the 14-term
    # series (5e-16 at most; 13 terms are 2.6e-15 off near 0.3), and 300 in
    # [0.3, 0.99) the closed form (8.5e-15 at most)
    rng = np.random.default_rng(29)
    below = [*rng.uniform(0.0, 0.3, 200), *np.exp(rng.uniform(math.log(1e-8), math.log(0.3), 100)),
             0.299, math.nextafter(0.3, 0.0)]
    above = [0.3, *rng.uniform(0.3, 0.99, 300)]
    for sample, rel in ((below, 1e-15), (above, 1e-14)):
        for e in map(float, sample):
            assert depolarization_factors(e)[0] == pytest.approx(_la_50_digits(e), rel=rel, abs=0.0)


def test_depolarization_near_the_needle_limit_is_accurate_to_rounding():
    # 2,000 e in [0.99, 0.999999): 1 - e^2 formed as (1 - e)(1 + e) keeps
    # 5e-16; the cancelling 1 - e * e was up to 1e-12 off
    rng = np.random.default_rng(32)
    for e in map(float, rng.uniform(0.99, 0.999999, 2000)):
        assert depolarization_factors(e)[0] == pytest.approx(_la_50_digits(e), rel=1e-15, abs=0.0)


def test_depolarization_domain():
    with pytest.raises(ValueError):
        depolarization_factors(1.0)
    with pytest.raises(ValueError):
        depolarization_factors(-0.1)


def test_susceptibilities_frozen_values():
    spec = NanoparticleSpec.from_eccentricity(50e-9, 0.8, 3500.0, 5.7)
    kx, ky = susceptibilities(spec)
    np.testing.assert_allclose(kx, 2.3655888785826193, rtol=1e-12)
    np.testing.assert_allclose(ky, 1.6453184548402624, rtol=1e-12)
    spec = NanoparticleSpec.from_eccentricity(50e-9, 0.9, 3500.0, 5.7)
    kx, ky = susceptibilities(spec)
    np.testing.assert_allclose(kx, 2.7631629787940177, rtol=1e-12)
    np.testing.assert_allclose(ky, 1.5669145659481607, rtol=1e-12)


def test_susceptibilities_sphere_reduces_to_clausius_mossotti():
    spec = NanoparticleSpec(r_a=5e-8, r_b=5e-8, density=2200.0, eps_r=2.1)
    kx, ky = susceptibilities(spec)
    cm = 3.0 * (2.1 - 1.0) / (2.1 + 2.0)
    np.testing.assert_allclose(kx, cm, rtol=1e-14)
    assert kx == ky


def test_inertia_closed_form_and_monte_carlo(benchmark_particle):
    inertia = rotational_inertia(benchmark_particle)
    np.testing.assert_allclose(inertia, 9.617462310189551e-34, rtol=1e-12)
    # same quantity via m (r_a^2 + r_b^2)/5
    m = benchmark_particle.mass
    np.testing.assert_allclose(
        inertia, m * ((50e-9) ** 2 + (40e-9) ** 2) / 5.0, rtol=1e-12
    )
    mc = inertia_monte_carlo(50e-9, 40e-9, 3500.0)
    np.testing.assert_allclose(inertia, mc, rtol=5e-3)


def test_inertia_sphere_moment():
    spec = NanoparticleSpec(r_a=6e-8, r_b=6e-8, density=2200.0, eps_r=2.1)
    expected = 8.0 * math.pi * 2200.0 * (6e-8) ** 5 / 15.0
    np.testing.assert_allclose(rotational_inertia(spec), expected, rtol=1e-14)


def test_mode_parameters_frozen_benchmark(benchmark_particle, trap):
    mode = mode_parameters(benchmark_particle, trap)
    np.testing.assert_allclose(mode.omega_t, 7932763.637499492, rtol=1e-12)
    np.testing.assert_allclose(mode.eta, 0.004568823977128449, rtol=1e-12)
    np.testing.assert_allclose(mode.theta0, 0.00016626872813272917, rtol=1e-12)
    np.testing.assert_allclose(mode.J0, 1.2685149269973508e-30, rtol=1e-12)
    # exact identities behind the derived scales
    np.testing.assert_allclose(mode.eta * 24.0 * mode.inertia, hbar, rtol=1e-13)
    np.testing.assert_allclose(mode.theta0 * mode.J0, 2.0 * hbar, rtol=1e-13)
    np.testing.assert_allclose(
        mode.theta0, math.sqrt(2.0 * hbar / (mode.inertia * mode.omega_t)), rtol=1e-13
    )


def test_mode_frequency_scalings(benchmark_particle, trap):
    mode = mode_parameters(benchmark_particle, trap)
    # omega_t ~ sqrt(P0) and ~ 1/w0
    double_p = mode_parameters(benchmark_particle, TrapConfig(power=0.2, waist=0.6e-6))
    np.testing.assert_allclose(double_p.omega_t / mode.omega_t, math.sqrt(2.0), rtol=1e-12)
    double_w = mode_parameters(benchmark_particle, TrapConfig(power=0.1, waist=1.2e-6))
    np.testing.assert_allclose(double_w.omega_t / mode.omega_t, 0.5, rtol=1e-12)


def test_eta_power_independent_bitwise(slender_particle):
    etas = {
        mode_parameters(slender_particle, TrapConfig(power=p, waist=0.6e-6)).eta
        for p in (0.01, 0.1, 1.0)
    }
    assert len(etas) == 1


def test_eta_scales_as_inverse_fourth_power_of_size():
    big = NanoparticleSpec.from_eccentricity(50e-9, 0.8, 3500.0, 5.7)
    small = NanoparticleSpec.from_eccentricity(5e-9, 0.8, 3500.0, 5.7)
    trap = TrapConfig(power=0.1, waist=0.6e-6)
    r_big = mode_parameters(big, trap).eta / mode_parameters(big, trap).omega_t
    r_small = mode_parameters(small, trap).eta / mode_parameters(small, trap).omega_t
    np.testing.assert_allclose(r_small / r_big, 1.0e4, rtol=1e-12)


def test_sphere_has_no_librational_mode(trap):
    sphere = NanoparticleSpec(r_a=5e-8, r_b=5e-8, density=3500.0, eps_r=5.7)
    with pytest.raises(NoConfinementError):
        mode_parameters(sphere, trap)


def test_drive_amplitude_linear_in_power(benchmark_particle, trap):
    mode = mode_parameters(benchmark_particle, trap)

    def om(p):
        return drive_amplitude(benchmark_particle, trap, p, mode)

    np.testing.assert_allclose(om(1.0), 477104968961.2661, rtol=1e-12)
    np.testing.assert_allclose(om(2e-5) / om(1e-5), 2.0, rtol=1e-13)
    assert om(0.0) == 0.0
    assert drive_amplitude(benchmark_particle, trap, 1.0) == om(1.0)
    for bad in (-1e-5, math.nan):
        with pytest.raises(ValueError, match="drive power"):
            om(bad)


def test_gas_damping_and_override(tmp_path):
    np.testing.assert_allclose(gas_damping(2.0, 5000.0), 10000.0, rtol=1e-14)
    for bad in ((-1.0, 5000.0), (math.nan, 5000.0), (2.0, -1.0), (2.0, math.nan)):
        with pytest.raises(ValueError, match="must be >= 0"):
            gas_damping(*bad)
    # an explicit damping rate replaces the pressure model when the config loads
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "particle": {"material": "diamond", "r_a_m": 5e-8, "r_b_m": 4e-8},
        "trap": {"power_w": 0.1, "waist_m": 6e-7},
        "environment": {"pressure_pa": 2.0, "temperature_k": 300.0,
                        "damping_per_pascal_rad_s": 5000.0, "gamma_b_rad_s": 123.0},
    }))
    assert load_config(path).gamma_b == 123.0


def test_thermal_occupancy():
    nbar = thermal_occupancy(300.0, 2.0 * math.pi * 1.2621e6)
    np.testing.assert_allclose(nbar, 4952844.549519288, rtol=1e-12)
    # classical limit at high T, Boltzmann suppression at low T
    omega = 2.0 * math.pi * 1.0e6
    np.testing.assert_allclose(
        thermal_occupancy(1.0e6, omega), k_B * 1.0e6 / (hbar * omega), rtol=1e-3
    )
    cold = thermal_occupancy(1e-6, omega)  # hbar omega / kB T ~ 48 here
    np.testing.assert_allclose(cold, math.exp(-hbar * omega / (k_B * 1e-6)), rtol=1e-6)
    # past expm1's range (hbar omega / kB T above ~709) the mode is in its ground state
    assert thermal_occupancy(1e-12, omega) == 0.0
    assert thermal_occupancy(1e-320, omega) == 0.0  # kB T underflows to 0
    assert thermal_occupancy(hbar * omega / (k_B * 700.0), omega) > 0.0
    with pytest.raises(ValueError):
        thermal_occupancy(0.0, omega)
    # hbar omega / kB T subnormal (n_bar = 1/expm1 overflows) or zero: beyond float range
    for temperature, w in ((1e308, omega), (1e308, 1e-150), (math.inf, omega)):
        with pytest.raises(ValueError, match="beyond float range"):
            thermal_occupancy(temperature, w)


def test_spec_validation():
    with pytest.raises(ValueError):
        NanoparticleSpec(r_a=4e-8, r_b=5e-8, density=3500.0, eps_r=5.7)
    with pytest.raises(ValueError):
        NanoparticleSpec(r_a=5e-8, r_b=4e-8, density=-1.0, eps_r=5.7)
    with pytest.raises(ValueError):
        NanoparticleSpec(r_a=5e-8, r_b=4e-8, density=3500.0, eps_r=0.9)
    with pytest.raises(ValueError):
        NanoparticleSpec.from_eccentricity(5e-8, 1.0, 3500.0, 5.7)
    assert MATERIALS["diamond"].density == 3500.0
    assert MATERIALS["silica"].eps_r == 2.1


def test_eccentricity_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        e = float(rng.uniform(0.0, 0.999))
        spec = NanoparticleSpec.from_eccentricity(5e-8, e, 3500.0, 5.7)
        np.testing.assert_allclose(spec.eccentricity, e, atol=1e-12)


def test_model_imports_no_scipy():
    # a fresh interpreter that finds libration where this test did
    src = str(Path(libration.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, libration.model; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "False"
