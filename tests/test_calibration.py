"""Least-squares calibration of (delta_ml, gamma_b) from measured jumps."""

import math

import pytest

from libration.model import REFERENCE_DELTA_ML, REFERENCE_GAMMA_B, mode_parameters
from oracles import REFERENCE_JUMPS, REFERENCE_PARTICLE, REFERENCE_TRAP, fit_turning_points


def test_fit_reproduces_frozen_reference():
    # the frozen constants came from this fit, started at the nominal
    # detuning -2 pi * 6007 rad/s and gamma_b ~ 2e3 rad/s
    eta = mode_parameters(REFERENCE_PARTICLE, REFERENCE_TRAP).eta
    fit = fit_turning_points(REFERENCE_JUMPS, eta, -2.0 * math.pi * 6007.0, 2e3)
    assert fit.delta_ml == pytest.approx(REFERENCE_DELTA_ML, rel=1e-8)
    assert fit.gamma_b == pytest.approx(REFERENCE_GAMMA_B, rel=1e-8)
    # four observations, two unknowns: the model misses the data by 8.6 %
    assert fit.max_residual == pytest.approx(0.0864, abs=5e-4)
    with pytest.raises(ValueError):
        fit_turning_points(REFERENCE_JUMPS, 0.0, -2.0 * math.pi * 6007.0, 2e3)
