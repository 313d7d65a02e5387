import os

import pytest

from libration.model import NanoparticleSpec, TrapConfig


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (reaped pid {pid})" if pid
                else "the test left a child process running")


@pytest.fixture
def trap():
    return TrapConfig(power=0.1, waist=0.6e-6)


@pytest.fixture
def benchmark_particle():
    """50 x 40 nm diamond spheroid used throughout the variance benchmarks."""
    return NanoparticleSpec(r_a=50e-9, r_b=40e-9, density=3500.0, eps_r=5.7)


@pytest.fixture
def slender_particle():
    return NanoparticleSpec.from_eccentricity(50e-9, 0.8, 3500.0, 5.7)


@pytest.fixture
def window_particle():
    """More eccentric particle whose mode sits well inside the bistable regime."""
    return NanoparticleSpec.from_eccentricity(50e-9, 0.9, 3500.0, 5.7)
