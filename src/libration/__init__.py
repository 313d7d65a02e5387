"""Toolkit for the nonlinear librational mode of a levitated anisotropic nanoparticle.

Modules
-------
model       particle/trap geometry -> mode frequency, nonlinearity, zero-point scales;
            gas damping from the pressure, drive amplitude from the modulation power
steadystate driven-mode mean-field steady states, stability, bistability diagrams
dynamics    time integration and quasi-static hysteresis sweeps
squeezing   variance evolution of the linearized fluctuations, closed forms + oracle
config      JSON run configuration: validated SI values, the working point resolved once
output      CSV and SVG writers
cli         ``libration`` command-line entry point (derive/bistability/hysteresis/squeeze)

The package has no runtime dependency; numpy is needed only for array input
to ``squeezing``'s ``variance_theta_closed`` and ``variance_J_closed``, and no
command loads it.  The reproduction evidence is kept with the tests, which
need numpy and scipy: the least-squares fit behind the reference working
point ``model.REFERENCE_*`` (``tests/oracles.py``) and the audit of the
transcribed variance formulas behind ``findings.json`` (``tests/audit.py``).
"""

from libration.model import (
    MATERIALS,
    Material,
    ModeParameters,
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

__version__ = "0.1.0"
