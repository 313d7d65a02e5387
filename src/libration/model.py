"""Particle, trap, and librational-mode parameters.

A prolate dielectric spheroid (semi-axes ``r_a >= r_b = r_c``) held in a
linearly polarized optical tweezer aligns its long axis with the polarization
and librates about it.  Expanding the orientational potential of the induced
dipole to quartic order and quantizing gives a torsional mode with

    omega_t = sqrt(10 * P0 * (kappa_x - kappa_y) / (pi * w0**2 * c * rho * (r_a**2 + r_b**2)))

and a negative Kerr-type nonlinearity per phonon

    eta = hbar / (24 * I),        I = 4*pi*rho*r_a*r_b**2*(r_a**2 + r_b**2) / 15.

``kappa_x, kappa_y`` are the anisotropic susceptibilities of the spheroid
along/across the long axis, obtained from the depolarization factors of the
equivalent ellipsoid.  Everything in this module is static single-particle
bookkeeping: geometry, material response, and the numbers (omega_t, eta,
zero-point scales) that the driven / squeezed dynamics modules consume, plus
the two rates of a working point: the gas damping gamma_b from the pressure
and the drive amplitude Omega from the modulation power.  Neither depends on
the drive frequency, so both are plain functions of the numbers they read.

Units: SI throughout; every frequency-like quantity is an angular frequency in
rad/s unless a name says otherwise.  Conversions to Hz live in the CLI layer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

C_LIGHT = 299792458.0  # m/s, exact (SI 2019)
HBAR = 6.62607015e-34 / (2.0 * math.pi)  # J s, exact h over 2 pi
K_B = 1.380649e-23  # J/K, exact

__all__ = [
    "Material",
    "MATERIALS",
    "NanoparticleSpec",
    "TrapConfig",
    "ModeParameters",
    "NoConfinementError",
    "depolarization_factors",
    "susceptibilities",
    "rotational_inertia",
    "mode_parameters",
    "drive_amplitude",
    "gas_damping",
    "thermal_occupancy",
    "DEFAULT_DAMPING_PER_PASCAL",
    "DWELL_DAMPING_CYCLES",
    "REFERENCE_PRESSURE",
    "REFERENCE_DELTA_ML",
    "REFERENCE_GAMMA_B",
]

# Reference working point: the e = 0.9 diamond particle in the 0.1 W,
# 0.6 um trap, amplitude-swept at 10 mTorr and room temperature.  The
# detuning and damping were fitted to its measured hysteresis jump
# coordinates by least squares (the fit, with the measured jumps, lives in
# tests/oracles.py and tests/test_calibration.py refits these constants),
# started at the nominal detuning -2 pi * 6007 rad/s and gamma_b ~ 2e3 rad/s.
REFERENCE_PRESSURE = 1.3332236842105263  # Pa (10 mTorr)
REFERENCE_DELTA_ML = -34283.6799057411  # rad/s  (~ -2 pi * 5456.4)
REFERENCE_GAMMA_B = 8012.985643210628  # rad/s  (~ 2 pi * 1275.3)

# Librational gas damping rate per unit pressure, gamma_b = c_damp * p:
# the fitted reference damping over the reference pressure, so a
# quasi-static sweep at 10 mTorr reproduces the reference jump coordinates.
DEFAULT_DAMPING_PER_PASCAL = REFERENCE_GAMMA_B / REFERENCE_PRESSURE  # rad/s per Pa

#: Default dwell per quasi-static ramp step, in units of 1/gamma_b.
DWELL_DAMPING_CYCLES = 20.0


class _Validated:
    """Base of a validated ``NamedTuple`` record, listed before its fields.

    Every new record runs the class's ``_check``.  ``_replace`` builds through
    ``_make``, which would skip ``__new__``, so ``_make`` calls the class.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Material(NamedTuple):
    """Bulk optical material: mass density (kg/m^3) and relative permittivity."""

    density: float
    eps_r: float


#: Materials commonly levitated in tweezer experiments.
MATERIALS: dict[str, Material] = {
    "diamond": Material(density=3500.0, eps_r=5.7),
    "silica": Material(density=2200.0, eps_r=2.1),
}


class NoConfinementError(ValueError):
    """Raised when the particle has no librational confinement.

    A sphere (r_a == r_b) has isotropic susceptibility, kappa_x == kappa_y,
    so the orientational potential is flat and no torsional mode exists.
    """


class _NanoparticleFields(NamedTuple):
    r_a: float
    r_b: float
    density: float
    eps_r: float


class NanoparticleSpec(_Validated, _NanoparticleFields):
    """Prolate spheroidal nanoparticle.

    Parameters
    ----------
    r_a : float
        Semi-major axis (m), along the symmetry axis.
    r_b : float
        Semi-minor axis (m); the spheroid has semi-axes (r_a, r_b, r_b).
    density : float
        Mass density (kg/m^3).
    eps_r : float
        Relative permittivity at the trapping wavelength.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not (self.r_b > 0.0 and self.r_a >= self.r_b):
            raise ValueError(
                f"need r_a >= r_b > 0, got r_a={self.r_a!r}, r_b={self.r_b!r}"
            )
        if not self.density > 0.0:
            raise ValueError(f"density must be positive, got {self.density!r}")
        if not self.eps_r > 1.0:
            raise ValueError(
                f"eps_r must exceed 1 (vacuum), got {self.eps_r!r}"
            )

    @classmethod
    def from_eccentricity(
        cls, r_a: float, eccentricity: float, density: float, eps_r: float
    ) -> "NanoparticleSpec":
        """Build a spec from semi-major axis and eccentricity e = sqrt(1 - (r_b/r_a)^2)."""
        if not 0.0 <= eccentricity < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {eccentricity!r}")
        r_b = r_a * math.sqrt(1.0 - eccentricity**2)
        return cls(r_a=r_a, r_b=r_b, density=density, eps_r=eps_r)

    @property
    def eccentricity(self) -> float:
        """e = sqrt(1 - (r_b/r_a)^2), zero for a sphere."""
        return math.sqrt(max(0.0, 1.0 - (self.r_b / self.r_a) ** 2))

    @property
    def volume(self) -> float:
        """V = 4/3 * pi * r_a * r_b^2  (m^3)."""
        return 4.0 * math.pi * self.r_a * self.r_b**2 / 3.0

    @property
    def mass(self) -> float:
        """m = density * V  (kg)."""
        return self.density * self.volume


class _TrapFields(NamedTuple):
    power: float
    waist: float


class TrapConfig(_Validated, _TrapFields):
    """Trapping beam: optical power P0 (W) and beam waist w0 (m).

    The polarization axis defines x; the long particle axis librates about it.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.power > 0.0:
            raise ValueError(f"trap power must be positive, got {self.power!r}")
        if not self.waist > 0.0:
            raise ValueError(f"beam waist must be positive, got {self.waist!r}")


class _ModeFields(NamedTuple):
    inertia: float
    kappa_x: float
    kappa_y: float
    omega_t: float
    eta: float
    theta0: float
    J0: float


class ModeParameters(_Validated, _ModeFields):
    """Derived librational-mode numbers for one particle/trap combination.

    Attributes
    ----------
    inertia : float
        Moment of inertia about a transverse axis (kg m^2).
    kappa_x, kappa_y : float
        Susceptibilities along / across the long axis (dimensionless).
    omega_t : float
        Librational angular frequency (rad/s).
    eta : float
        Kerr-type nonlinear shift per phonon, hbar/(24 I)  (rad/s).
    theta0 : float
        Zero-point angular spread sqrt(2 hbar / (I omega_t))  (rad).
    J0 : float
        Zero-point angular-momentum scale sqrt(2 I hbar omega_t)  (J s).
    """

    __slots__ = ()

    def _check(self) -> None:
        if not (self.kappa_x > self.kappa_y > 0.0):
            raise ValueError(
                "need kappa_x > kappa_y > 0, got "
                f"kappa_x={self.kappa_x!r}, kappa_y={self.kappa_y!r}"
            )
        if not (0.0 < self.omega_t < math.inf and 0.0 < self.inertia < math.inf):
            raise ValueError("omega_t and inertia must be positive and finite")
        if abs(self.eta * 24.0 * self.inertia - HBAR) > 1e-12 * HBAR:
            raise ValueError("eta is inconsistent with hbar/(24 I)")
        if abs(self.theta0 * self.J0 - 2.0 * HBAR) > 1e-12 * 2.0 * HBAR:
            raise ValueError("zero-point scales must satisfy theta0 * J0 = 2 hbar")


def depolarization_factors(eccentricity: float) -> tuple[float, float]:
    """Depolarization factors (L_a, L_b) of a prolate spheroid.

    Along the symmetry axis,

        L_a = (1 - e^2)/e^2 * ( ln((1+e)/(1-e)) / (2e) - 1 ),

    and transversally L_b = L_c = (1 - L_a)/2.  For e -> 0 both approach the
    spherical value 1/3; the closed form loses digits to cancellation there,
    so below e = 0.3 the series L_a = (1-e^2) * sum_k e^(2k)/(2k+3) is summed
    instead, to k = 13 by Horner's rule.  Against 40-digit mpmath the series
    is within 5e-16 (relative) up to e = 0.3, where 13 terms would be 2.6e-15
    off, and the closed form within 8.5e-15 in [0.3, 0.5), 2.7e-15 in
    [0.5, 0.99) and 5e-16 in [0.99, 0.999999), as its 1 - e^2 is formed as
    (1 - e)(1 + e); the closed form is up to 2.4e-13 off at e = 0.06.

    Raises
    ------
    ValueError
        If ``eccentricity`` is outside [0, 1).
    """
    e = eccentricity
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1), got {e!r}")
    if e == 0.0:
        # Return the same float for both so the sphere is exactly isotropic
        # (1 - L_a)/2 would differ from L_a by one ulp and fake a confinement.
        third = 1.0 / 3.0
        return third, third
    if e < 0.3:
        e2 = e * e
        series = 0.0
        for k in range(13, -1, -1):
            series = series * e2 + 1.0 / (2 * k + 3)
        la = (1.0 - e2) * series
    else:
        # ln((1+e)/(1-e)) written via log1p to keep precision at moderate e,
        # and 1 - e^2 as a product, which does not cancel as e -> 1
        la = ((1.0 - e) * (1.0 + e) / (e * e)
              * (math.log1p(2.0 * e / (1.0 - e)) / (2.0 * e) - 1.0))
    return la, 0.5 * (1.0 - la)


def susceptibilities(spec: NanoparticleSpec) -> tuple[float, float]:
    """Effective susceptibilities (kappa_x, kappa_y) of the spheroid.

    kappa_i = (eps_r - 1) / (1 + L_i (eps_r - 1)); the induced polarization
    along field direction i is P_i = eps_0 kappa_i E_i inside the particle.
    For a prolate shape L_a < L_b, hence kappa_x > kappa_y and the long axis
    is the energetically preferred alignment.
    """
    la, lb = depolarization_factors(spec.eccentricity)
    chi = spec.eps_r - 1.0
    return chi / (1.0 + la * chi), chi / (1.0 + lb * chi)


def rotational_inertia(spec: NanoparticleSpec) -> float:
    """Moment of inertia about an axis through the center, transverse to r_a.

    I = 4 pi rho r_a r_b^2 (r_a^2 + r_b^2) / 15  =  m (r_a^2 + r_b^2) / 5.
    This is the inertia relevant for libration of the long axis.
    """
    return (
        4.0 * math.pi * spec.density * spec.r_a * spec.r_b**2
        * (spec.r_a**2 + spec.r_b**2) / 15.0
    )


def mode_parameters(spec: NanoparticleSpec, trap: TrapConfig) -> ModeParameters:
    """Librational-mode parameters for a particle in a given trap.

    Raises
    ------
    NoConfinementError
        For a spherical particle (kappa_x == kappa_y): the orientational
        potential is flat and omega_t is undefined.
    """
    kx, ky = susceptibilities(spec)
    if not kx > ky:
        raise NoConfinementError(
            "isotropic particle (kappa_x == kappa_y): no librational confinement"
        )
    inertia = rotational_inertia(spec)
    omega_t = math.sqrt(
        10.0 * trap.power * (kx - ky)
        / (math.pi * trap.waist**2 * C_LIGHT * spec.density * (spec.r_a**2 + spec.r_b**2))
    )
    eta = HBAR / (24.0 * inertia)
    theta0 = math.sqrt(2.0 * HBAR / (inertia * omega_t))
    j0 = math.sqrt(2.0 * inertia * HBAR * omega_t)
    return ModeParameters(
        inertia=inertia,
        kappa_x=kx,
        kappa_y=ky,
        omega_t=omega_t,
        eta=eta,
        theta0=theta0,
        J0=j0,
    )


def drive_amplitude(
    spec: NanoparticleSpec,
    trap: TrapConfig,
    power_ml: float,
    mode: ModeParameters | None = None,
) -> float:
    """Coherent drive amplitude Omega (rad/s) of a modulation beam of power ``power_ml`` (W).

    Omega = P_ml V (kappa_x - kappa_y) / (pi w0^2 c) * sqrt(2 / (hbar I omega_t)),

    linear in the modulation power P_ml; zero power gives Omega = 0.  The
    drive frequency does not enter.  ``mode`` may be passed to reuse
    precomputed mode parameters.
    """
    if not power_ml >= 0.0:
        raise ValueError(f"drive power must be >= 0, got {power_ml!r}")
    if mode is None:
        mode = mode_parameters(spec, trap)
    return (
        power_ml * spec.volume * (mode.kappa_x - mode.kappa_y)
        / (math.pi * trap.waist**2 * C_LIGHT)
        * math.sqrt(2.0 / (HBAR * mode.inertia * mode.omega_t))
    )


def gas_damping(
    pressure: float, damping_per_pascal: float = DEFAULT_DAMPING_PER_PASCAL
) -> float:
    """Librational damping rate gamma_b = damping_per_pascal * pressure (rad/s).

    The free-molecular-flow proportionality to the residual gas pressure
    (Pa); an explicitly given damping rate replaces this model altogether
    (see :func:`libration.config.load_config`).
    """
    if not pressure >= 0.0:
        raise ValueError(f"pressure must be >= 0, got {pressure!r}")
    if not damping_per_pascal >= 0.0:
        raise ValueError(f"damping per pascal must be >= 0, got {damping_per_pascal!r}")
    return damping_per_pascal * pressure


def thermal_occupancy(temperature: float, omega: float) -> float:
    """Bose-Einstein occupancy n_bar = 1 / (exp(hbar omega / kB T) - 1).

    Implemented with expm1 so the high-temperature limit kB T / (hbar omega)
    stays accurate (for the librational mode at room temperature n_bar ~ 1e6).
    Where hbar omega / kB T is too large for expm1 (above ~709, or kB T
    underflows), the mode is in its ground state and n_bar = 0.0.  Where it
    is so small (subnormal, or zero) that n_bar is beyond float range, a
    ``ValueError`` is raised.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature!r}")
    kt = K_B * temperature
    try:
        nbar = 1.0 / math.expm1(HBAR * omega / kt if kt > 0.0 else math.inf)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:  # hbar omega / kB T underflowed to zero
        nbar = math.inf
    if nbar == math.inf:
        raise ValueError(f"the thermal occupancy at temperature {temperature!r} K and "
                         f"omega {omega!r} rad/s is beyond float range")
    return nbar
