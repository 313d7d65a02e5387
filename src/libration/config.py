"""JSON run-configuration loading and validation for the command line.

Configs are plain JSON objects with ``particle``, ``trap`` and ``environment``
sections plus optional ``drive``, ``sweep``, ``ramp``, ``squeeze`` and
``derive`` sections, depending on the subcommand.  Three conventions are
enforced here so they hold everywhere downstream:

* every frequency-valued key carries an explicit unit suffix, ``_hz`` or
  ``_rad_s`` (the loader multiplies ``_hz`` values by 2 pi, and the rest of
  the package speaks rad/s only);
* material presets ("diamond", "silica") are expanded before validation, so
  explicit ``density_kg_m3`` / ``eps_r`` values may override preset fields;
* the working point is resolved here, once, and the commands read only the
  results: ``RunConfig.gamma_b`` (an explicit ``gamma_b_*``, else
  ``damping_per_pascal_rad_s * pressure_pa``, by default
  :data:`~libration.model.DEFAULT_DAMPING_PER_PASCAL`), ``RunConfig.mode``
  (``mode_parameters(particle, trap)``), ``RunConfig.drive`` (``omega_ml`` and
  ``delta_ml`` from a frequency or a detuning, ``amplitude`` from
  ``amplitude_*`` or ``drive_amplitude(..., power_w, mode)``, else None) and
  ``SqueezeSettings.nbar`` (the thermal occupancy at omega_t when ``thermal``
  is set, else ``nbar``, else 0), ``RampSettings.dwell`` (``dwell_s``, else
  ``DWELL_DAMPING_CYCLES / gamma_b``), ``ScanSettings.modes`` (the mode at
  each value of the derive scan's ``grid``; none when a value is a sphere),
  and the checked grids ``SweepSettings.grid`` and ``SqueezeSettings.t``.

Validation failures raise :class:`ConfigError` with the dotted path of the
offending key.  The mode is derived after every section is valid, so a config
error comes before the ``NoConfinementError`` of a spherical particle.  A mode
beyond float range is a config error that names the particle when its moment
of inertia is beyond float range, else the trap (``derive`` for a scan value);
so is a ``squeeze.r`` whose fluctuation detuning is beyond float range, and a
temperature whose thermal occupancy at omega_t is, and a
``squeeze.from_drive`` whose drive gives no amplitude.  The settings and the
resolved config are ``NamedTuple`` records.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from libration.model import (
    DEFAULT_DAMPING_PER_PASCAL,
    DWELL_DAMPING_CYCLES,
    MATERIALS,
    ModeParameters,
    NanoparticleSpec,
    NoConfinementError,
    TrapConfig,
    drive_amplitude,
    gas_damping,
    mode_parameters,
    rotational_inertia,
    thermal_occupancy,
)
from libration.steadystate import _linspace, _range_fault

__all__ = [
    "ConfigError",
    "DriveSettings",
    "SweepSettings",
    "RampSettings",
    "SqueezeSettings",
    "ScanSettings",
    "RunConfig",
    "load_config",
]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"config error at {path}: {message}")


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_known(section: dict, path: str, known: set[str]) -> None:
    unknown = set(section) - known
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}; known keys: {sorted(known)}")


def _is_finite_number(value) -> bool:
    """A JSON number that is a finite float: not a bool, NaN, Infinity or an
    integer beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(section: dict, path: str, key: str, *, required: bool = True,
            minimum: float | None = None, strict: bool = False) -> float | None:
    if key not in section:
        if required:
            _fail(path, f"missing required key '{key}'")
        return None
    value = section[key]
    if not _is_finite_number(value):
        _fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
    value = float(value)
    if minimum is not None and not (value > minimum if strict else value >= minimum):
        _fail(f"{path}.{key}", f"must be {'>' if strict else '>='} {minimum}, got {value}")
    return value


def _integer(section: dict, path: str, key: str, *, required: bool = True,
             minimum: int = 1) -> int | None:
    if key not in section:
        if required:
            _fail(path, f"missing required key '{key}'")
        return None
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    if not _is_finite_number(value):
        _fail(f"{path}.{key}", f"expected an integer within float range, got {value!r}")
    if value < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _frequency(section: dict, path: str, base: str, *, required: bool = True,
               minimum: float | None = None, strict: bool = False) -> float | None:
    """Fetch a frequency given as either <base>_hz or <base>_rad_s, in rad/s."""
    key_hz, key_rad = f"{base}_hz", f"{base}_rad_s"
    if key_hz in section and key_rad in section:
        _fail(path, f"give exactly one of '{key_hz}' or '{key_rad}', not both")
    if key_hz in section:
        value = _number(section, path, key_hz) * TWO_PI
        if not math.isfinite(value):
            _fail(f"{path}.{key_hz}", f"{section[key_hz]!r} Hz overflows float range in rad/s")
    elif key_rad in section:
        value = _number(section, path, key_rad)
    else:
        if required:
            _fail(path, f"missing frequency key '{key_hz}' or '{key_rad}'")
        return None
    if minimum is not None and not (value > minimum if strict else value >= minimum):
        _fail(path, f"'{base}' must be {'>' if strict else '>='} {minimum} rad/s, got {value}")
    return value


class DriveSettings(NamedTuple):
    """The resolved drive, in rad/s; ``amplitude`` is None when no strength is given."""

    omega_ml: float
    delta_ml: float  # omega_ml - omega_t
    amplitude: float | None


class SweepSettings(NamedTuple):
    grid: tuple[float, ...]  # drive amplitudes, rad/s: _linspace(min, max, points)


class RampSettings(NamedTuple):
    amplitude_start: float
    amplitude_stop: float
    steps: int
    dwell: float  # s per step: dwell_s, else DWELL_DAMPING_CYCLES / gamma_b
    tolerance: float


class SqueezeSettings(NamedTuple):
    from_drive: bool
    r: float | None
    phi_rad: tuple[float, ...]
    nbar: float  # initial (and oracle bath) occupation
    t: tuple[float, ...]  # sample times, s: _linspace(0, t_max_s, points)
    include_damping: bool
    branch: str


class ScanSettings(NamedTuple):
    axis: str  # "r_a_m" | "eccentricity"
    grid: tuple[float, ...]  # _linspace(min, max, points)
    modes: tuple[ModeParameters, ...] = ()  # one per grid value; none if one is a sphere


class RunConfig(NamedTuple):
    particle: NanoparticleSpec
    trap: TrapConfig
    mode: ModeParameters
    gamma_b: float  # rad/s, resolved from the environment section
    temperature: float
    drive: DriveSettings | None = None
    sweep: SweepSettings | None = None
    ramp: RampSettings | None = None
    squeeze: SqueezeSettings | None = None
    scan: ScanSettings | None = None


def _parse_particle(section: dict) -> NanoparticleSpec:
    path = "particle"
    _check_known(
        section, path,
        {"material", "density_kg_m3", "eps_r", "r_a_m", "r_b_m", "eccentricity"},
    )
    density = eps_r = None
    if "material" in section:
        name = section["material"]
        if name not in MATERIALS:
            _fail(f"{path}.material", f"unknown material {name!r}; presets: {sorted(MATERIALS)}")
        density = MATERIALS[name].density
        eps_r = MATERIALS[name].eps_r
    explicit_density = _number(section, path, "density_kg_m3", required=density is None,
                               minimum=0.0, strict=True)
    if explicit_density is not None:
        density = explicit_density
    explicit_eps = _number(section, path, "eps_r", required=eps_r is None)
    if explicit_eps is not None:
        eps_r = explicit_eps
    r_a = _number(section, path, "r_a_m", minimum=0.0, strict=True)
    if ("r_b_m" in section) == ("eccentricity" in section):
        _fail(path, "give exactly one of 'r_b_m' or 'eccentricity'")
    try:
        if "r_b_m" in section:
            r_b = _number(section, path, "r_b_m", minimum=0.0, strict=True)
            return NanoparticleSpec(r_a=r_a, r_b=r_b, density=density, eps_r=eps_r)
        ecc = _number(section, path, "eccentricity", minimum=0.0)
        return NanoparticleSpec.from_eccentricity(r_a, ecc, density, eps_r)
    except ValueError as exc:
        raise ConfigError(f"config error at {path}: {exc}") from exc


def _parse_trap(section: dict) -> TrapConfig:
    _check_known(section, "trap", {"power_w", "waist_m"})
    return TrapConfig(
        power=_number(section, "trap", "power_w", minimum=0.0, strict=True),
        waist=_number(section, "trap", "waist_m", minimum=0.0, strict=True),
    )


def _parse_drive(section: dict) -> tuple[float | None, float | None, float | None, float | None]:
    """The validated (frequency, detuning, power_w, amplitude) of the drive."""
    path = "drive"
    _check_known(section, path, {
        "frequency_hz", "frequency_rad_s", "detuning_hz", "detuning_rad_s",
        "power_w", "amplitude_hz", "amplitude_rad_s",
    })
    freq = _frequency(section, path, "frequency", required=False, minimum=0.0, strict=True)
    det = _frequency(section, path, "detuning", required=False)
    if (freq is None) == (det is None):
        _fail(path, "give exactly one of a drive 'frequency' or a 'detuning'")
    power = _number(section, path, "power_w", required=False, minimum=0.0)
    amplitude = _frequency(section, path, "amplitude", required=False, minimum=0.0)
    if power is not None and amplitude is not None:
        _fail(path, "give at most one of 'power_w' or a direct 'amplitude'")
    return freq, det, power, amplitude


def _resolve_drive(freq, det, power, amplitude, particle: NanoparticleSpec, trap: TrapConfig,
                   mode: ModeParameters) -> DriveSettings:
    """The drive of ``_parse_drive``'s values at the particle's mode."""
    if freq is not None:
        omega_ml, delta_ml = freq, freq - mode.omega_t
    else:
        omega_ml, delta_ml = mode.omega_t + det, det
        if not omega_ml > 0.0:
            _fail("drive", f"detuning {det!r} rad/s puts the drive frequency omega_ml = "
                  f"omega_t + detuning = {omega_ml!r} rad/s at or below zero "
                  f"(omega_t = {mode.omega_t!r} rad/s)")
    if power is not None:
        amplitude = drive_amplitude(particle, trap, power, mode)
        if not math.isfinite(amplitude):
            _fail("drive", f"the drive amplitude from power_w {power!r} W overflows float range")
    return DriveSettings(omega_ml, delta_ml, amplitude)


def _check_cubic_range(root: dict, drive: DriveSettings, gamma_b: float, eta: float,
                       sweep: SweepSettings | None) -> None:
    """Reject a working point whose steady-state cubic is beyond float range.

    It is checked at the larger top amplitude of the drive section, which
    ``squeeze`` solves at, and of the sweep; the error names the key at fault.
    """
    amplitude, section, prefixes = max(
        (drive.amplitude or 0.0, "drive", ("amplitude", "power")),
        (sweep.grid[-1] if sweep else 0.0, "sweep", ("amplitude_max",)))
    fault = _range_fault("delta_ml", drive.delta_ml + 12.0 * eta, gamma_b, eta, amplitude)
    if fault is not None:
        section, prefixes = {"delta_ml": ("drive", ("frequency", "detuning")),
                             "gamma_b": ("environment", ("gamma_b", "pressure")),
                             "eta": ("particle", ())}.get(fault, (section, prefixes))
        keys = [k for pre in prefixes for k in root[section] if k.startswith(pre)]
        _fail(".".join([section] + keys[:1]), "the steady-state cubic at this value is "
              f"beyond float range (eta = {eta!r} rad/s)")


def _checked_linspace(lo: float, hi: float, n: int, path: str, keys: str) -> tuple[float, ...]:
    """``_linspace(lo, hi, n)``; a config error names ``keys`` if points collide."""
    grid = _linspace(lo, hi, n)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        _fail(path, f"{keys} give a grid whose points collide; widen the span or use fewer points")
    return tuple(grid)


def _parse_sweep(section: dict) -> SweepSettings:
    path = "sweep"
    _check_known(section, path, {
        "amplitude_min_hz", "amplitude_min_rad_s",
        "amplitude_max_hz", "amplitude_max_rad_s", "points",
    })
    lo = _frequency(section, path, "amplitude_min", minimum=0.0)
    hi = _frequency(section, path, "amplitude_max", minimum=0.0)
    if not hi > lo:
        _fail(path, f"amplitude_max must exceed amplitude_min, got [{lo}, {hi}] rad/s")
    points = _integer(section, path, "points", minimum=2)
    return SweepSettings(_checked_linspace(lo, hi, points, path,
                                           "amplitude_min_*, amplitude_max_* and points"))


def _parse_ramp(section: dict, gamma_b: float) -> RampSettings:
    path = "ramp"
    _check_known(section, path, {
        "amplitude_start_hz", "amplitude_start_rad_s",
        "amplitude_stop_hz", "amplitude_stop_rad_s",
        "steps", "dwell_s", "tolerance",
    })
    start = _frequency(section, path, "amplitude_start", minimum=0.0)
    stop = _frequency(section, path, "amplitude_stop", minimum=0.0)
    if not stop > start:
        _fail(path, "amplitude_stop must exceed amplitude_start (the ramp runs up, then back down)")
    steps = _integer(section, path, "steps", minimum=3)
    dwell = _number(section, path, "dwell_s", required=False, minimum=0.0, strict=True)
    if dwell is None:
        if not gamma_b > 0.0:
            raise ConfigError("config error: ramp.dwell_s is required when gamma_b is zero "
                              "(no damping time to set the quasi-static dwell)")
        dwell = DWELL_DAMPING_CYCLES / gamma_b
        if not math.isfinite(dwell):
            _fail(path, f"the default dwell {DWELL_DAMPING_CYCLES:g} / gamma_b overflows "
                  f"float range at gamma_b = {gamma_b!r} rad/s; give 'dwell_s'")
    tol = _number(section, path, "tolerance", required=False, minimum=0.0, strict=True)
    return RampSettings(start, stop, steps, dwell, tol if tol is not None else 1e-8)


def _parse_squeeze(section: dict) -> SqueezeSettings:
    """The squeeze settings; ``load_config`` sets ``nbar`` when ``thermal`` is true."""
    path = "squeeze"
    _check_known(section, path, {
        "r", "from_drive", "phi_rad", "nbar", "thermal",
        "t_max_s", "points", "include_damping", "branch",
    })
    from_drive = section.get("from_drive", False)
    if not isinstance(from_drive, bool):
        _fail(f"{path}.from_drive", f"expected true/false, got {from_drive!r}")
    r = _number(section, path, "r", required=not from_drive, minimum=0.0)
    if from_drive and r is not None:
        _fail(path, "give either 'r' or 'from_drive', not both")
    phi_raw = section.get("phi_rad")
    if phi_raw is None:
        if not from_drive:
            _fail(path, "missing 'phi_rad' (a number or list of numbers)")
        phis: tuple[float, ...] = ()
    else:
        phi_list = phi_raw if isinstance(phi_raw, list) else [phi_raw]
        if not phi_list or not all(_is_finite_number(v) for v in phi_list):
            _fail(f"{path}.phi_rad",
                  f"expected a finite number or non-empty list of them, got {phi_raw!r}")
        phis = tuple(float(v) for v in phi_list)
    thermal = section.get("thermal", False)
    if not isinstance(thermal, bool):
        _fail(f"{path}.thermal", f"expected true/false, got {thermal!r}")
    nbar = _number(section, path, "nbar", required=False, minimum=0.0)
    if thermal and nbar is not None:
        _fail(path, "give either 'nbar' or 'thermal', not both")
    include_damping = section.get("include_damping", False)
    if not isinstance(include_damping, bool):
        _fail(f"{path}.include_damping", f"expected true/false, got {include_damping!r}")
    branch = section.get("branch", "upper")
    if branch not in ("upper", "lower"):
        _fail(f"{path}.branch", f"expected 'upper' or 'lower', got {branch!r}")
    return SqueezeSettings(
        from_drive=from_drive,
        r=r,
        phi_rad=phis,
        nbar=0.0 if nbar is None else nbar,
        t=_checked_linspace(0.0, _number(section, path, "t_max_s", minimum=0.0, strict=True),
                            _integer(section, path, "points", required=False, minimum=2) or 400,
                            path, "t_max_s and points"),
        include_damping=include_damping,
        branch=branch,
    )


def _parse_scan(section: dict) -> ScanSettings:
    path = "derive"
    _check_known(section, path, {"scan", "min", "max", "points"})
    axis = section.get("scan")
    if axis not in ("r_a_m", "eccentricity"):
        _fail(f"{path}.scan", f"expected 'r_a_m' or 'eccentricity', got {axis!r}")
    lo = _number(section, path, "min", minimum=0.0, strict=axis == "r_a_m")
    hi = _number(section, path, "max")
    if not hi > lo:
        _fail(path, f"max must exceed min, got [{lo}, {hi}]")
    if axis == "eccentricity" and hi >= 1.0:
        _fail(f"{path}.max", f"eccentricity scan must stay below 1, got {hi}")
    points = _integer(section, path, "points", minimum=2)
    return ScanSettings(axis, tuple(_linspace(lo, hi, points)))


def load_config(path: str | Path) -> RunConfig:
    """Load, validate, and resolve a JSON run configuration."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except OSError as exc:  # a directory, a file without read permission
        raise ConfigError(f"config error: cannot read {p} ({exc.strerror})") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config error: {p} is not valid JSON ({exc})") from exc
    root = _require_mapping(raw, "(root)")
    _check_known(root, "(root)", {
        "particle", "trap", "environment", "drive", "sweep", "ramp", "squeeze", "derive",
    })
    for name in ("particle", "trap", "environment"):
        if name not in root:
            _fail("(root)", f"missing required section '{name}'")
    env = _require_mapping(root["environment"], "environment")
    _check_known(env, "environment", {
        "pressure_pa", "temperature_k", "gamma_b_hz", "gamma_b_rad_s",
        "damping_per_pascal_rad_s",
    })
    damping = _number(env, "environment", "damping_per_pascal_rad_s",
                      required=False, minimum=0.0)
    particle = _parse_particle(_require_mapping(root["particle"], "particle"))
    trap = _parse_trap(_require_mapping(root["trap"], "trap"))
    pressure = _number(env, "environment", "pressure_pa", minimum=0.0)
    temperature = _number(env, "environment", "temperature_k", minimum=0.0, strict=True)
    gamma_b = _frequency(env, "environment", "gamma_b", required=False, minimum=0.0)
    if gamma_b is None:
        gamma_b = gas_damping(pressure, DEFAULT_DAMPING_PER_PASCAL if damping is None else damping)
        if not math.isfinite(gamma_b):
            _fail("environment", "damping_per_pascal_rad_s * pressure_pa overflows float range")
    drive, sweep, ramp, squeeze, scan = (
        parse(_require_mapping(root[name], name)) if name in root else None
        for name, parse in (("drive", _parse_drive), ("sweep", _parse_sweep),
                            ("ramp", lambda ramp: _parse_ramp(ramp, gamma_b)),
                            ("squeeze", _parse_squeeze), ("derive", _parse_scan))
    )
    try:
        mode = mode_parameters(particle, trap)
    except NoConfinementError:
        raise
    except (ArithmeticError, ValueError):  # an overflow, or a mode beyond float range
        try:
            inertia_ok = 0.0 < rotational_inertia(particle) < math.inf
        except OverflowError:
            inertia_ok = False
        if inertia_ok:
            _fail("trap", "the particle's librational mode in this trap is beyond float range")
        _fail("particle", "its moment of inertia is beyond float range")
    if scan is not None:
        modes, by_r_a = [], scan.axis == "r_a_m"
        for value in scan.grid:
            r_a, ecc = (value, particle.eccentricity) if by_r_a else (particle.r_a, value)
            try:
                modes.append(mode_parameters(NanoparticleSpec.from_eccentricity(
                    r_a, ecc, particle.density, particle.eps_r), trap))
            except NoConfinementError:  # eccentricity 0 is a sphere: derive reports it
                modes = []
                break
            except (ArithmeticError, ValueError):  # as above, or r_b underflowing to 0
                _fail("derive", f"the librational mode at {scan.axis} = {value!r} "
                      "is beyond float range")
        scan = scan._replace(modes=tuple(modes))
    try:
        nbar_thermal = thermal_occupancy(temperature, mode.omega_t)
    except ValueError as exc:
        _fail("environment.temperature_k", str(exc))
    if drive is not None:
        drive = _resolve_drive(*drive, particle, trap, mode)
        _check_cubic_range(root, drive, gamma_b, mode.eta, sweep)
        if drive.amplitude is None and squeeze is not None and squeeze.from_drive:
            raise ConfigError("config error: squeeze.from_drive needs a drive amplitude "
                              "('power_w' or 'amplitude_*') in the drive section")
    if squeeze is not None and root["squeeze"].get("thermal", False):
        squeeze = squeeze._replace(nbar=nbar_thermal)
    if squeeze is not None and squeeze.r is not None and drive is not None:
        lam = drive.delta_ml + 24.0 * mode.eta * squeeze.r * squeeze.r  # as squeeze_params
        if not math.isfinite(lam):
            _fail("squeeze", f"r = {squeeze.r!r} puts the fluctuation detuning "
                  "lam = delta_ml + 24 eta r^2 beyond float range")
    return RunConfig(particle, trap, mode, gamma_b, temperature, drive=drive, sweep=sweep,
                     ramp=ramp, squeeze=squeeze, scan=scan)
