"""JSON run-configuration loading and validation for the command line.

Configs are plain JSON objects with ``particle``, ``trap`` and ``environment``
sections plus optional ``drive``, ``sweep``, ``ramp``, ``squeeze`` and
``derive`` sections, depending on the subcommand.  ``_SECTIONS`` is the one
list of each section's keys, with the kind and lower bound of each, and
``_section`` reads every section against it.  Three conventions are enforced
here so they hold everywhere downstream:

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
  and the checked grids ``SweepSettings.grid``, ``SqueezeSettings.t``,
  ``ScanSettings.grid`` and the up ramp's drives (not kept).

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

__all__ = ["ConfigError", "DriveSettings", "SweepSettings", "RampSettings", "SqueezeSettings",
           "ScanSettings", "RunConfig", "load_config"]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"config error at {path}: {message}")


def _mapping(obj, path: str, known) -> dict:
    """``obj``, a JSON object with no key outside ``known``."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(known)
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}; known keys: {sorted(known)}")
    return obj


def _is_finite_number(value) -> bool:
    """A finite JSON number: not a bool, NaN, Infinity or an integer beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Every key of every section, as (kind, minimum, strict): a value below the
# minimum, or at it when strict, is an error.  A kind is "number", "integer",
# "frequency" (given as <key>_hz or <key>_rad_s, read in rad/s), "flag"
# (true/false), "angles" (a number or a non-empty list of them; null counts as
# absent) or a tuple of the strings allowed.  Sections are read in this order.
_SECTIONS = {
    "environment": {
        "pressure_pa": ("number", 0.0, False), "temperature_k": ("number", 0.0, True),
        "gamma_b": ("frequency", 0.0, False), "damping_per_pascal_rad_s": ("number", 0.0, False),
    },
    "particle": {
        "material": (tuple(sorted(MATERIALS)), None, False),
        "density_kg_m3": ("number", 0.0, True), "eps_r": ("number", None, False),
        "r_a_m": ("number", 0.0, True), "r_b_m": ("number", 0.0, True),
        "eccentricity": ("number", 0.0, False),
    },
    "trap": {"power_w": ("number", 0.0, True), "waist_m": ("number", 0.0, True)},
    "drive": {
        "frequency": ("frequency", 0.0, True), "detuning": ("frequency", None, False),
        "power_w": ("number", 0.0, False), "amplitude": ("frequency", 0.0, False),
    },
    "sweep": {
        "amplitude_min": ("frequency", 0.0, False), "amplitude_max": ("frequency", 0.0, False),
        "points": ("integer", 2, False),
    },
    "ramp": {
        "amplitude_start": ("frequency", 0.0, False), "amplitude_stop": ("frequency", 0.0, False),
        "steps": ("integer", 3, False), "dwell_s": ("number", 0.0, True),
        "tolerance": ("number", 0.0, True),
    },
    "squeeze": {
        "r": ("number", 0.0, False), "from_drive": ("flag", None, False),
        "phi_rad": ("angles", None, False), "nbar": ("number", 0.0, False),
        "thermal": ("flag", None, False), "t_max_s": ("number", 0.0, True),
        "points": ("integer", 2, False), "include_damping": ("flag", None, False),
        "branch": (("upper", "lower"), None, False),
    },
    "derive": {
        "scan": (("r_a_m", "eccentricity"), None, False),
        "min": ("number", None, False),  # >= 0, and > 0 in an r_a_m scan: see _parse_scan
        "max": ("number", None, False), "points": ("integer", 2, False),
    },
}


def _section(root: dict, name: str) -> dict:
    """The checked values of section ``name``, by ``_SECTIONS`` key; None where absent."""
    section = _mapping(root[name], name, [
        key + unit for key, (kind, _, _) in _SECTIONS[name].items()
        for unit in (("_hz", "_rad_s") if kind == "frequency" else ("",))])
    values = {}
    for key, (kind, minimum, strict) in _SECTIONS[name].items():
        hz, rad = f"{key}_hz", f"{key}_rad_s"
        if kind == "frequency" and hz in section and rad in section:
            _fail(name, f"give exactly one of '{hz}' or '{rad}', not both")
        given = key if kind != "frequency" else hz if hz in section else rad
        value = values[key] = section.get(given)
        path = f"{name}.{given}"
        if value is None and (given not in section or kind == "angles"):
            continue
        if isinstance(kind, tuple) and not (isinstance(value, str) and value in kind):
            _fail(path, _choices(kind, value))
        elif kind == "flag" and not isinstance(value, bool):
            _fail(path, f"expected true/false, got {value!r}")
        elif kind == "angles":
            angles = value if isinstance(value, list) else [value]
            if not angles or not all(_is_finite_number(v) for v in angles):
                _fail(path, f"expected a finite number or non-empty list of them, got {value!r}")
            values[key] = tuple(float(v) for v in angles)
        elif kind == "integer" and (isinstance(value, bool) or not isinstance(value, int)):
            _fail(path, f"expected an integer, got {value!r}")
        elif kind in ("number", "frequency", "integer") and not _is_finite_number(value):
            expected = "an integer within float range" if kind == "integer" else "a finite number"
            _fail(path, f"expected {expected}, got {value!r}")
        elif kind in ("number", "frequency"):
            value = values[key] = float(value) * (TWO_PI if given.endswith("_hz") else 1.0)
            if not math.isfinite(value):
                _fail(path, f"{section[given]!r} Hz overflows float range in rad/s")
        if minimum is not None and kind == "frequency":
            _bound(name, f"'{key}' must be", value, minimum, strict, " rad/s")
        elif minimum is not None:
            _bound(path, "must be", value, minimum, strict)
    return values


def _bound(path: str, what: str, value, minimum, strict: bool, unit: str = "") -> None:
    """Fail unless ``value`` exceeds ``minimum``, or equals it when not ``strict``."""
    if not (value > minimum if strict else value >= minimum):
        _fail(path, f"{what} {'>' if strict else '>='} {minimum}{unit}, got {value}")


def _choices(kind: tuple, value) -> str:
    return f"expected one of {list(kind)}, got {value!r}"


def _need(values: dict, name: str, *keys: str) -> list:
    """The values of ``keys`` of section ``name``, each of which must be given."""
    for key in keys:
        if values[key] is None:
            kind = _SECTIONS[name][key][0]
            if kind == "frequency":
                _fail(name, f"missing frequency key '{key}_hz' or '{key}_rad_s'")
            if isinstance(kind, tuple):  # as a choice not among them
                _fail(f"{name}.{key}", _choices(kind, None))
            _fail(name, f"missing required key '{key}'")
    return [values[key] for key in keys]


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


def _parse_particle(v: dict) -> NanoparticleSpec:
    preset = MATERIALS.get(v["material"])
    if preset is None:
        density, eps_r = _need(v, "particle", "density_kg_m3", "eps_r")
    else:
        density = preset.density if v["density_kg_m3"] is None else v["density_kg_m3"]
        eps_r = preset.eps_r if v["eps_r"] is None else v["eps_r"]
    (r_a,) = _need(v, "particle", "r_a_m")
    if (v["r_b_m"] is None) == (v["eccentricity"] is None):
        _fail("particle", "give exactly one of 'r_b_m' or 'eccentricity'")
    try:
        if v["r_b_m"] is not None:
            return NanoparticleSpec(r_a=r_a, r_b=v["r_b_m"], density=density, eps_r=eps_r)
        return NanoparticleSpec.from_eccentricity(r_a, v["eccentricity"], density, eps_r)
    except ValueError as exc:
        raise ConfigError(f"config error at particle: {exc}") from exc


def _parse_drive(v: dict) -> dict:
    """The drive section's values, with one frequency or detuning and at most one strength."""
    if (v["frequency"] is None) == (v["detuning"] is None):
        _fail("drive", "give exactly one of a drive 'frequency' or a 'detuning'")
    if v["power_w"] is not None and v["amplitude"] is not None:
        _fail("drive", "give at most one of 'power_w' or a direct 'amplitude'")
    return v


def _resolve_drive(v: dict, particle: NanoparticleSpec, trap: TrapConfig,
                   mode: ModeParameters) -> DriveSettings:
    """The drive of ``_parse_drive``'s values at the particle's mode."""
    freq, det, power, amplitude = v["frequency"], v["detuning"], v["power_w"], v["amplitude"]
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


def _parse_sweep(v: dict) -> SweepSettings:
    lo, hi = _need(v, "sweep", "amplitude_min", "amplitude_max")
    if not hi > lo:
        _fail("sweep", f"amplitude_max must exceed amplitude_min, got [{lo}, {hi}] rad/s")
    (points,) = _need(v, "sweep", "points")
    return SweepSettings(_checked_linspace(lo, hi, points, "sweep",
                                           "amplitude_min_*, amplitude_max_* and points"))


def _parse_ramp(v: dict, gamma_b: float) -> RampSettings:
    start, stop = _need(v, "ramp", "amplitude_start", "amplitude_stop")
    if not stop > start:
        _fail("ramp", "amplitude_stop must exceed amplitude_start (the ramp runs up, then back down)")
    (steps,) = _need(v, "ramp", "steps")
    _checked_linspace(start, stop, steps, "ramp", "amplitude_start_*, amplitude_stop_* and steps")
    dwell = v["dwell_s"]
    if dwell is None:
        if not gamma_b > 0.0:
            raise ConfigError("config error: ramp.dwell_s is required when gamma_b is zero "
                              "(no damping time to set the quasi-static dwell)")
        dwell = DWELL_DAMPING_CYCLES / gamma_b
        if not math.isfinite(dwell):
            _fail("ramp", f"the default dwell {DWELL_DAMPING_CYCLES:g} / gamma_b overflows "
                  f"float range at gamma_b = {gamma_b!r} rad/s; give 'dwell_s'")
    return RampSettings(start, stop, steps, dwell,
                        1e-8 if v["tolerance"] is None else v["tolerance"])


def _parse_squeeze(v: dict) -> SqueezeSettings:
    """The squeeze settings; ``load_config`` sets ``nbar`` when ``thermal`` is true."""
    from_drive = v["from_drive"] is True
    if not from_drive:
        _need(v, "squeeze", "r")
    elif v["r"] is not None:
        _fail("squeeze", "give either 'r' or 'from_drive', not both")
    if v["phi_rad"] is None and not from_drive:
        _fail("squeeze", "missing 'phi_rad' (a number or list of numbers)")
    if v["thermal"] and v["nbar"] is not None:
        _fail("squeeze", "give either 'nbar' or 'thermal', not both")
    (t_max,) = _need(v, "squeeze", "t_max_s")
    t = _checked_linspace(0.0, t_max, v["points"] or 400, "squeeze", "t_max_s and points")
    return SqueezeSettings(from_drive, v["r"], v["phi_rad"] or (),
                           0.0 if v["nbar"] is None else v["nbar"], t,
                           v["include_damping"] is True, v["branch"] or "upper")


def _parse_scan(v: dict) -> ScanSettings:
    axis, lo, hi = _need(v, "derive", "scan", "min", "max")
    _bound("derive.min", "must be", lo, 0.0, axis == "r_a_m")  # a radius, or an eccentricity
    if not hi > lo:
        _fail("derive", f"max must exceed min, got [{lo}, {hi}]")
    if axis == "eccentricity" and hi >= 1.0:
        _fail("derive.max", f"eccentricity scan must stay below 1, got {hi}")
    (points,) = _need(v, "derive", "points")
    return ScanSettings(axis, _checked_linspace(lo, hi, points, "derive", "min, max and points"))


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
    root = _mapping(raw, "(root)", _SECTIONS)
    for name in ("particle", "trap", "environment"):
        if name not in root:
            _fail("(root)", f"missing required section '{name}'")
    values = {name: _section(root, name) for name in _SECTIONS if name in root}
    env = values["environment"]
    particle = _parse_particle(values["particle"])
    trap = TrapConfig(*_need(values["trap"], "trap", "power_w", "waist_m"))
    pressure, temperature = _need(env, "environment", "pressure_pa", "temperature_k")
    gamma_b = env["gamma_b"]
    if gamma_b is None:
        damping = env["damping_per_pascal_rad_s"]
        gamma_b = gas_damping(pressure, DEFAULT_DAMPING_PER_PASCAL if damping is None else damping)
        if not math.isfinite(gamma_b):
            _fail("environment", "damping_per_pascal_rad_s * pressure_pa overflows float range")
    drive, sweep, ramp, squeeze, scan = (
        parse(values[name]) if name in values else None
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
        drive = _resolve_drive(drive, particle, trap, mode)
        _check_cubic_range(root, drive, gamma_b, mode.eta, sweep)
        if drive.amplitude is None and squeeze is not None and squeeze.from_drive:
            raise ConfigError("config error: squeeze.from_drive needs a drive amplitude "
                              "('power_w' or 'amplitude_*') in the drive section")
    if squeeze is not None and values["squeeze"]["thermal"]:
        squeeze = squeeze._replace(nbar=nbar_thermal)
    if squeeze is not None and squeeze.r is not None and drive is not None:
        lam = drive.delta_ml + 24.0 * mode.eta * squeeze.r * squeeze.r  # as squeeze_params
        if not math.isfinite(lam):
            _fail("squeeze", f"r = {squeeze.r!r} puts the fluctuation detuning "
                  "lam = delta_ml + 24 eta r^2 beyond float range")
    return RunConfig(particle, trap, mode, gamma_b, temperature, drive=drive, sweep=sweep,
                     ramp=ramp, squeeze=squeeze, scan=scan)
