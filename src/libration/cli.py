"""Command-line entry point.

Subcommands: ``derive`` (mode numbers from a particle/trap config),
``bistability`` (steady branches over a drive-amplitude grid), ``hysteresis``
(quasi-static up/down ramp pair), ``squeeze`` (variance traces, closed form
next to the moment-equation reference).  Exit codes: 0 success, 1 config
error (an unusable ``--out`` too), 2 numerical failure.  All outputs are
deterministic for a fixed config.  ``_TABLES`` declares every CSV column once,
in order, and which frequencies ``_write_table`` follows by a twin in Hz.
Grids and preconditions are checked in ``load_config``, and the commands
take its grids as built (``hysteresis`` ramps over ``RampSettings.grid``).
A command's own config error is a missing section, which ``_COMMANDS``
names.  A run warning is one ``warning:`` line on stderr, printed once.

``hysteresis`` imports ``dynamics``, and ``squeeze`` ``squeezing``, inside
the command.  No command loads numpy, whose import would be about half of a
cold ``squeeze``, ``derive`` or ``bistability`` run: ``squeeze`` evaluates its
traces through ``moment_oracle``, which is plain Python, and never calls
``squeezing``'s array API.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from libration import __version__
from libration.config import ConfigError, RunConfig, load_config
from libration.model import DWELL_DAMPING_CYCLES, NoConfinementError, thermal_occupancy
from libration.steadystate import (
    MeanFieldParams,
    ResonanceError,
    bistability_condition,
    solve_branches,
    sweep_diagram,
)
from libration.output import svg_line_chart, write_csv

TWO_PI = 2.0 * math.pi


class NumericalError(RuntimeError):
    """A solver or integrator failed to produce a usable result."""


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _or_nan(obj, field: str) -> float:
    """``obj.field``, or NaN when there is no fold or jump to read it from."""
    return math.nan if obj is None else getattr(obj, field)


# The columns of every CSV table the commands write, in order.  A (name,
# suffixes) column is a frequency in rad/s followed by its twin, value / 2 pi.
_HZ = ("_rad_s", "_hz")  # the summaries' suffixes
_OVER_2PI = ("", "_over_2pi")  # derive's, also of the twin rows of derive.csv
_TABLES = {
    "derive": ("quantity", "value", "unit"),
    "derive_scan": ("inertia", ("omega_t", _OVER_2PI), "eta", "eta_over_omega_t"),  # after the axis
    "bistability": ("omega_drive", "n", "delta_eff", "stable",
                    "re_eig1", "im_eig1", "re_eig2", "im_eig2"),
    "bistability_summary": (
        "regime", ("omega_ml", _HZ), ("omega_c", _HZ), ("window_width", _HZ),
        ("drive_up_fold", _HZ), ("drive_down_fold", _HZ),
        ("delta_eff_up_fold", _HZ), ("delta_eff_down_fold", _HZ), "n_up_fold", "n_down_fold"),
    "hysteresis_ramp": ("t", "re_beta", "im_beta", "n", "omega_applied"),
    "hysteresis_summary": (
        "direction", "jump_detected", ("jump_drive", _HZ), ("jump_delta_eff", _HZ),
        "jump_n_before", "jump_n_after",
        # no _hz twins yet: the benchmark's reference pins this header
        "static_fold_drive_rad_s", "static_fold_delta_eff_rad_s", "loop_area"),
    "squeeze_trace": ("t", "S_theta", "S_J", "squeezed_theta", "squeezed_J", "regime"),
}


def _write_table(path: Path, table: str, columns, lead: dict | None = None) -> None:
    """Write ``columns``, one per column of ``_TABLES[table]`` and in its order,
    after the ``lead`` columns, each frequency followed by its twin."""
    named = dict(lead or {})
    for column, values in zip(_TABLES[table], columns, strict=True):
        if isinstance(column, tuple):
            name, (rad, hz) = column
            named[name + rad] = values
            named[name + hz] = [value / TWO_PI for value in values]
        else:
            named[column] = values
    write_csv(path, named)


def cmd_derive(cfg: RunConfig, out: Path, fmt: str) -> None:
    spec, mode, drive = cfg.particle, cfg.mode, cfg.drive

    # (quantity, value, unit) rows of derive.csv, each with its report line
    # unless a shared line reports several
    lines = [f"{'r_a, r_b':28s} {_fmt(spec.r_a)} m, {_fmt(spec.r_b)} m "
             f"(eccentricity {_fmt(spec.eccentricity)})"]
    rows = [("r_a", spec.r_a, "m"), ("r_b", spec.r_b, "m"),
            ("eccentricity", spec.eccentricity, "1")]

    def put(name: str, value: float, unit: str, label: str | None = None) -> None:
        line = f"{label or name:28s} {_fmt(value)}"
        lines.append(line if unit == "1" else f"{line} {unit}")
        rows.append((name, value, unit))

    def freq(name: str, value: float, label: str | None = None) -> None:
        cycles = value / TWO_PI
        lines.append(f"{label or name:28s} {_fmt(value)} rad/s  ({_fmt(cycles)} Hz)")
        rows.extend(((name, value, "rad/s"), (name + _OVER_2PI[1], cycles, "Hz")))

    put("inertia", mode.inertia, "kg m^2")
    lines.append(f"{'kappa_x, kappa_y':28s} {_fmt(mode.kappa_x)}, {_fmt(mode.kappa_y)}")
    rows += [("kappa_x", mode.kappa_x, "1"), ("kappa_y", mode.kappa_y, "1")]
    freq("omega_t", mode.omega_t)
    put("period", TWO_PI / mode.omega_t, "s")
    freq("eta", mode.eta)
    put("eta_over_omega_t", mode.eta / mode.omega_t, "1", "eta / omega_t")
    put("theta0", mode.theta0, "rad")
    put("J0", mode.J0, "J s")
    freq("gamma_b", cfg.gamma_b)
    put("thermal_occupancy", thermal_occupancy(cfg.temperature, mode.omega_t), "1",
        "thermal occupancy")
    if drive is not None:
        freq("omega_ml", drive.omega_ml)
        freq("delta_ml", drive.delta_ml)
        bistable, omega_c = bistability_condition(
            drive.omega_ml, mode.omega_t, mode.eta, cfg.gamma_b
        )
        freq("omega_c", omega_c)
        lines.append(f"{'bistable at this drive freq':28s} {'yes' if bistable else 'no'}")
        rows.append(("bistable", float(bistable), "bool"))
        if drive.amplitude is not None:
            freq("drive_amplitude", drive.amplitude, "drive amplitude")
    print("\n".join(lines))
    _write_table(out / "derive.csv", "derive", zip(*rows))

    if cfg.scan is not None:
        axis, modes = cfg.scan.grid, cfg.scan.modes
        if not modes:
            raise NoConfinementError("the derive scan reaches a sphere, which has no confinement")
        _write_table(out / "derive_scan.csv", "derive_scan",
                     zip(*((m.inertia, m.omega_t, m.eta, m.eta / m.omega_t) for m in modes)),
                     lead={cfg.scan.axis: axis})
        if fmt == "csv+svg":
            svg_line_chart(
                out / "derive_scan.svg",
                [("eta (rad/s)", axis, [m.eta for m in modes])],
                title="Kerr shift per phonon vs " + cfg.scan.axis,
                x_label=cfg.scan.axis,
                y_label="eta (rad/s)",
                markers=True,
            )


def _diagram_series(diagram) -> list[tuple[str, list[float], list[float]]]:
    """S-curve plus unstable markers; the curve is monotone in occupation."""
    pts = sorted(
        ((branch.n, w, branch.stable) for w, branch in diagram.branches),
        key=lambda p: p[0],
    )
    series = [("steady branch", [p[1] for p in pts], [p[0] for p in pts])]
    unstable = [(w, n) for n, w, stable in pts if not stable]
    if unstable:
        # NaN separators render these as isolated markers, not a polyline.
        xs, ys = [], []
        for w, n in unstable:
            xs.extend([w, math.nan])
            ys.extend([n, math.nan])
        series.append(("unstable", xs, ys))
    return series


def cmd_bistability(cfg: RunConfig, out: Path, fmt: str) -> None:
    diagram = sweep_diagram(cfg.sweep.grid, cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta,
                            cfg.mode.omega_t)

    _write_table(out / "bistability.csv", "bistability", zip(*(
        (w, b.n, b.delta_eff, int(b.stable), b.eigenvalues[0].real, b.eigenvalues[0].imag,
         b.eigenvalues[1].real, b.eigenvalues[1].imag) for w, b in diagram.branches)))

    tp = diagram.turning
    _write_table(out / "bistability_summary.csv", "bistability_summary", [[value] for value in (
        diagram.regime, diagram.omega_ml, diagram.omega_c, diagram.window_width,
        *(_or_nan(tp, field) for field in ("drive_low", "drive_high", "delta_eff_low",
                                           "delta_eff_high", "n_low", "n_high")))])
    print(f"regime: {diagram.regime}")
    print(f"omega_c: {_fmt(diagram.omega_c)} rad/s ({_fmt(diagram.omega_c / TWO_PI)} Hz)")
    if tp is not None:
        print(f"up-jump fold:   Omega = {_fmt(tp.drive_low)} rad/s, "
              f"delta_eff = {_fmt(tp.delta_eff_low)} rad/s")
        print(f"down-jump fold: Omega = {_fmt(tp.drive_high)} rad/s, "
              f"delta_eff = {_fmt(tp.delta_eff_high)} rad/s")
        print(f"window width: {_fmt(diagram.window_width)} rad/s")
    if fmt == "csv+svg":
        svg_line_chart(
            out / "bistability.svg",
            _diagram_series(diagram),
            title="Steady occupation vs drive amplitude",
            x_label="drive amplitude (rad/s)",
            y_label="occupation n",
        )


def cmd_hysteresis(cfg: RunConfig, out: Path, fmt: str) -> None:
    from libration.dynamics import hysteresis_sweep

    ramp = cfg.ramp
    if cfg.gamma_b > 0.0 and ramp.dwell * cfg.gamma_b < 0.5 * DWELL_DAMPING_CYCLES:
        print(f"warning: dwell*gamma_b = {ramp.dwell * cfg.gamma_b:.2f} < "
              f"{0.5 * DWELL_DAMPING_CYCLES}: sweep is not quasi-static", file=sys.stderr)
    result = hysteresis_sweep(cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta, ramp.grid,
                              ramp.dwell, tol=ramp.tolerance)
    for sweep in (result.up, result.down):
        if not sweep.trajectory.complete:
            raise NumericalError(f"{sweep.direction}-sweep integration failed")
        tr = sweep.trajectory
        _write_table(out / f"hysteresis_{sweep.direction}.csv", "hysteresis_ramp", (
            tr.t, [b.real for b in tr.beta], [b.imag for b in tr.beta], tr.n, tr.omega_applied))

    tp = result.up.turning
    rows = []
    for sweep, side in ((result.up, "low"), (result.down, "high")):
        jump = sweep.jump
        rows.append((sweep.direction, int(jump is not None), _or_nan(jump, "drive"),
                     _or_nan(jump, "delta_eff_before"), _or_nan(jump, "n_before"),
                     _or_nan(jump, "n_after"), _or_nan(tp, f"drive_{side}"),
                     _or_nan(tp, f"delta_eff_{side}"), result.loop_area))
        if jump is None:
            print(f"{sweep.direction}-sweep: no jump detected")
        else:
            print(f"{sweep.direction}-sweep jump: Omega = {_fmt(jump.drive)} rad/s "
                  f"({_fmt(jump.drive / TWO_PI)} Hz), "
                  f"delta_eff(before) = {_fmt(jump.delta_eff_before)} rad/s")
    _write_table(out / "hysteresis_summary.csv", "hysteresis_summary", zip(*rows))
    print(f"loop area: {_fmt(result.loop_area)}")
    if fmt == "csv+svg":
        svg_line_chart(
            out / "hysteresis.svg",
            [
                ("up sweep", result.up.trajectory.omega_applied, result.up.trajectory.n),
                ("down sweep", result.down.trajectory.omega_applied, result.down.trajectory.n),
            ],
            title="Quasi-static amplitude ramp",
            x_label="drive amplitude (rad/s)",
            y_label="occupation n",
        )


def _squeeze_reference(cfg: RunConfig):
    """(r, default_phi) from the chosen steady branch of the driven mode."""
    drive = cfg.drive
    branches = solve_branches(MeanFieldParams(delta_ml=drive.delta_ml, Omega=drive.amplitude,
                                              gamma_b=cfg.gamma_b, eta=cfg.mode.eta))
    stable = [b for b in branches if b.stable]
    if not stable:
        raise NumericalError("no stable steady branch at the configured drive")
    branch = max(stable, key=lambda b: b.n) if cfg.squeeze.branch == "upper" \
        else min(stable, key=lambda b: b.n)
    return math.sqrt(branch.n), math.atan2(branch.beta0.imag, branch.beta0.real)


def cmd_squeeze(cfg: RunConfig, out: Path, fmt: str) -> None:
    from libration.squeezing import (exponential_angle, moment_oracle, squeeze_params,
                                     thermal_squeezing_check)

    sq, nbar, t = cfg.squeeze, cfg.squeeze.nbar, cfg.squeeze.t
    if sq.from_drive:
        r, phi_default = _squeeze_reference(cfg)
        phis = sq.phi_rad if sq.phi_rad else (phi_default,)
    else:
        r, phis = sq.r, sq.phi_rad
    oracle_gamma = cfg.gamma_b if sq.include_damping else 0.0

    # per phase (params, undamped trace, oracle trace), the last two the same
    # trace unless damped, all checked for overflow before any file is written
    runs = []
    try:
        for phi in phis:
            params = squeeze_params(cfg.drive.delta_ml, cfg.mode.eta, r, phi, nbar)
            closed = moment_oracle(params, t)
            oracle = (moment_oracle(params, t, gamma_b=oracle_gamma, nbar_bath=nbar)
                      if sq.include_damping else closed)
            runs.append((params, closed, oracle))
    except RuntimeError as exc:
        raise NumericalError(str(exc)) from exc
    first = runs[0][0]  # lam_p, and so the breathing period, is the same for all phi
    quarter = math.pi / (4.0 * abs(first.lambda_p)) if first.regime == "oscillatory" else 0.0
    if t[1] > quarter > 0.0:
        print(f"warning: the grid step {_fmt(t[1])} s exceeds a quarter breathing "
              f"period, pi/(4 |lam_p|) = {_fmt(quarter)} s: aliased traces", file=sys.stderr)

    def write_trace(path: Path, trace) -> None:
        _write_table(path, "squeeze_trace", (trace.t, trace.S_theta, trace.S_J,
                                             *thermal_squeezing_check(trace),
                                             [trace.regime] * len(t)))

    svg_series = []
    for idx, (params, closed, oracle) in enumerate(runs):
        suffix = "" if len(runs) == 1 else f"_{idx}"
        closed_csv, oracle_csv = (out / f"squeeze_{name}{suffix}.csv"
                                  for name in ("closed", "oracle"))
        write_trace(closed_csv, closed)
        if oracle is closed:  # undamped: the same trace, so the same bytes
            oracle_csv.write_bytes(closed_csv.read_bytes())
        else:
            write_trace(oracle_csv, oracle)
        s_th = closed.S_theta
        k = min(range(len(t)), key=s_th.__getitem__)
        line = (f"phi = {_fmt(params.phi)}: regime {params.regime}, "
                f"min S_theta = {_fmt(s_th[k])} at t = {_fmt(t[k])} s")
        if params.regime == "hyperbolic":
            line += f", pure-decay angle = {_fmt(exponential_angle(params))} rad"
        print(line)
        svg_series.append((f"phi={params.phi:.4g}", t, s_th))
    print(f"r = {_fmt(r)}, nbar = {_fmt(nbar)}, "
          f"oracle damping = {_fmt(oracle_gamma)} rad/s")
    if fmt == "csv+svg":
        svg_series.append(("thermal floor", t, [(2.0 * nbar + 1.0) / 4.0] * len(t)))
        svg_line_chart(
            out / "squeeze.svg",
            svg_series,
            title="Angle variance vs time (closed form)",
            x_label="t (s)",
            y_label="S_theta",
        )


# every command: its function, the config section it needs beside the drive
# (None: neither), and its help line
_COMMANDS = {
    "derive": (cmd_derive, None, "derived mode parameters for a particle/trap config"),
    "bistability": (cmd_bistability, "sweep", "steady-state branches over a drive-amplitude grid"),
    "hysteresis": (cmd_hysteresis, "ramp",
                   "quasi-static up/down amplitude ramps with jump detection"),
    "squeeze": (cmd_squeeze, "squeeze",
                "variance traces: closed form next to the moment-equation reference"),
}
# every command's options, each with its default (None: required)
_OPTIONS = {"--config": None, "--out": ".", "--format": "csv"}
_FORMATS = ("csv", "csv+svg")
_USAGE = f"usage: libration <command> --config PATH [--out DIR] [--format {'|'.join(_FORMATS)}]"


def _usage_error(message: str) -> ConfigError:
    return ConfigError(f"{_USAGE}\nlibration: error: {message}")


def _parse_args(argv: list[str]) -> tuple[str, str, str, str]:
    """(command, config, out, format) of a command line.

    A line is ``<command>`` and then ``--config``, ``--out`` and ``--format``
    in any order, each as ``--opt value`` or ``--opt=value``; the last of a
    repeated option counts, and every ``--format`` value is checked.  A
    ``-h`` or ``--help`` anywhere prints the commands, and a leading
    ``--version`` the version, each ending in ``SystemExit(0)``.  Any other
    line, a value starting with ``-`` too, raises ``ConfigError`` with the
    usage line.
    """
    if argv[:1] == ["--version"]:
        print(f"libration {__version__}")
        raise SystemExit(0)
    if "-h" in argv or "--help" in argv:
        print(f"{_USAGE}\n       libration --version\n\ncommands:")
        for name, (_, _, help_line) in _COMMANDS.items():
            print(f"  {name:13s}{help_line}")
        print("\nEach option is --opt value or --opt=value; the last repeated one counts.\n"
              f"--config is a JSON run configuration; --out defaults to {_OPTIONS['--out']} "
              f"and --format to {_OPTIONS['--format']}.")
        raise SystemExit(0)
    if not argv:
        raise _usage_error("the following arguments are required: command")
    command, *rest = argv
    if command not in _COMMANDS:
        raise _usage_error(f"argument command: invalid choice: {command!r} "
                           f"(choose from {', '.join(map(repr, _COMMANDS))})")
    given = {}
    tokens = iter(rest)
    for token in tokens:
        option, inline, value = token.partition("=")
        if option not in _OPTIONS:
            raise _usage_error(f"unrecognized arguments: {token}")
        if not inline:
            value = next(tokens, None)
        if value is None or value.startswith("-"):
            raise _usage_error(f"argument {option}: expected one argument")
        if option == "--format" and value not in _FORMATS:
            raise _usage_error(f"argument --format: invalid choice: {value!r} "
                               f"(choose from {', '.join(map(repr, _FORMATS))})")
        given[option] = value
    if "--config" not in given:
        raise _usage_error("the following arguments are required: --config")
    return command, *(given.get(option, default) for option, default in _OPTIONS.items())


def main(argv: list[str] | None = None) -> int:
    try:
        command, config, out_dir, fmt = _parse_args(sys.argv[1:] if argv is None else argv)
        run, section, _ = _COMMANDS[command]
        cfg = load_config(config)
        for name in ("drive", section) if section else ():
            if getattr(cfg, name) is None:
                raise ConfigError(
                    f"config error: the '{command}' command needs a '{name}' section")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        run(cfg, out, fmt)
    except ConfigError as exc:  # a usage error too
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:  # an --out that cannot be created or written into, a full stdout
        target = "the output" if exc.filename is None else exc.filename
        print(f"config error: cannot write {target} ({exc.strerror})", file=sys.stderr)
        return 1
    except (NumericalError, NoConfinementError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ResonanceError as exc:
        print(f"numerical failure: ResonanceError: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
