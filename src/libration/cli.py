"""Command-line entry point.

Subcommands: ``derive`` (mode numbers from a particle/trap config),
``bistability`` (steady branches over a drive-amplitude grid), ``hysteresis``
(quasi-static up/down ramp pair), ``squeeze`` (variance traces, closed form
next to the moment-equation reference).  Exit codes: 0 success, 1 config
error, 2 numerical failure.  All outputs are deterministic for a fixed
config; frequency columns are emitted in rad/s with an ``_hz`` twin where a
summary value is reported.  Grids and preconditions are checked in
``load_config``; a command's own config error is a missing section.  A run
warning is one ``warning:`` line on stderr, printed once.

``main`` reads a plain ``<command> (--config|--out|--format) <value>...``
line itself, with argparse's defaults and its choice of the last repeated
value; argparse, imported inside ``build_parser``, runs only for help,
``--version`` and any other line, and so writes every usage message.

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


def _need_sections(cfg: RunConfig, command: str, section: str) -> None:
    """Reject a config without a drive or without the command's own ``section``."""
    for name in ("drive", section):
        if getattr(cfg, name) is None:
            raise ConfigError(f"config error: the '{command}' command needs a '{name}' section")


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _twin(name: str, value: float, rad: str = "_rad_s", hz: str = "_hz") -> dict:
    """A frequency as ``name + rad`` in rad/s with its twin ``name + hz`` in Hz."""
    return {name + rad: value, name + hz: value / TWO_PI}


def _or_nan(obj, field: str) -> float:
    """``obj.field``, or NaN when there is no fold or jump to read it from."""
    return math.nan if obj is None else getattr(obj, field)


def _write_rows(path: Path, rows: list[dict]) -> None:
    """Write rows that share their keys as CSV columns, in key order."""
    write_csv(path, {key: [row[key] for row in rows] for key in rows[0]})


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
        lines.append(f"{label or name:28s} {_fmt(value)} rad/s  ({_fmt(value / TWO_PI)} Hz)")
        twin = _twin(name, value, rad="", hz="_over_2pi")
        rows.extend(zip(twin, twin.values(), ("rad/s", "Hz")))

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
    write_csv(out / "derive.csv", dict(zip(("quantity", "value", "unit"), zip(*rows))))

    if cfg.scan is not None:
        axis, modes = cfg.scan.grid, cfg.scan.modes
        if not modes:
            raise NoConfinementError("the derive scan reaches a sphere, which has no confinement")
        _write_rows(out / "derive_scan.csv", [{
            cfg.scan.axis: value,
            "inertia": m.inertia,
            **_twin("omega_t", m.omega_t, rad="", hz="_over_2pi"),
            "eta": m.eta,
            "eta_over_omega_t": m.eta / m.omega_t,
        } for value, m in zip(axis, modes)])
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
    _need_sections(cfg, "bistability", "sweep")
    diagram = sweep_diagram(cfg.sweep.grid, cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta,
                            cfg.mode.omega_t)

    _write_rows(out / "bistability.csv", [{
        "omega_drive": w,
        "n": b.n,
        "delta_eff": b.delta_eff,
        "stable": int(b.stable),
        "re_eig1": b.eigenvalues[0].real,
        "im_eig1": b.eigenvalues[0].imag,
        "re_eig2": b.eigenvalues[1].real,
        "im_eig2": b.eigenvalues[1].imag,
    } for w, b in diagram.branches])

    tp = diagram.turning
    _write_rows(out / "bistability_summary.csv", [{
        "regime": diagram.regime,
        **_twin("omega_ml", diagram.omega_ml),
        **_twin("omega_c", diagram.omega_c),
        **_twin("window_width", diagram.window_width),
        **_twin("drive_up_fold", _or_nan(tp, "drive_low")),
        **_twin("drive_down_fold", _or_nan(tp, "drive_high")),
        **_twin("delta_eff_up_fold", _or_nan(tp, "delta_eff_low")),
        **_twin("delta_eff_down_fold", _or_nan(tp, "delta_eff_high")),
        "n_up_fold": _or_nan(tp, "n_low"),
        "n_down_fold": _or_nan(tp, "n_high"),
    }])
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
    from libration.dynamics import RampProtocol, hysteresis_sweep

    _need_sections(cfg, "hysteresis", "ramp")
    ramp = cfg.ramp
    protocol = RampProtocol(ramp.amplitude_start, ramp.amplitude_stop, ramp.steps, ramp.dwell)
    if cfg.gamma_b > 0.0 and ramp.dwell * cfg.gamma_b < 0.5 * DWELL_DAMPING_CYCLES:
        print(f"warning: dwell*gamma_b = {ramp.dwell * cfg.gamma_b:.2f} < "
              f"{0.5 * DWELL_DAMPING_CYCLES}: sweep is not quasi-static", file=sys.stderr)
    result = hysteresis_sweep(cfg.drive.delta_ml, cfg.gamma_b, cfg.mode.eta, protocol,
                              tol=ramp.tolerance)
    for sweep in (result.up, result.down):
        if not sweep.trajectory.complete:
            raise NumericalError(f"{sweep.direction}-sweep integration failed")
        tr = sweep.trajectory
        write_csv(out / f"hysteresis_{sweep.direction}.csv", {
            "t": tr.t,
            "re_beta": [b.real for b in tr.beta],
            "im_beta": [b.imag for b in tr.beta],
            "n": tr.n,
            "omega_applied": tr.omega_applied,
        })

    tp = result.up.turning
    rows = []
    for sweep, side in ((result.up, "low"), (result.down, "high")):
        jump = sweep.jump
        rows.append({
            "direction": sweep.direction,
            "jump_detected": int(jump is not None),
            **_twin("jump_drive", _or_nan(jump, "drive")),
            **_twin("jump_delta_eff", _or_nan(jump, "delta_eff_before")),
            "jump_n_before": _or_nan(jump, "n_before"),
            "jump_n_after": _or_nan(jump, "n_after"),
            "static_fold_drive_rad_s": _or_nan(tp, f"drive_{side}"),
            "static_fold_delta_eff_rad_s": _or_nan(tp, f"delta_eff_{side}"),
            "loop_area": result.loop_area,
        })
        if jump is None:
            print(f"{sweep.direction}-sweep: no jump detected")
        else:
            print(f"{sweep.direction}-sweep jump: Omega = {_fmt(jump.drive)} rad/s "
                  f"({_fmt(jump.drive / TWO_PI)} Hz), "
                  f"delta_eff(before) = {_fmt(jump.delta_eff_before)} rad/s")
    _write_rows(out / "hysteresis_summary.csv", rows)
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

    _need_sections(cfg, "squeeze", "squeeze")
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
        below = thermal_squeezing_check(trace)
        write_csv(path, dict(t=trace.t, S_theta=trace.S_theta, S_J=trace.S_J,
                             squeezed_theta=below[0], squeezed_J=below[1],
                             regime=[trace.regime] * len(t)))

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


_COMMANDS = {
    "derive": cmd_derive,
    "bistability": cmd_bistability,
    "hysteresis": cmd_hysteresis,
    "squeeze": cmd_squeeze,
}
# every command's options, each with its default (None: required)
_OPTIONS = {"--config": None, "--out": ".", "--format": "csv"}
_FORMATS = ("csv", "csv+svg")


def _plain_args(argv: list[str]) -> tuple[str, str, str, str] | None:
    """(command, config, out, format) of a plain command line, else None.

    Plain is ``<command>`` followed by ``<option> <value>`` pairs, with the
    required ``--config`` given, no value starting with ``-``, and every
    ``--format`` value one of ``_FORMATS`` (argparse checks each, not only
    the last); the last of a repeated option counts.  On these lines argparse
    gives the same four values without a message; any other line is left to it.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    values = dict(_OPTIONS)
    for option, value in zip(argv[1::2], argv[2::2]):
        if (option not in _OPTIONS or value.startswith("-")
                or option == "--format" and value not in _FORMATS):
            return None
        values[option] = value
    if values["--config"] is None:
        return None
    return argv[0], values["--config"], values["--out"], values["--format"]


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="libration",
        description="Nonlinear torsional-mode toolkit for levitated anisotropic nanoparticles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("derive", "derived mode parameters for a particle/trap config"),
        ("bistability", "steady-state branches over a drive-amplitude grid"),
        ("hysteresis", "quasi-static up/down amplitude ramps with jump detection"),
        ("squeeze", "variance traces: closed form next to the moment-equation reference"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=_OPTIONS["--out"],
                       help="output directory (created if missing)")
        p.add_argument("--format", choices=_FORMATS, default=_OPTIONS["--format"],
                       help="artifact set to write")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            if not exc.code:  # --help, --version
                raise
            return 1  # a usage error is a config error; argparse would exit 2
        args = ns.command, ns.config, ns.out, ns.format
    command, config, out_dir, fmt = args
    try:
        cfg = load_config(config)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[command](cfg, out, fmt)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
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
