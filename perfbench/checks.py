"""Output checks.  Each returns a list of problems; an empty list passes.

Discrete fields (row counts, names, units, stability flags, regimes, jump
verdicts and jump steps) must match exactly.  Floats must match within a
tolerance taken from the accuracy each computation documents, never byte for
byte, so that a new integrator or root solver stays checkable:

* ``CLOSED_RTOL`` for closed-form values (mode numbers, fold coordinates,
  grids): exact up to rounding; 1e-9 is ``RESIDUAL_RTOL``, the tightest
  accuracy libration documents.
* ``ROOT_RTOL`` for steady-state occupations.  A root is only promised to
  satisfy |cubic(n)| <= RESIDUAL_RTOL * Omega^2/4; near a fold the cubic has a
  double root, so that residual fixes n only to sqrt(RESIDUAL_RTOL).
* ``10 * tolerance`` of the ramp, relative to the largest amplitude, for
  integrated plateaus, per ``dynamics.integrate``'s docstring; twice that for
  n = |beta|^2 and quantities linear in n.
* ``ORACLE_ATOL`` times a trace's largest value for variance traces: the
  oracle's local rtol of 1e-11 accumulates over a trace, and the package's
  own tests hold the closed forms and the oracle to this bound.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ElementTree
from pathlib import Path

RESIDUAL_RTOL = 1e-9  # libration.steadystate.RESIDUAL_RTOL
CLOSED_RTOL = RESIDUAL_RTOL
ROOT_RTOL = math.sqrt(RESIDUAL_RTOL)
ORACLE_RTOL = 1e-11  # libration.squeezing.moment_oracle's default rtol
ORACLE_ATOL = 2e3 * ORACLE_RTOL

#: Drives within this relative distance of a fold may report either root count.
FOLD_AMBIGUITY = 1e-6

#: Degenerate band of libration.squeezing: |lam_p^2| <= DEGENERATE_BAND * xi^2.
DEGENERATE_BAND = 1e-9


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def _column(rows: list[list[str]], j: int) -> list[float]:
    return [float(row[j]) for row in rows]


def _same(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare_table(out: Path, ref: Path, rules: dict[str, tuple]) -> list[str]:
    """Compare a CSV against its reference column by column.

    A rule is ``("exact",)``, ``("rel", rtol)`` (tolerance rtol*|ref|),
    ``("scale", rtol)`` (rtol times the column's largest |ref|), or
    ``("flag", column)``: a 0/1 flag for ``column < column[0]`` (the thermal
    floor), exact except where the reference value sits within that column's
    tolerance of the floor.  ``("custom",)`` columns are checked by the caller;
    columns without a rule must match exactly.
    """
    if not out.exists():
        return [f"{out.name}: missing"]
    try:
        head, rows = read_table(out)
        ref_head, ref_rows = read_table(ref)
    except (OSError, ValueError) as exc:
        return [f"{out.name}: unreadable ({exc})"]
    if head != ref_head:
        return [f"{out.name}: columns {head} != {ref_head}"]
    if len(rows) != len(ref_rows) or any(len(r) != len(head) for r in rows):
        return [f"{out.name}: {len(rows)} rows, expected {len(ref_rows)} of {len(head)} cells"]
    problems = []
    tolerances: dict[str, list[float]] = {}
    for j, name in enumerate(head):
        rule = rules.get(name, ("exact",))
        if rule[0] in ("rel", "scale"):
            try:
                got = _column(rows, j)
            except ValueError:
                problems.append(f"{out.name}:{name}: not numeric")
                continue
            want = _column(ref_rows, j)
            if rule[0] == "rel":
                tol = [rule[1] * abs(w) for w in want]
            else:
                top = max((abs(w) for w in want if not math.isnan(w)), default=0.0)
                tol = [rule[1] * top] * len(want)
            tolerances[name] = tol
            bad = [i for i, (g, w, t) in enumerate(zip(got, want, tol)) if not _same(g, w, t)]
            if bad:
                i = bad[0]
                problems.append(f"{out.name}:{name}: {len(bad)} values off, first row {i + 1}: "
                                f"{got[i]!r} vs {want[i]!r} (tol {tol[i]:.3g})")
    for j, name in enumerate(head):
        rule = rules.get(name, ("exact",))
        if rule[0] == "exact":
            bad = [i for i, (r, w) in enumerate(zip(rows, ref_rows)) if r[j] != w[j]]
        elif rule[0] == "flag":
            k = head.index(rule[1])
            values = _column(ref_rows, k)
            floor, tol = values[0], tolerances.get(rule[1], [0.0] * len(values))
            bad = [i for i, (r, w) in enumerate(zip(rows, ref_rows))
                   if r[j] != w[j] and abs(values[i] - floor) > tol[i]]
        else:
            continue
        if bad:
            i = bad[0]
            problems.append(f"{out.name}:{name}: {len(bad)} cells differ, first row {i + 1}: "
                            f"{rows[i][j]!r} vs {ref_rows[i][j]!r}")
    return problems


def check_svg(path: Path) -> list[str]:
    try:
        root = ElementTree.parse(path).getroot()
    except (OSError, ElementTree.ParseError) as exc:
        return [f"{path.name}: not a readable SVG ({exc})"]
    if not root.tag.endswith("svg") or len(root) == 0:
        return [f"{path.name}: empty or not an SVG document"]
    return []


def _cli_rules(ramp_tol: float) -> dict[str, dict[str, dict[str, tuple]]]:
    """Per command: CSV file -> column rules."""
    closed = ("rel", CLOSED_RTOL)
    integrated = 10.0 * ramp_tol
    squeeze_trace = {"t": closed, "S_theta": ("scale", ORACLE_ATOL), "S_J": ("scale", ORACLE_ATOL),
                     "squeezed_theta": ("flag", "S_theta"), "squeezed_J": ("flag", "S_J")}
    plateaus = {"t": closed, "omega_applied": closed, "re_beta": ("scale", integrated),
                "im_beta": ("scale", integrated), "n": ("scale", 2.0 * integrated)}
    fold_cols = ("static_fold_drive_rad_s", "static_fold_delta_eff_rad_s")
    # jump_drive_* are midpoints of two plateau drives: at closed-form
    # tolerance they pin the jump step exactly.
    jump_cols = ("jump_drive_rad_s", "jump_drive_hz")
    return {
        "derive": {
            "derive.csv": {"value": closed},
            "derive_scan.csv": {c: closed for c in (
                "r_a_m", "inertia", "omega_t", "omega_t_over_2pi", "eta", "eta_over_omega_t")},
        },
        "bistability": {
            "bistability.csv": {"omega_drive": closed, "n": ("rel", ROOT_RTOL),
                                **{c: ("scale", ROOT_RTOL) for c in (
                                    "delta_eff", "re_eig1", "im_eig1", "re_eig2", "im_eig2")}},
            "bistability_summary.csv": {c: closed for c in (
                "omega_ml_rad_s", "omega_ml_hz", "omega_c_rad_s", "omega_c_hz",
                "window_width_rad_s", "window_width_hz", "drive_up_fold_rad_s", "drive_up_fold_hz",
                "drive_down_fold_rad_s", "drive_down_fold_hz", "delta_eff_up_fold_rad_s",
                "delta_eff_up_fold_hz", "delta_eff_down_fold_rad_s", "delta_eff_down_fold_hz",
                "n_up_fold", "n_down_fold")},
        },
        "squeeze": {f"squeeze_{kind}_{i}.csv": squeeze_trace
                    for kind in ("closed", "oracle") for i in range(3)},
        "hysteresis": {
            "hysteresis_up.csv": plateaus,
            "hysteresis_down.csv": plateaus,
            "hysteresis_summary.csv": {
                **{c: closed for c in jump_cols + fold_cols},
                "jump_delta_eff_rad_s": ("scale", 2.0 * integrated),
                "jump_delta_eff_hz": ("scale", 2.0 * integrated),
                "jump_n_before": ("rel", 2.0 * integrated),
                "jump_n_after": ("rel", 2.0 * integrated),
                "loop_area": ("custom",),  # bounded by _check_loop_area
            },
        },
    }


CLI_SVGS = {
    "derive": ("derive_scan.svg",),
    "bistability": ("bistability.svg",),
    "squeeze": ("squeeze.svg",),
    "hysteresis": ("hysteresis.svg",),
}


def _trapezoid(y: list[float], x: list[float]) -> float:
    return sum(0.5 * (y[i] + y[i + 1]) * (x[i + 1] - x[i]) for i in range(len(x) - 1))


def _check_loop_area(out: Path, ref: Path, ramp_tol: float) -> list[str]:
    """The loop area is a trapezoid sum over plateau occupations, so its error
    is bounded by the occupations' (2 * 10 * tol * n) summed the same way."""
    try:
        head, rows = read_table(out / "hysteresis_summary.csv")
        area = float(rows[0][head.index("loop_area")])
    except (OSError, ValueError, IndexError) as exc:
        return [f"hysteresis_summary.csv: loop_area unreadable ({exc})"]
    ref_head, ref_rows = read_table(ref / "hysteresis_summary.csv")
    want = float(ref_rows[0][ref_head.index("loop_area")])
    up_head, up = read_table(ref / "hysteresis_up.csv")
    down_head, down = read_table(ref / "hysteresis_down.csv")
    drives = _column(up, up_head.index("omega_applied"))
    n_sum = [a + b for a, b in zip(_column(up, up_head.index("n")),
                                   reversed(_column(down, down_head.index("n"))))]
    tol = 2.0 * 10.0 * ramp_tol * abs(_trapezoid(n_sum, drives))
    if not _same(area, want, tol):
        return [f"hysteresis_summary.csv:loop_area: {area!r} vs {want!r} (tol {tol:.3g})"]
    return []


def _check_closed_vs_oracle(out: Path) -> list[str]:
    """The closed forms and the undamped oracle must agree with each other."""
    problems = []
    for i in range(3):
        try:
            tables = [read_table(out / f"squeeze_{kind}_{i}.csv") for kind in ("closed", "oracle")]
            closed, oracle = ([_column(rows, head.index(name)) for name in ("S_theta", "S_J")]
                              for head, rows in tables)
            problems += [f"squeeze_{i}: {p}" for p in closed_vs_oracle(closed, oracle, 1)[1]]
        except (OSError, ValueError):
            continue  # reported by compare_table
    return problems


def check_cli_outputs(cmd: str, out: Path, ref: Path, ramp_tol: float) -> list[str]:
    """Every file a CLI command wrote, against the reference run of the same command."""
    problems = []
    for name, rules in _cli_rules(ramp_tol)[cmd].items():
        problems += compare_table(out / name, ref / name, rules)
    for name in CLI_SVGS[cmd]:
        problems += check_svg(out / name)
    if cmd == "hysteresis":
        problems += _check_loop_area(out, ref, ramp_tol)
    if cmd == "squeeze":
        problems += _check_closed_vs_oracle(out)
    expected = set(_cli_rules(ramp_tol)[cmd]) | set(CLI_SVGS[cmd])
    extra = sorted(p.name for p in out.iterdir() if p.name not in expected) if out.is_dir() else []
    if extra:
        problems.append(f"unexpected files {extra}")
    return problems


# --- steady states -----------------------------------------------------------

def _fold_drives(delta_ml: float, gamma_b: float, eta: float) -> tuple[float, float] | None:
    """(down-jump, up-jump) fold drives, or None when the S-curve does not fold.

    Folds solve d(Omega^2)/dn = 0: 3x^2 + 4ux + (gamma^2/4 + u^2) = 0 with
    x = 12 eta n; the smaller root comes from Vieta to avoid cancellation.
    """
    u = delta_ml + 12.0 * eta
    disc = u * u - 0.75 * gamma_b * gamma_b
    if u >= 0.0 or disc <= 0.0:
        return None
    x_far = (-2.0 * u + math.sqrt(disc)) / 3.0
    x_near = (0.25 * gamma_b * gamma_b + u * u) / (3.0 * x_far)

    def drive(x: float) -> float:
        return math.sqrt(x / (3.0 * eta) * (0.25 * gamma_b * gamma_b + (u + x) ** 2))
    return drive(x_far), drive(x_near)


def expected_root_count(delta_ml: float, omega: float, gamma_b: float, eta: float) -> int | None:
    """3 when Omega lies strictly between the fold drives, else 1; None when
    Omega is within FOLD_AMBIGUITY of a fold, where either count is right."""
    folds = _fold_drives(delta_ml, gamma_b, eta)
    if folds and min(abs(omega / f - 1.0) for f in folds) < FOLD_AMBIGUITY:
        return None
    return 3 if folds and folds[0] < omega < folds[1] else 1


def check_branches(delta_ml: float, omega: float, gamma_b: float, eta: float,
                   branches) -> list[str]:
    """Roots of one drive point: count, order, residual and stability pattern."""
    ns = [b.n for b in branches]
    where = f"(delta={delta_ml!r}, Omega={omega!r}, gamma_b={gamma_b!r}, eta={eta!r})"
    if len(ns) not in (1, 3):
        return [f"{len(ns)} roots at {where}"]
    problems = []
    if ns != sorted(ns) or ns[0] < 0.0:
        problems.append(f"roots {ns} not ascending and non-negative at {where}")
    u = delta_ml + 12.0 * eta
    target = 0.25 * omega * omega
    for n in ns:
        residual = n * (0.25 * gamma_b * gamma_b + (u + 12.0 * eta * n) ** 2) - target
        if not abs(residual) <= RESIDUAL_RTOL * target:
            problems.append(f"root n={n!r} has residual {residual!r} at {where}")
    pattern = [True, False, True] if len(ns) == 3 else [True]
    if gamma_b > 0.0 and any(b.stable != want for b, want in zip(branches, pattern)
                             if not b.tangent):
        problems.append(f"stability {[b.verdict.value for b in branches]} at {where}")
    return problems


def missed_branches(delta_ml: float, omega: float, gamma_b: float, eta: float,
                    branches) -> bool:
    """One root returned where the fold drives say the S-curve has three."""
    return len(branches) == 1 and expected_root_count(delta_ml, omega, gamma_b, eta) == 3


def check_diagram(sweep: dict, diagram) -> tuple[list[str], int]:
    """A sweep_diagram result: regime, one row group per drive, each group's
    roots.  Returns the problems and the number of drives with missed branches."""
    delta, gamma_b, eta = sweep["delta_ml"], sweep["gamma_b"], sweep["eta"]
    edge = -12.0 * eta - math.sqrt(3.0) * gamma_b / 2.0  # omega_c - omega_t
    expected = "bistable" if delta < edge else "monostable"
    problems = [] if diagram.regime == expected else [
        f"regime {diagram.regime} at delta={delta!r}, expected {expected}"]
    groups: dict[float, list] = {}
    for w, branch in diagram.branches:
        groups.setdefault(w, []).append(branch)
    if list(groups) != sweep["drives"]:
        return problems + [f"diagram rows cover {len(groups)} drives, expected "
                           f"{len(sweep['drives'])}"], 0
    missed = 0
    for w, branches in groups.items():
        problems += check_branches(delta, w, gamma_b, eta, branches)
        missed += missed_branches(delta, w, gamma_b, eta, branches)
    return problems, missed


# --- squeezing ---------------------------------------------------------------

def expected_regime(lam: float, xi: float) -> str:
    lps = xi * xi - lam * lam
    if abs(lps) <= DEGENERATE_BAND * max(xi * xi, 1e-300):
        return "degenerate"
    return "hyperbolic" if lps > 0.0 else "oscillatory"


def check_squeeze_params(spec: dict, params) -> list[str]:
    xi = 12.0 * spec["eta"] * spec["r"] ** 2
    lam = spec["delta_ml"] + 2.0 * xi
    problems = []
    if not (abs(params.xi - xi) <= CLOSED_RTOL * xi and abs(params.lam - lam) <= CLOSED_RTOL * xi):
        problems.append(f"squeeze_params gave lam={params.lam!r}, xi={params.xi!r}; "
                        f"expected {lam!r}, {xi!r}")
    want = expected_regime(lam, xi)
    if params.regime != want or not spec["kind"].startswith(("degenerate", want)):
        problems.append(f"regime {params.regime} for a {spec['kind']} draw, expected {want}")
    return problems


def check_trace(s_theta, s_j, nbar: float, samples: int, scale_tol: float) -> list[str]:
    """A variance trace: length, finite, thermal start, uncertainty bound.

    S_theta * S_J >= 1/16 holds for every state; the bound is relaxed by the
    trace's own error, ``scale_tol`` per variance.
    """
    import numpy as np  # only the in-process squeeze workload needs numpy here

    s_theta, s_j = np.asarray(s_theta), np.asarray(s_j)
    if s_theta.shape != (samples,) or s_j.shape != (samples,):
        return [f"trace shapes {s_theta.shape}/{s_j.shape}, expected ({samples},)"]
    if not (np.all(np.isfinite(s_theta)) and np.all(np.isfinite(s_j))):
        return ["trace has non-finite variances"]
    floor = (2.0 * nbar + 1.0) / 4.0
    problems = []
    if abs(s_theta[0] - floor) > 1e-12 * floor or abs(s_j[0] - floor) > 1e-12 * floor:
        problems.append(f"trace starts at ({s_theta[0]!r}, {s_j[0]!r}), not the floor {floor!r}")
    if np.any(s_theta * s_j - 0.0625 + scale_tol * (s_theta + s_j) < 0.0):
        problems.append("trace breaks the uncertainty bound S_theta * S_J >= 1/16")
    return problems


def closed_vs_oracle(closed: tuple, oracle: tuple, stride: int) -> tuple[float, list[str]]:
    """Largest closed-form deviation from the undamped oracle, relative to the
    trace's largest value, sampled at the oracle's times (every ``stride``-th)."""
    import numpy as np

    scale = max(float(np.max(closed[0])), float(np.max(closed[1])))
    dev = max(float(np.max(np.abs(np.asarray(c)[::stride] - o))) for c, o in zip(closed, oracle))
    rel = dev / scale
    return rel, ([] if rel <= ORACLE_ATOL else
                 [f"closed forms depart from the undamped oracle by {rel:.3g} of the trace scale"])
