"""Cross-validation of transcribed analytic variance formulas.

The closed forms shipped in :mod:`libration.squeezing` were re-derived from
the Bogoliubov solution of the quadratic fluctuation model.  The analytic
expressions they replace are transcribed verbatim below and audited against
``oracles.moment_expm``, the Pade propagator of the moment equations.  Some
of the transcriptions carry defects — sign/function transpositions, a missing
rate factor, an overall factor of two — and are kept here, with the tests,
only so the defects stay documented and machine-checkable; ``findings.json`` at the
repository root records the verdicts, and the test suite fails if a formula's
live deviation disagrees with its recorded status.  Regenerate that file with

    PYTHONPATH=src python tests/audit.py

Every function takes the time grid first and a :class:`SqueezeParams` second,
mirroring the public evaluators.  None of them should be used for physics:
use :func:`libration.squeezing.variance_theta_closed` and friends.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from libration.squeezing import SqueezeParams, variance_J_closed, variance_theta_closed
from oracles import moment_expm

__all__ = [
    "Finding",
    "transcribed_theta_hyperbolic",
    "transcribed_J_hyperbolic",
    "transcribed_theta_angle_resolved",
    "transcribed_theta_oscillatory",
    "transcribed_theta_special_oscillatory",
    "run_audit",
    "write_findings",
    "load_findings",
    "DEVIATION_TOLERANCE",
]

#: A formula deviating from the oracle by more than this (relative to the
#: trace's peak magnitude) is a mismatch and must appear in findings.json.
DEVIATION_TOLERANCE = 1e-6


def _angles(p: SqueezeParams) -> tuple[float, float]:
    return math.cos(2.0 * p.phi), math.sin(2.0 * p.phi)


def _lam_p_real(p: SqueezeParams) -> float:
    lps = p.lambda_p_sq
    if lps <= 0.0:
        raise ValueError("transcribed hyperbolic form needs lam_p^2 > 0")
    return math.sqrt(lps)


def transcribed_theta_hyperbolic(t, p: SqueezeParams) -> np.ndarray:
    """Transcribed general hyperbolic-regime S_theta expression.

    Known defect (see findings.json): the growth term carries sinh where the
    re-derived form has cosh and vice versa, so it violates the initial
    condition S_theta(0) = (2 nbar + 1)/4.
    """
    lp = _lam_p_real(p)
    c2, s2 = _angles(p)
    lam, xi = p.lam, p.xi
    pref = (2.0 * p.nbar + 1.0) / (4.0 * p.lambda_p_sq)
    t = np.asarray(t, dtype=float)
    return pref * (
        (xi**2 - lam * xi * c2) * np.sinh(2.0 * lp * t)
        - lam * xi * s2 * np.cosh(2.0 * lp * t)
        - (lam**2 - lam * xi * c2)
    )


def transcribed_J_hyperbolic(t, p: SqueezeParams) -> np.ndarray:
    """Transcribed general S_J expression (hyperbolic regime).

    Known defect: dimensionally inhomogeneous (odd powers of lam_p mixed into
    even-power terms), violates S_J(0) = (2 nbar + 1)/4, and is singular at
    xi cos(2 phi) = lam even though the variance itself is regular there.
    """
    lp = _lam_p_real(p)
    lps = p.lambda_p_sq
    c2, s2 = _angles(p)
    lam, xi = p.lam, p.xi
    denom = xi * c2 - lam
    if denom == 0.0:
        raise ZeroDivisionError("transcribed S_J form is singular at xi cos(2phi) = lam")
    t = np.asarray(t, dtype=float)
    a = (
        xi**4 * s2**2
        + lps * xi**2
        - lam * xi**3 * s2**2 * c2
        + lps * lam * xi * c2
        - 2.0 * lp * lam * xi**2 * s2**2
    )
    b = lam * xi**2 * s2**2 + lps * lam - lp * xi**2 - lp * lam * xi * c2
    c = lam * (xi**2 * s2**2 - lps) * (lam - xi * c2)
    pref = (2.0 * p.nbar + 1.0) / (4.0 * lps * denom**2)
    return pref * (a * np.cosh(2.0 * lp * t) - b * s2 * np.sinh(2.0 * lp * t) - c)


def transcribed_theta_angle_resolved(t, p: SqueezeParams) -> np.ndarray:
    """Transcribed angle-resolved hyperbolic S_theta (exponential split form).

    Known defect: overall factor 2 — it evaluates to 1/2 at t = 0 for a
    vacuum state instead of 1/4.  The bracket structure itself matches the
    re-derived form.
    """
    lp = _lam_p_real(p)
    lam, xi = p.lam, p.xi
    alpha = math.atan2(lp, lam)  # angle with cos = lam/xi, sin = lam_p/xi
    t = np.asarray(t, dtype=float)
    return (
        xi**2 / (4.0 * p.lambda_p_sq)
        * (
            (1.0 - math.cos(2.0 * p.phi - alpha)) * np.exp(2.0 * lp * t)
            + (1.0 - math.cos(2.0 * p.phi + alpha)) * np.exp(-2.0 * lp * t)
            + 2.0 * (lam / xi) * (math.cos(2.0 * p.phi) - lam / xi)
        )
    )


def transcribed_theta_oscillatory(t, p: SqueezeParams) -> np.ndarray:
    """Transcribed general oscillatory-regime S_theta expression.

    Faithful: with the signed lam_p^2 in the prefactor and lam_p' in the
    trigonometric arguments it reproduces the oracle.
    """
    lps = p.lambda_p_sq
    if lps >= 0.0:
        raise ValueError("oscillatory form needs lam_p^2 < 0")
    lq = math.sqrt(-lps)
    c2, s2 = _angles(p)
    lam, xi = p.lam, p.xi
    t = np.asarray(t, dtype=float)
    return (
        (2.0 * p.nbar + 1.0) / (4.0 * lps)
        * (
            xi * (xi - lam * c2) * np.cos(2.0 * lq * t)
            + xi * lq * s2 * np.sin(2.0 * lq * t)
            + lam * (xi * c2 - lam)
        )
    )


def transcribed_theta_special_oscillatory(t, p: SqueezeParams, case: int) -> np.ndarray:
    """Transcribed special-angle oscillatory S_theta cases (vacuum forms).

    case 1: phi = (1/2) arccos(xi/lam); 2: phi = pi/2; 3: phi = pi;
    4: phi = +pi/4 (5: phi = -pi/4).  All faithful.
    """
    lps = p.lambda_p_sq
    if lps >= 0.0:
        raise ValueError("oscillatory form needs lam_p^2 < 0")
    lq = math.sqrt(-lps)
    lam, xi = p.lam, p.xi
    t = np.asarray(t, dtype=float)
    if case == 1:
        return 0.25 - (xi / (4.0 * lam)) * np.sin(2.0 * lq * t)
    if case == 2:
        return 0.25 + (xi / 4.0) / (lam - xi) * (1.0 - np.cos(2.0 * lq * t))
    if case == 3:
        return 0.25 + (xi / 4.0) / (lam + xi) * (np.cos(2.0 * lq * t) - 1.0)
    if case in (4, 5):
        sign = 1.0 if case == 4 else -1.0
        s = np.sin(lq * t)
        return 0.25 - xi * s / (2.0 * (xi**2 - lam**2)) * (xi * s - sign * lq * np.cos(lq * t))
    raise ValueError(f"unknown case {case!r}")


@dataclass(frozen=True)
class Finding:
    """Audit verdict for one transcribed formula."""

    formula: str
    status: str  # "match" | "mismatch"
    max_rel_deviation: float
    tolerance: float
    description: str


#: Documented verdicts; measured deviations are refreshed by run_audit() and
#: the recorded values here are those of the shipping findings.json.
DOCUMENTED_STATUS: dict[str, str] = {
    "theta_hyperbolic_general": "mismatch",
    "J_hyperbolic_general": "mismatch",
    "theta_hyperbolic_angle_resolved": "mismatch",
    "theta_oscillatory_general": "match",
    "theta_oscillatory_case1": "match",
    "theta_oscillatory_case2": "match",
    "theta_oscillatory_case3": "match",
    "theta_oscillatory_case4": "match",
    "theta_oscillatory_case5": "match",
    "theta_closed_rederived": "match",
    "J_closed_rederived": "match",
}

_DESCRIPTIONS: dict[str, str] = {
    "theta_hyperbolic_general": (
        "General hyperbolic-regime angle variance: sinh/cosh transposed on the "
        "growth term and the angular cross term lacks the rate factor; violates "
        "S(0) = (2 nbar + 1)/4.  Replaced by variance_theta_closed."
    ),
    "J_hyperbolic_general": (
        "General angular-momentum variance: dimensionally inhomogeneous in "
        "lam_p, violates S(0) = (2 nbar + 1)/4, and is singular at "
        "xi cos(2 phi) = lam where the variance is regular.  Replaced by "
        "variance_J_closed."
    ),
    "theta_hyperbolic_angle_resolved": (
        "Angle-resolved exponential split of the hyperbolic variance: correct "
        "bracket but overall factor 2 (vacuum S(0) = 1/2 instead of 1/4)."
    ),
    "theta_oscillatory_general": (
        "General oscillatory-regime angle variance: faithful under the signed "
        "lam_p^2 prefactor convention."
    ),
    "theta_oscillatory_case1": "Special angle phi = arccos(xi/lam)/2: faithful.",
    "theta_oscillatory_case2": "Special angle phi = pi/2: faithful.",
    "theta_oscillatory_case3": "Special angle phi = pi: faithful.",
    "theta_oscillatory_case4": "Special angle phi = +pi/4: faithful.",
    "theta_oscillatory_case5": "Special angle phi = -pi/4: faithful.",
    "theta_closed_rederived": (
        "Re-derived closed form shipped as variance_theta_closed, audited "
        "against the moment oracle."
    ),
    "J_closed_rederived": (
        "Re-derived closed form shipped as variance_J_closed, audited against "
        "the moment oracle."
    ),
}


def _max_rel_dev(candidate: np.ndarray, truth: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(truth))), 1e-300)
    return float(np.max(np.abs(candidate - truth)) / scale)


def _hyperbolic_cases() -> list[SqueezeParams]:
    eta = 0.004568823977128449  # 50 x 40 nm diamond particle
    out = []
    for r in (10.0, 25.0, 40.0):
        xi = 12.0 * eta * r * r
        for frac in (-0.6, 0.1, 0.7):
            lam = frac * xi  # hyperbolic regime: |lam| < xi
            for phi in (0.35, 1.2, 2.3):
                for nbar in (0.0, 2.0):
                    out.append(SqueezeParams(lam=lam, xi=xi, phi=phi, r=r, nbar=nbar))
    return out


def _oscillatory_cases() -> list[SqueezeParams]:
    eta = 0.004568823977128449
    out = []
    for r in (10.0, 40.0):
        xi = 12.0 * eta * r * r
        for lam_over_xi in (1.8, 3.5, -2.5):
            lam = lam_over_xi * xi
            for phi in (0.35, 1.2, 2.3):
                for nbar in (0.0, 2.0):
                    out.append(SqueezeParams(lam=lam, xi=xi, phi=phi, r=r, nbar=nbar))
    return out


def _time_grid(p: SqueezeParams) -> np.ndarray:
    lps = p.lambda_p_sq
    rate = math.sqrt(abs(lps)) if abs(lps) > 0.0 else max(p.xi, 1.0)
    return np.linspace(0.0, 2.5 / rate, 41)


def run_audit() -> list[Finding]:
    """Compare every transcribed formula (and the shipped closed forms) to the oracle."""
    worst: dict[str, float] = {key: 0.0 for key in DOCUMENTED_STATUS}

    for p in _hyperbolic_cases():
        t = _time_grid(p)
        truth = moment_expm(p, t)
        worst["theta_hyperbolic_general"] = max(
            worst["theta_hyperbolic_general"],
            _max_rel_dev(transcribed_theta_hyperbolic(t, p), truth[0]),
        )
        if p.xi * math.cos(2.0 * p.phi) != p.lam:
            worst["J_hyperbolic_general"] = max(
                worst["J_hyperbolic_general"],
                _max_rel_dev(transcribed_J_hyperbolic(t, p), truth[1]),
            )
        worst["theta_hyperbolic_angle_resolved"] = max(
            worst["theta_hyperbolic_angle_resolved"],
            _max_rel_dev(
                transcribed_theta_angle_resolved(t, p),
                truth[0] / (2.0 * p.nbar + 1.0),  # transcription is the vacuum form
            ),
        )
        worst["theta_closed_rederived"] = max(
            worst["theta_closed_rederived"],
            _max_rel_dev(variance_theta_closed(t, p), truth[0]),
        )
        worst["J_closed_rederived"] = max(
            worst["J_closed_rederived"],
            _max_rel_dev(variance_J_closed(t, p), truth[1]),
        )

    for p in _oscillatory_cases():
        t = _time_grid(p)
        truth = moment_expm(p, t)
        worst["theta_oscillatory_general"] = max(
            worst["theta_oscillatory_general"],
            _max_rel_dev(transcribed_theta_oscillatory(t, p), truth[0]),
        )
        worst["theta_closed_rederived"] = max(
            worst["theta_closed_rederived"],
            _max_rel_dev(variance_theta_closed(t, p), truth[0]),
        )
        worst["J_closed_rederived"] = max(
            worst["J_closed_rederived"],
            _max_rel_dev(variance_J_closed(t, p), truth[1]),
        )

    # special oscillatory angles carry their own phi
    eta = 0.004568823977128449
    for r in (10.0, 40.0):
        xi = 12.0 * eta * r * r
        for lam in (1.8 * xi, 3.5 * xi):
            for case, phi in (
                (1, 0.5 * math.acos(xi / lam)),
                (2, math.pi / 2.0),
                (3, math.pi),
                (4, math.pi / 4.0),
                (5, -math.pi / 4.0),
            ):
                p = SqueezeParams(lam=lam, xi=xi, phi=phi, r=r, nbar=0.0)
                t = _time_grid(p)
                truth = moment_expm(p, t)
                key = f"theta_oscillatory_case{case}"
                worst[key] = max(
                    worst[key],
                    _max_rel_dev(
                        transcribed_theta_special_oscillatory(t, p, case), truth[0]
                    ),
                )

    return [
        Finding(
            formula=name,
            status="match" if worst[name] <= DEVIATION_TOLERANCE else "mismatch",
            max_rel_deviation=worst[name],
            tolerance=DEVIATION_TOLERANCE,
            description=_DESCRIPTIONS[name],
        )
        for name in DOCUMENTED_STATUS
    ]


def write_findings(path: str | Path) -> list[Finding]:
    """Run the audit and write the machine-readable findings file."""
    findings = run_audit()
    payload = {
        "tolerance": DEVIATION_TOLERANCE,
        "ground_truth": "tests/oracles.moment_expm (Pade propagator of the second moments)",
        "findings": [asdict(f) for f in findings],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return findings


def load_findings(path: str | Path) -> list[Finding]:
    payload = json.loads(Path(path).read_text())
    return [Finding(**entry) for entry in payload["findings"]]


if __name__ == "__main__":  # regenerate the repository findings file
    for finding in write_findings(Path(__file__).resolve().parents[1] / "findings.json"):
        print(f"{finding.formula:36s} {finding.status:9s} dev={finding.max_rel_deviation:.3e}")
