"""Audit of the transcribed variance formulas against the moment oracle.

``tests/audit.py`` keeps known-defective transcriptions next to the
package's re-derived closed forms; these tests pin down the defect signatures
and make the suite fail if findings.json ever disagrees with live behavior.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from libration.squeezing import SqueezeParams, variance_theta_closed
from audit import (
    DEVIATION_TOLERANCE,
    DOCUMENTED_STATUS,
    load_findings,
    run_audit,
    transcribed_J_hyperbolic,
    transcribed_theta_angle_resolved,
    transcribed_theta_hyperbolic,
    transcribed_theta_oscillatory,
    transcribed_theta_special_oscillatory,
    write_findings,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

XI = 87.72142036086622  # 12 eta r^2 for the benchmark particle at r = 40


@pytest.fixture(scope="module")
def audit():
    return {f.formula: f for f in run_audit()}


def test_every_formula_has_a_documented_verdict(audit):
    assert set(audit) == set(DOCUMENTED_STATUS)
    for name, finding in audit.items():
        # an undocumented mismatch (or a documented one that healed) is a bug
        assert finding.status == DOCUMENTED_STATUS[name], (
            f"{name}: live audit says {finding.status!r} "
            f"(deviation {finding.max_rel_deviation:.3e}), "
            f"documented as {DOCUMENTED_STATUS[name]!r}"
        )
        if finding.status == "match":
            assert finding.max_rel_deviation <= DEVIATION_TOLERANCE
        else:
            assert finding.max_rel_deviation > DEVIATION_TOLERANCE


def test_shipped_findings_file_is_current(audit):
    shipped = {f.formula: f for f in load_findings(REPO_ROOT / "findings.json")}
    assert set(shipped) == set(audit)
    for name, live in audit.items():
        assert shipped[name].status == live.status
        assert shipped[name].max_rel_deviation == pytest.approx(
            live.max_rel_deviation, rel=1e-3, abs=1e-13
        )
        assert shipped[name].tolerance == DEVIATION_TOLERANCE


def test_rederived_forms_track_the_oracle(audit):
    assert audit["theta_closed_rederived"].max_rel_deviation < 1e-9
    assert audit["J_closed_rederived"].max_rel_deviation < 1e-9


def test_findings_roundtrip(tmp_path):
    path = tmp_path / "findings.json"
    written = write_findings(path)
    assert load_findings(path) == written


def hyperbolic_params(lam_frac=0.4, phi=1.1, nbar=0.0):
    return SqueezeParams(lam=lam_frac * XI, xi=XI, phi=phi, r=40.0, nbar=nbar)


def oscillatory_params(lam_frac=2.5, phi=1.1):
    return SqueezeParams(lam=lam_frac * XI, xi=XI, phi=phi, r=40.0, nbar=0.0)


def test_theta_hyperbolic_defect_violates_initial_condition():
    p = hyperbolic_params()
    bad = float(transcribed_theta_hyperbolic(np.array([0.0]), p)[0])
    assert bad != pytest.approx(0.25, rel=1e-3)
    assert variance_theta_closed(0.0, p) == pytest.approx(0.25, rel=1e-14)


def test_J_hyperbolic_defect_violates_initial_condition():
    p = hyperbolic_params()
    bad = float(transcribed_J_hyperbolic(np.array([0.0]), p)[0])
    assert bad != pytest.approx(0.25, rel=1e-3)


def test_angle_resolved_defect_is_factor_two():
    # the bracket is right; only the prefactor is doubled
    p = hyperbolic_params(lam_frac=0.3, phi=0.8)
    t = np.linspace(0.0, 2.0 / math.sqrt(p.lambda_p_sq), 200)
    doubled = transcribed_theta_angle_resolved(t, p)
    assert doubled[0] == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(
        doubled / 2.0, variance_theta_closed(t, p), rtol=1e-9
    )


def test_oscillatory_transcriptions_are_faithful():
    p = oscillatory_params()
    lq = math.sqrt(-p.lambda_p_sq)
    t = np.linspace(0.0, 2.0 * math.pi / lq, 300)
    np.testing.assert_allclose(
        transcribed_theta_oscillatory(t, p), variance_theta_closed(t, p), rtol=1e-10
    )
    angle_cases = [
        (1, 0.5 * math.acos(p.xi / p.lam)),
        (2, math.pi / 2.0),
        (3, math.pi),
        (4, math.pi / 4.0),
        (5, -math.pi / 4.0),
    ]
    for case, phi in angle_cases:
        pc = SqueezeParams(lam=p.lam, xi=p.xi, phi=phi, r=p.r, nbar=0.0)
        np.testing.assert_allclose(
            transcribed_theta_special_oscillatory(t, pc, case),
            variance_theta_closed(t, pc),
            rtol=0,
            atol=1e-10,
        )


def test_regime_guards():
    hyp, osc = hyperbolic_params(), oscillatory_params()
    with pytest.raises(ValueError):
        transcribed_theta_hyperbolic(np.array([0.0]), osc)
    with pytest.raises(ValueError):
        transcribed_theta_oscillatory(np.array([0.0]), hyp)
    with pytest.raises(ValueError):
        transcribed_theta_special_oscillatory(np.array([0.0]), osc, case=6)
