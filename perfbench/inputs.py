"""Seeded inputs for the in-process workloads.

Everything here depends only on the seed, never on libration, so a parent
commit and a change receive identical inputs.  ``digest`` fingerprints them;
the benchmark records it with every result.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# Working point of libration.calibration (REFERENCE_DELTA_ML, REFERENCE_GAMMA_B)
# and the mode of its reference particle, copied so that a change to the
# package cannot move the inputs.
REFERENCE_DELTA_ML = -34283.6799057411  # rad/s
REFERENCE_GAMMA_B = 8012.985643210628  # rad/s
REFERENCE_ETA = 0.021209365972552064  # rad/s
REFERENCE_OMEGA_T = 18407577.680375967  # rad/s

# Log10 ranges of the ROADMAP's physical parameter range.
LOG_ETA = (-8.0, 2.0)
LOG_GAMMA_B = (-3.0, 6.0)
LOG_ABS_DELTA = (-3.0, 8.0)
LOG_OMEGA = (-3.0, 10.0)

#: Half-width of libration.squeezing's degenerate band on lam/xi - 1.  The
#: band is |lam_p^2| <= 1e-9 xi^2 and lam_p^2 ~ 2 xi (xi - lam) at lam ~ xi.
DEGENERATE_HALF_BAND = 0.5e-9

SQUEEZE_KINDS = ("hyperbolic", "oscillatory", "degenerate-inside", "degenerate-outside")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def steady_inputs(seed: int, grids: int, grid_points: int, draws: int) -> dict:
    """Drive grids near the calibration working point, and single draws.

    ``grids`` sweeps share delta, gamma_b and eta across ``grid_points``
    drives.  ``draws`` single points are log-uniform over the whole ROADMAP
    range with a random detuning sign; none are filtered.
    """
    rng = random.Random(f"steady-scan:{seed}")
    sweeps = []
    for _ in range(grids):
        lo = _log_uniform(rng, 5.5, 6.3)
        hi = lo * _log_uniform(rng, 0.8, 1.2)
        sweeps.append({
            "delta_ml": REFERENCE_DELTA_ML * rng.uniform(-0.25, 2.0),
            "gamma_b": REFERENCE_GAMMA_B * _log_uniform(rng, -0.3, 0.3),
            "eta": REFERENCE_ETA,
            "omega_t": REFERENCE_OMEGA_T,
            "drives": [lo + (hi - lo) * k / (grid_points - 1) for k in range(grid_points)],
        })
    points = []
    for _ in range(draws):
        points.append({
            "eta": _log_uniform(rng, *LOG_ETA),
            "gamma_b": _log_uniform(rng, *LOG_GAMMA_B),
            "delta_ml": rng.choice((-1.0, 1.0)) * _log_uniform(rng, *LOG_ABS_DELTA),
            "Omega": _log_uniform(rng, *LOG_OMEGA),
        })
    return {"sweeps": sweeps, "points": points}


def squeeze_inputs(seed: int, sets: int, closed_samples: int, oracle_samples: int) -> dict:
    """(delta, eta, r, phi, nbar) sets cycling through the four regime kinds.

    ``lam/xi`` is drawn per kind: inside (-1, 1) is hyperbolic, beyond it
    oscillatory, and at +-1 degenerate, either well inside the degenerate
    band or a few band widths outside it, so rounding cannot flip the label.
    The closed forms sample ``closed_samples`` times; the oracle samples every
    k-th of those times, so the two traces can be compared point by point.
    """
    if (closed_samples - 1) % (oracle_samples - 1):
        raise ValueError("closed_samples - 1 must be a multiple of oracle_samples - 1")
    rng = random.Random(f"squeeze-scan:{seed}")
    out = []
    for k in range(sets):
        kind = SQUEEZE_KINDS[k % len(SQUEEZE_KINDS)]
        eta = _log_uniform(rng, -4.0, 0.0)
        r = _log_uniform(rng, 0.0, 2.5)
        xi = 12.0 * eta * r * r
        sign = rng.choice((-1.0, 1.0))
        if kind == "hyperbolic":
            ratio = rng.uniform(-0.95, 0.95)
        elif kind == "oscillatory":
            ratio = sign * rng.uniform(1.05, 20.0)
        elif kind == "degenerate-inside":
            ratio = sign * (1.0 + rng.uniform(-0.5, 0.5) * DEGENERATE_HALF_BAND)
        else:
            ratio = sign * (1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(4.0, 200.0)
                            * DEGENERATE_HALF_BAND)
        lam_p_sq = xi * xi * (1.0 - ratio * ratio)
        if kind == "hyperbolic":
            # growth e^{2 lam_p t} reaches e^{8} at most
            t_max = rng.uniform(1.0, 4.0) / math.sqrt(lam_p_sq)
        elif kind == "oscillatory":
            t_max = rng.uniform(1.0, 3.0) * math.pi / math.sqrt(-lam_p_sq)
        else:
            t_max = rng.uniform(1.0, 3.0) / xi
        out.append({
            "kind": kind,
            "delta_ml": xi * (ratio - 2.0),  # lam = delta + 24 eta r^2 = ratio * xi
            "eta": eta,
            "r": r,
            "phi": rng.uniform(0.0, 2.0 * math.pi),
            "nbar": rng.choice((0.0, rng.uniform(0.0, 5.0))),
            "gamma_b": xi * _log_uniform(rng, -2.0, 0.0),
            "t_max": t_max,
        })
    return {"sets": out, "closed_samples": closed_samples, "oracle_samples": oracle_samples}


def digest(inputs: dict) -> str:
    """sha256 of the inputs' canonical JSON (floats written by repr)."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
