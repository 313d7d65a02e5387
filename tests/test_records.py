"""Parameter and result records: immutable NamedTuples, validated where they check input."""

import copy
import math
import re
from pathlib import Path

import pytest

import libration
from libration import config, dynamics, model, squeezing, steadystate
from libration.config import load_config
from libration.dynamics import JumpEvent, hysteresis_sweep
from libration.model import (DWELL_DAMPING_CYCLES, MATERIALS, ModeParameters,
                             NanoparticleSpec, TrapConfig, mode_parameters)
from libration.squeezing import SqueezeParams, moment_oracle, squeeze_params
from libration.steadystate import MeanFieldParams, sweep_diagram, turning_points

SPEC = {"r_a": 5e-8, "r_b": 4e-8, "density": 3500.0, "eps_r": 5.7}
TRAP = {"power": 0.1, "waist": 6e-7}
MODE = mode_parameters(NanoparticleSpec(**SPEC), TrapConfig(**TRAP))._asdict()
MEAN_FIELD = {"delta_ml": -3e4, "Omega": 6e6, "gamma_b": 8e3, "eta": 0.02}
SQUEEZE = {"lam": 1432.0, "xi": 87.7, "phi": 1.0, "r": 40.0, "nbar": 0.5}

# (record, valid fields, field, invalid value, the whole message it raises)
INVALID = [
    (NanoparticleSpec, SPEC, "r_b", 6e-8, "need r_a >= r_b > 0, got r_a=5e-08, r_b=6e-08"),
    (NanoparticleSpec, SPEC, "density", 0.0, "density must be positive, got 0.0"),
    (NanoparticleSpec, SPEC, "eps_r", 1.0, "eps_r must exceed 1 (vacuum), got 1.0"),
    (TrapConfig, TRAP, "power", -1.0, "trap power must be positive, got -1.0"),
    (TrapConfig, TRAP, "waist", 0.0, "beam waist must be positive, got 0.0"),
    (ModeParameters, MODE, "kappa_y", 0.0,
     f"need kappa_x > kappa_y > 0, got kappa_x={MODE['kappa_x']!r}, kappa_y=0.0"),
    (ModeParameters, MODE, "omega_t", math.inf, "omega_t and inertia must be positive and finite"),
    (ModeParameters, MODE, "eta", 1.0, "eta is inconsistent with hbar/(24 I)"),
    (ModeParameters, MODE, "J0", 1.0, "zero-point scales must satisfy theta0 * J0 = 2 hbar"),
    (MeanFieldParams, MEAN_FIELD, "delta_ml", math.nan, "delta_ml must be finite, got nan"),
    (MeanFieldParams, MEAN_FIELD, "Omega", -1.0, "Omega must be >= 0, got -1.0"),
    (MeanFieldParams, MEAN_FIELD, "gamma_b", -1.0, "gamma_b must be >= 0, got -1.0"),
    (MeanFieldParams, MEAN_FIELD, "eta", 0.0, "eta must be > 0, got 0.0"),
    (SqueezeParams, SQUEEZE, "phi", math.inf, "phi must be finite, got inf"),
    (SqueezeParams, SQUEEZE, "xi", -1.0, "xi must be >= 0, got -1.0"),
    (SqueezeParams, SQUEEZE, "r", -1.0, "r must be >= 0, got -1.0"),
    (SqueezeParams, SQUEEZE, "nbar", -0.5, "nbar must be >= 0, got -0.5"),
]


@pytest.mark.parametrize("record, fields, field, bad, message", INVALID,
                         ids=[f"{case[0].__name__}.{case[2]}" for case in INVALID])
def test_invalid_field_raises_in_constructor_and_replace(record, fields, field, bad, message):
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=pattern):
        record(**{**fields, field: bad})
    valid = record(**fields)
    with pytest.raises(ValueError, match=pattern):
        valid._replace(**{field: bad})
    assert valid._replace() == valid


def _public_records() -> list:
    """One instance of every public record type of the package."""
    root = Path(libration.__file__).resolve().parents[2]
    cfgs = {name: load_config(root / "configs" / f"{name}.json")
            for name in ("derive", "bistability", "hysteresis", "squeeze")}
    hyst = cfgs["hysteresis"]
    eta, gamma_b, delta_ml = hyst.mode.eta, hyst.gamma_b, hyst.drive.delta_ml
    diagram = sweep_diagram([1e6, 5e6, 1e7], delta_ml, gamma_b, eta, hyst.mode.omega_t)
    result = hysteresis_sweep(delta_ml, gamma_b, eta, [2.35e6, 6.575e6, 1.08e7],
                              DWELL_DAMPING_CYCLES / gamma_b)
    params = squeeze_params(2.0 * math.pi * 200.0, eta, 40.0, math.pi)
    return [
        MATERIALS["diamond"], hyst.particle, hyst.trap, hyst.mode,
        MeanFieldParams(**MEAN_FIELD), diagram.branches[0][1],
        turning_points(-3e4, eta, gamma_b), diagram,
        result.up.trajectory, JumpEvent(5e6, 1.0, 2.0, -3e4), result.up, result,
        params, moment_oracle(params, [0.0, 1e-4, 2e-4]),
        hyst.drive, cfgs["bistability"].sweep, hyst.ramp, cfgs["squeeze"].squeeze,
        cfgs["derive"].scan, hyst,
    ]


RECORDS = _public_records()


def test_every_public_record_type_is_covered():
    public = [getattr(mod, name) for mod in (model, steadystate, dynamics, squeezing, config)
              for name in mod.__all__]
    records = {obj for obj in public if isinstance(obj, type) and issubclass(obj, tuple)}
    assert records == {type(record) for record in RECORDS}
    assert len(records) == 20


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_records_are_immutable_values(record):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    text = repr(record)
    assert text.startswith(f"{type(record).__name__}(")
    assert all(f"{field}=" in text for field in type(record)._fields)

