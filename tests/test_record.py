"""The record contract, checked on every record class of the package."""

from __future__ import annotations

import dataclasses

import pytest

from qlinksim import atmosphere, config, cvqkd, dvqkd, fso, sweeps
from qlinksim.record import Record

_DV_DIAG = dvqkd.DvDiagnostics(q_mu=0.1, e_mu=0.02, y1_lower=0.3, e1_upper=0.04)
_DV_RATE = dvqkd.DvRateResult(1e-5, 1e-5, 1e-3, True, _DV_DIAG)
_CV_DIAG = cvqkd.CvDiagnostics(1.0, 0.5, 0.2, (1.0, 1.0, 1.0, 1.0, 1.0), 3.0)

# every record class: (a valid record, a change that _validate rejects, or
# None for a record without checks)
RECORDS = {
    fso.ChannelOutput: (
        lambda: fso.ChannelOutput(0.4, 0.5, 0.8, 500.0, 3.0), {"extinction": 0.9}
    ),
    fso.FsoChannelParams: (fso.FsoChannelParams, {"w0_m": 0.0}),
    dvqkd.DecoyProtocolParams: (dvqkd.DecoyProtocolParams, {"nu": 0.7}),
    dvqkd.FiniteSizeConfig: (dvqkd.FiniteSizeConfig, {"p_mu": 0.9}),
    dvqkd.DvDiagnostics: (lambda: _DV_DIAG, None),
    dvqkd.DvRateResult: (lambda: _DV_RATE, {"key_rate": -1.0}),
    cvqkd.CvProtocolParams: (cvqkd.CvProtocolParams, {"d_bits": 0}),
    cvqkd.PhaseEncodingNoise: (cvqkd.PhaseEncodingNoise, {"eps_classical": -1.0}),
    cvqkd.ThermalLossChannel: (
        lambda: cvqkd.ThermalLossChannel(0.5, n_thermal=0.1), {"tau": 2.0}
    ),
    cvqkd.CvDiagnostics: (lambda: _CV_DIAG, None),
    cvqkd.CvRateResult: (
        lambda: cvqkd.CvRateResult(0.1, 0.1, 0.4, True, _CV_DIAG), {"key_rate": -1.0}
    ),
    config.SweepRanges: (config.SweepRanges, {"altitude_step_km": 0.0}),
    config.SimulationConfig: (config.load_config, None),
    sweeps.SweepTable: (
        lambda: sweeps.SweepTable("t", ("a", "b"), ((1.0, 2.0),)), {"rows": ((1.0,),)}
    ),
    sweeps.SecureAltitudeResult: (
        lambda: sweeps.SecureAltitudeResult(1e9, 300.0, _DV_RATE, 3),
        {"iterations": -1},
    ),
    sweeps.Scenario: (lambda: sweeps.SCENARIOS["dv-sweep"], None),
    atmosphere._ReferenceProfile: (atmosphere.default_profile, None),
}
# the numpy profile keeps identity equality and hashing
IDENTITY_EQ = (atmosphere._ReferenceProfile,)


def test_every_record_class_is_covered():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("qlinksim.")}
    assert package == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    make, invalid = RECORDS[cls]
    record = make()
    assert type(record) is cls
    names = cls._fields
    values = tuple(getattr(record, name) for name in names)

    # the repr a frozen dataclass with the same fields gives
    twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True, eq=False)
    assert repr(record) == repr(twin(*values))

    positional, keyword = cls(*values), cls(**dict(zip(names, values)))
    if cls in IDENTITY_EQ:
        assert record == record and positional != record
        assert hash(record) == object.__hash__(record)
    else:
        assert positional == record and keyword == record
        assert hash(positional) == hash(record)
        assert record.replace() == record
    assert record != values
    # a record of another class with the same fields and values
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(names, "object")})
    assert other(*values) != record

    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert tuple(getattr(record, name) for name in names) == values

    if invalid is None:
        assert not hasattr(cls, "_validate")
        name = names[-1]
        changed = record.replace(**{name: values[0]})
        assert getattr(changed, name) is values[0]
    else:
        with pytest.raises(ValueError):
            record.replace(**invalid)
        with pytest.raises(ValueError):
            cls(**{**dict(zip(names, values)), **invalid})
    with pytest.raises(TypeError):
        record.replace(not_a_field=1.0)
