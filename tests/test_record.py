"""The record contract, checked on every record class of the package."""

from __future__ import annotations

import dataclasses
import math

import pytest

from qlinksim import atmosphere, config, cvqkd, dvqkd, fso, sweeps
from qlinksim.record import RateResult, Record, derived

_DV_DIAG = dvqkd.DvDiagnostics(q_mu=0.1, e_mu=0.02, y1_lower=0.3, e1_upper=0.04)
_DV_RATE = RateResult(1e-5, 1e-3, _DV_DIAG)
_CV_DIAG = cvqkd.CvDiagnostics(1.0, 0.5, 0.2, (1.0, 1.0, 1.0, 1.0, 1.0), 3.0)
_CV_RATE = RateResult(0.1, 0.4, _CV_DIAG)

# every record class but RateResult: (a valid record, a change that _validate
# rejects, or None for a record without checks)
RECORDS = {
    fso.ChannelOutput: (
        lambda: fso.ChannelOutput(0.5, 0.8, 500.0, 3.0), {"extinction": 1.5}
    ),
    fso.FsoChannelParams: (fso.FsoChannelParams, {"w0_m": 0.0}),
    dvqkd.DecoyProtocolParams: (dvqkd.DecoyProtocolParams, {"nu": 0.7}),
    dvqkd.FiniteSizeConfig: (dvqkd.FiniteSizeConfig, {"p_mu": 0.9}),
    dvqkd.DvDiagnostics: (lambda: _DV_DIAG, None),
    cvqkd.CvProtocolParams: (cvqkd.CvProtocolParams, {"d_bits": 0}),
    cvqkd.PhaseEncodingNoise: (cvqkd.PhaseEncodingNoise, {"eps_classical": -1.0}),
    cvqkd.ThermalLossChannel: (
        lambda: cvqkd.ThermalLossChannel(0.5, n_thermal=0.1), {"tau": 2.0}
    ),
    cvqkd.CvDiagnostics: (lambda: _CV_DIAG, None),
    config.SweepRanges: (config.SweepRanges, {"altitude_step_km": 0.0}),
    config.SimulationConfig: (config.load_config, None),
    sweeps.SweepTable: (
        lambda: sweeps.SweepTable("t", ("a", "b"), ((1.0,), (2.0,))), {"values": ((1.0,),)}
    ),
    sweeps.SecureAltitudeResult: (
        lambda: sweeps.SecureAltitudeResult(300.0, 1e-3, _DV_RATE, 3),
        {"iterations": -1},
    ),
    sweeps.Scenario: (lambda: sweeps.SCENARIOS["dv-sweep"], None),
    atmosphere._ReferenceProfile: (atmosphere.default_profile, None),
}
# the contract cases by id: (the class, a valid record, a rejected change);
# RateResult runs once with the diagnostics of each protocol's kernel, and
# SecureAltitudeResult once more with a threshold outside (0, 1]
CASES = {
    **{cls.__name__: (cls, *case) for cls, case in RECORDS.items()},
    "DvRateResult": (RateResult, lambda: _DV_RATE, {"signed_rate": math.nan}),
    "CvRateResult": (RateResult, lambda: _CV_RATE, {"signed_rate": math.nan}),
    "SecureAltitudeThreshold": (
        sweeps.SecureAltitudeResult, RECORDS[sweeps.SecureAltitudeResult][0], {"threshold": 0.0}
    ),
}
# the numpy profile keeps identity equality and hashing
IDENTITY_EQ = (atmosphere._ReferenceProfile,)


def test_every_record_class_is_covered():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("qlinksim.")}
    assert package == {cls for cls, _, _ in CASES.values()}


@pytest.mark.parametrize("case", list(CASES))
def test_record_contract(case):
    cls, make, invalid = CASES[case]
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


@pytest.mark.parametrize("block_n", [1e9, math.inf])
@pytest.mark.parametrize("tau", [0.0, 1e-6, 1e-3, 0.05, 0.3, 1.0])
def test_key_rate_is_the_signed_rate_clamped_at_0_for_both_protocols(tau, block_n):
    cfg = config.load_config()
    results = (
        dvqkd.finite_key_rate(tau * cfg.dv.eta_receiver, cfg.dv, cfg.dv_fs(block_n)),
        cvqkd.composable_key_rate(
            cvqkd.ThermalLossChannel(tau, cfg.cv.n_bg), cfg.cv, cfg.cv_noise, block_size_n=block_n
        ),
    )
    for res in results:
        assert type(res) is RateResult
        assert res.key_rate.hex() == max(res.signed_rate, 0.0).hex()


def _derived_names(cls: type) -> list[str]:
    return [name for name, member in vars(cls).items() if isinstance(member, derived)]


def _with_derived_read(cls: type):
    """A record of cls with every derived value read, and a fresh twin."""
    make = (lambda: cls(1e10)) if cls is dvqkd.FiniteSizeConfig else cls
    record = make()
    for name in _derived_names(cls):
        getattr(record, name)
    return record, make()


def test_derived_values_do_not_count_in_record_identity():
    classes = {cls for cls in Record.__subclasses__() if _derived_names(cls)}
    assert classes == {
        fso.FsoChannelParams, dvqkd.DecoyProtocolParams, dvqkd.FiniteSizeConfig, cvqkd.CvProtocolParams
    }
    for cls in classes:
        record, fresh = _with_derived_read(cls)
        names = _derived_names(cls)
        assert set(names) <= set(vars(record))
        assert set(names).isdisjoint(cls._fields)
        assert record == fresh and hash(record) == hash(fresh)
        assert repr(record) == repr(fresh) and record._values() == fresh._values()
        assert {fresh: cls.__name__}[record] == cls.__name__
        # a replaced record computes its derived values afresh, to the same values
        copy = record.replace()
        assert copy == fresh
        for name in names:
            assert getattr(copy, name) == getattr(record, name), (cls.__name__, name)
        with pytest.raises(AttributeError):
            setattr(record, names[0], 0.0)
    # whole configs stay dict keys after a run has read every derived value
    cfg = config.load_config()
    for protocol in ("dv", "cv"):
        sweeps.max_secure_altitude(protocol, 1e10, cfg)
    assert {config.load_config(): 1}[cfg] == 1


def test_a_replaced_record_gives_the_rate_of_a_freshly_built_one():
    cfg = config.load_config()
    tau = cfg.channel.at_altitude(400.0).transmissivity
    ch = cvqkd.ThermalLossChannel(tau, cfg.cv.n_bg)
    fs = dvqkd.FiniteSizeConfig(1e10)

    def cv_rate(p):
        return cvqkd.composable_key_rate(ch, p, cfg.cv_noise, block_size_n=1e10)

    def dv_rate(params, finite):
        return dvqkd.finite_key_rate(tau * params.eta_receiver, params, finite)

    # the rates at the defaults read every derived value of cfg.cv, cfg.dv and fs
    cv_default, dv_default = cv_rate(cfg.cv), dv_rate(cfg.dv, fs)
    for changes in ({"ber_target": 1e-4}, {"eps_sec": 1e-12}, {"p_ec": 0.8, "d_bits": 3},
                    {"v_el": 0.05, "eta_det": 0.6}):
        got = cv_rate(cfg.cv.replace(**changes))
        assert got == cv_rate(cvqkd.CvProtocolParams(**changes)) and got != cv_default, changes
    for changes in ({"epsilon": 1e-12}, {"p_mu": 0.6}):
        got = dv_rate(cfg.dv, fs.replace(**changes))
        assert got == dv_rate(cfg.dv, dvqkd.FiniteSizeConfig(1e10, **changes)) and got != dv_default
    for changes in ({"mu": 0.5}, {"nu": 0.1}, {"y0_dark": 1e-5}):
        got = dv_rate(cfg.dv.replace(**changes), fs)
        assert got == dv_rate(dvqkd.DecoyProtocolParams(**changes), fs) and got != dv_default
    channel = cfg.channel.replace(jitter_urad=2.0)
    assert channel.at_altitude(400.0) == fso.FsoChannelParams(jitter_urad=2.0).at_altitude(400.0)
    assert channel.at_altitude(400.0).transmissivity != tau
