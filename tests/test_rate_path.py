"""The rate path of the altitude sweeps and the secure thresholds.

A sweep reads the channel once per altitude and reuses each record's
derived constants across rows; these tests hold it to the same rows, the
same errors and the same crossings as evaluating every row on its own.
"""

from __future__ import annotations

import math

import pytest

from qlinksim import sweeps
from qlinksim.config import load_config
from qlinksim.cvqkd import ThermalLossChannel, composable_key_rate
from qlinksim.dvqkd import FiniteSizeConfig, finite_key_rate
from qlinksim.fso import FsoChannelParams
from qlinksim.sweeps import ALTITUDE_BRACKET_KM, cv_sweep, dv_sweep, max_secure_altitude, run_scenario

FIG2 = "configs/fig2_dv_rates.ini"
FIG3 = "configs/fig3_cv_rates.ini"
# overrides that move every constant the kernels take from a record: the
# CV amplitude, receiver noise and finite-size corrections, the decoy
# exponentials, the pulse counts, Hoeffding deviations and composable term,
# and the channel's range law
DV_OVERRIDES = ("dv.mu=0.5", "dv.nu=0.1", "dv.epsilon=1e-12", "dv.p_mu=0.6", "channel.jitter_urad=2.5")
CV_OVERRIDES = (
    "cv.ber_target=1e-4", "cv.eps_sec=1e-12", "cv.p_ec=0.8", "cv.d_bits=3", "cv.v_el=0.05",
    "channel.w0_m=0.25",
)


def _fresh_row(scenario: str, cfg, altitude_km: float, block_n: float) -> tuple[float, ...]:
    """One sweep row through the public API, every record built anew for it."""
    tau = cfg.channel.replace().at_altitude(altitude_km).transmissivity
    if scenario == "dv-sweep":
        dv, finite = cfg.dv.replace(), cfg.dv_finite
        fs = FiniteSizeConfig(block_n, epsilon=finite.epsilon, p_mu=finite.p_mu, p_nu=finite.p_nu)
        res = finite_key_rate(tau * dv.eta_receiver, dv, fs)
        return (altitude_km, block_n, res.key_rate, res.throughput, tau)
    cv = cfg.cv.replace()
    ch = ThermalLossChannel(tau=tau, n_thermal=cv.n_bg)
    res = composable_key_rate(ch, cv, cfg.cv_noise.replace(), block_size_n=block_n)
    diag = res.diagnostics
    return (altitude_km, block_n, res.key_rate, res.throughput, diag.snr, diag.chi_e)


def _bits(row: tuple[float, ...]) -> tuple[str, ...]:
    return tuple(float(value).hex() for value in row)


@pytest.mark.parametrize(
    "scenario, path, overrides",
    [
        ("dv-sweep", FIG2, ()),
        ("cv-sweep", FIG3, ()),
        ("dv-sweep", FIG2, DV_OVERRIDES),
        ("cv-sweep", FIG3, CV_OVERRIDES),
    ],
    ids=["fig2", "fig3", "fig2-overrides", "fig3-overrides"],
)
def test_every_sweep_row_equals_a_fresh_evaluation_of_that_row(scenario, path, overrides):
    from conftest import REPO_ROOT

    cfg = load_config(str(REPO_ROOT / path), list(overrides))
    table = run_scenario(scenario, cfg)
    expected = [
        _fresh_row(scenario, cfg, altitude_km, block_n)
        for block_n in sorted(cfg.sweep.block_sizes)
        for altitude_km in cfg.sweep.altitudes_km()
    ]
    assert [_bits(row) for row in zip(*table.values)] == [_bits(row) for row in expected]
    # each case has rows with a key, so the finite-size terms count
    assert any(rate > 0.0 for rate in table.values[2])


def test_the_channel_is_read_once_per_altitude(monkeypatch):
    from conftest import REPO_ROOT

    real = FsoChannelParams.at_altitude
    read = []

    def counted(self, altitude_km):
        read.append(altitude_km)
        return real(self, altitude_km)

    monkeypatch.setattr(FsoChannelParams, "at_altitude", counted)
    for scenario, path in (("dv-sweep", FIG2), ("cv-sweep", FIG3)):
        cfg = load_config(str(REPO_ROOT / path))
        read.clear()
        table = run_scenario(scenario, cfg)
        assert read == list(cfg.sweep.altitudes_km())
        assert len(table.values[0]) == len(read) * len(cfg.sweep.block_sizes) == len(read) * 4


def _traced_rate_of_tau(monkeypatch, fail_at=None):
    """Record each (block size, tau) the sweep evaluates; raise at fail_at."""
    real = sweeps._rate_of_tau
    calls = []

    def rate_of_tau(protocol, block_n, cfg):
        rate_of = real(protocol, block_n, cfg)

        def traced(tau):
            calls.append((block_n, tau))
            if (block_n, tau) == fail_at:
                raise ValueError("kernel complaint")
            return rate_of(tau)

        return traced

    monkeypatch.setattr(sweeps, "_rate_of_tau", rate_of_tau)
    return calls


def test_a_row_error_at_a_later_block_size_names_it_its_altitude_and_tau(monkeypatch):
    cfg = load_config(overrides=[
        "sweep.altitude_start_km=100", "sweep.altitude_stop_km=400", "sweep.altitude_step_km=100",
        "sweep.block_sizes=1e9, 1e10",
    ])
    taus = [cfg.channel.at_altitude(h).transmissivity for h in cfg.sweep.altitudes_km()]
    # the third altitude, at the second block size: its tau was read at the first
    calls = _traced_rate_of_tau(monkeypatch, fail_at=(1e10, taus[2]))
    for run, scenario in ((dv_sweep, "dv-sweep"), (cv_sweep, "cv-sweep")):
        calls.clear()
        with pytest.raises(ValueError) as info:
            run(cfg)
        assert str(info.value) == (
            f"{scenario} row at altitude_km=300.0, block_size=10000000000.0, "
            f"tau={taus[2]!r}: kernel complaint"
        )
        assert str(info.value.__cause__) == "kernel complaint"
        assert calls == [(1e9, tau) for tau in taus] + [(1e10, tau) for tau in taus[:3]]


def test_a_channel_error_keeps_its_message_and_its_place_in_the_sweep(monkeypatch):
    # altitudes 100 km, 5e154 km and 1e155 km: (R + h)^2 overflows at the second
    cfg = load_config(overrides=[
        "sweep.altitude_start_km=100", "sweep.altitude_stop_km=1e155",
        "sweep.altitude_step_km=5e154", "sweep.block_sizes=1e9, 1e10",
    ])
    altitudes = cfg.sweep.altitudes_km()
    assert len(altitudes) == 3
    with pytest.raises(ValueError) as channel:
        cfg.channel.at_altitude(altitudes[1])
    assert str(channel.value).startswith("channel leaves floating-point range")
    calls = _traced_rate_of_tau(monkeypatch)
    for run, scenario in ((dv_sweep, "dv-sweep"), (cv_sweep, "cv-sweep")):
        calls.clear()
        with pytest.raises(ValueError) as info:
            run(cfg)
        assert str(info.value) == (
            f"{scenario} row at altitude_km={altitudes[1]!r}, block_size=1000000000.0: "
            f"{channel.value}"
        )
        # the first row was evaluated, no other, and no row of the second block size
        assert calls == [(1e9, cfg.channel.at_altitude(100.0).transmissivity)]


@pytest.mark.parametrize("protocol", ["dv", "cv"])
def test_the_signed_rate_changes_sign_once_next_to_each_default_threshold(protocol):
    # ln(tau) on a 2^-6 grid, whose points are points of the threshold lattice,
    # over the bracket's transmissivities and one unit of ln(tau) past each end
    cfg = load_config()
    lo, hi = ALTITUDE_BRACKET_KM
    top = min(math.ceil((math.log(cfg.channel.at_altitude(lo).transmissivity) + 1.0) * 64), 0)
    bottom = math.floor((math.log(cfg.channel.at_altitude(hi).transmissivity) - 1.0) * 64)
    grid = range(bottom, top + 1)
    near = None
    for block_n in sorted(cfg.sweep.block_sizes):
        res = max_secure_altitude(protocol, block_n, cfg, near=near)
        near = res.threshold
        rate_of = sweeps._rate_of_tau(protocol, block_n, cfg)
        positive = [rate_of(math.exp(j / 64)).signed_rate > 0.0 for j in grid]
        flips = [j for j, (a, b) in zip(grid, zip(positive, positive[1:])) if a != b]
        assert len(flips) == 1 and not positive[0] and positive[-1], (block_n, flips)
        # the last grid tau without a key lies below the threshold, the first with one at or above it
        assert math.exp(flips[0] / 64) < res.threshold <= math.exp((flips[0] + 1) / 64), block_n
