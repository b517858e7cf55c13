from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinksim.dvqkd import (
    DecoyProtocolParams,
    DvRateResult,
    DvDiagnostics,
    FiniteSizeConfig,
    NoSinglePhotonSignal,
    decoy_bounds,
    finite_key_rate,
    gains_and_qber,
    qsdc_payload_rate,
)

PARAMS = DecoyProtocolParams()
ASYMPTOTIC = FiniteSizeConfig()


def poisson_channel_oracle(
    eta: float, params: DecoyProtocolParams, intensity: float, n_max: int = 80
) -> tuple[float, float]:
    """Gain and QBER from an explicit photon-number expansion.

    Independent of the closed forms under test: sums Poisson weights
    against per-photon-number yields Y_n = Y0 + 1 - (1-eta)^n and error
    weights e0 Y0 + e_mis (1 - (1-eta)^n).
    """
    gain = 0.0
    err_gain = 0.0
    log_pn = -intensity  # log of the n = 0 Poisson weight
    for n in range(n_max + 1):
        p_n = math.exp(log_pn)
        click = 1.0 - (1.0 - eta) ** n
        gain += p_n * (params.y0 + click)
        err_gain += p_n * (params.e0 * params.y0 + params.e_mis * click)
        log_pn += math.log(intensity) - math.log(n + 1) if intensity > 0 else -math.inf
    if gain == 0.0:
        return 0.0, params.e0
    return gain, err_gain / gain


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------


def test_gain_dark_channel_is_background_only():
    gain, qber = gains_and_qber(0.0, PARAMS, PARAMS.mu)
    assert gain == pytest.approx(PARAMS.y0, rel=1e-12)
    assert qber == pytest.approx(0.5, rel=1e-12)


def test_gain_lossless_clean_source():
    clean = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0)
    gain, qber = gains_and_qber(1.0, clean, 0.6)
    assert gain == pytest.approx(-math.expm1(-0.6), rel=1e-12)
    assert gain == pytest.approx(0.4511883639059736, rel=1e-12)
    assert qber == pytest.approx(clean.e_mis, rel=1e-12)


def test_gain_zero_everything_returns_e0():
    silent = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0)
    gain, qber = gains_and_qber(0.0, silent, 0.6)
    assert gain == 0.0
    assert qber == silent.e0


def test_gain_ordering_by_intensity():
    gain_mu, _ = gains_and_qber(0.05, PARAMS, PARAMS.mu)
    gain_nu, _ = gains_and_qber(0.05, PARAMS, PARAMS.nu)
    gain_vac, _ = gains_and_qber(0.05, PARAMS, 0.0)
    assert gain_mu > gain_nu > gain_vac == pytest.approx(PARAMS.y0, rel=1e-12)


def test_gain_validation():
    with pytest.raises(ValueError):
        gains_and_qber(-0.1, PARAMS, 0.6)
    with pytest.raises(ValueError):
        gains_and_qber(1.1, PARAMS, 0.6)
    with pytest.raises(ValueError):
        gains_and_qber(0.5, PARAMS, -0.2)


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.2),
)
def test_gain_matches_photon_number_expansion(eta, intensity):
    gain, qber = gains_and_qber(eta, PARAMS, intensity)
    oracle_gain, oracle_qber = poisson_channel_oracle(eta, PARAMS, intensity)
    assert gain == pytest.approx(oracle_gain, rel=1e-9)
    assert qber == pytest.approx(oracle_qber, rel=1e-9)


# ---------------------------------------------------------------------------
# decoy bounds
# ---------------------------------------------------------------------------


def test_decoy_bounds_lossless_clean_source():
    clean = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0, e_mis=0.0)
    gain_mu, _ = gains_and_qber(1.0, clean, clean.mu)
    gain_nu, qber_nu = gains_and_qber(1.0, clean, clean.nu)
    y1, e1 = decoy_bounds(gain_mu, gain_nu, clean.y0, qber_nu, clean)
    # true single-photon yield is 1; the two-decoy bound lands just below
    assert y1 == pytest.approx(0.9754216858758499, rel=1e-12)
    assert 0.9 < y1 <= 1.0
    assert e1 == 0.0


def test_decoy_bounds_reject_bad_inputs():
    with pytest.raises(ValueError):
        decoy_bounds(1.2, 0.1, 0.0, 0.01, PARAMS)
    with pytest.raises(ValueError):
        decoy_bounds(0.1, -0.1, 0.0, 0.01, PARAMS)
    with pytest.raises(ValueError):
        decoy_bounds(0.1, 0.05, 0.0, 1.5, PARAMS)


def test_decoy_bounds_raise_when_yield_not_certifiable():
    # a signal gain far above the weak-decoy gain drives the bound negative
    with pytest.raises(NoSinglePhotonSignal):
        decoy_bounds(0.9, 1e-6, 0.0, 0.01, PARAMS)


def test_decoy_bounds_bracket_truth_randomized():
    rng = random.Random(20260815)
    for _ in range(200):
        eta = 10.0 ** rng.uniform(-5, 0)
        params = DecoyProtocolParams(
            mu=rng.uniform(0.3, 1.0),
            nu=rng.uniform(0.05, 0.25),
            y0_stray=rng.uniform(0.0, 1e-3),
            y0_dark=rng.uniform(0.0, 1e-5),
            e_mis=rng.uniform(0.0, 0.05),
        )
        gain_mu, _ = gains_and_qber(eta, params, params.mu)
        gain_nu, qber_nu = gains_and_qber(eta, params, params.nu)
        y1, e1 = decoy_bounds(gain_mu, gain_nu, params.y0, qber_nu, params)
        y1_true = params.y0 + eta
        e1_true = (params.e0 * params.y0 + params.e_mis * eta) / y1_true
        assert y1 <= y1_true + 1e-12
        assert e1 >= min(e1_true, 1.0) - 1e-12
        assert 0.0 < y1 <= 1.0
        assert 0.0 <= e1 <= 1.0


# ---------------------------------------------------------------------------
# payload throughput
# ---------------------------------------------------------------------------


def test_payload_zero_when_background_dominates():
    # QBER near 1/2 makes the net coding rate negative, clamped to zero
    assert qsdc_payload_rate(0.0, PARAMS) == 0.0


def test_payload_clean_lossless_value():
    clean = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0)
    gain = -math.expm1(-clean.mu)
    expected = 0.9 * gain * (1.0 - 1.05 * (-(0.01 * math.log2(0.01)) - 0.99 * math.log2(0.99)))
    assert qsdc_payload_rate(1.0, clean) == pytest.approx(expected, rel=1e-12)


@given(st.floats(min_value=3e-3, max_value=0.99))
def test_payload_increases_with_transmissivity(eta):
    low = qsdc_payload_rate(eta, PARAMS)
    high = qsdc_payload_rate(eta * 1.01, PARAMS)
    if low > 0.0:
        assert high > low


# ---------------------------------------------------------------------------
# finite-size key rates
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FiniteSizeConfig(block_size_n=0.0)
    with pytest.raises(ValueError):
        FiniteSizeConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FiniteSizeConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        FiniteSizeConfig(p_mu=0.7, p_nu=0.3)
    assert FiniteSizeConfig().is_asymptotic
    assert not FiniteSizeConfig(block_size_n=1e9).is_asymptotic


def test_params_validation():
    with pytest.raises(ValueError):
        DecoyProtocolParams(mu=0.2, nu=0.2)
    with pytest.raises(ValueError):
        DecoyProtocolParams(mu=0.2, nu=0.4)
    with pytest.raises(ValueError):
        DecoyProtocolParams(nu=0.0)
    with pytest.raises(ValueError):
        DecoyProtocolParams(eta_receiver=1.5)
    with pytest.raises(ValueError):
        DecoyProtocolParams(f_ec=0.9)
    with pytest.raises(ValueError):
        DecoyProtocolParams(y0_stray=-1e-4)


def test_result_rejects_negative_rates():
    diag = DvDiagnostics(q_mu=0.1, e_mu=0.01, y1_lower=0.5, e1_upper=0.02)
    with pytest.raises(ValueError):
        DvRateResult(key_rate=-1e-9, payload_rate=0.0, secure=False, diagnostics=diag)


def test_asymptotic_rate_reference_point():
    result = finite_key_rate(0.01, PARAMS, ASYMPTOTIC)
    assert result.secure
    assert result.key_rate == pytest.approx(7.248252822529552e-4, rel=1e-9)
    assert result.payload_rate == pytest.approx(4.5484585764362815e-3, rel=1e-9)


def test_finite_rates_increase_with_block_size():
    rates = [
        finite_key_rate(0.01, PARAMS, FiniteSizeConfig(block_size_n=n)).key_rate
        for n in (1e9, 1e10, 1e11)
    ]
    asym = finite_key_rate(0.01, PARAMS, ASYMPTOTIC).key_rate
    assert rates[0] < rates[1] < rates[2] < asym


def test_huge_block_approaches_asymptotic():
    rng = random.Random(7)
    checked = 0
    for _ in range(500):
        eta = 10.0 ** rng.uniform(-4, 0)
        asym = finite_key_rate(eta, PARAMS, ASYMPTOTIC).key_rate
        if asym <= 1e-6:
            continue
        finite = finite_key_rate(
            eta, PARAMS, FiniteSizeConfig(block_size_n=1e15)
        ).key_rate
        assert finite == pytest.approx(asym, rel=0.05)
        checked += 1
    assert checked > 100


@given(
    st.floats(min_value=1e-5, max_value=1.0),
    st.floats(min_value=8.0, max_value=14.0),
)
def test_finite_never_exceeds_asymptotic(eta, log_n):
    fs = FiniteSizeConfig(block_size_n=10.0**log_n)
    finite = finite_key_rate(eta, PARAMS, fs)
    asym = finite_key_rate(eta, PARAMS, ASYMPTOTIC)
    assert finite.key_rate <= asym.key_rate + 1e-15
    assert finite.payload_rate == asym.payload_rate


@given(st.floats(min_value=2e-3, max_value=0.9))
def test_asymptotic_rate_increases_with_transmissivity(eta):
    low = finite_key_rate(eta, PARAMS, ASYMPTOTIC)
    high = finite_key_rate(eta * 1.1, PARAMS, ASYMPTOTIC)
    if low.key_rate > 0.0:
        assert high.key_rate > low.key_rate


def test_high_misalignment_is_insecure_but_reported():
    noisy = DecoyProtocolParams(e_mis=0.3)
    result = finite_key_rate(0.5, noisy, ASYMPTOTIC)
    assert result.key_rate == 0.0
    assert not result.secure
    assert result.diagnostics.q_mu > 0.0
    assert result.diagnostics.e1_upper > 0.25


def test_dark_channel_is_insecure_with_zero_rate():
    result = finite_key_rate(0.0, PARAMS, ASYMPTOTIC)
    assert result.key_rate == 0.0
    assert not result.secure
    # background clicks still occur, so the throughput diagnostics survive
    assert result.diagnostics.q_mu == pytest.approx(PARAMS.y0, rel=1e-12)


def test_small_block_at_low_transmissivity_is_insecure():
    # statistical penalties swamp the signal for short blocks on lossy links
    eta = 0.01
    small = finite_key_rate(eta, PARAMS, FiniteSizeConfig(block_size_n=1e6))
    asym = finite_key_rate(eta, PARAMS, ASYMPTOTIC)
    assert not small.secure
    assert small.key_rate == 0.0
    assert asym.secure
