from __future__ import annotations

import math
import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qlinksim.dvqkd import (
    DecoyProtocolParams,
    DvDiagnostics,
    FiniteSizeConfig,
    decoy_bounds,
    finite_key_rate,
    gains_and_qber,
)
from qlinksim.mathfn import binary_entropy, hoeffding_deviation
from qlinksim.record import RateResult

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
    assert gain == pytest.approx(PARAMS.y0, rel=1e-12, abs=0.0)
    assert qber == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_gain_lossless_clean_source():
    clean = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0)
    gain, qber = gains_and_qber(1.0, clean, 0.6)
    assert gain == pytest.approx(-math.expm1(-0.6), rel=1e-12, abs=0.0)
    assert gain == pytest.approx(0.4511883639059736, rel=1e-12, abs=0.0)
    assert qber == pytest.approx(clean.e_mis, rel=1e-12, abs=0.0)


def test_gain_zero_everything_returns_e0():
    silent = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0)
    gain, qber = gains_and_qber(0.0, silent, 0.6)
    assert gain == 0.0
    assert qber == silent.e0


def test_gain_ordering_by_intensity():
    gain_mu, _ = gains_and_qber(0.05, PARAMS, PARAMS.mu)
    gain_nu, _ = gains_and_qber(0.05, PARAMS, PARAMS.nu)
    gain_vac, _ = gains_and_qber(0.05, PARAMS, 0.0)
    assert gain_mu > gain_nu > gain_vac == pytest.approx(PARAMS.y0, rel=1e-12, abs=0.0)


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
    assert gain == pytest.approx(oracle_gain, rel=1e-9, abs=0.0)
    assert qber == pytest.approx(oracle_qber, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# decoy bounds
# ---------------------------------------------------------------------------


def test_decoy_bounds_lossless_clean_source():
    clean = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0, e_mis=0.0)
    gain_mu, _ = gains_and_qber(1.0, clean, clean.mu)
    gain_nu, qber_nu = gains_and_qber(1.0, clean, clean.nu)
    y1, e1 = decoy_bounds(gain_mu, gain_nu, clean.y0, qber_nu, clean)
    # true single-photon yield is 1; the two-decoy bound lands just below
    assert y1 == pytest.approx(0.9754216858758499, rel=1e-12, abs=0.0)
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
    # a signal gain far above the weak-decoy gain drives the bound negative:
    # it certifies nothing, and the trivial bounds are returned
    assert decoy_bounds(0.9, 1e-6, 0.0, 0.01, PARAMS) == (0.0, 1.0)


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


def payload_rate(eta: float, params: DecoyProtocolParams) -> float:
    return finite_key_rate(eta, params, FiniteSizeConfig()).throughput


def test_payload_zero_when_background_dominates():
    # QBER near 1/2 makes the net coding rate negative, clamped to zero
    assert payload_rate(0.0, PARAMS) == 0.0


def test_payload_clean_lossless_value():
    clean = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0)
    gain = -math.expm1(-clean.mu)
    expected = 0.9 * gain * (1.0 - 1.05 * (-(0.01 * math.log2(0.01)) - 0.99 * math.log2(0.99)))
    assert payload_rate(1.0, clean) == pytest.approx(expected, rel=1e-12, abs=0.0)


@given(st.floats(min_value=3e-3, max_value=0.99))
def test_payload_increases_with_transmissivity(eta):
    low = payload_rate(eta, PARAMS)
    high = payload_rate(eta * 1.01, PARAMS)
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


def test_params_validation():
    with pytest.raises(ValueError):
        DecoyProtocolParams(mu=0.2, nu=0.2)
    with pytest.raises(ValueError):
        DecoyProtocolParams(mu=0.2, nu=0.4)
    with pytest.raises(ValueError):
        DecoyProtocolParams(nu=0.0)
    # mu nu - nu^2 underflows to 0, or mu over it overflows, in decoy_bounds' prefactor
    for mu, nu in ((1e-300, 1e-301), (0.6, 1e-320), (0.6, 5e-324)):
        with pytest.raises(ValueError, match=f"prefactor .* finite: inf at mu={mu!r}, nu={nu!r}"):
            DecoyProtocolParams(mu=mu, nu=nu)
    for mu, nu in ((1e-160, 1e-161), (0.6, 1e-300)):
        params = DecoyProtocolParams(mu=mu, nu=nu)
        assert finite_key_rate(0.5, params, ASYMPTOTIC).key_rate >= 0.0
    with pytest.raises(ValueError):
        DecoyProtocolParams(eta_receiver=1.5)
    with pytest.raises(ValueError):
        DecoyProtocolParams(f_ec=0.9)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"f_ec must be finite and >= 1: {bad!r}"):
            DecoyProtocolParams(f_ec=bad)
    with pytest.raises(ValueError):
        DecoyProtocolParams(y0_stray=-1e-4)
    # each yield lies in [0, 1], but this pair gave Q_mu = 1.0512 at eta = 1
    with pytest.raises(ValueError, match="signal gain at eta = 1, must be <= 1: 1.05119"):
        DecoyProtocolParams(y0_stray=0.6)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@pytest.mark.parametrize("mu", [0.01, 0.5, 0.6, 1.5, 5.0, 40.0])
def test_background_yield_keeps_every_gain_a_probability(mu):
    def accepts(bits: int) -> bool:
        try:
            DecoyProtocolParams(mu=mu, nu=mu / 3.0, y0_stray=_float(bits), y0_dark=0.0)
        except ValueError:
            return False
        return True

    # the largest y0_stray the record accepts, to the last bit, by bisection
    # on the bit patterns of [0, 1]: 0 is accepted, 1 is not
    lo, hi = _bits(0.0), _bits(1.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    y0 = _float(lo)
    edge = DecoyProtocolParams(mu=mu, nu=mu / 3.0, y0_stray=y0, y0_dark=0.0)
    with pytest.raises(ValueError):
        edge.replace(y0_stray=math.nextafter(y0, 1.0))
    for intensity in (edge.mu, edge.nu, 0.0):
        assert gains_and_qber(1.0, edge, intensity)[0] <= 1.0


def test_result_rejects_negative_rates():
    diag = DvDiagnostics(q_mu=0.1, e_mu=0.01, y1_lower=0.5, e1_upper=0.02)
    with pytest.raises(ValueError, match="throughput must be >= 0"):
        RateResult(signed_rate=1e-9, throughput=-1e-9, diagnostics=diag)
    # the key rate is the signed rate clamped at 0, and nothing else
    assert RateResult(signed_rate=-math.inf, throughput=0.0, diagnostics=diag).key_rate == 0.0
    assert RateResult(signed_rate=-1e-9, throughput=0.0, diagnostics=diag).key_rate == 0.0
    assert RateResult(signed_rate=1e-9, throughput=0.0, diagnostics=diag).key_rate == 1e-9


def test_diagnostics_are_the_named_intermediates():
    # each field holds the intermediate it names, from the helper that forms it
    for fs in (ASYMPTOTIC, FiniteSizeConfig(block_size_n=1e10)):
        for eta in (0.003, 0.01, 0.1):
            result = finite_key_rate(eta, PARAMS, fs)
            gain_mu, qber_mu = gains_and_qber(eta, PARAMS, PARAMS.mu)
            gain_nu, qber_nu = gains_and_qber(eta, PARAMS, PARAMS.nu)
            qber_nu_hi = min(qber_nu + hoeffding_deviation(fs.pulses_nu * gain_nu, fs.epsilon), 1.0)
            y1, e1 = decoy_bounds(
                min(gain_mu + fs.deviation_mu, 1.0),
                max(gain_nu - fs.deviation_nu, 0.0),
                PARAMS.y0,
                qber_nu_hi,
                PARAMS,
            )
            q1 = y1 * PARAMS.mu * PARAMS.exp_neg_mu
            e1_ph = min(e1 + hoeffding_deviation(fs.pulses_mu * q1, fs.epsilon), 0.5)
            d = result.diagnostics
            assert (d.q_mu, d.e_mu, d.y1_lower, d.e1_upper) == (gain_mu, qber_mu, y1, e1_ph)
            assert len({gain_mu, qber_mu, y1, e1_ph}) == 4, (fs, eta)
            payload = (1.0 - PARAMS.check_fraction) * gain_mu * (
                1.0 - PARAMS.f_ec * binary_entropy(qber_mu)
            )
            assert result.throughput == payload
            assert result.signed_rate == PARAMS.sift_q * (
                q1 * (1.0 - binary_entropy(e1_ph))
                - gain_mu * PARAMS.f_ec * binary_entropy(qber_mu)
                - fs.composable_term
            )


def test_asymptotic_rate_reference_point():
    result = finite_key_rate(0.01, PARAMS, ASYMPTOTIC)
    assert result.key_rate > 0.0
    assert result.key_rate == pytest.approx(7.248252822529552e-4, rel=1e-9, abs=0.0)
    assert result.throughput == pytest.approx(4.5484585764362815e-3, rel=1e-9, abs=0.0)


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
        assert finite == pytest.approx(asym, rel=0.05, abs=0.0)
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
    assert finite.throughput == asym.throughput


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
    assert result.signed_rate < 0.0
    assert result.diagnostics.q_mu > 0.0
    assert result.diagnostics.e1_upper > 0.25


def test_dark_channel_is_insecure_with_zero_rate():
    result = finite_key_rate(0.0, PARAMS, ASYMPTOTIC)
    assert result.key_rate == 0.0
    assert result.signed_rate < 0.0
    # background clicks still occur, so the throughput diagnostics survive
    assert result.diagnostics.q_mu == pytest.approx(PARAMS.y0, rel=1e-12, abs=0.0)


def test_small_block_at_low_transmissivity_is_insecure():
    # statistical penalties swamp the signal for short blocks on lossy links
    eta = 0.01
    small = finite_key_rate(eta, PARAMS, FiniteSizeConfig(block_size_n=1e6))
    asym = finite_key_rate(eta, PARAMS, ASYMPTOTIC)
    assert small.key_rate == 0.0
    assert asym.key_rate > 0.0


# ---------------------------------------------------------------------------
# one formula for every block size
# ---------------------------------------------------------------------------


@st.composite
def decoy_params(draw):
    nu = draw(st.floats(min_value=0.01, max_value=0.5))
    return DecoyProtocolParams(
        mu=draw(st.floats(min_value=nu * 1.01, max_value=1.5)),
        nu=nu,
        e0=draw(st.floats(min_value=0.0, max_value=1.0)),
        # background yields small enough that every gain stays a probability
        y0_stray=draw(st.floats(min_value=0.0, max_value=1e-2)),
        y0_dark=draw(st.floats(min_value=0.0, max_value=1e-4)),
        f_ec=draw(st.floats(min_value=1.0, max_value=2.0)),
        e_mis=draw(st.floats(min_value=0.0, max_value=0.5)),
        sift_q=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)),
        check_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


def asymptotic_reference(eta: float, params: DecoyProtocolParams) -> float:
    """The asymptotic key rate as its own expression, on the unshifted gains.

    sift_q (Q1 (1 - h(min(e1, 1/2))) - Q_mu f_ec h(E_mu)), -inf where the
    decoy bound certifies no single-photon yield.
    """
    gain_mu, qber_mu = gains_and_qber(eta, params, params.mu)
    gain_nu, qber_nu = gains_and_qber(eta, params, params.nu)
    y1, e1 = decoy_bounds(gain_mu, gain_nu, params.y0, qber_nu, params)
    if y1 == 0.0:
        return -math.inf
    q1 = y1 * params.mu * math.exp(-params.mu)
    return params.sift_q * (
        q1 * (1.0 - binary_entropy(min(e1, 0.5)))
        - gain_mu * params.f_ec * binary_entropy(qber_mu)
    )


@given(decoy_params(), st.floats(min_value=0.0, max_value=1.0))
@example(PARAMS, 0.01)
@example(DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0), 0.0)
def test_infinite_block_is_the_asymptotic_expression_bit_for_bit(params, eta):
    result = finite_key_rate(eta, params, ASYMPTOTIC)
    reference = asymptotic_reference(eta, params)
    assert result.signed_rate.hex() == reference.hex()
    assert result.key_rate == max(reference, 0.0)
    gain_mu, qber_mu = gains_and_qber(eta, params, params.mu)
    payload = (1.0 - params.check_fraction) * gain_mu * (1.0 - params.f_ec * binary_entropy(qber_mu))
    assert result.throughput == max(payload, 0.0)


@given(
    decoy_params(),
    st.floats(min_value=0.0, max_value=1.0),
    st.just(math.inf) | st.floats(min_value=1.0, max_value=1e16),
)
# no sifted key: the rate is 0 for every block, so no block is secure
@example(DecoyProtocolParams(sift_q=0.0), 0.1 * PARAMS.eta_receiver, 1e9)
@example(DecoyProtocolParams(sift_q=0.0), 0.1 * PARAMS.eta_receiver, math.inf)
def test_secure_exactly_when_the_key_rate_is_positive(params, eta, block_n):
    result = finite_key_rate(eta, params, FiniteSizeConfig(block_size_n=block_n))
    assert (result.key_rate > 0.0) == (result.signed_rate > 0.0)
    if params.sift_q == 0.0:
        assert not result.key_rate > 0.0


@pytest.mark.parametrize("block_n", [1e9, math.inf])
def test_zero_detections_are_insecure_without_nan(block_n):
    # no background and no light: no pulse clicks, even in an infinite block,
    # where the detection count would be 0 * inf = NaN if it were formed
    silent = DecoyProtocolParams(y0_stray=0.0, y0_dark=0.0)
    result = finite_key_rate(0.0, silent, FiniteSizeConfig(block_size_n=block_n))
    assert result == RateResult(
        signed_rate=-math.inf,
        throughput=0.0,
        diagnostics=DvDiagnostics(q_mu=0.0, e_mu=silent.e0, y1_lower=0.0, e1_upper=1.0),
    )
