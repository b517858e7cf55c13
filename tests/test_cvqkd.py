from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracle_cv_conditional import holevo_chi_e
from qlinksim.cvqkd import (
    CvDiagnostics,
    CvProtocolParams,
    PhaseEncodingNoise,
    ThermalLossChannel,
    _detection_noise,
    composable_key_rate,
    holevo_bound,
)
from qlinksim.mathfn import NU_CLAMP_TOL, ber_to_snr_amplitude
from qlinksim.record import RateResult

PARAMS = CvProtocolParams()
NOISE = PhaseEncodingNoise()
NO_LEAK = PhaseEncodingNoise(eps_classical=0.0)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_receiver_efficiency_combines_detector_and_lo_loss():
    assert PARAMS.eta_receiver == pytest.approx(0.5 * 10.0 ** (-0.063), rel=1e-15, abs=0.0)
    assert PARAMS.eta_receiver == pytest.approx(0.4324839593878466, rel=1e-12, abs=0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        CvProtocolParams(v_mod=0.0)
    with pytest.raises(ValueError):
        CvProtocolParams(v_el=-0.1)
    with pytest.raises(ValueError):
        CvProtocolParams(eta_det=1.5)
    with pytest.raises(ValueError):
        CvProtocolParams(eta_lo=0.0)
    with pytest.raises(ValueError):
        CvProtocolParams(ber_target=0.0)
    with pytest.raises(ValueError):
        CvProtocolParams(ber_target=0.7)
    with pytest.raises(ValueError):
        CvProtocolParams(eps_sec=1.0)
    # p_ec^2 eps_sec^4 underflows to 0, or 18 over it overflows, in aep_correction
    for eps_sec in (1e-100, 1e-78):
        with pytest.raises(ValueError, match=f"finite: eps_sec={eps_sec!r}, p_ec=0.9"):
            CvProtocolParams(eps_sec=eps_sec)
    assert math.isfinite(CvProtocolParams(eps_sec=1e-76).aep_correction)
    with pytest.raises(ValueError):
        CvProtocolParams(d_bits=0)
    with pytest.raises(ValueError):
        CvProtocolParams(d_bits=5.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        CvProtocolParams(n_bg=-1e-12)
    # non-finite noise is named at load, not left for a later overflow
    for name in ("v_el", "n_bg"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0: {bad!r}"):
                CvProtocolParams(**{name: bad})
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"eps_classical must be finite and >= 0: {bad!r}"):
            PhaseEncodingNoise(bad)


def test_channel_validation_and_output_variance():
    with pytest.raises(ValueError):
        ThermalLossChannel(-0.1)
    with pytest.raises(ValueError):
        ThermalLossChannel(1.2)
    with pytest.raises(ValueError):
        ThermalLossChannel(0.5, n_thermal=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"n_thermal must be finite and >= 0: {bad!r}"):
            ThermalLossChannel(0.5, n_thermal=bad)
    # V_out = tau V_in + (1 - tau)(2 n + 1): the thermal excess over a pure
    # loss, (1 - tau) 2 n, reaches the detector as background
    ch = ThermalLossChannel(0.3, n_thermal=2.0)
    background = _detection_noise(ch, PARAMS, NOISE)[1]
    assert background == pytest.approx(PARAMS.eta_receiver * 0.7 * 4.0, rel=1e-15, abs=0.0)
    assert _detection_noise(ThermalLossChannel(1.0, n_thermal=2.0), PARAMS, NOISE)[1] == 0.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        PhaseEncodingNoise(eps_classical=-1e-9)


# ---------------------------------------------------------------------------
# displacement-leak noise model
# ---------------------------------------------------------------------------


def test_input_referred_noise_grows_as_loss_deepens():
    # the received displacement power is pinned by the BER target, so the
    # input-referred residual scales roughly inversely with transmissivity
    clear, lossy = ThermalLossChannel(1.0), ThermalLossChannel(0.01)
    eps_hi = _detection_noise(clear, PARAMS, NOISE)[3] / (clear.tau * PARAMS.eta_receiver)
    eps_lo = _detection_noise(lossy, PARAMS, NOISE)[3] / (lossy.tau * PARAMS.eta_receiver)
    assert eps_lo > 30.0 * eps_hi


def test_residual_grows_with_leak_fraction():
    ch = ThermalLossChannel(0.5)
    small = _detection_noise(ch, PARAMS, PhaseEncodingNoise(eps_classical=1e-5))[3]
    large = _detection_noise(ch, PARAMS, PhaseEncodingNoise(eps_classical=4e-5))[3]
    assert 0.0 < small < large
    assert _detection_noise(ch, PARAMS, NO_LEAK)[3] == 0.0


def test_oversized_leak_fraction_is_rejected():
    # at BER 1e-6 the displacement power is ~22.6 SNU per unit noise, so a
    # 5% leak fraction feeds back more noise than the budget can absorb
    greedy = PhaseEncodingNoise(eps_classical=0.05)
    amp = ber_to_snr_amplitude(PARAMS.ber_target)
    assert 0.05 * amp * amp > 1.0
    with pytest.raises(ValueError, match="displacement budget"):
        _detection_noise(ThermalLossChannel(0.5), PARAMS, greedy)


def _displacement(ch, p=PARAMS):
    return composable_key_rate(ch, p, NOISE).diagnostics.displacement_amplitude


def test_displacement_amplitude_behaviour():
    assert _displacement(ThermalLossChannel(0.5), CvProtocolParams(ber_target=0.5)) == 0.0
    # no displacement is sent at BER 1/2, even where a subnormal tau * eta
    # overflows sigma_bit^2 / tau_total and 0 * inf would read NaN
    assert _displacement(ThermalLossChannel(1e-309), CvProtocolParams(ber_target=0.5)) == 0.0
    assert _displacement(ThermalLossChannel(0.0)) == math.inf
    assert _displacement(ThermalLossChannel(0.1, 9.31e-10)) == pytest.approx(
        26.234988953294614, rel=1e-12, abs=0.0
    )


@given(st.floats(min_value=0.01, max_value=0.99))
def test_displacement_shrinks_with_transmissivity(tau):
    big = _displacement(ThermalLossChannel(tau))
    small = _displacement(ThermalLossChannel(min(tau * 1.05, 1.0)))
    assert big > small > 0.0


# ---------------------------------------------------------------------------
# mutual information and the Holevo bound
# ---------------------------------------------------------------------------


def test_snr_and_mutual_information_are_consistent():
    ch = ThermalLossChannel(0.25, 1e-9)
    # the displacement is subtracted; only its residual counts as noise
    tau_total, background, _, residual, _ = _detection_noise(ch, PARAMS, NOISE)
    snr = tau_total * PARAMS.v_mod / (1.0 + PARAMS.v_el + background + residual)
    result = composable_key_rate(ch, PARAMS, NOISE)
    assert result.diagnostics.snr == snr
    assert result.throughput == pytest.approx(
        PARAMS.beta * 0.5 * math.log2(1.0 + snr), rel=1e-15, abs=0.0
    )


@given(st.floats(min_value=0.01, max_value=0.99))
def test_snr_increases_with_transmissivity(tau):
    lo, hi = (
        composable_key_rate(ThermalLossChannel(t), PARAMS, NOISE).diagnostics.snr
        for t in (tau, min(tau * 1.05, 1.0))
    )
    assert hi > lo > 0.0


def test_holevo_identity_channel_leaks_nothing():
    chi, _ = holevo_bound(ThermalLossChannel(1.0, 0.0), PARAMS, 0.0)
    assert abs(chi) <= 1e-9


def test_holevo_requires_transmission():
    ch = ThermalLossChannel(0.0)
    with pytest.raises(ValueError):
        holevo_bound(ch, PARAMS, _detection_noise(ch, PARAMS, NOISE)[3])


def test_holevo_reference_point():
    ch = ThermalLossChannel(0.5, 0.0)
    chi, nus = holevo_bound(ch, PARAMS, _detection_noise(ch, PARAMS, NOISE)[3])
    assert chi == pytest.approx(0.3401908989665945, rel=1e-9, abs=0.0)
    assert len(nus) == 5  # (nu1, nu2) plus three conditioned modes
    assert all(nu >= 1.0 - 1e-9 for nu in nus)


def test_trusted_detector_reduces_to_ideal_closed_form():
    ideal = CvProtocolParams(eta_det=1.0, eta_lo=1.0, v_el=0.0)
    near = CvProtocolParams(eta_det=1.0 - 1e-9, eta_lo=1.0, v_el=0.0)
    for tau in (0.3, 0.7):
        ch = ThermalLossChannel(tau, 0.001)
        chi_ideal, nus_ideal = holevo_bound(ch, ideal, _detection_noise(ch, ideal, NOISE)[3])
        chi_near, _ = holevo_bound(ch, near, _detection_noise(ch, near, NOISE)[3])
        assert chi_ideal == pytest.approx(chi_near, abs=1e-6)
        # conditioning leaves a single mode away from the vacuum
        assert all(abs(nu - 1.0) <= NU_CLAMP_TOL for nu in nus_ideal[3:])


def test_electronic_noise_needs_lossy_detector_model():
    with pytest.raises(ValueError, match="receiver efficiency below 1"):
        CvProtocolParams(eta_det=1.0, eta_lo=1.0, v_el=0.1)
    # a lossy receiver, or a noiseless lossless one, is accepted
    CvProtocolParams(eta_det=1.0, eta_lo=1.0 - 1e-16, v_el=0.1)
    CvProtocolParams(eta_det=1.0, eta_lo=1.0, v_el=0.0)


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.1),
    st.floats(min_value=0.0, max_value=4e-5),
)
# one ulp below the identity channel: nu2 sits on the vacuum boundary, where
# a cancelling eigenvalue formula falls under 1 and the entropy check raises
@example(1 - 2**-53, 0.0, 0.0)
# the conditional eigenvalues sit on the boundary too: a discriminant formed
# as C^2 - 4D cancels there and pushes nu4 under 1 by about 2e-8
@example(1 - 1e-12, 0.0, 0.0)
def test_holevo_bound_never_negative(tau, n_thermal, eps):
    ch = ThermalLossChannel(tau, n_thermal)
    chi, _ = holevo_bound(ch, PARAMS, _detection_noise(ch, PARAMS, PhaseEncodingNoise(eps))[3])
    assert chi >= 0.0


IDEAL_RECEIVER = CvProtocolParams(eta_det=1.0, eta_lo=1.0, v_el=0.0)
NOISY_RECEIVER = CvProtocolParams(eta_det=0.2, v_el=0.5)
# (params, tau, n_thermal, eps_classical): the default receiver, the ideal
# one (eta = 1), a lossy one with large electronic noise, a near-ideal one
# and a stronger modulation, each out to the identity channel
ORACLE_POINTS = [
    (PARAMS, 0.5, 0.0, 3.9e-5),
    (PARAMS, 0.1, 9.31e-10, 3.9e-5),
    (PARAMS, 1e-3, 0.0, 3.9e-5),
    (PARAMS, 1e-5, 0.1, 1e-4),
    (PARAMS, 0.3, 0.05, 1e-5),
    (PARAMS, 0.9, 0.1, 0.0),
    (PARAMS, 1 - 2**-53, 0.0, 0.0),
    (PARAMS, 1 - 1e-12, 0.0, 0.0),
    (PARAMS, 1 - 1e-12, 0.1, 3.9e-5),
    (PARAMS, 1.0, 0.0, 0.0),
    (PARAMS, 1.0, 0.0, 3.9e-5),
    (IDEAL_RECEIVER, 0.5, 0.0, 3.9e-5),
    (IDEAL_RECEIVER, 0.01, 0.1, 1e-5),
    (IDEAL_RECEIVER, 1 - 2**-53, 0.0, 0.0),
    (IDEAL_RECEIVER, 1.0, 0.0, 0.0),
    (NOISY_RECEIVER, 0.7, 0.01, 3.9e-5),
    (NOISY_RECEIVER, 1 - 1e-12, 0.0, 0.0),
    (NOISY_RECEIVER, 1.0, 0.0, 0.0),
    (CvProtocolParams(eta_det=1.0 - 1e-9, eta_lo=1.0, v_el=0.0), 0.3, 0.001, 3.9e-5),
    (CvProtocolParams(v_mod=20.0), 0.05, 0.02, 2e-5),
]


@pytest.mark.parametrize("params, tau, n_thermal, eps", ORACLE_POINTS)
def test_holevo_bound_matches_conditioning_oracle(params, tau, n_thermal, eps):
    want_chi, want_nu_ab, want_nu_cond = holevo_chi_e(
        tau,
        n_thermal,
        eps,
        v_mod=params.v_mod,
        v_el=params.v_el,
        eta=params.eta_receiver,
        ber_target=params.ber_target,
    )
    ch = ThermalLossChannel(tau, n_thermal)
    chi, nus = holevo_bound(ch, params, _detection_noise(ch, params, PhaseEncodingNoise(eps))[3])
    assert abs(chi - float(want_chi)) <= 1e-12
    want_nus = [float(nu) for nu in want_nu_ab + want_nu_cond]
    assert nus == pytest.approx(want_nus, rel=1e-12, abs=0.0)


def test_holevo_grows_with_thermal_occupancy():
    chis = [
        holevo_bound(ThermalLossChannel(0.4, n), PARAMS, 0.0)[0]
        for n in (0.0, 0.05, 0.2)
    ]
    assert chis[0] < chis[1] < chis[2]


# ---------------------------------------------------------------------------
# composable key rate
# ---------------------------------------------------------------------------


def test_finite_size_correction_values():
    assert PARAMS.aep_correction == pytest.approx(
        4.0
        * math.log2(2.0**2.5 + 2.0)
        * math.sqrt(math.log2(18.0 / (0.9**2 * 1e-40))),
        rel=1e-12, abs=0.0,
    )
    assert PARAMS.aep_correction == pytest.approx(137.67124315011603, rel=1e-12, abs=0.0)
    assert PARAMS.theta_correction == pytest.approx(-65.5905649911923, rel=1e-12, abs=0.0)


def test_dead_channel_short_circuits():
    result = composable_key_rate(ThermalLossChannel(0.0), PARAMS, NOISE)
    assert result.key_rate == 0.0
    assert result.signed_rate == -math.inf
    assert result.throughput == 0.0
    assert result.diagnostics.displacement_amplitude == math.inf
    assert result.diagnostics.nus == (1.0,) * 5


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        composable_key_rate(ThermalLossChannel(0.5), PARAMS, NOISE, block_size_n=0.0)


def test_diagnostics_are_the_named_intermediates():
    # each field holds the intermediate it names, recomputed from the helpers
    for n in (math.inf, 1e9):
        for tau in (0.05, 0.1, 0.5):
            ch = ThermalLossChannel(tau, 9.31e-10)
            result = composable_key_rate(ch, PARAMS, NOISE, block_size_n=n)
            tau_total, background, sigma_bit_sq, residual, amp = _detection_noise(ch, PARAMS, NOISE)
            snr = tau_total * PARAMS.v_mod / (1.0 + PARAMS.v_el + background + residual)
            i_ab = 0.5 * math.log2(1.0 + snr)
            chi_e, nus = holevo_bound(ch, PARAMS, residual)
            delta = amp * math.sqrt(sigma_bit_sq / tau_total)
            d = result.diagnostics
            assert (d.snr, d.i_ab, d.chi_e, d.nus, d.displacement_amplitude) == (
                snr, i_ab, chi_e, nus, delta
            )
            assert len({snr, i_ab, chi_e, delta}) == 4, (n, tau)
            assert result.throughput == PARAMS.beta * i_ab
            bracket = PARAMS.beta * i_ab - chi_e
            if n == math.inf:
                assert result.signed_rate == PARAMS.p_ec * bracket
            else:
                assert result.signed_rate < PARAMS.p_ec * bracket / 2.0


def test_asymptotic_reference_point():
    ch = ThermalLossChannel(0.1, 9.31e-10)
    result = composable_key_rate(ch, PARAMS, NOISE)
    assert result.key_rate > 0.0
    assert result.key_rate == pytest.approx(0.0141733153877701, rel=1e-9, abs=0.0)
    assert result.throughput == pytest.approx(0.12674894630090802, rel=1e-9, abs=0.0)
    # internal consistency of the reported diagnostics
    d = result.diagnostics
    assert d.i_ab == pytest.approx(0.5 * math.log2(1.0 + d.snr), rel=1e-12, abs=0.0)
    assert result.key_rate == pytest.approx(
        PARAMS.p_ec * (PARAMS.beta * d.i_ab - d.chi_e), rel=1e-12, abs=0.0
    )
    assert result.throughput == pytest.approx(PARAMS.beta * d.i_ab, rel=1e-12, abs=0.0)


def test_finite_block_reference_point():
    ch = ThermalLossChannel(0.1, 9.31e-10)
    result = composable_key_rate(ch, PARAMS, NOISE, block_size_n=1e9)
    assert result.key_rate > 0.0
    assert result.key_rate == pytest.approx(4.316136401318486e-3, rel=1e-9, abs=0.0)
    # half the rounds go to estimation and the AEP penalty dominates
    n_key = 5e8
    expected = 0.9 * 0.5 * (
        PARAMS.beta * result.diagnostics.i_ab
        - result.diagnostics.chi_e
        - PARAMS.aep_correction / math.sqrt(n_key)
        - PARAMS.theta_correction / n_key
    )
    assert result.key_rate == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_finite_rates_increase_with_block_size():
    ch = ThermalLossChannel(0.1, 9.31e-10)
    rates = [
        composable_key_rate(ch, PARAMS, NOISE, block_size_n=n).key_rate
        for n in (1e9, 1e10, 1e11)
    ]
    asym = composable_key_rate(ch, PARAMS, NOISE).key_rate
    assert rates[0] < rates[1] < rates[2] < asym


@given(
    st.floats(min_value=0.001, max_value=1.0),
    st.floats(min_value=8.0, max_value=14.0),
)
def test_finite_never_exceeds_asymptotic(tau, log_n):
    ch = ThermalLossChannel(tau, 9.31e-10)
    finite = composable_key_rate(ch, PARAMS, NOISE, block_size_n=10.0**log_n)
    asym = composable_key_rate(ch, PARAMS, NOISE)
    assert finite.key_rate <= asym.key_rate + 1e-15


@given(st.floats(min_value=0.02, max_value=0.95))
def test_key_rate_increases_with_transmissivity(tau):
    lo = composable_key_rate(ThermalLossChannel(tau), PARAMS, NOISE)
    hi = composable_key_rate(ThermalLossChannel(tau * 1.05), PARAMS, NOISE)
    if lo.key_rate > 0.0:
        assert hi.key_rate > lo.key_rate


def test_deep_loss_is_insecure_even_asymptotically():
    # the input-referred displacement residual grows ~1/tau and crosses
    # the Holevo budget at finite loss
    result = composable_key_rate(ThermalLossChannel(1e-4, 0.0), PARAMS, NOISE)
    assert result.key_rate == 0.0
    assert result.signed_rate < 0.0


@pytest.mark.parametrize("tau", [1e-315, 1e-320, 5e-324])
def test_subnormal_transmissivity_raises_naming_tau(tau):
    # tau * eta rounds to 0 at 5e-324; above it the excess noise overflows
    with pytest.raises(ValueError, match=f"^tau={tau!r} is too small"):
        composable_key_rate(ThermalLossChannel(tau, 9.31e-10), PARAMS, NOISE)
    # the smallest normal double still evaluates
    floor = ThermalLossChannel(sys.float_info.min, 9.31e-10)
    assert composable_key_rate(floor, PARAMS, NOISE).key_rate == 0.0


def test_result_validation():
    diag = CvDiagnostics(
        snr=1.0, i_ab=0.5, chi_e=0.1, nus=(1.0,) * 5, displacement_amplitude=1.0
    )
    result = RateResult(signed_rate=-0.1, throughput=0.5, diagnostics=diag)
    # the key rate is the signed rate clamped at 0, and nothing else
    assert result.key_rate == 0.0
    assert RateResult(signed_rate=0.2, throughput=0.5, diagnostics=diag).key_rate == 0.2
    with pytest.raises(ValueError, match="must not be NaN: nan"):
        RateResult(signed_rate=math.nan, throughput=0.5, diagnostics=diag)
    for throughput in (-0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"throughput must be >= 0: {throughput!r}"):
            RateResult(signed_rate=0.1, throughput=throughput, diagnostics=diag)