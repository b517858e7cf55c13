"""Two-decoy-state BB84 key rates and direct-transmission payload rates.

Channel model: Poissonian sources of signal/weak/vacuum intensity over a
transmissivity eta_total (optical channel times receiver efficiency),
with an intensity-independent background yield Y0 and misalignment
error.  Single-photon yield and error are bounded by the standard
two-decoy estimates; the finite-size recipe shifts each observed count
by a Hoeffding deviation in its worst-case direction and subtracts a
fixed composable correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mathfn import binary_entropy, hoeffding_delta

__all__ = [
    "DecoyProtocolParams",
    "FiniteSizeConfig",
    "DvDiagnostics",
    "DvRateResult",
    "NoSinglePhotonSignal",
    "gains_and_qber",
    "decoy_bounds",
    "finite_key_rate",
    "qsdc_payload_rate",
]


class NoSinglePhotonSignal(ValueError):
    """Raised when the decoy bound certifies no extractable single-photon yield."""


@dataclass(frozen=True)
class DecoyProtocolParams:
    """Source, detector and post-processing parameters of the decoy protocol.

    mu, nu are mean photon numbers of the signal and weak-decoy pulses;
    the third intensity is vacuum.  y0_stray and y0_dark add up to the
    background yield Y0, a device constant that stands in for the vacuum
    gain Q_0.  check_fraction is the fraction of direct-transmission
    rounds spent on eavesdropping checks.
    """

    mu: float = 0.6
    nu: float = 0.2
    eta_receiver: float = 0.2
    e0: float = 0.5
    y0_stray: float = 2e-4
    y0_dark: float = 2.4e-6
    f_ec: float = 1.05
    e_mis: float = 0.01  # conventional bench misalignment
    sift_q: float = 0.5  # symmetric-basis sifting
    check_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not self.mu > self.nu > 0.0:
            raise ValueError("intensities must satisfy mu > nu > 0")
        for name in ("eta_receiver", "e0", "e_mis", "sift_q", "check_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]: {value!r}")
        for name in ("y0_stray", "y0_dark"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]: {value!r}")
        if self.f_ec < 1.0:
            raise ValueError(f"error-correction efficiency must be >= 1: {self.f_ec!r}")

    @property
    def y0(self) -> float:
        return self.y0_stray + self.y0_dark


@dataclass(frozen=True)
class FiniteSizeConfig:
    """Block size, failure budget and intensity schedule of one run."""

    block_size_n: float = math.inf
    epsilon: float = 1e-10
    p_mu: float = 0.5
    p_nu: float = 0.25

    def __post_init__(self) -> None:
        if not self.block_size_n > 0:
            raise ValueError(f"block size must be > 0: {self.block_size_n!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1): {self.epsilon!r}")
        for name in ("p_mu", "p_nu"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        # the vacuum pulses take the rest of the schedule
        if not self.p_mu + self.p_nu < 1.0:
            raise ValueError(f"p_mu + p_nu must be < 1: {self.p_mu + self.p_nu!r}")

    @property
    def is_asymptotic(self) -> bool:
        return math.isinf(self.block_size_n)


@dataclass(frozen=True)
class DvDiagnostics:
    q_mu: float
    e_mu: float
    y1_lower: float
    e1_upper: float


@dataclass(frozen=True)
class DvRateResult:
    key_rate: float
    payload_rate: float
    secure: bool
    diagnostics: DvDiagnostics

    def __post_init__(self) -> None:
        if self.key_rate < 0.0 or self.payload_rate < 0.0:
            raise ValueError("rates are clamped at 0 and cannot be negative")


def gains_and_qber(
    eta_total: float, params: DecoyProtocolParams, intensity: float
) -> tuple[float, float]:
    """Observed gain and QBER of a Poissonian pulse of the given intensity.

    Q_k = Y0 + 1 - exp(-eta * k); the error-weighted gain is
    E_k Q_k = e0 Y0 + e_mis (1 - exp(-eta * k)).
    """
    if not 0.0 <= eta_total <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1]: {eta_total!r}")
    if intensity < 0.0:
        raise ValueError(f"intensity must be >= 0: {intensity!r}")
    click = -math.expm1(-eta_total * intensity)  # 1 - exp(-eta k)
    gain = params.y0 + click
    if gain == 0.0:
        return 0.0, params.e0
    qber = (params.e0 * params.y0 + params.e_mis * click) / gain
    return gain, qber


def decoy_bounds(
    gain_mu: float,
    gain_nu: float,
    gain_vac: float,
    qber_nu: float,
    params: DecoyProtocolParams,
) -> tuple[float, float]:
    """Two-decoy lower bound on Y1 and upper bound on e1.

    Y1 >= mu/(mu nu - nu^2) * (Q_nu e^nu - Q_mu e^mu nu^2/mu^2
          - (mu^2 - nu^2)/mu^2 * Y0)
    e1 <= (E_nu Q_nu e^nu - e0 Y0) / (Y1 nu)

    gain_vac is the vacuum-decoy estimate of Y0.  Both bounds clamp to
    [0, 1].  Raises NoSinglePhotonSignal when the Y1 bound is <= 0.
    """
    for name, value in (("gain_mu", gain_mu), ("gain_nu", gain_nu), ("gain_vac", gain_vac)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]: {value!r}")
    if not 0.0 <= qber_nu <= 1.0:
        raise ValueError(f"qber_nu must lie in [0, 1]: {qber_nu!r}")
    mu, nu = params.mu, params.nu
    y0 = gain_vac
    y1 = (mu / (mu * nu - nu * nu)) * (
        gain_nu * math.exp(nu)
        - gain_mu * math.exp(mu) * (nu * nu) / (mu * mu)
        - ((mu * mu - nu * nu) / (mu * mu)) * y0
    )
    if y1 <= 0.0:
        raise NoSinglePhotonSignal("two-decoy bound certifies no single-photon yield")
    y1 = min(y1, 1.0)
    e1_num = qber_nu * gain_nu * math.exp(nu) - params.e0 * y0
    e1 = e1_num / (y1 * nu)
    e1 = min(max(e1, 0.0), 1.0)
    return y1, e1


def qsdc_payload_rate(eta_total: float, params: DecoyProtocolParams) -> float:
    """Net direct-transmission payload in bits per use.

    payload = (1 - check_fraction) * Q_mu * (1 - f_ec * h(E_mu)), clamped
    at 0.  This is a throughput model for the message-carrying mode of
    the protocol, not a security bound.
    """
    gain, qber = gains_and_qber(eta_total, params, params.mu)
    payload = (1.0 - params.check_fraction) * gain * (1.0 - params.f_ec * binary_entropy(qber))
    return max(payload, 0.0)


def _insecure(eta_total: float, params: DecoyProtocolParams) -> DvRateResult:
    gain_mu, qber_mu = gains_and_qber(eta_total, params, params.mu)
    return DvRateResult(
        key_rate=0.0,
        payload_rate=qsdc_payload_rate(eta_total, params),
        secure=False,
        diagnostics=DvDiagnostics(q_mu=gain_mu, e_mu=qber_mu, y1_lower=0.0, e1_upper=1.0),
    )


def finite_key_rate(
    eta_total: float,
    params: DecoyProtocolParams,
    fs: FiniteSizeConfig,
) -> DvRateResult:
    """Composable finite-size key rate in bits per signal pulse.

    Observed gains are shifted by Hoeffding deviations in the worst-case
    direction before entering the decoy bounds: the weak-decoy gain down
    and signal gain up (per-intensity pulse counts), the weak-decoy QBER
    up (over its detected sample), and the single-photon phase error up
    (over the bounded single-photon sample).  The background yield Y0 is
    a device-characterized constant and is not shifted.  The key length

        l = n_mu_1 (1 - h(e1_ph)) - f_ec n_mu h(E_mu) - 6 log2(19/eps)

    is normalized per signal pulse: rate = sift_q * l / (N p_mu), which
    reduces to sift_q * (Q1 (1 - h(e1)) - f_ec Q_mu h(E_mu)) as N grows.
    The asymptotic configuration evaluates that limit directly.
    """
    gain_mu, qber_mu = gains_and_qber(eta_total, params, params.mu)
    gain_nu, qber_nu = gains_and_qber(eta_total, params, params.nu)
    y0 = params.y0  # vacuum-intensity gain: Q_0 = Y0 exactly in this model

    if fs.is_asymptotic:
        try:
            y1, e1 = decoy_bounds(gain_mu, gain_nu, y0, qber_nu, params)
        except NoSinglePhotonSignal:
            return _insecure(eta_total, params)
        q1 = y1 * params.mu * math.exp(-params.mu)
        # a phase-error bound above 1/2 certifies nothing; cap it there so the
        # privacy term cannot turn positive again through h's symmetry
        e1_eff = min(e1, 0.5)
        rate = params.sift_q * (
            q1 * (1.0 - binary_entropy(e1_eff))
            - gain_mu * params.f_ec * binary_entropy(qber_mu)
        )
        return DvRateResult(
            key_rate=max(rate, 0.0),
            payload_rate=qsdc_payload_rate(eta_total, params),
            secure=rate > 0.0,
            diagnostics=DvDiagnostics(
                q_mu=gain_mu, e_mu=qber_mu, y1_lower=y1, e1_upper=e1
            ),
        )

    n_total = fs.block_size_n
    eps = fs.epsilon
    pulses_mu = n_total * fs.p_mu
    pulses_nu = n_total * fs.p_nu

    # worst-case gain shifts over the per-intensity pulse samples
    d_gain_mu = hoeffding_delta(pulses_mu, eps) / pulses_mu
    d_gain_nu = hoeffding_delta(pulses_nu, eps) / pulses_nu
    gain_mu_hi = min(gain_mu + d_gain_mu, 1.0)
    gain_nu_lo = max(gain_nu - d_gain_nu, 0.0)

    # QBER shift over the weak-decoy detected sample
    detections_nu = pulses_nu * gain_nu
    if detections_nu > 0.0:
        qber_nu_hi = min(qber_nu + hoeffding_delta(detections_nu, eps) / detections_nu, 1.0)
    else:
        qber_nu_hi = 1.0

    try:
        y1, e1 = decoy_bounds(gain_mu_hi, gain_nu_lo, y0, qber_nu_hi, params)
    except NoSinglePhotonSignal:
        return _insecure(eta_total, params)

    n_mu = pulses_mu * gain_mu
    n_mu_1 = pulses_mu * params.mu * math.exp(-params.mu) * y1
    if n_mu_1 <= 0.0:
        return _insecure(eta_total, params)
    e1_ph = e1 + hoeffding_delta(n_mu_1, eps) / n_mu_1
    e1_ph = min(max(e1_ph, 0.0), 0.5)

    delta_comp = 6.0 * math.log2(19.0 / eps)
    key_length = (
        n_mu_1 * (1.0 - binary_entropy(e1_ph))
        - params.f_ec * n_mu * binary_entropy(qber_mu)
        - delta_comp
    )
    rate = params.sift_q * key_length / pulses_mu
    return DvRateResult(
        key_rate=max(rate, 0.0),
        payload_rate=qsdc_payload_rate(eta_total, params),
        secure=key_length > 0.0,
        diagnostics=DvDiagnostics(q_mu=gain_mu, e_mu=qber_mu, y1_lower=y1, e1_upper=e1_ph),
    )
