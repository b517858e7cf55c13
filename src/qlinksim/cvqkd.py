"""Displaced Gaussian-modulation rates over a thermal-loss channel.

One coherent-state train carries both payloads: a binary phase
displacement decided by sign (the bit channel) and Gaussian quadrature
modulation (the key channel).  The displacement is sized to meet a bit
error target, so its received power is set by the noise floor rather
than the loss; the fraction of that power left behind by the phase
correction acts as excess noise for the key and is granted to the
eavesdropper.  The key analysis uses the standard entangling-cloner
covariance algebra with a trusted receiver: detector efficiency and
electronic noise sit inside Bob's station, so the eavesdropper purifies
only the channel.  Eve's conditional entropy is the trusted-homodyne
closed form of Lodewyck et al. (PRA 76, 042305 (2007)), derived by
modelling the detector as a beamsplitter whose idle port is fed half of
an EPR state (purifying the electronic noise) and conditioning the
remaining modes on Bob's homodyne outcome.  It is scalar arithmetic
arranged so that nothing cancels as the channel nears the identity.

All variances are in shot-noise units (SNU, vacuum = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mathfn import ber_to_snr_amplitude, bosonic_entropy

__all__ = [
    "CvProtocolParams",
    "PhaseEncodingNoise",
    "ThermalLossChannel",
    "CvDiagnostics",
    "CvRateResult",
    "classical_displacement",
    "channel_snr",
    "holevo_bound",
    "composable_key_rate",
]


@dataclass(frozen=True)
class CvProtocolParams:
    """Source, receiver and post-processing parameters of the CV protocol.

    eta_lo is the transmissivity equivalent of the local-oscillator
    handling loss (0.63 dB -> 10**(-0.063) ~ 0.865); together with
    eta_det it forms the trusted receiver efficiency.  d_bits is the
    discretization depth of the reconciliation alphabet.
    """

    v_mod: float = 5.0
    v_el: float = 0.1
    eta_det: float = 0.5
    eta_lo: float = 10.0 ** (-0.063)
    n_bg: float = 9.31e-10
    ber_target: float = 1e-6
    p_ec: float = 0.9
    beta: float = 0.98
    eps_sec: float = 1e-10
    eps_hash: float = 1e-10
    d_bits: int = 5

    def __post_init__(self) -> None:
        if not self.v_mod > 0.0:
            raise ValueError(f"modulation variance must be > 0: {self.v_mod!r}")
        if self.v_el < 0.0:
            raise ValueError(f"electronic noise must be >= 0: {self.v_el!r}")
        for name in ("eta_det", "eta_lo", "p_ec", "beta"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]: {value!r}")
        for name in ("eps_sec", "eps_hash"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1): {value!r}")
        if not 0.0 < self.ber_target <= 0.5:
            raise ValueError(f"ber_target must lie in (0, 0.5]: {self.ber_target!r}")
        if self.n_bg < 0.0:
            raise ValueError(f"background occupancy must be >= 0: {self.n_bg!r}")
        if not (isinstance(self.d_bits, int) and self.d_bits >= 1):
            raise ValueError(f"d_bits must be a positive integer: {self.d_bits!r}")

    @property
    def eta_receiver(self) -> float:
        """Total trusted receiver transmissivity eta_det * eta_lo."""
        return self.eta_det * self.eta_lo


@dataclass(frozen=True)
class PhaseEncodingNoise:
    """Excess noise left behind by the classical phase displacement.

    The receiver subtracts the known displacement before key
    extraction; eps_classical is the fraction of the received
    displacement power that survives that correction as excess noise.
    Because the displacement is sized to hold the bit error rate fixed,
    its received power (and hence the residual) is roughly independent
    of channel loss, which is what ultimately bounds the secure range.
    The residual itself depends on the protocol and the channel; the
    rate kernels compute it with the rest of the detection noise.
    """

    eps_classical: float = 3.9e-5

    def __post_init__(self) -> None:
        if self.eps_classical < 0.0:
            raise ValueError(f"excess noise fraction must be >= 0: {self.eps_classical!r}")


@dataclass(frozen=True)
class ThermalLossChannel:
    """Bosonic loss channel of transmissivity tau with a thermal environment.

    Output variance obeys V_out = tau V_in + (1 - tau)(2 n_thermal + 1)
    in SNU.
    """

    tau: float
    n_thermal: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1]: {self.tau!r}")
        if self.n_thermal < 0.0:
            raise ValueError(f"thermal occupancy must be >= 0: {self.n_thermal!r}")


def _detection_noise(
    ch: ThermalLossChannel, p: CvProtocolParams, noise: PhaseEncodingNoise
) -> tuple[float, float, float, float]:
    """(tau_total, background, bit-decision variance, residual) in SNU.

    The bit decision sees vacuum, electronic noise, the Gaussian key
    modulation and the channel background as noise; the displacement is
    sized against that total, and a fraction eps_classical of its
    received power feeds back in as residual noise.  Self-consistently,
    with leak = eps_classical * amp^2 (amp the BER-target amplitude):

        sigma_bit^2 = (1 + v_el + tau_total v_mod + bg) / (1 - leak)
        residual    = leak * sigma_bit^2

    leak >= 1 means the correction residual outruns the displacement
    power budget and no finite displacement meets the BER target.
    """
    tau_total = ch.tau * p.eta_receiver
    background = p.eta_receiver * (1.0 - ch.tau) * 2.0 * ch.n_thermal
    amp = ber_to_snr_amplitude(p.ber_target)
    leak = noise.eps_classical * amp * amp
    if leak >= 1.0:
        raise ValueError(
            "phase-correction residual outruns the displacement budget: "
            f"eps_classical * amp^2 = {leak:.3f} must be < 1"
        )
    sigma_bit_sq = (1.0 + p.v_el + tau_total * p.v_mod + background) / (1.0 - leak)
    return tau_total, background, sigma_bit_sq, leak * sigma_bit_sq


def classical_displacement(
    ch: ThermalLossChannel, p: CvProtocolParams, noise: PhaseEncodingNoise
) -> float:
    """Smallest input displacement (sqrt SNU) meeting the target BER."""
    if p.ber_target == 0.5:
        return 0.0
    tau_total, _, sigma_bit_sq, _ = _detection_noise(ch, p, noise)
    if tau_total == 0.0:
        return math.inf
    return ber_to_snr_amplitude(p.ber_target) * math.sqrt(sigma_bit_sq / tau_total)


def channel_snr(
    ch: ThermalLossChannel, p: CvProtocolParams, noise: PhaseEncodingNoise
) -> float:
    """Quadrature SNR of the Gaussian modulation after the trusted receiver.

    The displacement itself is subtracted; only its residual counts as
    noise for the key quadratures.
    """
    tau_total, background, _, residual = _detection_noise(ch, p, noise)
    base = 1.0 + p.v_el + background + residual
    return tau_total * p.v_mod / base


def _conditional_entropy_bits(
    tau: float, u: float, v: float, w: float, g: float, det: float, chi_hom: float
) -> tuple[float, tuple[float, float, float]]:
    """Eve's conditional entropy and (nu3, nu4, nu5) given Bob's homodyne outcome.

    Trusted-homodyne closed form (Lodewyck et al., PRA 76, 042305 (2007)) in
    holevo_bound's notation: nu3^2 + nu4^2 = C, nu3^2 nu4^2 = D, nu5 = 1,
    C = ((g^2 + 2 det) chi_hom + v det + b) / den, D = det (v + det chi_hom) / den,
    den = b + chi_hom.  C^2 - 4D cancels as tau -> 1; every term of this
    expansion vanishes at the identity channel (k = 2 tau u + v u w + w^2):

        disc den^2 = (v^2 - 1)^2 w^2 - 2 (v^2 - 1) g k chi_hom
                     + (g chi_hom)^2 ((v u + w)^2 + 4 tau (1 + v w))
    """
    b = tau * v + w
    den = b + chi_hom
    c_sum = ((g * g + 2.0 * det) * chi_hom + v * det + b) / den
    d_prod = det * (v + det * chi_hom) / den
    v2m1 = v * v - 1.0
    k = 2.0 * tau * u + v * u * w + w * w
    disc = (v2m1 * w) ** 2 - 2.0 * v2m1 * g * k * chi_hom + (g * chi_hom) ** 2 * (
        (v * u + w) ** 2 + 4.0 * tau * (1.0 + v * w)
    )
    nu3 = math.sqrt((c_sum + math.sqrt(disc) / den) / 2.0)
    nu4 = math.sqrt(d_prod) / nu3
    return bosonic_entropy(nu3) + bosonic_entropy(nu4), (nu3, nu4, 1.0)


def holevo_bound(
    ch: ThermalLossChannel,
    p: CvProtocolParams,
    noise: PhaseEncodingNoise,
) -> tuple[float, tuple[float, ...]]:
    """Holevo information chi_E in bits/use, plus (nu1, nu2, nu3, nu4, nu5).

    Channel-output covariance uses a = V = v_mod + 1,
    b = tau (V + chi_line), c = sqrt(tau (V^2 - 1)) with
    chi_line = (1 - tau)/tau (2 n_thermal + 1) + eps_in, so that
    b = tau V + (1 - tau)(2 n + 1) + tau eps_in matches the channel's
    output-variance identity.  eps_in is the input-referred residual of
    the classical displacement; its detector-plane value is nearly
    constant in tau, so eps_in grows like 1/tau and the key rate dies at
    finite loss.  The residual is granted to the eavesdropper (referred
    to the channel, not the trusted receiver).  Eve's entropy comes from
    (nu1, nu2) of that state; her conditional entropy from the
    trusted-detector conditioning.  chi_E = 0 exactly for (tau=1, n=0, eps=0).
    """
    tau = ch.tau
    if not tau > 0.0:
        raise ValueError("holevo_bound requires tau > 0")
    eta = p.eta_receiver
    if eta == 1.0 and p.v_el > 0.0:
        raise ValueError(
            "electronic noise requires a receiver efficiency below 1 "
            "in the trusted-detector model"
        )
    v = p.v_mod + 1.0
    eps_in = _detection_noise(ch, p, noise)[3] / (tau * eta)
    # u is exact for tau >= 1/2 and w = tau chi_line skips the (1 - tau)/tau
    # round trip, so what vanishes at the identity channel does so exactly
    u = 1.0 - tau
    w = u * (2.0 * ch.n_thermal + 1.0) + tau * eps_in
    g = w - u * v  # b - a
    det = tau + v * w  # ab - c^2

    # two-mode closed form (Weedbrook et al., RMP 84, 621 (2012)):
    # nu1,2 = (sqrt((a + b)^2 - 4 c^2) +- |b - a|) / 2, radicand (b - a)^2 + 4 det
    half_gap = abs(g) / 2.0
    nu1 = half_gap + math.sqrt(half_gap * half_gap + det)
    nu2 = det / nu1
    s_eve = bosonic_entropy(nu1) + bosonic_entropy(nu2)

    chi_hom = (1.0 - eta) / eta + p.v_el / eta
    s_cond, nu_cond = _conditional_entropy_bits(tau, u, v, w, g, det, chi_hom)
    chi = s_eve - s_cond
    if chi < -1e-9:
        raise ValueError(f"non-physical negative Holevo bound: {chi!r}")
    return max(chi, 0.0), (nu1, nu2) + nu_cond


@dataclass(frozen=True)
class CvDiagnostics:
    """Per-point intermediates; nus is holevo_bound's (nu1, nu2, nu3, nu4, nu5)."""

    snr: float
    i_ab: float
    chi_e: float
    nus: tuple[float, float, float, float, float]
    displacement_amplitude: float


@dataclass(frozen=True)
class CvRateResult:
    key_rate: float
    classical_rate: float
    secure: bool
    diagnostics: CvDiagnostics

    def __post_init__(self) -> None:
        if self.key_rate < 0.0:
            raise ValueError("key rate is clamped at 0 and cannot be negative")
        if self.diagnostics.chi_e < 0.0:
            raise ValueError("Holevo bound cannot be negative")


def aep_correction(p: CvProtocolParams) -> float:
    """Asymptotic-equipartition penalty coefficient Delta_aep."""
    return (
        4.0
        * math.log2(2.0 ** (p.d_bits / 2.0) + 2.0)
        * math.sqrt(math.log2(18.0 / (p.p_ec**2 * p.eps_sec**4)))
    )


def theta_correction(p: CvProtocolParams) -> float:
    """Order-(1/n) composable correction Theta."""
    return math.log2(p.p_ec * (1.0 - p.eps_sec**2 / 3.0)) + 2.0 * math.log2(
        math.sqrt(2.0) * p.eps_hash
    )


def composable_key_rate(
    ch: ThermalLossChannel,
    p: CvProtocolParams,
    noise: PhaseEncodingNoise,
    block_size_n: float = math.inf,
) -> CvRateResult:
    """Composable key rate in bits/use together with the classical rate.

    Finite blocks reserve half the rounds for parameter estimation
    (n = N/2) and pay the asymptotic-equipartition and hashing
    corrections:

        R = p_ec (n/N) [beta I_raw - chi_E - Delta_aep/sqrt(n) - Theta/n]

    The asymptotic case keeps only p_ec (beta I_raw - chi_E).
    """
    if not block_size_n > 0:
        raise ValueError(f"block size must be > 0: {block_size_n!r}")
    if ch.tau == 0.0:
        diag = CvDiagnostics(
            snr=0.0, i_ab=0.0, chi_e=0.0, nus=(1.0,) * 5, displacement_amplitude=math.inf
        )
        return CvRateResult(key_rate=0.0, classical_rate=0.0, secure=False, diagnostics=diag)

    snr = channel_snr(ch, p, noise)
    i_raw = 0.5 * math.log2(1.0 + snr)
    chi_e, nus = holevo_bound(ch, p, noise)
    delta = classical_displacement(ch, p, noise)

    bracket = p.beta * i_raw - chi_e
    if math.isinf(block_size_n):
        rate = p.p_ec * bracket
    else:
        n_key = block_size_n / 2.0
        bracket = (
            bracket
            - aep_correction(p) / math.sqrt(n_key)
            - theta_correction(p) / n_key
        )
        rate = p.p_ec * (n_key / block_size_n) * bracket

    diag = CvDiagnostics(
        snr=snr,
        i_ab=i_raw,
        chi_e=chi_e,
        nus=nus,
        displacement_amplitude=delta,
    )
    return CvRateResult(
        key_rate=max(rate, 0.0),
        classical_rate=p.beta * i_raw,
        secure=bracket > 0.0,
        diagnostics=diag,
    )
