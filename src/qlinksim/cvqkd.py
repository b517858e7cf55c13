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

from .mathfn import ber_to_snr_amplitude, bosonic_entropy
from .record import RateResult, Record, derived

__all__ = [
    "CvProtocolParams",
    "PhaseEncodingNoise",
    "ThermalLossChannel",
    "CvDiagnostics",
    "holevo_bound",
    "composable_key_rate",
]


class CvProtocolParams(Record):
    """Source, receiver and post-processing parameters of the CV protocol.

    eta_lo is the transmissivity equivalent of the local-oscillator
    handling loss (0.63 dB -> 10**(-0.063) ~ 0.865); together with
    eta_det it forms the trusted receiver efficiency.  d_bits is the
    discretization depth of the reconciliation alphabet.  What the
    kernels derive from these fields alone (eta_receiver, amplitude,
    chi_hom, aep_correction, theta_correction) is computed once per
    record, on first read.
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

    def _validate(self) -> None:
        if not 0.0 < self.v_mod < math.inf:
            raise ValueError(f"v_mod must be finite and > 0: {self.v_mod!r}")
        if not 0.0 <= self.v_el < math.inf:
            raise ValueError(f"v_el must be finite and >= 0: {self.v_el!r}")
        for name in ("eta_det", "eta_lo", "p_ec", "beta"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]: {value!r}")
        for name in ("eps_sec", "eps_hash"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1): {value!r}")
        # aep_correction divides 18 by this; it underflows to 0 at tiny eps_sec
        den = self.p_ec**2 * self.eps_sec**4
        if not (den > 0.0 and 18.0 / den < math.inf):
            raise ValueError(
                f"eps_sec and p_ec must keep 18 / (p_ec^2 eps_sec^4) finite: "
                f"eps_sec={self.eps_sec!r}, p_ec={self.p_ec!r}"
            )
        if not 0.0 < self.ber_target <= 0.5:
            raise ValueError(f"ber_target must lie in (0, 0.5]: {self.ber_target!r}")
        if not 0.0 <= self.n_bg < math.inf:
            raise ValueError(f"n_bg must be finite and >= 0: {self.n_bg!r}")
        # the trusted-detector model purifies v_el through the receiver's loss
        if self.eta_receiver == 1.0 and self.v_el > 0.0:
            raise ValueError(
                "electronic noise requires a receiver efficiency below 1 in the "
                f"trusted-detector model: eta_det * eta_lo = 1.0, v_el={self.v_el!r}"
            )
        # aep_correction forms 2 ** (d_bits / 2), which overflows from 2048
        if not (isinstance(self.d_bits, int) and 1 <= self.d_bits < 2048):
            raise ValueError(f"d_bits must be an integer in [1, 2047]: {self.d_bits!r}")

    @derived
    def eta_receiver(self) -> float:
        """Total trusted receiver transmissivity eta_det * eta_lo."""
        return self.eta_det * self.eta_lo

    @derived
    def amplitude(self) -> float:
        """Displacement amplitude, in bit-decision noise units, that meets ber_target."""
        return ber_to_snr_amplitude(self.ber_target)

    @derived
    def chi_hom(self) -> float:
        """Trusted homodyne receiver noise (1 - eta)/eta + v_el/eta, in SNU."""
        eta = self.eta_receiver
        return (1.0 - eta) / eta + self.v_el / eta

    @derived
    def aep_correction(self) -> float:
        """Asymptotic-equipartition penalty coefficient Delta_aep."""
        return (
            4.0
            * math.log2(2.0 ** (self.d_bits / 2.0) + 2.0)
            * math.sqrt(math.log2(18.0 / (self.p_ec**2 * self.eps_sec**4)))
        )

    @derived
    def theta_correction(self) -> float:
        """Order-(1/n) composable correction Theta."""
        return math.log2(self.p_ec * (1.0 - self.eps_sec**2 / 3.0)) + 2.0 * math.log2(
            math.sqrt(2.0) * self.eps_hash
        )


class PhaseEncodingNoise(Record):
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

    def _validate(self) -> None:
        if not 0.0 <= self.eps_classical < math.inf:
            raise ValueError(f"eps_classical must be finite and >= 0: {self.eps_classical!r}")


class ThermalLossChannel(Record):
    """Bosonic loss channel of transmissivity tau with a thermal environment.

    Output variance obeys V_out = tau V_in + (1 - tau)(2 n_thermal + 1)
    in SNU.
    """

    tau: float
    n_thermal: float = 0.0

    def _validate(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1]: {self.tau!r}")
        if not 0.0 <= self.n_thermal < math.inf:
            raise ValueError(f"n_thermal must be finite and >= 0: {self.n_thermal!r}")


def _detection_noise(
    ch: ThermalLossChannel, p: CvProtocolParams, noise: PhaseEncodingNoise
) -> tuple[float, float, float, float, float]:
    """(tau_total, background, bit-decision variance, residual, amp), variances in SNU.

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
    amp = p.amplitude
    leak = noise.eps_classical * amp * amp
    if leak >= 1.0:
        raise ValueError(
            "phase-correction residual outruns the displacement budget: "
            f"eps_classical * amp^2 = {leak:.3f} must be < 1"
        )
    sigma_bit_sq = (1.0 + p.v_el + tau_total * p.v_mod + background) / (1.0 - leak)
    return tau_total, background, sigma_bit_sq, leak * sigma_bit_sq, amp


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
    try:
        disc = (v2m1 * w) ** 2 - 2.0 * v2m1 * g * k * chi_hom + (g * chi_hom) ** 2 * (
            (v * u + w) ** 2 + 4.0 * tau * (1.0 + v * w)
        )
    except OverflowError:  # a finite float squared past DBL_MAX raises
        disc = math.inf
    # noise or modulation far past physical values overflows these squared
    # terms first, to inf or, where they cancel, NaN
    if not math.isfinite(disc):
        raise _not_finite("discriminant of nu3 and nu4", disc, tau, v, w, chi_hom)
    nu3 = math.sqrt((c_sum + math.sqrt(disc) / den) / 2.0)
    nu4 = math.sqrt(d_prod) / nu3
    return bosonic_entropy(nu3) + bosonic_entropy(nu4), (nu3, nu4, 1.0)


def _not_finite(
    name: str, value: float, tau: float, v: float, w: float, chi_hom: float
) -> ValueError:
    return ValueError(
        f"Holevo bound: {name} is not finite: {value!r} at tau={tau!r}, v={v!r}, "
        f"w={w!r}, chi_hom={chi_hom!r}"
    )


def holevo_bound(
    ch: ThermalLossChannel, p: CvProtocolParams, residual: float
) -> tuple[float, tuple[float, ...]]:
    """Holevo information chi_E in bits/use, plus (nu1, nu2, nu3, nu4, nu5).

    residual is the detector-plane residual from _detection_noise.
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

    Noise or modulation variances far past physical values overflow this
    algebra: a ValueError then names nu1, or the discriminant of nu3 and
    nu4, that is not finite, with tau, v, w and chi_hom.
    """
    tau = ch.tau
    if not tau > 0.0:
        raise ValueError("holevo_bound requires tau > 0")
    eta = p.eta_receiver
    v = p.v_mod + 1.0
    # at subnormal tau, tau * eta rounds to 0 or the quotient overflows, and
    # the infinite excess noise would make the bound NaN
    tau_eta = tau * eta
    eps_in = residual / tau_eta if tau_eta > 0.0 else math.inf
    if eps_in == math.inf:
        raise ValueError(
            f"tau={tau!r} is too small: the detector residual referred to the "
            f"channel input, {residual!r} / (tau * eta), overflows"
        )
    # u is exact for tau >= 1/2 and w = tau chi_line skips the (1 - tau)/tau
    # round trip, so what vanishes at the identity channel does so exactly
    u = 1.0 - tau
    w = u * (2.0 * ch.n_thermal + 1.0) + tau * eps_in
    g = w - u * v  # b - a
    det = tau + v * w  # ab - c^2

    chi_hom = p.chi_hom

    # two-mode closed form (Weedbrook et al., RMP 84, 621 (2012)):
    # nu1,2 = (sqrt((a + b)^2 - 4 c^2) +- |b - a|) / 2, radicand (b - a)^2 + 4 det
    half_gap = abs(g) / 2.0
    nu1 = half_gap + math.sqrt(half_gap * half_gap + det)
    # a finite nu1 bounds det, so nu2 is finite too
    if not math.isfinite(nu1):
        raise _not_finite("symplectic eigenvalue nu1", nu1, tau, v, w, chi_hom)
    nu2 = det / nu1
    s_eve = bosonic_entropy(nu1) + bosonic_entropy(nu2)

    s_cond, nu_cond = _conditional_entropy_bits(tau, u, v, w, g, det, chi_hom)
    chi = s_eve - s_cond
    if chi < -1e-9:
        raise ValueError(f"non-physical negative Holevo bound: {chi!r}")
    return max(chi, 0.0), (nu1, nu2) + nu_cond


class CvDiagnostics(Record):
    """Per-point intermediates; nus is holevo_bound's (nu1, nu2, nu3, nu4, nu5)."""

    snr: float
    i_ab: float
    chi_e: float
    nus: tuple[float, float, float, float, float]
    displacement_amplitude: float


def composable_key_rate(
    ch: ThermalLossChannel,
    p: CvProtocolParams,
    noise: PhaseEncodingNoise,
    block_size_n: float = math.inf,
) -> RateResult:
    """Composable key rate in bits/use together with the classical throughput.

    Finite blocks reserve half the rounds for parameter estimation
    (n = N/2) and pay the asymptotic-equipartition and hashing
    corrections:

        R = p_ec (n/N) [beta I_raw - chi_E - Delta_aep/sqrt(n) - Theta/n]

    The asymptotic case keeps only p_ec (beta I_raw - chi_E).  R is the
    signed rate, before it is clamped at 0; it is -inf at tau = 0, where
    no finite margin exists.

    The throughput (the CSV's classical rate) is beta * 1/2 log2(1 + SNR):
    the reconciled information of one quadrature of the Gaussian key
    modulation, not the rate of the binary displacement that carries the
    bits.
    """
    if not block_size_n > 0:
        raise ValueError(f"block size must be > 0: {block_size_n!r}")
    if ch.tau == 0.0:
        diag = CvDiagnostics(0.0, 0.0, 0.0, (1.0,) * 5, math.inf)
        return RateResult(-math.inf, 0.0, diag)

    # shared by the SNR, the Holevo bound and the displacement: computed once
    tau_total, background, sigma_bit_sq, residual, amp = _detection_noise(ch, p, noise)
    # quadrature SNR after the trusted receiver: of the displacement only its
    # residual is noise
    snr = tau_total * p.v_mod / (1.0 + p.v_el + background + residual)
    i_raw = 0.5 * math.log2(1.0 + snr)
    chi_e, nus = holevo_bound(ch, p, residual)  # raises where tau_total is 0
    # at ber_target 0.5 no displacement is sent (amp = 0); the guard keeps
    # 0 * inf = NaN out where a subnormal tau_total overflows the quotient
    delta = amp * math.sqrt(sigma_bit_sq / tau_total) if amp > 0.0 else 0.0

    bracket = p.beta * i_raw - chi_e
    if math.isinf(block_size_n):
        rate = p.p_ec * bracket
    else:
        n_key = block_size_n / 2.0
        bracket = (
            bracket
            - p.aep_correction / math.sqrt(n_key)
            - p.theta_correction / n_key
        )
        rate = p.p_ec * (n_key / block_size_n) * bracket

    # positional, in field order: binding keywords costs more than the record
    diag = CvDiagnostics(snr, i_raw, chi_e, nus, delta)
    return RateResult(rate, p.beta * i_raw, diag)
