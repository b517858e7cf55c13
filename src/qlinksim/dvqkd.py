"""Two-decoy-state BB84 key rates and direct-transmission payload rates.

Channel model: Poissonian sources of signal/weak/vacuum intensity over a
transmissivity eta_total (optical channel times receiver efficiency),
with an intensity-independent background yield Y0 and misalignment
error.  Single-photon yield and error are bounded by the standard
two-decoy estimates.  One key-rate formula covers every block size: it
shifts each observed frequency by a Hoeffding deviation in its
worst-case direction and subtracts a composable correction, and both
are exactly 0 for an infinite block.
"""

from __future__ import annotations

import math
import sys

from .mathfn import binary_entropy, hoeffding_deviation
from .record import RateResult, Record, derived

__all__ = [
    "DecoyProtocolParams",
    "FiniteSizeConfig",
    "DvDiagnostics",
    "gains_and_qber",
    "decoy_bounds",
    "finite_key_rate",
]


# the largest argument for which math.exp is finite
_MAX_EXP_ARG = math.log(sys.float_info.max)


class DecoyProtocolParams(Record):
    """Source, detector and post-processing parameters of the decoy protocol.

    mu, nu are mean photon numbers of the signal and weak-decoy pulses;
    the third intensity is vacuum.  y0_stray and y0_dark add up to the
    background yield Y0, a device constant that stands in for the vacuum
    gain Q_0.  check_fraction is the fraction of direct-transmission
    rounds spent on eavesdropping checks.  y0 and the exponentials that
    decoy_bounds and finite_key_rate weight by are computed once per
    record, on first read.
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

    def _validate(self) -> None:
        if not self.mu > self.nu > 0.0:
            raise ValueError("intensities must satisfy mu > nu > 0")
        # decoy_bounds weights the signal gain by exp(mu)
        if not self.mu <= _MAX_EXP_ARG:
            raise ValueError(
                f"mu must be <= {_MAX_EXP_ARG!r} so that exp(mu) is finite: {self.mu!r}"
            )
        # decoy_bounds' prefactor; mu nu - nu^2 underflows to 0 at tiny intensities
        den = self.mu * self.nu - self.nu * self.nu
        prefactor = self.mu / den if den > 0.0 else math.inf
        if not 0.0 < prefactor < math.inf:
            raise ValueError(
                f"mu and nu must keep the decoy-bound prefactor mu / (mu nu - nu^2) "
                f"finite: {prefactor!r} at mu={self.mu!r}, nu={self.nu!r}"
            )
        for name in (
            "eta_receiver", "e0", "e_mis", "sift_q", "check_fraction", "y0_stray", "y0_dark"
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]: {value!r}")
        # the signal gain at eta = 1, as gains_and_qber forms it, bounds every
        # gain, so no gain can pass 1
        gain = self.y0 + -math.expm1(-self.mu)
        if not gain <= 1.0:
            raise ValueError(
                f"y0_stray + y0_dark + 1 - exp(-mu), the signal gain at eta = 1, "
                f"must be <= 1: {gain!r}"
            )
        if not 1.0 <= self.f_ec < math.inf:
            raise ValueError(f"f_ec must be finite and >= 1: {self.f_ec!r}")

    @derived
    def y0(self) -> float:
        """Background yield Y0 = y0_stray + y0_dark."""
        return self.y0_stray + self.y0_dark

    @derived
    def exp_mu(self) -> float:
        """e^mu, the weight of the signal gain in decoy_bounds."""
        return math.exp(self.mu)

    @derived
    def exp_nu(self) -> float:
        """e^nu, the weight of the weak-decoy gain in decoy_bounds."""
        return math.exp(self.nu)

    @derived
    def exp_neg_mu(self) -> float:
        """e^-mu, the single-photon share of a signal pulse."""
        return math.exp(-self.mu)


class FiniteSizeConfig(Record):
    """Block size, failure budget and intensity schedule of one run.

    The pulse counts, the two Hoeffding deviations that do not depend on
    the channel and the composable term of finite_key_rate are computed
    once per record, on first read.
    """

    block_size_n: float = math.inf
    epsilon: float = 1e-10
    p_mu: float = 0.5
    p_nu: float = 0.25

    def _validate(self) -> None:
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

    @derived
    def pulses_mu(self) -> float:
        """Signal pulses in the block."""
        return self.block_size_n * self.p_mu

    @derived
    def pulses_nu(self) -> float:
        """Weak-decoy pulses in the block."""
        return self.block_size_n * self.p_nu

    @derived
    def deviation_mu(self) -> float:
        """Hoeffding deviation of the signal gain, over the signal pulses."""
        return hoeffding_deviation(self.pulses_mu, self.epsilon)

    @derived
    def deviation_nu(self) -> float:
        """Hoeffding deviation of the weak-decoy gain, over the weak-decoy pulses."""
        return hoeffding_deviation(self.pulses_nu, self.epsilon)

    @derived
    def composable_term(self) -> float:
        """6 log2(19/eps) / (N p_mu), the key length finite_key_rate gives up per pulse."""
        # log2(19) - log2(eps), not log2(19 / eps), which overflows at tiny eps
        return 6.0 * (math.log2(19.0) - math.log2(self.epsilon)) / self.pulses_mu


class DvDiagnostics(Record):
    q_mu: float
    e_mu: float
    y1_lower: float
    e1_upper: float


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
    [0, 1].  Where the Y1 bound is <= 0 it certifies nothing, and the
    trivial bounds (0.0, 1.0) are returned.
    """
    for name, value in (("gain_mu", gain_mu), ("gain_nu", gain_nu), ("gain_vac", gain_vac)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]: {value!r}")
    if not 0.0 <= qber_nu <= 1.0:
        raise ValueError(f"qber_nu must lie in [0, 1]: {qber_nu!r}")
    mu, nu = params.mu, params.nu
    y0 = gain_vac
    y1 = (mu / (mu * nu - nu * nu)) * (
        gain_nu * params.exp_nu
        - gain_mu * params.exp_mu * (nu * nu) / (mu * mu)
        - ((mu * mu - nu * nu) / (mu * mu)) * y0
    )
    if y1 <= 0.0:
        return 0.0, 1.0
    y1 = min(y1, 1.0)
    e1_num = qber_nu * gain_nu * params.exp_nu - params.e0 * y0
    e1 = e1_num / (y1 * nu)
    e1 = min(max(e1, 0.0), 1.0)
    return y1, e1


def _payload(gain: float, qber: float, params: DecoyProtocolParams) -> float:
    payload = (1.0 - params.check_fraction) * gain * (1.0 - params.f_ec * binary_entropy(qber))
    return max(payload, 0.0)


def _sample(pulses: float, fraction: float) -> float:
    # the pulses that click (or carry one photon): none if the fraction is 0,
    # even out of an infinite block, where the product would be NaN
    return pulses * fraction if fraction > 0.0 else 0.0


def finite_key_rate(
    eta_total: float,
    params: DecoyProtocolParams,
    fs: FiniteSizeConfig,
) -> RateResult:
    """Composable key rate per signal pulse, for any block size N, and the payload.

    Observed frequencies are shifted by the per-sample Hoeffding deviation
    sqrt(ln(1/eps) / 2n) in the worst-case direction before entering the
    decoy bounds: the signal gain up and the weak-decoy gain down (over
    their pulses), the weak-decoy QBER up (over its detections), and the
    single-photon phase error up (over the bounded single-photon sample),
    capped at 1/2, where it certifies nothing.  The background yield Y0
    is a device-characterized constant and is not shifted.  The key
    length per signal pulse is

        rate = sift_q * (Q1 (1 - h(e1_ph)) - Q_mu f_ec h(E_mu)
                         - 6 log2(19/eps) / (N p_mu))

    At N = inf every shift and the composable term are exactly 0, so
    the asymptotic rate is this formula's zero-shift case, not a second
    one.  This is the signed rate: the key length per signal pulse before
    it is clamped at 0.  Where the decoy bound certifies no single-photon
    yield, the rate is -inf, with Y1 = 0 and e1 = 1 reported, so no finite
    margin exists.

    The throughput is the net direct-transmission payload in bits per
    use, (1 - check_fraction) * Q_mu * (1 - f_ec * h(E_mu)) clamped at 0:
    a throughput model for the message-carrying mode of the protocol, not
    a security bound.
    """
    gain_mu, qber_mu = gains_and_qber(eta_total, params, params.mu)
    gain_nu, qber_nu = gains_and_qber(eta_total, params, params.nu)
    eps = fs.epsilon
    gain_mu_hi = min(gain_mu + fs.deviation_mu, 1.0)
    gain_nu_lo = max(gain_nu - fs.deviation_nu, 0.0)
    qber_nu_hi = min(qber_nu + hoeffding_deviation(_sample(fs.pulses_nu, gain_nu), eps), 1.0)
    # Y0 stands in for the vacuum-intensity gain: Q_0 = Y0 exactly here
    y1, e1 = decoy_bounds(gain_mu_hi, gain_nu_lo, params.y0, qber_nu_hi, params)
    if y1 == 0.0:  # no certified single-photon yield: the trivial e1 = 1, no finite margin
        e1_ph, rate = e1, -math.inf
    else:
        q1 = y1 * params.mu * params.exp_neg_mu
        e1_ph = min(max(e1 + hoeffding_deviation(_sample(fs.pulses_mu, q1), eps), 0.0), 0.5)
        rate = params.sift_q * (
            q1 * (1.0 - binary_entropy(e1_ph))
            - gain_mu * params.f_ec * binary_entropy(qber_mu)
            - fs.composable_term
        )
    # positional, in field order: (signed_rate, throughput, diagnostics) and
    # (q_mu, e_mu, y1_lower, e1_upper)
    return RateResult(
        rate, _payload(gain_mu, qber_mu, params), DvDiagnostics(gain_mu, qber_mu, y1, e1_ph)
    )
