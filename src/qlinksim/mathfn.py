"""Physical constants, the shared information-theory / statistics helpers
and the Bose-Einstein thermal photon occupancy.

Every rate in this package is reported in bits per channel use, so the
entropy functions here use base-2 logarithms throughout.  Natural
logarithms appear only inside concentration bounds.

All functions are pure and deterministic: identical inputs produce
bit-identical outputs, which the sweep layer relies on for reproducible
CSV generation.
"""

from __future__ import annotations

import math

__all__ = [
    "PLANCK_CONSTANT",
    "BOLTZMANN_CONSTANT",
    "EARTH_RADIUS_KM",
    "binary_entropy",
    "bosonic_entropy",
    "gaussian_tail_ber",
    "ber_to_snr_amplitude",
    "erfc_inverse",
    "hoeffding_deviation",
    "thermal_photon_number",
]

# symplectic eigenvalues a hair below 1 are accepted as exactly 1; the
# covariance algebra routinely produces 1-1e-15 style values at tau -> 1
NU_CLAMP_TOL = 1e-12


# exact by the 2019 SI redefinition
PLANCK_CONSTANT = 6.62607015e-34  # J s
BOLTZMANN_CONSTANT = 1.380649e-23  # J / K
# mean spherical radius, used by the link geometry
EARTH_RADIUS_KM = 6371.0


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy h(p) in bits.

    Parameters
    ----------
    p : float
        Probability in [0, 1].

    Returns
    -------
    float
        h(p) = -p*log2(p) - (1-p)*log2(1-p), with h(0) = h(1) = 0 by
        continuity.

    Raises
    ------
    ValueError
        If ``p`` lies outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def bosonic_entropy(nu: float) -> float:
    """Von Neumann entropy (bits) of a thermal state with symplectic eigenvalue nu.

    g(nu) = ((nu+1)/2)*log2((nu+1)/2) - ((nu-1)/2)*log2((nu-1)/2).

    Values in [1 - NU_CLAMP_TOL, 1] are clamped to exactly 1 so that
    floating-point covariance algebra cannot trip the domain check.

    Raises
    ------
    ValueError
        If nu < 1 - NU_CLAMP_TOL (non-physical covariance).
    """
    if nu < 1.0 - NU_CLAMP_TOL:
        raise ValueError(f"symplectic eigenvalue below 1: {nu!r}")
    if nu <= 1.0:
        return 0.0
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    return up * math.log2(up) - dn * math.log2(dn)


def gaussian_tail_ber(snr_amplitude: float) -> float:
    """Bit-error rate of a sign decision on a Gaussian-noise quadrature.

    Parameters
    ----------
    snr_amplitude : float
        Mean displacement at the detector divided by the standard
        deviation of the total quadrature noise.  Must be >= 0; may be
        ``math.inf``.

    Returns
    -------
    float
        BER = (1/2) * erfc(snr_amplitude / sqrt(2)).
    """
    if snr_amplitude < 0.0:
        raise ValueError(f"amplitude SNR must be non-negative: {snr_amplitude!r}")
    if math.isinf(snr_amplitude):
        return 0.0
    return 0.5 * math.erfc(snr_amplitude / math.sqrt(2.0))


# Acklam's rational approximation to the standard normal quantile
# (relative error < 1.15e-9 over the full domain), used as the seed for
# Newton polishing of the erfc inverse.
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def _normal_quantile(p: float) -> float:
    # Acklam's algorithm; p in (0, 1)
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


def erfc_inverse(y: float) -> float:
    """Inverse of math.erfc on (0, 2).

    Seeds with Acklam's rational normal-quantile approximation and
    polishes with Newton steps on f(x) = erfc(x) - y.  Absolute accuracy
    is better than 1e-12 for results in [0, 6]; in the far tail (y below
    roughly 1e-280) the Newton step runs on log(erfc) via its asymptotic
    expansion to avoid exp overflow.
    """
    if not 0.0 < y < 2.0:
        raise ValueError(f"erfc_inverse domain is (0, 2): {y!r}")
    if y == 1.0:
        return 0.0
    if y > 1.0:
        return -erfc_inverse(2.0 - y)

    x = -_normal_quantile(y / 2.0) / math.sqrt(2.0)
    for _ in range(2):
        if x < 25.0:
            # f'(x) = -2/sqrt(pi) * exp(-x^2)
            x += (math.erfc(x) - y) * (math.sqrt(math.pi) / 2.0) * math.exp(x * x)
        else:
            # log-space Newton with ln erfc(x) ~ -x^2 - ln(x sqrt(pi)) + ln(1 - 1/(2x^2))
            ln_erfc = -x * x - math.log(x * math.sqrt(math.pi)) + math.log1p(-0.5 / (x * x))
            x += (ln_erfc - math.log(y)) / (2.0 * x + 1.0 / x)
    return x


def ber_to_snr_amplitude(ber: float) -> float:
    """Amplitude SNR required for a target sign-decision bit-error rate.

    Inverse of :func:`gaussian_tail_ber` restricted to non-negative
    amplitudes, i.e. ber in (0, 0.5].  Forward/backward round trip is
    accurate to better than 1e-9 relative.
    """
    if not 0.0 < ber <= 0.5:
        raise ValueError(f"ber must lie in (0, 0.5]: {ber!r}")
    if ber == 0.5:
        return 0.0
    return math.sqrt(2.0) * erfc_inverse(2.0 * ber)


def hoeffding_deviation(n_samples: float, epsilon: float) -> float:
    """Hoeffding deviation of an observed frequency at failure probability epsilon.

    delta = sqrt(ln(1/epsilon) / (2 n_samples)).  Shifting the observed
    frequency of n_samples Bernoulli trials by delta covers the true
    mean except with probability epsilon.  n_samples = 0 returns inf (no
    samples bound nothing) and n_samples = inf returns exactly 0.

    Raises
    ------
    ValueError
        If n_samples is negative or NaN, or epsilon is outside (0, 1).
    """
    if not n_samples >= 0:
        raise ValueError(f"sample count must be non-negative: {n_samples!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1): {epsilon!r}")
    if n_samples == 0:
        return math.inf
    return math.sqrt(math.log(1.0 / epsilon) / (2.0 * n_samples))


def thermal_photon_number(frequency_hz: float, temperature_k: float) -> float:
    """Bose-Einstein mean photon occupancy 1 / (exp(hf/kT) - 1)."""
    if not frequency_hz > 0.0:
        raise ValueError(f"frequency must be > 0 Hz: {frequency_hz!r}")
    if not temperature_k > 0.0:
        raise ValueError(f"temperature must be > 0 K: {temperature_k!r}")
    hf = PLANCK_CONSTANT * frequency_hz
    kt = BOLTZMANN_CONSTANT * temperature_k
    if hf == 0.0 or kt == 0.0:
        raise ValueError(
            f"h*f or k*T underflows to 0 at frequency {frequency_hz!r} Hz, "
            f"temperature {temperature_k!r} K"
        )
    x = hf / kt
    if x > 700.0:
        # expm1 would overflow; occupancy is exp(-x) to double precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)
