"""Physical constants, the shared information-theory / statistics helpers
and the Bose-Einstein thermal photon occupancy.

Every rate in this package is reported in bits per channel use, so the
entropy functions here use base-2 logarithms throughout.  Natural
logarithms appear only inside concentration bounds.  The BER-target
amplitude is the standard library's normal quantile (Wichura's AS241,
measured within 7.5e-16 relative over ber from 5e-324 to 0.5).

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
    "ber_to_snr_amplitude",
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


# the standard normal inv_cdf, bound by the first ber_to_snr_amplitude call
_normal_quantile = None


def ber_to_snr_amplitude(ber: float) -> float:
    """Amplitude SNR required for a target sign-decision bit-error rate.

    Inverse of ber = (1/2) erfc(amplitude / sqrt(2)), the sign-decision
    error on a Gaussian-noise quadrature, on ber in (0, 0.5]: the upper
    normal quantile -Phi^-1(ber) from ``statistics.NormalDist`` (Wichura's
    AS241), measured within 7.5e-16 relative of a 160-bit root over ber
    from 5e-324 to 0.5.  ``statistics`` is imported and the quantile
    bound on first use, so only CV runs load it.
    """
    global _normal_quantile
    if not 0.0 < ber <= 0.5:
        raise ValueError(f"ber must lie in (0, 0.5]: {ber!r}")
    if ber == 0.5:
        return 0.0  # the negated quantile would read -0.0
    if _normal_quantile is None:
        from statistics import NormalDist

        _normal_quantile = NormalDist().inv_cdf
    return -_normal_quantile(ber)


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
    # -log(epsilon), not log(1 / epsilon), which overflows at tiny epsilon
    return math.sqrt(-math.log(epsilon) / (2.0 * n_samples))


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
    # at an extreme k*T, x underflows to 0, or 1 / x overflows below about 5.6e-309
    occupancy = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if occupancy == math.inf:
        raise ValueError(
            f"occupancy 1 / expm1(h*f / k*T) is not finite at frequency {frequency_hz!r} Hz, "
            f"temperature {temperature_k!r} K: h*f / k*T = {x!r}"
        )
    return occupancy
