"""The expression form of the line-by-line gamma kernel, kept as a byte oracle.

This is the package's specific-attenuation kernel as it stood before the
kernel was split into state-only line factors and a frequency-block loop
over reused buffers, plus the guard on a zero Debye width that both forms
have since taken.  Every full-size operation of both forms is a
correctly rounded +, -, x or / in the same per-element order, so the two
must agree bit for bit; tests compare them with ``tobytes()``.  Only used
by tests.
"""

from __future__ import annotations

import numpy as np


def _gamma_grid(
    f_ghz: np.ndarray,
    t_k: np.ndarray,
    p_total_hpa: np.ndarray,
    rho_g_m3: np.ndarray,
    oxygen_lines: np.ndarray,
    water_lines: np.ndarray,
) -> np.ndarray:
    """Specific attenuation in dB/km, shape (len(f), len(states)).

    Van Vleck-Weisskopf line shapes with pressure-induced interference
    for oxygen, Doppler-broadened shapes for water vapour, plus the
    non-resonant Debye / pressure-induced nitrogen continuum.
    """
    f = np.asarray(f_ghz, dtype=float)[:, None]  # (nf, 1)
    t = np.asarray(t_k, dtype=float)[None, :]  # (1, ns)
    theta = 300.0 / t
    e = np.asarray(rho_g_m3, dtype=float)[None, :] * t / 216.7
    # the recommendation parametrizes widths with the dry-air partial pressure
    p = np.maximum(np.asarray(p_total_hpa, dtype=float)[None, :] - e, 0.0)

    n_total = np.zeros(np.broadcast_shapes(f.shape, t.shape), dtype=float)

    for fi, a1, a2, a3, a4, a5, a6 in oxygen_lines:
        si = a1 * 1e-7 * p * theta**3 * np.exp(a2 * (1.0 - theta))
        df = a3 * 1e-4 * (p * theta ** (0.8 - a4) + 1.1 * e * theta)
        df = np.sqrt(df * df + 2.25e-6)  # Zeeman/Doppler floor
        delta = (a5 + a6 * theta) * 1e-4 * (p + e) * theta**0.8
        shape = (df - delta * (fi - f)) / ((fi - f) ** 2 + df * df) + (
            df - delta * (fi + f)
        ) / ((fi + f) ** 2 + df * df)
        n_total += si * (f / fi) * shape

    # dry continuum: Debye spectrum of oxygen plus pressure-induced nitrogen
    d = 5.6e-4 * (p + e) * theta**0.8
    # a vacuum state (p + e = 0) has d = 0 and a prefactor f p = 0; a width of
    # 1 makes its continuum 0 instead of 0 * inf = NaN, as in the package
    d = np.where(d > 0.0, d, 1.0)
    # below about 1e-151 f[GHz] hPa, (f / d)^2 overflows to inf and the Debye
    # term reads its limit 0, as in the package, which ignores that overflow too
    with np.errstate(over="ignore"):
        n_total += (
            f
            * p
            * theta**2
            * (
                6.14e-5 / (d * (1.0 + (f / d) ** 2))
                + 1.4e-12 * p * theta**1.5 / (1.0 + 1.9e-5 * f**1.5)
            )
        )

    for fi, b1, b2, b3, b4, b5, b6 in water_lines:
        si = b1 * 1e-1 * e * theta**3.5 * np.exp(b2 * (1.0 - theta))
        df = b3 * 1e-4 * (p * theta**b4 + b5 * e * theta**b6)
        df = 0.535 * df + np.sqrt(0.217 * df * df + 2.1316e-12 * fi * fi / theta)
        shape = df / ((fi - f) ** 2 + df * df) + df / ((fi + f) ** 2 + df * df)
        n_total += si * (f / fi) * shape

    return np.maximum(0.1820 * f * n_total, 0.0)
