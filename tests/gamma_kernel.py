"""Specific attenuation at given states through the package's gamma kernel.

The package integrates gamma only along slants; tests that pin gamma
itself (line landmarks, the oracles, a vacuum, tiny pressures, block
sizes) evaluate it here, at arbitrary (T, P, rho), through the same
_line_factors and _gamma_blocks that every slant uses.
"""

from __future__ import annotations

import numpy as np

from qlinksim.atmosphere import _gamma_blocks, _line_factors, default_line_table


def gamma_at(f_ghz, t_k, p_hpa, rho_g_m3) -> np.ndarray:
    """gamma in dB/km, shape (len(f), len(states)); each state column is a scalar or a sequence."""
    f = np.asarray(f_ghz, dtype=float).reshape(-1)
    states = (np.atleast_1d(np.asarray(column, dtype=float)) for column in (t_k, p_hpa, rho_g_m3))
    factors = _line_factors(*states, *default_line_table())
    out = np.empty((f.size, factors[0].shape[1]))
    for lo, gamma in _gamma_blocks(f, factors):
        out[lo : lo + gamma.shape[0]] = gamma
    return out
