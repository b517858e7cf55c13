"""Specific attenuation at given states through the package's gamma kernel.

The package integrates gamma only along slants; tests that pin gamma
itself (line landmarks, the oracles, a vacuum, tiny pressures, block
sizes) evaluate it here, at arbitrary (T, P, rho), through the same
_line_factors and _gamma_blocks that every slant uses.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from qlinksim import atmosphere
from qlinksim.atmosphere import _gamma_blocks, _line_factors, default_line_table


def gamma_at(f_ghz, t_k, p_hpa, rho_g_m3, node_major=None) -> np.ndarray:
    """gamma in dB/km, shape (len(f), len(states)); each state column is a scalar or a sequence.

    node_major picks the kernel's orientation (see atmosphere._node_major):
    True or False forces it, None takes the package's rule for len(states).
    """
    f = np.asarray(f_ghz, dtype=float).reshape(-1)
    states = [np.atleast_1d(np.asarray(column, dtype=float)) for column in (t_k, p_hpa, rho_g_m3)]
    forced = (contextlib.nullcontext() if node_major is None
              else mock.patch.object(atmosphere, "_node_major", lambda nodes: node_major))
    with forced:
        factors = _line_factors(*states, *default_line_table())
    out = np.empty((f.size, states[0].size))
    for lo, gamma in _gamma_blocks(f, factors):
        block = gamma.T if factors[0] else gamma
        out[lo : lo + block.shape[0]] = block
    return out
