"""Independent high-precision reimplementation of the CV Holevo bound.

Carries out the trusted-detector model the long way, in 200-bit mpmath
arithmetic and with no numpy: the entangling-cloner state of Alice's
mode A and the channel output B0, a detector modelled as a
beamsplitter of transmissivity eta whose idle port carries half of an
EPR pair of variance d = 1 + v_el / (1 - eta) (the partner G purifies
the electronic noise), a homodyne measurement of x on the bright
output, and symplectic eigenvalues from mpmath.eig of Omega gamma.
The five-party state is pure, so Eve's conditional entropy is that of
(A, dark output, G) given Bob's outcome.

Shares nothing with the package's closed-form kernel: cross-checking
against it catches algebra slips and cancellation near the vacuum
boundary (tau -> 1), where double-precision matrix code loses digits.
Only used by tests.
"""

from __future__ import annotations

import mpmath

PREC_BITS = 200


def _symplectic_eigenvalues(gamma: list[list]) -> list:
    """Symplectic eigenvalues of a 2m x 2m covariance, ascending.

    The eigenvalues of Omega gamma come in pairs +/- i nu.
    """
    size = len(gamma)
    omega_gamma = mpmath.matrix(size, size)
    for k in range(0, size, 2):
        for j in range(size):
            omega_gamma[k, j] = gamma[k + 1][j]
            omega_gamma[k + 1, j] = -gamma[k][j]
    eigs = sorted(abs(e) for e in mpmath.eig(omega_gamma, left=False, right=False))
    return eigs[::2]


def _entropy_bits(nu):
    if nu <= 1:
        return mpmath.mpf(0)
    up, dn = (nu + 1) / 2, (nu - 1) / 2
    return up * mpmath.log(up, 2) - dn * mpmath.log(dn, 2)


def _place(gamma: list[list], i: int, j: int, diag_value, z_sign: bool) -> None:
    """Write diag_value * (I or Z) into the 2x2 block (i, j) and, off the
    diagonal, its transpose into (j, i)."""
    for r, value in enumerate((diag_value, -diag_value if z_sign else diag_value)):
        gamma[2 * i + r][2 * j + r] = value
        gamma[2 * j + r][2 * i + r] = value


def holevo_chi_e(
    tau: float,
    n_thermal: float,
    eps_classical: float,
    *,
    v_mod: float,
    v_el: float,
    eta: float,
    ber_target: float,
) -> tuple:
    """(chi_E in bits, the two eigenvalues of (A, B0), the three conditional ones).

    The input-referred line noise eps_in is the phase-correction residual
    of the classical displacement, re-derived here from its definition:
    leak = eps_classical * amp^2 with amp the sign-decision amplitude of
    ber_target, and the residual leak * sigma_bit^2 referred back through
    tau * eta.
    """
    with mpmath.workprec(PREC_BITS):
        mp = mpmath.mpf
        t, n, eta_m, v_el_m = mp(tau), mp(n_thermal), mp(eta), mp(v_el)
        v = mp(v_mod) + 1

        amp = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mp(ber_target))
        leak = mp(eps_classical) * amp**2
        background = eta_m * (1 - t) * 2 * n
        sigma_bit_sq = (1 + v_el_m + t * eta_m * mp(v_mod) + background) / (1 - leak)
        eps_in = leak * sigma_bit_sq / (t * eta_m)

        chi_line = (1 - t) / t * (2 * n + 1) + eps_in
        a = v
        b = t * (v + chi_line)
        c = mpmath.sqrt(t * (v * v - 1))
        d = mp(1) if eta_m == 1 else 1 + v_el_m / (1 - eta_m)
        e_off = mpmath.sqrt(d * d - 1)

        # covariance of the modes (A, B0, F0, G)
        gamma = [[mp(0)] * 8 for _ in range(8)]
        _place(gamma, 0, 0, a, False)
        _place(gamma, 1, 1, b, False)
        _place(gamma, 0, 1, c, True)
        _place(gamma, 2, 2, d, False)
        _place(gamma, 3, 3, d, False)
        _place(gamma, 2, 3, e_off, True)

        nu_ab = _symplectic_eigenvalues([row[:4] for row in gamma[:4]])

        # beamsplitter on (B0, F0): B1 = sqrt(eta) B0 + sqrt(1 - eta) F0,
        # F1 = -sqrt(1 - eta) B0 + sqrt(eta) F0
        rt, rr = mpmath.sqrt(eta_m), mpmath.sqrt(1 - eta_m)
        s = [[mp(1) if i == j else mp(0) for j in range(8)] for i in range(8)]
        for r in range(2):
            s[2 + r][2 + r], s[2 + r][4 + r] = rt, rr
            s[4 + r][2 + r], s[4 + r][4 + r] = -rr, rt
        gamma1 = [
            [
                sum(s[i][k] * gamma[k][m] * s[j][m] for k in range(8) for m in range(8))
                for j in range(8)
            ]
            for i in range(8)
        ]

        # homodyne on x of B1: Schur complement of its variance in the rest
        rest = [0, 1, 4, 5, 6, 7]  # modes A, F1, G
        var_x = gamma1[2][2]
        cond = [
            [gamma1[i][j] - gamma1[i][2] * gamma1[2][j] / var_x for j in rest]
            for i in rest
        ]
        nu_cond = _symplectic_eigenvalues(cond)

        chi = sum(_entropy_bits(nu) for nu in nu_ab) - sum(
            _entropy_bits(nu) for nu in nu_cond
        )
        return chi, tuple(reversed(nu_ab)), tuple(reversed(nu_cond))
