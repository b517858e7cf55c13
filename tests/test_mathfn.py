from __future__ import annotations

import math
import random

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinksim.mathfn import (
    BOLTZMANN_CONSTANT,
    EARTH_RADIUS_KM,
    PLANCK_CONSTANT,
    ber_to_snr_amplitude,
    binary_entropy,
    bosonic_entropy,
    hoeffding_deviation,
)


def test_constants_are_exact_si_values():
    assert PLANCK_CONSTANT == 6.62607015e-34
    assert BOLTZMANN_CONSTANT == 1.380649e-23
    assert EARTH_RADIUS_KM == 6371.0


def test_binary_entropy_endpoints_and_midpoint():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_reference_value():
    # direct evaluation of -p log2 p - (1-p) log2 (1-p) at p = 0.11
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(bad):
    with pytest.raises(ValueError):
        binary_entropy(bad)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetry_and_range(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def test_bosonic_entropy_reference_values():
    assert bosonic_entropy(1.0) == 0.0
    # ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2) at nu = 5:
    # 3 log2 3 - 2
    assert bosonic_entropy(5.0) == pytest.approx(3.0 * math.log2(3.0) - 2.0, rel=1e-14, abs=0.0)
    assert bosonic_entropy(5.0) == pytest.approx(2.7548875021634682, rel=1e-12, abs=0.0)


def test_bosonic_entropy_clamps_rounding_noise_but_rejects_real_violations():
    assert bosonic_entropy(1.0 - 1e-13) == 0.0
    with pytest.raises(ValueError):
        bosonic_entropy(0.999)


@given(st.floats(min_value=1.0, max_value=1e6))
def test_bosonic_entropy_monotone(nu):
    assert bosonic_entropy(nu + 0.5) > bosonic_entropy(nu)


@pytest.mark.parametrize(
    "ber",
    [0.5, 0.4, 0.1, 1e-2, 1e-6, 1e-9, 1e-12, 1e-30, 1e-100, 1e-280, 1e-290, 1e-300, 1e-307],
)
def test_ber_amplitude_round_trip(ber):
    amp = ber_to_snr_amplitude(ber)
    assert 0.5 * math.erfc(amp / math.sqrt(2.0)) == pytest.approx(ber, rel=1e-9, abs=0.0)


def test_ber_to_snr_amplitude_domain():
    # +0.0, not -0.0: no displacement is sent at BER 1/2
    assert math.copysign(1.0, ber_to_snr_amplitude(0.5)) == 1.0
    assert ber_to_snr_amplitude(0.5) == 0.0
    for bad in (0.0, -0.1, 0.6, 1.0, math.nan):
        with pytest.raises(ValueError):
            ber_to_snr_amplitude(bad)


def _amplitude_160_bits(ber: float) -> mpmath.mpf:
    """Root of erfc(x / sqrt 2) / 2 = ber by Newton steps on ln Q(x) = ln ber.

    ln Q is concave and decreasing, so the steps converge from any seed.
    """
    with mpmath.workprec(160):
        ln_ber = mpmath.log(ber)
        x = mpmath.sqrt(-2 * mpmath.log(2 * mpmath.mpf(ber)))
        for _ in range(100):
            q = mpmath.erfc(x / mpmath.sqrt(2)) / 2
            step = (mpmath.log(q) - ln_ber) * q / mpmath.npdf(x)
            x += step
            if abs(step) < mpmath.mpf(2) ** -140:
                return x
    raise AssertionError(f"no 160-bit root for ber={ber!r}")


def test_ber_to_snr_amplitude_matches_160_bit_root():
    # log-uniform over the whole domain, the subnormal end included; the
    # normal quantile measured at most 7.5e-16 relative here
    rng = random.Random(20)
    lo, hi = math.log(5e-324), math.log(0.5)
    bers = [5e-324, 1e-307, 1e-280, 4e-274, 0.5 - 2.0**-53]
    bers += [max(math.exp(rng.uniform(lo, hi)), 5e-324) for _ in range(400)]
    for ber in bers:
        want = _amplitude_160_bits(ber)
        got = ber_to_snr_amplitude(ber)
        assert abs(got - want) <= 2e-15 * want, ber


def test_hoeffding_deviation_formula_and_edges():
    assert hoeffding_deviation(0, 0.1) == math.inf
    assert hoeffding_deviation(math.inf, 0.1) == 0.0
    # 1 / epsilon overflows here; the deviation must not
    assert hoeffding_deviation(math.inf, 1e-320) == 0.0
    assert math.isfinite(hoeffding_deviation(1e9, 1e-320))
    n, eps = 1e10, 1e-10
    assert hoeffding_deviation(n, eps) == pytest.approx(
        math.sqrt(math.log(1.0 / eps) / (2.0 * n)), rel=1e-14, abs=0.0
    )
    with pytest.raises(ValueError):
        hoeffding_deviation(-1.0, 0.1)
    with pytest.raises(ValueError):
        hoeffding_deviation(math.nan, 0.1)
    with pytest.raises(ValueError):
        hoeffding_deviation(10.0, 0.0)
    with pytest.raises(ValueError):
        hoeffding_deviation(10.0, 1.0)


@given(
    st.floats(min_value=1.0, max_value=1e15),
    st.floats(min_value=1e-15, max_value=0.5),
)
def test_hoeffding_deviation_monotonicity(n, eps):
    # shrinks with sample count, and with a looser failure budget
    assert hoeffding_deviation(2.0 * n, eps) < hoeffding_deviation(n, eps)
    assert hoeffding_deviation(n, min(2.0 * eps, 0.9)) <= hoeffding_deviation(n, eps)
