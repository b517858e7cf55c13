from __future__ import annotations

import math

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
    erfc_inverse,
    gaussian_tail_ber,
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
    assert bosonic_entropy(5.0) == pytest.approx(3.0 * math.log2(3.0) - 2.0, rel=1e-14)
    assert bosonic_entropy(5.0) == pytest.approx(2.7548875021634682, rel=1e-12)


def test_bosonic_entropy_clamps_rounding_noise_but_rejects_real_violations():
    assert bosonic_entropy(1.0 - 1e-13) == 0.0
    with pytest.raises(ValueError):
        bosonic_entropy(0.999)


@given(st.floats(min_value=1.0, max_value=1e6))
def test_bosonic_entropy_monotone(nu):
    assert bosonic_entropy(nu + 0.5) > bosonic_entropy(nu)


def test_gaussian_tail_ber_endpoints():
    assert gaussian_tail_ber(0.0) == 0.5
    assert gaussian_tail_ber(math.inf) == 0.0
    with pytest.raises(ValueError):
        gaussian_tail_ber(-1.0)


@pytest.mark.parametrize(
    "ber", [0.5, 0.4, 0.1, 1e-2, 1e-6, 1e-9, 1e-12, 1e-30, 1e-100]
)
def test_ber_amplitude_round_trip(ber):
    amp = ber_to_snr_amplitude(ber)
    assert gaussian_tail_ber(amp) == pytest.approx(ber, rel=1e-9)


def test_ber_to_snr_amplitude_domain():
    assert ber_to_snr_amplitude(0.5) == 0.0
    for bad in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(ValueError):
            ber_to_snr_amplitude(bad)


def test_erfc_inverse_identities():
    assert erfc_inverse(1.0) == 0.0
    # odd symmetry about y = 1
    assert erfc_inverse(1.5) == pytest.approx(-erfc_inverse(0.5), abs=1e-14)
    for bad in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            erfc_inverse(bad)


@given(st.floats(min_value=-280.0, max_value=-0.4))
def test_erfc_inverse_round_trip_log_domain(log10_y):
    y = 10.0**log10_y
    x = erfc_inverse(y)
    assert math.erfc(x) == pytest.approx(y, rel=1e-9)


def test_erfc_inverse_far_tail_stays_finite_and_monotone():
    xs = [erfc_inverse(10.0**e) for e in (-50, -100, -200, -290)]
    assert all(math.isfinite(x) for x in xs)
    assert xs == sorted(xs)


def test_hoeffding_deviation_formula_and_edges():
    assert hoeffding_deviation(0, 0.1) == math.inf
    assert hoeffding_deviation(math.inf, 0.1) == 0.0
    n, eps = 1e10, 1e-10
    assert hoeffding_deviation(n, eps) == pytest.approx(
        math.sqrt(math.log(1.0 / eps) / (2.0 * n)), rel=1e-14
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
