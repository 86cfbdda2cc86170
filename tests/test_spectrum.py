import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effdim.rng import RngStream
from effdim.spectrum import (
    BadSpectrum,
    CovarianceSpectrum,
    effective_dimension,
    make_spectrum,
    max_norm_bound,
    sample_gaussian,
)


def test_effective_dimension_hand_values():
    s = make_spectrum("custom", values=[2.0, 1.0])  # variances 4, 1
    assert effective_dimension(s, 1) == pytest.approx(1.25, abs=1e-14)
    assert effective_dimension(s, 2) == pytest.approx(1.5, abs=1e-14)


def test_isotropic_gives_full_dimension():
    for d in (1, 3, 17):
        s = make_spectrum("isotropic", d=d, sigma1=0.7)
        for r in (1, 2, 5):
            assert effective_dimension(s, r) == pytest.approx(d, abs=1e-12)


def test_scale_invariance():
    s1 = make_spectrum("custom", values=[3.0, 1.0, 0.2])
    s2 = make_spectrum("custom", values=[30.0, 10.0, 2.0])
    for r in (1, 2, 3):
        assert effective_dimension(s1, r) == pytest.approx(
            effective_dimension(s2, r), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-8, max_value=1e8), min_size=1, max_size=30))
def test_effective_dimension_range_and_monotonic(values):
    sig = np.sort(np.asarray(values))[::-1]
    s = CovarianceSpectrum(sig)
    prev = None
    for r in (1, 2, 3, 4, 8):
        de = effective_dimension(s, r)
        assert 1.0 - 1e-12 <= de <= len(sig) + 1e-9
        if prev is not None:
            assert de >= prev - 1e-9
        prev = de


def test_spectrum_validation():
    with pytest.raises(BadSpectrum):
        CovarianceSpectrum(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(BadSpectrum):
        CovarianceSpectrum(np.array([1.0, 0.0]))  # not positive
    with pytest.raises(BadSpectrum):
        make_spectrum("power_law", d=4)  # missing alpha
    with pytest.raises(BadSpectrum):
        make_spectrum("nope", d=2)


def test_sample_covariance_converges():
    s = make_spectrum("custom", values=[2.0, 1.0, 0.5])
    sm = sample_gaussian(s, 200_000, RngStream(5))
    emp = sm.rows.T @ sm.rows / sm.n
    np.testing.assert_allclose(emp, s.covariance(), atol=0.05)


def test_max_norm_bound_dominates_samples():
    s = make_spectrum("isotropic", d=10, sigma1=1.0)
    bound = max_norm_bound(s, 100, 0.01)
    exceed = 0
    for t in range(500):
        sm = sample_gaussian(s, 100, RngStream(77).child(t))
        if np.max(np.sum(sm.rows**2, axis=1)) > bound:
            exceed += 1
    assert exceed / 500 <= 0.01 + 0.02


def test_max_norm_bound_validation():
    s = make_spectrum("isotropic", d=2, sigma1=1.0)
    with pytest.raises(ValueError):
        max_norm_bound(s, 10, 1.5)
    with pytest.raises(ValueError):
        max_norm_bound(s, 0, 0.1)
