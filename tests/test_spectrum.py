import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effdim.cli import run_effdim, run_entropy
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


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_effective_dimension_of_a_large_power_law_matches_fsum(alpha):
    # sigma_i / sigma_1 = i^-alpha, so d_eff(r) = sum_i i^(-2 alpha / r),
    # summed here exactly rounded in pure Python.
    d = 10**6
    s = make_spectrum("power_law", d=d, sigma1=3.0, alpha=alpha)
    for r in (1, 2, 3, 8):
        exact = math.fsum(i ** (-2.0 * alpha / r) for i in range(1, d + 1))
        assert effective_dimension(s, r) == pytest.approx(exact, rel=1e-12)


_EDGE_VALUES = [0.0, -0.0, -1.0, 1.0, 2.0, 0.5, math.nan, math.inf, -math.inf]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_EDGE_VALUES) | st.floats(), min_size=1,
                max_size=8),
       st.booleans())
def test_spectrum_validation_matches_the_elementwise_checks(values, descending):
    # Sorting makes ties and accepted spectra common; NaN and the infinities
    # stay wherever the sort puts them.
    s = np.array(sorted(values, reverse=True) if descending else values)
    with np.errstate(invalid="ignore"):
        expected_bad = not np.all(s > 0) or bool(np.any(np.diff(s) > 0))
    try:
        CovarianceSpectrum(s)
    except BadSpectrum:
        assert expected_bad
    else:
        assert not expected_bad


def _traced_peak(f, *args, **kwargs) -> int:
    """Bytes f holds at its peak beyond what was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_spectrum_layer_holds_one_work_array():
    # tracemalloc counts numpy's buffers exactly; one float per axis is 8d
    # bytes.  Building a spectrum holds it plus the order check's d-byte
    # mask; a runner holds it plus one work array.
    d = 200_000
    spec = {"kind": "power_law", "d": d, "sigma1": 1.0, "alpha": 0.5}
    assert _traced_peak(make_spectrum, "power_law", d=d, alpha=0.5) <= 1.01 * 9 * d
    s = make_spectrum("power_law", d=d, alpha=0.5)
    assert _traced_peak(effective_dimension, s, 3) <= 1.1 * 8 * d
    assert _traced_peak(run_effdim, {"spectrum": spec, "r_values": [1, 2, 8]},
                        0, 1) <= 2.1 * 8 * d
    # Both small eps count every axis, so each exact sum spans the spectrum.
    assert _traced_peak(run_entropy, {"spectrum": spec, "r": 2,
                                      "eps_grid": [0.5, 0.001, 0.0005]},
                        0, 1) <= 2.1 * 8 * d
