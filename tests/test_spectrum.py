import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import effdim.entropy
from effdim.cli import run_effdim, run_entropy
from effdim.entropy import eps_entropy_bound, kb_mb, m_eps
from effdim.rng import RngStream
from effdim.spectrum import (
    BLOCK,
    BadSpectrum,
    CovarianceSpectrum,
    block_sum,
    effective_dimension,
    make_spectrum,
    max_norm_bound,
    sample_gaussian,
)
from oracles import count_above_whole, effective_dimension_whole, log_sum_whole


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


def test_spectrum_layer_holds_only_its_spectrum():
    # Every d-sized pass runs over blocks of BLOCK entries (512 KiB), so a
    # call holds the spectrum, 8d bytes, plus far less than 2 MB.
    limit = 2 * 2**20
    for d in (200_000, 10**6):
        spec = {"kind": "power_law", "d": d, "sigma1": 1.0, "alpha": 0.5}
        assert _traced_peak(make_spectrum, "power_law", d=d, alpha=0.5) <= 8 * d + limit
        s = make_spectrum("power_law", d=d, alpha=0.5)
        assert _traced_peak(effective_dimension, s, 3) < limit
        assert _traced_peak(run_effdim, {"spectrum": spec, "r_values": [1, 2, 8]},
                            0, 1) <= 8 * d + limit
        # eps = 0.0005 counts every axis, so its exact sum spans the spectrum.
        assert _traced_peak(run_entropy, {"spectrum": spec, "r": 2,
                                          "eps_grid": [0.5, 0.001, 0.0005]},
                            0, 1) <= 8 * d + limit


@pytest.mark.parametrize("n", [1, 7, 8, 129, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 3, 999_983, 10**6 + 3])
def test_block_sum_is_the_whole_array_sum(n):
    # Terms spanning ten decades make the sum depend on its order.
    gen = RngStream(n).generator()
    x = gen.standard_normal(n) * 10.0 ** gen.uniform(-5, 5, n)
    assert block_sum(lambda v: v, x) == float(x.sum())


def _spectra(d):
    """Power laws, an isotropic spectrum and one with long ties, of size d."""
    for alpha in (0.01, 0.5, 1.0, 2.0):
        yield make_spectrum("power_law", d=d, sigma1=3.0, alpha=alpha)
    yield make_spectrum("isotropic", d=d, sigma1=2.0)
    # Ties at 1.0 and at eps * sigma_1 for eps = 1/3, 1/6 and 1/3000.
    steps = np.array([3.0, 1.5, 1.0, 0.5, 1e-3])
    yield make_spectrum("custom", values=steps[np.arange(d) * len(steps) // d])


@pytest.mark.parametrize("d", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 10**6 + 3])
def test_blocked_passes_are_bit_equal_to_the_whole_array_oracles(d, monkeypatch):
    eps_grid = [1.0, 0.5, 1.0 / 3.0, 1.0 / 6.0, 0.01, 1.0 / 3000.0, 1e-9]
    for s in _spectra(d):
        for r in (1, 2, 2.5, 3, 8):
            assert effective_dimension(s, r) == effective_dimension_whole(s, r)
        for eps in eps_grid:
            t = eps * s.sigmas[0]
            me = count_above_whole(s.sigmas, t)
            assert m_eps(s, eps) == me
            assert effdim.entropy._log_sum(s.sigmas[:me], t) == log_sum_whole(s.sigmas[:me], t)
        mb = count_above_whole(s.sigmas, 1.0)
        assert kb_mb(s) == (log_sum_whole(s.sigmas[:mb], 1.0), mb)
        blocked = [eps_entropy_bound(s, eps_grid, r=r) for r in (1, 3)]
        with monkeypatch.context() as m:
            m.setattr(effdim.entropy, "effective_dimension", effective_dimension_whole)
            m.setattr(effdim.entropy, "_log_sum", log_sum_whole)
            m.setattr(effdim.entropy, "m_eps",
                      lambda s, eps: count_above_whole(s.sigmas, eps * s.sigmas[0]))
            assert blocked == [eps_entropy_bound(s, eps_grid, r=r) for r in (1, 3)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([4.0, 3.0, 1.0, 0.7, 0.1, 1e-300]) | st.floats(1e-8, 1e8),
                min_size=1, max_size=40),
       st.integers(0, 39), st.floats(1e-12, 1.0))
def test_m_eps_binary_search_matches_the_mask_count(values, i, eps):
    # Ties are common, and half the eps are sigma_i / sigma_1 of an axis.
    sig = np.sort(np.asarray(values))[::-1]
    s = CovarianceSpectrum(sig)
    for e in (sig[i % len(sig)] / sig[0], eps):
        assert m_eps(s, e) == count_above_whole(sig, e * sig[0])


def test_order_check_sees_every_adjacent_pair_across_blocks():
    d = 2 * BLOCK + 3
    sig = np.linspace(2.0, 1.0, d)
    CovarianceSpectrum(sig)
    for i in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, d - 1):
        bad = sig.copy()
        bad[i] = bad[i - 1] * 1.5  # the one increasing pair is (i - 1, i)
        with pytest.raises(BadSpectrum):
            CovarianceSpectrum(bad)
