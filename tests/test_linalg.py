import numpy as np
import pytest

from effdim.concentration import Nonlinearity, SearchConfig, empirical_sup_deviation
from effdim.linalg import (
    LimitExceeded,
    tensor_opnorm,
)
from effdim.rng import RngStream
from effdim.spectrum import SampleMatrix, make_spectrum, sample_gaussian
from oracles import sphere_net


def charpoly_roots(m):
    """Eigenvalue oracle independent of LAPACK's symmetric solver:
    characteristic polynomial by the Faddeev-LeVerrier recursion, then
    np.roots.  Only trustworthy at small dimension."""
    d = m.shape[0]
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    Mk = np.zeros_like(m)
    for k in range(1, d + 1):
        Mk = m @ Mk + coeffs[k - 1] * np.eye(d)
        coeffs[k] = -np.trace(m @ Mk) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def test_tensor_opnorm_matches_charpoly_oracle():
    gen = RngStream(11).generator()
    for d in range(2, 7):
        for _ in range(20):
            m = gen.standard_normal((d, d))
            m = (m + m.T) / 2
            expected = float(np.abs(charpoly_roots(m)).max())
            assert tensor_opnorm(m) == pytest.approx(expected, abs=1e-8 * (1 + expected))


def test_tensor_opnorm_rejects_asymmetric():
    with pytest.raises(ValueError):
        tensor_opnorm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_tensor_opnorm_rejects_small_relative_asymmetry():
    # a relative asymmetry of 1e-6 is a malformed input, not a solver failure
    with pytest.raises(ValueError):
        tensor_opnorm(np.array([[1.0, 1.0], [1.0 + 1e-6, 1.0]]))


def test_tensor_opnorm_matches_matrix_case():
    gen = RngStream(9).generator()
    for _ in range(10):
        m = gen.standard_normal((5, 5))
        m = (m + m.T) / 2
        expected = np.linalg.norm(m, 2)
        got = tensor_opnorm(m)
        assert got == pytest.approx(expected, rel=1e-8)


# Order r >= 3 tensors are the deviation tensors D = E_n[a^{⊗r}] (- E[a^{⊗r}]),
# whose operator norm the concentration route takes without forming D.
def identity_opnorm(A, r, ref=None, restarts=8, iters=100, rng=RngStream(0)):
    return empirical_sup_deviation(
        SampleMatrix(A), [Nonlinearity("identity")] * r, r, centered=ref is not None,
        ref=ref, search=SearchConfig(restarts, iters), rng=rng).value


def test_tensor_opnorm_order3_against_fine_net():
    A = RngStream(13).generator().standard_normal((40, 3))
    net = sphere_net(3, 0.02)
    # D is symmetric, so its supremum over three vectors is one over x = y = z
    vals = np.mean((A @ net.T) ** 3, axis=0)
    oracle = float(np.max(np.abs(vals)))
    got = identity_opnorm(A, 3, restarts=32, iters=300, rng=RngStream(2))
    # the net undershoots by O(resolution); power iteration should win
    assert got >= oracle - 1e-12
    assert got <= oracle * 1.05 + 0.1


def test_tensor_opnorm_non_decreasing_in_iters():
    for d, r in ((4, 3), (3, 4)):
        sp = make_spectrum("isotropic", d=d, sigma1=1.0)
        A = sample_gaussian(sp, 30, RngStream(17, r)).rows
        vals = [identity_opnorm(A, r, ref=sp, restarts=3, iters=k, rng=RngStream(4))
                for k in range(25)]
        # no update, no estimate: 0.0 is the trivial lower bound
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tensor_opnorm_zero_tensor():
    assert identity_opnorm(np.zeros((5, 3)), 3) == 0.0


def test_sphere_net_covering_radius():
    gen = RngStream(21).generator()
    for dim, res in [(1, 0.3), (2, 0.1), (3, 0.15), (4, 0.3)]:
        net = sphere_net(dim, res)
        np.testing.assert_allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-9)
        pts = gen.standard_normal((2000, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # Blocks of 64 points keep the (points, net, dim) differences small.
        d2 = np.concatenate([
            ((block[:, None, :] - net[None, :, :]) ** 2).sum(axis=2).min(axis=1)
            for block in np.split(pts, range(64, len(pts), 64))])
        assert np.sqrt(d2).max() <= res


def test_sphere_net_size_and_dim_cap():
    net = sphere_net(2, 0.1)
    assert len(net) <= 2 * np.pi / 0.1 + 1
    with pytest.raises(LimitExceeded, match="sphere_net supports dim <= 4"):
        sphere_net(5, 0.5)
