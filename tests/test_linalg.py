import itertools
import math

import numpy as np
import pytest

from effdim.linalg import (
    DimTooLarge,
    tensor_opnorm,
)
from effdim.rng import RngStream
from oracles import sphere_net


def sym_tensor(t: np.ndarray) -> np.ndarray:
    """Symmetrize a dense tensor over all index permutations."""
    perms = itertools.permutations(range(t.ndim))
    return sum(np.transpose(t, perm) for perm in perms) / math.factorial(t.ndim)


def rank1_tensor(v: np.ndarray, order: int) -> np.ndarray:
    """v^{⊗p} as a dense array."""
    out = v
    for _ in range(order - 1):
        out = np.multiply.outer(out, v)
    return out


def tensor_apply(t: np.ndarray, x: np.ndarray) -> float:
    """<t, x^{⊗p}> for a single vector x."""
    out = t
    for _ in range(t.ndim):
        out = out @ x
    return float(out)


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


def test_sym_tensor_is_permutation_invariant():
    gen = RngStream(5).generator()
    t = sym_tensor(gen.standard_normal((3, 3, 3)))
    for perm in itertools.permutations(range(3)):
        np.testing.assert_allclose(np.transpose(t, perm), t, atol=1e-14)


def test_rank1_tensor_apply():
    v = np.array([1.0, -2.0])
    t = rank1_tensor(v, 3)
    x = np.array([0.5, 0.25])
    assert tensor_apply(t, x) == pytest.approx((v @ x) ** 3)


def test_tensor_opnorm_matches_matrix_case():
    gen = RngStream(9).generator()
    for _ in range(10):
        m = gen.standard_normal((5, 5))
        m = (m + m.T) / 2
        expected = np.linalg.norm(m, 2)
        got = tensor_opnorm(m, restarts=16, iters=300, rng=RngStream(1))
        assert got == pytest.approx(expected, rel=1e-8)


def test_tensor_opnorm_order3_against_fine_net():
    gen = RngStream(13).generator()
    t = sym_tensor(gen.standard_normal((3, 3, 3)))
    net = sphere_net(3, 0.02)
    vals = np.einsum("ijk,ni,nj,nk->n", t, net, net, net)
    oracle = float(np.max(np.abs(vals)))
    got = tensor_opnorm(t, restarts=32, iters=300, rng=RngStream(2))
    # the net undershoots by O(resolution); power iteration should win
    assert got >= oracle - 1e-12
    assert got <= oracle * 1.05 + 0.1


def test_tensor_opnorm_non_decreasing_in_iters():
    gen = RngStream(17).generator()
    for shape in ((4, 4, 4), (3, 3, 3, 3)):
        t = sym_tensor(gen.standard_normal(shape))
        vals = [tensor_opnorm(t, restarts=3, iters=k, rng=RngStream(4))
                for k in range(25)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tensor_opnorm_zero_tensor():
    assert tensor_opnorm(np.zeros((3, 3, 3))) == 0.0


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
    with pytest.raises(DimTooLarge):
        sphere_net(5, 0.5)
