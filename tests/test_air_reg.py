"""Adjacency parameterizations, Dirichlet energy, gradients, limit oracles."""
import warnings

import numpy as np
import pytest

from aircomplete.air_reg import (LaplacianPair, RegParam, build_laplacian,
                                 decay_constant, dirichlet_energy,
                                 grad_wrt_X, identical_row_pairs,
                                 limit_laplacian, reg_value_and_grad)
from aircomplete.errors import InvalidInput, NumericOverflow
from aircomplete.mat_core import gaussian_matrix, make_rng

LN2 = np.log(2.0)


def fd_energy_grad(p, M, h=1e-5):
    # independent central-difference oracle through the full construction
    W = p.W
    G = np.zeros_like(W)
    for idx in np.ndindex(*W.shape):
        vals = []
        for sgn in (1.0, -1.0):
            Wp = W.copy()
            Wp[idx] += sgn * h
            L = build_laplacian(RegParam(Wp, p.parameterization)).L
            vals.append(dirichlet_energy(L, M))
        G[idx] = (vals[0] - vals[1]) / (2 * h)
    return G


def pairwise_energy(A, M):
    # half the A-weighted squared row differences over ordered pairs
    m = A.shape[0]
    acc = 0.0
    for k in range(m):
        for l in range(m):
            acc += 0.5 * A[k, l] * float(np.sum((M[k] - M[l]) ** 2))
    return acc


# ---------------------------------------------------------------------------
# construction

def test_regparam_validation():
    with pytest.raises(InvalidInput):
        RegParam(np.zeros((2, 3)))
    with pytest.raises(InvalidInput):
        RegParam(np.zeros((2, 2)), "mystery_form")
    assert RegParam(np.zeros((3, 3))).dim == 3


def test_zero_w_product_form_uniform_quarter():
    pair = build_laplacian(RegParam(np.zeros((2, 2)), "product_form"))
    assert np.allclose(pair.A, 0.25)
    assert np.allclose(pair.L, [[0.25, -0.25], [-0.25, 0.25]])


def test_zero_w_sum_form_doubles_the_shared_mass():
    # A' = exp(W^T)/S is uniform 1/4; the symmetrized A = A' + A'^T is
    # uniform 1/2, twice the product form's value at W = 0
    pair = build_laplacian(RegParam(np.zeros((2, 2)), "sum_form"))
    assert np.allclose(pair.A, 0.5)
    assert np.allclose(pair.L, [[0.5, -0.5], [-0.5, 0.5]])


def test_product_form_hand_example_ln2():
    pair = build_laplacian(RegParam(np.array([[0.0, LN2], [0.0, 0.0]]),
                                    "product_form"))
    # S = 1+2+1+1 = 5, exp(W+W^T) = [[1,2],[2,1]]
    assert np.allclose(pair.A, [[0.2, 0.4], [0.4, 0.2]])
    assert np.allclose(pair.L, [[0.4, -0.4], [-0.4, 0.4]])
    assert np.allclose(pair.L.sum(axis=1), 0.0, atol=1e-15)


def test_laplacian_invariants_random():
    for seed in range(20):
        rng = make_rng(seed)
        for form in ("product_form", "sum_form"):
            W = gaussian_matrix(rng, 5, 5, variance=2.0)
            pair = build_laplacian(RegParam(W, form))
            assert np.allclose(pair.A, pair.A.T, atol=1e-15)
            assert pair.A.min() > 0
            assert np.abs(pair.L.sum(axis=1)).max() < 1e-12
            assert np.allclose(pair.L, pair.L.T, atol=1e-15)
            assert np.all(pair.L - np.diag(np.diag(pair.L)) <= 1e-15)
            for _ in range(10):
                x = rng.standard_normal(5)
                assert x @ pair.L @ x >= -1e-12


def test_adjacency_overflows_only_when_A_does():
    M = make_rng(0).standard_normal((2, 3))
    # one off-diagonal pair: W + W^T reaches 720 while max W is 360
    pair = np.zeros((2, 2))
    pair[0, 1] = pair[1, 0] = 360.0
    # 2 max W = 1000, but W + W^T is 0 off the diagonal
    skew = np.zeros((2, 2))
    skew[0, 1], skew[1, 0] = 500.0, -500.0
    # each entry point returns an array formed from A
    for adjacency in (lambda p: build_laplacian(p).L,
                      lambda p: reg_value_and_grad(p, M)[1]):
        # product form: A = exp(1600 - log S) with log S = 800 + log 4
        with pytest.raises(NumericOverflow):
            adjacency(RegParam(np.full((2, 2), 800.0), "product_form"))
        # exponents 760 - log S and 720 - log S stay below log(float max)
        for W in (np.full((2, 2), 380.0), pair):
            assert np.isfinite(adjacency(RegParam(W, "product_form"))).all()
        # sum form: A = E + E^T is at most 2, whatever S is
        for fill in (750.0, 1e4):
            W = np.full((2, 2), fill)
            assert np.isfinite(adjacency(RegParam(W, "sum_form"))).all()
        for form in ("product_form", "sum_form"):
            assert np.isfinite(adjacency(RegParam(skew, form))).all()


# ---------------------------------------------------------------------------
# energy

def test_energy_zero_for_identical_rows():
    L = build_laplacian(RegParam(make_rng(0).standard_normal((3, 3)))).L
    M = np.ones((3, 4))
    assert abs(dirichlet_energy(L, M)) < 1e-15


def test_energy_hand_value_identity_argument():
    L = build_laplacian(RegParam(np.zeros((2, 2)), "product_form")).L
    assert dirichlet_energy(L, np.eye(2)) == pytest.approx(0.5)


def test_energy_trace_equals_half_pairwise():
    for seed in range(20):
        rng = make_rng(seed)
        form = ("product_form", "sum_form")[seed % 2]
        pair = build_laplacian(RegParam(gaussian_matrix(rng, 5, 5), form))
        M = rng.standard_normal((5, 3))
        tr = dirichlet_energy(pair.L, M)
        pw = pairwise_energy(pair.A, M)
        assert abs(tr - pw) <= 1e-10 * max(1.0, abs(pw))


def test_energy_matches_trace_of_full_product():
    for seed in range(10):
        rng = make_rng(seed)
        L = build_laplacian(RegParam(gaussian_matrix(rng, 7, 7))).L
        M = rng.standard_normal((7, 4))
        ref = float(np.trace(M.T @ (L @ M)))
        assert abs(dirichlet_energy(L, M) - ref) <= 1e-12 * abs(ref)


def test_energy_shape_validation():
    L = build_laplacian(RegParam(np.zeros((3, 3)))).L
    with pytest.raises(InvalidInput):
        dirichlet_energy(L, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# gradients

def test_grad_w_hand_value_sum_form():
    R, G = reg_value_and_grad(RegParam(np.zeros((2, 2)), "sum_form"), np.eye(2))
    assert R == pytest.approx(1.0)
    assert np.allclose(G, [[-0.25, 0.25], [0.25, -0.25]])


def test_grad_w_matches_finite_differences():
    for seed in range(10):
        rng = make_rng(seed)
        for form in ("product_form", "sum_form"):
            p = RegParam(gaussian_matrix(rng, 4, 4, variance=0.5), form)
            M = rng.standard_normal((4, 3))
            R, ana = reg_value_and_grad(p, M)
            assert R == pytest.approx(
                dirichlet_energy(build_laplacian(p).L, M), rel=1e-12)
            num = fd_energy_grad(p, M)
            scale = max(1e-12, float(np.abs(num).max()))
            assert np.abs(ana - num).max() / scale < 1e-5


def test_grad_w_identical_rows_case():
    # rows identical: the distance matrix vanishes, so only the -R*E term
    # could survive, and R itself is 0
    M = np.tile(np.array([0.6, 0.8]), (3, 1))
    for form in ("product_form", "sum_form"):
        p = RegParam(gaussian_matrix(make_rng(3), 3, 3), form)
        R, G = reg_value_and_grad(p, M)
        assert abs(R) < 1e-12
        num = fd_energy_grad(p, M)
        assert np.abs(G - num).max() < 1e-7


def test_grad_w_shape_validation():
    with pytest.raises(InvalidInput):
        reg_value_and_grad(RegParam(np.zeros((3, 3))), np.zeros((4, 2)))
    assert np.allclose(reg_value_and_grad(RegParam(np.zeros((2, 2)),
                                                   "sum_form"), np.eye(2))[1],
                       [[-0.25, 0.25], [0.25, -0.25]])


def test_grad_x_zero_weights():
    X = make_rng(0).standard_normal((3, 4))
    assert np.array_equal(grad_wrt_X(None, None, X, 0.0, 0.0), np.zeros((3, 4)))


def test_grad_x_single_term():
    rng = make_rng(1)
    X = rng.standard_normal((4, 3))
    Lr = build_laplacian(RegParam(gaussian_matrix(rng, 4, 4))).L
    assert np.allclose(grad_wrt_X(Lr, None, X, 1.0, 0.0), 2.0 * Lr @ X)


def test_grad_x_matches_finite_differences():
    rng = make_rng(2)
    X = rng.standard_normal((4, 3))
    Lr = build_laplacian(RegParam(gaussian_matrix(rng, 4, 4))).L
    Lc = build_laplacian(RegParam(gaussian_matrix(rng, 3, 3))).L
    lam_r, lam_c = 0.3, 0.7
    ana = grad_wrt_X(Lr, Lc, X, lam_r, lam_c)
    h = 1e-6
    num = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        vals = []
        for sgn in (1.0, -1.0):
            Xp = X.copy()
            Xp[idx] += sgn * h
            vals.append(lam_r * dirichlet_energy(Lr, Xp)
                        + lam_c * dirichlet_energy(Lc, Xp.T))
        num[idx] = (vals[0] - vals[1]) / (2 * h)
    assert np.abs(ana - num).max() / np.abs(num).max() < 1e-7


def test_grad_x_shape_validation():
    with pytest.raises(InvalidInput):
        grad_wrt_X(np.zeros((3, 3)), None, np.zeros((4, 2)), 1.0, 0.0)
    with pytest.raises(InvalidInput):
        grad_wrt_X(None, np.zeros((3, 3)), np.zeros((4, 2)), 0.0, 1.0)


# ---------------------------------------------------------------------------
# flow limit oracles

THREE_ROWS = np.array([[0.6, 0.8], [0.6, 0.8], [0.8, 0.6]])


def test_identical_row_pairs():
    assert identical_row_pairs(THREE_ROWS) == [(0, 1)]
    assert identical_row_pairs(np.eye(3)) == []
    assert identical_row_pairs(np.ones((3, 2))) == [(0, 1), (0, 2), (1, 2)]


def test_limit_laplacian_three_row_example():
    Lstar, gamma, s = limit_laplacian(THREE_ROWS)
    assert gamma == pytest.approx(0.4)
    assert s == 1
    assert np.allclose(Lstar, [[0.4, -0.4, 0.0],
                               [-0.4, 0.4, 0.0],
                               [0.0, 0.0, 0.0]])


def test_limit_laplacian_all_identical_two_rows():
    M = np.tile(np.array([0.6, 0.8]), (2, 1))
    Lstar, gamma, s = limit_laplacian(M)
    assert gamma == pytest.approx(0.5) and s == 1
    assert np.allclose(Lstar, [[0.5, -0.5], [-0.5, 0.5]])


def test_limit_laplacian_all_distinct():
    th = np.deg2rad([15.0, 45.0, 75.0])
    M = np.column_stack([np.cos(th), np.sin(th)])
    Lstar, gamma, s = limit_laplacian(M)
    assert s == 0 and gamma == pytest.approx(2.0 / 3.0)
    assert np.allclose(Lstar, 0.0)


def test_limit_laplacian_hypothesis_violations():
    with pytest.raises(InvalidInput, match="row 1"):
        limit_laplacian(np.array([[0.6, 0.8], [1.0, 1.0]]))
    with pytest.raises(InvalidInput, match="row 0"):
        limit_laplacian(np.array([[-0.6, 0.8], [0.6, 0.8]]))


def test_limit_laplacian_permutation_conjugation():
    rng = make_rng(4)
    M = np.abs(rng.standard_normal((5, 3))) + 0.1
    M /= np.linalg.norm(M, axis=1)[:, None]  # positive unit rows
    M[3] = M[1]  # plant one identical pair
    perm = rng.permutation(5)
    P = np.eye(5)[perm]
    L1, g1, s1 = limit_laplacian(M)
    L2, g2, s2 = limit_laplacian(P @ M)
    assert g1 == g2 and s1 == s2
    assert np.allclose(P @ L1 @ P.T, L2)


def test_decay_constant_three_row_example():
    assert decay_constant(THREE_ROWS) == pytest.approx(4 * 0.04 / 9)
    assert decay_constant(THREE_ROWS) == pytest.approx(0.017778, abs=1e-6)


def test_decay_constant_sixty_degree_pair():
    th = np.deg2rad([15.0, 75.0])
    M = np.column_stack([np.cos(th), np.sin(th)])  # inner product cos 60 = 0.5
    assert decay_constant(M) == pytest.approx(0.5)


def test_decay_constant_degenerate_warns_zero():
    M = np.tile(np.array([0.6, 0.8]), (3, 1))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert decay_constant(M) == 0.0
    assert any("identical" in str(w.message) for w in rec)
