"""Factor chain, fidelity loss/gradients, and initialization schemes."""
import tracemalloc

import numpy as np
import pytest

from aircomplete.data_lab import SamplingMask, apply_mask, generate_mask
from aircomplete.dmf import (FactorChain, balance_residuals,
                             factor_grads_from_full, fidelity_grad,
                             fidelity_loss, forward, initialize,
                             residual_matrix)
from aircomplete.errors import InvalidInput
from aircomplete.mat_core import make_rng


def fd_factor_grads(chain, mask, y, h=1e-5):
    # independent central-difference oracle over every factor entry
    grads = []
    for l, W in enumerate(chain.factors):
        G = np.zeros_like(W)
        for idx in np.ndindex(*W.shape):
            for sgn in (1.0, -1.0):
                facs = [f.copy() for f in chain.factors]
                facs[l][idx] += sgn * h
                G[idx] += sgn * fidelity_loss(FactorChain(facs), mask, y)
        grads.append(G / (2 * h))
    return grads


def full_mask(m, n):
    return SamplingMask(np.ones((m, n), dtype=bool))


def test_forward_identity_factor():
    B = make_rng(0).standard_normal((3, 3))
    chain = FactorChain([B.copy(), np.eye(3)])
    assert np.array_equal(forward(chain), B)


def test_forward_scalar_chain():
    chain = FactorChain([np.array([[2.0]]), np.array([[3.0]]),
                         np.array([[4.0]])])
    assert forward(chain) == pytest.approx(24.0)


def test_forward_matches_reverse_association():
    rng = make_rng(1)
    chain = initialize(5, 4, 4, scheme="gaussian", rng=rng, variance=1.0)
    X = forward(chain)
    # right-to-left association as the independent route
    Y = chain.factors[0]
    for W in chain.factors[1:]:
        Y = W @ Y
    assert np.allclose(X, Y, rtol=1e-12)


def test_fidelity_loss_exact_fit_is_zero():
    chain = FactorChain([np.array([[1.0, 0.0], [0.0, 1.0]]), np.eye(2)])
    y = apply_mask(forward(chain), full_mask(2, 2))
    assert fidelity_loss(chain, full_mask(2, 2), y) == 0.0


def test_fidelity_loss_single_entry_hand_value():
    chain = FactorChain([np.array([[6.0]]), np.array([[1.0]])])
    mask = SamplingMask(np.array([[True]]))
    assert fidelity_loss(chain, mask, [1.0]) == pytest.approx(12.5)


def test_fidelity_loss_matches_elementwise_oracle():
    rng = make_rng(2)
    chain = initialize(6, 5, 3, scheme="gaussian", rng=rng, variance=1.0)
    mask = generate_mask(rng, 6, 5, "random", p=0.4)
    y = rng.standard_normal(mask.n_observed)
    X = forward(chain)
    acc = 0.0
    pos = 0
    for i in range(6):
        for j in range(5):
            if mask.observed[i, j]:
                acc += 0.5 * (X[i, j] - y[pos]) ** 2
                pos += 1
    assert fidelity_loss(chain, mask, y) == pytest.approx(acc, rel=1e-12)


def test_fidelity_loss_length_mismatch():
    chain = initialize(3, 3, 2, scheme="gaussian", rng=make_rng(0))
    with pytest.raises(InvalidInput):
        fidelity_loss(chain, full_mask(3, 3), np.zeros(5))


def test_fidelity_grad_scalar_hand_chain_rule():
    # x = w1*w0 = 6, residual 5: d/dw0 = w1*5 = 15, d/dw1 = w0*5 = 10
    chain = FactorChain([np.array([[2.0]]), np.array([[3.0]])])
    mask = SamplingMask(np.array([[True]]))
    g = fidelity_grad(chain, mask, [1.0])
    assert g[0][0, 0] == pytest.approx(15.0)
    assert g[1][0, 0] == pytest.approx(10.0)


def test_fidelity_grad_zero_residual():
    rng = make_rng(3)
    chain = initialize(4, 4, 3, scheme="gaussian", rng=rng, variance=1.0)
    mask = generate_mask(rng, 4, 4, "random", p=0.5)
    y = apply_mask(forward(chain), mask)
    for g in fidelity_grad(chain, mask, y):
        assert np.allclose(g, 0.0, atol=1e-14)


def test_fidelity_grad_matches_finite_differences():
    for seed in range(20):
        rng = make_rng(seed)
        chain = initialize(4, 4, 3, scheme="gaussian", rng=rng, variance=0.5)
        mask = generate_mask(rng, 4, 4, "random", p=0.3)
        y = rng.standard_normal(mask.n_observed)
        ana = fidelity_grad(chain, mask, y)
        num = fd_factor_grads(chain, mask, y)
        for a, b in zip(ana, num):
            scale = max(1e-12, float(np.abs(b).max()))
            assert np.abs(a - b).max() / scale < 1e-6


def quadratic_factor_grads(chain, G):
    # reference: every prefix and suffix product rebuilt for every layer
    facs = chain.factors
    L = len(facs)
    grads = []
    for l in range(L):
        g = G
        if l < L - 1:
            post = facs[-1]
            for W in reversed(facs[l + 1:-1]):
                post = post @ W
            g = post.T @ g
        if l > 0:
            pre = facs[l - 1]
            for W in reversed(facs[:l - 1]):
                pre = pre @ W
            g = g @ pre.T
        grads.append(g)
    return grads


def test_factor_grads_match_quadratic_reference():
    # non-square, width below min(m, n); association order differs, so
    # the agreement is to rounding, not bit for bit
    for L in range(2, 9):
        rng = make_rng(100 + L)
        chain = initialize(9, 7, L, r=4, scheme="gaussian", rng=rng,
                           variance=0.5)
        G = rng.standard_normal((9, 7))
        fast = factor_grads_from_full(chain, G)
        ref = quadratic_factor_grads(chain, G)
        assert [g.shape for g in fast] == [W.shape for W in chain.factors]
        for a, b in zip(fast, ref):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_grads_peak_allocation_at_depth_8():
    L = 8
    chain = initialize(120, 120, L, scheme="gaussian", rng=make_rng(5),
                       variance=0.1)
    G = make_rng(6).standard_normal((120, 120))
    factor_bytes = chain.factors[0].nbytes
    tracemalloc.start()
    try:
        grads = factor_grads_from_full(chain, G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grads) == L
    assert peak <= (L + 2) * factor_bytes


def test_residual_matrix_zero_fill():
    rng = make_rng(4)
    chain = initialize(3, 4, 2, scheme="gaussian", rng=rng, variance=1.0)
    mask = generate_mask(rng, 3, 4, "random", p=0.5)
    y = rng.standard_normal(mask.n_observed)
    R = residual_matrix(chain, mask, y)
    assert np.all(R[~mask.observed] == 0.0)
    assert np.allclose(R[mask.observed], forward(chain)[mask.observed] - y)


def test_initialize_shapes_and_default_width():
    chain = initialize(7, 5, 3, scheme="gaussian", rng=make_rng(0))
    assert chain.depth == 3
    assert chain.factors[-1].shape == (7, 5)  # top factor m x r, r = min
    assert chain.factors[1].shape == (5, 5)
    assert chain.factors[0].shape == (5, 5)
    assert forward(chain).shape == (7, 5)


def test_balanced_identity_exact_balance():
    chain = initialize(4, 4, 3, scheme="balanced_identity", rng=make_rng(0),
                       alpha=0.1)
    for W in chain.factors:
        assert np.array_equal(W, 0.1 * np.eye(4))
    assert all(r == 0.0 for r in balance_residuals(chain))
    with pytest.raises(InvalidInput):
        initialize(4, 5, 3, scheme="balanced_identity", rng=make_rng(0))


def test_balanced_spectral_balance_and_product():
    rng = make_rng(3)
    seed_matrix = rng.standard_normal((5, 4))
    chain = initialize(5, 4, 3, scheme="balanced_spectral", rng=rng,
                       seed_matrix=seed_matrix)
    assert max(balance_residuals(chain)) < 1e-10
    assert np.allclose(forward(chain), seed_matrix, atol=1e-10)


def test_balanced_spectral_without_seed_matrix():
    chain = initialize(5, 4, 3, scheme="balanced_spectral", rng=make_rng(3))
    assert max(balance_residuals(chain)) < 1e-10


def test_gaussian_small_variance_entry_bound():
    chain = initialize(100, 100, 3, scheme="gaussian", rng=make_rng(11),
                       variance=1e-5)
    for W in chain.factors:
        assert np.abs(W).max() < 0.05


def test_initialize_validation():
    with pytest.raises(InvalidInput):
        initialize(4, 4, 1, scheme="gaussian", rng=make_rng(0))
    with pytest.raises(InvalidInput):
        initialize(4, 4, 3, scheme="mystery", rng=make_rng(0))


def test_balance_conserved_under_fidelity_descent():
    # gradient descent on the fidelity alone preserves balance to O(lr^2)
    rng = make_rng(6)
    chain = initialize(5, 4, 3, scheme="balanced_spectral", rng=rng)
    mask = full_mask(5, 4)
    y = rng.standard_normal(20)
    lr = 1e-4
    for _ in range(1000):
        for W, g in zip(chain.factors, fidelity_grad(chain, mask, y)):
            W -= lr * g
    scale = max(float(np.linalg.norm(W.T @ W)) for W in chain.factors)
    assert max(balance_residuals(chain)) / scale < 1e-3
