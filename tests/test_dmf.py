"""Factor chain, factor gradients, and initialization schemes."""
import math
import tracemalloc

import numpy as np
import pytest

from aircomplete.data_lab import SamplingMask, apply_mask, generate_mask, lift
from aircomplete.dmf import (FactorChain, _step_shapes, _two_way,
                             balance_residuals, factor_grads_from_full,
                             forward, initialize)
from aircomplete.errors import InvalidInput
from aircomplete.mat_core import _planned, _Plan, make_rng


def half_sq_error(chain, mask, y):
    # the fidelity loss, 1/2 the squared error over observed positions
    d = apply_mask(forward(chain), mask) - y
    return 0.5 * float(d @ d)


def fidelity_grad(chain, mask, y):
    # the fidelity's factor gradients as the trainer forms them: the
    # lifted residual through factor_grads_from_full
    partials = []
    G = lift(apply_mask(forward(chain, partials), mask) - y, mask)
    return factor_grads_from_full(chain, G, partials)


def fd_factor_grads(chain, mask, y, h=1e-5):
    # independent central-difference oracle over every factor entry
    grads = []
    for l, W in enumerate(chain.factors):
        G = np.zeros_like(W)
        for idx in np.ndindex(*W.shape):
            for sgn in (1.0, -1.0):
                facs = [f.copy() for f in chain.factors]
                facs[l][idx] += sgn * h
                G[idx] += sgn * half_sq_error(FactorChain(facs), mask, y)
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


def one_pass(chain, G):
    # forward product and factor gradients, the backward pass reusing the
    # forward's partial products
    partials = []
    X = forward(chain, partials)
    grads = factor_grads_from_full(chain, G, partials)
    assert partials == []
    return X, grads


SHAPES = ((7, 9), (8, 8), (9, 7))  # wide, square, tall


def test_factor_grads_match_quadratic_reference():
    # width below min(m, n); association order differs, so the agreement
    # is to rounding, not bit for bit
    for shape in SHAPES:
        for L in range(2, 9):
            rng = make_rng(100 + L)
            chain = initialize(*shape, L, r=4, scheme="gaussian", rng=rng,
                               variance=0.5)
            G = rng.standard_normal(shape)
            ref = quadratic_factor_grads(chain, G)
            _, fast = one_pass(chain, G)
            assert [g.shape for g in fast] == [W.shape for W in chain.factors]
            for a, b in zip(fast, ref):
                assert a.flags.c_contiguous
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_forward_with_partials_keeps_its_bits():
    for shape in SHAPES:
        for L in (2, 3, 6):
            rng = make_rng(L)
            chain = initialize(*shape, L, scheme="gaussian", rng=rng,
                               variance=0.5)
            X, _ = one_pass(chain, rng.standard_normal(shape))
            assert np.array_equal(X, forward(chain))
            assert X.flags.c_contiguous


# where the smallest product has 2^24 multiply-adds (dmf._two_way), as at
# 256 x 256 and depth 3, the rows (m <= n) or the columns (m > n) of the
# walk are multiplied in two fixed halves
@pytest.mark.parametrize("m, n", [(256, 256), (256, 260), (260, 256)])
def test_forward_halves_keep_their_bits_on_one_lane(pool, m, n):
    chain = initialize(m, n, 3, scheme="gaussian", rng=make_rng(9),
                       variance=0.5)
    assert _two_way(min(m, n), _step_shapes(chain)[1])
    runs = []
    for plan in (_Plan(), _Plan(True, True)):
        with _planned(plan):
            partials = []
            runs.append([forward(chain, partials)] + partials)
    assert pool.submitted == 1  # the second half, offered to the worker
    assert len(runs[0]) == len(runs[1]) == 3
    for a, b in zip(*runs):
        assert np.array_equal(a, b)
        assert a.flags.c_contiguous and b.flags.c_contiguous
    W0, W1, W2 = chain.factors
    whole = W2 @ (W1 @ W0)
    assert np.abs(runs[0][0] - whole).max() <= 1e-14 * np.abs(whole).max()


@pytest.mark.parametrize("m, n", [(256, 260), (260, 256)])
def test_halves_and_pairs_into_given_arrays_keep_their_bits(pool, m, n):
    # a first chain fills the arrays; a second, written over the first's,
    # must come out as the allocating calls give it on one lane
    G = make_rng(10).standard_normal((m, n))
    prods, grad_shapes, ts = _step_shapes(initialize(m, n, 3, rng=make_rng(0)))
    assert _two_way(min(m, n), grad_shapes)
    outs = [np.empty(s) for s in prods]
    grad_outs = [np.empty(s) for s in grad_shapes]
    t_bufs = [np.empty(max(map(math.prod, ts))) for _ in "ab"]
    for seed in (11, 12):
        chain = initialize(m, n, 3, scheme="gaussian", rng=make_rng(seed),
                           variance=0.5)
        alloc, given = [], []
        X0 = forward(chain, alloc)
        with _planned(_Plan(True, True)):
            X1 = forward(chain, given, outs)
            assert all(map(np.array_equal, [X0] + alloc, [X1] + given))
            grads1 = factor_grads_from_full(chain, G, given, grad_outs,
                                            t_bufs)
        for a, b in zip(factor_grads_from_full(chain, G, alloc), grads1):
            assert np.array_equal(a, b) and b.flags.c_contiguous
    assert pool.submitted > 0


# below the halves the whole chain, association order included: full-width
# chains a row short of 256 x 256, and width-8 chains of a million entries
# or more, whose products are thin however many entries they have
@pytest.mark.parametrize("m, n", [(255, 256), (256, 255), (1023, 1024),
                                  (1024, 1023), (1030, 1024), (2048, 2100)])
def test_forward_below_the_halves_keeps_the_whole_products_bits(pool, m, n):
    chain = initialize(m, n, 3, r=None if m < 1000 else 8, scheme="gaussian",
                       rng=make_rng(10), variance=0.5)
    assert not _two_way(min(m, n), _step_shapes(chain)[1])
    W0, W1, W2 = chain.factors
    whole = (W2 @ W1) @ W0 if m <= n else W2 @ (W1 @ W0)
    with _planned(_Plan(True, True)):
        assert np.array_equal(forward(FactorChain([W0, W1, W2])), whole)
    assert pool.submitted == 0


class CountingArray(np.ndarray):
    """Counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingArray.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, CountingArray) else x
                 for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(CountingArray) if isinstance(out, np.ndarray) else out


def test_forward_and_backward_make_3L_minus_3_products():
    for shape in SHAPES + ((1, 6), (6, 1)):
        for L in range(2, 9):
            rng = make_rng(L)
            chain = initialize(*shape, L, scheme="gaussian", rng=rng)
            chain = FactorChain([W.view(CountingArray) for W in chain.factors])
            G = rng.standard_normal(shape).view(CountingArray)
            CountingArray.products = 0
            one_pass(chain, G)
            assert CountingArray.products == 3 * L - 3


def test_factor_grads_peak_allocation_at_depth_8():
    L = 8
    chain = initialize(120, 120, L, scheme="gaussian", rng=make_rng(5),
                       variance=0.1)
    G = make_rng(6).standard_normal((120, 120))
    factor_bytes = chain.factors[0].nbytes
    partials = []
    forward(chain, partials)
    tracemalloc.start()
    try:
        grads = factor_grads_from_full(chain, G, partials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grads) == L
    assert peak <= (L + 2) * factor_bytes


def test_initialize_shapes_and_default_width():
    chain = initialize(7, 5, 3, scheme="gaussian", rng=make_rng(0))
    assert chain.depth == 3
    assert chain.factors[-1].shape == (7, 5)  # top factor m x r, r = min
    assert chain.factors[1].shape == (5, 5)
    assert chain.factors[0].shape == (5, 5)
    assert forward(chain).shape == (7, 5)


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
    # an empty matrix is named as such, not as a width of 0
    with pytest.raises(InvalidInput, match="dimensions must be positive"):
        initialize(0, 4, 3, scheme="gaussian", rng=make_rng(0))


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
