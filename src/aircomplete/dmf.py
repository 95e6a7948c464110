"""Deep matrix factorization: factor chain, factor gradients, initialization.

The model represents the recovered matrix as the ordered product
X = W(L-1) W(L-2) ... W(0) with shapes m x r, r x r, ..., r x n. Depth
L >= 2; the default width r = min(m, n) avoids having to guess the target
rank, since training itself biases the product toward low rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInput
from .mat_core import _PLAN, _lanes, _view, gaussian_matrix, svd

__all__ = ["FactorChain", "forward", "initialize", "balance_residuals"]


@dataclass
class FactorChain:
    """Ordered factors W(0) ... W(L-1); the product is read right to left."""

    factors: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.factors) < 2:
            raise InvalidInput("factor chain needs depth L >= 2")
        for lo, hi in zip(self.factors[:-1], self.factors[1:]):
            if hi.shape[1] != lo.shape[0]:
                raise InvalidInput(
                    f"factor shapes not conformable: {hi.shape} @ {lo.shape}")

    @property
    def depth(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, int]:
        return self.factors[-1].shape[0], self.factors[0].shape[1]


def _rmatmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    return np.matmul(b, a, out=out)


def _walk(chain: FactorChain):
    """(factors, mul) for multiplying the chain from its narrow end.

    For m <= n the walk starts at the top factor and the partial products
    W(L-1)...W(l) are m x r. For m > n it walks the transposed chain
    W(0)^T W(1)^T ... W(L-1)^T instead, so the partials are r x n. Each
    array of that walk is held as the transpose of what it stands for,
    in the caller's orientation: the factors come in reverse order and
    mul(a, b) is b @ a, which is (a^T b^T)^T, so every result is
    C-contiguous and no array is copied.
    """
    m, n = chain.shape
    if m <= n:
        return chain.factors, np.matmul
    return chain.factors[::-1], _rmatmul


def _step_shapes(chain: FactorChain):
    """(products, gradients, Ts): the shapes of forward's products and of
    factor_grads_from_full's gradients and Ts, each in the order formed.
    Product i is consumed before gradient L-2-i is formed, and the last
    gradient is the last T."""
    facs, mul = _walk(chain)
    k, rows = min(chain.shape), mul is np.matmul
    return ([(k, W.shape[1]) if rows else (W.shape[0], k)
             for W in reversed(facs[:-1])], [W.shape for W in facs[:-1]],
            [(k, W.shape[0]) if rows else (W.shape[1], k) for W in facs[:-1]])


# multiply-adds in a step's smallest product, min(m, n) times the size of
# the smallest gradient, from which forward cuts its halves (whose sums
# differ from the whole chain's in the last bits) and a plan splits pairs.
# Pinned worker, BLAS on one thread, s x s chains of width s, no penalty:
# a step with both split took this share of its time with neither (median
# of 8 steps, alternating in one process; range over four processes).
# Depth 8 gains from s = 200, depth 3 not reliably; the measure has no depth
#   s          100         160         200         256         300
#   depth 3    1.43-1.85   1.05-1.31   0.68-1.13   0.48-0.80   0.52-0.92
#   depth 8                0.58-1.02   0.53-0.77   0.62-0.78   0.60-0.73
_PAIR_WORK = 1 << 24


def _two_way(k: int, grad_shapes) -> bool:
    return k * min(a * b for a, b in grad_shapes) >= _PAIR_WORK


def forward(chain: FactorChain, partials: Optional[list] = None,
            outs: Optional[list] = None) -> np.ndarray:
    """Product of the chain, multiplied from its narrow end.

    The association order is fixed so repeated runs are bit-identical.
    Where _two_way holds, the walk's narrow dimension (the rows for
    m <= n, else the columns) is cut into two fixed halves, each carried
    through the whole chain; under a training plan with pairs (see
    mat_core._lanes) they run on two lanes. When `partials` is a list,
    each partial product is appended to it before it is multiplied
    further (the first is the end factor itself), for
    `factor_grads_from_full` to reuse. `outs`, C-ordered arrays of the
    shapes _step_shapes gives, take the products (without halves as one
    half) in place of arrays allocated here. The bits are the same.
    """
    facs, mul = _walk(chain)
    X = facs[-1]
    k = min(chain.shape)
    split = (k * facs[0].size >= _PAIR_WORK  # a bound, cheap for small chains
             and _two_way(k, [W.shape for W in facs[:-1]]))
    if outs is None and not split:
        for W in reversed(facs[:-1]):
            if partials is not None:
                partials.append(X)
            X = mul(X, W)
        return X
    rows = mul is np.matmul
    if outs is None:
        outs = [np.empty(shape) for shape in _step_shapes(chain)[0]]

    def half(cut):
        at = cut if rows else (slice(None), cut)
        Y = X[at]
        for W, out in zip(reversed(facs[:-1]), outs):
            Y = mul(Y, W, out=out[at])

    _lanes(half, (slice(0, k // 2), slice(k // 2, k)) if split
           else (slice(0, k),), _PLAN.get().pairs)
    if partials is not None:
        partials += [X] + outs[:-1]
    return outs[-1]


def factor_grads_from_full(chain: FactorChain, G: np.ndarray, partials: list,
                           grad_outs: Optional[list] = None,
                           t_bufs=None) -> list[np.ndarray]:
    """Chain-rule gradients of sum(G * X) w.r.t. each factor, X the product.

    For m <= n the gradient of factor l is suf(l+1)^T T(l), with
    suf(l+1) = W(L-1)...W(l+1) and T(l) = G W(0)^T ... W(l-1)^T carried
    upward from the bottom factor; for m > n the same walk runs on the
    transposed chain (see `_walk`). `partials` are the partial products
    that `forward(chain, partials)` appended; they must come from the
    same factors, not yet updated. Each is popped once used, so the list
    is empty afterwards. The pass costs 2L - 2 products and returns
    C-contiguous gradients. With `grad_outs`, C-ordered arrays of the
    gradient shapes _step_shapes gives, and `t_bufs`, two flat buffers,
    each gradient but the last is written into its array and the Ts
    alternately into the buffers, the first T into t_bufs[0]; under a
    training plan with pairs (see mat_core._lanes) each gradient and the
    next T are then formed on two lanes. The bits are the same.
    """
    facs, mul = _walk(chain)
    grads = []
    T = G
    for j, W in enumerate(facs[:-1]):
        P = partials.pop()
        if grad_outs is None:  # allocating, on one lane
            grads.append(mul(P.T, T))
            T = mul(T, W.T)
            continue
        shape = ((T.shape[0], W.shape[0]) if mul is np.matmul
                 else (W.shape[1], T.shape[1]))
        T, _ = _lanes(lambda args: mul(*args),
                      ((T, W.T, _view(t_bufs[j % 2], shape)),
                       (P.T, T, grad_outs[j])), _PLAN.get().pairs)
        grads.append(grad_outs[j])
    grads.append(T)
    if facs is not chain.factors:
        grads.reverse()
    return grads


def _random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(k, k)))
    return Q * np.sign(np.diag(R))


def initialize(m: int, n: int, L: int, r: Optional[int] = None,
               scheme: str = "gaussian", rng: Optional[np.random.Generator] = None,
               variance: float = 1e-5, seed_matrix=None) -> FactorChain:
    """Build a factor chain under one of two initialization schemes.

    gaussian
        I.i.d. N(0, variance) entries in every factor. The default
        variance 1e-5 keeps the product tiny, which is what gives
        training its low-rank bias.
    balanced_spectral
        Exactly balanced factors whose product equals a seed matrix M:
        with M = U S V^T, the top factor is U S^(1/L) Q^T and the others
        sandwich S^(1/L) between random orthogonal matrices. Adjacent
        factors then satisfy W(l+1)^T W(l+1) = W(l) W(l)^T exactly at
        construction. If seed_matrix is None a standard normal seed is
        drawn from rng.
    """
    if m < 1 or n < 1:
        raise InvalidInput(f"matrix dimensions must be positive, got {m}x{n}")
    if L < 2:
        raise InvalidInput(f"depth must be >= 2, got {L}")
    if r is None:
        r = min(m, n)
    if r < 1:
        raise InvalidInput(f"width must be >= 1, got {r}")
    if scheme == "gaussian":
        if rng is None:
            raise InvalidInput("gaussian init needs an rng")
        shapes = [(r, n)] + [(r, r)] * (L - 2) + [(m, r)]
        return FactorChain([gaussian_matrix(rng, *s, 0.0, variance) for s in shapes])
    if scheme == "balanced_spectral":
        if seed_matrix is None:
            if rng is None:
                raise InvalidInput("balanced_spectral needs an rng or a seed matrix")
            seed_matrix = rng.normal(size=(m, n))
        M = np.asarray(seed_matrix, dtype=np.float64)
        if M.shape != (m, n):
            raise InvalidInput(f"seed matrix shape {M.shape}, expected {(m, n)}")
        if r != min(m, n):
            raise InvalidInput("balanced_spectral requires width r = min(m, n)")
        U, S, V = svd(M)
        SL = np.diag(S ** (1.0 / L))
        if rng is None:
            raise InvalidInput("balanced_spectral needs an rng for the rotations")
        Qs = [_random_orthogonal(rng, r) for _ in range(L - 1)]
        facs: list[np.ndarray] = [Qs[0] @ SL @ V.T]
        for l in range(1, L - 1):
            facs.append(Qs[l] @ SL @ Qs[l - 1].T)
        facs.append(U @ SL @ Qs[L - 2].T)
        return FactorChain(facs)
    raise InvalidInput(f"unknown init scheme {scheme!r}")


def balance_residuals(chain: FactorChain) -> list[float]:
    """Frobenius norms of W(l+1)^T W(l+1) - W(l) W(l)^T per adjacent pair."""
    out = []
    for lo, hi in zip(chain.factors[:-1], chain.factors[1:]):
        out.append(float(np.linalg.norm(hi.T @ hi - lo @ lo.T)))
    return out
