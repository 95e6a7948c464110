"""Deep matrix factorization: factor chain, losses, gradients, initialization.

The model represents the recovered matrix as the ordered product
X = W(L-1) W(L-2) ... W(0) with shapes m x r, r x r, ..., r x n. Depth
L >= 2; the default width r = min(m, n) avoids having to guess the target
rank, since training itself biases the product toward low rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data_lab import SamplingMask
from .errors import InvalidInput
from .mat_core import gaussian_matrix, svd

__all__ = ["FactorChain", "forward", "fidelity_loss", "fidelity_grad",
           "residual_matrix", "initialize", "balance_residuals"]


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


def _rmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return b @ a


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


def forward(chain: FactorChain, partials: Optional[list] = None) -> np.ndarray:
    """Product of the chain, multiplied from its narrow end.

    The association order is fixed so repeated runs are bit-identical.
    When `partials` is a list, each partial product is appended to it
    before it is multiplied further (the first is the end factor itself),
    for `factor_grads_from_full` to reuse.
    """
    facs, mul = _walk(chain)
    X = facs[-1]
    for W in reversed(facs[:-1]):
        if partials is not None:
            partials.append(X)
        X = mul(X, W)
    return X


def residual_matrix(chain: FactorChain, mask: SamplingMask, y_obs) -> np.ndarray:
    """X - Y on observed positions, zero elsewhere (the lifted residual)."""
    y_obs = np.asarray(y_obs, dtype=np.float64)
    if y_obs.shape != (mask.n_observed,):
        raise InvalidInput(f"expected {mask.n_observed} observed values, "
                           f"got shape {y_obs.shape}")
    X = forward(chain)
    if X.shape != mask.observed.shape:
        raise InvalidInput(f"chain product {X.shape} vs mask {mask.observed.shape}")
    G = np.zeros_like(X)
    G[mask.observed] = X[mask.observed] - y_obs
    return G


def fidelity_loss(chain: FactorChain, mask: SamplingMask, y_obs) -> float:
    """Half the squared error over observed positions."""
    G = residual_matrix(chain, mask, y_obs)
    return 0.5 * float((G * G).sum())


def fidelity_grad(chain: FactorChain, mask: SamplingMask, y_obs) -> list[np.ndarray]:
    """Per-factor gradients of the fidelity loss.

    For factor l the chain rule gives (prod of later factors)^T G
    (prod of earlier factors)^T, where G is the lifted residual. Lifting
    by zero-fill is the exact adjoint of entry sampling, so these are
    exact gradients, not approximations.
    """
    G = residual_matrix(chain, mask, y_obs)
    return factor_grads_from_full(chain, G)


def factor_grads_from_full(chain: FactorChain, G: np.ndarray,
                           partials: Optional[list] = None) -> list[np.ndarray]:
    """Chain-rule gradients of sum(G * X) w.r.t. each factor, X the product.

    For m <= n the gradient of factor l is suf(l+1)^T T(l), with
    suf(l+1) = W(L-1)...W(l+1) and T(l) = G W(0)^T ... W(l-1)^T carried
    upward from the bottom factor; for m > n the same walk runs on the
    transposed chain (see `_walk`). `partials` are the partial products
    that `forward(chain, partials)` appended; they must come from the
    same factors, not yet updated. Each is popped once used, so the list
    is empty afterwards. With None they are built here (L - 2 products).
    The pass costs 2L - 2 products and returns C-contiguous gradients.
    """
    facs, mul = _walk(chain)
    if partials is None:
        partials = [facs[-1]]
        for W in reversed(facs[1:-1]):
            partials.append(mul(partials[-1], W))
    grads = []
    T = G
    for W in facs[:-1]:
        grads.append(mul(partials.pop().T, T))
        T = mul(T, W.T)
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
