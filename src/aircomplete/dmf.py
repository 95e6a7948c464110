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

from .data_lab import SamplingMask, lift
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

    def copy(self) -> "FactorChain":
        return FactorChain([f.copy() for f in self.factors])


def forward(chain: FactorChain) -> np.ndarray:
    """Product of the chain, multiplied left to right from the top factor.

    The association order is fixed so repeated runs are bit-identical.
    """
    X = chain.factors[-1]
    for W in reversed(chain.factors[:-1]):
        X = X @ W
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


def factor_grads_from_full(chain: FactorChain, G: np.ndarray) -> list[np.ndarray]:
    """Chain-rule gradients of sum(G * X) w.r.t. each factor, X the product.

    The gradient of factor l is H(l) pre(l)^T, with pre(l) = W(l-1)...W(0)
    and H(l) = W(l+1)^T ... W(L-1)^T G. The prefixes are built bottom-up
    once each; H is carried top-down, and each prefix is dropped as soon
    as it is used, so the pass costs 3L - 4 matrix products and holds at
    most L + 1 arrays of factor size at a time.
    """
    facs = chain.factors
    pres = [facs[0]]
    for W in facs[1:-1]:
        pres.append(W @ pres[-1])
    grads = []
    H = G
    for W in reversed(facs[1:]):
        grads.append(H @ pres.pop().T)
        H = W.T @ H
    grads.append(H)
    grads.reverse()
    return grads


def _random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(k, k)))
    return Q * np.sign(np.diag(R))


def initialize(m: int, n: int, L: int, r: Optional[int] = None,
               scheme: str = "gaussian", rng: Optional[np.random.Generator] = None,
               variance: float = 1e-5, alpha: float = 0.1,
               seed_matrix=None) -> FactorChain:
    """Build a factor chain under one of three initialization schemes.

    gaussian
        I.i.d. N(0, variance) entries in every factor. The default
        variance 1e-5 keeps the product tiny, which is what gives
        training its low-rank bias.
    balanced_identity
        Every factor alpha * I. Square case only (m = n = r).
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
    if scheme == "balanced_identity":
        if not (m == n == r):
            raise InvalidInput("balanced_identity requires m = n = r")
        return FactorChain([alpha * np.eye(r) for _ in range(L)])
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
