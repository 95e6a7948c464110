"""Learnable adjacency/Laplacian regularizer and its convergence oracles.

A trainable square matrix W parameterizes a symmetric, strictly positive
adjacency A through elementwise exponentials, normalized by the scalar
S = sum(exp(W)), evaluated in the log domain so that only an entry of A
that is itself beyond float64 can overflow. Two parameterizations are
supported:

product_form
    A = exp(W + W^T) / S. Default for training.
sum_form
    A' = exp(W^T) / S, A = A' + A'^T. Used by the theory lab, whose
    convergence statements are written for this construction.

The Laplacian is L = diag(A 1) - A, so tr(M^T L M) is the Dirichlet
energy of M's rows under similarity A. The exponential keeps every A
entry strictly positive, which rules out the degenerate A = 0 minimizer.

Gradient note: both analytic gradients below are validated against
central finite differences of dirichlet_energy(build_laplacian(W), M);
that agreement is the contract, and the test suite enforces it to 1e-5
relative on random instances.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericOverflow
from .mat_core import as_matrix

__all__ = [
    "RegParam", "LaplacianPair",
    "build_laplacian", "dirichlet_energy",
    "grad_wrt_X", "reg_value_and_grad",
    "identical_row_pairs", "limit_laplacian", "decay_constant",
    "normalize_rows_positive",
]

_PARAMETERIZATIONS = ("product_form", "sum_form")
_LOG_MAX = math.log(np.finfo(np.float64).max)  # exp overflows above this


@dataclass
class RegParam:
    """Trainable parameter matrix W plus the parameterization choice."""

    W: np.ndarray
    parameterization: str = "product_form"

    def __post_init__(self):
        W = as_matrix(self.W, "regularizer parameter W")
        if W.shape[0] != W.shape[1]:
            raise InvalidInput(f"W must be square, got {W.shape}")
        if self.parameterization not in _PARAMETERIZATIONS:
            raise InvalidInput(f"parameterization must be one of "
                               f"{_PARAMETERIZATIONS}, got {self.parameterization!r}")
        self.W = W

    @property
    def dim(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class LaplacianPair:
    """Adjacency A and Laplacian L."""

    A: np.ndarray
    L: np.ndarray


def _normalized_exp(W: np.ndarray) -> tuple[np.ndarray, float]:
    """(E, log S) with E = exp(W)/S and S = sum(exp(W)), both formed from
    exp(W - max W), so neither overflows however large W grows."""
    c = float(W.max())
    E = np.subtract(W, c)
    np.exp(E, out=E)
    s = float(E.sum())
    E /= s
    return E, c + math.log(s)


def _adjacency(p: RegParam) -> tuple[np.ndarray, np.ndarray]:
    """(A, E) for the current W, with E = exp(W)/S, in the log domain.

    The product form is A = exp(W + W^T - log S), exponentiated in place
    in its one m x m buffer, and raises NumericOverflow only when an
    entry of A itself is beyond float64. Every exponent is at most
    2 max W - log S <= log S, so it is scanned only when S overflows.
    The sum form, E + E^T, cannot overflow.
    """
    W = p.W
    E, log_s = _normalized_exp(W)
    if p.parameterization == "sum_form":
        return E.T + E, E
    A = np.add(W, W.T)
    A -= log_s
    if log_s > _LOG_MAX:
        top = A.max()
        if top > _LOG_MAX:
            raise NumericOverflow(f"adjacency entry exp({top:.4g}) is "
                                  "beyond the float64 range")
    np.exp(A, out=A)
    return A, E


def _laplacian(A: np.ndarray, out=None) -> np.ndarray:
    """diag(A 1) - A, written into `out` when given (A itself is allowed);
    bit-identical to forming the diagonal matrix and subtracting A."""
    deg = A.sum(axis=1)
    L = np.negative(A, out=out)
    L.flat[::L.shape[0] + 1] += deg
    return L


def build_laplacian(p: RegParam) -> LaplacianPair:
    """Adjacency and Laplacian for the current W."""
    A, _ = _adjacency(p)
    return LaplacianPair(A, _laplacian(A))


def dirichlet_energy(L, M) -> float:
    """tr(M^T L M), the similarity-weighted smoothness of M's rows.

    Evaluated as <M, L M>, which skips the off-diagonal entries of
    M^T L M.

    Equals half the A-weighted sum of squared row differences over
    ordered pairs; the identity is enforced by the test suite.
    """
    L = as_matrix(L, "Laplacian")
    M = as_matrix(M, "energy argument")
    if L.shape[0] != L.shape[1] or M.shape[0] != L.shape[0]:
        raise InvalidInput(f"shape mismatch: L {L.shape}, M {M.shape}")
    return float(np.vdot(M, L @ M))


def _sq_distances(M: np.ndarray) -> np.ndarray:
    """K with K_ij = ||M_i - M_j||^2 = d_i + d_j - 2 (M M^T)_ij, where
    d = diag(M M^T), formed in place on the Gram matrix."""
    K = M @ M.T
    d = K.diagonal().copy()  # diagonal() is a view of K
    K *= -2.0
    K += d[:, None]
    K += d
    return K


def _sum_value_grad_from_K(K: np.ndarray, W: np.ndarray):
    """Sum-form energy and W-gradient with the distance matrix K fixed.

    Split out so flow simulations over a frozen M can skip recomputing K
    every step. Returns (value, gradient, E) with E = exp(W)/S.
    """
    E, _ = _normalized_exp(W)
    R = float((K * E).sum())
    return R, K * E - R * E, E


def reg_value_and_grad(p: RegParam, M, *, laplacian: bool = False):
    """Dirichlet energy tr(M^T L(W) M) and its gradient in W.

    Writing E = exp(W)/S and K_ij = ||M_i - M_j||^2, the chain rule
    through the normalized exponentials gives, for the sum form with
    value R = <K, E>,

        dR/dW = K o E - R E

    and for the product form with value R = <K, A>/2,

        dR/dW = K o A - R E

    (o is the elementwise product). Both match finite differences of
    the energy; see the module docstring.

    Returns (R, dR/dW). With laplacian=True the Laplacian of the same
    adjacency comes third, bit-identical to build_laplacian(p).L, so a
    training step exponentiates W once.
    """
    M = as_matrix(M, "transformed matrix")
    if M.shape[0] != p.dim:
        raise InvalidInput(f"M has {M.shape[0]} rows, W is {p.dim}x{p.dim}")
    K = _sq_distances(M)
    A, E = _adjacency(p)
    # products are formed in place: at 1682 rows each m x m array is 23 MB
    if p.parameterization == "sum_form":
        R = float(np.vdot(K, E))
        K *= E
    else:
        R = 0.5 * float(np.vdot(K, A))
        K *= A
    E *= R
    K -= E
    if laplacian:
        return R, K, _laplacian(A, out=A)
    return R, K


def grad_wrt_X(Lr, Lc, X, lam_r: float, lam_c: float) -> np.ndarray:
    """Gradient of lam_r tr(X^T Lr X) + lam_c tr(X Lc X^T) in X."""
    X = as_matrix(X, "X")
    out = np.zeros_like(X)
    if lam_r != 0.0:
        Lr = as_matrix(Lr, "Lr")
        if Lr.shape != (X.shape[0], X.shape[0]):
            raise InvalidInput(f"Lr shape {Lr.shape} vs X rows {X.shape[0]}")
        out += 2.0 * lam_r * (Lr @ X)
    if lam_c != 0.0:
        Lc = as_matrix(Lc, "Lc")
        if Lc.shape != (X.shape[1], X.shape[1]):
            raise InvalidInput(f"Lc shape {Lc.shape} vs X cols {X.shape[1]}")
        out += 2.0 * lam_c * (X @ Lc)
    return out


# ---------------------------------------------------------------------------
# Convergence oracles for the adjacency flow on a fixed matrix M with
# positive, unit-norm rows. S2 is the set of off-diagonal index pairs with
# identical rows, S1 the pairs with distinct rows. Along the flow the
# adjacency mass concentrates uniformly on S2 and the diagonal.

def _check_flow_hypotheses(M: np.ndarray):
    if M.min() <= 0:
        k = int(np.argmin(M.min(axis=1)))
        raise InvalidInput(f"row {k} has a nonpositive entry; the flow "
                           "analysis assumes strictly positive rows")
    norms = np.linalg.norm(M, axis=1)
    bad = np.where(np.abs(norms - 1.0) > 1e-9)[0]
    if bad.size:
        raise InvalidInput(f"row {int(bad[0])} is not unit-norm "
                           f"(|r| = {norms[bad[0]]:.12g})")


def identical_row_pairs(M, tol: float = 1e-12) -> list[tuple[int, int]]:
    """Ordered off-diagonal pairs (k, l), k < l, with identical rows."""
    M = as_matrix(M, "M")
    out = []
    for k in range(M.shape[0]):
        for l in range(k + 1, M.shape[0]):
            if np.max(np.abs(M[k] - M[l])) <= tol:
                out.append((k, l))
    return out


def limit_laplacian(M, tol: float = 1e-12) -> tuple[np.ndarray, float, int]:
    """Limiting Laplacian of the adjacency flow, plus gamma and s = |S2|/2.

    The limiting adjacency puts the uniform value gamma = 2/(m + 2s) on
    identical-row pairs and the diagonal, and 0 elsewhere. The returned
    L* follows the construction L = diag(A 1) - A, so off-diagonal
    entries come out nonpositive; callers comparing against the flow
    should compare magnitudes.
    """
    M = as_matrix(M, "M")
    _check_flow_hypotheses(M)
    m = M.shape[0]
    pairs = identical_row_pairs(M, tol)
    s = len(pairs)
    gamma = 2.0 / (m + 2 * s)
    A = gamma * np.eye(m)
    for k, l in pairs:
        A[k, l] = A[l, k] = gamma
    return _laplacian(A, out=A), gamma, s


def decay_constant(M, tol: float = 1e-12) -> float:
    """Slowest modal rate D = min over distinct-row pairs of 4 C_kl / m^2.

    C_kl = 1 - <M_k, M_l> for unit rows. Returns 0 (with a warning) when
    every pair of rows is identical, the degenerate case in which the
    regularizer value is constant along the flow.
    """
    M = as_matrix(M, "M")
    _check_flow_hypotheses(M)
    m = M.shape[0]
    ident = set(identical_row_pairs(M, tol))
    best = None
    P = M @ M.T
    for k in range(m):
        for l in range(k + 1, m):
            if (k, l) in ident:
                continue
            C_kl = 1.0 - P[k, l]
            best = C_kl if best is None else min(best, C_kl)
    if best is None:
        warnings.warn("all rows identical: decay constant degenerates to 0")
        return 0.0
    return 4.0 * best / (m * m)


def normalize_rows_positive(M, eps: float = 1e-2) -> np.ndarray:
    """Shift M entrywise positive if needed, then scale rows to unit norm."""
    M = as_matrix(M, "M").copy()
    lo = M.min()
    if lo <= 0:
        M += eps - lo
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms == 0):
        raise InvalidInput("zero row after positivity shift")
    return M / norms[:, None]
