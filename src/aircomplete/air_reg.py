"""Learnable adjacency/Laplacian regularizer and its convergence oracles.

A trainable square matrix W parameterizes a symmetric, strictly positive
adjacency A through elementwise exponentials, normalized by the scalar
S = sum(exp(W)). Two parameterizations are supported:

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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericOverflow
from .mat_core import as_matrix

__all__ = [
    "RegParam", "LaplacianPair", "Transform",
    "build_laplacian", "apply_transform", "dirichlet_energy",
    "grad_wrt_W", "grad_wrt_X", "reg_value_and_grad",
    "identical_row_pairs", "limit_laplacian", "decay_constant",
    "normalize_rows_positive",
]

_PARAMETERIZATIONS = ("product_form", "sum_form")
_EXP_GUARD = 700.0  # exp overflows float64 just above 709


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
    """Adjacency A, the one-sided A' = exp(W^T)/S, and Laplacian L."""

    A: np.ndarray
    Aprime: np.ndarray
    L: np.ndarray


def _check_exp_args(*mats):
    for M in mats:
        if M.max() > _EXP_GUARD:
            raise NumericOverflow(
                f"exp argument {M.max():.3g} exceeds the overflow guard {_EXP_GUARD}")


def _adjacency(p: RegParam) -> tuple[np.ndarray, np.ndarray]:
    """(A, E) for the current W, with E = exp(W)/S, from one exponential.

    The product form uses exp(W + W^T) = exp(W) o exp(W)^T; the guard on
    W + W^T keeps that product representable.
    """
    W = p.W
    if p.parameterization == "product_form":
        _check_exp_args(W, W + W.T)
    else:
        _check_exp_args(W)
    E = np.exp(W)
    S = E.sum()
    if p.parameterization == "product_form":
        A = E * E.T
        A /= S
        E /= S
    else:
        E /= S
        A = E.T + E
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
    A, E = _adjacency(p)
    return LaplacianPair(A, E.T, _laplacian(A))


@dataclass(frozen=True)
class Transform:
    """Row-graph domain choice: rows, columns, or vectorized blocks."""

    kind: str = "row_identity"
    grid_rows: int = 1
    grid_cols: int = 1

    def __post_init__(self):
        if self.kind not in ("row_identity", "column_transpose", "block"):
            raise InvalidInput(f"unknown transform kind {self.kind!r}")


def apply_transform(t: Transform, X) -> np.ndarray:
    """Move X into the domain whose rows the regularizer compares."""
    X = as_matrix(X, "transform input")
    if t.kind == "row_identity":
        return X
    if t.kind == "column_transpose":
        return X.T
    m, n = X.shape
    gr, gc = t.grid_rows, t.grid_cols
    if gr < 1 or gc < 1 or m % gr != 0 or n % gc != 0:
        raise InvalidInput(f"grid {gr}x{gc} does not divide matrix {m}x{n}")
    bh, bw = m // gr, n // gc
    # row j of the output is the row-major vectorization of block j,
    # blocks ordered row-major
    return (X.reshape(gr, bh, gc, bw)
             .transpose(0, 2, 1, 3)
             .reshape(gr * gc, bh * bw))


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


def _pair_distance_matrix(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C with C_ij = (M M^T)_ii - (M M^T)_ij, and K = C + C^T.

    K_ij = ||M_i - M_j||^2, the squared row distances.
    """
    P = M @ M.T
    d = np.diag(P)
    C = d[:, None] - P
    return C, C + C.T


def _sum_value_grad_from_K(K: np.ndarray, W: np.ndarray):
    """Sum-form energy and W-gradient with the distance matrix K fixed.

    Split out so flow simulations over a frozen M can skip recomputing K
    every step. Returns (value, gradient, E) with E = exp(W)/S.
    """
    expW = np.exp(W)
    S = expW.sum()
    E = expW / S
    R = float((K * E).sum())
    return R, K * E - R * E, E


def reg_value_and_grad(p: RegParam, M, *, laplacian: bool = False):
    """Dirichlet energy tr(M^T L(W) M) and its gradient in W.

    Writing E = exp(W)/S and K_ij = ||M_i - M_j||^2, the chain rule
    through the normalized exponentials gives, for the sum form with
    value R = <K, E>,

        dR/dW = K o E - R E

    and for the product form with value R = <C, A>,

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
    C, K = _pair_distance_matrix(M)
    A, E = _adjacency(p)
    # products are formed in place: at 1682 rows each m x m array is 23 MB
    if p.parameterization == "sum_form":
        K *= E
        R = float(K.sum())
    else:
        C *= A
        R = float(C.sum())
        K *= A
    del C
    E *= R
    K -= E
    if laplacian:
        return R, K, _laplacian(A, out=A)
    return R, K


def grad_wrt_W(p: RegParam, M) -> np.ndarray:
    """Gradient of the Dirichlet energy with respect to W."""
    return reg_value_and_grad(p, M)[1]


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
