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
from .mat_core import _PLAN, _lanes, _queue, _take, _view, as_matrix

__all__ = [
    "RegParam", "LaplacianPair",
    "build_laplacian", "dirichlet_energy",
    "grad_wrt_X", "reg_value_and_grad",
    "identical_row_pairs", "limit_laplacian", "decay_constant",
]

_PARAMETERIZATIONS = ("product_form", "sum_form")
_LOG_MAX = math.log(np.finfo(np.float64).max)  # exp overflows above this
# rows per block of the graph sweep. One AIR step at the MovieLens-100K
# shape timed alike on one BLAS thread with 64 to 256 rows (see CHANGES.md);
# each block's scratch arrays are _GRAPH_BLOCK x m
_GRAPH_BLOCK = 128


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


def _row_blocks(m: int) -> list[slice]:
    return [slice(i, min(i + _GRAPH_BLOCK, m))
            for i in range(0, m, _GRAPH_BLOCK)]


def _exp_scale(W: np.ndarray, buf=None) -> tuple[float, float, np.ndarray]:
    """(c, s, tail) with c = max W and s = sum(exp(W - c)), summed over
    row blocks, so that E = exp(W - c)/s and log S = c + log s never
    overflow however large W grows; tail is exp(W - c) on the last block,
    for a sweep to reuse. With a flat buffer `buf` of a block's size,
    every block is formed at its start."""
    c = float(W.max())
    s = 0.0
    for blk in _row_blocks(W.shape[0]):
        Wb = W[blk]  # out positional: out=None costs a small call 0.5 us
        tail = np.subtract(Wb, c, None if buf is None
                           else _view(buf, Wb.shape))
        np.exp(tail, out=tail)
        s += float(tail.sum())
    return c, s, tail


def _normalized_exp(W: np.ndarray, c: float, s: float,
                    rows=slice(None), out=None) -> np.ndarray:
    """Rows `rows` of E = exp(W)/S, formed as exp(W - c)/s, into `out` when
    given; C-ordered also for a transposed W."""
    Wr = W[rows]
    E = np.subtract(Wr, c, out=np.empty(Wr.shape) if out is None else out)
    np.exp(E, out=E)
    E /= s
    return E


def _adjacency_rows(p: RegParam, c: float, s: float, rows=slice(None),
                    E=None, out=None) -> np.ndarray:
    """Rows `rows` of A for the current W, given (c, s) = _exp_scale(W)
    and, in the sum form, optionally the same rows of E; written into
    `out` when given.

    The product form is A = exp(W + W^T - log S), exponentiated in place,
    and raises NumericOverflow only when an entry of A itself is beyond
    float64. Every exponent is at most 2 max W - log S <= log S, so it is
    scanned only when S overflows. The sum form, E + E^T, cannot
    overflow.
    """
    W = p.W
    if p.parameterization == "sum_form":
        # E's rows summed into E^T's, which are C-ordered, so A's degrees sum
        # in one order at every size; addition commutes, so the bits are
        # those of E + E^T
        A = _normalized_exp(W.T, c, s, rows, out)
        A += _normalized_exp(W, c, s, rows) if E is None else E
        return A
    log_s = c + math.log(s)
    A = np.add(W[rows], W.T[rows], out)
    A -= log_s
    if log_s > _LOG_MAX:
        top = A.max()
        if top > _LOG_MAX:
            raise NumericOverflow(f"adjacency entry exp({top:.4g}) is "
                                  "beyond the float64 range")
    np.exp(A, out=A)
    return A


def _laplacian(A: np.ndarray, out=None, first: int = 0) -> np.ndarray:
    """diag(A 1) - A for the rows of A from row `first` on, written into
    `out` when given (A itself is allowed); bit-identical to forming the
    diagonal matrix and subtracting A."""
    deg = A.sum(axis=1)
    L = np.negative(A, out=out)
    L.flat[first::L.shape[1] + 1] += deg
    return L


def build_laplacian(p: RegParam) -> LaplacianPair:
    """Adjacency and Laplacian for the current W; each row block of L has
    the bits of the one reg_value_and_grad forms."""
    c, s, _ = _exp_scale(p.W)
    A = _adjacency_rows(p, c, s)
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


def _sq_distances(K: np.ndarray, d: np.ndarray, rows=slice(None)):
    """Rows `rows` of the Gram matrix K = M M^T, turned in place into
    K_ij = ||M_i - M_j||^2 = d_i + d_j - 2 (M M^T)_ij with d = diag(M M^T)
    (a copy: diagonal() is a view of K); returns those rows, a view."""
    Kb = K[rows]
    Kb *= -2.0
    Kb += d[rows, None]
    Kb += d
    return Kb


def _sum_value_grad_from_K(K: np.ndarray, W: np.ndarray):
    """Sum-form energy and W-gradient with the distance matrix K fixed.

    Split out so flow simulations over a frozen M can skip recomputing K
    every step. Returns (value, gradient); E = exp(W)/S is formed as
    exp(W - max W) over its sum, one exponential per entry.
    """
    E = np.exp(W - W.max())
    E /= E.sum()
    KE = K * E
    R = float(KE.sum())
    return R, KE - R * E


def _laplacian_rows(L_blk, M, out) -> np.ndarray:
    """Rows of L M, from the same rows of the symmetric L, into the
    C-ordered `out`."""
    if L_blk.shape[0] == L_blk.shape[1] and M.flags.f_contiguous:
        # all of L, and M is X^T: X L skips BLAS's slower transposed
        # operand, which costs a 100 x 100 step about 3% of its graph time
        return np.matmul(M.T, L_blk, out=out.reshape(M.shape[1], -1)).T
    return np.matmul(L_blk, M, out=out)


def _fixed_graph_term(L, M, lam: float, out) -> float:
    """tr(M^T L M) for a given L, adding 2 lam L M into out in the row
    blocks of reg_value_and_grad, so that the two add the same bits."""
    R = 0.0
    for blk in _row_blocks(L.shape[0]):
        LM = _laplacian_rows(L[blk], M,
                             _take((blk.stop - blk.start, M.shape[1]))[0])
        R += float(np.vdot(M[blk], LM))
        if lam != 0.0:
            LM *= 2.0 * lam  # in place, not into a copy
            out[blk] += LM
    return R


def _step_arrays(p: RegParam):
    """(K, buf) for reg_value_and_grad(p, ..., arrays=...) to write its
    Gram matrix, which becomes dR/dW, and its first pass into."""
    return np.empty((p.dim, p.dim)), np.empty(min(p.dim, _GRAPH_BLOCK) * p.dim)


def _gram(p: RegParam, M, arrays=None):
    """reg_value_and_grad's Gram matrix M M^T and first pass."""
    K, buf = arrays or (None, None)
    return np.matmul(M, M.T, out=K), _exp_scale(p.W, buf)


def _gram_ahead(p: RegParam, M, arrays=None):
    """For a reg_value_and_grad(p, M, arrays=arrays) call to come: its
    Gram matrix and first pass, queued on the worker when a training plan
    splits this graph (see mat_core._lanes), else None."""
    if not (_PLAN.get().graphs and p.dim > _GRAPH_BLOCK):
        return None
    return _queue(lambda: _gram(p, M, arrays))


def reg_value_and_grad(p: RegParam, M, *, lam: float = 0.0, out=None,
                       grad: bool = True, ahead=None, arrays=None):
    """Dirichlet energy tr(M^T L(W) M) and its gradient in W.

    Writing E = exp(W)/S and K_ij = ||M_i - M_j||^2, the chain rule
    through the normalized exponentials gives, for the sum form with
    value R = <K, E>,

        dR/dW = K o E - R E

    and for the product form with value R = <K, A>/2,

        dR/dW = K o A - R E

    (o is the elementwise product). Both match finite differences of
    the energy; see the module docstring.

    A, E and L exist one block of _GRAPH_BLOCK rows at a time. The Gram
    matrix M M^T is formed whole (numpy runs a symmetric rank-k update)
    and becomes dR/dW in place: a first pass over the blocks gives S, a
    second turns each block into K, adds its share of R and writes K o A
    (sum form: K o E), and a last subtracts R E. `ahead`, from
    _gram_ahead(p, M), brings the Gram matrix and the first pass formed
    on the worker. Under a training plan with graphs split (see
    mat_core._lanes) the other two passes hand their blocks to two lanes;
    R is summed over blocks in block order either way, so the bits do not
    depend on the split.

    Returns (R, dR/dW), or (R, None) with grad=False. With lam nonzero and
    `out` an array whose rows match M's (out.T for M = X^T), the second
    pass also adds 2 lam L M, the gradient in M of lam R, into `out`.
    With `arrays` from _step_arrays(p) the Gram matrix, and so dR/dW, and
    the first pass are written into them, with the same bits. Each block's
    arrays come from mat_core._take.
    """
    if arrays is None:  # _AdaptiveReg's callers check X or make it finite
        M = as_matrix(M, "transformed matrix")
    if M.shape[0] != p.dim:
        raise InvalidInput(f"M has {M.shape[0]} rows, W is {p.dim}x{p.dim}")
    W = p.W
    sum_form = p.parameterization == "sum_form"
    blocks = _row_blocks(p.dim)
    split = _PLAN.get().graphs
    if ahead is None or ahead.cancel():  # not started: form it here
        K, (c, s, tail) = _gram(p, M, arrays)
    else:
        K, (c, s, tail) = ahead.result()
    d = K.diagonal().copy()
    add = out is not None and lam != 0.0

    def energy_rows(blk):
        b = blk.stop - blk.start
        A_out, LM_out, F_out = _take(
            (b, p.dim), (b, M.shape[1]), (b, p.dim if sum_form else 0))
        F = _normalized_exp(W, c, s, blk, F_out) if sum_form else None
        A = _adjacency_rows(p, c, s, blk, F, A_out)
        Kb = _sq_distances(K, d, blk)  # K[blk], to become the gradient
        if F is None:
            F = A
        r = float(np.vdot(Kb, F))
        if grad:
            Kb *= F
        if add:
            LM = _laplacian_rows(_laplacian(A, out=A, first=blk.start), M,
                                 LM_out)
            LM *= 2.0 * lam
            out[blk] += LM
        return r

    R = 0.0
    for r in _lanes(energy_rows, blocks, split):
        R += r  # in block order; sum() may compensate on newer Pythons
    if not sum_form:
        R *= 0.5
    if grad:
        tail /= s  # the last block's E, from the first pass's exponentials

        def subtract_rows(blk):
            E = tail if blk is blocks[-1] else _normalized_exp(
                W, c, s, blk, _take((blk.stop - blk.start, p.dim))[0])
            E *= R
            K[blk] -= E

        _lanes(subtract_rows, blocks, split)
    return R, (K if grad else None)


def grad_wrt_X(Lr, Lc, X, lam_r: float, lam_c: float) -> np.ndarray:
    """Gradient of lam_r tr(X^T Lr X) + lam_c tr(X Lc X^T) in X, summed in
    the row blocks of a training step."""
    X = as_matrix(X, "X")
    out = np.zeros_like(X)
    if lam_r != 0.0:
        Lr = as_matrix(Lr, "Lr")
        if Lr.shape != (X.shape[0], X.shape[0]):
            raise InvalidInput(f"Lr shape {Lr.shape} vs X rows {X.shape[0]}")
        _fixed_graph_term(Lr, X, lam_r, out)
    if lam_c != 0.0:
        Lc = as_matrix(Lc, "Lc")
        if Lc.shape != (X.shape[1], X.shape[1]):
            raise InvalidInput(f"Lc shape {Lc.shape} vs X cols {X.shape[1]}")
        _fixed_graph_term(Lc, X.T, lam_c, out.T)
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
