"""Comparison methods: KNN and iterative-SVD imputation, plus the inputs of
the two alternative penalties that `trainer.train` runs, smoothed total
variation and frozen graph Laplacians."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .air_reg import build_laplacian
from .data_lab import SamplingMask
from .errors import ImputeError, InvalidInput
from .mat_core import _take, _view, as_matrix, svd

__all__ = [
    "TvConfig", "FixedLaplacians",
    "knn_impute", "svd_impute", "tv_value_and_grad",
]


@dataclass(frozen=True)
class TvConfig:
    eps: float = 1e-6

    def __post_init__(self):
        if not self.eps > 0:
            raise InvalidInput("tv smoothing eps must be positive")


_LAP_TOL = 1e-8


@dataclass(frozen=True)
class FixedLaplacians:
    """Externally supplied or snapshotted graph Laplacians."""

    L_r: np.ndarray
    L_c: np.ndarray

    def __post_init__(self):
        for name, L in (("L_r", self.L_r), ("L_c", self.L_c)):
            L = as_matrix(L, name)
            if L.shape[0] != L.shape[1]:
                raise InvalidInput(f"{name} must be square, got {L.shape}")
            scale = 1.0 + np.abs(L).max()
            if np.abs(L - L.T).max() > _LAP_TOL * scale:
                raise InvalidInput(f"{name} is not symmetric")
            if np.abs(L.sum(axis=1)).max() > _LAP_TOL * scale:
                raise InvalidInput(f"{name} rows do not sum to zero")
            object.__setattr__(self, name, L)

    def check_shape(self, m: int, n: int):
        """Raise InvalidInput unless the graphs fit an m x n matrix."""
        if self.L_r.shape != (m, m) or self.L_c.shape != (n, n):
            raise InvalidInput(f"Laplacian shapes {self.L_r.shape}/"
                               f"{self.L_c.shape} vs matrix {(m, n)}")

    @classmethod
    def from_state(cls, state):
        """Snapshot the Laplacians a trainer.ModelState currently encodes."""
        return cls(build_laplacian(state.reg_row).L,
                   build_laplacian(state.reg_col).L)


def knn_impute(Y_partial, mask: SamplingMask, k: int) -> np.ndarray:
    """Fill missing entries from the k most similar rows.

    Row distance is the mean squared difference over co-observed columns
    (count-normalized so sparsely overlapping rows are comparable). For a
    missing (i, j), the candidates are other rows observing column j,
    taken in order of distance; with no usable candidate the column mean
    steps in.
    """
    Y = as_matrix(Y_partial, "Y_partial")
    obs = mask.observed
    if Y.shape != obs.shape:
        raise InvalidInput(f"matrix {Y.shape} vs mask {obs.shape}")
    if k < 1:
        raise InvalidInput("k must be at least 1")
    m, n = Y.shape
    rows_obs = obs.sum(axis=1)
    if rows_obs.min() == 0:
        raise InvalidInput(f"row {int(np.argmin(rows_obs))} has no observed "
                           "entries")

    # pairwise distances over co-observed columns
    dist = np.full((m, m), np.inf)
    for i in range(m):
        for j in range(i + 1, m):
            co = obs[i] & obs[j]
            cnt = int(co.sum())
            if cnt == 0:
                continue
            d = Y[i, co] - Y[j, co]
            dist[i, j] = dist[j, i] = float(d @ d) / cnt

    col_sums = np.where(obs, Y, 0.0).sum(axis=0)
    col_counts = obs.sum(axis=0)

    out = Y.copy()
    for i in range(m):
        for j in range(n):
            if obs[i, j]:
                continue
            donors = np.where(obs[:, j] & np.isfinite(dist[:, i]))[0]
            if donors.size:
                order = donors[np.argsort(dist[donors, i], kind="stable")]
                chosen = order[:k]
                out[i, j] = float(Y[chosen, j].mean())
            elif col_counts[j] > 0:
                out[i, j] = col_sums[j] / col_counts[j]
            else:
                raise ImputeError(f"column {j} has no observed entries and "
                                  f"no neighbor of row {i} observes it")
    return out


def svd_impute(Y_partial, mask: SamplingMask, rank: int,
               tol: float = 1e-6, max_rounds: int = 200) -> np.ndarray:
    """Iterative low-rank imputation.

    Missing entries start at their column means (global observed mean for
    empty columns) and are repeatedly overwritten by a rank-truncated
    reconstruction until they move less than tol in max-norm. Observed
    entries are never touched.
    """
    Y = as_matrix(Y_partial, "Y_partial")
    obs = mask.observed
    if Y.shape != obs.shape:
        raise InvalidInput(f"matrix {Y.shape} vs mask {obs.shape}")
    if rank < 1 or rank > min(Y.shape):
        raise InvalidInput(f"rank must be in [1, {min(Y.shape)}], got {rank}")
    if max_rounds < 1:
        raise InvalidInput("max_rounds must be at least 1")

    miss = ~obs
    work = Y.copy()
    if miss.any():
        col_counts = obs.sum(axis=0)
        col_means = np.where(obs, Y, 0.0).sum(axis=0) / np.maximum(col_counts, 1)
        global_mean = float(Y[obs].mean())
        fill = np.where(col_counts > 0, col_means, global_mean)
        work[miss] = np.broadcast_to(fill, Y.shape)[miss]

    for _ in range(max_rounds):
        f = svd(work)
        low = (f.U[:, :rank] * f.S[:rank]) @ f.V[:, :rank].T
        change = np.abs(low[miss] - work[miss]).max() if miss.any() else 0.0
        work[miss] = low[miss]
        if change < tol:
            break
    return work


def tv_value_and_grad(X, cfg: TvConfig) -> tuple[float, np.ndarray]:
    """Smoothed anisotropic total variation and its gradient.

    Each horizontal and vertical neighbor difference d contributes
    sqrt(d^2 + eps^2) - eps, which vanishes with d and is differentiable
    at d = 0. The gradient and the differences come from mat_core._take:
    in a `train` call the gradient holds until the penalty's next call.
    """
    X = as_matrix(X, "X")
    m, n = X.shape
    grad, d_buf, root_buf = _take((m, n), (m * n,), (m * n,))
    grad.fill(0.0)
    value = 0.0
    every, up, down = slice(None), slice(1, None), slice(None, -1)
    # the horizontal, then the vertical differences X[hi] - X[lo]
    for shape, hi, lo in (((m, n - 1), (every, up), (every, down)),
                          ((m - 1, n), (up, every), (down, every))):
        d = np.subtract(X[hi], X[lo], _view(d_buf, shape))
        root = np.multiply(d, d, _view(root_buf, shape))
        root += cfg.eps * cfg.eps
        np.sqrt(root, out=root)
        d /= root  # the gradient of this direction's terms
        grad[hi] += d
        grad[lo] -= d
        root -= cfg.eps
        value += float(root.sum())
    return value, grad
