"""Numerical verification of the dynamics results.

Three flows, each discretized by plain gradient descent at a small step
(the first and last through the trainer's penalty strategies) and
compared against the corresponding closed-form prediction:

singular-value dynamics (verify_theorem1)
    Under balanced initialization, each singular value of the product
    matrix should move as

        sigma_dot_k = -L (sigma_k^2)^(1-1/L) <grad_Y, U_k V_k^T>
                      - 2 L (sigma_k^2)^(3/2-1/L) gamma_k

    Two gamma_k candidates circulate: the bare one,
    U_k^T L_r U_k + V_k^T L_c V_k, and the lambda-weighted one,
    lam_r U_k^T L_r U_k + lam_c V_k^T L_c V_k. Both are measured against
    central differences of the actual flow and the report states which
    one matches.

adjacency-flow convergence (verify_theorem2)
    Gradient descent on W alone (sum form, M fixed) should drive the
    adjacency to the uniform value gamma on identical-row pairs and the
    diagonal, with the regularizer value bounded by
    2 m (m-1) exp(-D t) / gamma.

balance conservation (verify_balance)
    Gradient descent on the fidelity alone should approximately preserve
    W(l+1)^T W(l+1) = W(l) W(l)^T from a balanced start.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .air_reg import (RegParam, _sq_distances, _sum_value_grad_from_K,
                      build_laplacian, decay_constant, identical_row_pairs,
                      limit_laplacian)
from .dmf import (balance_residuals, factor_grads_from_full, forward,
                  initialize)
from .errors import DivergenceError, InvalidInput
from .mat_core import as_matrix, gaussian_matrix
from .trainer import _AdaptiveReg, _NoReg

__all__ = ["FlowReport", "verify_theorem1", "verify_theorem2",
           "verify_balance"]


@dataclass
class FlowReport:
    """Checkpoint table plus a summary verdict for one flow run."""

    kind: str
    columns: tuple
    rows: list = field(default_factory=list)
    verdict: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.verdict.get("passed", False))

    def add_row(self, row):
        if len(row) != len(self.columns):
            raise InvalidInput(f"row has {len(row)} fields, report has "
                               f"{len(self.columns)} columns")
        # ties allowed: one checkpoint may emit a row per singular value
        if self.rows and row[0] < self.rows[-1][0]:
            raise InvalidInput("checkpoint times must not decrease")
        if not all(np.isfinite(v) for v in row):
            raise InvalidInput(f"non-finite report value at t={row[0]}")
        self.rows.append(tuple(float(v) for v in row))

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format(v, ".17g") for v in row))
        parts = [f"{k}={v}" for k, v in self.verdict.items()]
        lines.append("verdict," + ";".join(parts))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.to_csv())


def _descend(chain, strategy, Y, lr, steps):
    """The trainer's gradient step with every entry observed: descent at
    lr on 1/2 ||X - Y||^2 plus the strategy's penalty, updating the factors
    and strategy.w_params in place. Yields (it, X) for it = 0..steps, X the
    product after `it` updates; a caller checks X before it resumes."""
    params = list(chain.factors) + list(strategy.w_params)
    for it in range(steps + 1):
        partials = []
        X = forward(chain, partials)
        yield it, X
        if it == steps:
            return
        _, _, G, w_grads = strategy.compute(X, X - Y)
        grads = factor_grads_from_full(chain, G, partials) + list(w_grads)
        for p, g in zip(params, grads):
            p -= lr * g


def _check_flow(lr, steps):
    if not lr > 0 or steps < 1:
        raise InvalidInput(f"a flow needs lr > 0 and at least 1 step, "
                           f"got lr={lr}, steps={steps}")


def _match_columns(prev_U, U, top_k):
    """Greedy alignment of the current SVD columns to the previous
    checkpoint's, by largest |inner product|; returns (indices, signs)."""
    if prev_U is None:
        return list(range(top_k)), [1.0] * top_k
    overlap = np.abs(prev_U.T @ U)
    idx, signs, used = [], [], set()
    for k in range(top_k):
        order = np.argsort(-overlap[k])
        j = next(int(c) for c in order if int(c) not in used)
        used.add(j)
        idx.append(j)
        signs.append(1.0 if float(prev_U[:, k] @ U[:, j]) >= 0 else -1.0)
    return idx, signs


def verify_theorem1(m: int = 8, n: int = 8, L: int = 3, lr: float = 1e-5,
                    steps: int = 1010, lam_r: float = 0.3, lam_c: float = 0.7,
                    rng=None, target=None) -> FlowReport:
    """Integrate the regularized flow and compare measured sigma_dot
    against the closed-form prediction under both gamma variants.

    The top 3 singular values are checked every 10 steps. The verdict's
    pass bound is 5% relative over checkpoints 10 to 100, under whichever
    variant matches better. Checkpoints where adjacent singular values
    come within 1e-9 are skipped (vectors ill-defined).
    """
    check_every, top_k, window = 10, 3, (10, 100)
    if min(m, n) < top_k:
        raise InvalidInput(f"thm1 tracks the top {top_k} singular values and "
                           f"needs {top_k} rows and columns, got {m}x{n}")
    if not 0 < lr <= 1e-4:
        raise InvalidInput(f"flow discretization needs 0 < lr <= 1e-4, "
                           f"got {lr}")
    if rng is None:
        raise InvalidInput("an explicit rng is required for reproducibility")
    if steps < (window[1] + 1) * check_every:
        raise InvalidInput(f"need at least {(window[1] + 1) * check_every} "
                           f"steps to cover checkpoint window {window}")
    chain = initialize(m, n, L, scheme="balanced_spectral", rng=rng)
    Y = rng.standard_normal((m, n)) if target is None else as_matrix(target, "target")
    reg_on = lam_r > 0 or lam_c > 0
    reg_row = RegParam(gaussian_matrix(rng, m, m, variance=1e-5))
    reg_col = RegParam(gaussian_matrix(rng, n, n, variance=1e-5))
    strategy = (_AdaptiveReg(reg_row, reg_col, lam_r, lam_c) if reg_on
                else _NoReg())

    sig_hist = []     # per checkpoint: aligned top_k sigmas
    pred_hist = []    # per checkpoint: (fid, reg_stmt, reg_proof) arrays
    skipped = []
    prev_U = None

    def checkpoint(X):
        nonlocal prev_U
        U, S, Vt = np.linalg.svd(X, full_matrices=False)
        idx, signs = _match_columns(prev_U, U, top_k)
        gaps_ok = True
        for k in idx:
            near = np.abs(S - S[k])
            near[k] = np.inf
            if near.min() < 1e-9:
                gaps_ok = False
        sig = np.array([S[j] for j in idx])
        prev_U = np.column_stack([signs[k] * U[:, idx[k]] for k in range(top_k)])
        if reg_on:
            Lr = build_laplacian(reg_row).L
            Lc = build_laplacian(reg_col).L
        Gy = X - Y
        fid = np.empty(top_k)
        reg_s = np.zeros(top_k)
        reg_p = np.zeros(top_k)
        for k in range(top_k):
            j = idx[k]
            u = signs[k] * U[:, j]
            v = signs[k] * Vt[j]
            s2 = sig[k] ** 2
            fid[k] = -L * s2 ** (1 - 1 / L) * float(u @ Gy @ v)
            if reg_on:
                pre = -2 * L * s2 ** (1.5 - 1 / L)
                reg_s[k] = pre * float(u @ Lr @ u + v @ Lc @ v)
                reg_p[k] = pre * float(lam_r * (u @ Lr @ u)
                                       + lam_c * (v @ Lc @ v))
        sig_hist.append(sig)
        pred_hist.append((fid, reg_s, reg_p))
        return gaps_ok

    for it, X in _descend(chain, strategy, Y, lr, steps):
        # every pass: the penalty's kernels take X unchecked
        if not np.isfinite(X).all():
            raise DivergenceError(it, "factor chain")
        if it % check_every == 0 and not checkpoint(X):
            skipped.append(it // check_every)

    report = FlowReport(
        kind="theorem1",
        columns=("t", "k", "sigma", "sigma_dot", "pred_statement",
                 "pred_proof", "rel_err_statement", "rel_err_proof"))
    dt = check_every * lr
    lo, hi = window
    err_s_max = 0.0
    err_p_max = 0.0
    n_ckpt = len(sig_hist)
    skip_set = set(skipped)
    for c in range(1, n_ckpt - 1):
        if {c - 1, c, c + 1} & skip_set:
            continue
        sd = (sig_hist[c + 1] - sig_hist[c - 1]) / (2 * dt)
        fid, reg_s, reg_p = pred_hist[c]
        in_window = lo <= c <= hi
        for k in range(top_k):
            if sd[k] == 0.0:
                continue  # relative error undefined
            ps = fid[k] + reg_s[k]
            pp = fid[k] + reg_p[k]
            es = abs(ps - sd[k]) / abs(sd[k])
            ep = abs(pp - sd[k]) / abs(sd[k])
            report.add_row((c * dt, k, sig_hist[c][k], sd[k],
                            ps, pp, es, ep))
            if in_window:
                err_s_max = max(err_s_max, es)
                err_p_max = max(err_p_max, ep)
    if not reg_on:
        selected = "fidelity_only"
        err_sel = err_p_max
    elif err_p_max <= err_s_max:
        selected = "proof"
        err_sel = err_p_max
    else:
        selected = "statement"
        err_sel = err_s_max
    report.verdict = {
        "passed": err_sel < 0.05,
        "selected_variant": selected,
        "max_rel_err_selected": err_sel,
        "max_rel_err_statement": err_s_max,
        "max_rel_err_proof": err_p_max,
        "window": f"{lo}-{hi}",
        "skipped_checkpoints": len(skipped),
    }
    return report


def verify_theorem2(M, lr: float = 1e-2, steps: int = 200_000,
                    eps_init: float = 0.0) -> FlowReport:
    """Run the adjacency flow on a fixed M and test the convergence
    claims: W symmetry, approach of |L| to the limit pattern, faster
    settling of identical-row pairs, and the exponential decay bound.

    Up to 60 checkpoints are spaced logarithmically over the steps. The
    rate fit uses the early ones (down to e^-3 of the initial value); the
    bound is tested at every checkpoint.
    """
    _check_flow(lr, steps)
    M = as_matrix(M, "M")
    Lstar, gamma, s = limit_laplacian(M)
    D = decay_constant(M)
    m = M.shape[0]
    S2 = identical_row_pairs(M)
    S2set = set(S2)
    S1 = [(k, l) for k in range(m) for l in range(k + 1, m)
          if (k, l) not in S2set]
    K = M @ M.T
    _sq_distances(K, K.diagonal().copy())

    p = RegParam(np.full((m, m), float(eps_init)), "sum_form")
    W = p.W  # updated in place, so p follows the flow

    marks = np.unique(np.round(np.logspace(0, np.log10(max(steps, 2)),
                                           60)).astype(int))
    marks = marks[(marks >= 1) & (marks <= steps)]

    report = FlowReport(
        kind="theorem2",
        columns=("t", "reg_value", "err_limit", "err_s2_rel", "err_s1_rel",
                 "sym_residual", "bound"))

    def inspect(it):
        lap = build_laplacian(p)
        A = lap.A
        R, _ = _sum_value_grad_from_K(K, W)
        err_limit = float(np.max(np.abs(np.abs(lap.L) - np.abs(Lstar))))
        e2 = max((abs(A[k, l] - gamma) for k, l in S2), default=0.0) / gamma
        e1 = max((abs(A[k, l]) for k, l in S1), default=0.0) / gamma
        sym = float(np.abs(W - W.T).max())
        t = it * lr
        bound = 2 * m * (m - 1) * np.exp(-D * t) / gamma
        report.add_row((t, R, err_limit, e2, e1, sym, bound))

    R0, _ = _sum_value_grad_from_K(K, W)
    next_mark = 0
    for it in range(1, steps + 1):
        _, G = _sum_value_grad_from_K(K, W)
        W -= lr * G
        if next_mark < len(marks) and it == marks[next_mark]:
            if not np.isfinite(W).all():
                raise DivergenceError(it, "adjacency parameter")
            inspect(it)
            next_mark += 1

    rows = np.array(report.rows)
    t_arr, R_arr = rows[:, 0], rows[:, 1]
    sym_max = rows[:, 5].max()
    err_first, err_final = rows[0, 2], rows[-1, 2]
    e2_arr, e1_arr = rows[:, 3], rows[:, 4]
    bound_viol = rows[:, 1] > rows[:, 6]
    bound_ok = not bound_viol.any()
    first_fail_t = float(t_arr[bound_viol][0]) if bound_viol.any() else None

    sym_ok = sym_max < 1e-10
    b_ok = err_final < err_first or err_final < 1e-12
    if S1 and S2:
        c_fraction = float(np.mean(e2_arr <= e1_arr))
    else:
        c_fraction = 1.0
    c_ok = c_fraction == 1.0

    if R0 <= 0:
        fitted = 0.0
        rate_ok = D == 0.0
    else:
        keep = R_arr >= max(float(R_arr[-1]), R0 * np.exp(-3.0))
        if keep.sum() < 3:
            keep = np.ones_like(keep, dtype=bool)
        slope = np.polyfit(t_arr[keep], np.log(np.maximum(R_arr[keep], 1e-300)), 1)[0]
        fitted = float(-slope)
        rate_ok = fitted >= D / 2

    report.verdict = {
        "passed": bool(sym_ok and b_ok and c_ok and rate_ok and bound_ok),
        "gamma": gamma, "s": s, "D": D,
        "sym_ok": sym_ok, "sym_max": float(sym_max),
        "limit_ok": bool(b_ok), "err_limit_final": float(err_final),
        "s2_faster_ok": bool(c_ok), "s2_faster_fraction": c_fraction,
        "final_err_s1": float(e1_arr[-1] * gamma),
        "final_err_s2": float(e2_arr[-1] * gamma),
        "fitted_rate": fitted, "rate_ok": bool(rate_ok),
        "bound_ok": bool(bound_ok), "bound_first_fail_t": first_fail_t,
        "reg_final": float(R_arr[-1]),
    }
    return report


def verify_balance(m: int = 5, n: int = 4, L: int = 3, lr: float = 1e-4,
                   steps: int = 1000, rng=None) -> FlowReport:
    """Track the balance residuals of a fidelity-only descent run,
    checked every 10 steps."""
    check_every = 10
    _check_flow(lr, steps)
    if rng is None:
        raise InvalidInput("an explicit rng is required for reproducibility")
    chain = initialize(m, n, L, scheme="balanced_spectral", rng=rng)
    Y = rng.standard_normal((m, n))

    report = FlowReport(
        kind="balance",
        columns=("t",) + tuple(f"residual_{l}" for l in range(L - 1))
        + ("max_relative",))

    def inspect(it):
        res = balance_residuals(chain)
        rel = 0.0
        for l, r in enumerate(res):
            W = chain.factors[l + 1]
            scale = float(np.linalg.norm(W.T @ W))
            rel = max(rel, r / scale if scale > 0 else r)
        report.add_row((it * lr if it else 0.0, *res, rel))
        return rel

    max_rel = 0.0
    for it, X in _descend(chain, _NoReg(), Y, lr, steps):
        if it % check_every == 0:
            if not np.isfinite(X).all():
                raise DivergenceError(it, "factor chain")
            max_rel = max(max_rel, inspect(it))

    report.verdict = {
        "passed": max_rel < 1e-3,
        "max_relative_residual": float(max_rel),
        "initial_residual": float(max(report.rows[0][1:L])),
    }
    return report
