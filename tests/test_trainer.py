"""Objective assembly, optimizers, stopping rules, and trace logging."""
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from aircomplete import air_reg
from aircomplete.air_reg import (RegParam, build_laplacian, dirichlet_energy,
                                 grad_wrt_X, reg_value_and_grad)
from aircomplete.baselines import FixedLaplacians, TvConfig, tv_value_and_grad
from aircomplete.data_lab import (GroundTruth, SamplingMask, apply_mask,
                                  gen_block_ratings, gen_lowrank,
                                  generate_mask, lift)
from aircomplete.dmf import FactorChain, forward, initialize
from aircomplete.errors import DivergenceError, InvalidInput, NumericOverflow
from aircomplete.mat_core import (_planned, _Plan, _Scratch, gaussian_matrix,
                                  make_rng)
from aircomplete import dmf as dmf_mod
from aircomplete import trainer as trainer_mod
from aircomplete.trainer import (Adam, MetricTrace, ModelState, TrainConfig,
                                 adam_step, auto_lambda, metrics, train)


def small_state(m=6, n=5, L=3, seed=0, variance=1e-5, form="product_form"):
    rng = make_rng(seed)
    chain = initialize(m, n, L, scheme="gaussian", rng=rng, variance=variance)
    return ModelState(chain,
                      RegParam(gaussian_matrix(rng, m, m, variance=1e-5), form),
                      RegParam(gaussian_matrix(rng, n, n, variance=1e-5), form))


def full_mask(m, n):
    return SamplingMask(np.ones((m, n), dtype=bool))


# ---------------------------------------------------------------------------
# configuration and assembly

def test_train_config_validation():
    for bad in (dict(optimizer="sgd"), dict(lr=0.0), dict(max_iters=0),
                dict(stop_delta=-1.0), dict(log_every=0),
                dict(lambda_mode="always"), dict(lambda_row=-0.1),
                dict(stop_patience=0), dict(track_singular_values=-1)):
        with pytest.raises(InvalidInput):
            TrainConfig(**bad)
    cfg = TrainConfig()
    assert cfg.optimizer == "adam" and cfg.lr == 1e-3
    assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999 and cfg.eps == 1e-8


def test_model_state_dimension_validation():
    chain = initialize(4, 3, 2, scheme="gaussian", rng=make_rng(0))
    with pytest.raises(InvalidInput):
        ModelState(chain, RegParam(np.zeros((3, 3))), RegParam(np.zeros((3, 3))))
    with pytest.raises(InvalidInput):
        ModelState(chain, RegParam(np.zeros((4, 4))), RegParam(np.zeros((4, 4))))


def test_auto_lambda_hand_values():
    lam_r, lam_c = auto_lambda(np.array([0.0, 0.3, 1.0]), 240, 240)
    assert lam_r == lam_c == pytest.approx(1.0 / 57600)
    assert auto_lambda(np.array([5.0, 5.0]), 10, 10) == (0.0, 0.0)
    lam_r, _ = auto_lambda(np.array([0.0, 255.0]), 240, 240)
    assert lam_r == pytest.approx(4.4271e-3, rel=1e-4)
    with pytest.raises(InvalidInput):
        auto_lambda(np.array([]), 4, 4)


def first_row(state, mask, y, lam_r, lam_c):
    # (total, fid, reg_r, reg_c) logged for the untrained state
    cfg = TrainConfig(max_iters=1, lambda_mode="explicit", lambda_row=lam_r,
                      lambda_col=lam_c, log_every=1)
    _, trace = train(state, mask, y, cfg)
    return trace.total[0], trace.fid[0], trace.reg_r[0], trace.reg_c[0]


def test_total_loss_zero_lambda_is_fidelity():
    state = small_state()
    mask = full_mask(6, 5)
    y = make_rng(1).standard_normal(30)
    total, fid, _, _ = first_row(state, mask, y, 0.0, 0.0)
    assert total == fid


def test_total_loss_constant_matrix_kills_regularizers():
    state = small_state()
    for W in state.chain.factors:
        W[:] = 0.0
    state.chain.factors[0][:] = 1.0  # X = 0 regardless; rows/cols identical
    mask = full_mask(6, 5)
    y = np.zeros(30)
    total, fid, Rr, Rc = first_row(state, mask, y, 1.0, 1.0)
    assert abs(Rr) < 1e-12 and abs(Rc) < 1e-12
    assert total == pytest.approx(fid)


def test_total_loss_component_oracle():
    state = small_state(seed=2, variance=1.0)
    rng = make_rng(3)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    lam_r, lam_c = 0.2, 0.5
    X = forward(state.chain)
    Rr = dirichlet_energy(build_laplacian(state.reg_row).L, X)
    Rc = dirichlet_energy(build_laplacian(state.reg_col).L, X.T)
    total, fid, reg_r, reg_c = first_row(state, mask, y, lam_r, lam_c)
    acc, pos = 0.0, 0
    for i, j in np.ndindex(6, 5):
        if mask.observed[i, j]:
            acc += 0.5 * (X[i, j] - y[pos]) ** 2
            pos += 1
    assert fid == pytest.approx(acc, rel=1e-12)
    assert reg_r == pytest.approx(lam_r * Rr, rel=1e-12)
    assert reg_c == pytest.approx(lam_c * Rc, rel=1e-12)
    assert total == pytest.approx(fid + lam_r * Rr + lam_c * Rc, rel=1e-12)


def test_total_loss_shape_guards():
    state = small_state()
    with pytest.raises(InvalidInput):
        first_row(state, full_mask(4, 4), np.zeros(16), 0.0, 0.0)
    with pytest.raises(InvalidInput):
        first_row(state, full_mask(6, 5), np.zeros(7), 0.0, 0.0)


# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_recovery():
    gt = GroundTruth.from_matrix(make_rng(0).standard_normal((4, 4)))
    mask = generate_mask(make_rng(1), 4, 4, "random", p=0.25)
    assert metrics(gt.full, gt, mask) == (0.0, 0.0, 0.0)


def test_metrics_nmae_hand_value():
    truth = np.array([[0.0, 1.0], [0.5, 0.5]])
    gt = GroundTruth(truth, (0.0, 1.0))
    mask = SamplingMask(np.array([[True, True], [False, False]]))
    X = truth.copy()
    X[1, 0] += 0.1
    X[1, 1] += 0.2
    mse_obs, mse_unobs, nmae = metrics(X, gt, mask)
    assert mse_obs == 0.0
    assert nmae == pytest.approx((0.01 + 0.04) / 2.0)  # printed formula
    _, _, literal = metrics(X, gt, mask, absolute=True)
    assert literal == pytest.approx((0.1 + 0.2) / 2.0)


def test_metrics_guards():
    gt = GroundTruth.from_matrix(np.array([[0.0, 1.0], [0.5, 0.5]]))
    with pytest.raises(InvalidInput):  # nothing unobserved
        metrics(gt.full, gt, full_mask(2, 2))
    flat = GroundTruth.from_matrix(np.ones((2, 2)))
    mask = SamplingMask(np.array([[True, False], [True, True]]))
    with pytest.raises(InvalidInput):  # degenerate range
        metrics(flat.full, flat, mask)


# ---------------------------------------------------------------------------
# optimizers

def test_adam_first_step_magnitude():
    cfg = TrainConfig(lr=1e-3)
    p = np.array([[0.0]])
    moments = ([np.zeros((1, 1))], [np.zeros((1, 1))])
    adam_step([p], [np.array([[1.0]])], moments, 1, cfg)
    assert p[0, 0] == pytest.approx(-1e-3, rel=1e-7)


def test_adam_zero_gradient_keeps_parameters():
    cfg = TrainConfig()
    p = np.array([[1.5, -2.0]])
    opt = Adam([p], cfg)
    opt.step([np.zeros((1, 2))])
    assert np.array_equal(p, [[1.5, -2.0]])


def test_adam_step_validation_and_determinism():
    cfg = TrainConfig()
    with pytest.raises(InvalidInput):
        adam_step([], [], ([], []), 0, cfg)
    runs = []
    for _ in range(2):
        rng = make_rng(5)
        p = rng.standard_normal((3, 3))
        opt = Adam([p], cfg)
        for _ in range(50):
            opt.step([p * 0.1 + 1.0])
        runs.append(p.copy())
    assert np.array_equal(runs[0], runs[1])


def test_adam_step_bit_identical_to_textbook():
    cfg = TrainConfig(lr=3e-3)
    b1, b2 = cfg.beta1, cfg.beta2
    rng = make_rng(30)
    # the last three span several Adam blocks (the first with a short last
    # block), a transposed view and a single entry
    params = [rng.standard_normal((5, 4)), rng.standard_normal((3, 3)),
              rng.standard_normal((2500, 7)),
              rng.standard_normal((30, 1500)).T,
              rng.standard_normal((1, 1))]
    assert params[2].size % trainer_mod._ADAM_BLOCK != 0
    assert not params[3].flags.c_contiguous
    ref = [p.copy() for p in params]
    moments = ([np.zeros_like(p) for p in params],
               [np.zeros_like(p) for p in params])
    ref_m = [np.zeros_like(p) for p in params]
    ref_v = [np.zeros_like(p) for p in params]
    for t in range(1, 6):
        grads = [rng.standard_normal(p.shape) for p in params]
        adam_step(params, grads, moments, t, cfg)
        for j, g in enumerate(grads):
            ref_m[j] = b1 * ref_m[j] + (1.0 - b1) * g
            ref_v[j] = b2 * ref_v[j] + (1.0 - b2) * (g * g)
            ref[j] = ref[j] - cfg.lr * (ref_m[j] / (1.0 - b1 ** t)) / (
                np.sqrt(ref_v[j] / (1.0 - b2 ** t)) + cfg.eps)
        for a, b in zip(params + moments[0] + moments[1],
                        ref + ref_m + ref_v):
            assert np.array_equal(a, b)


def test_adam_step_allocates_no_full_size_temporary():
    cfg = TrainConfig()
    rng = make_rng(31)
    params = [rng.standard_normal((1000, 1000))]
    grads = [rng.standard_normal((1000, 1000))]
    moments = ([np.zeros((1000, 1000))], [np.zeros((1000, 1000))])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adam_step(params, grads, moments, 1, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one full-size temporary would be 8 MB
    assert peak < 0.5e6


# ---------------------------------------------------------------------------
# the graph terms of one step

def separate_graph_terms(p, M):
    # the unfused formulas: exp(W + W^T) for the product form and a dense
    # diagonal matrix for the Laplacian
    W = p.W
    expW = np.exp(W)
    S = expW.sum()
    E = expW / S
    P = M @ M.T
    C = np.diag(P)[:, None] - P
    K = C + C.T
    if p.parameterization == "product_form":
        A = np.exp(W + W.T) / S
        R = float((C * A).sum())
        grad = K * A - R * E
    else:
        A = E.T + E
        R = float((K * E).sum())
        grad = K * E - R * E
    return R, grad, np.diag(A.sum(axis=1)) - A


def test_fused_graph_step_matches_separate_terms():
    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    lam_r, lam_c = 0.3, 0.7
    for form in ("product_form", "sum_form"):
        for seed in range(5):
            state = small_state(m=7, n=5, seed=seed, form=form)
            state.reg_row.W *= 300.0  # entries of order 1
            state.reg_col.W *= 300.0
            X = make_rng(40 + seed).standard_normal((7, 5))
            Rr, Rc, Gx, (gWr, gWc) = trainer_mod._AdaptiveReg(
                state.reg_row, state.reg_col, lam_r, lam_c).compute(
                    X, np.zeros_like(X))
            Rr0, gWr0, Lr0 = separate_graph_terms(state.reg_row, X)
            Rc0, gWc0, Lc0 = separate_graph_terms(state.reg_col, X.T)
            assert Rr == pytest.approx(Rr0, rel=1e-12)
            assert Rc == pytest.approx(Rc0, rel=1e-12)
            assert close(gWr, lam_r * gWr0) and close(gWc, lam_c * gWc0)
            assert close(Gx, 2 * lam_r * Lr0 @ X + 2 * lam_c * X @ Lc0)


# blocks of 2 and 3 rows do not divide 7 or 5, so the last block is short
@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("form", ["product_form", "sum_form"])
def test_graph_sweep_over_several_blocks_matches_separate_terms(
        monkeypatch, rows, form):
    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", rows)
    lam_r, lam_c = 0.3, 0.7
    for seed in range(3):
        state = small_state(m=7, n=5, seed=seed, form=form)
        state.reg_row.W *= 300.0
        state.reg_col.W *= 300.0
        rng = make_rng(60 + seed)
        X = rng.standard_normal((7, 5))
        G0 = rng.standard_normal((7, 5))
        G = G0.copy()
        Rr, Rc, out, (gWr, gWc) = trainer_mod._AdaptiveReg(
            state.reg_row, state.reg_col, lam_r, lam_c).compute(X, G)
        assert out is G
        Rr0, gWr0, Lr0 = separate_graph_terms(state.reg_row, X)
        Rc0, gWc0, Lc0 = separate_graph_terms(state.reg_col, X.T)
        assert Rr == pytest.approx(Rr0, rel=1e-12)
        assert Rc == pytest.approx(Rc0, rel=1e-12)
        assert close(gWr, lam_r * gWr0) and close(gWc, lam_c * gWc0)
        assert close(G - G0, 2 * lam_r * Lr0 @ X + 2 * lam_c * X @ Lc0)
        # a zero weight adds nothing, and the value-only sweep gives the
        # step's energy to the bit
        H = G0.copy()
        R, _ = reg_value_and_grad(state.reg_row, X, lam=0.0, out=H)
        assert np.array_equal(H, G0)
        assert R == Rr == reg_value_and_grad(state.reg_row, X,
                                             grad=False)[0]
        trainer_mod._FrozenReg(Lr0, Lc0, 0.0, lam_c).compute(X, H)
        assert close(H - G0, 2 * lam_c * X @ Lc0)


# with the default 128-row blocks each graph spans two or three blocks, a
# size at which blocked and whole L X products differ in their last bits,
# and a sum-form block of 256 or more columns could come out column-major
@pytest.mark.parametrize("m, n", [(130, 130), (260, 140), (140, 260)])
@pytest.mark.parametrize("form", ["product_form", "sum_form"])
def test_frozen_snapshot_adds_the_adaptive_steps_bits_over_several_blocks(
        m, n, form):
    rng = make_rng(71)
    reg_row = RegParam(gaussian_matrix(rng, m, m), form)
    reg_col = RegParam(gaussian_matrix(rng, n, n), form)
    X = rng.standard_normal((m, n))
    G0 = rng.standard_normal((m, n))
    Lr = build_laplacian(reg_row).L
    Lc = build_laplacian(reg_col).L
    Ga, Gf = G0.copy(), G0.copy()
    trainer_mod._AdaptiveReg(reg_row, reg_col, 0.3, 0.7).compute(X, Ga)
    trainer_mod._FrozenReg(Lr, Lc, 0.3, 0.7).compute(X, Gf)
    assert np.array_equal(Ga, Gf)


def test_adjacency_overflow_is_raised_from_a_later_block(monkeypatch):
    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", 2)
    W = np.zeros((7, 7))
    # log S is about 720 + log 2, so only A_56 = exp(720 - log 2) overflows
    W[5, 6] = W[6, 5] = 720.0
    X = make_rng(3).standard_normal((7, 4))
    G = np.zeros((7, 4))
    with pytest.raises(NumericOverflow):
        reg_value_and_grad(RegParam(W), X, lam=1.0, out=G)
    # rows 0-3 were swept before the block holding row 5 raised
    assert np.abs(G[:4]).min() > 0 and not G[4:].any()
    with pytest.raises(NumericOverflow):
        build_laplacian(RegParam(W))
    assert np.isfinite(reg_value_and_grad(RegParam(W, "sum_form"), X)[1]).all()


@pytest.mark.parametrize("m, n", [(400, 300), (300, 400)])
def test_adaptive_step_holds_one_graph_sized_array_per_graph(monkeypatch,
                                                             m, n):
    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", 16)
    rng = make_rng(32)
    graphs = [RegParam(gaussian_matrix(rng, k, k, variance=1e-5))
              for k in (m, n)]
    X = rng.standard_normal((m, n))
    G = np.zeros((m, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        # the strategy makes its Gram matrices, so they count too
        trainer_mod._AdaptiveReg(*graphs, 0.3, 0.7).compute(X, G)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # each graph's Gram matrix, which turns into its W-gradient, and a few
    # blocks of 16 rows (2.27-2.29 MB in all). A step holding K, A and E
    # of a graph whole peaks at 5.9 MB here
    assert peak < 8 * (m * m + n * n) + 0.5e6


def test_frozen_step_matches_separate_terms():
    for seed, (lam_r, lam_c) in enumerate([(0.3, 0.7), (0.0, 0.7),
                                           (0.3, 0.0)]):
        state = small_state(m=7, n=5, seed=seed)
        state.reg_row.W *= 300.0
        state.reg_col.W *= 300.0
        Lr = build_laplacian(state.reg_row).L
        Lc = build_laplacian(state.reg_col).L
        X = make_rng(50 + seed).standard_normal((7, 5))
        reg = trainer_mod._FrozenReg(Lr, Lc, lam_r, lam_c)
        Rr, Rc, Gx, w_grads = reg.compute(X, np.zeros_like(X))
        assert w_grads == ()
        assert np.array_equal(Gx, grad_wrt_X(Lr, Lc, X, lam_r, lam_c))
        assert (Rr, Rc) == reg.values(X)
        assert Rr == pytest.approx(dirichlet_energy(Lr, X), rel=1e-12)
        assert Rc == pytest.approx(dirichlet_energy(Lc, X.T), rel=1e-12)


# ---------------------------------------------------------------------------
# training runs

def test_gd_fidelity_convergence_small_full_matrix():
    rng = make_rng(2)
    chain = initialize(2, 2, 2, scheme="gaussian", rng=rng, variance=0.01)
    state = ModelState(chain, RegParam(np.zeros((2, 2))),
                       RegParam(np.zeros((2, 2))))
    y = np.array([1.0, 0.5, -0.3, 2.0])
    cfg = TrainConfig(optimizer="gd", lr=0.01, max_iters=5000,
                      lambda_mode="explicit", log_every=500)
    _, trace = train(state, full_mask(2, 2), y, cfg)
    assert trace.fid[-1] < 1e-6


def hand_rolled_adam_run(m, n, L, mask, y, steps, lr, seed, variance):
    # independent reference: same model and optimizer coded from scratch
    rng = make_rng(seed)
    facs = [f.copy() for f in
            initialize(m, n, L, scheme="gaussian", rng=rng,
                       variance=variance).factors]
    ms = [np.zeros_like(f) for f in facs]
    vs = [np.zeros_like(f) for f in facs]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        X = facs[-1]
        for W in facs[-2::-1]:
            X = X @ W
        G = lift(apply_mask(X, mask) - y, mask)
        grads = []
        for l in range(L):
            post = np.eye(m)
            for W in facs[:l:-1]:
                post = post @ W
            pre = np.eye(n)
            for W in facs[l - 1::-1] if l else []:
                pre = pre @ W
            grads.append(post.T @ G @ pre.T if l else post.T @ G)
        # grads above use X = W_{L-1}...W_0: d/dW_l = (prod above)^T G (prod below)^T
        for i in range(L):
            g = grads[i]
            ms[i] = b1 * ms[i] + (1 - b1) * g
            vs[i] = b2 * vs[i] + (1 - b2) * g * g
            mh = ms[i] / (1 - b1 ** t)
            vh = vs[i] / (1 - b2 ** t)
            facs[i] -= lr * mh / (np.sqrt(vh) + eps)
    return facs


def test_zero_lambda_run_matches_independent_loop():
    m, n, L, steps, seed = 5, 4, 3, 300, 4
    rng = make_rng(seed)
    chain = initialize(m, n, L, scheme="gaussian", rng=rng, variance=1e-2)
    state = ModelState(chain, RegParam(gaussian_matrix(rng, m, m)),
                       RegParam(gaussian_matrix(rng, n, n)))
    mask_rng = make_rng(99)
    mask = generate_mask(mask_rng, m, n, "random", p=0.3)
    y = mask_rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(optimizer="adam", lr=1e-3, max_iters=steps,
                      lambda_mode="explicit", lambda_row=0.0, lambda_col=0.0,
                      log_every=100)
    w_before = state.reg_row.W.copy()
    _, _ = train(state, mask, y, cfg)
    ref = hand_rolled_adam_run(m, n, L, mask, y, steps, 1e-3, seed, 1e-2)
    for W, R in zip(state.chain.factors, ref):
        assert np.abs(W - R).max() < 1e-12
    # the graph parameters are untouched on the zero-lambda path
    assert np.array_equal(state.reg_row.W, w_before)


def test_trace_reg_columns_are_lambda_scaled():
    state = small_state(seed=7, variance=1e-2)
    rng = make_rng(8)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed) + 2.0
    cfg = TrainConfig(max_iters=300, stop_delta=0.0, log_every=100)
    _, trace = train(state, mask, y, cfg)
    for i in range(len(trace)):
        assert trace.total[i] == pytest.approx(
            trace.fid[i] + trace.reg_r[i] + trace.reg_c[i], rel=1e-12)
        assert trace.reg_r[i] >= 0 and trace.reg_c[i] >= 0


def test_frozen_mode_leaves_graph_parameters_alone():
    state = small_state(seed=9, variance=1e-2)
    rng = make_rng(10)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    w_row = state.reg_row.W.copy()
    cfg = TrainConfig(max_iters=200, stop_delta=0.0,
                      lambda_mode="explicit", lambda_row=0.1, lambda_col=0.1)
    _, trace = train(state, mask, y, cfg,
                     penalty=FixedLaplacians.from_state(state))
    assert np.array_equal(state.reg_row.W, w_row)
    assert trace.reg_r[0] > 0  # energy logged even though W is frozen


def test_graph_parameter_above_old_clamp_trains_unclipped():
    # W is never clipped: one off-diagonal entry of 360 puts A near 1
    # there, which the log domain represents without overflow
    state = small_state(seed=11, variance=1e-2)
    state.reg_row.W[0, 1] = 360.0
    rng = make_rng(12)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(max_iters=5, log_every=1, lambda_mode="explicit",
                      lambda_row=0.1, lambda_col=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = train(state, mask, y, cfg)
    assert state.reg_row.W.max() > 359.9
    assert len(trace) == 6 and np.isfinite(trace.total).all()


def test_stop_on_observed_mse_threshold():
    gt = gen_lowrank(make_rng(11), 8, 8, 2)
    mask = generate_mask(make_rng(12), 8, 8, "random", p=0.2)
    y = apply_mask(gt.full, mask)
    state = small_state(8, 8, 3, seed=13)
    cfg = TrainConfig(max_iters=50000, stop_mse_obs=1e-3,
                      lambda_mode="explicit", log_every=1000)
    _, trace = train(state, mask, y, cfg, gt)
    assert trace.stop_reason == "mse_obs"
    assert trace.mse_obs[-1] < 1e-3
    assert trace.iters[-1] < 50000


def test_reg_delta_stop_and_patience():
    state = small_state(seed=14, variance=1e-2)
    rng = make_rng(15)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(max_iters=500, stop_delta=1e9, stop_warmup=0,
                      stop_patience=2, log_every=10)
    _, trace = train(state, mask, y, cfg)
    # first delta at iter 20 starts the streak; patience 2 met at iter 30
    assert trace.stop_reason == "reg_delta"
    assert trace.iters[-1] == 30


def test_warmup_delays_reg_delta_stop():
    state = small_state(seed=14, variance=1e-2)
    rng = make_rng(15)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(max_iters=120, stop_delta=1e9, stop_warmup=200,
                      stop_patience=1, log_every=10)
    _, trace = train(state, mask, y, cfg)
    assert trace.stop_reason == "max_iters"
    assert trace.iters[-1] == 120


def test_divergence_raises_with_iteration_and_partial_trace():
    state = small_state(seed=16, variance=1.0)
    rng = make_rng(17)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(optimizer="gd", lr=1e6, max_iters=100,
                      lambda_mode="explicit", log_every=10)
    with pytest.raises(DivergenceError) as exc:
        train(state, mask, y, cfg)
    assert exc.value.iteration >= 1
    assert isinstance(exc.value.trace, MetricTrace)
    assert len(exc.value.trace) >= 1


def test_overflow_after_checkpoint_is_divergence():
    # GD at lr 10 overflows the squared residual of state 3 while the
    # estimate is still finite; logging every step must not turn that
    # into a bad-input error
    for log_every in (1, 1000):
        rng = make_rng(0)
        chain = initialize(6, 6, 3, scheme="gaussian", rng=rng, variance=1.0)
        state = ModelState(
            chain, RegParam(gaussian_matrix(rng, 6, 6, variance=1e-5)),
            RegParam(gaussian_matrix(rng, 6, 6, variance=1e-5)))
        mask = generate_mask(rng, 6, 6, "random", p=0.3)
        y = rng.standard_normal(mask.n_observed)
        cfg = TrainConfig(optimizer="gd", lr=10.0, max_iters=50,
                          lambda_mode="explicit", log_every=log_every)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                train(state, mask, y, cfg)
        assert exc.value.iteration == 4
        assert exc.value.trace.iters == list(range(0, 3, log_every))


@pytest.mark.parametrize("target, what", [
    (lambda s: s.reg_row.W, "graph parameter"),
    (lambda s: s.chain.factors[0], "factor 0"),
])
def test_parameter_scan_names_a_nan_written_by_the_update(monkeypatch,
                                                          target, what):
    # without the scan a NaN in W_r surfaces at the next pass as an
    # InvalidInput from the graph kernels, a bad-input error, not divergence
    state = small_state(seed=22, variance=1e-2)
    rng = make_rng(23)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    real = trainer_mod.GradientDescent.step

    def poisoned(self, grads):
        real(self, grads)
        target(state)[0, 0] = np.nan

    monkeypatch.setattr(trainer_mod.GradientDescent, "step", poisoned)
    cfg = TrainConfig(optimizer="gd", lr=1e-3, max_iters=10, log_every=1,
                      lambda_mode="explicit", lambda_row=0.3, lambda_col=0.7)
    with pytest.raises(DivergenceError, match=what) as exc:
        train(state, mask, y, cfg)
    assert exc.value.iteration == 1
    assert exc.value.trace.iters == [0]


def test_checkpoints_reuse_the_step_forward(monkeypatch):
    calls = []
    real = trainer_mod.forward

    def counted(chain, *args):
        calls.append(1)
        return real(chain, *args)

    monkeypatch.setattr(trainer_mod, "forward", counted)
    state = small_state(seed=20, variance=1e-2)
    rng = make_rng(21)
    gt = gen_lowrank(rng, 6, 5, 2)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    cfg = TrainConfig(max_iters=50, log_every=10, stop_delta=0.0,
                      track_singular_values=2)
    _, trace = train(state, mask, apply_mask(gt.full, mask), cfg, gt)
    assert trace.iters == [0, 10, 20, 30, 40, 50]
    assert len(calls) <= 51


def test_gd_total_loss_monotone_on_desk_scale():
    state = small_state(seed=18, variance=1e-2)
    rng = make_rng(19)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(optimizer="gd", lr=1e-4, max_iters=1000,
                      stop_delta=0.0, log_every=100)
    _, trace = train(state, mask, y, cfg)
    diffs = np.diff(trace.total)
    assert np.all(diffs <= 1e-12)


def test_adaptive_regularizer_decreases_from_warm_start():
    # the vanishing-regularizer trend needs an informative start: seed the
    # chain with a column-mean filled guess so the energies begin well
    # above their floor
    rng = make_rng(7)
    gt = gen_block_ratings(rng, 12, 16, 3, 4, noise=0.0)
    mask = generate_mask(rng, 12, 16, "random", p=0.3)
    y = apply_mask(gt.full, mask)
    fill = gt.full.copy()
    col_mean = np.array([gt.full[mask.observed[:, j], j].mean()
                         for j in range(16)])
    fill[~mask.observed] = np.take(col_mean, np.where(~mask.observed)[1])
    mrng = make_rng(123)
    chain = initialize(12, 16, 3, scheme="balanced_spectral", rng=mrng,
                       seed_matrix=fill)
    state = ModelState(chain,
                       RegParam(gaussian_matrix(mrng, 12, 12, variance=1e-5)),
                       RegParam(gaussian_matrix(mrng, 16, 16, variance=1e-5)))
    cfg = TrainConfig(max_iters=3000, stop_delta=0.0, log_every=100)
    _, trace = train(state, mask, y, cfg, gt)
    assert all(v >= 0 for v in trace.reg_r + trace.reg_c)
    assert trace.reg_r[-1] < trace.reg_r[0]
    assert trace.reg_c[-1] < trace.reg_c[0]


# ---------------------------------------------------------------------------
# two-way split of the step (the pool fixture counts the worker's tasks)

def chain_work(m, n, depth):
    """_two_way_plan's arguments for a full-width chain."""
    k = min(m, n)
    chain = FactorChain([np.empty(s) for s in
                         [(k, n)] + [(k, k)] * (depth - 2) + [(m, k)]])
    return k, dmf_mod._step_shapes(chain)[1]


def test_plan_splits_only_where_a_second_cpu_would_idle(monkeypatch):
    monkeypatch.setattr(trainer_mod.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    plan = trainer_mod._two_way_plan
    ml100k = chain_work(943, 1682, 3)
    assert plan(*ml100k) == _Plan()  # BLAS may already use the CPUs
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert plan(*ml100k) == _Plan(True, True)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # read before OMP's
    assert plan(*ml100k) == _Plan()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert plan(*ml100k) == _Plan(True, True)
    # the pairs split by their work (dmf-deep's chain does, air-small-ckpt's
    # does not), graphs by their own block count
    assert plan(*chain_work(300, 300, 8)) == _Plan(True, True)
    assert plan(*chain_work(100, 100, 3)) == _Plan(graphs=True)
    with ThreadPoolExecutor(max_workers=1) as other:
        assert other.submit(plan, *ml100k).result() == _Plan()
    monkeypatch.setattr(trainer_mod.os, "sched_getaffinity",
                        lambda pid: {0})
    assert plan(*ml100k) == _Plan()


def force_plan(monkeypatch, plan):
    monkeypatch.setattr(trainer_mod, "_two_way_plan", lambda m, n: plan)


def planned_run(monkeypatch, plan, m, n, form, penalty=None):
    force_plan(monkeypatch, plan)
    state = small_state(m, n, seed=5, variance=1e-2, form=form)
    rng = make_rng(6)
    gt = gen_lowrank(rng, m, n, 3)
    mask = generate_mask(rng, m, n, "random", p=0.5)
    cfg = TrainConfig(max_iters=4, log_every=1, stop_delta=0.0,
                      track_singular_values=2)
    if penalty == "frozen":
        penalty = FixedLaplacians.from_state(state)
    _, trace = train(state, mask, apply_mask(gt.full, mask), cfg, gt,
                     penalty=penalty)
    return trace, state


# each graph spans two or three default blocks
@pytest.mark.parametrize("m, n", [(260, 140), (140, 260)])
@pytest.mark.parametrize("form", ["product_form", "sum_form"])
def test_split_steps_keep_every_bit(monkeypatch, pool, m, n, form):
    (t0, s0), (t1, s1) = [planned_run(monkeypatch, plan, m, n, form)
                          for plan in (_Plan(), _Plan(True, True))]
    assert pool.submitted > 0
    assert t1.to_csv() == t0.to_csv() and np.array_equal(t1.X, t0.X)
    for a, b in zip(s1.chain.factors + [s1.reg_row.W, s1.reg_col.W],
                    s0.chain.factors + [s0.reg_row.W, s0.reg_col.W]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("form", ["product_form", "sum_form"])
def test_split_adaptive_step_adds_the_frozen_steps_bits(pool, form):
    rng = make_rng(72)
    reg_row = RegParam(gaussian_matrix(rng, 260, 260), form)
    reg_col = RegParam(gaussian_matrix(rng, 140, 140), form)
    X = rng.standard_normal((260, 140))
    G0 = rng.standard_normal((260, 140))
    Ga, Gf = G0.copy(), G0.copy()
    with _planned(_Plan(True, True)):
        trainer_mod._AdaptiveReg(reg_row, reg_col, 0.3, 0.7).compute(X, Ga)
    assert pool.submitted > 0
    trainer_mod._FrozenReg(build_laplacian(reg_row).L,
                           build_laplacian(reg_col).L,
                           0.3, 0.7).compute(X, Gf)
    assert np.array_equal(Ga, Gf)


def test_split_frozen_run_keeps_every_bit(monkeypatch, pool):
    (t0, s0), (t1, s1) = [
        planned_run(monkeypatch, plan, 260, 140, "product_form", "frozen")
        for plan in (_Plan(), _Plan(True, True))]
    assert pool.submitted > 0  # the factor and Adam pairs
    assert t1.to_csv() == t0.to_csv()
    for a, b in zip(s1.chain.factors, s0.chain.factors):
        assert np.array_equal(a, b)


def test_split_step_keeps_its_bits_under_rapid_thread_switches(monkeypatch,
                                                               pool):
    # both halves write rows of one K and one G; a switch every microsecond
    # interleaves them as finely as the interpreter allows
    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", 8)
    rng = make_rng(73)
    reg = trainer_mod._AdaptiveReg(
        RegParam(gaussian_matrix(rng, 70, 70), "sum_form"),
        RegParam(gaussian_matrix(rng, 50, 50)), 0.3, 0.7)
    X = rng.standard_normal((70, 50))
    Rr, Rc, G, w_grads = reg.compute(X, np.zeros((70, 50)))
    gWr, gWc = (g.copy() for g in w_grads)  # reg's arrays, rewritten below
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with _planned(_Plan(graphs=True)):
                got = reg.compute(X, np.zeros((70, 50)))
            assert got[:2] == (Rr, Rc)
            for a, b in zip((got[2], *got[3]), (G, gWr, gWc)):
                assert np.array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)
    # the column Gram queued ahead, then two sweeps of two graphs
    assert pool.submitted == 20 * 5


def test_scratch_lanes_keep_their_bits_under_rapid_thread_switches(pool):
    # both lanes grow and write their block arrays in one scratch, first
    # fresh, then reused; a switch every microsecond interleaves them
    rng = make_rng(75)
    graphs = (RegParam(gaussian_matrix(rng, 300, 300), "sum_form"),
              RegParam(gaussian_matrix(rng, 260, 260)))
    X = rng.standard_normal((300, 260))
    Rr, Rc, G, (gWr, gWc) = trainer_mod._AdaptiveReg(
        *graphs, 0.3, 0.7).compute(X, np.zeros((300, 260)))
    reg = trainer_mod._AdaptiveReg(*graphs, 0.3, 0.7)
    scratch = _Scratch()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with _planned(_Plan(graphs=True, scratch=scratch)):
                got = reg.compute(X, np.zeros((300, 260)))
            assert got[:2] == (Rr, Rc)
            for a, b in zip((got[2], *got[3]), (G, gWr, gWc)):
                assert np.array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)
    assert pool.submitted > 0


def slow_on(thread_is_main: bool, fn):
    """fn, delayed on the main thread or on the worker only."""
    def slowed(*args):
        if (threading.current_thread() is threading.main_thread()
                ) == thread_is_main:
            time.sleep(0.05)
        return fn(*args)
    return slowed


def test_a_stalled_worker_does_not_stall_the_sweep(monkeypatch, pool):
    # the worker sleeps on every graph block it takes; the caller takes the
    # next block whenever it is free, so it runs most of the 9 + 7 blocks
    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", 8)
    rng = make_rng(74)
    reg = trainer_mod._AdaptiveReg(
        RegParam(gaussian_matrix(rng, 70, 70), "sum_form"),
        RegParam(gaussian_matrix(rng, 50, 50)), 0.3, 0.7)
    X = rng.standard_normal((70, 50))
    Rr, Rc, G, w_grads = reg.compute(X, np.zeros((70, 50)))
    gWr, gWc = (g.copy() for g in w_grads)  # reg's arrays, rewritten below
    on_main = []
    real = air_reg._sq_distances

    def counted(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(air_reg, "_sq_distances", slow_on(False, counted))
    with _planned(_Plan(graphs=True)):
        got = reg.compute(X, np.zeros((70, 50)))
    assert len(on_main) == 9 + 7
    assert sum(on_main) > len(on_main) / 2
    assert got[:2] == (Rr, Rc)
    for a, b in zip((got[2], *got[3]), (G, gWr, gWc)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("row, slow_main", [(5, True), (1, False)])
def test_split_overflow_is_raised_once_both_halves_end(monkeypatch, pool,
                                                       row, slow_main):
    # blocks of 2 rows, handed from a shared counter to whichever lane is
    # free; only A at (row, row + 1) overflows, so every block holding row
    # `row` or `row + 1` raises, whichever lane takes it. One lane is
    # slowed, so a lane is still running its block when the other raises,
    # and every block runs before the lowest block's error is raised
    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", 2)
    monkeypatch.setattr(air_reg, "_sq_distances",
                        slow_on(slow_main, air_reg._sq_distances))
    W = np.zeros((7, 7))
    W[row, row + 1] = W[row + 1, row] = 720.0
    X = make_rng(3).standard_normal((7, 4))
    G = np.zeros((7, 4))
    with _planned(_Plan(graphs=True)):
        with pytest.raises(NumericOverflow):
            reg_value_and_grad(RegParam(W), X, lam=1.0, out=G)
    done, failed = (slice(0, 4), slice(4, 7)) if row == 5 else (
        slice(4, 7), slice(0, 4))
    # the other half ran to its end before the error was raised, and the
    # half that raised wrote none of its rows
    assert np.abs(G[done]).min() > 0 and not G[failed].any()
    after = G.copy()
    time.sleep(0.2)
    assert np.array_equal(G, after)


@pytest.mark.parametrize("optimizer, lr, poison, iteration, what", [
    ("gd", 10.0, None, 4, "objective"),
    ("gd", 100.0, None, 4, "estimate"),
    # a NaN gradient of a parameter in the caller's half, or the worker's
    ("adam", 1e-3, 0, 1, "factor 0"),
    ("adam", 1e-3, -1, 1, "graph parameter"),
])
def test_split_divergence_is_reported_alike(monkeypatch, pool, optimizer, lr,
                                            poison, iteration, what):
    # no np.errstate here: an overflow warning from a worker that lost
    # train's error state would fail the test (pyproject makes it an error)
    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", 2)
    if poison is not None:
        real = trainer_mod.adam_step

        def poisoned(params, grads, *args):
            grads[poison][0, 0] = np.nan
            return real(params, grads, *args)

        monkeypatch.setattr(trainer_mod, "adam_step", poisoned)
    found = []
    for plan in (_Plan(), _Plan(True, True)):
        force_plan(monkeypatch, plan)
        rng = make_rng(0)
        chain = initialize(6, 6, 3, scheme="gaussian", rng=rng, variance=1.0)
        # the sum form's adjacency cannot overflow, so the run diverges
        state = ModelState(chain, *(
            RegParam(gaussian_matrix(rng, 6, 6, variance=1e-5), "sum_form")
            for _ in range(2)))
        mask = generate_mask(rng, 6, 6, "random", p=0.3)
        y = rng.standard_normal(mask.n_observed)
        cfg = TrainConfig(optimizer=optimizer, lr=lr, max_iters=50,
                          lambda_mode="explicit", lambda_row=0.3,
                          lambda_col=0.7, log_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as exc:
                train(state, mask, y, cfg)
        found.append((exc.value.iteration, str(exc.value),
                      exc.value.trace.to_csv()))
    assert pool.submitted > 0
    assert found[1] == found[0]
    assert found[0][:2] == (iteration,
                            f"non-finite {what} at iteration {iteration}")


# ---------------------------------------------------------------------------
# the step arrays, made once per train call

@pytest.mark.parametrize("plan", [_Plan(), _Plan(True, True)])
@pytest.mark.parametrize("penalty, optimizer", [
    (penalty, optimizer) for optimizer in ("adam", "gd")
    for penalty in ("air", "frozen", "tv", "none")], ids=[
    "air", "frozen", "tv", "none", "air-gd", "frozen-gd", "tv-gd", "none-gd"])
def test_steps_after_the_first_allocate_no_large_array(monkeypatch, pool,
                                                       plan, penalty,
                                                       optimizer):
    # each graph spans three row blocks. The traced memory may grow by less
    # than m n / 2 doubles in any step after the first, checkpoints aside;
    # a step that allocates its lifted residual grows by m n doubles
    force_plan(monkeypatch, plan)
    m, n = 300, 260
    state = small_state(m, n, seed=5, variance=1e-2)
    rng = make_rng(6)
    mask = generate_mask(rng, m, n, "random", p=0.5)
    y = rng.standard_normal(mask.n_observed)
    lam = 0.0 if penalty == "none" else 0.3
    cfg = TrainConfig(optimizer=optimizer, max_iters=5, log_every=10,
                      lambda_mode="explicit", lambda_row=lam, lambda_col=lam)
    chosen = {"frozen": FixedLaplacians.from_state(state),
              "tv": TvConfig()}.get(penalty)
    grown, start = [], []
    real = trainer_mod.forward

    def watched(chain, *args):  # each step starts with its product
        current, peak = tracemalloc.get_traced_memory()
        if start:
            grown.append(peak - start[-1])
        tracemalloc.reset_peak()
        start.append(current)
        return real(chain, *args)

    monkeypatch.setattr(trainer_mod, "forward", watched)
    tracemalloc.start()
    try:
        train(state, mask, y, cfg, penalty=chosen)
    finally:
        tracemalloc.stop()
    assert len(grown) == 5
    assert max(grown[1:]) < 8 * m * n / 2


@pytest.mark.parametrize("kernel", ["tv", "reg", "grad_wrt_X"])
def test_kernels_outside_train_hand_back_arrays_of_their_own(kernel):
    # outside train the kernels' arrays are fresh (mat_core._take), so a
    # later call neither hands back nor writes into an earlier result
    rng = make_rng(76)
    p = RegParam(gaussian_matrix(rng, 140, 140))  # two graph blocks
    L = build_laplacian(p).L
    call = {"tv": lambda X: tv_value_and_grad(X, TvConfig())[1],
            "reg": lambda X: reg_value_and_grad(p, X)[1],
            "grad_wrt_X": lambda X: grad_wrt_X(L, L, X, 0.3, 0.7)}[kernel]
    first = call(rng.standard_normal((140, 140)))
    kept = first.copy()
    second = call(rng.standard_normal((140, 140)))
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)


# ---------------------------------------------------------------------------
# trace container

def test_metric_trace_round_trip():
    tr = MetricTrace(n_sigma=2)
    tr.append(0, 1.5, 1.0, 0.3, 0.2, 0.5, 0.25, 0.1, (2.0, 1.0))
    tr.append(100, 0.7, 0.5, 0.1, 0.1, 0.2, None, None, (1.5, 0.5))
    tr.stop_reason = "max_iters"
    text = tr.to_csv()
    assert text.splitlines()[0] == ("iter,total,fid,reg_r,reg_c,mse_obs,"
                                    "mse_unobs,nmae,sigma_1,sigma_2")
    rows = [[float(v) for v in ln.split(",")] for ln in text.splitlines()[1:]]
    assert rows[0] == [0, 1.5, 1.0, 0.3, 0.2, 0.5, 0.25, 0.1, 2.0, 1.0]
    assert text.splitlines()[2].startswith("100,")
    assert rows[1][1:6] == [0.7, 0.5, 0.1, 0.1, 0.2]
    assert np.isnan(rows[1][6]) and np.isnan(rows[1][7])
    assert rows[1][8:] == [1.5, 0.5]


def test_metric_trace_validation():
    tr = MetricTrace()
    tr.append(0, 1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidInput):
        tr.append(0, 1.0, 1.0, 0.0, 0.0, 1.0)  # non-increasing iter
    with pytest.raises(InvalidInput):
        tr.append(5, np.nan, 1.0, 0.0, 0.0, 1.0)  # non-finite core value
    with pytest.raises(InvalidInput):
        tr.append(5, 1.0, 1.0, 0.0, 0.0, 1.0, sigma=(1.0,))  # wrong k
