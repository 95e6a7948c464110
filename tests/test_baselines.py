"""Imputation baselines, TV regularizer, and frozen-graph training."""
import numpy as np
import pytest

from aircomplete import air_reg
from aircomplete.air_reg import RegParam, build_laplacian
from aircomplete.baselines import (FixedLaplacians, TvConfig, knn_impute,
                                   svd_impute, tv_value_and_grad)
from aircomplete.data_lab import (SamplingMask, apply_mask,
                                  gen_block_ratings, gen_lowrank,
                                  generate_mask)
from aircomplete.dmf import initialize
from aircomplete.errors import ImputeError, InvalidInput
from aircomplete.mat_core import gaussian_matrix, make_rng, svd
from aircomplete.trainer import ModelState, TrainConfig, train


def brute_force_knn(Y, obs, k):
    # exhaustive reference: all row pairs, same distance and donor rules
    m, n = Y.shape
    out = Y.copy()
    for i in range(m):
        for j in range(n):
            if obs[i, j]:
                continue
            cands = []
            for i2 in range(m):
                if i2 == i or not obs[i2, j]:
                    continue
                co = obs[i] & obs[i2]
                if not co.any():
                    continue
                d = float(np.sum((Y[i, co] - Y[i2, co]) ** 2)) / co.sum()
                cands.append((d, i2))
            cands.sort(key=lambda t: t[0])
            if cands:
                out[i, j] = np.mean([Y[i2, j] for _, i2 in cands[:k]])
            else:
                out[i, j] = Y[obs[:, j], j].mean()
    return out


def group_laplacian(size, groups):
    gs = size // groups
    A = np.zeros((size, size))
    for g in range(groups):
        A[g * gs:(g + 1) * gs, g * gs:(g + 1) * gs] = 1.0
    np.fill_diagonal(A, 0.0)
    return np.diag(A.sum(axis=1)) - A


# ---------------------------------------------------------------------------
# knn

def test_knn_duplicate_row_exact():
    Y = np.array([[1.0, 2.0, 3.0],
                  [1.0, 2.0, 0.0],   # twin of row 0 with entry (1,2) missing
                  [9.0, 9.0, 9.0]])
    obs = np.array([[True, True, True],
                    [True, True, False],
                    [True, True, True]])
    out = knn_impute(Y, SamplingMask(obs), k=1)
    assert out[1, 2] == 3.0
    assert np.array_equal(out[obs], Y[obs])


def test_knn_constant_matrix_recovered():
    Y = np.full((4, 4), 2.5)
    obs = generate_mask(make_rng(0), 4, 4, "random", p=0.4).observed
    out = knn_impute(np.where(obs, Y, 0.0), SamplingMask(obs), k=3)
    assert np.allclose(out, 2.5)


def test_knn_matches_brute_force_oracle():
    rng = make_rng(1)
    Y = rng.standard_normal((5, 5))
    mask = generate_mask(rng, 5, 5, "random", p=0.3)
    out = knn_impute(np.where(mask.observed, Y, 0.0), mask, k=2)
    ref = brute_force_knn(np.where(mask.observed, Y, 0.0),
                          mask.observed, 2)
    assert np.allclose(out, ref, atol=1e-12)


def test_knn_validation_and_impute_error():
    Y = np.eye(3)
    obs = np.ones((3, 3), dtype=bool)
    with pytest.raises(InvalidInput):
        knn_impute(Y, SamplingMask(obs), k=0)
    row_empty = obs.copy()
    row_empty[1] = False
    with pytest.raises(InvalidInput):
        knn_impute(Y, SamplingMask(row_empty), k=1)
    col_empty = obs.copy()
    col_empty[:, 2] = False
    with pytest.raises(ImputeError):
        knn_impute(Y, SamplingMask(col_empty), k=1)


# ---------------------------------------------------------------------------
# iterative svd

def test_svd_impute_rank_one_exact():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([2.0, 1.0, 0.5, 1.5])
    Y = np.outer(u, v)
    obs = np.ones((4, 4), dtype=bool)
    obs[2, 1] = False
    out = svd_impute(np.where(obs, Y, 0.0), SamplingMask(obs), rank=1)
    assert abs(out[2, 1] - Y[2, 1]) < 1e-6
    assert np.array_equal(out[obs], Y[obs])


def test_svd_impute_full_observation_identity():
    Y = make_rng(2).standard_normal((5, 4))
    out = svd_impute(Y, SamplingMask(np.ones((5, 4), dtype=bool)), rank=2)
    assert np.array_equal(out, Y)


def test_svd_impute_infinite_tol_single_round():
    rng = make_rng(3)
    Y = rng.standard_normal((6, 6))
    mask = generate_mask(rng, 6, 6, "random", p=0.3)
    Yp = np.where(mask.observed, Y, 0.0)
    out = svd_impute(Yp, mask, rank=2, tol=np.inf)
    # reference: column-mean fill, one truncation, one overwrite
    work = Yp.copy()
    counts = mask.observed.sum(axis=0)
    means = np.where(mask.observed, Yp, 0.0).sum(axis=0) / counts
    work[~mask.observed] = np.broadcast_to(means, Y.shape)[~mask.observed]
    f = svd(work)
    low = (f.U[:, :2] * f.S[:2]) @ f.V[:, :2].T
    work[~mask.observed] = low[~mask.observed]
    assert np.allclose(out, work, atol=1e-12)


def test_svd_impute_output_rank_bound():
    gt = gen_lowrank(make_rng(4), 20, 15, 3)
    mask = generate_mask(make_rng(5), 20, 15, "random", p=0.3)
    out = svd_impute(np.where(mask.observed, gt.full, 0.0), mask, rank=3,
                     tol=1e-13, max_rounds=2000)
    S = svd(out).S
    assert S[3] / S[0] < 1e-10


def test_svd_impute_validation():
    mask = SamplingMask(np.ones((3, 3), dtype=bool))
    with pytest.raises(InvalidInput):
        svd_impute(np.zeros((3, 3)), mask, rank=0)
    with pytest.raises(InvalidInput):
        svd_impute(np.zeros((3, 3)), mask, rank=4)
    with pytest.raises(InvalidInput):
        svd_impute(np.zeros((3, 3)), mask, rank=1, max_rounds=0)


# ---------------------------------------------------------------------------
# total variation

def test_tv_config_validation():
    with pytest.raises(InvalidInput):
        TvConfig(eps=0.0)


def test_tv_constant_matrix():
    v, g = tv_value_and_grad(np.full((4, 4), 3.0), TvConfig())
    assert v == 0.0
    assert np.array_equal(g, np.zeros((4, 4)))


def test_tv_hand_count_two_unit_jumps():
    v, _ = tv_value_and_grad(np.array([[0.0, 1.0], [0.0, 1.0]]),
                             TvConfig(eps=1e-9))
    assert v == pytest.approx(2.0, abs=1e-7)


def test_tv_gradient_matches_finite_differences():
    rng = make_rng(6)
    X = rng.standard_normal((6, 6))
    cfg = TvConfig(eps=1e-2)
    _, ana = tv_value_and_grad(X, cfg)
    h = 1e-6
    num = np.zeros_like(X)
    for idx in np.ndindex(6, 6):
        vals = []
        for sgn in (1.0, -1.0):
            Xp = X.copy()
            Xp[idx] += sgn * h
            vals.append(tv_value_and_grad(Xp, cfg)[0])
        num[idx] = (vals[0] - vals[1]) / (2 * h)
    assert np.abs(ana - num).max() / np.abs(num).max() < 1e-6


def test_tv_gradient_zero_iff_constant():
    _, g = tv_value_and_grad(np.full((3, 5), -1.2), TvConfig())
    assert np.abs(g).max() <= 1e-9
    X = np.full((3, 5), -1.2)
    X[1, 2] += 1e-3
    _, g = tv_value_and_grad(X, TvConfig())
    assert np.abs(g).max() > 1e-9


# ---------------------------------------------------------------------------
# frozen-graph training

def fresh_state(m, n, seed):
    rng = make_rng(seed)
    chain = initialize(m, n, 3, scheme="gaussian", rng=rng, variance=1e-5)
    return ModelState(chain,
                      RegParam(gaussian_matrix(rng, m, m, variance=1e-5)),
                      RegParam(gaussian_matrix(rng, n, n, variance=1e-5)))


def test_fixed_laplacians_validation():
    ok = group_laplacian(4, 2)
    FixedLaplacians(ok, ok)
    bad_sym = ok.copy()
    bad_sym[0, 1] += 1.0
    with pytest.raises(InvalidInput):
        FixedLaplacians(bad_sym, ok)
    bad_sum = ok.copy()
    bad_sum[0, 0] += 1.0
    with pytest.raises(InvalidInput):
        FixedLaplacians(ok, bad_sum)
    with pytest.raises(InvalidInput):
        FixedLaplacians(np.zeros((2, 3)), ok)


def test_fixed_from_state_snapshots_current_laplacians():
    state = fresh_state(4, 5, seed=7)
    fx = FixedLaplacians.from_state(state)
    assert np.array_equal(fx.L_r, build_laplacian(state.reg_row).L)
    assert np.array_equal(fx.L_c, build_laplacian(state.reg_col).L)


def test_fixed_zero_laplacian_reduces_to_vanilla():
    rng = make_rng(8)
    mask = generate_mask(rng, 5, 4, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(max_iters=200, lambda_mode="explicit",
                      lambda_row=0.7, lambda_col=0.7, stop_delta=0.0,
                      log_every=50)
    frozen = fresh_state(5, 4, seed=9)
    fx = FixedLaplacians(np.zeros((5, 5)), np.zeros((4, 4)))
    train(frozen, mask, y, cfg, penalty=fx)
    vanilla = fresh_state(5, 4, seed=9)
    cfg0 = TrainConfig(max_iters=200, lambda_mode="explicit", log_every=50)
    train(vanilla, mask, y, cfg0)
    for a, b in zip(frozen.chain.factors, vanilla.chain.factors):
        assert np.array_equal(a, b)


def test_fixed_snapshot_at_start_matches_adaptive_first_step():
    # with the graphs snapshotted before any update, the factor gradients
    # coincide at step 1, so the chains agree after one step even though
    # the adaptive arm also moved its W
    rng = make_rng(10)
    mask = generate_mask(rng, 5, 4, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    cfg = TrainConfig(optimizer="gd", lr=1e-3, max_iters=1,
                      lambda_mode="explicit", lambda_row=0.3, lambda_col=0.4,
                      log_every=1)
    adaptive = fresh_state(5, 4, seed=11)
    snapshot = FixedLaplacians.from_state(adaptive)
    train(adaptive, mask, y, cfg)
    frozen = fresh_state(5, 4, seed=11)
    train(frozen, mask, y, cfg, penalty=snapshot)
    for a, b in zip(adaptive.chain.factors, frozen.chain.factors):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("rows", [2, 3])
def test_fixed_snapshot_matches_adaptive_step_over_several_blocks(
        monkeypatch, rows):
    # both arms run the same L M products on the same row blocks
    monkeypatch.setattr(air_reg, "_GRAPH_BLOCK", rows)
    test_fixed_snapshot_at_start_matches_adaptive_first_step()


def test_fixed_shape_mismatch_rejected():
    state = fresh_state(5, 4, seed=12)
    fx = FixedLaplacians(np.zeros((3, 3)), np.zeros((4, 4)))
    mask = SamplingMask(np.ones((5, 4), dtype=bool))
    with pytest.raises(InvalidInput):
        train(state, mask, np.zeros(20), TrainConfig(max_iters=1),
              penalty=fx)


def test_ground_truth_group_laplacian_beats_vanilla():
    m, n, rg, cg = 24, 32, 4, 4
    rng = make_rng(7)
    gt = gen_block_ratings(rng, m, n, rg, cg, noise=0.0)
    mask = generate_mask(rng, m, n, "patch", r0=7, c0=9, h=8, w=10)
    y = apply_mask(gt.full, mask)
    vanilla = fresh_state(m, n, seed=123)
    cfg0 = TrainConfig(max_iters=4000, lambda_mode="explicit", log_every=200)
    _, tr0 = train(vanilla, mask, y, cfg0, gt)
    informed = fresh_state(m, n, seed=123)
    fx = FixedLaplacians(group_laplacian(m, rg), group_laplacian(n, cg))
    cfg1 = TrainConfig(max_iters=4000, lambda_mode="paper_auto",
                       stop_delta=0.0, log_every=200)
    _, tr1 = train(informed, mask, y, cfg1, gt, penalty=fx)
    assert tr1.nmae[-1] < tr0.nmae[-1]


# ---------------------------------------------------------------------------
# dmf + tv

def test_train_tv_runs_and_logs_tv_in_reg_row_column():
    rng = make_rng(13)
    gt = gen_lowrank(rng, 8, 8, 2)
    mask = generate_mask(rng, 8, 8, "random", p=0.3)
    y = apply_mask(gt.full, mask)
    state = fresh_state(8, 8, seed=14)
    cfg = TrainConfig(max_iters=300, lambda_mode="explicit", lambda_row=0.01,
                      stop_delta=0.0, log_every=100)
    _, trace = train(state, mask, y, cfg, penalty=TvConfig(eps=1e-6))
    assert trace.reg_r[0] > 0.0       # lambda-scaled TV term
    assert all(v == 0.0 for v in trace.reg_c)
    assert trace.total[0] == pytest.approx(trace.fid[0] + trace.reg_r[0])


def test_train_tv_default_weight_is_auto_lambda():
    rng = make_rng(15)
    gt = gen_lowrank(rng, 6, 6, 2)
    mask = generate_mask(rng, 6, 6, "random", p=0.3)
    y = apply_mask(gt.full, mask)
    state_a = fresh_state(6, 6, seed=16)
    cfg = TrainConfig(max_iters=100, stop_delta=0.0, log_every=50)
    _, tr_a = train(state_a, mask, y, cfg, penalty=TvConfig())
    lam = float((y.max() - y.min()) / 36.0)
    state_b = fresh_state(6, 6, seed=16)
    cfg = TrainConfig(max_iters=100, lambda_mode="explicit", lambda_row=lam,
                      stop_delta=0.0, log_every=50)
    _, tr_b = train(state_b, mask, y, cfg, penalty=TvConfig())
    assert tr_a.reg_r == tr_b.reg_r
    for a, b in zip(state_a.chain.factors, state_b.chain.factors):
        assert np.array_equal(a, b)
