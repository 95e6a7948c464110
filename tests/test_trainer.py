"""Objective assembly, optimizers, stopping rules, and trace logging."""
import numpy as np
import pytest

from aircomplete.air_reg import (RegParam, build_laplacian, dirichlet_energy,
                                 grad_wrt_X, reg_value_and_grad)
from aircomplete.data_lab import (GroundTruth, SamplingMask, apply_mask,
                                  gen_block_ratings, gen_lowrank,
                                  generate_mask, lift)
from aircomplete.dmf import FactorChain, forward, initialize
from aircomplete.errors import DivergenceError, InvalidInput
from aircomplete.mat_core import gaussian_matrix, make_rng
from aircomplete import trainer as trainer_mod
from aircomplete.trainer import (Adam, MetricTrace, ModelState, TrainConfig,
                                 adam_step, auto_lambda, metrics, total_loss,
                                 train)


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


def test_total_loss_zero_lambda_is_fidelity():
    state = small_state()
    mask = full_mask(6, 5)
    y = make_rng(1).standard_normal(30)
    total, fid, _, _ = total_loss(state, mask, y, 0.0, 0.0)
    assert total == fid


def test_total_loss_constant_matrix_kills_regularizers():
    state = small_state()
    for W in state.chain.factors:
        W[:] = 0.0
    state.chain.factors[0][:] = 1.0  # X = 0 regardless; rows/cols identical
    mask = full_mask(6, 5)
    y = np.zeros(30)
    total, fid, Rr, Rc = total_loss(state, mask, y, 1.0, 1.0)
    assert abs(Rr) < 1e-12 and abs(Rc) < 1e-12
    assert total == pytest.approx(fid)


def test_total_loss_component_oracle():
    state = small_state(seed=2, variance=1.0)
    rng = make_rng(3)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    lam_r, lam_c = 0.2, 0.5
    total, fid, Rr, Rc = total_loss(state, mask, y, lam_r, lam_c)
    X = forward(state.chain)
    d = apply_mask(X, mask) - y
    assert fid == pytest.approx(0.5 * float(d @ d), rel=1e-12)
    assert Rr == pytest.approx(
        dirichlet_energy(build_laplacian(state.reg_row).L, X), rel=1e-12)
    assert Rc == pytest.approx(
        dirichlet_energy(build_laplacian(state.reg_col).L, X.T), rel=1e-12)
    assert total == pytest.approx(fid + lam_r * Rr + lam_c * Rc, rel=1e-12)


def test_total_loss_shape_guards():
    state = small_state()
    with pytest.raises(InvalidInput):
        total_loss(state, full_mask(4, 4), np.zeros(16), 0.0, 0.0)
    with pytest.raises(InvalidInput):
        total_loss(state, full_mask(6, 5), np.zeros(7), 0.0, 0.0)


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
    params = [rng.standard_normal((5, 4)), rng.standard_normal((3, 3))]
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
                state.reg_row, state.reg_col, lam_r, lam_c).compute(X)
            Rr0, gWr0, Lr0 = separate_graph_terms(state.reg_row, X)
            Rc0, gWc0, Lc0 = separate_graph_terms(state.reg_col, X.T)
            assert Rr == pytest.approx(Rr0, rel=1e-12)
            assert Rc == pytest.approx(Rc0, rel=1e-12)
            assert close(gWr, lam_r * gWr0) and close(gWc, lam_c * gWc0)
            assert close(Gx, 2 * lam_r * Lr0 @ X + 2 * lam_c * X @ Lc0)
            # the step's Laplacian is the one build_laplacian gives
            _, _, Lr = reg_value_and_grad(state.reg_row, X, laplacian=True)
            assert np.array_equal(Lr, build_laplacian(state.reg_row).L)


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
        Rr, Rc, Gx, w_grads = reg.compute(X)
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
                       RegParam(np.zeros((2, 2))), adaptive=False)
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
    state.adaptive = False
    rng = make_rng(10)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = rng.standard_normal(mask.n_observed)
    w_row = state.reg_row.W.copy()
    cfg = TrainConfig(max_iters=200, stop_delta=0.0,
                      lambda_mode="explicit", lambda_row=0.1, lambda_col=0.1)
    _, trace = train(state, mask, y, cfg)
    assert np.array_equal(state.reg_row.W, w_row)
    assert trace.reg_r[0] > 0  # energy logged even though W is frozen


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
# trace container

def test_metric_trace_round_trip():
    tr = MetricTrace(n_sigma=2)
    tr.append(0, 1.5, 1.0, 0.3, 0.2, 0.5, 0.25, 0.1, (2.0, 1.0))
    tr.append(100, 0.7, 0.5, 0.1, 0.1, 0.2, None, None, (1.5, 0.5))
    tr.stop_reason = "max_iters"
    text = tr.to_csv()
    assert text.splitlines()[0] == ("iter,total,fid,reg_r,reg_c,mse_obs,"
                                    "mse_unobs,nmae,sigma_1,sigma_2")
    back = MetricTrace.from_csv(text)
    assert back.iters == [0, 100]
    assert back.total == tr.total and back.sigma == tr.sigma
    assert np.isnan(back.mse_unobs[1]) and np.isnan(back.nmae[1])


def test_metric_trace_validation():
    tr = MetricTrace()
    tr.append(0, 1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidInput):
        tr.append(0, 1.0, 1.0, 0.0, 0.0, 1.0)  # non-increasing iter
    with pytest.raises(InvalidInput):
        tr.append(5, np.nan, 1.0, 0.0, 0.0, 1.0)  # non-finite core value
    with pytest.raises(InvalidInput):
        tr.append(5, 1.0, 1.0, 0.0, 0.0, 1.0, sigma=(1.0,))  # wrong k
    with pytest.raises(InvalidInput):
        MetricTrace.from_csv("not,a,trace\n1,2,3\n")
