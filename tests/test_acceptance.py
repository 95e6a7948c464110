"""Acceptance gate: twelve numbered checks with one printed verdict each.

Verdict lines go to the real stdout so they survive pytest's capture;
each test also asserts, so a FAIL line comes with a failing test. The
reference values here are computed inside this file on purpose, without
leaning on the package's own verification helpers.
"""
import copy
import sys
import time

import numpy as np
import pytest

from aircomplete.air_reg import (RegParam, build_laplacian, dirichlet_energy,
                                 reg_value_and_grad)
from aircomplete.baselines import (TvConfig, knn_impute, svd_impute,
                                   tv_value_and_grad)
from aircomplete.cli import default_config, run_complete
from aircomplete.data_lab import (SamplingMask, apply_mask,
                                  gen_block_ratings, gen_lowrank,
                                  generate_mask, lift)
from aircomplete.dmf import initialize
from aircomplete.mat_core import gaussian_matrix, make_rng
from aircomplete.theory_lab import verify_theorem1, verify_theorem2
from aircomplete.trainer import ModelState, TrainConfig, train

THREE_ROWS = np.array([[0.6, 0.8], [0.6, 0.8], [0.8, 0.6]])


@pytest.fixture()
def verdict(capfd):
    def report(n, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            # leading newline: pytest may be mid-line with its progress dots
            print(f"\ncriterion {n:2d}: {status} ({detail})",
                  file=sys.stdout, flush=True)
        return ok
    return report


def reference_energy(form, W, M):
    # self-contained re-derivation: exponential adjacency, then tr(M^T L M)
    S = np.exp(W).sum()
    if form == "product_form":
        A = np.exp(W + W.T) / S
    else:
        Ap = np.exp(W).T / S
        A = Ap + Ap.T
    L = np.diag(A.sum(axis=1)) - A
    return float(np.trace(M.T @ L @ M))


def test_criterion_01_adjacency_gradient_matches_finite_differences(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    h = 1e-5
    for i in range(20):
        m = (4, 6, 8)[i % 3]
        form = ("product_form", "sum_form")[i % 2]
        W = rng.standard_normal((m, m))
        M = rng.standard_normal((m, 3))
        _, g = reg_value_and_grad(RegParam(W.copy(), parameterization=form), M)
        num = np.zeros_like(W)
        for r in range(m):
            for c in range(m):
                Wp = W.copy()
                Wp[r, c] += h
                Wm = W.copy()
                Wm[r, c] -= h
                num[r, c] = (reference_energy(form, Wp, M)
                             - reference_energy(form, Wm, M)) / (2 * h)
        worst = max(worst, np.abs(g - num).max() / np.abs(num).max())
    dt = time.perf_counter() - t0
    assert verdict(1, worst < 1e-5 and dt < 10,
                  f"20 instances, max rel err {worst:.3g} vs 1e-5, {dt:.1f}s")


def test_criterion_02_energy_equals_half_weighted_pairwise(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(20):
        m = 4 + (i % 5)
        form = ("product_form", "sum_form")[i % 2]
        p = RegParam(rng.standard_normal((m, m)), parameterization=form)
        M = rng.standard_normal((m, 4))
        A = build_laplacian(p).A
        via_trace = dirichlet_energy(build_laplacian(p).L, M)
        pairwise = 0.5 * sum(A[j, k] * np.sum((M[j] - M[k]) ** 2)
                             for j in range(m) for k in range(m))
        worst = max(worst, abs(via_trace - pairwise) / abs(pairwise))
    dt = time.perf_counter() - t0
    assert verdict(2, worst < 1e-10 and dt < 1,
                  f"20 instances, max rel gap {worst:.3g} vs 1e-10, {dt:.2f}s")


def test_criterion_03_laplacian_structural_invariants(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    ok = True
    for i in range(100):
        m = int(rng.integers(2, 9))
        form = ("product_form", "sum_form")[i % 2]
        p = RegParam(2.0 * rng.standard_normal((m, m)),
                     parameterization=form)
        pair = build_laplacian(p)
        ok &= np.abs(pair.A - pair.A.T).max() < 1e-15
        ok &= pair.A.min() > 0
        ok &= np.abs(pair.L.sum(axis=1)).max() < 1e-12
        for _ in range(10):
            x = rng.standard_normal(m)
            ok &= float(x @ pair.L @ x) >= -1e-12
    dt = time.perf_counter() - t0
    assert verdict(3, bool(ok) and dt < 5,
                  f"100 draws x 10 quadratic forms, {dt:.1f}s")


@pytest.fixture(scope="module")
def adjacency_flow_run():
    t0 = time.perf_counter()
    rep = verify_theorem2(THREE_ROWS, lr=1e-2, steps=200_000)
    return rep, time.perf_counter() - t0


def test_criterion_04_adjacency_flow_hits_limit_within_budget(
        adjacency_flow_run, verdict):
    rep, dt = adjacency_flow_run
    v = rep.verdict
    gam = v["gamma"]
    ok = (v["final_err_s1"] < 1e-3 * gam and v["final_err_s2"] < 1e-3
          and v["sym_max"] < 1e-10 and dt < 120)
    assert verdict(
        4, ok,
        f"off-pair |L| {v['final_err_s1']:.3g} vs {1e-3 * gam:.1g}, "
        f"|A12-gamma| {v['final_err_s2']:.3g} vs 1e-3, "
        f"sym {v['sym_max']:.1g}, 2e5 steps in {dt:.0f}s")


def test_criterion_05_decay_bound_holds_at_every_checkpoint(
        adjacency_flow_run, verdict):
    rep, _ = adjacency_flow_run
    rows = np.array(rep.rows)
    violations = int((rows[:, 1] > rows[:, 6]).sum())
    D = rep.verdict["D"]
    d_ok = abs(D - 4 * 0.04 / 9) < 1e-12
    first = rep.verdict["bound_first_fail_t"]
    where = "none" if first is None else f"first at t={first:g}"
    assert verdict(5, violations == 0 and d_ok,
                  f"D={D:.6g}, {violations}/{len(rows)} checkpoints "
                  f"violate the bound ({where})")


def test_criterion_06_singular_value_rates_match_prediction(verdict):
    t0 = time.perf_counter()
    reg = verify_theorem1(m=8, n=8, L=3, lr=1e-5, rng=make_rng(7))
    fid = verify_theorem1(m=8, n=8, L=3, lr=1e-5, lam_r=0.0, lam_c=0.0,
                          rng=make_rng(7))
    dt = time.perf_counter() - t0
    e_reg = reg.verdict["max_rel_err_selected"]
    e_fid = fid.verdict["max_rel_err_selected"]
    ok = reg.passed and fid.passed and dt < 60
    assert verdict(
        6, ok,
        f"top-3 rel err {e_reg:.3g} ({reg.verdict['selected_variant']}) "
        f"and {e_fid:.3g} (lambda=0) vs 0.05, {dt:.1f}s")


def test_criterion_07_early_stopped_completion_generalizes(verdict):
    t0 = time.perf_counter()
    rng = make_rng(0)
    gt = gen_lowrank(rng, 100, 100, 5)
    mask = generate_mask(rng, 100, 100, "random", p=0.8)
    y = apply_mask(gt.full, mask)
    mrng = make_rng(0)
    chain = initialize(100, 100, 3, scheme="gaussian", rng=mrng,
                       variance=1e-5)
    state = ModelState(chain,
                       RegParam(gaussian_matrix(mrng, 100, 100,
                                                variance=1e-5)),
                       RegParam(gaussian_matrix(mrng, 100, 100,
                                                variance=1e-5)))
    cfg = TrainConfig(max_iters=60_000, lambda_mode="explicit",
                      stop_delta=0.0, stop_mse_obs=1e-3, log_every=100)
    _, tr = train(state, mask, y, cfg, gt)
    dt = time.perf_counter() - t0
    stopped = tr.stop_reason == "mse_obs"
    unobs = tr.mse_unobs[-1]
    ok = stopped and unobs < 1e-2 and dt < 300
    assert verdict(
        7, ok,
        f"stopped at iter {tr.iters[-1]} with obs mse "
        f"{tr.mse_obs[-1]:.3g}, unobs mse {unobs:.3g} vs 1e-2, {dt:.0f}s")


@pytest.fixture(scope="module")
def structured_missing_run():
    t0 = time.perf_counter()
    rng = make_rng(7)
    gt = gen_block_ratings(rng, 60, 80, 6, 8, noise=0.3)
    mask = generate_mask(rng, 60, 80, "patch", r0=21, c0=31, h=15, w=15)
    y = apply_mask(gt.full, mask)

    def build():
        r = make_rng(123)
        chain = initialize(60, 80, 3, scheme="gaussian", rng=r,
                           variance=1e-5)
        return ModelState(
            chain,
            RegParam(gaussian_matrix(r, 60, 60, variance=1e-5),
                     parameterization="product_form"),
            RegParam(gaussian_matrix(r, 80, 80, variance=1e-5),
                     parameterization="product_form"))

    cfg_air = TrainConfig(max_iters=30_000, lambda_mode="paper_auto",
                          stop_delta=3e-4, stop_patience=5,
                          stop_warmup=2000, log_every=100)
    _, tr_air = train(build(), mask, y, cfg_air, gt)
    cfg_dmf = TrainConfig(max_iters=30_000, lambda_mode="explicit",
                          stop_delta=0.0, log_every=100)
    _, tr_dmf = train(build(), mask, y, cfg_dmf, gt)
    return tr_air, tr_dmf, time.perf_counter() - t0


def test_criterion_08_adaptive_beats_vanilla_on_patch_mask(
        structured_missing_run, verdict):
    tr_air, tr_dmf, dt = structured_missing_run
    a, d = tr_air.nmae[-1], tr_dmf.nmae[-1]
    assert verdict(8, a < d and dt < 300,
                  f"nmae {a:.3g} (adaptive) vs {d:.3g} (vanilla), {dt:.0f}s")


def test_criterion_09_adaptive_run_does_not_rebound(structured_missing_run,
                                                    verdict):
    tr_air, _, _ = structured_missing_run
    final, best = tr_air.nmae[-1], min(tr_air.nmae)
    assert verdict(9, final <= 1.1 * best,
                  f"final nmae {final:.3g} vs 1.1 x min {1.1 * best:.3g}")


def hand_rolled_vanilla_adam(m, n, L, mask, y, steps, lr, seed, variance):
    # independent reference loop: chain product, masked residual
    # backprop, and bias-corrected Adam, all coded from scratch here.
    # requires the default width min(m, n) == n for its shape algebra.
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
            for W in (facs[l - 1::-1] if l else []):
                pre = pre @ W
            grads.append(post.T @ G @ pre.T if l else post.T @ G)
        for i in range(L):
            g = grads[i]
            ms[i] = b1 * ms[i] + (1 - b1) * g
            vs[i] = b2 * vs[i] + (1 - b2) * g * g
            mh = ms[i] / (1 - b1 ** t)
            vh = vs[i] / (1 - b2 ** t)
            facs[i] -= lr * mh / (np.sqrt(vh) + eps)
    return facs


def test_criterion_10_zero_weight_run_reduces_to_vanilla(verdict):
    t0 = time.perf_counter()
    m, n, L, steps, seed = 10, 8, 3, 1000, 21
    rng = make_rng(seed)
    chain = initialize(m, n, L, scheme="gaussian", rng=rng, variance=1e-2)
    state = ModelState(chain,
                       RegParam(gaussian_matrix(rng, m, m)),
                       RegParam(gaussian_matrix(rng, n, n)))
    mrng = make_rng(77)
    mask = generate_mask(mrng, m, n, "random", p=0.3)
    y = mrng.standard_normal(mask.n_observed)
    cfg = TrainConfig(max_iters=steps, lambda_mode="explicit",
                      stop_delta=0.0, log_every=steps)
    train(state, mask, y, cfg)
    ref = hand_rolled_vanilla_adam(m, n, L, mask, y, steps, 1e-3, seed, 1e-2)
    gap = max(np.abs(a - b).max()
              for a, b in zip(state.chain.factors, ref))
    dt = time.perf_counter() - t0
    assert verdict(10, gap < 1e-12 and dt < 30,
                  f"max factor deviation {gap:.3g} vs 1e-12 "
                  f"after {steps} steps, {dt:.1f}s")


def test_criterion_11_baseline_sanity(verdict):
    t0 = time.perf_counter()
    Y = np.array([[1.0, 2.0, 3.0],
                  [1.0, 2.0, 0.0],
                  [9.0, 9.0, 9.0]])
    obs = np.array([[True, True, True],
                    [True, True, False],
                    [True, True, True]])
    knn_ok = knn_impute(Y, SamplingMask(obs), k=1)[1, 2] == 3.0

    R = np.outer([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 0.5, 1.5])
    robs = np.ones((4, 4), dtype=bool)
    robs[2, 1] = False
    rec = svd_impute(np.where(robs, R, 0.0), SamplingMask(robs), rank=1)
    svd_gap = abs(rec[2, 1] - R[2, 1])

    rng = np.random.default_rng(14)
    X = rng.standard_normal((5, 5))
    tv_cfg = TvConfig(eps=1e-2)
    _, ana = tv_value_and_grad(X, tv_cfg)
    h = 1e-6
    num = np.zeros_like(X)
    for idx in np.ndindex(5, 5):
        Xp = X.copy()
        Xp[idx] += h
        Xm = X.copy()
        Xm[idx] -= h
        num[idx] = (tv_value_and_grad(Xp, tv_cfg)[0]
                    - tv_value_and_grad(Xm, tv_cfg)[0]) / (2 * h)
    tv_err = np.abs(ana - num).max() / np.abs(num).max()
    dt = time.perf_counter() - t0
    ok = knn_ok and svd_gap < 1e-6 and tv_err < 1e-6 and dt < 10
    assert verdict(11, ok,
                  f"knn exact {knn_ok}, svd gap {svd_gap:.3g} vs 1e-6, "
                  f"tv fd err {tv_err:.3g} vs 1e-6, {dt:.1f}s")


def test_criterion_12_repeated_runs_are_byte_identical(tmp_path, verdict):
    cfg = default_config()
    cfg["data"].update(kind="lowrank", rows=12, cols=10, rank=2)
    cfg["mask"].update(kind="random", missing=0.3)
    cfg["stopping"]["max_iters"] = 300
    cfg["log_every"] = 50
    blobs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        run_complete(copy.deepcopy(cfg), str(d))
        blobs.append((d / "trace.csv").read_bytes())
    assert verdict(12, blobs[0] == blobs[1],
                  f"two runs, {len(blobs[0])} byte traces compared")
