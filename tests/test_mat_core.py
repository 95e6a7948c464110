"""Validation, randomness and SVD checks against independent oracles,
and the placement of the worker thread."""
import os
import threading

import numpy as np
import pytest

from aircomplete import mat_core
from aircomplete.errors import InvalidInput
from aircomplete.mat_core import (as_matrix, finite_difference_grad,
                                  gaussian_matrix, make_rng, svd)


def jacobi_eigenvalues(S, sweeps=60, tol=1e-14):
    # independent symmetric eigensolver: cyclic Jacobi rotations, used as
    # an oracle for singular values via eig(A^T A) = sigma^2
    A = np.array(S, dtype=np.float64)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(A)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))[::-1]


def test_make_rng_reproducible():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    assert np.array_equal(a, b)
    c = make_rng(43).standard_normal(8)
    assert not np.array_equal(a, c)


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        as_matrix(np.zeros(3))
    with pytest.raises(InvalidInput):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInput):
        as_matrix(np.array([[1.0, np.inf]]))


def test_gaussian_matrix_moments_and_validation():
    rng = make_rng(0)
    M = gaussian_matrix(rng, 200, 200, mean=2.0, variance=0.25)
    assert abs(M.mean() - 2.0) < 0.02
    assert abs(M.var() - 0.25) < 0.01
    with pytest.raises(InvalidInput):
        gaussian_matrix(rng, 2, 2, variance=-1.0)


def test_svd_reconstructs_and_is_orthonormal():
    for seed in range(100):
        rng = make_rng(seed)
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        A = rng.standard_normal((m, n))
        U, S, V = svd(A)
        k = min(m, n)
        assert U.shape == (m, k) and S.shape == (k,) and V.shape == (n, k)
        assert np.all(np.diff(S) <= 1e-12)
        assert np.allclose(U @ np.diag(S) @ V.T, A, atol=1e-10)
        assert np.allclose(U.T @ U, np.eye(k), atol=1e-10)
        assert np.allclose(V.T @ V, np.eye(k), atol=1e-10)


def test_svd_sign_convention():
    for seed in range(20):
        A = make_rng(seed).standard_normal((5, 4))
        U, _, _ = svd(A)
        for j in range(U.shape[1]):
            assert U[np.argmax(np.abs(U[:, j])), j] > 0


def test_singular_values_match_jacobi_eigen_oracle():
    # dual route: sigma(A)^2 must equal the eigenvalues of A^T A computed
    # by an independently coded Jacobi sweep
    for seed in (1, 2, 3):
        A = make_rng(seed).standard_normal((6, 5))
        S = svd(A).S
        lam = jacobi_eigenvalues(A.T @ A)
        assert np.allclose(S ** 2, lam, rtol=1e-10, atol=1e-10)


def test_svd_degenerate_input_rejected():
    with pytest.raises(InvalidInput):
        svd(np.zeros((0, 3)))


def test_finite_difference_grad_on_known_quadratic():
    # f(X) = sum(X^2) has gradient 2X; validates the checker itself
    X = make_rng(9).standard_normal((3, 4))
    G = finite_difference_grad(lambda Z: float(np.sum(Z ** 2)), X)
    assert np.allclose(G, 2 * X, atol=1e-9)


def test_svd_values_only_agree_with_the_full_decomposition():
    rng = make_rng(8)
    for m, n in [(1, 1), (5, 3), (3, 5), (40, 40), (100, 60)]:
        X = rng.standard_normal((m, n))
        S = svd(X, compute_uv=False)
        assert S.shape == (min(m, n),)
        assert np.allclose(S, svd(X).S, rtol=1e-13, atol=0.0)
    # the values-only call keeps the input checks
    for bad in (np.zeros(3), np.array([[1.0, np.nan]]), np.zeros((0, 3))):
        with pytest.raises(InvalidInput):
            svd(bad, compute_uv=False)


# ---------------------------------------------------------------------------
# the worker of mat_core._queue

needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="needs sched_setaffinity")


@pytest.fixture()
def fresh_worker(monkeypatch):
    """A pool for mat_core._queue started by the test, shut down after."""
    monkeypatch.setattr(mat_core, "_POOL", None)
    yield
    if mat_core._POOL is not None:
        mat_core._POOL.shutdown()


@needs_affinity
def test_worker_keeps_off_the_callers_cpu(fresh_worker, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2 or mat_core._this_cpu() is None:
        pytest.skip("needs two CPUs and /proc/thread-self")
    seen = []  # the caller's CPU as the pool read it
    real = mat_core._this_cpu
    monkeypatch.setattr(mat_core, "_this_cpu",
                        lambda: seen.append(real()) or seen[-1])
    worker = mat_core._queue(threading.get_native_id).result()
    allowed = os.sched_getaffinity(0)
    assert seen[0] in allowed
    assert os.sched_getaffinity(worker) == allowed - {seen[0]}


@needs_affinity
def test_worker_runs_unpinned_where_the_pin_is_refused(fresh_worker,
                                                      monkeypatch):
    # the only other allowed CPU does not exist, so the kernel refuses
    refused = []
    real = os.sched_setaffinity

    def pin(pid, cpus):
        try:
            real(pid, cpus)
        except OSError:
            refused.append(set(cpus))
            raise

    monkeypatch.setattr(mat_core, "_this_cpu", lambda: 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 4095})
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    assert mat_core._queue(lambda: 7).result() == 7
    assert mat_core._queue(lambda: 8).result() == 8
    assert refused == [{4095}]


@pytest.mark.parametrize("where", ["no-setaffinity", "cpu-unknown",
                                   "one-cpu"])
def test_worker_is_not_pinned_where_it_cannot_be(fresh_worker, monkeypatch,
                                                 where):
    tried = []
    if where == "no-setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: tried.append(cpus),
                            raising=False)
    allowed = {0} if where == "one-cpu" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed,
                        raising=False)
    monkeypatch.setattr(mat_core, "_this_cpu",
                        lambda: None if where == "cpu-unknown" else 0)
    assert mat_core._queue(lambda: 7).result() == 7
    assert tried == []
