"""Input validation, SVD with a fixed sign convention, seeded randomness,
and the two-way split of a training step.

Matrices are numpy float64 arrays in C (row-major) order throughout the
package. The random generator is PCG64, which produces identical streams
for identical seeds on every platform numpy supports.
"""
from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput

__all__ = [
    "SvdResult",
    "make_rng",
    "svd",
    "gaussian_matrix",
    "as_matrix",
    "finite_difference_grad",
]


class SvdResult(NamedTuple):
    """Thin SVD X = U diag(S) V^T with S descending and k = min(m, n)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator (PCG64). Same seed, same stream, every platform."""
    if seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def as_matrix(x, name: str = "input") -> np.ndarray:
    """Validate and return a finite 2-d float64 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInput(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains NaN or Inf")
    return a


def svd(X, compute_uv: bool = True):
    """Thin SVD with deterministic singular-vector signs.

    Signs are fixed so the largest-magnitude entry of each column of U is
    positive; V columns are flipped together with U. This keeps metric
    traces comparable across runs.

    Parameters
    ----------
    X : array_like, shape (m, n)
        Finite real matrix, min(m, n) >= 1.
    compute_uv : bool
        False skips U and V (LAPACK's values-only path, whose S can differ
        from the full decomposition's in the last bits).

    Returns
    -------
    SvdResult
        U (m, k), S (k,) descending, V (n, k); with compute_uv=False, S
        alone.
    """
    A = as_matrix(X, "svd input")
    if min(A.shape) < 1:
        raise InvalidInput("svd requires min(m, n) >= 1")
    if not compute_uv:
        return np.linalg.svd(A, compute_uv=False)
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    return SvdResult(U, S, V)


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int,
                    mean: float = 0.0, variance: float = 1.0) -> np.ndarray:
    """I.i.d. normal entries with the given mean and variance."""
    if variance < 0:
        raise InvalidInput(f"variance must be nonnegative, got {variance}")
    return rng.normal(mean, np.sqrt(variance), size=(rows, cols))


def finite_difference_grad(f, X, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    O(m*n) evaluations of f; meant for verification, not training.
    """
    X = np.asarray(X, dtype=np.float64)
    G = np.empty_like(X)
    for idx in np.ndindex(*X.shape):
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        G[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return G


# ---------------------------------------------------------------------------
# two-way split of a training step

class _Plan(NamedTuple):
    """How a training step runs: which parts split two ways (see _lanes),
    its kernels' scratch (see _take), and the lane of this context."""

    graphs: bool = False  # the row blocks of a graph that spans several
    pairs: bool = False   # the forward halves, factor-gradient pairs, Adam
    scratch: _Scratch | None = None
    lane: int = 0  # 0 the caller's, 1 the worker's (see _queue)


# the plan of the running `train` call, scoped like np.errstate; off
# everywhere else
_PLAN = contextvars.ContextVar("aircomplete_plan", default=_Plan())
_POOL = None  # the one worker, started by the first split (main thread)
if hasattr(os, "register_at_fork"):  # a fork's child starts a worker anew
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def _second_cpu_idle() -> bool:
    """Whether the process may use two CPUs and this is the main thread
    (a library caller's own threads may already use both)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    return cpus >= 2 and threading.current_thread() is threading.main_thread()


@contextlib.contextmanager
def _planned(plan: _Plan):
    token = _PLAN.set(plan)
    try:
        yield
    finally:
        _PLAN.reset(token)


def _this_cpu():
    """The CPU the calling thread runs on (field 39 of its Linux stat),
    or None where that is unknown."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _keep_off(cpu):
    """Restrict the calling thread to the allowed CPUs other than cpu.
    It stays unpinned where cpu is None, no other CPU is allowed, or the
    kernel refuses (an allowed CPU may be offline)."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:
        pass


def _queue(fn):
    """Future of fn(), run on the one-worker pool once the work queued
    before it drains. fn runs in a copy of the caller's context, so it
    keeps np.errstate and the scratch; as lane 1 it never splits work.

    The worker starts on the allowed CPUs other than the one its first
    caller runs on (see _keep_off). Where the kernel does not balance
    load between CPUs, a worker left to it stayed on the caller's CPU
    beside ~1 ms tasks: in 6 of 6 processes both threads ran on one CPU,
    and two 300^3 products on two threads took 1.03-1.05x their
    sequential time, against 0.60-0.66x with the worker pinned.
    """
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="aircomplete",
            initializer=_keep_off, initargs=(_this_cpu(),))
    ctx = contextvars.copy_context()
    ctx.run(_PLAN.set, _Plan(scratch=_PLAN.get().scratch, lane=1))
    return _POOL.submit(ctx.run, fn)


def _lanes(fn, items, split: bool) -> list:
    """[fn(x) for x in items], on two lanes with split.

    Each lane takes the next item from a shared counter, so a busy lane
    leaves the rest to the other: this thread, and the worker, which joins
    once its queue (see _queue) drains. Every item runs even after one
    raises; the error of the lowest item is raised once both lanes end.
    fn must write disjoint outputs for different items.
    """
    if not split or len(items) < 2:
        return list(map(fn, items))
    out = [None] * len(items)
    errors = {}
    count = itertools.count()

    def lane():
        while (i := next(count)) < len(items):
            try:
                out[i] = fn(items[i])
            except Exception as err:
                errors[i] = err

    worker = _queue(lane)
    try:
        lane()
    finally:
        if not worker.cancel():  # the worker took items: await them
            worker.result()
    if errors:
        raise errors[min(errors)]
    return out


class _Scratch:
    """Temporaries kept from step to step, one buffer per lane of _lanes.

    take(*shapes) lays C-ordered arrays of those shapes end to end from
    the start of the plan's lane's buffer; they hold until that lane's
    next take, so a kernel keeps them only for the length of its call.
    A buffer too small is replaced, and while a plan splits the other
    lane's grows with it, so that the first step fills both. Lane 0's
    starts with `size` entries, for `train` to lend between kernels.
    """

    def __init__(self, size: int = 0):
        self.bufs = [np.empty(size), np.empty(0)]
        self._lock = threading.Lock()  # either lane may grow both

    def take(self, *shapes, dtype=np.float64) -> list:
        ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        size = -(-ends[-1] * np.dtype(dtype).itemsize // 8)
        plan = _PLAN.get()
        me, split = plan.lane, plan.lane or plan.graphs or plan.pairs
        with self._lock:
            for lane in (me, 1 - me) if split else (me,):
                if self.bufs[lane].size < size:
                    self.bufs[lane] = np.empty(size)
            buf = self.bufs[me].view(dtype)
        return [buf[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes)]


def _take(*shapes, dtype=np.float64) -> list:
    """A kernel's temporaries: C-ordered arrays of the given shapes, from
    the running `train` call's scratch (see _Scratch.take), so they hold
    only until the lane's next take; fresh arrays outside `train`."""
    scratch = _PLAN.get().scratch
    if scratch is None:
        return [np.empty(s, dtype) for s in shapes]
    return scratch.take(*shapes, dtype=dtype)


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """The first entries of the flat buffer buf, as a C-ordered array."""
    return buf[:math.prod(shape)].reshape(shape)
