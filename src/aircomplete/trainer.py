"""Training loop: optimizers, objective assembly, stopping, metric traces.

The objective is

    total = 1/2 ||y_obs - A(X)||^2 + lam_r tr(X^T L_r X) + lam_c tr(X L_c X^T)

with X the factor-chain product and L_r, L_c either learned or frozen;
`train`'s penalty argument can instead put lam_r times smoothed total
variation of X in place of both graph terms. All trainable parameters,
factors plus the two adjacency parameters when learned, are updated
jointly by one optimizer instance; per-array optimizer state keeps
factor updates independent of whether the regularizer parameters ride
along.

Stopping: the adjacency values settle before observation error does, so
training stops when the lambda-scaled regularizer values move less than
stop_delta between consecutive checkpoints (log_every apart), on both
the row and column graphs, for stop_patience consecutive checkpoints,
after a warm-up period. An observation-MSE threshold and max_iters are
the other exits.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .air_reg import (RegParam, _fixed_graph_term, _gram_ahead,
                      _step_arrays, reg_value_and_grad)
from .baselines import FixedLaplacians, TvConfig, tv_value_and_grad
from .data_lab import GroundTruth, SamplingMask, apply_mask, lift
from .dmf import (FactorChain, _step_shapes, _two_way, factor_grads_from_full,
                  forward)
from .errors import DivergenceError, InvalidInput, NumericOverflow
from .mat_core import (_PLAN, _Plan, _Scratch, _lanes, _planned,
                       _second_cpu_idle, _take, _view, as_matrix, svd)

__all__ = [
    "TrainConfig", "ModelState", "MetricTrace",
    "auto_lambda", "metrics",
    "adam_step", "Adam", "train",
]

_OPTIMIZERS = ("adam", "gd")
_LAMBDA_MODES = ("paper_auto", "explicit")


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_iters: int = 10000
    # None -> m*n/1000 at train time
    stop_delta: float | None = None
    stop_patience: int = 1
    stop_warmup: int = 500
    # extra exit: stop once observed MSE falls below this (checked every
    # iteration since the residual is already in hand)
    stop_mse_obs: float | None = None
    lambda_mode: str = "paper_auto"
    lambda_row: float = 0.0
    lambda_col: float = 0.0
    log_every: int = 100
    track_singular_values: int = 0

    def __post_init__(self):
        if self.optimizer not in _OPTIMIZERS:
            raise InvalidInput(f"optimizer must be one of {_OPTIMIZERS}")
        if self.lambda_mode not in _LAMBDA_MODES:
            raise InvalidInput(f"lambda_mode must be one of {_LAMBDA_MODES}")
        if not self.lr > 0:
            raise InvalidInput("lr must be positive")
        if self.max_iters < 1:
            raise InvalidInput("max_iters must be at least 1")
        if self.stop_delta is not None and self.stop_delta < 0:
            raise InvalidInput("stop_delta must be nonnegative")
        if self.log_every < 1:
            raise InvalidInput("log_every must be at least 1")
        if self.stop_patience < 1:
            raise InvalidInput("stop_patience must be at least 1")
        if self.track_singular_values < 0:
            raise InvalidInput("track_singular_values must be nonnegative")
        if self.lambda_row < 0 or self.lambda_col < 0:
            raise InvalidInput("lambda weights must be nonnegative")


@dataclass
class ModelState:
    """Factor chain plus the two graph parameters."""

    chain: FactorChain
    reg_row: RegParam
    reg_col: RegParam

    def __post_init__(self):
        m, n = self.chain.shape
        if self.reg_row.dim != m:
            raise InvalidInput(f"reg_row is {self.reg_row.dim}-dim, X has {m} rows")
        if self.reg_col.dim != n:
            raise InvalidInput(f"reg_col is {self.reg_col.dim}-dim, X has {n} cols")


@dataclass
class MetricTrace:
    """Checkpoint log. reg_r and reg_c are the lambda-scaled terms, so
    total = fid + reg_r + reg_c row by row. Unknown-truth runs carry nan
    in the mse_unobs and nmae columns. X is the product of the state
    the last row evaluates, kept for the caller and not written."""

    _BASE_COLUMNS = ["iter", "total", "fid", "reg_r", "reg_c",
                     "mse_obs", "mse_unobs", "nmae"]

    n_sigma: int = 0
    iters: list = field(default_factory=list)
    total: list = field(default_factory=list)
    fid: list = field(default_factory=list)
    reg_r: list = field(default_factory=list)
    reg_c: list = field(default_factory=list)
    mse_obs: list = field(default_factory=list)
    mse_unobs: list = field(default_factory=list)
    nmae: list = field(default_factory=list)
    sigma: list = field(default_factory=list)
    stop_reason: str = ""
    X: np.ndarray | None = field(default=None, repr=False, compare=False)

    def append(self, it, total, fid, reg_r, reg_c, mse_obs,
               mse_unobs=None, nmae=None, sigma=()):
        if self.iters and it <= self.iters[-1]:
            raise InvalidInput(f"trace iterations must increase, got {it} "
                               f"after {self.iters[-1]}")
        core = (total, fid, reg_r, reg_c, mse_obs)
        if not all(np.isfinite(v) for v in core):
            raise InvalidInput(f"non-finite trace value at iteration {it}")
        if len(sigma) != self.n_sigma:
            raise InvalidInput(f"expected {self.n_sigma} singular values, "
                               f"got {len(sigma)}")
        self.iters.append(int(it))
        self.total.append(float(total))
        self.fid.append(float(fid))
        self.reg_r.append(float(reg_r))
        self.reg_c.append(float(reg_c))
        self.mse_obs.append(float(mse_obs))
        self.mse_unobs.append(float("nan") if mse_unobs is None else float(mse_unobs))
        self.nmae.append(float("nan") if nmae is None else float(nmae))
        self.sigma.append(tuple(float(s) for s in sigma))

    def __len__(self):
        return len(self.iters)

    def to_csv(self) -> str:
        lines = [",".join(self._BASE_COLUMNS + [f"sigma_{j + 1}"
                                                for j in range(self.n_sigma)])]
        for i in range(len(self.iters)):
            vals = [self.total[i], self.fid[i], self.reg_r[i], self.reg_c[i],
                    self.mse_obs[i], self.mse_unobs[i], self.nmae[i],
                    *self.sigma[i]]
            lines.append(",".join([str(self.iters[i])]
                                  + [format(v, ".17g") for v in vals]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.to_csv())


def auto_lambda(y_obs, m: int, n: int) -> tuple[float, float]:
    """Weight putting fidelity and regularization on a similar scale:
    both lambdas equal (max(y) - min(y)) / (m n)."""
    y = np.asarray(y_obs, dtype=np.float64).ravel()
    if y.size == 0:
        raise InvalidInput("auto lambda needs at least one observation")
    lam = float((y.max() - y.min()) / (m * n))
    return lam, lam


def _check_scorable(gt: GroundTruth, mask: SamplingMask) -> float:
    """The truth's value range hi - lo, where metrics can score on mask."""
    lo, hi = gt.value_range
    if hi - lo <= 0:
        raise InvalidInput("ground-truth value range is degenerate")
    if mask.n_unobserved == 0:
        raise InvalidInput("nmae needs at least one unobserved entry")
    return hi - lo


def metrics(X, ground_truth, mask: SamplingMask, absolute: bool = False,
            out=None):
    """(mse_obs, mse_unobs, nmae) against known ground truth.

    nmae follows the printed formula: squared Frobenius deviation on
    unobserved entries over (count x truth value range). absolute=True
    switches the numerator to the literal sum of absolute deviations.
    The unobserved deviations are formed in `out` when given.
    """
    X = as_matrix(X, "X")
    if isinstance(ground_truth, GroundTruth):
        gt = ground_truth
    else:
        gt = GroundTruth.from_matrix(as_matrix(ground_truth, "ground truth"))
    if gt.full.shape != X.shape:
        raise InvalidInput(f"X {X.shape} vs truth {gt.full.shape}")
    rng_width = _check_scorable(gt, mask)
    truth_obs, truth_un = gt.split(mask)
    diff_obs = apply_mask(X, mask) - truth_obs
    diff_un = apply_mask(X, mask, "unobserved", out)
    diff_un -= truth_un
    mse_obs = float(diff_obs @ diff_obs) / mask.n_observed
    mse_unobs = float(diff_un @ diff_un) / mask.n_unobserved
    if absolute:
        nmae = float(np.abs(diff_un).sum()) / (mask.n_unobserved * rng_width)
    else:
        nmae = float(diff_un @ diff_un) / (mask.n_unobserved * rng_width)
    return mse_obs, mse_unobs, nmae


# ---------------------------------------------------------------------------
# optimizers

# entries per block of adam_step (128 KB per operand). One step at the
# MovieLens-100K shape timed alike with 16384 to 65536 entries per block;
# smaller blocks pay more per-call overhead, and the smallest of those
# sizes keeps the scratch at 256 KB
_ADAM_BLOCK = 16384
# entries per lane task of adam_step and the parameter scan: 16 blocks, so
# the MovieLens-100K parameters make about 30 tasks for two lanes to share
_LANE_TASK = 16 * _ADAM_BLOCK


def _row_chunks(a: np.ndarray) -> list[slice]:
    """Slices of whole rows of a, of about _LANE_TASK entries each."""
    rows = max(1, _LANE_TASK // a.shape[1])
    return [slice(i, i + rows) for i in range(0, a.shape[0], rows)]


def adam_step(params, grads, moments, t: int, cfg: TrainConfig,
              scratch=None):
    """One bias-corrected update, in place. moments is (m_list, v_list).

    Evaluates the textbook expression p -= lr (m/c1) / (sqrt(v/c2) + eps)
    in its usual operation order, so the bits match it. Each parameter is
    swept in blocks of whole rows of about _ADAM_BLOCK entries (views for
    any layout), through two scratch buffers of one block each (arrays of
    `scratch`, a mat_core._Scratch, when given), so every operand is read
    from cache after its first touch and no full-size temporary is
    allocated. Under a training plan with pairs (see mat_core._lanes) two
    lanes share out tasks of _LANE_TASK entries.
    """
    if t < 1:
        raise InvalidInput("adam step count starts at 1")
    scratch = _Scratch() if scratch is None else scratch
    ms, vs = moments
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    _lanes(lambda item: _adam_update(item, c1, c2, cfg, scratch),
           [[a[chunk] for a in item] for item in zip(params, grads, ms, vs)
            for chunk in _row_chunks(item[0])], _PLAN.get().pairs)
    return params, moments


def _adam_update(item, c1: float, c2: float, cfg: TrainConfig, scratch):
    """adam_step's update of one (p, g, m, v), with the bias corrections
    c1 and c2 of its step."""
    b1, b2 = cfg.beta1, cfg.beta2
    p_all, g_all, m_all, v_all = item
    n_rows, cols = p_all.shape
    rows = max(1, _ADAM_BLOCK // cols)
    buf_a, buf_b = scratch.take((2, min(rows, n_rows) * cols))[0]
    for i in range(0, n_rows, rows):
        blk = slice(i, i + rows)
        p, g, m, v = p_all[blk], g_all[blk], m_all[blk], v_all[blk]
        a = buf_a[:p.size].reshape(p.shape)
        b = buf_b[:p.size].reshape(p.shape)
        np.multiply(g, 1.0 - b1, out=a)
        m *= b1
        m += a
        np.multiply(g, g, out=b)
        b *= 1.0 - b2
        v *= b2
        v += b
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += cfg.eps
        np.divide(m, c1, out=a)
        a *= cfg.lr
        a /= b
        p -= a


class Adam:
    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)
        self.cfg = cfg
        self.moments = ([np.zeros_like(p) for p in self.params],
                        [np.zeros_like(p) for p in self.params])
        self.t = 0
        self.scratch = _Scratch()

    def step(self, grads):
        self.t += 1
        adam_step(self.params, grads, self.moments, self.t, self.cfg,
                  self.scratch)


class GradientDescent:
    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)
        self.lr = cfg.lr

    def step(self, grads):
        # g is train's buffer; scaled in place, the same product is taken
        for p, g in zip(self.params, grads):
            g *= self.lr
            p -= g


# ---------------------------------------------------------------------------
# regularizer strategies for the shared loop

class _NoReg:
    """The zero penalty, and the base of the others. compute(X, G) gives
    (Rr, Rc, G, gradients of w_params), with dPenalty/dX added into G in
    place (_NoReg adds nothing and hands G back); values(X, G) gives
    (Rr, Rc) alone, for the last trace row, with G (allocated when None)
    left undefined. The others take their temporaries through
    mat_core._take, from the running `train` call's scratch."""

    w_params = ()

    def compute(self, X, G):
        return 0.0, 0.0, G, ()

    def values(self, X, G=None):
        return self.compute(X, np.zeros_like(X) if G is None else G)[:2]


class _AdaptiveReg(_NoReg):
    def __init__(self, reg_row: RegParam, reg_col: RegParam,
                 lam_r: float, lam_c: float):
        self.reg_row = reg_row
        self.reg_col = reg_col
        self.lam_r = lam_r
        self.lam_c = lam_c
        self.w_params = (reg_row.W, reg_col.W)
        # each graph's Gram matrix, which becomes the W-gradient that
        # compute() hands back until its next call, and first pass
        self.arrays = (_step_arrays(reg_row), _step_arrays(reg_col))

    def compute(self, X, G):
        # the column graph's Gram is formed on the worker beside the row
        # graph's passes; G still takes the row term first
        ahead = _gram_ahead(self.reg_col, X.T, self.arrays[1])
        Rr, gWr = reg_value_and_grad(self.reg_row, X, lam=self.lam_r, out=G,
                                     arrays=self.arrays[0])
        Rc, gWc = reg_value_and_grad(self.reg_col, X.T, lam=self.lam_c,
                                     out=G.T, ahead=ahead,
                                     arrays=self.arrays[1])
        gWr *= self.lam_r
        gWc *= self.lam_c
        return Rr, Rc, G, (gWr, gWc)

    def values(self, X, G=None):
        # compute()'s energies by the same sweep, without any gradient
        rows, cols = self.arrays
        ahead = _gram_ahead(self.reg_col, X.T, cols)
        return (reg_value_and_grad(self.reg_row, X, grad=False,
                                   arrays=rows)[0],
                reg_value_and_grad(self.reg_col, X.T, grad=False,
                                   ahead=ahead, arrays=cols)[0])


class _FrozenReg(_NoReg):
    def __init__(self, Lr, Lc, lam_r: float, lam_c: float):
        self.Lr = as_matrix(Lr, "Lr")
        self.Lc = as_matrix(Lc, "Lc")
        self.lam_r = lam_r
        self.lam_c = lam_c

    def compute(self, X, G):
        # the adaptive arm's row blocks, so given its L the bits are its own
        Rr = _fixed_graph_term(self.Lr, X, self.lam_r, G)
        Rc = _fixed_graph_term(self.Lc, X.T, self.lam_c, G.T)
        return Rr, Rc, G, ()


class _TvReg(_NoReg):
    """Smoothed TV of X weighted by lam, logged in the reg_r column."""

    def __init__(self, cfg: TvConfig, lam: float):
        self.cfg = cfg
        self.lam = lam

    def compute(self, X, G):
        value, grad = tv_value_and_grad(X, self.cfg)
        grad *= self.lam
        G += grad
        return value, 0.0, G, ()


def _two_way_plan(k: int, grad_shapes) -> _Plan:
    """The split of train's steps, fixed once per call, for a chain
    whose narrow side is k = min(m, n) and whose factor gradients have
    the shapes grad_shapes (dmf._step_shapes). It is on only where a
    second CPU would idle: BLAS is pinned to one thread (a threaded BLAS
    already uses them) and mat_core._second_cpu_idle(). Then a graph
    splits when it spans several row blocks, and forward's halves (cut by
    shape alone), the pairs and Adam run on two where dmf._two_way holds."""
    blas = (os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS"))
    if blas != "1" or not _second_cpu_idle():
        return _Plan()
    return _Plan(graphs=True, pairs=_two_way(k, grad_shapes))


# a diverging run overflows in many places; the loop checks X, the
# objective and every parameter itself and raises with the iteration
@np.errstate(over="ignore", invalid="ignore")
def train(state: ModelState, mask: SamplingMask, y_obs, cfg: TrainConfig,
          ground_truth=None, penalty=None):
    """Fit the model by joint full-gradient updates; returns
    (state, MetricTrace). state is updated in place.

    penalty selects the graph terms. None learns the graphs;
    FixedLaplacians freezes them at the given matrices (from_state(state)
    at the model's current ones); a TvConfig replaces both by smoothed TV
    of X, weighted by the resolved lambda_row and logged as reg_r (reg_c
    stays 0). Weights of zero skip the penalty entirely, so such a run
    reproduces plain deep-factorization training bit for bit.

    Pass `it` evaluates the state after `it` updates once: its product,
    residual and energies feed the next update and, at a checkpoint, the
    trace row for `it`. The last state is evaluated for its values only,
    and its product is handed back as trace.X. Where a second CPU would
    idle, the steps split two ways (see _two_way_plan) with the same bits.
    The steps write their arrays into buffers made once per call, and the
    kernels take their temporaries from one mat_core._Scratch, carried in
    the plan (see mat_core._take), which the first step fills.
    """
    y = np.asarray(y_obs, dtype=np.float64).ravel()
    if not np.isfinite(y).all():
        raise InvalidInput("y_obs contains NaN or Inf")
    chain = state.chain
    m, n = chain.shape
    if isinstance(penalty, FixedLaplacians):
        penalty.check_shape(m, n)
    # Arrays whose lifetimes do not overlap share memory: product i's
    # buffer then carries factor gradient L-2-i, formed once the product
    # is consumed; G's holds a checkpoint's unobserved entries, the lifted
    # residual, then every other T of the gradient chain; the scratch's
    # lane 0 lends the first T and every other one after it
    prods, grad_shapes, ts = _step_shapes(chain)
    bufs = [np.empty(max(map(math.prod, shapes)))
            for shapes in zip(prods, reversed(grad_shapes))]
    outs = [_view(b, shape) for b, shape in zip(bufs, prods)]
    grad_outs = [_view(b, shape) for b, shape in zip(bufs[::-1], grad_shapes)]
    G_buf = np.empty(max([m * n] + [math.prod(t) for t in ts[1::2]]))
    lifted = _view(G_buf, (m, n))
    scratch = _Scratch(max(map(math.prod, ts[::2])))
    if cfg.lambda_mode == "paper_auto":
        lam_r, lam_c = auto_lambda(y, m, n)
    else:
        lam_r, lam_c = cfg.lambda_row, cfg.lambda_col
    if isinstance(penalty, TvConfig):
        lam_c = 0.0
    if lam_r == 0 and lam_c == 0:
        strategy = _NoReg()
    elif isinstance(penalty, TvConfig):
        strategy = _TvReg(penalty, lam_r)
    elif penalty is None:
        strategy = _AdaptiveReg(state.reg_row, state.reg_col, lam_r, lam_c)
    else:
        strategy = _FrozenReg(penalty.L_r, penalty.L_c, lam_r, lam_c)

    n_obs = mask.n_observed
    if y.size != n_obs:
        raise InvalidInput(f"y_obs has {y.size} entries, mask observes "
                           f"{n_obs}")
    if mask.observed.shape != (m, n):
        raise InvalidInput(f"mask {mask.observed.shape} vs model {(m, n)}")
    delta = cfg.stop_delta if cfg.stop_delta is not None else m * n / 1000.0
    reg_active = lam_r > 0 or lam_c > 0

    params = list(chain.factors) + list(strategy.w_params)
    opt = (Adam if cfg.optimizer == "adam" else GradientDescent)(params, cfg)
    n_fac = chain.depth

    gt = None
    if ground_truth is not None:
        gt = (ground_truth if isinstance(ground_truth, GroundTruth)
              else GroundTruth.from_matrix(ground_truth))

    trace = MetricTrace(n_sigma=cfg.track_singular_values)
    diff_buf = np.empty(n_obs)

    def finite(a):
        return np.isfinite(a, out=_take(a.shape, dtype=bool)[0]).all()

    def scores(X):
        # a checkpoint's (mse_unobs, nmae, sigmas), taken before lift fills
        # G's buffer, which holds the unobserved entries meanwhile
        mse_un = nm = None
        if gt is not None:
            _, mse_un, nm = metrics(X, gt, mask, False,
                                    G_buf[:mask.n_unobserved])
        sig = ()
        if cfg.track_singular_values:
            s = svd(X, compute_uv=False)
            k = cfg.track_singular_values
            sig = tuple(s[:k]) + (0.0,) * max(0, k - s.size)
        return mse_un, nm, sig

    def failed(err):
        err.trace = trace  # callers may flush the partial log
        return err

    prev_scaled = None
    streak = 0
    stop_reason = "max_iters"
    # the parameters in chunks of rows, so that the scan after every step
    # needs no boolean array of a whole parameter's size
    owner, scan = zip(*[(j, p[chunk]) for j, p in enumerate(params)
                        for chunk in _row_chunks(p)])
    plan = _two_way_plan(min(m, n), grad_shapes)._replace(scratch=scratch)
    with _planned(plan):
        for it in range(cfg.max_iters + 1):
            partials = []
            X = forward(chain, partials, outs)
            if not finite(X):
                # factors can stay finite while their product overflows
                raise failed(DivergenceError(it + 1, "estimate"))
            diff = apply_mask(X, mask, "observed", diff_buf)
            diff -= y
            sq = float(diff @ diff)
            last = it == cfg.max_iters
            if (not last and cfg.stop_mse_obs is not None
                    and sq / n_obs < cfg.stop_mse_obs):
                stop_reason = "mse_obs"
                last = True
            logged = it % cfg.log_every == 0 or last
            row = scores(X) if logged else ()
            try:
                if last:
                    Rr, Rc = strategy.values(X, lifted)
                else:
                    # the X-gradient is added into the lifted residual
                    Rr, Rc, G, w_grads = strategy.compute(
                        X, lift(diff, mask, lifted))
            except NumericOverflow as err:
                raise failed(NumericOverflow(
                    f"{err} at iteration {it + 1}")) from err
            fid = 0.5 * sq
            total = fid + lam_r * Rr + lam_c * Rc
            if not np.isfinite(total):
                # a finite estimate can still overflow its squared residual,
                # and a finite energy its weighted term
                raise failed(DivergenceError(it + 1, "objective"))
            if logged:
                trace.append(it, total, fid, lam_r * Rr, lam_c * Rc,
                             sq / n_obs, *row)
            if it % cfg.log_every == 0 and it > 0 and reg_active:
                scaled = (lam_r * Rr, lam_c * Rc)
                if prev_scaled is not None:
                    dr = abs(scaled[0] - prev_scaled[0])
                    dc = abs(scaled[1] - prev_scaled[1])
                    if dr < delta and dc < delta and it > cfg.stop_warmup:
                        streak += 1
                    else:
                        streak = 0
                prev_scaled = scaled
                if streak >= cfg.stop_patience:
                    stop_reason = "reg_delta"
                    break
            if last:
                break

            grads = factor_grads_from_full(chain, G, partials, grad_outs,
                                           (scratch.bufs[0], G_buf))
            opt.step(grads + list(w_grads))
            ok = _lanes(finite, scan, plan.pairs)
            if not all(ok):  # name the first parameter scanned false
                j = owner[ok.index(False)]
                what = f"factor {j}" if j < n_fac else "graph parameter"
                raise failed(DivergenceError(it + 1, what))

    trace.stop_reason = stop_reason
    trace.X = X
    return state, trace
