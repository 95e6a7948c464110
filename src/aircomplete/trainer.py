"""Training loop: optimizers, objective assembly, stopping, metric traces.

The objective is

    total = 1/2 ||y_obs - A(X)||^2 + lam_r tr(X^T L_r X) + lam_c tr(X L_c X^T)

with X the factor-chain product and L_r, L_c either learned (adaptive) or
frozen; `train`'s penalty argument can instead put lam_r times smoothed
total variation of X in place of both graph terms. All trainable
parameters, factors plus the two adjacency parameters when adaptive, are
updated jointly by one optimizer instance; per-array optimizer state
keeps factor updates independent of whether the regularizer parameters
ride along.

Stopping: the adjacency values settle before observation error does, so
training stops when the lambda-scaled regularizer values move less than
stop_delta between consecutive checkpoints (log_every apart), on both
the row and column graphs, for stop_patience consecutive checkpoints,
after a warm-up period. An observation-MSE threshold and max_iters are
the other exits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .air_reg import RegParam, grad_wrt_X, reg_value_and_grad
from .baselines import FixedLaplacians, TvConfig, tv_value_and_grad
from .data_lab import GroundTruth, SamplingMask, apply_mask, lift
from .dmf import FactorChain, factor_grads_from_full, forward
from .errors import DivergenceError, InvalidInput, NumericOverflow
from .mat_core import as_matrix, svd

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
    adaptive: bool = True

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
    in the mse_unobs and nmae columns."""

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

    def header(self) -> str:
        cols = self._BASE_COLUMNS + [f"sigma_{j + 1}"
                                     for j in range(self.n_sigma)]
        return ",".join(cols)

    def to_csv(self) -> str:
        lines = [self.header()]
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

    @classmethod
    def from_csv(cls, text: str) -> "MetricTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InvalidInput("empty trace CSV")
        cols = lines[0].split(",")
        n_base = len(cls._BASE_COLUMNS)
        if cols[:n_base] != cls._BASE_COLUMNS:
            raise InvalidInput(f"unexpected trace header {lines[0]!r}")
        tr = cls(n_sigma=len(cols) - n_base)
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(cols):
                raise InvalidInput(f"trace row has {len(parts)} fields, "
                                   f"header has {len(cols)}")
            vals = [float(x) for x in parts[1:]]
            tr.append(int(parts[0]), *vals[:5],
                      mse_unobs=vals[5], nmae=vals[6], sigma=vals[7:])
        return tr

    @staticmethod
    def read_csv(path) -> "MetricTrace":
        with open(path) as f:
            return MetricTrace.from_csv(f.read())


def auto_lambda(y_obs, m: int, n: int) -> tuple[float, float]:
    """Weight putting fidelity and regularization on a similar scale:
    both lambdas equal (max(y) - min(y)) / (m n)."""
    y = np.asarray(y_obs, dtype=np.float64).ravel()
    if y.size == 0:
        raise InvalidInput("auto lambda needs at least one observation")
    lam = float((y.max() - y.min()) / (m * n))
    return lam, lam


def resolve_lambda(cfg: TrainConfig, y_obs, m: int, n: int) -> tuple[float, float]:
    if cfg.lambda_mode == "paper_auto":
        return auto_lambda(y_obs, m, n)
    return cfg.lambda_row, cfg.lambda_col


def metrics(X, ground_truth, mask: SamplingMask, absolute: bool = False):
    """(mse_obs, mse_unobs, nmae) against known ground truth.

    nmae follows the printed formula: squared Frobenius deviation on
    unobserved entries over (count x truth value range). absolute=True
    switches the numerator to the literal sum of absolute deviations.
    """
    X = as_matrix(X, "X")
    if isinstance(ground_truth, GroundTruth):
        gt = ground_truth
    else:
        gt = GroundTruth.from_matrix(as_matrix(ground_truth, "ground truth"))
    if gt.full.shape != X.shape:
        raise InvalidInput(f"X {X.shape} vs truth {gt.full.shape}")
    lo, hi = gt.value_range
    rng_width = hi - lo
    if rng_width <= 0:
        raise InvalidInput("ground-truth value range is degenerate")
    if mask.n_unobserved == 0:
        raise InvalidInput("nmae needs at least one unobserved entry")
    truth_obs, truth_un = gt.split(mask)
    diff_obs = apply_mask(X, mask) - truth_obs
    diff_un = apply_mask(X, mask, "unobserved") - truth_un
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


def adam_step(params, grads, moments, t: int, cfg: TrainConfig):
    """One bias-corrected update, in place. moments is (m_list, v_list).

    Evaluates the textbook expression p -= lr (m/c1) / (sqrt(v/c2) + eps)
    in its usual operation order, so the bits match it. Each parameter is
    swept in blocks of whole rows of about _ADAM_BLOCK entries (views for
    any layout), through two scratch buffers of one block each, so every
    operand is read from cache after its first touch and no full-size
    temporary is allocated.
    """
    if t < 1:
        raise InvalidInput("adam step count starts at 1")
    ms, vs = moments
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p_all, g_all, m_all, v_all in zip(params, grads, ms, vs):
        n_rows, cols = p_all.shape
        rows = max(1, _ADAM_BLOCK // cols)
        buf_a = np.empty(min(rows, n_rows) * cols)
        buf_b = np.empty_like(buf_a)
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
    return params, moments


class Adam:
    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)
        self.cfg = cfg
        self.moments = ([np.zeros_like(p) for p in self.params],
                        [np.zeros_like(p) for p in self.params])
        self.t = 0

    def step(self, grads):
        self.t += 1
        adam_step(self.params, grads, self.moments, self.t, self.cfg)


class GradientDescent:
    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)
        self.lr = cfg.lr

    def step(self, grads):
        for p, g in zip(self.params, grads):
            p -= self.lr * g


def _make_optimizer(params, cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return Adam(params, cfg)
    return GradientDescent(params, cfg)


# ---------------------------------------------------------------------------
# regularizer strategies for the shared loop

class _NoReg:
    """The zero penalty, and the base of the others. compute(X) gives
    (Rr, Rc, dPenalty/dX or None, gradients of w_params); values(X) gives
    (Rr, Rc) alone, for the last trace row."""

    w_params = ()

    def compute(self, X):
        return 0.0, 0.0, None, ()

    def values(self, X):
        return self.compute(X)[:2]


class _AdaptiveReg(_NoReg):
    def __init__(self, reg_row: RegParam, reg_col: RegParam,
                 lam_r: float, lam_c: float):
        self.reg_row = reg_row
        self.reg_col = reg_col
        self.lam_r = lam_r
        self.lam_c = lam_c
        self.w_params = (reg_row.W, reg_col.W)

    def compute(self, X):
        Rr, gWr, Lr = reg_value_and_grad(self.reg_row, X, laplacian=True)
        Rc, gWc, Lc = reg_value_and_grad(self.reg_col, X.T, laplacian=True)
        Gx = grad_wrt_X(Lr, Lc, X, self.lam_r, self.lam_c)
        gWr *= self.lam_r
        gWc *= self.lam_c
        return Rr, Rc, Gx, (gWr, gWc)

    def values(self, X):
        # compute()'s energies by the same formula, without L or the X-gradient
        return (reg_value_and_grad(self.reg_row, X)[0],
                reg_value_and_grad(self.reg_col, X.T)[0])


class _FrozenReg(_NoReg):
    def __init__(self, Lr, Lc, lam_r: float, lam_c: float):
        self.Lr = as_matrix(Lr, "Lr")
        self.Lc = as_matrix(Lc, "Lc")
        self.lam_r = lam_r
        self.lam_c = lam_c

    def compute(self, X):
        LrX = self.Lr @ X
        XLc = X @ self.Lc
        # summed in grad_wrt_X's order, so Gx has its bits
        Gx = np.zeros_like(X)
        if self.lam_r != 0.0:
            Gx += 2.0 * self.lam_r * LrX
        if self.lam_c != 0.0:
            Gx += 2.0 * self.lam_c * XLc
        return float(np.vdot(X, LrX)), float(np.vdot(X, XLc)), Gx, ()


class _TvReg(_NoReg):
    """Smoothed TV of X weighted by lam, logged in the reg_r column."""

    def __init__(self, cfg: TvConfig, lam: float):
        self.cfg = cfg
        self.lam = lam

    def compute(self, X):
        value, grad = tv_value_and_grad(X, self.cfg)
        return value, 0.0, self.lam * grad, ()


# a diverging run overflows in many places; the loop checks X, the
# objective and every parameter itself and raises with the iteration
@np.errstate(over="ignore", invalid="ignore")
def _train_loop(chain: FactorChain, strategy, mask: SamplingMask, y_obs,
                cfg: TrainConfig, lam_r: float, lam_c: float,
                ground_truth=None):
    """Shared engine: joint full-gradient updates plus trace and stops.

    Pass `it` evaluates the state after `it` updates once: its product,
    residual and energies feed the next update and, at a checkpoint, the
    trace row for `it`. The last state is evaluated for its values only.
    """
    y = np.asarray(y_obs, dtype=np.float64).ravel()
    n_obs = mask.n_observed
    if y.size != n_obs:
        raise InvalidInput(f"y_obs has {y.size} entries, mask observes "
                           f"{n_obs}")
    m, n = chain.shape
    if mask.observed.shape != (m, n):
        raise InvalidInput(f"mask {mask.observed.shape} vs model {(m, n)}")
    delta = cfg.stop_delta if cfg.stop_delta is not None else m * n / 1000.0
    reg_active = lam_r > 0 or lam_c > 0

    params = list(chain.factors) + list(strategy.w_params)
    opt = _make_optimizer(params, cfg)
    n_fac = chain.depth

    gt = None
    if ground_truth is not None:
        gt = (ground_truth if isinstance(ground_truth, GroundTruth)
              else GroundTruth.from_matrix(ground_truth))

    trace = MetricTrace(n_sigma=cfg.track_singular_values)

    def log(it, X, sq, Rr, Rc):
        fid = 0.5 * sq
        mse_un = nm = None
        if gt is not None:
            _, mse_un, nm = metrics(X, gt, mask)
        sig = ()
        if cfg.track_singular_values:
            s = svd(X).S
            k = cfg.track_singular_values
            sig = tuple(s[:k]) + (0.0,) * max(0, k - s.size)
        total = fid + lam_r * Rr + lam_c * Rc
        trace.append(it, total, fid, lam_r * Rr, lam_c * Rc, sq / n_obs,
                     mse_un, nm, sig)

    def failed(err):
        err.trace = trace  # callers may flush the partial log
        return err

    prev_scaled = None
    streak = 0
    stop_reason = "max_iters"
    for it in range(cfg.max_iters + 1):
        partials = []
        X = forward(chain, partials)
        if not np.isfinite(X).all():
            # factors can stay finite while their product overflows
            raise failed(DivergenceError(it + 1, "estimate"))
        diff = apply_mask(X, mask) - y
        sq = float(diff @ diff)
        last = it == cfg.max_iters
        if (not last and cfg.stop_mse_obs is not None
                and sq / n_obs < cfg.stop_mse_obs):
            stop_reason = "mse_obs"
            last = True
        try:
            if last:
                Rr, Rc = strategy.values(X)
            else:
                Rr, Rc, Gx, w_grads = strategy.compute(X)
        except NumericOverflow as err:
            raise failed(NumericOverflow(
                f"{err} at iteration {it + 1}")) from err
        if not np.isfinite(sq + Rr + Rc):
            # a finite estimate can still overflow its squared residual
            raise failed(DivergenceError(it + 1, "objective"))
        if it % cfg.log_every == 0 or last:
            log(it, X, sq, Rr, Rc)
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

        G = lift(diff, mask)
        if Gx is not None:
            G += Gx
        grads = factor_grads_from_full(chain, G, partials)
        grads.extend(w_grads)
        opt.step(grads)
        for j, p in enumerate(params):
            if not np.isfinite(p).all():
                what = f"factor {j}" if j < n_fac else "graph parameter"
                raise failed(DivergenceError(it + 1, what))
        # free this pass's arrays before the next pass allocates its own
        del X, partials, diff, G, Gx, grads, w_grads

    trace.stop_reason = stop_reason
    return trace


def train(state: ModelState, mask: SamplingMask, y_obs, cfg: TrainConfig,
          ground_truth=None, penalty=None):
    """Fit the model; returns (state, MetricTrace). state is updated in
    place.

    penalty selects the graph terms. None learns the graphs when
    state.adaptive and otherwise freezes them at their current
    Laplacians; FixedLaplacians freezes them at the given matrices; a
    TvConfig replaces both by smoothed TV of X, weighted by the resolved
    lambda_row and logged as reg_r (reg_c stays 0). Weights of zero skip
    the penalty entirely, so such a run reproduces plain
    deep-factorization training bit for bit."""
    m, n = state.chain.shape
    if isinstance(penalty, FixedLaplacians) and (
            penalty.L_r.shape != (m, m) or penalty.L_c.shape != (n, n)):
        raise InvalidInput(f"Laplacian shapes {penalty.L_r.shape}/"
                           f"{penalty.L_c.shape} vs model {(m, n)}")
    lam_r, lam_c = resolve_lambda(cfg, y_obs, m, n)
    if isinstance(penalty, TvConfig):
        lam_c = 0.0
    if lam_r == 0 and lam_c == 0:
        strategy = _NoReg()
    elif isinstance(penalty, TvConfig):
        strategy = _TvReg(penalty, lam_r)
    elif penalty is None and state.adaptive:
        strategy = _AdaptiveReg(state.reg_row, state.reg_col, lam_r, lam_c)
    else:
        fixed = penalty or FixedLaplacians.from_state(state)
        strategy = _FrozenReg(fixed.L_r, fixed.L_c, lam_r, lam_c)
    trace = _train_loop(state.chain, strategy, mask, y_obs, cfg,
                        lam_r, lam_c, ground_truth)
    return state, trace
