"""Command-line entry point.

Subcommands: gen-data, gen-mask, complete, baseline, sweep, verify, eval.
Settings resolve flag > config file (JSON, --config) > default. Exit
codes: 0 success, 1 usage or config error, 2 numeric failure,
3 verification failure.

Image (PGM) data is normalized to [0, 1] for training by dividing by the
file's maxval. Other matrices travel as comma-separated text with 17
significant digits, and so does a recovered matrix unless its path ends
in .pgm, which writes image data back as 8-bit P5.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import warnings
import zipfile

import numpy as np

from . import theory_lab, trainer
from .air_reg import (_PARAMETERIZATIONS, RegParam, build_laplacian,
                      dirichlet_energy, grad_wrt_X, reg_value_and_grad)
from .baselines import (FixedLaplacians, TvConfig, knn_impute, svd_impute,
                        tv_value_and_grad)
from .data_lab import (GroundTruth, SamplingMask, apply_mask, gen_block_ratings,
                       gen_lowrank, generate_mask, lift, read_mask_pgm,
                       read_pgm, write_mask_pgm, write_pgm)
from .dmf import factor_grads_from_full, initialize
from .errors import (DivergenceError, ImputeError, InvalidInput,
                     NumericOverflow, ParseError)
from .mat_core import (_lanes, _second_cpu_idle, finite_difference_grad,
                       gaussian_matrix, make_rng)
from .trainer import MetricTrace, ModelState, TrainConfig, train

__all__ = ["main", "run_complete", "run_sweep", "run_verify", "default_config"]


# Every run setting in --help order: its flag (None for a key set only in
# a config file), its config key (None for --config and --out-dir) and its
# spec. A spec is the default; a type, for a key whose default is null; or
# a tuple of the allowed values, the first of them the default.
_KEYS = (
    ("--config", None, None), ("--seed", "seed", 0),
    ("--model-seed", "model_seed", int), ("--out-dir", None, "."),
    ("--data-kind", "data.kind", ("lowrank", "block_ratings", "image")),
    ("--data-path", "data.path", str), ("--rows", "data.rows", 100),
    ("--cols", "data.cols", 100), ("--rank", "data.rank", 5),
    ("--row-groups", "data.row_groups", 6),
    ("--col-groups", "data.col_groups", 8), ("--noise", "data.noise", 0.0),
    ("--mask-kind", "mask.kind", ("random", "patch", "texture", "file")),
    ("--mask-path", "mask.path", str), ("--missing", "mask.missing", 0.3),
    ("--patch-top", "mask.top", 0), ("--patch-left", "mask.left", 0),
    ("--patch-height", "mask.height", 1), ("--patch-width", "mask.width", 1),
    ("--period", "mask.period", 4), ("--thickness", "mask.thickness", 1),
    ("--depth", "model.depth", 3), ("--width", "model.width", 0),
    ("--init", "model.init", ("gaussian", "balanced_spectral")),
    (None, "model.variance", 1e-5),
    ("--reg", "regularizer.mode", ("air", "none", "tv", "fixed")),
    ("--parameterization", "regularizer.parameterization", _PARAMETERIZATIONS),
    ("--lambda-mode", "regularizer.lambda_mode", trainer._LAMBDA_MODES),
    ("--lambda-row", "regularizer.lambda_row", 0.0),
    ("--lambda-col", "regularizer.lambda_col", 0.0),
    (None, "regularizer.tv_eps", 1e-6),
    ("--tv-weight", "regularizer.tv_weight", float),
    ("--fixed-path", "regularizer.fixed_path", str),
    ("--optimizer", "optimizer.kind", trainer._OPTIMIZERS),
    ("--lr", "optimizer.lr", 1e-3), (None, "optimizer.beta1", 0.9),
    (None, "optimizer.beta2", 0.999), (None, "optimizer.eps", 1e-8),
    ("--max-iters", "stopping.max_iters", 10000),
    ("--stop-delta", "stopping.delta", float),
    ("--stop-patience", "stopping.patience", 1),
    ("--stop-warmup", "stopping.warmup", 500),
    ("--stop-mse-obs", "stopping.mse_obs", float),
    ("--log-every", "log_every", 100),
    ("--track-sigmas", "track_singular_values", 0),
    ("--trace-csv", "outputs.trace_csv", "trace.csv"),
    ("--recovered", "outputs.recovered_path", str),
    ("--report", "outputs.report_path", "report.json"),
)
_SPECS = {path: spec for _, path, spec in _KEYS if path}
_TYPE_NAMES = {int: "an integer", float: "a finite number",
               str: "a string or null"}


def _default(spec):
    if isinstance(spec, tuple):
        return spec[0]
    return None if isinstance(spec, type) else spec


def _nest(pairs) -> dict:
    """The nested config of (dotted key, value) pairs."""
    out: dict = {}
    for path, val in pairs:
        *sections, key = path.split(".")
        node = out
        for sect in sections:
            node = node.setdefault(sect, {})
        node[key] = val
    return out


def default_config() -> dict:
    return _nest((path, _default(spec)) for path, spec in _SPECS.items())


_DEFAULTS = default_config()


def _key_type(path: str) -> type:
    spec = _SPECS[path]
    return spec if isinstance(spec, type) else type(_default(spec))


def _check_value(path: str, val):
    """Integer keys take ints but not bools, float keys finite ints or
    floats, string keys a string or null; a key whose default is null takes
    null."""
    want = _key_type(path)
    if val is None:
        ok = want is str or isinstance(_SPECS[path], type)
    else:
        # the bound turns away NaN, infinities and ints past float range
        ok = (isinstance(val, (int, float) if want is float else want)
              and not isinstance(val, bool)
              and (want is not float or abs(val) <= sys.float_info.max))
    if not ok:
        raise InvalidInput(f"config key {path!r} must be {_TYPE_NAMES[want]}, "
                           f"got {val!r}")


def _deep_update(base: dict, upd: dict, path: str = "") -> dict:
    for key, val in upd.items():
        if key not in base:
            raise InvalidInput(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise InvalidInput(f"config key {path + key!r} must be an "
                                   f"object, got {val!r}")
            _deep_update(base[key], val, path + key + ".")
        else:
            _check_value(path + key, val)
            base[key] = val
    return base


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = default_config()
    if path is not None:
        with open(path) as f:
            try:
                file_cfg = json.load(f)
            except ValueError as e:  # bad JSON, or an int past the digit limit
                raise InvalidInput(f"config {path} is not valid JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise InvalidInput(f"config {path} must hold a JSON object")
        _deep_update(cfg, file_cfg)
    _deep_update(cfg, overrides)
    return cfg


# the failures a command reports in one line: exit 1, or a failed arm in a
# sweep, and exit 2; any other exception is a bug and propagates
_INPUT_ERRORS = (InvalidInput, ParseError, ImputeError, OSError, MemoryError)
_NUMERIC_ERRORS = (NumericOverflow, DivergenceError)
_SWEEP_AXES = ("depth", "width")
# the regularizer.mode of each baseline method; knn and svd read no penalty
_METHOD_MODES = {"knn": "none", "svd": "none", "dmf": "none", "tv": "tv",
                 "fixed": "fixed"}


def _validate_config(cfg: dict):
    # the key and type walk of load_config, for configs built in code, then
    # what it leaves: missing keys and values outside their choices
    _deep_update(default_config(), cfg)
    for path, spec in _SPECS.items():
        val = cfg
        for key in path.split("."):
            if key not in val:
                raise InvalidInput(f"config has no key {path!r}")
            val = val[key]
        if isinstance(spec, tuple) and val not in spec:
            raise InvalidInput(f"{path} must be one of {spec}, got {val!r}")
    if cfg["model"]["depth"] < 2:
        raise InvalidInput("model depth must be at least 2")


# ---------------------------------------------------------------------------
# file plumbing

def _is_pgm(path: str) -> bool:
    return str(path).lower().endswith(".pgm")


# write_matrix_csv's entries a task on two lanes (long numpy calls, few lock
# handoffs), tasks a batch, and entries a task on one lane or a compress
# call: 2^20 entries peak at 6.3 MB traced on two lanes and 0.6 MB on one
_CSV_CHUNK, _CSV_BATCH, _CSV_PIECE = 1 << 14, 8, 1 << 11
# entries of X from which write_matrix_csv hands its chunks to two lanes
_PAIR_MIN = 1 << 20
_U, _LO32 = np.uint64, np.uint64(0xFFFFFFFF)
_POW5 = np.array([5 ** k for k in range(28)], _U)


def _g17_tables():
    """By k = 16 - decimal exponent X: _g17_csv's last layout word but its
    digits, and at row k * 34 + negative * 17 + digits - 1, the bytes kept."""
    X = 16 - np.arange(28)[:, None, None, None]
    neg, nsig = np.arange(2)[:, None, None], np.arange(1, 18)[:, None]
    pos, digit = np.arange(40), np.full(40, 99)  # the digit at a byte, or 99
    digit[6:28:2], digit[28:34] = range(11), range(11, 17)
    dot = np.roll(np.where(digit < 11, digit, 99), 1)  # the "." after it
    sci = X < -4
    keep = ((pos == 0) & (neg == 1)
            | (1 <= pos) & (pos <= 1 - X) & (-4 <= X) & (X < 0)  # "0.00"
            | (digit < np.maximum(nsig, X + 1))
            | (dot == np.where(sci, 0, X)) & (nsig > np.where(sci, 1, X + 1))
            | (34 <= pos) & (pos < 38) & sci  # "e-XX"
            | (pos == 38))
    last = [int.from_bytes(f"00e-{abs(x):02d},\0".encode(), "little")
            for x in X.ravel()]
    return np.array(last, _U), keep.reshape(-1, 40)


_G17_LAST, _G17_KEEP = _g17_tables()


def _g17_csv(v, ends):
    """The text "%.17g," of each float64 of v, "\\n" for the "," after
    the entries at the indices `ends`, as uint8 pieces; None if a value is
    neither 0 nor in 1e-11 <= |x| < 1e11, or its 17 digits leave [1e16,
    1e17) at the exponent log10 suggests (checked, never trusted).

    Exact, as in Ryu printf (Adams, OOPSLA 2019): with |x| = m 2^(E-1075)
    and k = 16 - floor(log10 |x|) in [6, 27], the digits m 5^k / 2^s,
    s = 1075 - E - k, are rounded half to even by the exact remainder of
    a 128-bit product of 32-bit limbs; SWAR spreads them a byte each into
    40 bytes, "-0.000" d0 "." d1 "." ... d10 "." d11-d16 "e-XX" "," pad,
    of which a value keeps those of a row of _G17_KEEP."""
    a, zero = np.abs(v), v == 0
    if sys.byteorder != "little" or not (
            (a >= 1e-11) & (a < 1e11) | zero).all():
        return None
    a += zero  # 0 as 1, whose leading digit is taken back below
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 6, 27)
    s = (1075 - k - (a.view(np.int64) >> 52)).astype(_U)
    m = ((a.view(_U) & _U(2 ** 52 - 1)) | _U(2 ** 52)).view(np.uint32)
    f = _POW5.take(k).view(np.uint32)  # m f = hi 2^64 + lo, by 32-bit limbs
    lo = np.multiply(m[::2], f[::2], dtype=_U)
    mid = np.multiply(m[::2], f[1::2], dtype=_U)
    hi = np.multiply(m[1::2], f[1::2], dtype=_U) + (mid >> _U(32))
    f = np.multiply(m[1::2], f[::2], dtype=_U)
    mid = (mid & _LO32) + (f & _LO32) + (lo >> _U(32))
    hi += (f >> _U(32)) + (mid >> _U(32))
    lo = (mid << _U(32)) | (lo & _LO32)
    q = (hi << (_U(64) - s)) | (lo >> s)  # numpy shifts by >= 64 give 0,
    ok = ((hi >> s) == 0) & (q >= _U(10 ** 16))  # so a wrong k fails here
    lo &= (_U(1) << s) - _U(1)  # the remainder, against half of 2^s:
    s = _U(1) << (s - _U(1))
    q += (lo > s) | ((lo == s) & ((q & _U(1)) == 1))
    if not (ok & (q < _U(10 ** 17))).all():
        return None
    del a, m, f, lo, mid, hi, s, ok  # bound the memory of two lanes
    d0, q = np.divmod(q, _U(10 ** 16))
    z = np.stack(np.divmod(q, _U(10 ** 8)))  # two halves of 8 digits
    t = (z * _U(3518437209)) >> _U(45)  # // 10^4
    z = t | ((z - t * _U(10 ** 4)) << _U(32))
    t = ((z * _U(10486)) >> _U(20)) & _U(0x7F0000007F)  # // 100 a lane
    z = t | ((z - t * _U(100)) << _U(16))
    t = ((z * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # // 10 a lane
    z = t | ((z - t * _U(10)) << _U(8))  # a digit a byte, the first lowest
    t = (np.frexp(z)[1] + 7) >> 3  # bytes up to the last nonzero digit
    key = np.where(t[1] > 0, t[1] + 8, t[0]) + k * 34 + np.signbit(v) * 17
    t = np.stack((z[0] & _LO32, z[0] >> _U(32), z[1] & _U(0xFFFF)))
    t = (t | (t << _U(16))) & _U(0x0000FFFF0000FFFF)
    t = (t | (t << _U(8))) & _U(0x00FF00FF00FF00FF)  # every other byte
    w = np.empty((v.size, 5), _U)
    w[:, 0] = ((d0 - zero) << _U(48)) | _U(0x2E303030302E302D)
    w[:, 1:3] = (t[:2] | _U(0x2E302E302E302E30)).T
    w[:, 3] = t[2] | (z[1] >> _U(16) << _U(32)) | _U(0x303030302E302E30)
    w[:, 4] = (z[1] >> _U(48)) | _G17_LAST.take(k)
    del d0, z, t, k
    w = w.view(np.uint8)
    w[ends, 38] = ord("\n")
    return [np.compress(_G17_KEEP.take(key[i:i + _CSV_PIECE], axis=0).ravel(),
                        w[i:i + _CSV_PIECE].ravel())
            for i in range(0, v.size, _CSV_PIECE)]


def write_matrix_csv(path, X):
    """One line per row, each value as "%.17g" (round-trips float64).

    Chunks cut by entry are formatted exactly in integer arithmetic by
    _g17_csv; a chunk it declines (NaN, inf, subnormals, |x| >= 1e11 or
    0 < |x| < 1e-11, a failed range check) takes the exact reference, one
    `%` operation. From _PAIR_MIN entries, where a second CPU would idle,
    _lanes hands a batch's chunks to two lanes one at a time; batches are
    written in order. The bytes are format(x, ".17g")'s either way. At
    943 x 1682 it took 0.31 s on two lanes and 0.58 s on one, against 0.84
    and 1.29 s for the helper process and block `%` it replaces.
    """
    X = np.atleast_2d(X)
    rows, cols = X.shape
    flat = np.ravel(X).astype(np.float64, copy=False)

    def text(start):
        v = flat[start:start + size]
        ends = np.arange((cols - 1 - start) % cols, v.size, cols)
        out = _g17_csv(v, ends)
        if out is None:  # the exact reference
            out = [bytearray(("%.17g," * v.size) % tuple(v.tolist()), "ascii")]
            b = np.frombuffer(out[0], np.uint8)
            b[np.flatnonzero(b == ord(","))[ends]] = ord("\n")
        return out

    split = flat.size >= _PAIR_MIN and _second_cpu_idle()
    size, batch = (_CSV_CHUNK, _CSV_BATCH) if split else (_CSV_PIECE, 1)
    starts = range(0, flat.size, size)
    with open(path, "wb") as f:
        if not cols:
            f.write(b"\n" * rows)
        for i in range(0, len(starts), batch):
            for out in _lanes(text, starts[i:i + batch], split):
                f.writelines(out)


def read_matrix_csv(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as a ParseError
            warnings.filterwarnings("ignore", ".*input contained no data")
            X = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
    if X.size == 0:
        raise ParseError(f"{path}: no data")
    return X


def _load_unit_matrix(path) -> np.ndarray:
    if _is_pgm(path):
        raw = read_pgm(path)
        return raw.full / raw.value_range[1]
    return read_matrix_csv(path)


def _resolve(out_dir: str | None, path: str | None):
    if path is None:
        return None
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


# ---------------------------------------------------------------------------
# experiment assembly

def _build_data(cfg: dict, rng) -> tuple[GroundTruth, bool]:
    d = cfg["data"]
    if d["path"] is not None:
        if _is_pgm(d["path"]):
            return GroundTruth(_load_unit_matrix(d["path"]), (0.0, 1.0)), True
        return GroundTruth.from_matrix(read_matrix_csv(d["path"])), False
    if d["kind"] == "image":
        raise InvalidInput("data.kind image requires data.path")
    if d["kind"] == "lowrank":
        return gen_lowrank(rng, d["rows"], d["cols"], d["rank"]), False
    return gen_block_ratings(rng, d["rows"], d["cols"], d["row_groups"],
                             d["col_groups"], noise=d["noise"]), False


def _build_mask(cfg: dict, rng, shape) -> SamplingMask:
    mk = cfg["mask"]
    if mk["kind"] == "file" or mk["path"] is not None:
        if mk["path"] is None:
            raise InvalidInput("mask.kind file requires mask.path")
        mask = read_mask_pgm(mk["path"])
        if mask.observed.shape != shape:
            raise InvalidInput(f"mask file is {mask.observed.shape}, "
                               f"data is {shape}")
        return mask
    rows, cols = shape
    if mk["kind"] == "random":
        return generate_mask(rng, rows, cols, "random", p=mk["missing"])
    if mk["kind"] == "patch":
        return generate_mask(rng, rows, cols, "patch", r0=mk["top"],
                             c0=mk["left"], h=mk["height"], w=mk["width"])
    return generate_mask(rng, rows, cols, "texture", period=mk["period"],
                         thickness=mk["thickness"])


def _output_paths(cfg: dict, out_dir, recovered) -> list:
    """The trace, recovered (by default `recovered`) and report paths, None
    when off, once out_dir and each path's directory exist."""
    outs = cfg["outputs"]
    paths = [_resolve(out_dir, p) for p in (
        outs["trace_csv"], outs["recovered_path"] or recovered,
        outs["report_path"])]
    for d in [out_dir] + [os.path.dirname(p) for p in paths if p]:
        if d:
            os.makedirs(d, exist_ok=True)
    return paths


def _write_outputs(paths, X, trace, prep):
    truth, _, mask = prep[:3]
    trace_path, rec_path, report_path = paths
    mse_obs, mse_unobs, nmae = trainer.metrics(X, truth, mask)
    report = {"nmae": nmae, "mse_obs": mse_obs, "mse_unobs": mse_unobs,
              "iters": int(trace.iters[-1]) if len(trace) else 0,
              "stop_reason": trace.stop_reason}
    if trace_path and len(trace):
        trace.write_csv(trace_path)
    if rec_path:
        if _is_pgm(rec_path):
            write_pgm(np.clip(X, 0.0, 1.0) * 255.0, rec_path)
        else:
            write_matrix_csv(rec_path, X)
    if report_path:
        with open(report_path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return report


def _read_laplacians(path) -> FixedLaplacians:
    """The fixed penalty held in a .npz archive's arrays L_r and L_c."""
    try:
        with open(path, "rb") as f:
            if not zipfile.is_zipfile(f):
                raise ValueError("not a zip archive")
            with np.load(f) as z:
                laps = {key: z[key] for key in ("L_r", "L_c") if key in z}
    except (ValueError, zipfile.BadZipFile) as e:
        # numpy's refusal of an object array names its pickle option
        why = "it holds an object array" if "allow_pickle" in str(e) else e
        raise InvalidInput(f"{path} is not a readable .npz archive "
                           f"({why})") from None
    for key in ("L_r", "L_c"):
        if key not in laps:
            raise InvalidInput(f"{path} has no array {key!r}")
        # np.load hands a member without the .npy magic back as bytes
        if not isinstance(laps[key], np.ndarray):
            raise InvalidInput(f"{path} member {key!r} is not an array")
    return FixedLaplacians(laps["L_r"], laps["L_c"])


def _prepare(cfg: dict):
    """Validate cfg and build a run's inputs up to its model: (truth,
    recovered path, mask, train config, penalty, model rng). Every input
    error that does not depend on the model is raised here."""
    _validate_config(cfg)
    rng = make_rng(cfg["seed"])
    truth, is_image = _build_data(cfg, rng)
    # the recovered file's name; its extension sets the format
    recovered = cfg["outputs"]["recovered_path"]
    if recovered is None:
        recovered = "recovered.pgm" if is_image else "recovered.csv"
    elif _is_pgm(recovered) and not is_image:
        raise InvalidInput(f"recovered path {recovered} is a PGM image, but "
                           "the data is not an image")
    mask = _build_mask(cfg, rng, truth.full.shape)
    trainer._check_scorable(truth, mask)
    model_rng = rng if cfg["model_seed"] is None else make_rng(cfg["model_seed"])

    reg = cfg["regularizer"]
    penalty = None
    if reg["mode"] == "tv":
        penalty = TvConfig(eps=reg["tv_eps"])
    elif reg["mode"] == "fixed":
        if reg["fixed_path"] is None:
            raise InvalidInput("regularizer.mode fixed requires fixed_path")
        penalty = _read_laplacians(reg["fixed_path"])
        penalty.check_shape(*truth.full.shape)

    opt = cfg["optimizer"]
    stop = cfg["stopping"]
    lambda_mode = reg["lambda_mode"]
    lam_r, lam_c = reg["lambda_row"], reg["lambda_col"]
    if reg["mode"] == "none":
        lambda_mode, lam_r, lam_c = "explicit", 0.0, 0.0
    elif reg["mode"] == "tv" and reg["tv_weight"] is not None:
        # TV is weighted by lambda_row: tv_weight when set, else as resolved
        lambda_mode, lam_r, lam_c = "explicit", reg["tv_weight"], 0.0
    tcfg = TrainConfig(
        optimizer=opt["kind"], lr=opt["lr"], beta1=opt["beta1"],
        beta2=opt["beta2"], eps=opt["eps"], max_iters=stop["max_iters"],
        stop_delta=stop["delta"], stop_patience=stop["patience"],
        stop_warmup=stop["warmup"], stop_mse_obs=stop["mse_obs"],
        lambda_mode=lambda_mode, lambda_row=lam_r, lambda_col=lam_c,
        log_every=cfg["log_every"],
        track_singular_values=cfg["track_singular_values"])
    return truth, recovered, mask, tcfg, penalty, model_rng


def _fit(cfg: dict, out_dir, prep) -> dict:
    truth, _, mask, tcfg, penalty, model_rng = prep
    m, n = truth.full.shape
    mod = cfg["model"]
    # a copy, so that every fit on one prep draws the same initial model
    rng = copy.deepcopy(model_rng)
    chain = initialize(m, n, mod["depth"], r=mod["width"] or min(m, n),
                       scheme=mod["init"], rng=rng, variance=mod["variance"])
    regs = [RegParam(gaussian_matrix(rng, k, k, variance=1e-5),
                     cfg["regularizer"]["parameterization"]) for k in (m, n)]
    state = ModelState(chain, *regs)
    # preconditions all hold past this point, safe to touch the filesystem
    paths = _output_paths(cfg, out_dir, prep[1])
    _, trace = train(state, mask, apply_mask(truth.full, mask), tcfg, truth,
                     penalty=penalty)
    return _write_outputs(paths, trace.X, trace, prep)


def run_complete(cfg: dict, out_dir: str | None = None) -> dict:
    """Generate or load data, train the configured model, write outputs."""
    return _fit(cfg, out_dir, _prepare(cfg))


def run_sweep(cfg: dict, axis: str, values: list, out_dir: str | None = None):
    """One run per distinct axis value (model depth or width), shared seed."""
    if axis not in _SWEEP_AXES:
        raise InvalidInput(f"sweep axis must be {' or '.join(_SWEEP_AXES)}, "
                           f"got {axis!r}")
    if not values:
        raise InvalidInput("sweep values must be nonempty")
    prep = _prepare(cfg)
    if axis == "width":
        # width 0 is min(rows, cols), so 0 and that width are one model
        values = [v or min(prep[0].full.shape) for v in values]
    if len(set(values)) != len(values):
        raise InvalidInput(f"sweep values must be distinct, got {values}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def one(v):
        sub = copy.deepcopy(cfg)
        sub["model"][axis] = v
        # each arm writes its own files, the default recovered one included
        sub["outputs"]["recovered_path"] = prep[1]
        for key in ("trace_csv", "recovered_path", "report_path"):
            p = sub["outputs"][key]
            if p:
                root, ext = os.path.splitext(p)
                sub["outputs"][key] = f"{root}_{axis}{v}{ext}"
        try:
            _validate_config(sub)
            return (v, _fit(sub, out_dir, prep), None)
        except _INPUT_ERRORS + _NUMERIC_ERRORS as e:  # the sweep goes on
            return (v, None, f"{type(e).__name__}: {e}")

    results = [one(v) for v in values]

    lines = [f"{axis},nmae,mse_obs,mse_unobs,iters,stop_reason,status"]
    for v, rep, err in results:
        if rep is None:
            lines.append(f"{v},nan,nan,nan,0,,failed: {err}")
        else:
            lines.append(",".join([str(v), format(rep["nmae"], ".17g"),
                                   format(rep["mse_obs"], ".17g"),
                                   format(rep["mse_unobs"], ".17g"),
                                   str(rep["iters"]), rep["stop_reason"],
                                   "ok"]))
    summary = "\n".join(lines) + "\n"
    path = _resolve(out_dir, "sweep_summary.csv")
    with open(path, "w", newline="") as f:
        f.write(summary)
    return results


# ---------------------------------------------------------------------------
# verification suite

_EXAMPLE_ROWS = np.array([[0.6, 0.8], [0.6, 0.8], [0.8, 0.6]])


def _gradcheck(seed: int) -> tuple[bool, list[str]]:
    rng = make_rng(seed)
    lines = []
    worst = 0.0

    def check(label, ana, num):
        # each parameter against its own largest finite-difference entry
        nonlocal worst
        rel = max(float(np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-300))
                  for a, b in zip(ana, num))
        worst = max(worst, rel)
        lines.append(f"gradcheck {label}: rel err {rel:.3e}")

    for m in (4, 6, 8):
        for par in ("product_form", "sum_form"):
            W = gaussian_matrix(rng, m, m, variance=0.5)
            M = gaussian_matrix(rng, m, m - 1, variance=1.0)
            p = RegParam(W, par)

            def energy(Wx, par=par, M=M):
                return dirichlet_energy(build_laplacian(RegParam(Wx, par)).L, M)

            check(f"adjacency {par} m={m}", [reg_value_and_grad(p, M)[1]],
                  [finite_difference_grad(energy, W)])
    # a 6x5 depth-3 instance for the whole-objective checks at the end
    chain = initialize(6, 5, 3, scheme="gaussian", rng=rng, variance=0.04)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    y = gaussian_matrix(rng, 1, mask.n_observed)[0]
    X = gaussian_matrix(rng, 6, 5)
    Lr = build_laplacian(RegParam(gaussian_matrix(rng, 6, 6))).L
    Lc = build_laplacian(RegParam(gaussian_matrix(rng, 5, 5))).L

    def xenergy(Xx):
        return (0.4 * dirichlet_energy(Lr, Xx) + 0.6 * dirichlet_energy(Lc, Xx.T))

    check("energy-in-X", [grad_wrt_X(Lr, Lc, X, 0.4, 0.6)],
          [finite_difference_grad(xenergy, X)])

    tvc = TvConfig(eps=1e-3)
    Xt = gaussian_matrix(rng, 6, 6)
    check("tv", [tv_value_and_grad(Xt, tvc)[1]],
          [finite_difference_grad(lambda Z: tv_value_and_grad(Z, tvc)[0], Xt)])

    # the trainer's step gradient against the total its trace logs
    lam_r, lam_c = 0.3, 0.7
    penalties = [(f"air {par}", trainer._AdaptiveReg(
        *(RegParam(gaussian_matrix(rng, k, k, variance=0.5), par)
          for k in (6, 5)), lam_r, lam_c)) for par in _PARAMETERIZATIONS]
    penalties += [("frozen", trainer._FrozenReg(Lr, Lc, lam_r, lam_c)),
                  ("tv", trainer._TvReg(tvc, lam_r)),
                  ("none", trainer._NoReg())]
    for label, strategy in penalties:
        def objective(Z, p, fidelity, strategy=strategy):
            saved, p[...] = p.copy(), Z  # p restored before returning
            X = trainer.forward(chain)
            d = apply_mask(X, mask) - y
            Rr, Rc = strategy.values(X)  # Rc is 0 for tv and none
            p[...] = saved
            fid = 0.5 * float(d @ d) if fidelity else 0.0
            return fid + lam_r * Rr + lam_c * Rc

        partials = []
        X = trainer.forward(chain, partials)
        G = lift(apply_mask(X, mask) - y, mask)
        _, _, G, w_grads = strategy.compute(X, G)
        # copies: the values() calls below write over air's W-gradients
        ana = (factor_grads_from_full(chain, G, partials)
               + [g.copy() for g in w_grads])
        # graph-parameter entries are differenced on the penalty alone: the
        # fidelity does not depend on them, and its roundoff would dominate
        check(f"objective {label}", ana, [
            finite_difference_grad(
                lambda Z, p=p, fid=j < chain.depth: objective(Z, p, fid), p)
            for j, p in enumerate(chain.factors + list(strategy.w_params))])
    lines.append(f"gradcheck worst: {worst:.3e} (pass bound 1e-5)")
    return worst < 1e-5, lines


def run_verify(kind: str, args) -> int:
    # lr and steps reach the lab only when given, so its defaults hold
    flow = {k: getattr(args, k) for k in ("lr", "steps")
            if getattr(args, k) is not None}
    if kind == "gradcheck":
        ok, lines = _gradcheck(args.seed)
        for ln in lines:
            print(ln)
        print(f"gradcheck: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 3

    if kind == "thm1":
        reports = []
        for lam_r, lam_c, label in ((args.lambda_row, args.lambda_col, "regularized"),
                                    (0.0, 0.0, "fidelity-only")):
            rep = theory_lab.verify_theorem1(
                m=args.rows, n=args.cols, L=args.depth, lam_r=lam_r,
                lam_c=lam_c, rng=make_rng(args.seed), **flow)
            v = rep.verdict
            print(f"thm1 {label}: {'PASS' if rep.passed else 'FAIL'} "
                  f"(variant {v['selected_variant']}, max rel err "
                  f"{v['max_rel_err_selected']:.3e}, statement "
                  f"{v['max_rel_err_statement']:.3e}, proof "
                  f"{v['max_rel_err_proof']:.3e})")
            reports.append(rep)
    elif kind == "thm2":
        M = _EXAMPLE_ROWS if args.matrix is None else read_matrix_csv(args.matrix)
        rep = theory_lab.verify_theorem2(M, eps_init=args.eps_init, **flow)
        v = rep.verdict
        print(f"thm2 symmetry: {'PASS' if v['sym_ok'] else 'FAIL'} "
              f"(max residual {v['sym_max']:.3e})")
        print(f"thm2 limit approach: {'PASS' if v['limit_ok'] else 'FAIL'} "
              f"(final sup error {v['err_limit_final']:.3e})")
        print(f"thm2 identical-pairs faster: "
              f"{'PASS' if v['s2_faster_ok'] else 'FAIL'} "
              f"(fraction {v['s2_faster_fraction']:.2f})")
        print(f"thm2 rate: {'PASS' if v['rate_ok'] else 'FAIL'} "
              f"(fitted {v['fitted_rate']:.5f} vs D={v['D']:.5f}, "
              f"band D/2={v['D'] / 2:.5f})")
        print(f"thm2 decay bound: {'PASS' if v['bound_ok'] else 'FAIL'}"
              + ("" if v["bound_ok"] else
                 f" (first violation at t={v['bound_first_fail_t']:.1f})"))
        print(f"thm2: {'PASS' if rep.passed else 'FAIL'}")
        reports = [rep]
    elif kind == "balance":
        rep = theory_lab.verify_balance(m=args.rows, n=args.cols,
                                        L=args.depth, rng=make_rng(args.seed),
                                        **flow)
        v = rep.verdict
        print(f"balance: {'PASS' if rep.passed else 'FAIL'} "
              f"(max relative residual {v['max_relative_residual']:.3e})")
        reports = [rep]
    else:
        raise InvalidInput(f"unknown verify kind {kind!r}")
    if args.report_csv:
        reports[0].write_csv(args.report_csv)
    return 0 if all(r.passed for r in reports) else 3


# ---------------------------------------------------------------------------
# argument parsing

def _add_run_flags(p: argparse.ArgumentParser):
    for flag, path, spec in _KEYS:
        if path is None:
            p.add_argument(flag, default=spec)
        elif flag:
            p.add_argument(flag, type=_key_type(path),
                           choices=spec if isinstance(spec, tuple) else None)


def _add_default_flags(p: argparse.ArgumentParser, section: dict, *keys):
    """A --key flag per key, typed and defaulted by a default_config()
    section."""
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), type=type(section[key]),
                       default=section[key])


def _overrides_from_args(args) -> dict:
    vals = [(path, getattr(args, flag[2:].replace("-", "_")))
            for flag, path, _ in _KEYS if flag and path]
    return _nest((path, val) for path, val in vals if val is not None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aircomplete",
        description="Matrix completion by deep factorization with a "
                    "learnable graph regularizer.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic ground-truth matrix")
    g.add_argument("--kind", choices=("lowrank", "block_ratings"),
                   default="lowrank")
    _add_default_flags(g, _DEFAULTS["data"], "rows", "cols", "rank",
                       "row_groups", "col_groups", "noise")
    _add_default_flags(g, _DEFAULTS, "seed")
    g.add_argument("--out", required=True)

    g = sub.add_parser("gen-mask", help="write an observation mask as PGM")
    g.add_argument("--kind", choices=("random", "patch", "texture"),
                   default="random")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    _add_default_flags(g, _DEFAULTS["mask"], "missing", "top", "left",
                       "height", "width", "period", "thickness")
    _add_default_flags(g, _DEFAULTS, "seed")
    g.add_argument("--out", required=True)

    g = sub.add_parser("complete", help="train a completion model")
    _add_run_flags(g)

    g = sub.add_parser("baseline", help="run a comparison method")
    g.add_argument("--method", required=True, choices=_METHOD_MODES)
    g.add_argument("--k", type=int, default=5)
    g.add_argument("--svd-rank", type=int, default=10)
    g.add_argument("--svd-tol", type=float, default=1e-6)
    g.add_argument("--svd-rounds", type=int, default=200)
    _add_run_flags(g)

    g = sub.add_parser("sweep", help="repeat a run along depth or width")
    g.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    g.add_argument("--values", required=True,
                   help="comma-separated integers, e.g. 2,3,4")
    _add_run_flags(g)

    g = sub.add_parser("verify", help="run the numerical verification suites")
    g.add_argument("--kind", required=True,
                   choices=("thm1", "thm2", "balance", "gradcheck"))
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--rows", type=int, default=8)
    g.add_argument("--cols", type=int, default=8)
    g.add_argument("--depth", type=int, default=3)
    g.add_argument("--lr", type=float, default=None)
    g.add_argument("--steps", type=int, default=None)
    g.add_argument("--lambda-row", type=float, default=0.3)
    g.add_argument("--lambda-col", type=float, default=0.7)
    g.add_argument("--eps-init", type=float, default=0.0)
    g.add_argument("--matrix", help="CSV matrix for thm2 (default: built-in "
                                    "3-row example)")
    g.add_argument("--report-csv")

    g = sub.add_parser("eval", help="score a recovered matrix against truth")
    g.add_argument("--recovered", required=True)
    g.add_argument("--truth", required=True)
    g.add_argument("--mask", required=True)
    g.add_argument("--absolute", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# command handlers

def _cmd_gen_data(args) -> int:
    # the flags are named as the data section's keys
    gt, _ = _build_data({"data": dict(vars(args), path=None)},
                        make_rng(args.seed))
    if _is_pgm(args.out):
        write_pgm(gt.full, args.out)
    else:
        write_matrix_csv(args.out, gt.full)
    print(f"wrote {args.rows}x{args.cols} {args.kind} matrix to {args.out}")
    return 0


def _cmd_gen_mask(args) -> int:
    # the flags are named as the mask section's keys
    mask = _build_mask({"mask": dict(vars(args), path=None)},
                       make_rng(args.seed), (args.rows, args.cols))
    write_mask_pgm(mask, args.out)
    print(f"wrote mask ({mask.n_observed} observed of "
          f"{args.rows * args.cols}) to {args.out}")
    return 0


def _cmd_complete(args, cfg=None) -> int:
    if cfg is None:
        cfg = load_config(args.config, _overrides_from_args(args))
    try:
        report = run_complete(cfg, args.out_dir)
    except _NUMERIC_ERRORS as e:
        trace = getattr(e, "trace", None)
        if trace is not None and cfg["outputs"]["trace_csv"]:
            trace.write_csv(_resolve(args.out_dir, cfg["outputs"]["trace_csv"]))
            print("partial trace flushed", file=sys.stderr)
        raise
    print(json.dumps(report, indent=2))
    return 0


def _cmd_baseline(args) -> int:
    cfg = load_config(args.config, _overrides_from_args(args))
    cfg["regularizer"]["mode"] = _METHOD_MODES[args.method]
    if args.method in ("dmf", "tv", "fixed"):
        return _cmd_complete(args, cfg)
    prep = _prepare(cfg)
    truth, _, mask = prep[:3]
    masked = np.where(mask.observed, truth.full, 0.0)
    if args.method == "knn":
        X = knn_impute(masked, mask, args.k)
    else:
        X = svd_impute(masked, mask, args.svd_rank, tol=args.svd_tol,
                       max_rounds=args.svd_rounds)
    # an empty trace: no trace file, 0 iterations
    report = _write_outputs(_output_paths(cfg, args.out_dir, prep[1]), X,
                            MetricTrace(stop_reason=args.method), prep)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, _overrides_from_args(args))
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise InvalidInput(f"sweep values must be integers, got {args.values!r}")
    run_sweep(cfg, args.axis, values, args.out_dir)
    print(f"sweep complete, summary in "
          f"{_resolve(args.out_dir, 'sweep_summary.csv')}")
    return 0


def _cmd_eval(args) -> int:
    rec = _load_unit_matrix(args.recovered)
    truth, _ = _build_data({"data": {"path": args.truth}}, None)
    mask = read_mask_pgm(args.mask)
    mse_obs, mse_unobs, nmae = trainer.metrics(rec, truth, mask,
                                               absolute=args.absolute)
    print(json.dumps({"nmae": nmae, "mse_obs": mse_obs,
                      "mse_unobs": mse_unobs}, indent=2))
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "gen-mask": _cmd_gen_mask,
    "complete": _cmd_complete,
    "baseline": _cmd_baseline,
    "sweep": _cmd_sweep,
    "verify": lambda args: run_verify(args.kind, args),
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
