"""Synthetic data generation, PGM image I/O, masks, and the sampling operator.

The sampling operator A extracts observed entries in row-major order; its
complement extracts the unobserved ones; the adjoint zero-fills a value
vector back to matrix shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, ParseError
from .mat_core import as_matrix

__all__ = [
    "SamplingMask",
    "GroundTruth",
    "apply_mask",
    "lift",
    "generate_mask",
    "gen_lowrank",
    "gen_block_ratings",
    "read_pgm",
    "write_pgm",
    "read_mask_pgm",
    "write_mask_pgm",
]


@dataclass(frozen=True)
class SamplingMask:
    """Boolean observation pattern. True entries are observed.

    The pattern is fixed at construction (its count and the row-major flat
    indices of its observed entries are cached), so the array must not be
    modified afterwards.
    """

    observed: np.ndarray
    _n_observed: int = field(init=False, repr=False, compare=False)
    _flat_observed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=bool)
        if obs.ndim != 2:
            raise InvalidInput("mask must be 2-dimensional")
        if not obs.any():
            raise InvalidInput("mask must observe at least one entry")
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "_n_observed", int(obs.sum()))
        object.__setattr__(self, "_flat_observed", np.flatnonzero(obs))

    @property
    def n_observed(self) -> int:
        return self._n_observed

    @property
    def n_unobserved(self) -> int:
        return self.observed.size - self._n_observed


@dataclass(frozen=True)
class GroundTruth:
    """A fully known matrix plus its value range, used for evaluation."""

    full: np.ndarray
    value_range: tuple[float, float]
    _split: tuple = field(default=(None,), init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        full = as_matrix(self.full, "ground truth")
        lo, hi = self.value_range
        if not (np.isfinite(lo) and np.isfinite(hi) and hi >= lo):
            raise InvalidInput(f"bad value range ({lo}, {hi})")
        object.__setattr__(self, "full", full)

    def split(self, mask: "SamplingMask") -> tuple[np.ndarray, np.ndarray]:
        """Truth at mask's observed and unobserved positions, row-major.

        The slices for the last mask are kept, so scoring every checkpoint
        of a run against one mask slices the truth once.
        """
        split = self._split  # one read, so concurrent callers stay consistent
        if split[0] is not mask:
            split = (mask, apply_mask(self.full, mask),
                     apply_mask(self.full, mask, "unobserved"))
            object.__setattr__(self, "_split", split)
        return split[1], split[2]

    @classmethod
    def from_matrix(cls, full) -> "GroundTruth":
        full = as_matrix(full, "ground truth")
        return cls(full, (float(full.min()), float(full.max())))


def apply_mask(X, mask: SamplingMask, which: str = "observed") -> np.ndarray:
    """Entries of X at the selected positions, row-major order."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape != mask.observed.shape:
        raise InvalidInput(f"shape mismatch: {X.shape} vs mask {mask.observed.shape}")
    if which == "observed":
        return X.take(mask._flat_observed)
    if which == "unobserved":
        # a boolean gather: the complement's flat indices would be large
        return X[~mask.observed]
    raise InvalidInput(f"which must be 'observed' or 'unobserved', got {which!r}")


def lift(values, mask: SamplingMask) -> np.ndarray:
    """Adjoint of entry sampling: zero-fill observed values to matrix shape."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mask.n_observed,):
        raise InvalidInput(f"expected {mask.n_observed} values, got {values.shape}")
    out = np.zeros(mask.observed.shape)
    out.ravel()[mask._flat_observed] = values
    return out


def generate_mask(rng: np.random.Generator, rows: int, cols: int,
                  kind: str, **params) -> SamplingMask:
    """Build an observation mask.

    Kinds
    -----
    random : p
        Exactly round(p * rows * cols) entries unobserved, chosen by a
        seeded shuffle so missing rates are reproducible in tables.
    patch : r0, c0, h, w
        The h x w rectangle at (r0, c0) unobserved.
    texture : period, thickness
        Periodic horizontal and vertical stripes unobserved: every row r
        with r % period < thickness, and likewise for columns.
    """
    if rows < 1 or cols < 1:
        raise InvalidInput("mask dimensions must be positive")
    observed = np.ones((rows, cols), dtype=bool)
    if kind == "random":
        p = float(params["p"])
        if not 0.0 < p < 1.0:
            raise InvalidInput(f"missing rate p must lie in (0, 1), got {p}")
        n_miss = round(p * rows * cols)
        flat = rng.permutation(rows * cols)
        observed.reshape(-1)[flat[:n_miss]] = False
    elif kind == "patch":
        r0, c0 = int(params["r0"]), int(params["c0"])
        h, w = int(params["h"]), int(params["w"])
        if h < 1 or w < 1 or r0 < 0 or c0 < 0 or r0 + h > rows or c0 + w > cols:
            raise InvalidInput(f"patch ({r0},{c0},{h},{w}) out of bounds for {rows}x{cols}")
        observed[r0:r0 + h, c0:c0 + w] = False
    elif kind == "texture":
        period, thickness = int(params["period"]), int(params["thickness"])
        if period < 2 or thickness < 1 or thickness >= period:
            raise InvalidInput(f"need 1 <= thickness < period and period >= 2, "
                               f"got period={period} thickness={thickness}")
        rr = np.arange(rows) % period < thickness
        cc = np.arange(cols) % period < thickness
        observed[rr, :] = False
        observed[:, cc] = False
    else:
        raise InvalidInput(f"unknown mask kind {kind!r}")
    if not observed.any():
        raise InvalidInput("mask leaves no observed entries")
    return SamplingMask(observed)


def gen_lowrank(rng: np.random.Generator, m: int, n: int, rank: int) -> GroundTruth:
    """Exact rank-`rank` matrix G H^T with standard Gaussian factors."""
    if rank < 1 or rank > min(m, n):
        raise InvalidInput(f"rank must lie in [1, {min(m, n)}], got {rank}")
    G = rng.normal(size=(m, rank))
    H = rng.normal(size=(n, rank))
    return GroundTruth.from_matrix(G @ H.T)


def gen_block_ratings(rng: np.random.Generator, m: int, n: int,
                      row_groups: int, col_groups: int,
                      noise: float = 0.0) -> GroundTruth:
    """Piecewise-constant ratings-style matrix with known group structure.

    One base value per (row group, col group) cell, drawn uniformly from
    {1..5}, expanded to blocks. With noise 0, rows in the same group are
    identical, which gives a ground-truth instance of the identical-row
    pair structure the convergence theory is stated for.
    """
    if row_groups < 1 or m % row_groups != 0:
        raise InvalidInput(f"row_groups must divide m ({m}), got {row_groups}")
    if col_groups < 1 or n % col_groups != 0:
        raise InvalidInput(f"col_groups must divide n ({n}), got {col_groups}")
    base = rng.integers(1, 6, size=(row_groups, col_groups)).astype(np.float64)
    full = np.kron(base, np.ones((m // row_groups, n // col_groups)))
    if noise < 0:
        raise InvalidInput("noise must be nonnegative")
    if noise > 0:
        full = full + rng.normal(0.0, noise, size=(m, n))
    return GroundTruth.from_matrix(full)


# ---------------------------------------------------------------------------
# PGM files. P2 (ASCII) and P5 (binary) are read; P5 is written. Mask files
# reuse P5 with 0 = unobserved, 255 = observed.

def _tokenize_header(data: bytes, n_tokens: int):
    """First n_tokens whitespace-separated tokens, skipping # comments.

    Returns the tokens and the offset one past the single whitespace byte
    that terminates the last token.
    """
    tokens = []
    i = 0
    while len(tokens) < n_tokens:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
            i += 1
        if i == start:
            raise ParseError("unexpected end of header", start)
        tokens.append((data[start:i], start))
        if len(tokens) == n_tokens:
            if i >= len(data):
                raise ParseError("missing whitespace after header", i)
            i += 1  # exactly one whitespace byte separates header and payload
    return tokens, i


def read_pgm(path) -> GroundTruth:
    """Read a P2 or P5 PGM file as a matrix of raw pixel values."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise ParseError("file too short for a PGM magic number", 0)
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported magic {magic!r}", 0)
    tokens, payload_off = _tokenize_header(data, 4)
    dims = []
    for tok, off in tokens[1:]:
        try:
            dims.append(int(tok))
        except ValueError:
            raise ParseError(f"non-integer header field {tok!r}", off) from None
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}", tokens[1][1])
    if not 0 < maxval <= 65535:
        raise ParseError(f"maxval {maxval} out of range [1, 65535]", tokens[3][1])
    if magic == b"P2":
        text = data[payload_off:]
        try:
            vals = np.array([int(t) for t in text.split()], dtype=np.float64)
        except ValueError:
            raise ParseError("non-integer pixel in P2 payload", payload_off) from None
        if vals.size != width * height:
            raise ParseError(
                f"P2 payload has {vals.size} pixels, expected {width * height}",
                payload_off)
    else:
        bytes_per = 1 if maxval <= 255 else 2
        need = width * height * bytes_per
        payload = data[payload_off:payload_off + need]
        if len(payload) < need:
            raise ParseError(
                f"P5 payload truncated, {need - len(payload)} bytes missing",
                payload_off + len(payload))
        dt = np.uint8 if bytes_per == 1 else np.dtype(">u2")
        vals = np.frombuffer(payload, dtype=dt).astype(np.float64)
    if vals.size and (vals.max() > maxval or vals.min() < 0):
        raise ParseError(f"pixel value outside [0, {maxval}]", payload_off)
    full = vals.reshape(height, width)
    return GroundTruth(full, (0.0, float(maxval)))


def write_pgm(X, path) -> None:
    """Write X as binary P5 with maxval 255, clamping and rounding entries."""
    X = as_matrix(X, "image")
    pix = np.clip(np.rint(X), 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def write_mask_pgm(mask: SamplingMask, path) -> None:
    """Store a mask as P5: 255 where observed, 0 where unobserved."""
    write_pgm(np.where(mask.observed, 255.0, 0.0), path)


def read_mask_pgm(path) -> SamplingMask:
    gt = read_pgm(path)
    return SamplingMask(gt.full > 127)
