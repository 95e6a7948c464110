"""Property tests of the graph energy and its W-gradient over random shapes,
both parameterizations, and inputs with duplicated rows, of the adjacency
under a constant shift of W, of the step kernels writing into given arrays,
of the flow-limit oracles against their pair-loop definitions, and of the
PGM reader and the config loader on generated input."""
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from aircomplete import air_reg, trainer  # noqa: E402
from aircomplete.air_reg import (_LOG_MAX, RegParam,  # noqa: E402
                                 _adjacency_rows, _exp_scale, _laplacian,
                                 _normalized_exp, decay_constant,
                                 identical_row_pairs, limit_laplacian,
                                 reg_value_and_grad)
from aircomplete.baselines import TvConfig, tv_value_and_grad  # noqa: E402
from aircomplete.cli import default_config, load_config  # noqa: E402
from aircomplete.data_lab import (GroundTruth, apply_mask,  # noqa: E402
                                  generate_mask, lift, read_pgm, write_pgm)
from aircomplete.dmf import (_step_shapes,  # noqa: E402
                             factor_grads_from_full, forward, initialize)
from aircomplete.errors import (InvalidInput, NumericOverflow,  # noqa: E402
                                ParseError)
from aircomplete.mat_core import (_planned, _Plan, _Scratch,  # noqa: E402
                                  make_rng)
from test_air_reg import fd_energy_grad, pairwise_energy  # noqa: E402

FORMS = ("product_form", "sum_form")


@st.composite
def graph_inputs(draw):
    """(RegParam, M): W with entries of order 1, M with 2-9 rows and 1-6
    columns; when it has 3 or more rows, one row may be a copy of another
    (two distinct rows always remain, so the energy is not zero)."""
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, 6))
    form = draw(st.sampled_from(FORMS))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.normal(scale=0.7, size=(m, m))
    M = rng.standard_normal((m, n))
    if m >= 3 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(m)))[:2]
        M[dst] = M[src]
    return RegParam(W, form), M


def adjacency_by_formula(p):
    # exp(W + W^T)/S or (exp(W) + exp(W)^T)/S, straight from the definition
    W = p.W
    S = np.exp(W).sum()
    if p.parameterization == "product_form":
        return np.exp(W + W.T) / S
    return (np.exp(W) + np.exp(W.T)) / S


@settings(max_examples=40, deadline=None)
@given(graph_inputs())
def test_energy_is_half_the_weighted_pairwise_sum(inputs):
    p, M = inputs
    R, _ = reg_value_and_grad(p, M)
    assert R == pytest.approx(pairwise_energy(adjacency_by_formula(p), M),
                              rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(graph_inputs())
def test_w_gradient_matches_central_differences(inputs):
    p, M = inputs
    _, G = reg_value_and_grad(p, M)
    num = fd_energy_grad(p, M)
    assert np.abs(G - num).max() / np.abs(num).max() < 1e-5


def adjacency(p):
    # (A, E) as the graph sweep forms them, with E = exp(W)/S
    c, s, _ = _exp_scale(p.W)
    return _adjacency_rows(p, c, s), _normalized_exp(p.W, c, s)


@settings(max_examples=60, deadline=None)
@given(graph_inputs(), st.floats(-1e4, 1e4))
def test_constant_shift_of_w(inputs, c):
    """W + c leaves E and the sum-form A unchanged and shifts the
    product-form log A by c, raising exactly when that passes log(float
    max). The tolerance is 1e-12 relative plus the rounding of W + c."""
    p, _ = inputs
    tol = 1e-12 + 4 * np.finfo(float).eps * abs(c)
    A0, E0 = adjacency(p)
    shifted = RegParam(p.W + c, p.parameterization)
    if p.parameterization == "sum_form":
        A1, E1 = adjacency(shifted)
        assert np.allclose(A1, A0, rtol=tol, atol=0)
        assert np.allclose(E1, E0, rtol=tol, atol=0)
        return
    log_a = np.log(A0) + c
    assume(abs(log_a.max() - _LOG_MAX) > tol)
    if log_a.max() > _LOG_MAX:
        with pytest.raises(NumericOverflow):
            adjacency(shifted)
        return
    A1, E1 = adjacency(shifted)
    assert np.allclose(E1, E0, rtol=tol, atol=0)
    normal = log_a > np.log(np.finfo(float).tiny)
    assert np.allclose(np.log(A1[normal]), log_a[normal],
                       rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# PGM files and config keys: input from outside the program


@st.composite
def step_shapes(draw):
    """(m, n, depth, width, form, rows per graph block, plan, seed): graphs
    of one block or several, widths below and above min(m, n)."""
    m, n = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    return (m, n, draw(st.integers(2, 4)),
            draw(st.integers(1, max(m, n) + 2)), draw(st.sampled_from(FORMS)),
            draw(st.integers(2, 9)), draw(st.sampled_from(
                [_Plan(), _Plan(True, True)])), draw(st.integers(0, 2**32 - 1)))


def same(a, b):
    return np.array_equal(a, b) and a.shape == b.shape


@settings(max_examples=40, deadline=None)
@given(step_shapes())
def test_calls_into_given_arrays_keep_the_allocating_calls_bits(case):
    # two rounds of new inputs through one set of arrays and one scratch,
    # against the allocating calls on one lane: an un-zeroed G, an old
    # Gram matrix or block left in a buffer would show in the second
    m, n, L, r, form, block, plan, seed = case
    rng = make_rng(seed)
    scratch, lam = _Scratch(), 0.3
    saved, air_reg._GRAPH_BLOCK = air_reg._GRAPH_BLOCK, block
    try:
        prods, grad_shapes, ts = _step_shapes(
            initialize(m, n, L, r, rng=make_rng(0)))
        outs = [np.empty(s) for s in prods]
        grad_outs = [np.empty(s) for s in grad_shapes]
        t_bufs = [np.empty(max(m * n, *map(math.prod, ts))) for _ in "ab"]
        arrays = [air_reg._step_arrays(RegParam(np.zeros((k, k))))
                  for k in (m, n)]
        diff_buf, G1 = np.empty(m * n), t_bufs[1][:m * n].reshape(m, n)
        cfg = trainer.TrainConfig()
        for _ in range(2):
            chain = initialize(m, n, L, r, rng=rng, variance=1.0)
            mask = generate_mask(rng, m, n, "random", p=0.4)
            y = rng.standard_normal(mask.n_observed)
            gt = GroundTruth.from_matrix(rng.standard_normal((m, n)))
            graphs = [RegParam(rng.normal(scale=0.7, size=(k, k)), form)
                      for k in (m, n)]
            Ls = [air_reg.build_laplacian(p).L for p in graphs]
            params = [[a.copy() for a in chain.factors] for _ in "ab"]
            moments = [([np.ones_like(a) for a in chain.factors],
                        [np.ones_like(a) for a in chain.factors])
                       for _ in "ab"]
            # the allocating calls
            p0 = []
            X0 = forward(chain, p0)
            products = [X0] + p0
            d0 = apply_mask(X0, mask)
            scores = trainer.metrics(X0, gt, mask)
            G0 = lift(d0 - y, mask)
            lifted = G0.copy()
            regs = [reg_value_and_grad(p, M, lam=lam, out=out)
                    for p, M, out in zip(graphs, (X0, X0.T), (G0, G0.T))]
            H0 = G0.copy()
            frozen = trainer._FrozenReg(*Ls, lam, lam).compute(X0, H0)[:2]
            tv = tv_value_and_grad(X0, TvConfig())
            grads0 = (factor_grads_from_full(chain, G0, p0)
                      + [gW for _, gW in regs])
            trainer.adam_step(params[0], grads0[:L], moments[0], 3, cfg)
            # the same calls into the arrays and the scratch, under the plan
            with _planned(plan._replace(scratch=scratch)):
                p1 = []
                X1 = forward(chain, p1, outs)
                assert all(map(same, products, [X1] + p1))
                d1 = apply_mask(X1, mask, "observed",
                                diff_buf[:mask.n_observed])
                assert same(d0, d1)
                assert scores == trainer.metrics(
                    X1, gt, mask, False, t_bufs[1][:mask.n_unobserved])
                d1 -= y
                assert same(lifted, lift(d1, mask, G1))
                K1 = []
                for p, M, out, arr, (R0, gW0) in zip(
                        graphs, (X1, X1.T), (G1, G1.T), arrays, regs):
                    ahead = air_reg._gram_ahead(p, M, arr)
                    R1, gW1 = reg_value_and_grad(p, M, lam=lam, out=out,
                                                 ahead=ahead, arrays=arr)
                    assert R0 == R1 and same(gW0, gW1)
                    K1.append(gW1)
                assert same(G0, G1)
                H1 = G1.copy()
                assert frozen == trainer._FrozenReg(
                    *Ls, lam, lam).compute(X1, H1)[:2]
                assert same(H0, H1)
                v1, t1 = tv_value_and_grad(X1, TvConfig())
                assert tv[0] == v1 and same(tv[1], t1)
                # the first T is not written over G, which it is formed from
                grads1 = factor_grads_from_full(chain, G1, p1, grad_outs,
                                                t_bufs) + K1
                assert all(map(same, grads0, grads1))
                trainer.adam_step(params[1], grads1[:L], moments[1], 3, cfg,
                                  scratch)
            for a, b in zip(params[0] + moments[0][0] + moments[0][1],
                            params[1] + moments[1][0] + moments[1][1]):
                assert same(a, b)
    finally:
        air_reg._GRAPH_BLOCK = saved


@st.composite
def pgm_images(draw):
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    pix = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    return np.array(pix, dtype=np.float64).reshape(h, w)


# the flow-limit oracles written as loops over row pairs, straight from
# their definitions: the reference for their bits

def pairs_by_loop(M, tol):
    out = []
    for k in range(M.shape[0]):
        for l in range(k + 1, M.shape[0]):
            if np.max(np.abs(M[k] - M[l])) <= tol:
                out.append((k, l))
    return out


def limit_by_loop(M, tol):
    m = M.shape[0]
    pairs = pairs_by_loop(M, tol)
    s = len(pairs)
    gamma = 2.0 / (m + 2 * s)
    A = gamma * np.eye(m)
    for k, l in pairs:
        A[k, l] = A[l, k] = gamma
    return _laplacian(A, out=A), gamma, s


def decay_by_loop(M, tol):
    m = M.shape[0]
    ident = set(pairs_by_loop(M, tol))
    best = None
    P = M @ M.T
    for k in range(m):
        for l in range(k + 1, m):
            if (k, l) in ident:
                continue
            C_kl = 1.0 - P[k, l]
            best = C_kl if best is None else min(best, C_kl)
    if best is None:
        warnings.warn("all rows identical: decay constant degenerates to 0")
        return 0.0
    return 4.0 * best / (m * m)


@st.composite
def flow_rows(draw):
    """(M, tol): up to 12 positive unit rows, copies of up to 4 distinct
    ones, with up to 3 entries moved by exactly tol or by 2 tol, where tol
    is the rounded step a move by it makes from an unmoved copy."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    base = np.abs(rng.standard_normal((draw(st.integers(1, 4)), n))) + 0.1
    base /= np.linalg.norm(base, axis=1)[:, None]
    M = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=m,
                           max_size=m))]
    step = draw(st.sampled_from([1e-12, 1e-11, 1e-10]))
    for k, j, times in draw(st.lists(st.tuples(
            st.integers(0, m - 1), st.integers(0, n - 1), st.integers(1, 2)),
            max_size=3)):
        moved = M[k, j] + times * step
        if times == 1:
            step = moved - M[k, j]
        M[k, j] = moved
    return M, step


def recorded(f, *args):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = f(*args)
    return out, [str(w.message) for w in rec]


@settings(max_examples=150, deadline=None)
@given(flow_rows())
def test_flow_oracles_match_their_pair_loops(case):
    M, tol = case
    assert identical_row_pairs(M, tol) == pairs_by_loop(M, tol)
    L, gamma, s = limit_laplacian(M, tol)
    L_ref, gamma_ref, s_ref = limit_by_loop(M, tol)
    assert np.array_equal(L, L_ref) and gamma == gamma_ref and s == s_ref
    D, warned = recorded(decay_constant, M, tol)
    D_ref, warned_ref = recorded(decay_by_loop, M, tol)
    assert D == D_ref and warned == warned_ref


@settings(max_examples=40, deadline=None)
@given(pgm_images())
def test_pgm_round_trips_8bit_matrices(tmp_path_factory, X):
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    write_pgm(X, path)
    gt = read_pgm(path)
    assert np.array_equal(gt.full, X)
    assert gt.value_range == (0.0, 255.0)


@st.composite
def garbled_pgm_files(draw):
    """A valid P2 or P5 file whose header is cut short, or has bytes
    overwritten or inserted (possibly whitespace, digits or '#')."""
    X = draw(pgm_images())
    h, w = X.shape
    header = draw(st.sampled_from([f"P5\n{w} {h}\n255\n",
                                   f"P2\n# c\n{w} {h}\n255\n"])).encode()
    if header.startswith(b"P5"):
        payload = X.astype(np.uint8).tobytes()
    else:
        payload = " ".join(str(int(v)) for v in X.ravel()).encode()
    data = bytearray(header)
    edit = draw(st.sampled_from(["cut", "overwrite", "insert"]))
    at = draw(st.integers(0, len(header) - 1))
    junk = draw(st.binary(min_size=1, max_size=4)
                | st.sampled_from([b" ", b"\n", b"#", b"0", b"-1", b"99999"]))
    if edit == "cut":
        return bytes(data[:at])
    if edit == "overwrite":
        data[at:at + len(junk)] = junk
    else:
        data[at:at] = junk
    return bytes(data) + payload


@settings(max_examples=150, deadline=None)
@given(garbled_pgm_files())
def test_garbled_pgm_header_raises_only_parse_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pgm") / "bad.pgm"
    path.write_bytes(data)
    try:
        gt = read_pgm(path)
    except ParseError:
        return
    # an edit can leave a valid file (e.g. a space turned into a newline)
    assert gt.full.ndim == 2 and gt.value_range[0] == 0.0


@st.composite
def unknown_key_configs(draw):
    """(overrides, dotted path): one key unknown to default_config(),
    at the top level or inside a section, holding a scalar or an object."""
    tree, path = default_config(), []
    while True:
        sections = [k for k, v in tree.items() if isinstance(v, dict)]
        if not sections or draw(st.booleans()):
            break
        key = draw(st.sampled_from(sections))
        tree, path = tree[key], path + [key]
    bad = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in tree))
    node = draw(st.integers() | st.dictionaries(st.text(max_size=3),
                                                st.integers(), max_size=2))
    for key in reversed(path + [bad]):
        node = {key: node}
    return node, ".".join(path + [bad])


@settings(max_examples=60, deadline=None)
@given(unknown_key_configs())
def test_unknown_config_key_is_rejected_by_its_dotted_path(case):
    overrides, dotted = case
    with pytest.raises(InvalidInput) as exc:
        load_config(None, overrides)
    assert str(exc.value) == f"unknown config key {dotted!r}"
