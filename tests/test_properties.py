"""Property tests of the graph energy and its W-gradient over random shapes,
both parameterizations, and inputs with duplicated rows, of the adjacency
under a constant shift of W, and of the PGM reader and the config loader
on generated input."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from aircomplete.air_reg import (_LOG_MAX, RegParam, _adjacency,  # noqa: E402
                                 reg_value_and_grad)
from aircomplete.cli import default_config, load_config  # noqa: E402
from aircomplete.data_lab import read_pgm, write_pgm  # noqa: E402
from aircomplete.errors import (InvalidInput, NumericOverflow,  # noqa: E402
                                ParseError)
from aircomplete.mat_core import make_rng  # noqa: E402
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


@settings(max_examples=60, deadline=None)
@given(graph_inputs(), st.floats(-1e4, 1e4))
def test_constant_shift_of_w(inputs, c):
    """W + c leaves E and the sum-form A unchanged and shifts the
    product-form log A by c, raising exactly when that passes log(float
    max). The tolerance is 1e-12 relative plus the rounding of W + c."""
    p, _ = inputs
    tol = 1e-12 + 4 * np.finfo(float).eps * abs(c)
    A0, E0 = _adjacency(p)
    shifted = RegParam(p.W + c, p.parameterization)
    if p.parameterization == "sum_form":
        A1, E1 = _adjacency(shifted)
        assert np.allclose(A1, A0, rtol=tol, atol=0)
        assert np.allclose(E1, E0, rtol=tol, atol=0)
        return
    log_a = np.log(A0) + c
    assume(abs(log_a.max() - _LOG_MAX) > tol)
    if log_a.max() > _LOG_MAX:
        with pytest.raises(NumericOverflow):
            _adjacency(shifted)
        return
    A1, E1 = _adjacency(shifted)
    assert np.allclose(E1, E0, rtol=tol, atol=0)
    normal = log_a > np.log(np.finfo(float).tiny)
    assert np.allclose(np.log(A1[normal]), log_a[normal],
                       rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# PGM files and config keys: input from outside the program


@st.composite
def pgm_images(draw):
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    pix = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    return np.array(pix, dtype=np.float64).reshape(h, w)


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
