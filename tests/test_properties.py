"""Property tests of the graph energy and its W-gradient over random shapes,
both parameterizations, and inputs with duplicated rows, and of the
adjacency under a constant shift of W."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from aircomplete.air_reg import (_LOG_MAX, RegParam, _adjacency,  # noqa: E402
                                 reg_value_and_grad)
from aircomplete.errors import NumericOverflow  # noqa: E402
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
