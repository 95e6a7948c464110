"""Flow verification harness: report plumbing and the three checkers."""
import numpy as np
import pytest

from aircomplete.air_reg import RegParam
from aircomplete.data_lab import SamplingMask, apply_mask
from aircomplete.dmf import forward, initialize
from aircomplete.errors import InvalidInput
from aircomplete.mat_core import gaussian_matrix, make_rng
from aircomplete.theory_lab import (FlowReport, _descend, verify_balance,
                                    verify_theorem1, verify_theorem2)
from aircomplete.trainer import (ModelState, TrainConfig, _AdaptiveReg,
                                 _NoReg, train)

THREE_ROWS = np.array([[0.6, 0.8], [0.6, 0.8], [0.8, 0.6]])


# ---------------------------------------------------------------------------
# report plumbing

def test_flow_report_add_row_validation():
    rep = FlowReport(kind="x", columns=("t", "v"))
    rep.add_row((0.0, 1.0))
    rep.add_row((0.0, 2.0))          # ties allowed
    rep.add_row((1.0, 3.0))
    with pytest.raises(InvalidInput):
        rep.add_row((0.5, 4.0))      # time went backwards
    with pytest.raises(InvalidInput):
        rep.add_row((2.0,))          # wrong width
    with pytest.raises(InvalidInput):
        rep.add_row((2.0, np.nan))


def test_flow_report_csv_layout(tmp_path):
    rep = FlowReport(kind="x", columns=("t", "v"))
    rep.add_row((0.0, 1.0 / 3.0))
    rep.verdict = {"passed": True, "score": 0.25}
    text = rep.to_csv()
    lines = text.splitlines()
    assert lines[0] == "t,v"
    assert lines[1] == "0,0.33333333333333331"
    assert lines[2] == "verdict,passed=True;score=0.25"
    assert text.endswith("\n")
    p = tmp_path / "rep.csv"
    rep.write_csv(p)
    assert p.read_text() == text


def test_flow_report_passed_defaults_false():
    assert not FlowReport(kind="x", columns=("t",)).passed


# ---------------------------------------------------------------------------
# singular value dynamics

def test_theorem1_argument_validation():
    with pytest.raises(InvalidInput):
        verify_theorem1(lr=1e-3, rng=make_rng(0))
    with pytest.raises(InvalidInput):
        verify_theorem1()
    with pytest.raises(InvalidInput):
        verify_theorem1(steps=100, rng=make_rng(0))


def test_theorem1_regularized_matches_weighted_variant():
    rep = verify_theorem1(rng=make_rng(7))
    assert rep.passed
    assert rep.verdict["selected_variant"] == "proof"
    assert rep.verdict["max_rel_err_selected"] == pytest.approx(
        2.6053750886e-4, rel=1e-6)
    # the unweighted variant misses by two orders of magnitude more
    assert rep.verdict["max_rel_err_statement"] > 0.05


def test_theorem1_fidelity_only_run_passes():
    rep = verify_theorem1(lam_r=0.0, lam_c=0.0, rng=make_rng(7))
    assert rep.passed
    assert rep.verdict["selected_variant"] == "fidelity_only"
    assert rep.verdict["max_rel_err_selected"] < 5e-4


@pytest.mark.parametrize("depth", [2, 4])
def test_theorem1_prediction_holds_across_depths(depth):
    rep = verify_theorem1(L=depth, rng=make_rng(7))
    assert rep.passed
    assert rep.verdict["max_rel_err_selected"] < 5e-3


def test_theorem1_regularizer_only_shrinks_singular_values():
    # aim the fidelity at the initial product so only the penalty acts;
    # over checkpoints 10 to 100 every measured rate and every prediction
    # must be negative
    rng = make_rng(42)
    chain = initialize(8, 8, 3, scheme="balanced_spectral", rng=rng)
    rep = verify_theorem1(rng=make_rng(42), target=forward(chain))
    rows = np.array(rep.rows)
    # columns: t, k, sigma, sigma_dot, pred_statement, pred_proof, errs
    ckpt = np.rint(rows[:, 0] / (10 * 1e-5))
    window = rows[(ckpt >= 10) & (ckpt <= 100)]
    assert len(window) == 3 * 91
    assert (window[:, 3] < 0).all()
    assert (window[:, 5] < 0).all()


def test_theorem1_report_rows_are_consistent():
    rep = verify_theorem1(rng=make_rng(7))
    rows = np.array(rep.rows)
    # columns: t, k, sigma, sigma_dot, pred_statement, pred_proof, errs
    assert set(rows[:, 1]) == {0.0, 1.0, 2.0}
    assert (rows[:, 2] > 0).all()
    recomputed = np.abs(rows[:, 5] - rows[:, 3]) / np.abs(rows[:, 3])
    assert np.allclose(recomputed, rows[:, 7])


@pytest.mark.parametrize("lam_r, lam_c", [(0.3, 0.7), (0.0, 0.0),
                                          (0.0, 0.5)])
def test_lab_flow_takes_the_trainers_gradient_step(lam_r, lam_c):
    def model():
        rng = make_rng(31)
        return ModelState(
            initialize(6, 5, 3, scheme="gaussian", rng=rng, variance=1e-2),
            RegParam(gaussian_matrix(rng, 6, 6, variance=1e-5)),
            RegParam(gaussian_matrix(rng, 5, 5, variance=1e-5)))

    lab, trained = model(), model()
    Y = make_rng(32).standard_normal((6, 5))
    strategy = (_AdaptiveReg(lab.reg_row, lab.reg_col, lam_r, lam_c)
                if lam_r or lam_c else _NoReg())
    for _ in _descend(lab.chain, strategy, Y, 1e-4, 25):
        pass
    mask = SamplingMask(np.ones((6, 5), dtype=bool))
    cfg = TrainConfig(optimizer="gd", lr=1e-4, max_iters=25, log_every=25,
                      lambda_mode="explicit", lambda_row=lam_r,
                      lambda_col=lam_c)
    train(trained, mask, apply_mask(Y, mask), cfg)
    for a, b in zip(lab.chain.factors + [lab.reg_row.W, lab.reg_col.W],
                    trained.chain.factors + [trained.reg_row.W,
                                             trained.reg_col.W]):
        assert np.array_equal(a, b)
    assert not np.array_equal(lab.chain.factors[0],
                              model().chain.factors[0])


# ---------------------------------------------------------------------------
# adjacency flow

def test_theorem2_example_structural_checks_hold():
    rep = verify_theorem2(THREE_ROWS, steps=2000)
    v = rep.verdict
    assert v["gamma"] == pytest.approx(0.4)
    assert v["s"] == 1
    assert v["D"] == pytest.approx(4 * 0.04 / 9)
    assert v["sym_ok"] and v["sym_max"] == 0.0
    assert v["limit_ok"]
    assert v["s2_faster_ok"] and v["s2_faster_fraction"] == 1.0
    assert v["bound_ok"]


def test_theorem2_rate_fit_stays_below_claimed_constant():
    # the flow settles polynomially here, so the fitted exponential rate
    # lands well under D/2 and the verdict correctly reports the miss
    rep = verify_theorem2(THREE_ROWS, steps=2000)
    v = rep.verdict
    assert not v["rate_ok"]
    assert v["fitted_rate"] == pytest.approx(5.0417e-3, rel=1e-4)
    assert v["fitted_rate"] < v["D"] / 2
    assert not rep.passed


def test_theorem2_degenerate_all_identical_rows():
    with pytest.warns(UserWarning):
        rep = verify_theorem2(np.array([[0.6, 0.8], [0.6, 0.8]]), steps=200)
    v = rep.verdict
    assert rep.passed
    assert v["gamma"] == pytest.approx(0.5)
    assert v["D"] == 0.0
    assert v["err_limit_final"] == 0.0
    assert v["fitted_rate"] == 0.0


def test_theorem2_initialization_shift_invariance():
    # the softmax-style normalization cancels any constant offset in W
    a = verify_theorem2(THREE_ROWS, steps=100, eps_init=0.0)
    b = verify_theorem2(THREE_ROWS, steps=100, eps_init=5.0)
    assert np.allclose(np.array(a.rows), np.array(b.rows),
                       rtol=1e-9, atol=1e-12)


def test_theorem2_bound_certified_at_every_checkpoint():
    rep = verify_theorem2(THREE_ROWS, steps=2000)
    rows = np.array(rep.rows)
    assert (rows[:, 1] <= rows[:, 6]).all()
    assert rep.verdict["bound_first_fail_t"] is None


def test_adjacency_flow_reaches_limit_given_extended_budget():
    # the 2e5-step budget elsewhere is too short for these thresholds;
    # with ~18x more steps the flow does land where predicted
    rep = verify_theorem2(THREE_ROWS, steps=3_700_000)
    v = rep.verdict
    assert v["final_err_s1"] < 1e-3 * v["gamma"]
    assert v["final_err_s2"] < 1e-3
    assert v["sym_max"] < 1e-10


# ---------------------------------------------------------------------------
# balance conservation

def test_balance_requires_rng():
    with pytest.raises(InvalidInput):
        verify_balance()


def test_balance_preserved_from_balanced_start():
    rep = verify_balance(rng=make_rng(7))
    assert rep.passed
    assert rep.verdict["initial_residual"] < 1e-12
    assert rep.verdict["max_relative_residual"] < 1e-3


def test_balance_report_rows_cover_all_checkpoints():
    rep = verify_balance(steps=100, rng=make_rng(3))
    assert len(rep.rows) == 11
    assert rep.rows[0][0] == 0.0
