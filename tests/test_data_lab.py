"""Data generators, masks, sampling operator, and PGM I/O."""
import numpy as np
import pytest

from aircomplete.data_lab import (GroundTruth, SamplingMask, apply_mask,
                                  gen_block_ratings, gen_lowrank,
                                  generate_mask, lift, read_mask_pgm,
                                  read_pgm, write_mask_pgm, write_pgm)
from aircomplete.errors import InvalidInput, ParseError
from aircomplete.mat_core import make_rng, svd


def diag_mask():
    return SamplingMask(np.eye(2, dtype=bool))


def test_apply_mask_full_observation():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = SamplingMask(np.ones((2, 2), dtype=bool))
    assert np.array_equal(apply_mask(X, mask), [1, 2, 3, 4])


def test_apply_mask_diagonal_selection():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(apply_mask(X, diag_mask(), "observed"), [1, 4])
    assert np.array_equal(apply_mask(X, diag_mask(), "unobserved"), [2, 3])


def test_apply_mask_partitions_all_entries():
    rng = make_rng(1)
    mask = generate_mask(rng, 9, 7, "random", p=0.4)
    X = rng.standard_normal((9, 7))
    obs = apply_mask(X, mask, "observed")
    unobs = apply_mask(X, mask, "unobserved")
    assert obs.size + unobs.size == 63
    assert obs.size == mask.n_observed and unobs.size == mask.n_unobserved


def test_apply_mask_shape_and_selector_errors():
    with pytest.raises(InvalidInput):
        apply_mask(np.zeros((3, 3)), diag_mask())
    with pytest.raises(InvalidInput):
        apply_mask(np.zeros((2, 2)), diag_mask(), "nonsense")


def test_apply_mask_unobserved_out_must_fit_exactly():
    # a longer out would keep stale entries past the gathered ones
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = np.full(2, np.nan)
    assert apply_mask(X, diag_mask(), "unobserved", out) is out
    assert np.array_equal(out, [2, 3])
    for size in (1, 3):
        with pytest.raises(InvalidInput):
            apply_mask(X, diag_mask(), "unobserved", np.zeros(size))


def test_sampling_adjoint_identity():
    # <A(X), v> = <X, A*(v)> for the zero-fill adjoint
    rng = make_rng(2)
    mask = generate_mask(rng, 6, 5, "random", p=0.3)
    X = rng.standard_normal((6, 5))
    v = rng.standard_normal(mask.n_observed)
    lhs = float(apply_mask(X, mask) @ v)
    rhs = float(np.sum(X * lift(v, mask)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_flat_index_gather_and_scatter_match_boolean_indexing():
    rng = make_rng(3)
    single = np.zeros((4, 6), dtype=bool)
    single[2, 5] = True
    for obs in (generate_mask(rng, 9, 7, "random", p=0.4).observed,
                np.ones((5, 3), dtype=bool), single):
        mask = SamplingMask(obs)
        X = rng.standard_normal(obs.shape)
        for Y in (X, np.asfortranarray(X)):
            assert np.array_equal(apply_mask(Y, mask), X[obs])
        v = rng.standard_normal(mask.n_observed)
        ref = np.zeros(obs.shape)
        ref[obs] = v
        assert np.array_equal(lift(v, mask), ref)


def test_lift_length_validation():
    with pytest.raises(InvalidInput):
        lift(np.zeros(3), diag_mask())


def test_random_mask_exact_count_and_determinism():
    mask = generate_mask(make_rng(3), 10, 10, "random", p=0.3)
    assert mask.n_unobserved == 30
    again = generate_mask(make_rng(3), 10, 10, "random", p=0.3)
    assert np.array_equal(mask.observed, again.observed)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidInput):
            generate_mask(make_rng(0), 10, 10, "random", p=bad)


def test_patch_mask_rectangle():
    mask = generate_mask(make_rng(0), 10, 10, "patch", r0=2, c0=2, h=3, w=3)
    assert mask.n_unobserved == 9
    assert not mask.observed[2:5, 2:5].any()
    assert mask.observed.sum() == 91
    with pytest.raises(InvalidInput):
        generate_mask(make_rng(0), 10, 10, "patch", r0=8, c0=8, h=3, w=3)


def test_texture_mask_inclusion_exclusion_count():
    mask = generate_mask(make_rng(0), 12, 12, "texture", period=4, thickness=1)
    # 3 full rows + 3 full columns minus the 9 shared crossings
    assert mask.n_unobserved == 12 * 3 + 12 * 3 - 9 == 63
    stripe_rows = [r for r in range(12) if not mask.observed[r].any()]
    stripe_cols = [c for c in range(12) if not mask.observed[:, c].any()]
    assert stripe_rows == [0, 4, 8] and stripe_cols == [0, 4, 8]
    with pytest.raises(InvalidInput):
        generate_mask(make_rng(0), 12, 12, "texture", period=2, thickness=2)


def test_unknown_mask_kind():
    with pytest.raises(InvalidInput):
        generate_mask(make_rng(0), 4, 4, "swirl")


def test_gen_lowrank_rank_one_minors_vanish():
    Y = gen_lowrank(make_rng(4), 3, 3, 1).full
    for i in range(2):
        for j in range(2):
            minor = Y[i, j] * Y[i + 1, j + 1] - Y[i, j + 1] * Y[i + 1, j]
            assert abs(minor) < 1e-9


def test_gen_lowrank_rank_five_spectrum():
    Y = gen_lowrank(make_rng(7), 100, 100, 5).full
    S = svd(Y).S
    assert S[5] / S[0] < 1e-10
    assert S[4] / S[0] > 1e-6


def test_gen_lowrank_full_rank_and_validation():
    Y = gen_lowrank(make_rng(0), 6, 4, 4).full
    assert svd(Y).S[-1] > 1e-8
    with pytest.raises(InvalidInput):
        gen_lowrank(make_rng(0), 6, 4, 5)


@pytest.mark.parametrize("m,n", [(0, 8), (-6, 8), (8, 0)])
def test_generators_reject_non_positive_dimensions(m, n):
    with pytest.raises(InvalidInput, match=f"{m}x{n}"):
        gen_lowrank(make_rng(0), m, n, 2)
    with pytest.raises(InvalidInput, match=f"{m}x{n}"):
        gen_block_ratings(make_rng(0), m, n, 2, 2)


def test_block_ratings_group_structure():
    Y = gen_block_ratings(make_rng(5), 4, 4, 2, 2, noise=0.0).full
    assert np.array_equal(Y[0], Y[1]) and np.array_equal(Y[2], Y[3])
    assert set(np.unique(Y)) <= {1.0, 2.0, 3.0, 4.0, 5.0}


def test_block_ratings_rank_bound():
    Y = gen_block_ratings(make_rng(6), 150, 200, 5, 4, noise=0.0).full
    S = svd(Y).S
    assert S[20] / S[0] < 1e-12 if S.size > 20 else True


def test_block_ratings_duplicate_rows_match_groups():
    m, groups = 12, 3
    Y = gen_block_ratings(make_rng(8), m, 8, groups, 2, noise=0.0).full
    size = m // groups
    for i in range(m):
        for j in range(i + 1, m):
            same_group = i // size == j // size
            assert np.array_equal(Y[i], Y[j]) == same_group


def test_block_ratings_validation():
    with pytest.raises(InvalidInput):
        gen_block_ratings(make_rng(0), 10, 10, 3, 2)
    with pytest.raises(InvalidInput):
        gen_block_ratings(make_rng(0), 10, 10, 2, 2, noise=-1.0)


def test_read_p2_hand_written(tmp_path):
    p = tmp_path / "tiny.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 128 255 64\n")
    gt = read_pgm(p)
    assert np.array_equal(gt.full, [[0, 128], [255, 64]])
    assert gt.value_range == (0.0, 255.0)


def test_p2_with_comment_lines(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P2\n# a comment\n2 2\n255\n1 2 3 4\n")
    assert np.array_equal(read_pgm(p).full, [[1, 2], [3, 4]])


def test_pgm_round_trip(tmp_path):
    p = tmp_path / "rt.pgm"
    X = np.array([[0.0, 128.0], [255.0, 64.0]])
    write_pgm(X, p)
    assert np.array_equal(read_pgm(p).full, X)


def test_write_pgm_clamps_and_rounds(tmp_path):
    p = tmp_path / "cl.pgm"
    write_pgm(np.array([[-5.0, 300.0], [99.6, 99.4]]), p)
    assert np.array_equal(read_pgm(p).full, [[0, 255], [100, 99]])


def test_p5_truncated_payload_reports_missing_bytes(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n255\n\x00\x01")  # 2 of 4 payload bytes
    with pytest.raises(ParseError) as exc:
        read_pgm(p)
    assert "2 bytes missing" in str(exc.value)
    # offset points at the first missing byte: 11 header + 2 present
    assert exc.value.offset == 13


def test_pgm_malformed_headers(tmp_path):
    cases = [b"P3\n2 2\n255\n", b"P2\n2 x\n255\n1 2 3 4",
             b"P2\n2 2\n0\n1 2 3 4", b"P2\n2 2\n255\n1 2 3",
             b"P2\n2 2\n255\n1 2 3 999"]
    for i, raw in enumerate(cases):
        p = tmp_path / f"h{i}.pgm"
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            read_pgm(p)


def test_mask_pgm_round_trip(tmp_path):
    mask = generate_mask(make_rng(1), 7, 9, "random", p=0.25)
    p = tmp_path / "mask.pgm"
    write_mask_pgm(mask, p)
    back = read_mask_pgm(p)
    assert np.array_equal(back.observed, mask.observed)


def test_ground_truth_validation():
    with pytest.raises(InvalidInput):
        GroundTruth(np.zeros((2, 2)), (1.0, 0.0))
    gt = GroundTruth.from_matrix([[1.0, 5.0], [2.0, 3.0]])
    assert gt.value_range == (1.0, 5.0)
