"""End-to-end command line coverage, through in-process main() and, for
runs pinned to one BLAS thread, through a fresh interpreter."""
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import aircomplete
from aircomplete import cli
from aircomplete.air_reg import RegParam
from aircomplete.baselines import FixedLaplacians
from aircomplete.cli import main
from aircomplete.data_lab import read_mask_pgm, read_pgm, write_pgm
from aircomplete.dmf import initialize
from aircomplete.errors import InvalidInput
from aircomplete.mat_core import gaussian_matrix, make_rng
from aircomplete.trainer import MetricTrace, ModelState


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# generators

def test_gen_data_lowrank_writes_csv(tmp_path):
    out = tmp_path / "truth.csv"
    assert run("gen-data", "--kind", "lowrank", "--rows", 8, "--cols", 6,
               "--rank", 2, "--seed", 7, "--out", out) == 0
    X = np.loadtxt(out, delimiter=",", ndmin=2)
    assert X.shape == (8, 6)
    s = np.linalg.svd(X, compute_uv=False)
    assert s[2] / s[0] < 1e-12


def test_gen_data_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("gen-data", "--kind", "block_ratings", "--rows", 6,
                   "--cols", 8, "--row-groups", 2, "--col-groups", 4,
                   "--noise", 0.1, "--seed", 5, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_image_kind_rejected(tmp_path):
    out = tmp_path / "x.csv"
    assert run("complete", "--data-kind", "image", "--out-dir", tmp_path) == 1
    assert not out.exists()


def test_gen_mask_random_has_exact_budget(tmp_path):
    out = tmp_path / "mask.pgm"
    assert run("gen-mask", "--kind", "random", "--rows", 10, "--cols", 8,
               "--missing", 0.3, "--seed", 1, "--out", out) == 0
    mask = read_mask_pgm(out)
    assert mask.n_unobserved == 24


def test_gen_mask_texture_stripes(tmp_path):
    out = tmp_path / "mask.pgm"
    assert run("gen-mask", "--kind", "texture", "--rows", 12, "--cols", 12,
               "--period", 4, "--thickness", 1, "--out", out) == 0
    assert read_mask_pgm(out).n_unobserved == 63


# ---------------------------------------------------------------------------
# completion pipeline

@pytest.fixture()
def small_problem(tmp_path):
    truth = tmp_path / "truth.csv"
    mask = tmp_path / "mask.pgm"
    assert run("gen-data", "--kind", "lowrank", "--rows", 12, "--cols", 10,
               "--rank", 2, "--seed", 7, "--out", truth) == 0
    assert run("gen-mask", "--kind", "random", "--rows", 12, "--cols", 10,
               "--missing", 0.3, "--seed", 3, "--out", mask) == 0
    return truth, mask


def complete_args(truth, mask, out_dir, *extra):
    return ("complete", "--data-path", truth, "--data-kind", "lowrank",
            "--mask-kind", "file", "--mask-path", mask,
            "--max-iters", 1500, "--log-every", 100,
            "--out-dir", out_dir) + extra


def test_complete_writes_all_outputs(small_problem, tmp_path, capsys):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*complete_args(truth, mask, out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"nmae", "mse_obs", "mse_unobs", "iters",
                           "stop_reason"}
    assert report["nmae"] < 0.05
    trace = MetricTrace.read_csv(out / "trace.csv")
    assert trace.iters[0] == 0
    assert trace.iters[-1] == report["iters"]
    rec = np.loadtxt(out / "recovered.csv", delimiter=",", ndmin=2)
    assert rec.shape == (12, 10)
    assert "nmae" in capsys.readouterr().out


def test_complete_creates_missing_output_directory(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "deep" / "run"
    assert run(*complete_args(truth, mask, out, "--max-iters", 100)) == 0
    assert (out / "report.json").exists()


def test_precondition_failure_does_not_create_output_directory(tmp_path):
    out = tmp_path / "never"
    assert run("complete", "--data-kind", "image", "--out-dir", out) == 1
    assert not out.exists()


def test_complete_runs_are_byte_identical(small_problem, tmp_path):
    truth, mask = small_problem
    dirs = []
    for name in ("r1", "r2"):
        d = tmp_path / name
        d.mkdir()
        assert run(*complete_args(truth, mask, d)) == 0
        dirs.append(d)
    for fname in ("trace.csv", "recovered.csv", "report.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


def test_one_thread_runs_write_identical_traces(small_problem, tmp_path):
    # each run in its own interpreter, so OPENBLAS_NUM_THREADS takes effect
    truth, mask = small_problem
    src = os.path.dirname(os.path.dirname(aircomplete.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    traces = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        argv = [str(a) for a in complete_args(truth, mask, out,
                                              "--track-sigmas", 2)]
        subprocess.run([sys.executable, "-m", "aircomplete.cli", *argv],
                       env=env, check=True, capture_output=True, timeout=300)
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    assert len(traces[0].splitlines()) > 2  # header and checkpoint rows


def test_eval_reproduces_report_metrics(small_problem, tmp_path, capsys):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*complete_args(truth, mask, out)) == 0
    report = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    assert run("eval", "--recovered", out / "recovered.csv",
               "--truth", truth, "--mask", mask) == 0
    scored = json.loads(capsys.readouterr().out)
    assert scored["nmae"] == pytest.approx(report["nmae"], rel=1e-14)
    assert scored["mse_unobs"] == pytest.approx(report["mse_unobs"],
                                                rel=1e-14)
    assert run("eval", "--recovered", out / "recovered.csv",
               "--truth", truth, "--mask", mask, "--absolute") == 0
    absolute = json.loads(capsys.readouterr().out)
    assert absolute["nmae"] != scored["nmae"]


def test_complete_flag_overrides_config_file(small_problem, tmp_path):
    truth, mask = small_problem
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"kind": "lowrank", "path": str(truth)},
        "mask": {"kind": "file", "path": str(mask)},
        "stopping": {"max_iters": 50},
        "log_every": 25,
    }))
    out = tmp_path / "run"
    out.mkdir()
    assert run("complete", "--config", cfg, "--max-iters", 75,
               "--out-dir", out) == 0
    assert json.loads((out / "report.json").read_text())["iters"] == 75


def test_complete_tracks_singular_values(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*complete_args(truth, mask, out, "--track-sigmas", 2,
                              "--max-iters", 100)) == 0
    head = (out / "trace.csv").read_text().splitlines()[0]
    assert head.endswith("nmae,sigma_1,sigma_2")


def test_complete_pgm_image_pipeline(tmp_path):
    img = tmp_path / "img.pgm"
    rng = np.random.default_rng(0)
    base = np.outer(rng.uniform(50, 200, 10), np.linspace(0.5, 1.0, 12))
    write_pgm(base, img)
    out = tmp_path / "run"
    out.mkdir()
    mask = tmp_path / "m.pgm"
    assert run("gen-mask", "--kind", "random", "--rows", 10, "--cols", 12,
               "--missing", 0.2, "--seed", 2, "--out", mask) == 0
    assert run("complete", "--data-kind", "image", "--data-path", img,
               "--mask-kind", "file", "--mask-path", mask,
               "--max-iters", 800, "--log-every", 100,
               "--out-dir", out) == 0
    rec = read_pgm(out / "recovered.pgm")
    assert rec.full.shape == (10, 12)
    assert rec.value_range == (0.0, 255.0)


# final trace rows (total, fid, reg_r, reg_c, mse_obs, mse_unobs, nmae) of a
# 60-iteration run of each regularizer arm, recorded before the arms shared
# one training entry point
PINNED_ARMS = {
    "air": (("--reg", "air"), (
        77.17717287725591, 77.17527966118354, 0.000814371540798968,
        0.0010788445315714765, 1.837506658599608, 0.4787080491726571,
        0.06608671110630383)),
    "none": (("--reg", "none"), (
        77.17515593225494, 77.17515593225494, 0.0, 0.0, 1.8375037126727367,
        0.4787078394673803, 0.06608668215602387)),
    "tv-auto": (("--reg", "tv"), (
        77.59828396067005, 77.22548485034112, 0.3727991103289296, 0.0,
        1.8387020202462172, 0.4840607689447009, 0.066825665978317)),
    "tv-0.05": (("--reg", "tv", "--tv-weight", 0.05), (
        77.53871580191607, 77.20931441976602, 0.32940138215005943, 0.0,
        1.838317009994429, 0.48364052621908954, 0.06676765053518836)),
    "tv-0": (("--reg", "tv", "--tv-weight", 0), (
        77.17515593225494, 77.17515593225494, 0.0, 0.0, 1.8375037126727367,
        0.4787078394673803, 0.06608668215602387)),
    "fixed": (("--reg", "fixed"), (
        77.17843569469777, 77.17537155819119, 0.00139866437572979,
        0.001665472130853289, 1.8375088466235998, 0.47870773266647565,
        0.06608666741192139)),
}


@pytest.mark.parametrize("arm", list(PINNED_ARMS))
def test_regularizer_arms_match_pinned_final_rows(small_problem, tmp_path,
                                                  arm):
    truth, mask = small_problem
    extra, expected = PINNED_ARMS[arm]
    if arm == "fixed":
        rng = make_rng(21)
        state = ModelState(initialize(12, 10, 2, scheme="gaussian", rng=rng),
                           RegParam(gaussian_matrix(rng, 12, 12)),
                           RegParam(gaussian_matrix(rng, 10, 10)))
        fx = FixedLaplacians.from_state(state)
        lap = tmp_path / "laps.npz"
        np.savez(lap, L_r=fx.L_r, L_c=fx.L_c)
        extra += ("--fixed-path", lap)
    out = tmp_path / "run"
    assert run(*complete_args(truth, mask, out, "--max-iters", 60,
                              "--log-every", 20, *extra)) == 0
    trace = MetricTrace.read_csv(out / "trace.csv")
    assert trace.iters == [0, 20, 40, 60]
    row = (trace.total[-1], trace.fid[-1], trace.reg_r[-1], trace.reg_c[-1],
           trace.mse_obs[-1], trace.mse_unobs[-1], trace.nmae[-1])
    assert row == pytest.approx(expected, rel=1e-9)


def test_tv_takes_an_explicit_lambda_row(small_problem, tmp_path):
    truth, mask = small_problem
    traces = []
    for name, extra in (("weight", ("--tv-weight", 0.05)),
                        ("explicit", ("--lambda-mode", "explicit",
                                      "--lambda-row", 0.05))):
        out = tmp_path / name
        assert run(*complete_args(truth, mask, out, "--reg", "tv",
                                  "--max-iters", 20, "--log-every", 10,
                                  *extra)) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_every_complete_flag_lands_on_its_config_key():
    argv = ["complete", "--config", "c.json", "--seed", "1",
            "--model-seed", "2", "--out-dir", "o", "--data-kind", "image",
            "--data-path", "d.pgm", "--rows", "3", "--cols", "4",
            "--rank", "5", "--row-groups", "6", "--col-groups", "7",
            "--noise", "0.5", "--mask-kind", "patch", "--mask-path", "m.pgm",
            "--missing", "0.25", "--patch-top", "8", "--patch-left", "9",
            "--patch-height", "10", "--patch-width", "11", "--period", "12",
            "--thickness", "13", "--depth", "14", "--width", "15",
            "--init", "balanced_spectral", "--reg", "tv",
            "--parameterization", "sum_form", "--lambda-mode", "explicit",
            "--lambda-row", "0.125", "--lambda-col", "0.375",
            "--tv-weight", "0.0625", "--fixed-path", "l.npz",
            "--optimizer", "gd", "--lr", "0.01", "--max-iters", "16",
            "--stop-delta", "0.5", "--stop-patience", "17",
            "--stop-warmup", "18", "--stop-mse-obs", "0.001",
            "--log-every", "19", "--track-sigmas", "20",
            "--trace-csv", "t.csv", "--recovered", "r.csv",
            "--report", "rep.json"]
    args = cli._build_parser().parse_args(argv)
    assert (args.config, args.out_dir) == ("c.json", "o")
    assert cli._overrides_from_args(args) == {
        "seed": 1, "model_seed": 2,
        "data": {"kind": "image", "path": "d.pgm", "rows": 3, "cols": 4,
                 "rank": 5, "row_groups": 6, "col_groups": 7, "noise": 0.5},
        "mask": {"kind": "patch", "path": "m.pgm", "missing": 0.25,
                 "top": 8, "left": 9, "height": 10, "width": 11,
                 "period": 12, "thickness": 13},
        "model": {"depth": 14, "width": 15, "init": "balanced_spectral"},
        "regularizer": {"mode": "tv", "parameterization": "sum_form",
                        "lambda_mode": "explicit", "lambda_row": 0.125,
                        "lambda_col": 0.375, "tv_weight": 0.0625,
                        "fixed_path": "l.npz"},
        "optimizer": {"kind": "gd", "lr": 0.01},
        "stopping": {"max_iters": 16, "delta": 0.5, "patience": 17,
                     "warmup": 18, "mse_obs": 0.001},
        "log_every": 19, "track_singular_values": 20,
        "outputs": {"trace_csv": "t.csv", "recovered_path": "r.csv",
                    "report_path": "rep.json"},
    }


# ---------------------------------------------------------------------------
# failure classes

def test_missing_config_file_exits_one(tmp_path):
    assert run("complete", "--config", tmp_path / "nope.json") == 1


def test_malformed_config_exits_one_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    out = tmp_path / "run"
    out.mkdir()
    assert run("complete", "--config", cfg, "--out-dir", out) == 1
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_unknown_config_key_exits_one_and_writes_nothing(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regulariser": {"mode": "air"}}))
    out = tmp_path / "run"
    out.mkdir()
    assert run("complete", "--config", cfg, "--out-dir", out) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cfg_value, key", [
    ({"data": 5}, "'data'"),
    ({"model": {"depth": "3"}}, "'model.depth'"),
    ({"log_every": 2.5}, "'log_every'"),
], ids=["scalar-for-section", "string-for-int", "float-for-int"])
def test_mistyped_config_value_exits_one_naming_the_key(tmp_path, capsys,
                                                        cfg_value, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_value))
    out = tmp_path / "run"
    out.mkdir()
    assert run("complete", "--config", cfg, "--rows", 6,
               "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("entry", [
    lambda cfg, out: cli.run_complete(cfg, out),
    lambda cfg, out: cli.run_sweep(cfg, "width", [2], out),
], ids=["run_complete", "run_sweep"])
def test_library_config_gets_the_type_checks(tmp_path, entry):
    cfg = cli.default_config()
    cfg["model"]["depth"] = "3"
    with pytest.raises(InvalidInput, match="'model.depth'"):
        entry(cfg, str(tmp_path))


def test_mask_shape_mismatch_exits_one(small_problem, tmp_path):
    truth, _ = small_problem
    wrong = tmp_path / "wrong.pgm"
    assert run("gen-mask", "--kind", "random", "--rows", 5, "--cols", 5,
               "--missing", 0.2, "--out", wrong) == 0
    out = tmp_path / "run"
    out.mkdir()
    assert run(*complete_args(truth, wrong, out)) == 1
    assert list(out.iterdir()) == []


def test_fixed_path_without_a_laplacian_exits_one(small_problem, tmp_path,
                                                 capsys):
    truth, mask = small_problem
    lap = tmp_path / "laps.npz"
    np.savez(lap, L_r=np.zeros((12, 12)))
    out = tmp_path / "run"
    code = run(*complete_args(truth, mask, out, "--reg", "fixed",
                              "--fixed-path", lap))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(lap) in err and "'L_c'" in err
    assert not out.exists()


def test_key_error_inside_a_handler_propagates(monkeypatch):
    def broken(args):
        raise KeyError("bug in a handler")

    monkeypatch.setitem(cli._HANDLERS, "eval", broken)
    with pytest.raises(KeyError):
        run("eval", "--recovered", "r.csv", "--truth", "t.csv",
            "--mask", "m.pgm")


@pytest.mark.parametrize("text", ["1,2,3\n4,x,6\n", "1,2,3\n4,5\n", "",
                                  " \n\n\t\n"],
                         ids=["non-numeric", "ragged", "empty", "whitespace"])
def test_malformed_csv_exits_one(small_problem, tmp_path, capsys, recwarn,
                                 text):
    truth, mask = small_problem
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    out = tmp_path / "run"
    assert run(*complete_args(bad, mask, out)) == 1
    assert not out.exists()
    assert run("eval", "--recovered", truth, "--truth", bad,
               "--mask", mask) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and str(bad) in line
               for line in err)
    assert not recwarn.list


def per_value_csv(path, X):
    # reference writer: one format() call per value
    with open(path, "w", newline="") as f:
        for row in np.atleast_2d(X):
            f.write(",".join(format(v, ".17g") for v in row) + "\n")


def test_write_matrix_csv_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((130, 7)) * 10.0 ** rng.integers(-300, 300, (130, 7))
    X[0] = [np.nan, np.inf, -np.inf, -0.0, 1e300, 1e-300, 3.0]
    X[1, :3] = [-1e-300, -1e300, 42.0]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for M in (X, X[:64], X[:1], X[:, :1], X[0]):
        cli.write_matrix_csv(a, M)
        per_value_csv(b, M)
        assert a.read_bytes() == b.read_bytes()


def test_divergence_exits_two_with_partial_trace(small_problem, tmp_path,
                                                 capsys):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    code = run(*complete_args(truth, mask, out, "--optimizer", "gd",
                              "--lr", 1e6))
    captured = capsys.readouterr()
    assert code == 2
    assert "numeric failure:" in captured.err
    assert "partial trace flushed" in captured.err
    assert (out / "trace.csv").exists()
    assert len((out / "trace.csv").read_text().splitlines()) >= 2
    assert not (out / "recovered.csv").exists()
    assert not (out / "report.json").exists()


def test_overflow_right_after_checkpoint_exits_two(tmp_path, capsys):
    # GD at lr 10 on a 6x6 problem overflows the objective at iteration 12;
    # logging every step must still give exit 2 and a partial trace
    truth, mask, out = tmp_path / "t.csv", tmp_path / "m.pgm", tmp_path / "o"
    out.mkdir()
    assert run("gen-data", "--kind", "lowrank", "--rows", 6, "--cols", 6,
               "--rank", 2, "--seed", 7, "--out", truth) == 0
    assert run("gen-mask", "--kind", "random", "--rows", 6, "--cols", 6,
               "--missing", 0.3, "--seed", 3, "--out", mask) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(*complete_args(truth, mask, out, "--optimizer", "gd",
                                  "--lr", 10, "--log-every", 1,
                                  "--max-iters", 50))
    err = capsys.readouterr().err
    assert code == 2
    assert "at iteration 12" in err and "partial trace flushed" in err
    lines = (out / "trace.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == [str(i) for i in range(11)]


def test_overflow_exits_two_with_warnings_as_errors(tmp_path, capsys):
    # the run above without an errstate of its own: no numpy warning may
    # escape the training loop ahead of its clean failure
    truth, mask, out = tmp_path / "t.csv", tmp_path / "m.pgm", tmp_path / "o"
    out.mkdir()
    assert run("gen-data", "--kind", "lowrank", "--rows", 6, "--cols", 6,
               "--rank", 2, "--seed", 7, "--out", truth) == 0
    assert run("gen-mask", "--kind", "random", "--rows", 6, "--cols", 6,
               "--missing", 0.3, "--seed", 3, "--out", mask) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(*complete_args(truth, mask, out, "--optimizer", "gd",
                                  "--lr", 10, "--log-every", 1,
                                  "--max-iters", 50))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("partial trace flushed\nnumeric failure: ")
    assert err.endswith(" at iteration 12\n")
    assert err.count("\n") == 2


# ---------------------------------------------------------------------------
# baselines

def test_baseline_knn_and_svd(small_problem, tmp_path):
    truth, mask = small_problem
    for method, extra in (("knn", ("--k", 2)), ("svd", ("--svd-rank", 2))):
        out = tmp_path / method
        out.mkdir()
        assert run("baseline", "--method", method, "--data-path", truth,
                   "--data-kind", "lowrank", "--mask-kind", "file",
                   "--mask-path", mask, "--out-dir", out, *extra) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stop_reason"] == method
        assert report["iters"] == 0
        assert (out / "recovered.csv").exists()


def test_baseline_dmf_disables_regularizer(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run("baseline", "--method", "dmf", "--data-path", truth,
               "--data-kind", "lowrank", "--mask-kind", "file",
               "--mask-path", mask, "--max-iters", 200,
               "--log-every", 100, "--out-dir", out) == 0
    trace = MetricTrace.read_csv(out / "trace.csv")
    assert all(v == 0.0 for v in trace.reg_r)
    assert all(v == 0.0 for v in trace.reg_c)


# ---------------------------------------------------------------------------
# sweep

def sweep_args(truth, mask, out_dir, values):
    return ("sweep", "--axis", "depth", "--values", values,
            "--data-path", truth, "--data-kind", "lowrank",
            "--mask-kind", "file", "--mask-path", mask,
            "--max-iters", 200, "--log-every", 100, "--out-dir", out_dir)


def test_sweep_writes_summary_and_suffixed_outputs(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*sweep_args(truth, mask, out, "2,3")) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == "depth,nmae,mse_obs,mse_unobs,iters,stop_reason,status"
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])
    for v in (2, 3):
        assert (out / f"trace_depth{v}.csv").exists()
        assert (out / f"report_depth{v}.json").exists()


def test_sweep_records_failures_and_continues(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*sweep_args(truth, mask, out, "1,2")) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[1].startswith("1,") and "failed: InvalidInput" in lines[1]
    assert lines[2].startswith("2,") and lines[2].endswith(",ok")


def test_sweep_propagates_programming_errors(small_problem, tmp_path,
                                            monkeypatch):
    truth, mask = small_problem

    def broken(cfg, out_dir):
        raise TypeError("bug in an arm")

    monkeypatch.setattr(cli, "run_complete", broken)
    with pytest.raises(TypeError):
        run(*sweep_args(truth, mask, tmp_path, "2"))


def test_sweep_parallel_matches_serial(small_problem, tmp_path):
    truth, mask = small_problem
    serial, parallel = tmp_path / "s", tmp_path / "p"
    serial.mkdir()
    parallel.mkdir()
    assert run(*sweep_args(truth, mask, serial, "2,3")) == 0
    os.environ["AIR_THREADS"] = "2"
    try:
        assert run(*sweep_args(truth, mask, parallel, "2,3")) == 0
    finally:
        del os.environ["AIR_THREADS"]
    assert ((serial / "sweep_summary.csv").read_bytes()
            == (parallel / "sweep_summary.csv").read_bytes())


def test_sweep_rejects_bad_values(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*sweep_args(truth, mask, out, ",")) == 1
    assert run(*sweep_args(truth, mask, out, "2,x")) == 1


# ---------------------------------------------------------------------------
# verification suite

def test_verify_gradcheck_passes(capsys):
    assert run("verify", "--kind", "gradcheck", "--seed", 0) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_thm1_passes_and_writes_report(tmp_path, capsys):
    rep = tmp_path / "thm1.csv"
    assert run("verify", "--kind", "thm1", "--report-csv", rep) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 2     # regularized and fidelity-only
    lines = rep.read_text().splitlines()
    assert lines[0].startswith("t,k,sigma")
    assert lines[-1].startswith("verdict,")


def test_verify_thm1_rejects_coarse_step():
    assert run("verify", "--kind", "thm1", "--lr", 0.1) == 1


def test_verify_thm2_reports_rate_miss(tmp_path, capsys):
    rep = tmp_path / "thm2.csv"
    assert run("verify", "--kind", "thm2", "--report-csv", rep) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "verdict,passed=False" in rep.read_text()


def test_verify_thm2_runs_from_a_large_constant_start(capsys):
    # a constant W gives a uniform E however large, so nothing overflows
    assert run("verify", "--kind", "thm2", "--eps-init", 800,
               "--steps", 200) in (0, 3)
    assert "thm2 symmetry: PASS" in capsys.readouterr().out


def test_verify_balance_passes(capsys):
    assert run("verify", "--kind", "balance") == 0
    assert "PASS" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()
