"""End-to-end command line coverage, through in-process main() and, for
runs pinned to one BLAS thread, through a fresh interpreter."""
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aircomplete
from aircomplete import cli, trainer
from aircomplete.air_reg import RegParam
from aircomplete.baselines import FixedLaplacians
from aircomplete.cli import main
from aircomplete.data_lab import (SamplingMask, read_mask_pgm, read_pgm,
                                  write_mask_pgm, write_pgm)
from aircomplete.dmf import initialize
from aircomplete.errors import InvalidInput
from aircomplete.mat_core import gaussian_matrix, make_rng
from aircomplete.trainer import ModelState, TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


def read_trace(path):
    """A trace CSV as a record array, one named field per column."""
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


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
    trace = read_trace(out / "trace.csv")
    assert trace["iter"][0] == 0
    assert trace["iter"][-1] == report["iters"]
    rec = np.loadtxt(out / "recovered.csv", delimiter=",", ndmin=2)
    assert rec.shape == (12, 10)
    assert "nmae" in capsys.readouterr().out


def test_complete_creates_missing_output_directory(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "deep" / "run"
    assert run(*complete_args(truth, mask, out, "--max-iters", 100)) == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize("argv, made", [
    (("complete", "--max-iters", 20, "--recovered", "nodir/x.csv"),
     "nodir/x.csv"),
    (("complete", "--max-iters", 20, "--report", "nodir/r.json"),
     "nodir/r.json"),
    (("baseline", "--method", "knn", "--recovered", "nodir/x.csv"),
     "nodir/x.csv"),
], ids=["recovered", "report", "knn-recovered"])
def test_output_paths_in_a_missing_directory_are_made(tmp_path, monkeypatch,
                                                      argv, made):
    # each output's directory is made with the output directory, before
    # training, so a run does not fail after it with a trace left behind
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--rows", 30, "--cols", 20, "--out-dir", "o1") == 0
    assert (tmp_path / "o1" / made).is_file()


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


def test_complete_forms_each_product_once(small_problem, tmp_path,
                                         monkeypatch):
    # the recovered matrix is the product train's last pass formed
    truth, mask = small_problem
    calls, states = [], []
    forward, fit = trainer.forward, cli.train

    def counted(chain, *args):
        calls.append(1)
        return forward(chain, *args)

    def kept(state, *args, **kwargs):
        states.append(state)
        return fit(state, *args, **kwargs)

    monkeypatch.setattr(trainer, "forward", counted)
    monkeypatch.setattr(cli, "train", kept)
    out = tmp_path / "run"
    assert run(*complete_args(truth, mask, out, "--max-iters", 7)) == 0
    assert len(calls) == 8
    cli.write_matrix_csv(tmp_path / "product.csv", forward(states[0].chain))
    assert ((out / "recovered.csv").read_bytes()
            == (tmp_path / "product.csv").read_bytes())


def same_outputs_on_one_and_two_cpus(tmp_path, *shape):
    # a child on one CPU takes the sequential path, one on two splits the
    # step
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip("needs two CPUs")
    src = os.path.dirname(os.path.dirname(aircomplete.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = ("import os, sys\n"
             "os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split()})\n"
             "from aircomplete import cli, mat_core\n"
             "rc = cli.main(sys.argv[2:])\n"
             "print('split', mat_core._POOL is not None)\n"
             "sys.exit(rc)\n")
    runs = {}
    for name, use in (("one", cpus[:1]), ("two", cpus[:2])):
        out = tmp_path / name
        argv = ["complete", "--data-kind", "lowrank", *shape, "--rank", "4",
                "--missing", "0.7", "--log-every", "1", "--stop-delta", "0",
                "--track-sigmas", "2", "--out-dir", str(out)]
        done = subprocess.run(
            [sys.executable, "-c", child, " ".join(map(str, use)), *argv],
            env=env, check=True, capture_output=True, text=True, timeout=300)
        runs[name] = (done.stdout.splitlines()[-1],
                      [(out / f).read_bytes() for f in
                       ("trace.csv", "recovered.csv", "report.json")])
    assert runs["one"][0] == "split False" and runs["two"][0] == "split True"
    assert runs["one"][1] == runs["two"][1]


def test_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    # each graph of 300 x 260 spans three row blocks
    same_outputs_on_one_and_two_cpus(tmp_path, "--rows", "300", "--cols",
                                     "260", "--max-iters", "3")


def test_outputs_do_not_depend_on_the_cpu_count_at_depth_8(tmp_path):
    # forward's halves, the factor-gradient pairs and Adam split by their
    # work: the halves of 7 products, and 7 pairs whose Ts alternate
    # between two buffers
    same_outputs_on_one_and_two_cpus(tmp_path, "--rows", "300", "--cols",
                                     "300", "--depth", "8", "--reg", "none",
                                     "--max-iters", "3")


def test_outputs_do_not_depend_on_the_cpu_count_from_2_20_entries(tmp_path):
    # from 2^20 entries the CSV writer splits, and the graphs do; a chain of
    # width 8 has too little work for forward's halves or the factor pairs
    same_outputs_on_one_and_two_cpus(tmp_path, "--rows", "1030", "--cols",
                                     "1024", "--width", "8", "--max-iters",
                                     "2")


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


@pytest.mark.parametrize("magic", ["P2", "P5"])
def test_mask_with_maxval_one_reads_and_evaluates(tmp_path, capsys, magic):
    # observed where a pixel exceeds half the maxval, whatever the maxval
    observed = np.array([[1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1]])
    mask = tmp_path / "mask.pgm"
    header = f"{magic}\n4 3\n1\n".encode()
    if magic == "P2":
        body = "\n".join(" ".join(map(str, r)) for r in observed).encode()
    else:
        body = observed.astype(np.uint8).tobytes()
    mask.write_bytes(header + body)
    assert read_mask_pgm(mask).n_observed == 9
    truth = tmp_path / "truth.csv"
    rec = tmp_path / "rec.csv"
    np.savetxt(truth, np.arange(12.0).reshape(3, 4), delimiter=",")
    np.savetxt(rec, np.arange(12.0).reshape(3, 4) + 0.5, delimiter=",")
    assert run("eval", "--recovered", rec, "--truth", truth,
               "--mask", mask) == 0
    scored = json.loads(capsys.readouterr().out)
    assert scored["mse_obs"] == pytest.approx(0.25)


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


@pytest.mark.parametrize("patience, stop", [(1, 250), (3, 1900)])
def test_reg_delta_streak_resets_on_a_large_move(tmp_path, patience, stop):
    # the move ending at 250 is under delta, the one ending at 300 is not:
    # patience 1 stops at 250, and patience 3's streak starts over there
    assert run("complete", "--rows", 40, "--cols", 30, "--reg", "air",
               "--max-iters", 3000, "--log-every", 50, "--stop-delta", 0.03,
               "--stop-warmup", 200, "--stop-patience", patience,
               "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["stop_reason"], report["iters"]) == ("reg_delta", stop)


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


def test_recovered_csv_path_writes_image_data_as_csv(tmp_path, capsys):
    # the extension picks the format: CSV in training units, which eval
    # scores on the same [0, 1] scale as the PGM truth
    img = tmp_path / "img.pgm"
    write_pgm(np.outer(np.linspace(40, 200, 8), np.linspace(0.5, 1.0, 9)),
              img)
    mask = tmp_path / "m.pgm"
    assert run("gen-mask", "--kind", "random", "--rows", 8, "--cols", 9,
               "--missing", 0.2, "--seed", 2, "--out", mask) == 0
    out = tmp_path / "run"
    assert run("complete", "--data-kind", "image", "--data-path", img,
               "--mask-kind", "file", "--mask-path", mask,
               "--max-iters", 200, "--recovered", "rec.csv",
               "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    rec = np.loadtxt(out / "rec.csv", delimiter=",", ndmin=2)
    assert rec.shape == (8, 9)
    assert not (out / "recovered.pgm").exists()
    capsys.readouterr()
    assert run("eval", "--recovered", out / "rec.csv", "--truth", img,
               "--mask", mask) == 0
    scored = json.loads(capsys.readouterr().out)
    assert scored["nmae"] == pytest.approx(report["nmae"], rel=1e-12)


@pytest.mark.parametrize("command", [
    ("complete",), ("baseline", "--method", "knn"),
    ("sweep", "--axis", "depth", "--values", "2,3")])
def test_recovered_pgm_path_for_non_image_data_exits_one(
        small_problem, tmp_path, capsys, command):
    truth, mask = small_problem
    out = tmp_path / "run"
    args = complete_args(truth, mask, out, "--recovered", "rec.pgm")
    assert run(*command, *args[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rec.pgm" in err
    assert err.count("\n") == 1
    assert not out.exists()


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
    trace = read_trace(out / "trace.csv")
    assert trace["iter"].tolist() == [0, 20, 40, 60]
    row = tuple(trace[-1][["total", "fid", "reg_r", "reg_c", "mse_obs",
                           "mse_unobs", "nmae"]])
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


def test_config_int_past_the_digit_limit_exits_one(tmp_path, capsys):
    # json.load raises ValueError, not JSONDecodeError, for such an int
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": ' + "9" * 5000 + "}")
    assert run("complete", "--config", cfg, "--out-dir", tmp_path / "o") == 1
    assert capsys.readouterr().err.startswith("error: config ")
    assert not (tmp_path / "o").exists()


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
    ({"model": {"variance": float("nan")}}, "'model.variance'"),
    ({"optimizer": {"lr": float("inf")}}, "'optimizer.lr'"),
    ({"regularizer": {"lambda_row": 10 ** 400}}, "'regularizer.lambda_row'"),
], ids=["scalar-for-section", "string-for-int", "float-for-int", "NaN",
        "Infinity", "int-past-float-range"])
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


@pytest.mark.parametrize("argv, message", [
    (("complete", "--stop-delta", "nan"), "'stopping.delta'"),
    (("complete", "--lr", "inf"), "'optimizer.lr'"),
    (("complete", "--lambda-mode", "explicit", "--lambda-row", "nan"),
     "'regularizer.lambda_row'"),
    (("complete", "--data-kind", "block_ratings", "--noise", "nan"),
     "'data.noise'"),
    (("gen-data", "--kind", "block_ratings", "--noise", "nan", "--out",
      "x.csv"), "noise must be nonnegative"),
], ids=["stop-delta", "lr", "lambda-row", "complete-noise", "gen-data-noise"])
def test_non_finite_flag_exits_one_and_writes_nothing(tmp_path, monkeypatch,
                                                      capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--rows", 6, "--cols", 8) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def mistype_depth(cfg):
    cfg["model"]["depth"] = "3"
    return "'model.depth'"


def drop_warmup(cfg):
    del cfg["stopping"]["warmup"]
    return "config has no key 'stopping.warmup'"


def complete(cfg, out):
    return cli.run_complete(cfg, out)


def sweep(cfg, out):
    return cli.run_sweep(cfg, "width", [2], out)


@pytest.mark.parametrize("entry, fault", [
    (complete, mistype_depth), (sweep, mistype_depth),
    (complete, drop_warmup), (sweep, drop_warmup),
], ids=["run_complete", "run_sweep", "run_complete-missing-key",
        "run_sweep-missing-key"])
def test_library_config_gets_the_type_checks(tmp_path, entry, fault):
    cfg = cli.default_config()
    message = fault(cfg)
    with pytest.raises(InvalidInput, match=message):
        entry(cfg, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_cli_training_defaults_are_the_library_defaults():
    assert cli._prepare(cli.default_config())[3] == TrainConfig()


def test_readme_config_block_is_the_default_config():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    section = readme[readme.index("### Configuration"):]
    block = section[section.index("```json") + 7:section.index("\n```\n")]
    assert json.loads(block) == cli.default_config()


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


def _truncated_npz(path):
    np.savez(path, L_r=np.zeros((12, 12)))
    path.write_bytes(path.read_bytes()[:100])


def _damaged_npz(path):
    # one byte of L_r's payload flipped: the archive opens, the member's
    # checksum fails when it is read
    np.savez(path, L_r=np.ones((12, 12)), L_c=np.zeros((10, 10)))
    raw = bytearray(path.read_bytes())
    raw[300] ^= 0xFF
    path.write_bytes(bytes(raw))


def _raw_member_npz(path):
    # an L_r.npy member without the .npy magic, which np.load hands back
    # as bytes
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("L_r.npy", b"\x93NU")
        z.writestr("L_c.npy", b"")


UNREADABLE_LAPLACIANS = {
    "laps.txt": lambda p: p.write_text("L_r,L_c\n"),
    "laps.npy": lambda p: np.save(p, np.zeros((12, 12))),
    "laps.empty": lambda p: p.write_bytes(b""),
    "truncated.npz": _truncated_npz,
    "objects.npz": lambda p: np.savez(p, L_r=np.full((12, 12), None),
                                      L_c=np.zeros((10, 10))),
    "bad_crc.npz": _damaged_npz,
    "raw_member.npz": _raw_member_npz,
}


@pytest.mark.parametrize("name", UNREADABLE_LAPLACIANS)
def test_fixed_path_that_is_not_a_readable_npz_exits_one(
        small_problem, tmp_path, capsys, name):
    truth, mask = small_problem
    lap = tmp_path / name
    UNREADABLE_LAPLACIANS[name](lap)
    out = tmp_path / "run"
    code = run(*complete_args(truth, mask, out, "--reg", "fixed",
                              "--fixed-path", lap))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(lap) in err
    assert err.count("\n") == 1
    assert "pickle" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("complete", "--seed", -1), ("complete", "--model-seed", -1),
    ("baseline", "--method", "knn", "--seed", -1),
    ("gen-data", "--seed", -1, "--out", "x.csv"),
    ("gen-mask", "--rows", 4, "--cols", 4, "--seed", -1, "--out", "x.pgm"),
    ("verify", "--kind", "gradcheck", "--seed", -1),
    ("verify", "--kind", "thm1", "--seed", -1),
    ("verify", "--kind", "balance", "--seed", -1),
    ("sweep", "--axis", "depth", "--values", "2,3", "--seed", -1),
    ("baseline", "--method", "knn", "--model-seed", -1)])
def test_negative_seed_exits_one_and_writes_nothing(tmp_path, monkeypatch,
                                                    capsys, argv):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    extra = (("--out-dir", out) if argv[0] in ("complete", "baseline", "sweep")
             else ())
    assert run(*argv, *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-1" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_key_error_inside_a_handler_propagates(monkeypatch):
    def broken(args):
        raise KeyError("bug in a handler")

    monkeypatch.setitem(cli._HANDLERS, "eval", broken)
    with pytest.raises(KeyError):
        run("eval", "--recovered", "r.csv", "--truth", "t.csv",
            "--mask", "m.pgm")


SMALL = ("--rows", 6, "--cols", 8)


@pytest.mark.parametrize("argv, message", [
    (("complete", *SMALL, "--max-iters", 5, "--out-dir", "F"), "File exists"),
    (("sweep", "--axis", "depth", "--values", "2,3", *SMALL, "--max-iters", 5,
      "--out-dir", "F"), "File exists"),
    (("complete", *SMALL, "--max-iters", 5, "--out-dir", "F/sub"),
     "Not a directory"),
    (("gen-data", *SMALL, "--out", "F/x.csv"), "Not a directory"),
    # the first allocation of this size, 53.3 PiB, is refused at once
    (("gen-data", "--kind", "block_ratings", "--rows", 600000000, "--cols",
      600000000, "--out", "x.csv"), "Unable to allocate"),
], ids=["out-dir-is-file", "sweep-out-dir-is-file", "out-dir-under-file",
        "gen-data-under-file", "size-past-memory"])
def test_unwritable_path_or_size_past_memory_exits_one(tmp_path, monkeypatch,
                                                       capsys, argv, message):
    # OSError and MemoryError reach main as one error line, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("")
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["F"]
    assert (tmp_path / "F").read_text() == ""


@pytest.mark.parametrize("case", ["constant-truth", "all-observed-mask",
                                  "knn-constant-truth"])
def test_unscorable_input_exits_one_before_any_file(small_problem, tmp_path,
                                                    capsys, case):
    # metrics cannot score these runs, whatever the model: _prepare says so
    # before the output directory is made
    truth, mask = small_problem
    if case == "all-observed-mask":
        mask = tmp_path / "all.pgm"
        write_mask_pgm(SamplingMask(np.ones((12, 10), bool)), mask)
    else:
        truth = tmp_path / "const.csv"
        np.savetxt(truth, np.full((12, 10), 2.0), delimiter=",")
    out = tmp_path / "run"
    argv = complete_args(truth, mask, out)
    if case.startswith("knn"):
        argv = ("baseline", "--method", "knn") + argv[1:]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err == ("error: nmae needs at least one unobserved entry\n"
                   if case == "all-observed-mask"
                   else "error: ground-truth value range is degenerate\n")
    assert not out.exists()


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
    # reference writer: one format() call per value, on Python floats
    # (the same text as numpy scalars give, without their slower format)
    with open(path, "w", newline="") as f:
        for row in np.atleast_2d(X):
            f.write(",".join(format(v, ".17g") for v in row.tolist()) + "\n")


def test_write_matrix_csv_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((130, 7)) * 10.0 ** rng.integers(-300, 300, (130, 7))
    X[0] = [np.nan, np.inf, -np.inf, -0.0, 1e300, 1e-300, 3.0]
    X[1, :3] = [-1e-300, -1e300, 42.0]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    # empty matrices too: no rows, no columns (one empty line a row)
    for M in (X, X[:64], X[:1], X[:, :1], X[0], X[:0], X[:3, :0], X[0, :0]):
        cli.write_matrix_csv(a, M)
        per_value_csv(b, M)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# the "%.17g" kernel, its exact fallback, and its chunks on two lanes

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 1e300, -1e300, 1e-300, -1e-300,
           5e-324, -2.5e-310]


def g17_each(values):
    """Each value through the kernel alone; it returns the exact text or
    None (the value takes the block-% reference)."""
    for x in values:
        out = cli._g17_csv(np.array([x]), np.array([0]))
        assert out is None or b"".join(out) == f"{x:.17g}\n".encode()


def neighbours(x, ulps=3):
    """x and the `ulps` floats on each side of it."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=6))
def test_csv_values_are_format_17g(tmp_path_factory, values):
    # NaN and +-inf included: a row through the writer, each value alone
    # through the kernel
    g17_each(values)
    path = tmp_path_factory.getbasetemp() / "g17.csv"
    cli.write_matrix_csv(path, np.array(values))
    assert path.read_bytes() == (",".join(format(x, ".17g") for x in values)
                                 + "\n").encode()


def test_csv_kernel_at_powers_of_ten_and_range_edges(tmp_path):
    values = [y for j in range(-12, 13) for y in neighbours(10.0 ** j)]
    values += neighbours(1e-11) + neighbours(1e11)
    values += [0.0, 5e-324, 2.5e-310, np.nextafter(2.2250738585072014e-308, 0)]
    values += [-x for x in values]
    g17_each(values)
    # the ties of the last digit round half to even
    ties = np.array([12345678901.0078125, 98765432109.9765625, 0.5, 1.5])
    assert b"".join(cli._g17_csv(ties, np.array([3]))) == \
        b"12345678901.007812,98765432109.976562,0.5,1.5\n"
    cli.write_matrix_csv(tmp_path / "a.csv", np.array(values))
    per_value_csv(tmp_path / "b.csv", np.array(values))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("error", [-10, -5, -1, 1, 5])
def test_csv_kernel_checks_the_exponent_log10_suggests(monkeypatch, error):
    # a log10 off by `error` decades costs the fallback, never a digit
    v = 10.0 ** np.random.default_rng(6).uniform(-11, 11, 1000)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    assert cli._g17_csv(v, np.array([999])) is None
    g17_each(v)


def test_csv_kernel_on_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    fast = X[(np.abs(X) >= 1e-11) & (np.abs(X) < 1e11)]
    assert fast.size > 1000
    ends = np.arange(fast.size - 1, fast.size)
    out = cli._g17_csv(fast, ends)  # all of them on the integer path
    assert out is not None
    assert b"".join(out) == (",".join(format(x, ".17g") for x in fast)
                             + "\n").encode()
    cli.write_matrix_csv(tmp_path / "a.csv", X.reshape(100, 1000))
    per_value_csv(tmp_path / "b.csv", X.reshape(100, 1000))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("shape", [(1, 1 << 20), ((1 << 20) + 1, 1),
                                   (1030, 1021), (300, 300)],
                         ids=["one-row", "one-column", "straddling-rows",
                              "one-fallback-value"])
def test_csv_chunks_match_per_value_writer(tmp_path, monkeypatch, pool, shape):
    # |x| in [1e-10, 1e10): every chunk on the integer path but one
    rng = np.random.default_rng(2)
    X = (rng.uniform(-10, 10, shape) * 10.0 ** rng.integers(-10, 9, shape))
    X[np.abs(X) < 1e-10] = 1.0
    if shape == (300, 300):
        X[100, 7] = 1e300  # its chunk takes the block-% reference
    files = tmp_path / "split.csv", tmp_path / "one.csv", tmp_path / "ref.csv"
    force_split(monkeypatch, True)
    cli.write_matrix_csv(files[0], X)
    assert (pool.submitted > 0) == (X.size >= cli._PAIR_MIN)
    submitted = pool.submitted
    force_split(monkeypatch, False)
    cli.write_matrix_csv(files[1], X)
    assert pool.submitted == submitted
    per_value_csv(files[2], X)
    assert files[0].read_bytes() == files[1].read_bytes()
    assert files[0].read_bytes() == files[2].read_bytes()


@pytest.mark.parametrize("split", [True, False], ids=["split", "one-lane"])
@pytest.mark.parametrize("shape", [(1024, 1024), (1, 1 << 20)],
                         ids=["square", "one-row"])
def test_csv_writer_peaks_below_8_mb(tmp_path, monkeypatch, split, shape):
    X = np.random.default_rng(3).standard_normal(shape)
    force_split(monkeypatch, split)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli.write_matrix_csv(tmp_path / "out.csv", X)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.fixture()
def helpers(monkeypatch):
    """The processes started through subprocess.Popen."""
    real = subprocess.Popen
    started = []

    def counted(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", counted)
    return started


def force_split(monkeypatch, on):
    monkeypatch.setattr(cli, "_second_cpu_idle", lambda: on)


@pytest.mark.parametrize("shape", [(1025, 1025), (1, 1 << 20),
                                   ((1 << 20) + 1, 1)],
                         ids=["odd-rows", "one-row", "one-column"])
def test_split_writer_matches_per_value_writer(tmp_path, monkeypatch, shape):
    # the special values sit in the first rows and in the last, in the
    # first chunk and in the last
    rng = np.random.default_rng(1)
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    X.ravel()[:len(SPECIAL)] = SPECIAL
    X.ravel()[-len(SPECIAL):] = SPECIAL
    files = tmp_path / "split.csv", tmp_path / "one.csv", tmp_path / "ref.csv"
    force_split(monkeypatch, True)
    cli.write_matrix_csv(files[0], X)
    force_split(monkeypatch, False)
    cli.write_matrix_csv(files[1], X)
    per_value_csv(files[2], X)
    assert files[0].read_bytes() == files[1].read_bytes()
    assert files[0].read_bytes() == files[2].read_bytes()


def test_no_helper_on_one_cpu(two_cpus, small_problem, tmp_path, monkeypatch,
                              helpers):
    X = np.random.default_rng(4).standard_normal((1024, 1024))
    cli.write_matrix_csv(tmp_path / "two.csv", X)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cli.write_matrix_csv(tmp_path / "one.csv", X)
    assert ((tmp_path / "one.csv").read_bytes()
            == (tmp_path / "two.csv").read_bytes())
    # nor does `complete`, with its recovered matrix on two lanes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "_PAIR_MIN", 1)
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*complete_args(truth, mask, out, "--max-iters", 5)) == 0
    assert helpers == []


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
    # knn and svd read no penalty, so --reg fixed needs no --fixed-path
    for method, extra in (("knn", ("--k", 2)),
                          ("svd", ("--svd-rank", 2, "--reg", "fixed"))):
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
    trace = read_trace(out / "trace.csv")
    assert all(v == 0.0 for v in trace["reg_r"])
    assert all(v == 0.0 for v in trace["reg_c"])


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
        assert (out / f"recovered_depth{v}.csv").exists()
    assert not (out / "recovered.csv").exists()


def test_sweep_records_failures_and_continues(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    assert run(*sweep_args(truth, mask, out, "1,2")) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[1] == ("1,nan,nan,nan,0,,failed: InvalidInput: "
                        "model depth must be at least 2")
    assert lines[2].startswith("2,") and lines[2].endswith(",ok")


def test_sweep_propagates_programming_errors(small_problem, tmp_path,
                                            monkeypatch):
    truth, mask = small_problem

    def broken(cfg, out_dir, prep):
        raise TypeError("bug in an arm")

    monkeypatch.setattr(cli, "_fit", broken)
    with pytest.raises(TypeError):
        run(*sweep_args(truth, mask, tmp_path, "2"))


def test_sweep_rejects_bad_values(small_problem, tmp_path):
    truth, mask = small_problem
    out = tmp_path / "run"
    out.mkdir()
    for values in (",", "2,x", "2,2", "2,,3", "2,"):
        assert run(*sweep_args(truth, mask, out, values)) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("extra", [("--reg", "fixed"),
                                   ("--data-path", "missing.csv"),
                                   ("--axis", "width", "--depth", 1)],
                         ids=["fixed-without-path", "missing-data",
                              "width-at-depth-1"])
def test_sweep_input_error_shared_by_all_arms_exits_one(
        small_problem, tmp_path, monkeypatch, capsys, extra):
    truth, mask = small_problem
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert run(*sweep_args(truth, mask, out, "2,3"), *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_fixed_path_of_the_wrong_shape_exits_one(small_problem, tmp_path,
                                                capsys):
    # checked against the data before any directory exists, by a lone
    # run and by a sweep alike
    truth, mask = small_problem
    lap = tmp_path / "laps.npz"
    np.savez(lap, L_r=np.zeros((5, 5)), L_c=np.zeros((10, 10)))
    out = tmp_path / "run"
    for argv in (complete_args(truth, mask, out),
                 sweep_args(truth, mask, out, "2,3")):
        assert run(*argv, "--reg", "fixed", "--fixed-path", lap) == 1
        assert capsys.readouterr().err == ("error: Laplacian shapes (5, 5)/"
                                           "(10, 10) vs matrix (12, 10)\n")
        assert not out.exists()


def test_sweep_width_0_is_the_full_width(small_problem, tmp_path, capsys):
    truth, mask = small_problem
    out = tmp_path / "run"
    width = ("--axis", "width")
    # 0 stands for min(12, 10) = 10, so these two arms are one model
    assert run(*sweep_args(truth, mask, out, "0,10"), *width) == 1
    assert "must be distinct, got [10, 10]" in capsys.readouterr().err
    assert not out.exists()
    assert run(*sweep_args(truth, mask, out, "0,5"), *width) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["width", "10", "5"]
    assert (out / "trace_width10.csv").exists()


@pytest.mark.parametrize("method", ["dmf", "knn", "svd"])
def test_baseline_depth_1_exits_one(small_problem, tmp_path, capsys, method):
    # knn and svd build no model, but check the config as every run does
    truth, mask = small_problem
    out = tmp_path / "run"
    assert run("baseline", "--method", method, "--data-path", truth,
               "--mask-kind", "file", "--mask-path", mask, "--depth", 1,
               "--out-dir", out) == 1
    assert capsys.readouterr().err == (
        "error: model depth must be at least 2\n")
    assert not out.exists()


def test_sweep_arms_match_standalone_runs(small_problem, tmp_path):
    # every arm draws its model from its own copy of the model rng, so it
    # matches a lone run with the same flags
    truth, mask = small_problem
    sweep = tmp_path / "sweep"
    assert run(*sweep_args(truth, mask, sweep, "2,3")) == 0
    for depth in (2, 3):
        alone = tmp_path / f"alone{depth}"
        flags = sweep_args(truth, mask, alone, "2,3")[5:]  # past --values
        assert run("complete", *flags, "--depth", depth) == 0
        for name in ("trace", "report", "recovered"):
            ext = ".json" if name == "report" else ".csv"
            assert ((sweep / f"{name}_depth{depth}{ext}").read_bytes()
                    == (alone / f"{name}{ext}").read_bytes())


# ---------------------------------------------------------------------------
# verification suite

def test_verify_gradcheck_passes(capsys):
    assert run("verify", "--kind", "gradcheck", "--seed", 0) == 0
    assert "PASS" in capsys.readouterr().out


def scale_w_grads_twice(monkeypatch):
    compute = trainer._AdaptiveReg.compute

    def twice(self, X, G):
        Rr, Rc, G, (gWr, gWc) = compute(self, X, G)
        return Rr, Rc, G, (self.lam_r * gWr, self.lam_c * gWc)

    monkeypatch.setattr(trainer._AdaptiveReg, "compute", twice)


def drop_gx(monkeypatch):
    compute = trainer._AdaptiveReg.compute

    def into_scratch(self, X, G):
        # the X-gradient goes into a buffer of its own, not into G
        Rr, Rc, _, w_grads = compute(self, X, np.zeros_like(X))
        return Rr, Rc, G, w_grads

    monkeypatch.setattr(trainer._AdaptiveReg, "compute", into_scratch)


@pytest.mark.parametrize("fault", [scale_w_grads_twice, drop_gx])
def test_gradcheck_catches_a_faulty_step_gradient(monkeypatch, fault):
    ok, lines = cli._gradcheck(0)
    assert ok
    assert sum(ln.startswith("gradcheck objective") for ln in lines) == 5
    fault(monkeypatch)
    ok, lines = cli._gradcheck(0)
    assert not ok
    assert any(ln.startswith("gradcheck objective air")
               and float(ln.split()[-1]) > 1e-2 for ln in lines)


@pytest.mark.parametrize("seed", [7, 12])
def test_gradcheck_air_lines_measure_the_w_gradient(seed):
    # W entries are differenced on the penalty alone; on the whole
    # objective the fidelity's roundoff read 1e-7 to 2.5e-6 here
    ok, lines = cli._gradcheck(seed)
    assert ok
    air = [ln for ln in lines if ln.startswith("gradcheck objective air")]
    assert len(air) == 2
    assert all(float(ln.split()[-1]) < 1e-8 for ln in air)


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


@pytest.mark.parametrize("kind,flag,value", [
    ("thm2", "--steps", 0), ("balance", "--steps", -1), ("thm2", "--lr", 0),
    ("thm1", "--lr", 0), ("balance", "--lr", 0), ("thm1", "--rows", 2),
    ("thm1", "--cols", 2), ("balance", "--rows", 0)])
def test_verify_rejects_a_flow_it_cannot_integrate(capsys, kind, flag,
                                                   value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", "--kind", kind, flag, value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


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


# ---------------------------------------------------------------------------
# two-way split (the pool fixture counts the worker's tasks)

@pytest.fixture()
def two_cpus(monkeypatch):
    """The machine the split is for: two CPUs and BLAS on one thread."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def lowrank_args(out_dir, rows, cols):
    return ("--data-kind", "lowrank", "--rows", rows, "--cols", cols,
            "--rank", 3, "--missing", 0.7, "--max-iters", 2,
            "--out-dir", out_dir)


def test_split_runs_only_for_a_large_model(two_cpus, pool, tmp_path):
    assert run("complete", *lowrank_args(tmp_path / "small", 100, 100)) == 0
    assert pool.submitted == 0
    assert run("complete", *lowrank_args(tmp_path / "large", 260, 140)) == 0
    assert pool.submitted > 0


@pytest.mark.parametrize("kind", ["thm1", "balance", "gradcheck"])
def test_verify_hands_nothing_to_the_worker(two_cpus, pool, kind, capsys):
    assert run("verify", "--kind", kind) == 0
    assert pool.submitted == 0


@pytest.mark.parametrize("shape, splits", [((260, 140), True),
                                           ((100, 100), False)],
                         ids=["large", "small"])
def test_sweep_arms_split_as_lone_runs_do(two_cpus, pool, tmp_path, shape,
                                          splits):
    # the arms run in turn on the main thread, each as `complete` would
    assert run("sweep", "--axis", "depth", "--values", "2,3",
               *lowrank_args(tmp_path, *shape)) == 0
    assert (pool.submitted > 0) == splits
    assert (tmp_path / "sweep_summary.csv").read_text().count(",ok") == 2
