"""Tests of the benchmark's own arithmetic and checks.

    python -m pytest perfbench/tests -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402


# --- median and tail percentile ---------------------------------------------

def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(20)) is None
    # 21 samples: p52 sits at rank 11, leaving exactly 10 beyond it
    assert stats.tail_percentile(range(21)) == (52, 10.0)
    assert stats.tail_percentile(range(100)) == (90, 89.0)
    assert stats.tail_percentile(range(1000)) == (99, 989.0)


def test_tail_percentile_leaves_ten_beyond_for_every_size():
    for n in range(21, 400, 7):
        vals = list(range(n))
        p, v = stats.tail_percentile(vals)
        assert sum(x > v for x in vals) >= 10
        # one percentile higher would leave fewer than ten
        if p < 99:
            rank = -(-(p + 1) * n // 100)
            assert n - rank < 10


def test_summarize_reports_count():
    s = stats.summarize([1.0, 2.0, 3.0])
    assert s == {"median": 2.0, "n": 3}
    assert stats.summarize(range(30))["tail_pct"] == 66


def test_timings_are_scaled_by_host_speed():
    raw = {"run_s": [2.0, 1.0], "iters_per_s": [5.0, 10.0],
           "setup_s": [0.3, 0.1], "peak_rss_mb": [7.0, 7.0]}
    assert run.scale(raw, [0.5, 2.0]) == {
        "run_s": [1.0, 2.0], "iters_per_s": [10.0, 5.0], "setup_s": [0.15, 0.2]}


# --- spans -------------------------------------------------------------------

def span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, "r")


SPANS = [span("cli.main", 0.0, 10.0, -1),
         span("trainer.train", 1.0, 9.0, 0),
         span("dmf.forward", 2.0, 3.0, 1),
         span("mat_core.as_matrix", 2.2, 2.7, 2),
         span("dmf.forward", 4.0, 6.0, 1),
         span("dmf.forward", 9.5, 9.75, 0)]


def test_self_time_subtracts_direct_children_only():
    assert tracer.self_times(SPANS) == pytest.approx(
        [10 - 8 - 0.25, 8 - 1 - 2, 1 - 0.5, 0.5, 2, 0.25])


def test_scope_membership_and_aggregate():
    assert tracer.in_scope(SPANS) == [False, True, True, True, True, False]
    agg = tracer.aggregate(SPANS)
    fwd = agg["dmf.forward"]
    assert fwd["calls"] == 3 and fwd["scope_calls"] == 2
    assert fwd["s"] == pytest.approx(3.25)
    assert fwd["scope_s"] == pytest.approx(3.0)
    assert fwd["scope_self_s"] == pytest.approx(2.5)
    assert agg["trainer.train"]["scope_self_s"] == pytest.approx(5.0)


def test_tracer_records_parents_and_round_trips(tmp_path):
    t = tracer.Tracer("run-7")
    inner = t.wrap("m.inner", lambda x: x + 1)
    outer = t.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    with pytest.raises(ZeroDivisionError):
        t.wrap("m.fails", lambda: 1 / 0)()
    t.write(tmp_path / "s.json")
    spans = tracer.read_spans(tmp_path / "s.json")
    assert [(s.name, s.parent, s.run_id) for s in spans] == [
        ("m.outer", -1, "run-7"), ("m.inner", 0, "run-7"), ("m.fails", -1, "run-7")]
    assert all(s.end >= s.start for s in spans)


def test_traced_child_wraps_directly_imported_names(tmp_path):
    out = tmp_path / "spans.json"
    p = subprocess.run([sys.executable, str(BENCH / "child.py"), "--spans", str(out),
                        "--trace", "--", "verify", "--kind", "gradcheck"],
                       capture_output=True, text=True, env=run.child_env(), timeout=120)
    assert p.returncode == 0, p.stderr
    names = {s.name for s in tracer.read_spans(out)}
    # cli imports these names directly; the spans prove the wrappers reached them
    assert {"cli.gradcheck", "baselines.tv_value_and_grad", "air_reg.grad_wrt_X",
            "dmf.factor_grads", "data_lab.n_observed", "mat_core.as_matrix"} <= names


# --- seeds and workloads ------------------------------------------------------

def test_seed_derivation_is_stable_and_separates_roles():
    a = derive_seed(3, "dmf-deep", "data")
    assert a == derive_seed(3, "dmf-deep", "data")
    assert 0 <= a < 2 ** 31
    others = {derive_seed(3, "dmf-deep", "mask"), derive_seed(4, "dmf-deep", "data"),
              derive_seed(3, "dmf-deep", "model"),
              derive_seed(3, "air-small-ckpt", "data")}
    assert a not in others and len(others) == 4


def test_same_seed_gives_same_commands():
    for w in WORKLOADS.values():
        assert w.input_commands(5, "in") == w.input_commands(5, "in")
        assert w.op_commands(5, "in", "out") == w.op_commands(5, "in", "out")
    w = WORKLOADS["dmf-deep"]
    assert w.input_commands(5, "in") != w.input_commands(6, "in")
    assert w.op_commands(5, "in", "out") != w.op_commands(6, "in", "out")


def test_every_workload_has_a_recorded_answer():
    for w in WORKLOADS.values():
        assert w.ref
        if not w.is_lab:
            assert {"nmae", "x_norm", "total", "fid"} <= set(w.ref)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_factor_grad_flops_grow_linearly_with_depth():
    f = [run.factor_grads_flops(30, 20, L) for L in range(3, 9)]
    steps = {b - a for a, b in zip(f, f[1:])}
    assert len(steps) == 1
    # depth 2: X = F1 F0, gradients F1^T G and G F0^T only
    assert run.factor_grads_flops(3, 2, 2) == 2 * 2 * 3 * 2 + 2 * 3 * 2 * 2


# --- correctness checks -------------------------------------------------------

GOOD_TRACE = (checks.TRACE_HEADER + "\n"
              "0,5.0,5.0,0,0,1.0,1.0,0.5\n"
              "10,4.0,4.0,0,0,0.8,0.9,0.4\n"
              "15,3.0,3.0,0,0,0.7,0.8,0.3\n")


def test_trace_check_accepts_a_full_trace():
    assert checks.expected_checkpoints(15, 10) == [0, 10, 15]
    assert checks.check_table(GOOD_TRACE, checks.TRACE_HEADER, [0, 10, 15]) == []


@pytest.mark.parametrize("text", [
    GOOD_TRACE.rsplit("15,", 1)[0],                    # last checkpoint missing
    GOOD_TRACE[:-12],                                  # last row cut mid-line
    GOOD_TRACE.replace("0.3\n", "nan\n"),              # non-finite value
    GOOD_TRACE.replace("nmae", "nmae_x"),              # header changed
    "",                                                # empty file
])
def test_trace_check_rejects_damaged_traces(text):
    assert checks.check_table(text, checks.TRACE_HEADER, [0, 10, 15])


def test_trace_header_lists_tracked_sigmas():
    assert checks.trace_header(2) == checks.TRACE_HEADER + ",sigma_1,sigma_2"


def report(**kw):
    rep = {"nmae": 0.2, "mse_obs": 1.0, "mse_unobs": 1.0, "iters": 50,
           "stop_reason": "max_iters"}
    rep.update(kw)
    return json.dumps(rep)


def test_report_check_rejects_a_short_run():
    assert checks.check_report(report(), 50) == []
    assert checks.check_report(report(iters=40), 50)
    assert checks.check_report(report(stop_reason="reg_delta"), 50)
    assert checks.check_report("{", 50)


def test_reference_check():
    ref = {"nmae": 0.2, "x_norm": 3.0, "reg_r": 0.0}
    assert checks.check_reference({"nmae": 0.2 * (1 + 1e-9), "x_norm": 3.0,
                                   "reg_r": 0.0, "fid": 7.0}, ref, 1e-6) == []
    for bad in ({"x_norm": 3.0 * (1 + 1e-5)}, {"nmae": float("nan")},
                {"reg_r": 1e-12}):
        assert checks.check_reference({**ref, **bad}, ref, 1e-6)
    assert checks.check_reference({"nmae": 0.2}, ref, 1e-6)    # a value missing
    assert checks.check_reference(ref, {}, 1e-6)               # nothing recorded


def test_last_row_names_the_final_checkpoint():
    row = checks.last_row(GOOD_TRACE)
    assert row["iter"] == 15 and row["nmae"] == 0.3 and len(row) == 8


def test_verify_checks():
    assert checks.check_pass_lines("balance", "balance: PASS (max ...)\n") == []
    assert checks.check_pass_lines("thm1", "thm1 regularized: PASS\n"
                                           "thm1 fidelity-only: FAIL\n")
    text = "t,x\n0,1\nverdict,passed=True;max_rel_err_selected=0.00025\n"
    assert checks.verdict_value(text, "max_rel_err_selected") == 0.00025
    assert checks.verdict_value(text, "missing") is None
    times = checks.balance_times(30)
    assert times == [0.0, 0.001, 0.002, 0.003]
    table = checks.BALANCE_HEADER + "\n" + "".join(
        f"{format(t, '.17g')},1,1,1\n" for t in times[:-1])
    assert checks.check_table(table, checks.BALANCE_HEADER, times)


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dmf-deep",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
