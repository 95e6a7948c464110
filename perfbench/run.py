"""Benchmark of `aircomplete complete` and the verify lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from `src/` as it is,
nothing is installed. Each operation is a fresh `aircomplete` process (one
client, closed loop: the next starts when the last has exited) with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1. Inputs come from the seed and are
written before timing starts. A `complete` run's first operation is on a
fixed reference input whose outputs were recorded (see workloads.py); the
rest repeat the seed's input. Operations repeat until S seconds are used,
and every one is checked; a failed check counts it as failed.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones, medians over untraced operations, with timings scaled to
the host's full speed (see PROBE_REF_S, Workload.scaled). With --trace 1
every other operation runs with all public functions wrapped (see
tracer.py) and the metrics are the per-layer ones, plus the tracing
overhead: traced minus untraced median run_s. The line before it holds the
detail: medians with tail percentiles and sample counts, raw and scaled
samples, the environment record, the full per-function table and any
check failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import stats
import tracer
from workloads import REF_SEED, REF_TOL, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# a run must exit within 180 s; stop starting operations well before
HARD_LIMIT_S = 140.0

END_TO_END = {"run_s": "s", "setup_s": "s", "iters_per_s": "1/s",
              "peak_rss_mb": "MB", "answer_err": "1"}

# per-layer metrics read from spans: (span name, suffix). Suffix .ms is
# inclusive milliseconds per iteration inside the scope calls,
# .calls_per_iter the call count per iteration there, .s whole-process
# seconds per operation and .calls whole-process calls per operation.
SPAN_METRICS = [
    ("air_reg.reg_value_and_grad", "ms"), ("air_reg.build_laplacian", "ms"),
    ("air_reg.grad_wrt_X", "ms"),
    ("air_reg.reg_value_and_grad", "calls_per_iter"),
    ("air_reg.build_laplacian", "calls_per_iter"),
    ("dmf.factor_grads", "ms"), ("dmf.forward", "ms"),
    ("dmf.forward", "calls_per_iter"),
    ("trainer.adam_step", "ms"), ("trainer.metrics", "ms"),
    ("mat_core.svd", "ms"), ("mat_core.as_matrix", "calls_per_iter"),
    ("data_lab.n_observed", "calls_per_iter"), ("data_lab.apply_mask", "ms"),
    ("data_lab.lift", "ms"),
    ("cli.read_matrix_csv", "s"), ("data_lab.read_mask_pgm", "s"),
    ("dmf.initialize", "s"), ("cli.write_matrix_csv", "s"),
    ("theory_lab.verify_theorem1", "s"), ("theory_lab.verify_balance", "s"),
    ("cli.gradcheck", "s"), ("baselines.tv_value_and_grad", "calls"),
]
SUFFIX_UNITS = {"ms": "ms/iter", "calls_per_iter": "1/iter", "s": "s",
                "calls": "count"}
GRAPH_SPANS = ("air_reg.reg_value_and_grad", "air_reg.build_laplacian",
               "air_reg.grad_wrt_X")
PER_LAYER = {
    "air_reg.graph_ms_per_iter": "ms/iter",
    **{f"{span}.{suffix}": SUFFIX_UNITS[suffix] for span, suffix in SPAN_METRICS},
    "trainer.self_ms_per_iter": "ms/iter",
    "dmf.factor_grads.gflops": "GFLOP/s",
    "cli.output_bytes": "B",
    "env.dgemm_gflops": "GFLOP/s",
    "trace.overhead_s": "s",
}


# Timings are scaled to the host's full speed. On a shared 2-vCPU host the
# CPU runs up to 2x slower in phases lasting seconds to minutes; over two
# minutes a pure-Python loop and a 256x256 dgemm slowed by the same factor
# (the dgemm read 37 to 58 GFLOP/s). Phases that long move every per-run
# statistic (unscaled medians moved by 20 to 40% between two sets of ten
# runs), so a fixed Python loop is timed before and after each operation,
# and the operation's run_s and setup_s are multiplied (iters_per_s
# divided) by PROBE_REF_S over the mean of those two probe times.
# PROBE_REF_S is the probe's time at full speed on a 2.1 GHz Xeon vCPU, so
# scaled values read as seconds at that speed. The detail line keeps the
# raw samples and the factors; per-layer figures, and workloads not marked
# `scaled`, are raw.
PROBE_N = 50_000
PROBE_REPS = 15
PROBE_REF_S = 3.3e-3
SCALED = ("run_s", "setup_s", "iters_per_s")


def probe_s() -> float:
    """Median time of a fixed pure-Python loop: the host-speed probe."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_N):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return stats.median(times)


def scale(raw: dict, speed: list) -> dict:
    """Timings at full host speed: times times the factor, rates over it."""
    return {k: [v / f if k == "iters_per_s" else v * f
                for v, f in zip(raw[k], speed)] for k in SCALED}


@dataclass
class Proc:
    rc: int
    t0: float
    t1: float
    maxrss_mb: float
    output: str
    spans: list


@dataclass
class Op:
    is_ref: bool       # on the reference input, checked against recorded outputs
    traced: bool
    problems: list = field(default_factory=list)
    run_s: float = 0.0
    setup_s: float = 0.0
    iters_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    answer: float = float("nan")
    speed: float = 1.0   # PROBE_REF_S over the probe time around the operation
    digests: dict = field(default_factory=dict)
    out_bytes: int = 0
    table: dict = field(default_factory=dict)  # tracer.aggregate, summed


# ---------------------------------------------------------------------------
# processes

def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_process(argv, work: Path, traced: bool, run_id: str, deadline: float) -> Proc:
    """One `aircomplete` process through child.py, timed from spawn to
    exit. Peak memory is this child's own, from wait4."""
    spans_path, log_path = work / "spans.json", work / "log.txt"
    spans_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--spans", str(spans_path),
           "--run-id", run_id, *(["--trace"] if traced else []), "--", *argv]
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                             env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - t0), p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
            t1 = time.perf_counter()
            p.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            watchdog.cancel()
    spans = tracer.read_spans(spans_path) if spans_path.exists() else []
    return Proc(p.returncode, t0, t1, usage.ru_maxrss / 1024.0,
                log_path.read_text(errors="replace"), spans)


def prepare_inputs(w: Workload, seeds: dict, work: Path, deadline: float) -> dict:
    """Write the input of each {label: seed} before timing; returns their
    directories. These processes also compile the package's bytecode, so
    the first timed operation does not pay for it."""
    dirs = {}
    for label, seed in seeds.items():
        d = dirs[label] = work / f"input-{label}"
        d.mkdir()
        cmds = w.input_commands(seed, str(d))
        if w.is_lab:
            cmds = [["verify", "--kind", "gradcheck"]]
        for argv in cmds:
            p = run_process(argv, work, False, "setup", deadline)
            if p.rc != 0:
                raise SystemExit(f"input generation failed: {' '.join(argv)}\n{p.output}")
    return dirs


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# one operation

def scope_timing(op: Op, procs: list, steps: int):
    """Set-up ends at the first scope call; iterations run inside them."""
    scopes = [(p, s) for p in procs for s in p.spans if s.name in tracer.SCOPES]
    if not scopes:
        op.problems.append("no training or flow call was recorded")
        return
    first_proc, first = scopes[0]
    op.setup_s = first.start - first_proc.t0
    op.iters_per_s = steps / sum(s.end - s.start for _, s in scopes)


def run_complete_op(w: Workload, seed: int, is_ref: bool, in_dir: Path, work: Path,
                    traced: bool, run_id: str, deadline: float) -> tuple:
    out = fresh_dir(work / "out")
    [(_, argv)] = w.op_commands(seed, str(in_dir), str(out))
    p = run_process(argv, work, traced, run_id, deadline)
    op = Op(is_ref, traced, run_s=p.t1 - p.t0, peak_rss_mb=p.maxrss_mb)
    if p.rc != 0:
        op.problems.append(f"exit code {p.rc}: {p.output[-300:]}")
        return op, [p]
    report, trace, recovered = (out / f for f in
                                ("report.json", "trace.csv", "recovered.csv"))
    if not (report.exists() and trace.exists() and recovered.exists()):
        op.problems.append("report.json, trace.csv or recovered.csv missing")
        return op, [p]
    op.problems += checks.check_report(report.read_text(), w.iters)
    op.problems += checks.check_table(
        trace.read_text(), checks.trace_header(w.sigmas),
        checks.expected_checkpoints(w.iters, w.log_every))
    if is_ref and not op.problems:
        import numpy as np
        X = np.loadtxt(recovered, delimiter=",", ndmin=2)
        op.answer = json.loads(report.read_text())["nmae"]
        measured = {**checks.last_row(trace.read_text()), "nmae": op.answer,
                    "x_norm": float(np.linalg.norm(X))}
        op.problems += checks.check_reference(measured, w.ref, REF_TOL)
    op.digests = {"trace.csv": sha256(trace)}
    op.out_bytes = sum(f.stat().st_size for f in out.iterdir())
    scope_timing(op, [p], w.steps())
    return op, [p]


def run_lab_op(w: Workload, seed: int, is_ref: bool, in_dir: Path, work: Path,
               traced: bool, run_id: str, deadline: float) -> tuple:
    out = fresh_dir(work / "out")
    procs = []
    op = Op(is_ref, traced)
    for kind, argv in w.op_commands(seed, str(in_dir), str(out)):
        p = run_process(argv, work, traced, f"{run_id}/{kind}", deadline)
        procs.append(p)
        op.run_s += p.t1 - p.t0
        op.peak_rss_mb = max(op.peak_rss_mb, p.maxrss_mb)
        if p.rc != 0:
            op.problems.append(f"{kind} exit code {p.rc}: {p.output[-300:]}")
            continue
        op.problems += checks.check_pass_lines(kind, p.output)
    steps = dict(w.verify)
    tables = {"thm1.csv": (checks.THM1_HEADER, None),
              "balance.csv": (checks.BALANCE_HEADER,
                              checks.balance_times(steps["balance"]))}
    for name, (header, first_col) in tables.items():
        path = out / name
        if not path.exists():
            op.problems.append(f"{name} missing")
            continue
        text = path.read_text()
        op.problems += [f"{name}: {m}" for m in checks.check_table(text, header, first_col)]
        op.digests[name] = sha256(path)
        if name == "thm1.csv":
            key = "max_rel_err_selected"
            op.answer = checks.verdict_value(text, key)
            op.problems += checks.check_reference(
                {} if op.answer is None else {key: op.answer}, w.ref, REF_TOL)
    op.out_bytes = sum(f.stat().st_size for f in out.iterdir())
    scope_timing(op, procs, w.steps())
    return op, procs


# ---------------------------------------------------------------------------
# per-layer metrics

def factor_grads_flops(m: int, n: int, depth: int) -> int:
    """Flops of the factor gradients when the prefix and suffix products
    are cached: O(L) matrix products. Computed from the shapes, not
    measured, so the rate it gives rises when redundant products go."""
    r, L = min(m, n), depth
    flops = 2 * (L - 2) * (m * r * r + r * r * n)
    for l in range(L):
        rows = m
        if l < L - 1:
            flops += 2 * r * m * n
            rows = r
        if l > 0:
            flops += 2 * rows * n * r
    return flops


def merge_tables(procs) -> dict:
    table: dict = {}
    for p in procs:
        for name, agg in tracer.aggregate(p.spans).items():
            dst = table.setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                dst[k] += v
    return table


def layer_metrics(w: Workload, op: Op) -> dict:
    t, steps = op.table, w.steps()
    empty = {"calls": 0, "s": 0.0, "scope_calls": 0, "scope_s": 0.0,
             "scope_self_s": 0.0}
    out = {}
    for span, suffix in SPAN_METRICS:
        a = t.get(span, empty)
        out[f"{span}.{suffix}"] = {
            "ms": 1e3 * a["scope_s"] / steps,
            "calls_per_iter": a["scope_calls"] / steps,
            "s": a["s"], "calls": a["calls"]}[suffix]
    out["air_reg.graph_ms_per_iter"] = sum(out[f"{s}.ms"] for s in GRAPH_SPANS)
    out["trainer.self_ms_per_iter"] = (
        1e3 * t.get("trainer.train", empty)["scope_self_s"] / steps)
    fg = t.get("dmf.factor_grads", empty)
    out["dmf.factor_grads.gflops"] = (
        fg["scope_calls"] * factor_grads_flops(*w.chain) / fg["scope_s"] / 1e9
        if fg["scope_s"] > 0 else 0.0)
    out["cli.output_bytes"] = op.out_bytes
    return out


def largest_layer(layers: dict) -> str:
    shares = {"air_reg.graph": layers["air_reg.graph_ms_per_iter"],
              "trainer.self": layers["trainer.self_ms_per_iter"]}
    for span in ("dmf.factor_grads", "dmf.forward", "trainer.adam_step",
                 "trainer.metrics", "mat_core.svd"):
        shares[span] = layers[f"{span}.ms"]
    return max(shares, key=shares.get)


# ---------------------------------------------------------------------------
# environment

def dgemm_gflops(n: int = 512, reps: int = 15, warmup_s: float = 0.2) -> float:
    """Median single-thread dgemm rate, GFLOP/s (threads pinned by env),
    after a short warm-up that lets the clock frequency settle."""
    import numpy as np
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    t_end = time.perf_counter() + warmup_s
    while time.perf_counter() < t_end:
        a @ b
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        rates.append(2.0 * n ** 3 / (time.perf_counter() - t0) / 1e9)
    return stats.median(rates)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None     # not a repository of its own; do not report a parent's
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"threads": THREADS, "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "git_sha": git_sha()}


# ---------------------------------------------------------------------------
# the run

def bench(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    t_begin = time.perf_counter()
    deadline = t_begin + HARD_LIMIT_S
    env = environment()
    env["dgemm_gflops_start"] = dgemm_gflops()
    # `complete` workloads start with one operation on the reference input,
    # then repeat the seed's input; every lab operation is the reference
    seeds = {"seed": seed} if w.is_lab else {"ref": REF_SEED, "seed": seed}
    inputs = prepare_inputs(w, seeds, work, deadline)
    run_op = run_lab_op if w.is_lab else run_complete_op
    min_ops = len(seeds) + 1           # at least one rerun of the seed's input
    ops: list = []
    first_digests: dict = {}
    probe = probe_s() if w.scaled else 0.0
    start = time.perf_counter()
    while True:
        i = len(ops)
        label = "ref" if i == 0 and "ref" in seeds else "seed"
        traced = trace and i % 2 == 1
        op, procs = run_op(w, seeds[label], w.is_lab or label == "ref",
                           inputs[label], work, traced,
                           f"{w.name}/{seeds[label]}/{i}", deadline)
        first = first_digests.setdefault(label, op.digests)
        for name, digest in op.digests.items():
            if first.get(name) != digest:
                op.problems.append(f"{name} differs from the first run of "
                                   f"the {label} input")
        if traced:
            op.table = merge_tables(procs)
        if w.scaled:
            after = probe_s()
            op.speed = PROBE_REF_S / ((probe + after) / 2)
            probe = after
        ops.append(op)
        now = time.perf_counter()
        per_op = (now - start) / len(ops)
        if now + per_op > deadline:
            break
        if len(ops) >= min_ops and now - start + per_op > seconds:
            break
    env["dgemm_gflops_end"] = dgemm_gflops()

    ok = [op for op in ops if not op.problems]
    plain = [op for op in ok if not op.traced]
    failed = len(ops) - len(ok)
    detail = {"workload": w.name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "elapsed_s": time.perf_counter() - t_begin,
              "env": env, "failures": [
                  {"op": i, "traced": op.traced, "problems": op.problems}
                  for i, op in enumerate(ops) if op.problems]}
    metrics = {}
    # the answer is read on the reference input only, where it is recorded
    answers = [op.answer for op in ok if op.is_ref]
    if plain:
        raw = {k: [getattr(op, k) for op in plain]
               for k in ("run_s", "setup_s", "iters_per_s", "peak_rss_mb")}
        speed = [op.speed for op in plain]
        samples = {**raw, **scale(raw, speed)}
        detail["raw_samples"] = raw
        detail["speed"] = speed
        if answers:
            samples["answer_err"] = answers
        summary = {k: stats.summarize(v) for k, v in samples.items()}
        detail["end_to_end"] = summary
        detail["samples"] = samples
        if not trace and answers:
            metrics = {k: {"value": summary[k]["median"], "unit": u}
                       for k, u in END_TO_END.items()}
    traced_ok = [op for op in ok if op.traced]
    if trace and traced_ok and plain:
        per_op = [layer_metrics(w, op) for op in traced_ok]
        layers = {k: stats.median([m[k] for m in per_op]) for k in per_op[0]}
        layers["env.dgemm_gflops"] = stats.median(
            [env["dgemm_gflops_start"], env["dgemm_gflops_end"]])
        layers["trace.overhead_s"] = (
            stats.median([op.run_s for op in traced_ok])
            - stats.median([op.run_s for op in plain]))
        detail["largest_layer"] = largest_layer(layers)
        detail["factor_grads_bytes_computed"] = factor_grads_bytes(*w.chain)
        detail["functions"] = function_table(traced_ok[-1].table)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


def factor_grads_bytes(m: int, n: int, depth: int) -> int:
    """Bytes of the arrays one factor-gradient call must read and write at
    least (residual, factors, gradients), computed from the shapes."""
    r = min(m, n)
    factors = r * n + (depth - 2) * r * r + m * r
    return 8 * (m * n + 2 * factors)


def function_table(table: dict) -> dict:
    """Every traced function of one operation: calls, inclusive and self
    milliseconds per operation."""
    return {name: {"calls": a["calls"], "ms": round(1e3 * a["s"], 4),
                   "self_ms": round(1e3 * a["self_s"], 4)}
            for name, a in sorted(table.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "aircomplete" / "cli.py").is_file():
        print(f"error: no aircomplete sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)  # before numpy loads, for the dgemm probe
    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
