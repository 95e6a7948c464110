"""Output checks applied to every operation. Each returns a list of
problems; an operation with any problem counts as failed.
"""
from __future__ import annotations

import json
import math

TRACE_HEADER = "iter,total,fid,reg_r,reg_c,mse_obs,mse_unobs,nmae"
BALANCE_HEADER = "t,residual_0,residual_1,max_relative"
THM1_HEADER = ("t,k,sigma,sigma_dot,pred_statement,pred_proof,"
               "rel_err_statement,rel_err_proof")

# stdout lines that mean a verify kind passed
PASS_LINES = {
    "thm1": ("thm1 regularized: PASS", "thm1 fidelity-only: PASS"),
    "balance": ("balance: PASS",),
    "gradcheck": ("gradcheck: PASS",),
}


def trace_header(sigmas: int) -> str:
    return TRACE_HEADER + "".join(f",sigma_{j + 1}" for j in range(sigmas))


def balance_times(steps: int, lr: float = 1e-4, every: int = 10) -> list:
    """The t column `verify --kind balance` logs at its default step size."""
    return [it * lr if it else 0.0 for it in range(0, steps + 1, every)]


def verdict_value(text: str, key: str):
    """A number from the `verdict,k=v;...` line of a verify report."""
    for ln in reversed(text.splitlines()):
        if ln.startswith("verdict,"):
            for part in ln[len("verdict,"):].split(";"):
                k, _, v = part.partition("=")
                if k == key:
                    try:
                        return float(v)
                    except ValueError:
                        return None
    return None


def expected_checkpoints(iters: int, log_every: int) -> list:
    """Iterations the trace logs: 0, every log_every, and the last one."""
    its = list(range(0, iters + 1, log_every))
    if its[-1] != iters:
        its.append(iters)
    return its


def check_table(text: str, header: str, first_col=None) -> list:
    """A CSV table: exact header, full rows, finite values, and when given
    the exact first column. A trailing `verdict,` line is allowed."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"header {lines[0] if lines else ''!r}, expected {header!r}"]
    rows = lines[1:]
    if rows and rows[-1].startswith("verdict,"):
        rows = rows[:-1]
    width = header.count(",") + 1
    firsts = []
    for i, ln in enumerate(rows, start=2):
        parts = ln.split(",")
        if len(parts) != width:
            return [f"line {i} has {len(parts)} fields, header has {width}"]
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            return [f"line {i} is not numeric"]
        if not all(math.isfinite(v) for v in vals):
            return [f"line {i} holds a non-finite value"]
        firsts.append(vals[0])
    if first_col is not None and firsts != [float(v) for v in first_col]:
        return [f"first column {firsts[:3]}...{firsts[-1:]} "
                f"({len(firsts)} rows), expected {len(first_col)} rows "
                f"ending at {first_col[-1]}"]
    return []


def check_report(text: str, iters: int) -> list:
    """report.json: the full step budget ran."""
    try:
        rep = json.loads(text)
    except ValueError as e:
        return [f"report.json unreadable: {e}"]
    problems = []
    if rep.get("iters") != iters:
        problems.append(f"iters {rep.get('iters')}, budget {iters}")
    if rep.get("stop_reason") != "max_iters":
        problems.append(f"stop_reason {rep.get('stop_reason')!r}, expected 'max_iters'")
    return problems


def last_row(text: str) -> dict:
    """The final row of a checked CSV table, by column name."""
    lines = text.splitlines()
    return dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))


def check_reference(measured: dict, ref: dict, tol: float) -> list:
    """Every recorded value is measured and within relative tol of it."""
    if not ref:
        return [f"no recorded reference; measured {dict(sorted(measured.items()))}"]
    bad = {k: measured.get(k) for k, v in ref.items()
           if measured.get(k) is None
           or not math.isclose(measured[k], v, rel_tol=tol, abs_tol=1e-300)}
    if not bad:
        return []
    return [f"differs from the recorded reference at {bad}; "
            f"measured {dict(sorted(measured.items()))}"]


def check_pass_lines(kind: str, stdout: str) -> list:
    lines = stdout.splitlines()
    return [f"{kind}: missing {want!r}" for want in PASS_LINES[kind]
            if not any(ln.startswith(want) for ln in lines)]
