"""One `aircomplete` process, started the way the console script starts it.

    python perfbench/child.py --spans OUT.json [--trace] [--run-id ID] -- ARGS...

runs `aircomplete ARGS...` from the checkout's `src` and exits with its
code. Without --trace only the scope calls (the training call of
`complete`, the flows of `verify`) are wrapped, which gives the entry
timestamp that ends set-up and the time spent iterating. With --trace every
public function is wrapped. The spans are written to OUT.json at exit.
"""
from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--run-id", default="0")
    ap.add_argument("args", nargs=argparse.REMAINDER)
    ns = ap.parse_args()
    argv = ns.args[1:] if ns.args[:1] == ["--"] else ns.args

    t = tracer.Tracer(ns.run_id)
    t.install(None if ns.trace else tracer.SCOPES)
    from aircomplete import cli
    rc = cli.main(argv)
    t.write(ns.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
