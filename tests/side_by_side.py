"""Time two source trees of meandim in one process, op by op.

Each tree is a directory holding the ``meandim`` package (a checkout's
``src``).  The script imports ``meandim.cli`` from the first tree, purges
every ``meandim`` module from ``sys.modules``, imports it again from the
second, and keeps both ``main`` functions; the package does all its imports
at module level, so each ``main`` runs only its own tree's code.  Each op is
one CLI argv, given as one shell-quoted string and optionally named
``NAME=ARGV``; it is run from the current directory, so relative config
paths are read from there::

    python tests/side_by_side.py ../parent/src src \\
        "verify-z2=verify --config perfbench/toy-z2.cfg" --rounds 15

Every op must print the same stdout on both trees, with the same stderr and
exit code, or the script stops with exit code 1 before timing anything.
Then each round times every op on both trees, as the median of ``--calls``
calls in ms, with odd rounds running the first tree first, so that host
speed, which can drift between processes by more than the gain being
measured, drifts on both sides alike.  It prints each op's per-side median
over the rounds, the ratio second/first and the rounds the second tree read
lower; the last line is the same as one JSON object.  Stdlib only; pytest
does not collect this file (its name has no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shlex
import statistics
import sys
import time
from pathlib import Path


def load_main(tree: Path):
    """``meandim.cli.main`` imported afresh from ``tree``."""
    for name in [m for m in sys.modules if m == "meandim" or m.startswith("meandim.")]:
        del sys.modules[name]
    sys.path.insert(0, str(tree))
    try:
        cli = importlib.import_module("meandim.cli")
    finally:
        sys.path.remove(str(tree))
    if Path(cli.__file__).resolve().parents[1] != tree.resolve():
        raise SystemExit(f"imported meandim from {cli.__file__}, not from {tree}")
    return cli.main


def parse_op(text: str) -> tuple:
    """(name, argv) of an op string, ``NAME=ARGV`` or a bare argv named by itself."""
    head, sep, rest = text.partition("=")
    if sep and head and not head.startswith("-") and not any(c.isspace() for c in head):
        return head, shlex.split(rest)
    return text, shlex.split(text)


def run(main, argv: list) -> tuple:
    """(exit code, stdout, stderr, seconds) of one ``main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(list(argv))
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path, help="source tree holding meandim (the parent)")
    parser.add_argument("second", type=Path, help="source tree holding meandim (the change)")
    parser.add_argument("ops", nargs="+", help="CLI argv strings, optionally NAME=ARGV")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--calls", type=int, default=11, help="calls per op, side and round")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be at least 1")
    mains = [load_main(args.first), load_main(args.second)]
    ops = [parse_op(text) for text in args.ops]
    for name, op in ops:
        first, second = (run(m, op)[:3] for m in mains)
        if first != second:
            print(f"{name}: the trees differ (exit code, stdout, stderr): {first!r} != {second!r}")
            return 1
    times = {name: ([], []) for name, _ in ops}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name, op in ops:
            for side in order:
                calls = [run(mains[side], op)[3] for _ in range(args.calls)]
                times[name][side].append(statistics.median(calls) * 1e3)
    report = {}
    for name, (first, second) in times.items():
        a, b = statistics.median(first), statistics.median(second)
        lower = sum(y < x for x, y in zip(first, second))
        report[name] = {"first_ms": round(a, 3), "second_ms": round(b, 3), "ratio": round(b / a, 4),
                        "second_lower": lower, "rounds": args.rounds,
                        "first_rounds_ms": [round(x, 3) for x in first],
                        "second_rounds_ms": [round(y, 3) for y in second]}
        print(f"{name}: {a:.3f} -> {b:.3f} ms ({b / a - 1:+.1%}), second lower in {lower} of {args.rounds}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
