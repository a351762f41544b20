"""meandim benchmark: seeded CLI workloads timed end to end, and a traced
run that gives per-layer numbers.

Run from the repository root, with the standard library only:

    python3 perfbench/run.py --workload eval-deep-z --seed 1 --seconds 5 --trace 0

Every op is ``meandim.cli.main(argv)`` called in this process, on one thread,
with stdout and stderr captured; every output is checked.  A run sets meandim
up several times (setup_s is the median), repeats the workload's op list
until ``--seconds`` have passed with tracing off, timing a fixed reference
loop before each op (wall_ref is each pass over its median loop), and then:

* with ``--trace 0``, attempts the ops known to fail today once;
* with ``--trace 1``, runs the op list and the known-failing ops once under
  pass-through wrappers that record spans around each layer's public
  functions, once more under ``tracemalloc`` for peak_mib (untimed: tracing
  allocations slows Python about tenfold), and then the per-layer probes in
  ``probes.py``.  Spans go to ``.perfbench-out/`` when the run ends.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where ``metrics``
holds the end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics
that BENCHMARK.json names.  The exit code is 0 whenever that line is printed
and 2 when the benchmark cannot run at all, e.g. without meandim's sources.
"""

import time

HARNESS_START = time.perf_counter()

import argparse  # noqa: E402  (imports count towards the first setup)
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import probes
import spec
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUPS = 11  # set-ups per run; setup_s is their median


class HarnessError(Exception):
    """The benchmark cannot run here."""


# -- set-up ------------------------------------------------------------------


def setup(name: str, seed: int):
    """Import meandim from this checkout afresh, load the configs and build
    the seeded op list.  Returns the meandim package and the workload."""
    for module in [m for m in sys.modules if m == "meandim" or m.startswith("meandim.")]:
        del sys.modules[module]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        meandim = importlib.import_module("meandim")
        for layer in spec.LAYERS:
            importlib.import_module(f"meandim.{layer}")
    except ImportError as exc:
        raise HarnessError(f"cannot import meandim from {SRC}: {exc}")
    if Path(meandim.__file__).resolve().parent.parent != SRC:
        raise HarnessError(f"imported meandim from {meandim.__file__}, not from {SRC}")
    return meandim, workloads.build(name, seed, meandim, ROOT)


def timed_setups(name: str, seed: int):
    samples = []
    for i in range(SETUPS):
        start = HARNESS_START if i == 0 else time.perf_counter()
        meandim, workload = setup(name, seed)
        samples.append(time.perf_counter() - start)
    return meandim, workload, samples


# -- ops -----------------------------------------------------------------------


@dataclass(eq=False)
class Outcome:
    op: workloads.Op
    stage: str  # "pass<i>", "traced", "memory" or "known-failing"
    seconds: float
    stdout: str
    problem: Optional[str]  # None when the op passed
    peak: Optional[int] = None  # tracemalloc peak in bytes, memory pass only


def run_op(cli, op, stage: str) -> Outcome:
    """One CLI invocation; it fails if it raises, exits non-zero or fails its check."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:  # the op failed; the run goes on and counts it
        seconds = time.perf_counter() - start
        return Outcome(op, stage, seconds, "", f"raised {type(exc).__name__}: {exc}"[:300])
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if code != 0:
        message = " | ".join((err.getvalue() or text).strip().splitlines())
        problem = f"exit {code}: {message[-300:]}"
    else:
        try:
            problem = op.check(text)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(op, stage, seconds, text, problem)


def reference_loop() -> float:
    """Seconds a fixed pure-Python arithmetic loop takes right now.

    The host's speed drifts by half from one minute to the next.  Dividing a
    pass by the loops timed between its ops cancels much of that drift, and
    meandim's code cannot change the loop.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def timed_passes(cli, workload, seconds: float):
    """The op list again and again until ``seconds`` have passed, with the
    reference loop timed before each op; returns outcomes and loop times by pass."""
    passes, references = [], []
    reference_loop()  # warm-up
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcomes, loops = [], []
        for op in workload.ops:
            loops.append(reference_loop())
            outcomes.append(run_op(cli, op, f"pass{len(passes)}"))
        passes.append(outcomes)
        references.append(loops)
    return passes, references


def memory_pass(cli, workload) -> list:
    """The op list once more under tracemalloc; each outcome carries its peak."""
    outcomes = []
    gc.collect()
    tracemalloc.start()
    try:
        for op in workload.ops:
            tracemalloc.reset_peak()
            outcome = run_op(cli, op, "memory")
            outcome.peak = tracemalloc.get_traced_memory()[1]
            outcomes.append(outcome)
    finally:
        tracemalloc.stop()
    return outcomes


def traced_pass(meandim, workload, tracer):
    """The op list and the known-failing ops once, under span wrappers.

    Returns the outcomes, the summed time of the workload's ops and the
    traced names that meandim no longer has."""
    patched, missing = tracing.install(tracer, spec.TRACED)
    outcomes = []
    try:
        for op in workload.ops + workload.known_failing:
            tracer.begin_op(op.name)
            outcomes.append(run_op(meandim.cli, op, "traced"))
    finally:
        tracing.restore(patched)
    wall = sum(o.seconds for o in outcomes[: len(workload.ops)])
    return outcomes, wall, missing


def cross_check(workload, outcomes) -> None:
    """Repeats of an op print identical stdout, and so do paired ops."""
    first = {}
    for outcome in outcomes:
        if outcome.problem is not None:
            continue
        reference = first.setdefault(outcome.op.name, outcome)
        if outcome.stdout != reference.stdout:
            outcome.problem = f"stdout differs from its {reference.stage} run"
    for a, b in workload.same_stdout:
        for outcome in outcomes:
            if (outcome.op.name == b and outcome.problem is None and a in first
                    and outcome.stdout != first[a].stdout):
                outcome.problem = f"stdout differs from {a}"


# -- statistics and stamps -----------------------------------------------------


def summary(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": read_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def read_commit():
    """HEAD of the checkout's git metadata, read without git; None when absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


# -- metrics ---------------------------------------------------------------------


def end_to_end(workload, setup_samples, passes, references, failed: int, attempted: int) -> dict:
    """Summaries of the untraced passes; per-command times where the command runs."""
    metrics = {"setup_s": summary(setup_samples)}
    walls = [sum(o.seconds for o in p) for p in passes]
    metrics["wall_s"] = summary(walls)
    metrics["wall_ref"] = summary(
        [wall / statistics.median(loops) for wall, loops in zip(walls, references)])
    metrics["reference_ms"] = summary([t * 1e3 for loops in references for t in loops])
    for command in dict.fromkeys(op.command for op in workload.ops):
        metrics[command.replace("-", "_") + "_s"] = summary(
            [sum(o.seconds for o in p if o.op.command == command) for p in passes])
    cells = sum(op.cells for op in workload.ops)
    metrics["window_cells_per_s"] = summary(
        [cells / sum(o.seconds for o in p if o.op.command == "window") for p in passes])
    metrics["failed_ratio"] = failed / attempted
    return metrics


def print_metrics(title: str, metrics: dict, table: dict) -> None:
    print(title)
    for name, values in metrics.items():
        unit, better, *moves = table[name]
        if isinstance(values, dict):
            shown = (f"{values['median']:.6g} {unit}  (q1 {values['q1']:.6g}, "
                     f"q3 {values['q3']:.6g}, n {values['n']})")
        else:
            shown = f"{values:.6g} {unit}"
        note = f"; moves {moves[0]}" if moves else ""
        print(f"  {name:<36} {shown}  [{better} is better{note}]")


def result_line(selected, metrics, correct: bool, attempted: int, failed: int) -> dict:
    chosen = {}
    for entry in selected:
        value = metrics.get(entry["name"])
        if value is None:
            correct = False  # the probe that measures it failed
            continue
        chosen[entry["name"]] = {
            "value": value["median"] if isinstance(value, dict) else value,
            "unit": entry["unit"],
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": chosen}


class TracedRun:
    """Traced pass, memory pass and per-layer probes of one workload."""

    def __init__(self, meandim, workload, seed: int, untraced_wall: float):
        self.tracer = tracing.Tracer()
        traced, self.traced_wall, self.missing = traced_pass(meandim, workload, self.tracer)
        self.memory = memory_pass(meandim.cli, workload)
        n_ops = len(workload.ops)
        self.outcomes = traced[:n_ops] + self.memory
        self.known = traced[n_ops:]
        deep = workloads.build("eval-deep-z", seed, meandim, ROOT)
        self.probes = probes.Probes(
            meandim, tracing.Tracer(),
            {"toy-z": workloads.TOY_Z.format(root=ROOT), "toy-z2": workloads.TOY_Z2},
            [op.argv[op.argv.index("--window") + 1] for op in deep.ops],
            workload.program_seed,
        )
        self.probes.run()
        self.untraced_wall = untraced_wall
        metrics = dict(self.probes.metrics)
        metrics["peak_mib"] = max(o.peak for o in self.memory) / 2**20
        for layer in spec.LAYERS:
            metrics[f"{layer}.errors"] = self.tracer.errors.get(layer, 0)
        metrics["trace.overhead_s"] = self.traced_wall - untraced_wall
        self.metrics = metrics

    def report(self, record: dict) -> None:
        tracer = self.tracer
        self_s = tracer.self_seconds()
        print_metrics("per layer (probes; the traced pass gives errors and overhead):",
                      self.metrics, spec.PER_LAYER)
        print(f"traced pass: wall {self.traced_wall:.4f} s against "
              f"{self.untraced_wall:.4f} s untraced; self time per layer:")
        for layer in spec.LAYERS:
            calls = sum(t[1] for t in tracer.totals.values() if t[0] == layer)
            print(f"  {layer:<13} {self_s.get(layer, 0.0):10.4f} s over {calls} calls")
        if self.missing:
            print(f"not traced, no longer in meandim: {', '.join(self.missing)}")
        for failure in self.probes.failures:
            print(f"FAILED probe {failure}")
        record["per_layer"] = self.metrics
        record["memory_pass_peak_mib"] = {o.op.name: o.peak / 2**20 for o in self.memory}
        record["trace"] = {
            "traced_wall_s": self.traced_wall, "untraced_wall_s": self.untraced_wall,
            "self_s": self_s, "missing": self.missing,
            "totals": {name: {"layer": t[0], "calls": t[1], "total_s": t[2], "self_s": t[3]}
                       for name, t in sorted(tracer.totals.items())},
        }

    def write_spans(self, record: dict, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"stamp": record["stamp"],
                       "fields": ["id", "name", "start", "end", "parent", "op"],
                       "traced_pass": self.tracer.spans,
                       "probes": self.probes.tracer.spans}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")


# -- main ------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="time spent in timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        selected, table = ((benchmark["per_layer"], spec.PER_LAYER) if args.trace
                           else (benchmark["end_to_end"], spec.END_TO_END))
        for entry in selected:
            if table.get(entry["name"], ("",))[0] != entry["unit"]:
                raise HarnessError(f"BENCHMARK.json metric {entry['name']} "
                                   f"({entry['unit']}) is not measured here")
        meandim, workload, setup_samples = timed_setups(args.workload, args.seed)
    except (OSError, ValueError, KeyError, HarnessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {"record": "meandim-perfbench",
              "stamp": stamp(args.workload, args.seed, args.seconds, args.trace)}
    print(json.dumps(record["stamp"]))
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}
    print(f"workload {workload.name}: {why.get(workload.name, '')}")

    passes, references = timed_passes(meandim.cli, workload, args.seconds)
    outcomes = [o for p in passes for o in p]
    traced = None
    if args.trace:
        wall = statistics.median(sum(o.seconds for o in p) for p in passes)
        traced = TracedRun(meandim, workload, args.seed, wall)
        outcomes += traced.outcomes
        known = traced.known
    else:
        known = [run_op(meandim.cli, op, "known-failing") for op in workload.known_failing]
    cross_check(workload, outcomes + known)
    problems = [o for o in outcomes if o.problem is not None]
    failed_known = sum(1 for o in known if o.problem is not None)
    metrics = end_to_end(workload, setup_samples, passes, references,
                         len(problems) + failed_known, len(outcomes) + len(known))

    print_metrics("end to end (tracing off):", metrics, spec.END_TO_END)
    for outcome in known:
        cause = spec.KNOWN_FAILING[(workload.name, outcome.op.name)]
        state = f"still fails: {outcome.problem}" if outcome.problem else "now passes"
        print(f"known-failing op {outcome.op.name} ({outcome.seconds:.3f} s) {state}")
        print(f"  recorded cause: {cause}")
    for where, case, cost in spec.LEFT_OUT:
        if where == workload.name:
            print(f"left out for length: {case}: {cost}")
    for outcome in problems:
        print(f"FAILED {outcome.op.name} ({outcome.stage}): {outcome.problem}")
    record["end_to_end"] = metrics
    record["ops"] = [
        {"op": op.name, "argv": op.argv,
         "seconds": [o.seconds for o in outcomes if o.op is op and o.stage.startswith("pass")],
         "failed": [o.stage for o in outcomes if o.op is op and o.problem]}
        for op in workload.ops
    ]
    record["known_failing"] = [
        {"op": o.op.name, "argv": o.op.argv, "seconds": o.seconds, "problem": o.problem,
         "cause": spec.KNOWN_FAILING[(workload.name, o.op.name)]} for o in known]

    attempted, failed = len(outcomes), len(problems)
    if traced:
        traced.report(record)
        traced.write_spans(record, OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json")
        attempted += len(traced.probes.GROUPS)
        failed += len(traced.probes.failures)
        metrics = traced.metrics
    print(json.dumps(record, default=str))
    print(json.dumps(result_line(selected, metrics, failed == 0, attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
