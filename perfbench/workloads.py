"""The three workloads: seeded lists of meandim CLI invocations and the
semantic checks their outputs must pass.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  The workload seed picks the near-window offset, the
far-window multiplier and the ``--seed`` handed to the program; everything
else is fixed, so a seed always yields the same argv lists.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# Why each workload exists is recorded once, in BENCHMARK.json.
NAMES = ("cli-session", "eval-deep-z", "plan-z2")

TOY_Z = "{root}/configs/toy-z.cfg"
TOY_Z2 = str(Path(__file__).resolve().parent / "toy-z2.cfg")
EVAL_HALF_WIDTH = 20_000  # eval-deep-z windows hold 2 * 20,000 + 1 cells
FAR = 10**80


@dataclass
class Op:
    name: str  # unique within its workload
    command: str  # the meandim subcommand
    argv: list
    check: Callable[[str], Optional[str]]  # stdout -> problem, or None
    cells: int = 0  # cells printed, for window ops


@dataclass
class Workload:
    name: str
    program_seed: int  # the --seed every op passes to meandim
    ops: list  # run on every pass
    known_failing: list  # attempted once per run, outside the passes
    same_stdout: list = field(default_factory=list)  # op-name pairs


# -- output checks -----------------------------------------------------------


def check_gen_tilings(text: str) -> Optional[str]:
    if "checks failed = 0" in text.splitlines():
        return None
    return "gen-tilings reported failed checks: " + " | ".join(text.splitlines()[:3])


def check_build(text: str) -> Optional[str]:
    """rho < stars/volume <= rho + 1/volume at every level, exactly."""
    report = json.loads(text)
    rho = Fraction(report["rho"])
    for level in report["levels"]:
        volume, stars = int(level["volume"]), int(level["stars"])
        density = Fraction(stars, volume)
        if not rho < density <= rho + Fraction(1, volume):
            return f"level {level['level']}: density {density} outside the sandwich"
    return None


def check_verify(text: str) -> Optional[str]:
    failed = [line for line in text.splitlines() if line.startswith("FAIL")]
    return "; ".join(failed) if failed else None


def check_mdim(text: str) -> Optional[str]:
    if json.loads(text)["brackets_contain_target"] is True:
        return None
    return "brackets_contain_target is not true"


def window_check(cells: int, rows: int) -> Callable[[str], Optional[str]]:
    """Every cell printed, rows as expected, and no placeholder star."""

    def check(text: str) -> Optional[str]:
        tokens = text.split()
        if len(tokens) != cells:
            return f"{len(tokens)} tokens for {cells} cells"
        if len(text.splitlines()) != rows:
            return f"{len(text.splitlines())} rows, expected {rows}"
        if "*" in tokens:
            return "a star in the limit configuration"
        return None

    return check


# -- workloads ---------------------------------------------------------------


def overrides(depth=None, mode=None):
    """The flag values ``meandim.cli.load_config`` reads besides the config."""
    return argparse.Namespace(depth=depth, mode=mode, seed=None)


def build(name: str, seed: int, meandim, root: Path) -> Workload:
    """The workload's ops for this seed; loads every config it uses."""
    cli = meandim.cli
    rng = random.Random(f"{name}:{seed}")
    prog_seed = rng.randrange(1, 10**6)
    toy_z, toy_z2 = TOY_Z.format(root=root), TOY_Z2

    def op(op_name, command, *args, check, cells=0, config):
        argv = [command, "--config", config, *args, "--seed", str(prog_seed)]
        return Op(op_name, command, argv, check, cells)

    if name == "cli-session":  # tilings and groups; planning and evaluation idle
        cli.load_config(toy_z, overrides())
        cli.load_config(toy_z2, overrides())
        ops = [
            op("gen-tilings-z", "gen-tilings", "--levels", "5",
               check=check_gen_tilings, config=toy_z),
            op("build-z", "build", "--format", "json", check=check_build, config=toy_z),
            op("window-z", "window", "--window", "[-12,12]",
               check=window_check(25, 1), cells=25, config=toy_z),
            op("verify-z", "verify", check=check_verify, config=toy_z),
            op("mdim-z", "mdim", "--format", "json", check=check_mdim, config=toy_z),
        ]
        known = [op("gen-tilings-z2", "gen-tilings", "--levels", "2",
                    check=check_gen_tilings, config=toy_z2)]
        return Workload(name, prog_seed, ops, known)

    if name == "eval-deep-z":  # the pointwise evaluator, near 0 and near 1e80
        params = cli.load_config(toy_z, overrides(depth=3, mode="capped:4096"))
        plan = meandim.construction.Construction(params)
        (period,) = params.schedule.periods(plan.levels[4].sched_level)
        offset = rng.randrange(-1000, 1001)
        shift = (FAR // period + rng.randrange(1, 10**6)) * period
        cells = 2 * EVAL_HALF_WIDTH + 1
        windows = []
        for centre in (offset, shift + offset):
            lo, hi = centre - EVAL_HALF_WIDTH, centre + EVAL_HALF_WIDTH
            windows.append(f"[{lo},{hi}]")
        common = ("--depth", "3", "--mode", "capped:4096", "--window")
        ops = [
            op(f"window-{where}", "window", *common, spec,
               check=window_check(cells, 1), cells=cells, config=toy_z)
            for where, spec in zip(("near", "far"), windows)
        ]
        return Workload(name, prog_seed, ops, [], [("window-near", "window-far")])

    if name == "plan-z2":  # schedules, planning, materializer and verify battery
        cli.load_config(toy_z2, overrides())
        side = 81
        ops = [
            op("verify-z2", "verify", check=check_verify, config=toy_z2),
            op("build-z2", "build", "--format", "json", check=check_build, config=toy_z2),
            op("mdim-z2", "mdim", "--format", "json", check=check_mdim, config=toy_z2),
            op("window-z2-depth2", "window", "--depth", "2", "--window", "[-40,40]x[-40,40]",
               check=window_check(side * side, side), cells=side * side, config=toy_z2),
        ]
        known = [op("build-z2-depth2", "build", "--depth", "2", "--format", "json",
                    check=check_build, config=toy_z2)]
        return Workload(name, prog_seed, ops, known)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
