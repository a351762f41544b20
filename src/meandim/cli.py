"""Command-line front end.

Subcommands: gen-tilings, build, window, verify, mdim.  Configuration lives
in an INI file; a few flags override it.  Exit codes: 0 success, 1
verification failure, 2 usage or configuration error.  All output is
deterministic for a fixed config (sampling is seeded from it).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from . import analysis
from .analysis import run_verification
from .construction import BuildParams, Construction, render_value
from .cube import Polyhedron, net_schedule
from .errors import ConfigError, DepthError, MeandimError, ScheduleError
from .groups import GROUPS, Box, decimal_text
from .schedules import MAX_SEARCH_LEVEL, AxisRule, TilingSchedule
from .tilings import read_tiling, verify_partition

USAGE_ERROR = 2
CHECK_ERROR = 1
# config numbers longer than this are refused; it is CPython's default
# int/str digit limit, past which int() itself would fail
MAX_LITERAL_CHARS = 4300


def _literal(text: str, name: str) -> str:
    if len(text) > MAX_LITERAL_CHARS:
        raise ConfigError(
            f"field {name!r}: a literal of {len(text)} characters is longer "
            f"than {MAX_LITERAL_CHARS}"
        )
    return text


def _fraction(text: str, name: str) -> Fraction:
    text = _literal(text, name)  # outside the try: a ConfigError is a ValueError
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"field {name!r}: {text!r} is not a rational")


def _int(section, name: str, fallback: int) -> int:
    text = _literal(section.get(name, str(fallback)), name)
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"field {name!r}: {text!r} is not an integer")


def load_config(path: str, overrides) -> BuildParams:
    """Parse the INI file and the flag overrides into BuildParams: only text is
    checked here, each error names its field, and BuildParams checks values."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError:
        raise ConfigError(f"cannot read config file {path!r}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 ({exc.reason})")
    except configparser.Error as exc:  # its message names the file and line
        raise ConfigError(" ".join(str(exc).split()))
    try:
        exp = parser["experiment"]
    except KeyError:
        raise ConfigError("config needs an [experiment] section")
    group = GROUPS.get(exp.get("group", "Z"))
    if group is None:
        raise ConfigError(f"field 'group': unknown group {exp.get('group')!r}")
    rho = _fraction(exp.get("rho", ""), "rho")
    cube = Polyhedron(_int(exp, "dim", 1))
    depth = overrides.depth if overrides.depth is not None else _int(exp, "depth", 2)
    cap = parse_mode(overrides.mode if overrides.mode else exp.get("mode", "exact"))
    seed = overrides.seed if overrides.seed is not None else _int(exp, "seed", 0)

    sched_sec = parser["schedule"] if parser.has_section("schedule") else {}
    rules = []
    growth_keys = []
    for ax in range(group.rank):
        suffix = "" if ax == 0 else str(ax + 1)
        # an axis without its own suffixed field reads the unsuffixed one
        name = {k: k + suffix if k + suffix in sched_sec else k for k in ("seed_a", "seed_b", "growth")}
        a = _int(sched_sec, name["seed_a"], 1)
        b = _int(sched_sec, name["seed_b"], 2)
        growth_keys.append(name["growth"])
        growth = [_fraction(g, name["growth"]) for g in sched_sec.get(name["growth"], "3").split()]
        try:
            rules.append(AxisRule.make(a, b, growth))
        except ScheduleError as exc:
            field = f"{name['seed_a']}/{name['seed_b']}" if growth else name["growth"]
            raise ConfigError(f"field {field!r}: {exc}")
    schedule = TilingSchedule(group, tuple(rules), sched_sec.get("balance", "centered"))
    try:
        # level len(growth) + 1 uses every multiplier; it costs one power per axis
        schedule.ensure(max(len(r.growth) for r in rules) + 1)
    except ScheduleError as exc:
        raise ConfigError(f"field {'/'.join(dict.fromkeys(growth_keys))!r}: {exc}")

    # the delta{n} keys with n <= depth, found without a loop over a huge depth
    nets_sec = parser["nets"] if parser.has_section("nets") else {}
    matches = (re.fullmatch(r"delta([1-9][0-9]*)", key) for key in nets_sec)
    deltas = {int(m[1]): _fraction(nets_sec[m[0]], m[0]) for m in matches
              if m and len(m[1]) <= len(str(depth)) and int(m[1]) <= depth}
    return BuildParams(schedule=schedule, rho=rho, cube=cube, nets=net_schedule(cube.dim, depth, deltas),
                       depth=depth, cap=cap, seed=seed)


def parse_mode(text: str) -> Optional[int]:
    """The cap of 'exact' (None) or 'capped:N' (N, at least 2)."""
    if text == "exact":
        return None
    mode, colon, digits = text.partition(":")
    if mode != "capped":
        raise ConfigError(f"mode must be 'exact' or 'capped:N', got {text!r}")
    try:
        cap = int(digits) if colon else None
    except ValueError:
        raise ConfigError(f"bad mode {text!r}")
    if cap is None or cap < 2:
        raise ConfigError("capped mode needs cap >= 2")
    return cap


def parse_window(spec: str, group) -> Box:
    spec = spec.strip().replace(" ", "")
    parts = spec.split("x")
    if len(parts) != group.rank:
        raise ConfigError(f"window {spec!r} does not match group rank {group.rank}")
    lows, highs = [], []
    for part in parts:
        if not (part.startswith("[") and part.endswith("]")):
            raise ConfigError(f"bad window component {part!r}")
        try:
            a, b = (int(t) for t in part[1:-1].split(","))
        except ValueError:
            raise ConfigError(f"bad window component {part!r}")
        if a > b:
            raise ConfigError(f"empty window component {part!r}")
        lows.append(a)
        highs.append(b)
    return Box(lows, highs)


def _to_jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{decimal_text(obj.numerator)}/{decimal_text(obj.denominator)}"
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, int) and abs(obj) >= 2**63:
        return decimal_text(obj)  # decimal string for arbitrary-precision values
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _to_jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out {out_path!r}: {exc}")
    else:
        sys.stdout.write(text)


def _report(payload, fmt: str, out_path) -> None:
    if fmt == "json":
        emit(json.dumps(_to_jsonable(payload), sort_keys=True, indent=2) + "\n", out_path)
    else:
        lines = []

        def walk(prefix, value):
            value = _to_jsonable(value)
            if isinstance(value, dict):
                for k in sorted(value):
                    walk(f"{prefix}.{k}" if prefix else k, value[k])
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(f"{prefix}[{i}]", v)
            else:
                lines.append(f"{prefix} = {value}")

        walk("", payload)
        emit("\n".join(lines) + "\n", out_path)


def cmd_gen_tilings(args) -> int:
    params = load_config(args.config, args)
    sched = params.schedule
    levels = args.levels
    sched.ensure(levels)
    # grid partition and (prime) congruence need no scan: a GridTiling tiles
    # by its own period, and ensure() only builds levels whose period is a
    # multiple of the last with a_{n+1} = a_n (mod q_n), a single shape on
    # nested lattices; tests pin all three against the window scanners
    failures = []
    nest = sched.verify_nesting(100)
    if not nest:
        failures.append(f"nesting: {nest.detail}")
    # levels must become (ball(k), 1/k)-invariant once deep enough; the
    # search runs past --levels, which only bounds what is written
    invariance = []
    for k in range(1, 4):
        found = sched.first_invariant_level(k, Fraction(1, k))
        if found is None:
            failures.append(
                f"invariance: no level through {MAX_SEARCH_LEVEL} "
                f"is (ball({k}), 1/{k})-invariant"
            )
        else:
            invariance.append(f"invariance ball({k}) = level {found}")
    if args.imported:
        try:
            with open(args.imported) as fh:
                tiling = read_tiling(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--imported {args.imported!r}: {exc}")
        W = tiling.support.to_subset(sched.group)
        res = verify_partition(tiling, W)
        if not res:
            failures.append(f"imported tiling: {res.detail}: {res.violations[:5]}")
    if args.out:
        emit(sched.serialize(levels), args.out)
    summary = [f"schedule levels = {levels}", *invariance, f"checks failed = {len(failures)}"]
    summary += failures
    sys.stdout.write("\n".join(summary) + "\n")
    return CHECK_ERROR if failures else 0


def cmd_build(args) -> int:
    params = load_config(args.config, args)
    cfg = Construction(params)
    _report(cfg.plan_report(), args.format, args.out)
    return 0


def cmd_window(args) -> int:
    """Print a window row by row, '?' at each undetermined cell: the walk lays
    palette codes (``Construction._walk_box``), each rendered once.  The exit
    code comes from the printed text (a '?' in it means exit 1), so the codes
    are scanned again only to name the first undetermined cell and count them."""
    params = load_config(args.config, args)
    cfg = Construction(params)
    box = parse_window(args.window, cfg.group)
    codes, palette = cfg._walk_box(box)
    shown = ["?", *map(render_value, palette[1:])]
    if args.what == "x":
        shown[1] = render_value(cfg.params.cube.basepoint)
    # codes come in Box.cells() order, so each run of `width` of them is one
    # printed row (the whole window on Z, one first coordinate on Z^2)
    width = box.highs[-1] - box.lows[-1] + 1
    lines = [" ".join(map(shown.__getitem__, codes[i:i + width])) for i in range(0, len(codes), width)]
    text = "\n".join(lines) + "\n"
    emit(text, args.out)
    # no rendered palette entry but shown[0] holds a "?" ('#', net points and
    # the basepoint are digits, '/', ',' and '-')
    if "?" in text:
        first = cfg._undetermined_in(box, codes)
        raise DepthError(f"{first} ({codes.count(0)} of {len(codes)} cells shown as ?)")
    return 0


def cmd_verify(args) -> int:
    params = load_config(args.config, args)
    results = run_verification(Construction(params), params.seed)
    rows = [(name, "INCONCLUSIVE" if ok is None else "PASS" if ok else "FAIL", note)
            for name, ok, note in results]
    if args.format == "json":
        _report([{"name": n, "status": s, "detail": d} for n, s, d in rows], "json", args.out)
    else:
        emit("".join(f"{s} {n}{': ' + d if d else ''}\n" for n, s, d in rows), args.out)
    return CHECK_ERROR if any(s == "FAIL" for _, s, _ in rows) else 0


def cmd_mdim(args) -> int:
    params = load_config(args.config, args)
    cfg = Construction(params)
    rep = analysis.mdim_report(cfg)
    payload = {
        "target_rho_dim": rep.rho_dim,
        "gaps_monotone": rep.gaps_monotone,
        "brackets_contain_target": rep.brackets_contain_target,
        "approximate": rep.approximate,
        "rows": rep.rows,
    }
    _report(payload, args.format, args.out)
    return 0 if rep.gaps_monotone and rep.brackets_contain_target else CHECK_ERROR


def _levels_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"levels are 1-based, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it names each
    command, and ``main`` looks up its ``cmd_*`` function when it runs."""
    p = argparse.ArgumentParser(prog="meandim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(name, help_text, formats=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="experiment config (INI)")
        sp.add_argument("--depth", type=int, default=None)
        sp.add_argument("--mode", default=None, help="exact | capped:N")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        if formats:  # gen-tilings and window print no report
            sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    sp = common("gen-tilings", "generate and verify a tiling schedule", formats=False)
    sp.add_argument("--levels", type=_levels_arg, default=5)
    sp.add_argument("--imported", default=None, help="explicit tiling file to verify")
    common("build", "plan a construction and report it")
    sp = common("window", "dump the configuration on a window", formats=False)
    sp.add_argument("--window", required=True, help="[a,b] or [a,b]x[c,d]")
    sp.add_argument("--what", choices=("w", "x"), default="w")
    common("verify", "run the invariant battery")
    common("mdim", "mean-dimension bound report")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except MeandimError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
