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
import itertools
import json
import operator
import sys
from fractions import Fraction

from . import analysis
from .construction import HASH, MAX_NET_POINTS, STAR, BuildParams, Construction, render_value
from .cube import Polyhedron, axis_points, make_net
from .errors import DepthError, MeandimError, ScheduleError
# DECIMAL_CHUNK and decimal_text stay importable from cli, where they began
from .groups import DECIMAL_CHUNK, GROUPS, Box, decimal_text, fraction_text  # noqa: F401
from .schedules import BALANCES, MAX_SEARCH_LEVEL, AxisRule, TilingSchedule
from .tilings import read_tiling, verify_partition

USAGE_ERROR = 2
CHECK_ERROR = 1
# config numbers longer than this are refused; it is CPython's default
# int/str digit limit, past which int() itself would fail
MAX_LITERAL_CHARS = 4300
# the oracle, linking and per-tile floor checks of `verify` read the literal
# level-2 word, a few dicts with one entry per cell; past this many cells they
# are skipped rather than hold those dicts
VERIFY_CELL_BOUND = 200_000


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _literal(text: str, name: str) -> str:
    if len(text) > MAX_LITERAL_CHARS:
        raise CliError(
            f"field {name!r}: a literal of {len(text)} characters is longer "
            f"than {MAX_LITERAL_CHARS}"
        )
    return text


def _fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(_literal(text, name))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"field {name!r}: {text!r} is not a rational")


def _int(section, name: str, fallback: int) -> int:
    text = section.get(name, str(fallback))
    try:
        return int(_literal(text, name))
    except ValueError:
        raise CliError(f"field {name!r}: {text!r} is not an integer")


def load_config(path: str, overrides) -> BuildParams:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise CliError(f"cannot read config file {path!r}")
    try:
        exp = parser["experiment"]
    except KeyError:
        raise CliError("config needs an [experiment] section")
    group = GROUPS.get(exp.get("group", "Z"))
    if group is None:
        raise CliError(f"field 'group': unknown group {exp.get('group')!r}")
    rho = _fraction(exp.get("rho", ""), "rho")
    if not 0 < rho < 1:
        raise CliError(f"field 'rho': {fraction_text(rho)} outside (0,1)")
    dim = _int(exp, "dim", 1)
    if dim < 1:
        raise CliError(f"field 'dim': {dim} is below 1")
    depth = overrides.depth if overrides.depth is not None else _int(exp, "depth", 2)
    mode_text = overrides.mode if overrides.mode else exp.get("mode", "exact")
    mode, cap = parse_mode(mode_text)
    seed = overrides.seed if overrides.seed is not None else _int(exp, "seed", 0)

    sched_sec = parser["schedule"] if parser.has_section("schedule") else {}
    balance = sched_sec.get("balance", "centered")
    if balance not in BALANCES:
        raise CliError(f"field 'balance': {balance!r} is not one of {', '.join(BALANCES)}")
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
            raise CliError(f"field {field!r}: {exc}")
    schedule = TilingSchedule(group, tuple(rules), balance)
    try:
        # level len(growth) + 1 uses every multiplier; it costs one power per axis
        schedule.ensure(max(len(r.growth) for r in rules) + 1)
    except ScheduleError as exc:
        raise CliError(f"field {'/'.join(dict.fromkeys(growth_keys))!r}: {exc}")

    deltas = []
    if parser.has_section("nets"):
        for n in range(1, depth + 1):
            key = f"delta{n}"
            if key in parser["nets"]:
                delta = _fraction(parser["nets"][key], key)
                if not 0 < delta <= 1:
                    raise CliError(f"field {key!r}: {fraction_text(delta)} outside (0,1]")
                deltas.append(delta)
    if not deltas:
        deltas.append(Fraction(1, 2))
    nets = []
    for n in range(1, depth + 1):
        delta = deltas[n - 1] if n <= len(deltas) else delta / 2
        # axis_points**dim > MAX_NET_POINTS, without the power of a huge dim
        if axis_points(delta) ** min(dim, MAX_NET_POINTS.bit_length()) > MAX_NET_POINTS:
            raise CliError(f"field 'delta{n}': {fraction_text(delta)} needs over {MAX_NET_POINTS} net points")
        nets.append(make_net(dim, delta))
    try:
        params = BuildParams(
            schedule=schedule,
            rho=rho,
            cube=Polyhedron(dim),
            nets=tuple(nets),
            depth=depth,
            mode=mode,
            cap=cap,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    object.__setattr__(params, "_seed", seed)  # carried for sampling commands
    return params


def parse_mode(text: str):
    if text == "exact":
        return "exact", None
    if text.startswith("capped:"):
        try:
            cap = int(text.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad mode {text!r}")
        return "capped", cap
    raise CliError(f"mode must be 'exact' or 'capped:N', got {text!r}")


def parse_window(spec: str, group) -> Box:
    spec = spec.strip().replace(" ", "")
    parts = spec.split("x")
    if len(parts) != group.rank:
        raise CliError(f"window {spec!r} does not match group rank {group.rank}")
    lows, highs = [], []
    for part in parts:
        if not (part.startswith("[") and part.endswith("]")):
            raise CliError(f"bad window component {part!r}")
        try:
            a, b = (int(t) for t in part[1:-1].split(","))
        except ValueError:
            raise CliError(f"bad window component {part!r}")
        if a > b:
            raise CliError(f"empty window component {part!r}")
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
        with open(out_path, "w") as fh:
            fh.write(text)
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
        with open(args.imported) as fh:
            tiling = read_tiling(fh.read())
        W = tiling.support.to_subset(sched.group)
        res = verify_partition(tiling, W)
        if not res:
            failures.append(f"imported tiling: {res.detail}: {res.violations[:5]}")
    text = sched.serialize(levels)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
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
    params = load_config(args.config, args)
    cfg = Construction(params)
    box = parse_window(args.window, cfg.group)
    # the walk's values, a STAR at each cell the depth leaves undetermined
    values = cfg._walk_box(box)
    # render each distinct value object once: every value stays alive in the
    # list, so no id repeats (hashing the Fraction tuples would cost about as
    # much as rendering them)
    ids = list(map(id, values))
    shown = {key: render_value(v) for key, v in dict(zip(ids, values)).items()}
    undetermined = id(STAR) in shown
    shown[id(STAR)] = "?"
    if args.what == "x":
        shown[id(HASH)] = render_value(cfg.params.cube.basepoint)
    # values come in Box.cells() order, so each run of `width` of them is one
    # printed row (the whole window on Z, one first coordinate on Z^2)
    texts = list(map(shown.__getitem__, ids))
    width = box.highs[-1] - box.lows[-1] + 1
    lines = [" ".join(texts[i:i + width]) for i in range(0, len(texts), width)]
    emit("\n".join(lines) + "\n", args.out)
    if undetermined:
        first = cfg._undetermined_in(box, values)
        raise DepthError(f"{first} ({ids.count(id(STAR))} of {len(ids)} cells shown as ?)")
    return 0


def cmd_verify(args) -> int:
    params = load_config(args.config, args)
    cfg = Construction(params)
    seed = getattr(params, "_seed", 0)
    results = run_verification(cfg, seed)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}{': ' + note if note else ''}" for name, ok, note in results]
    emit("\n".join(lines) + "\n", args.out)
    return 0 if all(ok for _, ok, _ in results) else CHECK_ERROR


def run_verification(cfg: Construction, seed: int = 0) -> list:
    """The invariant battery at the configured depth; list of (name, ok, note)."""
    out = []
    lvl2 = cfg.levels[2]
    # level 2 is materialized at most once, for the checks that read it
    materialize = functools.cache(cfg.materialize)

    def check(name, fn):
        try:
            ok, note = fn()
        except MeandimError as exc:
            ok, note = False, f"{type(exc).__name__}: {exc}"
        out.append((name, ok, note))

    def sandwich():
        rho = cfg.rho
        for n in range(1, cfg.params.depth + 2):
            lvl = cfg.levels[n]
            d = Fraction(lvl.stars, lvl.volume)
            if not rho < d <= rho + Fraction(1, lvl.volume):
                return False, f"level {n}: {d}"
        return True, f"levels 1..{cfg.params.depth + 1}"

    check("density sandwich", sandwich)

    def no_star():
        # depth d determines the whole level-d tile; the window raises a
        # DepthError at its first star
        box = cfg.levels[min(2, cfg.params.depth)].box
        cfg.window_values(box, "w")
        return True, f"{box.volume} cells"

    check("no star in the limit", no_star)

    def oracle():
        if lvl2.volume > VERIFY_CELL_BOUND:
            return True, "skipped (level-2 tile too large)"
        walked = cfg.level_values(2, lvl2.box)
        bad = _first_mismatch(lvl2.box.cells(), walked, materialize().v11)
        if bad is not None:
            return False, f"mismatch at {bad}"
        stable = materialize().stable
        if stable is not None:
            bad = _first_mismatch(lvl2.box.cells(), cfg.window_values(lvl2.box, "w"), stable)
            if bad is not None:
                return False, f"stabilized mismatch at {bad}"
        return True, f"{lvl2.volume} cells"

    check("evaluator equals literal materialization", oracle)

    def linking():
        if cfg.params.depth < 2:
            return True, "needs depth >= 2, skipped"
        if lvl2.volume > VERIFY_CELL_BOUND:
            return True, "skipped (level-2 tile too large)"
        # V_3 on the link tile against the literal V_2
        walked = cfg.level_values(3, lvl2.box.translate(cfg.steps[2].link_center))
        bad = _first_mismatch(lvl2.box.cells(), walked, materialize().v11)
        if bad is not None:
            return False, f"mismatch at {bad}"
        return True, f"{lvl2.volume} cells"

    check("level words reappear at the link tile", linking)

    def nesting():
        res = analysis.verify_free_nesting(cfg, min(2, cfg.params.depth))
        return bool(res), res.detail

    check("free set nesting", nesting)

    def tile_floors():
        if lvl2.volume > VERIFY_CELL_BOUND:
            return True, "skipped (level-2 tile too large)"
        st, lvl1 = cfg.steps[1], cfg.levels[1]
        q, across = lvl1.periods, st.tile_hi[-1] - st.tile_lo[-1] + 1
        # stars per row of each level-1 tile (q[-1] cells) from a running count
        # over the literal word, `across` tiles a row; then summed per tile
        running = list(itertools.accumulate(map(operator.is_, materialize().v11, itertools.repeat(STAR)), initial=0))
        per_row = list(map(operator.sub, running[q[-1]::q[-1]], running[::q[-1]]))
        counts = {}  # leading tile index -> star count of each tile along the last axis
        for r, lead in enumerate(itertools.product(*[  # the leading tile index of each row
            [(x - lo) // qq for x in range(blo, bhi + 1)]
            for lo, qq, blo, bhi in zip(lvl1.box.lows[:-1], q[:-1], lvl2.box.lows[:-1], lvl2.box.highs[:-1])
        ])):
            row = per_row[r * across:(r + 1) * across]
            counts[lead] = list(map(operator.add, counts[lead], row)) if lead in counts else row
        # stars / |S_1| > rho - 1/|S_1|, in integers: stars above this
        floor = (cfg.rho.numerator * lvl1.volume - cfg.rho.denominator) // cfg.rho.denominator
        for lead, row in counts.items():  # in lexicographic order
            for j in (lead + (st.tile_lo[-1] + k,) for k, c in enumerate(row) if c <= floor):
                if not all(cl <= x <= ch for x, cl, ch in zip(j, st.cand_lo, st.cand_hi)):
                    return False, f"tile at {tuple(jj * qq for jj, qq in zip(j, q))} thinned below its floor"
        return True, "every thinned tile stays above its floor"

    check("per-tile density floors", tile_floors)

    def top_descent():
        # the walk down from the top level against the walk started at step 1
        box = cfg.levels[1].box
        via_top = cfg.level_values(cfg.params.depth + 1, box)
        bad = _first_mismatch(box.cells(), via_top, cfg.window_values(box, "w"))
        if bad is not None:
            return False, f"mismatch at {bad}"
        return True, f"{box.volume} cells"

    check("top-level descent agrees with stabilized values", top_descent)

    def realization():
        step = cfg.steps[1]
        if cfg.levels[1].stars > 12:
            return True, "skipped (too many seed stars)"
        seen = set()
        for combo in itertools.product(range(step.radix), repeat=cfg.levels[1].stars):
            pts = [step.net.point_at(d) for d in combo]
            seen.add(cfg.realization_decode(1, pts))
        want = step.radix ** cfg.levels[1].stars
        return len(seen) == want, f"{len(seen)} distinct centers"

    check("level-1 assignments all realized", realization)

    def bounds():
        rep = analysis.mdim_report(cfg)
        ok = rep.gaps_monotone and rep.brackets_contain_target
        return ok, f"{len(rep.rows)} levels, target {rep.rho_dim}"

    check("bound brackets and monotone gaps", bounds)

    def minimal():
        rep = analysis.minimality_check(cfg, 1, sample_size=20, seed=seed)
        return rep.ok, f"{rep.sampled} centers"

    check("minimality diagnostic (level 1)", minimal)

    return out


def _first_mismatch(cells, got: list, want: list):
    """The first cell whose values differ between two aligned lists, or None."""
    if got == want:
        return None
    return next(g for g, a, b in zip(cells, got, want) if a != b)


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

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment config (INI)")
        sp.add_argument("--depth", type=int, default=None)
        sp.add_argument("--mode", default=None, help="exact | capped:N")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("gen-tilings", help="generate and verify a tiling schedule")
    common(sp)
    sp.add_argument("--levels", type=_levels_arg, default=5)
    sp.add_argument("--imported", default=None, help="explicit tiling file to verify")

    sp = sub.add_parser("build", help="plan a construction and report it")
    common(sp)

    sp = sub.add_parser("window", help="dump the configuration on a window")
    common(sp)
    sp.add_argument("--window", required=True, help="[a,b] or [a,b]x[c,d]")
    sp.add_argument("--what", choices=("w", "x"), default="w")

    sp = sub.add_parser("verify", help="run the invariant battery")
    common(sp)

    sp = sub.add_parser("mdim", help="mean-dimension bound report")
    common(sp)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except MeandimError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
