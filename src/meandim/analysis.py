"""Finitely checkable consequences of a planned construction.

Everything here is exact: densities and bound estimates are Fractions,
window comparisons are symbol-by-symbol equality, and the free-coordinate
sets J_n are read from the plan: their size and density from the level-(n+1)
star count, their nesting from one tile walk of two level-word boxes.

The dimension bounds are certified window estimates along the
construction's own Folner windows, not suprema over all Folner sequences.
The free-coordinate count of the upper bound is reported both bare and
scaled by the cube dimension; the two disagree for dim > 1 and the report
carries both rather than picking one.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .construction import HASH_TOKEN, MATERIALIZE_GUARD, STAR_TOKEN, Construction
from .errors import DepthError, MeandimError, NotRealizedError, SizeGuardError
from .groups import Box
from .tilings import CheckResult

# minimality_check samples level-(n+1) center multipliers in [-SPAN, SPAN]
SPAN = 10**6


def verify_free_nesting(cfg: Construction, n: int) -> CheckResult:
    """Exact set inclusion J_{n-1} within J_n, exhaustive: a level-n tile past
    MATERIALIZE_GUARD raises SizeGuardError.

    J_n is the stars of V_(n+1) pulled back along the link shifts of steps
    1..n, so one walk of two boxes decides it: V_n on the level-n tile and
    V_(n+1) on step n's link tile.  A star is ``STAR_TOKEN`` in every walk,
    so equal words pass unscanned; a missing element is named in J coordinates.
    """
    if n < 1:
        raise ValueError("nesting starts at n = 1")
    for m in (n - 1, n):  # J_m reads V_(m+1); the smaller set is named first
        if m > cfg.params.depth:
            raise DepthError(f"free set level {m} needs depth >= {m}")
    if n == 1:
        return CheckResult(True, "J_0 is empty")
    tile = cfg.levels[n].box
    if tile.volume > MATERIALIZE_GUARD:
        raise SizeGuardError(f"J_{n-1} too large to enumerate")
    view = cfg.with_one_walk()
    inner = view.level_codes(n, tile)[0]
    outer = view.level_codes(n + 1, tile.translate(cfg.steps[n].link_center))[0]
    missing = [] if inner == outer else [i for i, (a, b) in enumerate(zip(inner, outer)) if a == STAR_TOKEN != b]
    if missing:  # only the reported elements get their cells
        return CheckResult(False, f"J_{n-1} not within J_{n}", list(map(cfg.follower_box(n - 1).cell_at, missing[:10])))
    return CheckResult(True, f"all {inner.count(STAR_TOKEN)} elements of J_{n-1} lie in J_{n}")


def lower_bound_estimate(cfg: Construction, n: int) -> Fraction:
    """Free-coordinate density of the level-n Folner window, times dim P:
    J_n has one element per star of V_(n+1), and the window as many cells
    as the level-(n+1) tile.

    Exceeds rho * dim P by at most dim P / |window|; a certified estimate of
    the mean-dimension lower bound along these windows.
    """
    if n < 1:
        raise ValueError("estimates start at n = 1")
    if n > cfg.params.depth:
        raise DepthError(f"free set level {n} needs depth >= {n}")
    return Fraction(cfg.levels[n + 1].stars, cfg.levels[n + 1].volume) * cfg.params.cube.dim


@dataclass(frozen=True)
class BoundEstimate:
    level: int
    class_count: int
    whole_tiles_min: int
    free_fraction: Fraction  # worst-class free coordinates / |W|
    scaled: Fraction  # free_fraction * dim P
    boundary_fraction: Fraction
    envelope_fraction: Fraction  # rho + 1/|S_n| + boundary fraction
    envelope_scaled: Fraction
    # always False: the minimum over classes is the closed form min_whole;
    # the field stays while the benchmark probes read it
    exhaustive: bool


def upper_bound_estimate(
    cfg: Construction, n: int, window: Optional[Box] = None
) -> Optional[BoundEstimate]:
    """Worst-case free-coordinate count over the translation classes of the
    level-n tiling relative to a window.

    Coordinates not fixed by every configuration agreeing on the class
    pattern are the stars of whole tiles inside the window plus everything
    in boundary-cut tiles.  Returns None when the window cannot contain a
    whole tile (inconclusive).
    """
    if not 1 <= n <= cfg.params.depth + 1:
        raise DepthError(f"level {n} not planned")
    lvl = cfg.levels[n]
    if window is None:
        if n + 1 > cfg.params.depth + 1:
            raise DepthError("default window needs the next level")
        window = cfg.levels[n + 1].box
    q = lvl.periods
    spans = [hi - lo + 1 for lo, hi in zip(window.lows, window.highs)]
    pts = [span - qq + 1 for span, qq in zip(spans, q)]  # center slots per axis
    if any(p <= 0 for p in pts):
        return None
    wvol = window.volume
    # a class (one residue per axis) has floor or ceil(p / q) whole tiles
    # along each axis, and some class has the floor on every axis at once
    min_whole = 1
    for p, qq in zip(pts, q):
        min_whole *= p // qq
    class_count = 1
    for qq in q:
        class_count *= qq
    free_max = min_whole * lvl.stars + (wvol - min_whole * lvl.volume)
    free_fraction = Fraction(free_max, wvol)
    boundary = Fraction(wvol - min_whole * lvl.volume, wvol)
    envelope = cfg.rho + Fraction(1, lvl.volume) + boundary
    dim = cfg.params.cube.dim
    est = BoundEstimate(
        level=n,
        class_count=class_count,
        whole_tiles_min=min_whole,
        free_fraction=free_fraction,
        scaled=free_fraction * dim,
        boundary_fraction=boundary,
        envelope_fraction=envelope,
        envelope_scaled=envelope * dim,
        exhaustive=False,
    )
    return est


def minimality_check(
    cfg: Construction,
    n: int,
    sample_size: int = 100,
    seed: int = 0,
) -> CheckResult:
    """Recurrence of the configuration along level-(n+1) tile centers.

    Samples centers (seeded), shifts the level-n window there and compares
    symbol by symbol; this is evidence, not a proof.  Each violation is
    (center, cell, value, shifted value) at a mismatched center.
    Syndeticity of the center lattice q Z^r needs no scan: F = [0, q)
    covers every g from the center q * floor(g / q).
    """
    if n < 1:
        raise ValueError("minimality starts at n = 1")
    if n + 1 > cfg.params.depth + 1:
        raise DepthError(f"minimality at level {n} needs depth >= {n}")
    group = cfg.group
    base_box = cfg.levels[n].box
    if base_box.volume > MATERIALIZE_GUARD:
        raise SizeGuardError("comparison window too large")
    cfg = cfg.with_one_walk()  # every window through one walk
    base = cfg.window_values(base_box, "x")
    q = cfg.levels[n + 1].periods
    rng = random.Random(seed)
    shifts = [group.identity]
    while len(shifts) < sample_size:
        k = tuple(rng.randrange(-SPAN, SPAN + 1) for _ in range(group.rank))
        shifts.append(tuple(kk * qq for kk, qq in zip(k, q)))
    mismatches = []
    for c in shifts:
        got = cfg.window_values(base_box.translate(c), "x")
        if got != base:
            i, g = next(
                (i, g) for i, (g, want, have) in enumerate(zip(base_box.cells(), base, got))
                if want != have
            )
            mismatches.append((c, g, base[i], got[i]))
    return CheckResult(not mismatches, f"{len(shifts)} centers", mismatches)


@dataclass
class MdimRow:
    level: int
    lower: Fraction
    upper_count: Fraction
    upper_scaled: Fraction
    envelope_scaled: Fraction
    gap: Fraction
    certified_low: Fraction  # lower minus the window slack, below rho*dim


@dataclass
class MdimReport:
    target_rho_dim: Fraction
    rows: list
    gaps_monotone: bool
    brackets_contain_target: bool
    approximate: bool


def mdim_report(cfg: Construction) -> MdimReport:
    """Per-level bound table; the certified bracket always contains rho*dim P."""
    dim = cfg.params.cube.dim
    target = cfg.rho * dim
    rows = []
    for n in range(1, cfg.params.depth + 1):
        lower = lower_bound_estimate(cfg, n)
        est = upper_bound_estimate(cfg, n)  # the level-(n+1) tile holds whole level-n tiles
        slack = Fraction(dim, cfg.levels[n + 1].volume)
        rows.append(
            MdimRow(
                level=n,
                lower=lower,
                upper_count=est.free_fraction,
                upper_scaled=est.scaled,
                envelope_scaled=est.envelope_scaled,
                gap=est.scaled - lower,
                certified_low=lower - slack,
            )
        )
    monotone = all(a.gap >= b.gap for a, b in zip(rows, rows[1:]))
    contains = all(r.certified_low <= target <= r.upper_scaled for r in rows)
    return MdimReport(target, rows, monotone, contains, cfg.approximate)


# -- the verify battery: each check takes the plan and ``words``, the literal V_2 in the
# battery walk's tokens, cached once per run, which a check that reads it calls before it walks

def _agreement(box: Box, got: list, want: list, what: str = "mismatch") -> CheckResult:
    """FAIL at the first cell of ``box`` where two lists in ``Box.cells()``
    order differ, else PASS over the whole box."""
    if got == want:
        return CheckResult(True, f"{box.volume} cells")
    bad = next(g for g, a, b in zip(box.cells(), got, want) if a != b)
    return CheckResult(False, f"{what} at {bad}")


def check_sandwich(cfg: Construction, words) -> CheckResult:
    rho = cfg.rho
    for n in range(1, cfg.params.depth + 2):
        lvl = cfg.levels[n]
        d = Fraction(lvl.stars, lvl.volume)
        if not rho < d <= rho + Fraction(1, lvl.volume):
            return CheckResult(False, f"level {n}: {d}")
    return CheckResult(True, f"levels 1..{cfg.params.depth + 1}")


def check_no_star(cfg: Construction, words) -> CheckResult:
    # depth d determines the whole level-d tile; the window raises a
    # DepthError at its first star
    box = cfg.levels[min(2, cfg.params.depth)].box
    cfg.window_codes(box)
    return CheckResult(True, f"{box.volume} cells")


def check_oracle(cfg: Construction, words) -> CheckResult:
    literal, box = words(), cfg.levels[2].box
    res = _agreement(box, cfg.level_codes(2, box)[0], literal)
    if res and cfg.params.depth >= 2:
        # the literal V_2 with its stars resolved by code tile 0 of step 2
        zero = cfg._walk.token(cfg.steps[2].net.point_at(0))
        stable = [zero if c == STAR_TOKEN else c for c in literal]
        return _agreement(box, cfg.window_codes(box)[0], stable, "stabilized mismatch")
    return res


def check_linking(cfg: Construction, words) -> CheckResult:
    # V_3 on the link tile against the literal V_2
    literal, box = words(), cfg.levels[2].box
    return _agreement(box, cfg.level_codes(3, box.translate(cfg.steps[2].link_center))[0], literal)


def check_nesting(cfg: Construction, words) -> CheckResult:
    return verify_free_nesting(cfg, min(2, cfg.params.depth))


def check_floors(cfg: Construction, words) -> CheckResult:
    """Every thinning-zone level-1 tile of the literal V_2 keeps more than
    floor stars (``STAR_TOKEN``); FAIL names the first in lexicographic order that does not."""
    v2 = words()
    st, lvl1 = cfg.steps[1], cfg.levels[1]
    q, t0 = lvl1.periods, st.tiles.lows[-1]
    rows, across, cells = cfg.tile_rows  # cells: a tile's offsets from its center
    # stars / |S_1| > rho - 1/|S_1|, in integers: stars above this
    floor = (cfg.rho.numerator * lvl1.volume - cfg.rho.denominator) // cfg.rho.denominator
    full = [STAR_TOKEN] * across  # a slice in which every tile of the row keeps that star
    for lead, row in rows:  # row: the offset of its first tile's center
        # one strided slice per seed offset (the seed stars are a tile's first
        # cells) holds that cell of each tile of the row; a tile's stars there
        # bound its count from below, one less per slice short of stars
        short = [col for col in (v2[row + d:row + d + across * q[-1]:q[-1]] for d in cells[:lvl1.stars])
                 if col != full]
        if len(short) < lvl1.stars - floor:
            continue  # every tile of the row keeps more than floor seed stars
        low = [lvl1.stars] * across
        for col in short:
            low = list(map(operator.sub, low, map(operator.ne, col, full)))  # one less at each non-star
        for k in (k for k, c in enumerate(low) if c <= floor):
            # a thinning-zone tile at or below the floor there is recounted
            # over all its cells before it can FAIL
            b = row + k * q[-1]
            if lead + (t0 + k,) not in st.cand and [v2[b + d] for d in cells].count(STAR_TOKEN) <= floor:
                center = tuple(jj * qq for jj, qq in zip(lead + (t0 + k,), q))
                return CheckResult(False, f"tile at {center} thinned below its floor")
    return CheckResult(True, "every thinned tile stays above its floor")


def check_top_descent(cfg: Construction, words) -> CheckResult:
    # the walk down from the top level against the walk started at step 1
    box = cfg.levels[1].box
    return _agreement(box, cfg.level_values(cfg.params.depth + 1, box), cfg.window_values(box, "w"))


def check_realization(cfg: Construction, words) -> CheckResult:
    step, stars = cfg.steps[1], cfg.levels[1].stars
    # stars > 12 first, so that no huge power is built; 4096 = 2**12
    if stars > 12 or step.radix**stars > 4096:
        raise SizeGuardError(f"{step.radix}^{stars} assignments, over 4096 to enumerate")
    # assignments in index order: the first below the cap decode, the
    # rest (only when the cap truncates the code block) must not
    combos = itertools.product([step.net.point_at(d) for d in range(step.radix)], repeat=stars)
    seen = {cfg.realization_decode(1, combo) for combo in itertools.islice(combos, step.code_count)}
    past = 0
    for combo in combos:
        try:
            cfg.realization_decode(1, combo)
        except NotRealizedError:
            past += 1
    if not step.approximate:
        return CheckResult(len(seen) == step.radix ** stars, f"{len(seen)} distinct centers")
    ok = len(seen) == step.code_count and past == step.radix ** stars - step.code_count
    return CheckResult(ok, f"{len(seen)} distinct centers, {past} past the cap")


def check_bounds(cfg: Construction, words) -> CheckResult:
    rep = mdim_report(cfg)
    return CheckResult(rep.gaps_monotone and rep.brackets_contain_target,
                       f"{len(rep.rows)} levels, target {rep.target_rho_dim}")


def check_minimality(cfg: Construction, words, seed: int = 0) -> CheckResult:
    return minimality_check(cfg, 1, sample_size=20, seed=seed)


def run_verification(cfg: Construction, seed: int = 0) -> list:
    """The invariant battery at the configured depth; list of (name, ok, detail).

    ``ok`` is True (PASS), False (FAIL) or None (INCONCLUSIVE).  A check that
    a size guard stops raises SizeGuardError and reads None; any other
    package error reads False.

    Every check evaluates through one tile walk (``cfg.with_one_walk()``),
    which is freed when the battery returns; ``cfg`` itself is not changed.
    """
    cfg = cfg.with_one_walk()
    # V_2 is materialized at most once, for the oracle, linking and floor checks, labelled by the
    # walk's tokens of the points' values; a tile past MATERIALIZE_GUARD walks nothing: INCONCLUSIVE
    net = cfg.steps[1].net
    words = functools.cache(lambda: cfg.materialize(
        (STAR_TOKEN, HASH_TOKEN, *(cfg._walk.token(net.point_at(d)) for d in range(net.size)))))
    battery = [
        ("density sandwich", check_sandwich),
        ("no star in the limit", check_no_star),
        ("evaluator equals literal materialization", check_oracle),
        # at depth 1 no step-2 link tile is planned
        *([("level words reappear at the link tile", check_linking)] if cfg.params.depth >= 2 else []),
        ("free set nesting", check_nesting),
        ("per-tile density floors", check_floors),
        ("top-level descent agrees with stabilized values", check_top_descent),
        ("level-1 assignments below the cap realized" if cfg.steps[1].approximate
         else "level-1 assignments all realized", check_realization),
        ("bound brackets and monotone gaps", check_bounds),
        ("minimality diagnostic (level 1)", functools.partial(check_minimality, seed=seed)),
    ]
    rows = []
    for name, check in battery:
        try:
            res = check(cfg, words)
        except SizeGuardError as exc:
            res = CheckResult(None, f"{type(exc).__name__}: {exc}")
        except MeandimError as exc:
            res = CheckResult(False, f"{type(exc).__name__}: {exc}")
        rows.append((name, res.ok, res.detail))
    return rows
