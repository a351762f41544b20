"""Test oracles: the brute-force and pointwise paths the tests hold the
engine to.  No engine module imports this one (a test enforces it), so
``meandim`` and its commands never load it.

* Pointwise resolvers of the limit configuration, the tile walk's oracle,
  by recursion down the level words with none of the walk's runs,
  templates or memos: ``word(cfg, n, pos)`` is V_n at a position of the
  level-n tile, ``coded(cfg, n, g)`` the coded word C_n on the host box of
  step n, ``stars_below(cfg, n, pos)`` a position's rank among the stars of
  V_n, and ``eval_w(cfg, g)`` the stabilized limit value at g, with the
  errors of a one-cell ``Construction.window_values``.
* Tiling-lab scanners for the tiling properties of Downarowicz-Huczek-Zhang
  (*Tilings of amenable groups*, J. reine angew. Math. 747, 2019), which
  the engine takes from the closed-form schedule: window covering, syndetic
  centers, irreducibility witnesses, the factor map of a primely congruent
  pair, and ``to_explicit``, a grid tiling's center table on a window.
* ``verify_invariance_profile``, the materializing scan that
  ``TilingSchedule.first_invariant_level`` does in closed form, and
  ``verify_nesting_by_scan``, the per-element level scan that
  ``TilingSchedule.verify_nesting`` does from one bounding box.
* Toy constructors, explicit intervals and boxes, the schedule parser
  (the inverse of ``TilingSchedule.serialize``), exact word densities,
  free-set enumeration and the net density check.
* ``floors_by_count``, the per-tile floors row by a count of every cell,
  which ``analysis.check_floors`` bounds from the seed offsets first.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from typing import Iterable, Optional

from .construction import HASH, STAR, BuildParams, Construction, StepPlan
from .cube import Net, Polyhedron, net_schedule
from .errors import DecodeError, ScheduleError
from .groups import GROUPS, Box, Element, FiniteSubset, LatticeGroup, Z, Z2, is_invariant
from .schedules import MAX_SEARCH_LEVEL, AxisRule, TilingSchedule
from .tilings import (
    CheckResult,
    ExplicitTiling,
    GridTiling,
    _decomposition,
    verify_primely_congruent,
)


def _grid_center(cfg: Construction, n: int, g: Element) -> Element:
    """Center of the level-n tile containing g."""
    lvl = cfg.levels[n]
    return tuple(qq * ((x - lo) // qq) for x, lo, qq in zip(g, lvl.box.lows, lvl.periods))


def _jvec(cfg: Construction, n: int, center: Element) -> tuple:
    return tuple(c // qq for c, qq in zip(center, cfg.levels[n].periods))


def _cand_rank(step: StepPlan, j: tuple) -> int:
    """Code-block rank of host tile j: the identity tile first, then
    lexicographic order."""
    if all(x == 0 for x in j):
        return 0
    lr = step.cand.count_below(j)
    return lr + 1 if lr < step.e_lexrank else lr


def word(cfg: Construction, n: int, pos: Element):
    """V_n at a position of the level-n tile (tile coordinates)."""
    if n == 1:
        return STAR if pos in cfg.seed_stars else HASH
    step = cfg.steps[n - 1]
    if pos in step.host_box:
        return coded(cfg, n - 1, pos)
    c = _grid_center(cfg, n - 1, pos)
    rel = tuple(x - y for x, y in zip(pos, c))
    val = word(cfg, n - 1, rel)
    if val is STAR:
        j = _jvec(cfg, n - 1, c)
        rank = step.tiles.count_below(j) - step.cand.count_below(j)
        if rank < step.thin_total and stars_below(cfg, n - 1, rel) == 0:
            return HASH  # the first star of a thinned tile
    return val


def coded(cfg: Construction, n: int, g: Element):
    """The coded word C_n at a cell of the host box of step n."""
    step = cfg.steps[n]
    c = _grid_center(cfg, n, g)
    rel = tuple(x - y for x, y in zip(g, c))
    rank = _cand_rank(step, _jvec(cfg, n, c))
    if rank < step.code_count and word(cfg, n, rel) is STAR:
        p = stars_below(cfg, n, rel)
        d = cfg._digit(rank, cfg.levels[n].stars - 1 - p, step.radix)
        return step.net.point_at(d)
    return word(cfg, n, rel)


def stars_below(cfg: Construction, n: int, pos: Element) -> int:
    """Rank of a position among the stars of V_n (canonical order).

    The order is hierarchical: level-(n-1) tiles in lexicographic center
    order, positions within a tile recursively.  On Z this coincides with
    the numeric order of the star positions.
    """
    if n == 1:
        return bisect_left(cfg.seed_stars, pos)
    step = cfg.steps[n - 1]
    fine = cfg.levels[n - 1]
    c = _grid_center(cfg, n - 1, pos)
    rel = tuple(x - y for x, y in zip(pos, c))
    j = _jvec(cfg, n - 1, c)
    lb_cand = step.cand.count_below(j)
    lb_thin = step.tiles.count_below(j) - lb_cand
    total = (lb_cand - cfg._coded_before(step, lb_cand)) * fine.stars
    total += lb_thin * fine.stars - min(lb_thin, step.thin_total)
    if pos in step.host_box:
        if _cand_rank(step, j) >= step.code_count:
            total += stars_below(cfg, n - 1, rel)
    else:
        within = stars_below(cfg, n - 1, rel)
        total += within - 1 if within and lb_thin < step.thin_total else within
    return total


def eval_w(cfg: Construction, g: Element):
    """Stabilized limit value at g, cell by cell.

    Positions inside the level-n tile resolve through the coded word of
    step n; positions beyond the deepest tile resolve through the top level
    word when it determines them, otherwise the construction's DepthError.
    """
    g = tuple(g)
    if len(g) != cfg.group.rank:
        raise ValueError("element rank mismatch")
    for n in range(1, cfg.params.depth + 1):
        if g in cfg.levels[n].box:
            return coded(cfg, n, g)
    top = cfg.params.depth + 1
    c = _grid_center(cfg, top, g)
    val = word(cfg, top, tuple(x - y for x, y in zip(g, c)))
    if val is STAR:
        raise cfg._undetermined_in(Box(g, g), [0])
    return val


def covers_window(F: FiniteSubset, S_sample: FiniteSubset, W: FiniteSubset) -> bool:
    """Window-level check of G = FS: true iff W is covered by F * S_sample.

    The caller supplies the visible portion of S, typically S intersected
    with F^{-1}W.
    """
    F._check_same_group(S_sample)
    F._check_same_group(W)
    if len(W) == 0:
        return True
    covered = F.product(S_sample)
    return all(w in covered for w in W)


def verify_syndetic_centers(
    tiling, shape_id: int, F_witness: FiniteSubset, W: FiniteSubset
) -> bool:
    """True iff W is covered by F_witness * (C(S) within F_witness^{-1} W)."""
    sample_window = F_witness.inverse().product(W)
    sample = tiling.centers_in(shape_id, sample_window)
    if len(sample) == 0:
        return False
    return covers_window(F_witness, sample, W)


def check_irreducibility_witness(
    tiling, T_wit: FiniteSubset, eps, candidates: Iterable[FiniteSubset]
) -> CheckResult:
    """For each (T_wit, eps)-invariant candidate F and each shape, look for a
    whole tile of that shape inside F.  Non-invariant candidates are skipped
    with a note; the overall check passes iff every tested pair succeeds.
    """
    notes = []
    failures = []
    tested = 0
    for idx, F in enumerate(candidates):
        if not is_invariant(F, T_wit, eps):
            notes.append(("skipped_not_invariant", idx))
            continue
        tested += 1
        for sid in tiling.shape_ids:
            cells = tiling.shape_cells(sid)
            found = any(
                all(tiling.group.mul(s, c) in F for s in cells)
                for c in tiling.centers_in(sid, F)
            )
            if not found:
                failures.append(("no_tile_of_shape", idx, sid))
    ok = tested > 0 and not failures
    detail = f"tested={tested} failures={len(failures)} skipped={len(notes)}"
    return CheckResult(ok if tested else None, detail, failures + notes)


def tiling_configuration(tiling, g: Element):
    """Symbol of the canonical tiling point at g: shape id at centers, else 0."""
    sid, c = tiling.tile_of(g)
    if c == tuple(g):
        return sid
    # Centers of other shapes cannot sit inside this tile, so g is not a center.
    return 0


def factor_window(fine, coarse, coarse_pattern: dict, W: FiniteSubset) -> dict:
    """Block map induced by a primely congruent pair: the coarse tiling's
    configuration determines the fine one, tile by tile, through the master
    partition.

    ``coarse_pattern`` maps cells of an enlarged window (union of S S^{-1} W
    over coarse shapes S, so that every tile meeting W is fully visible) to
    coarse symbols (shape id at centers, else 0).  Returns the decoded fine
    configuration on W.  Raises DecodeError when some cell of W lies in no
    tile of the pattern, or in two.

    The direction matters: a coarse configuration pins down its refinement,
    while a fine configuration generally underdetermines the coarse tiles
    grouping it.
    """
    group = coarse.group
    dom = {tuple(k): v for k, v in coarse_pattern.items()}
    masters = _master_patterns(fine, coarse, W)
    out = {}
    for w in W:
        w = tuple(w)
        claims = []
        for sid in coarse.shape_ids:
            for s in coarse.shape_cells(sid):
                c = group.mul(group.inv(s), w)
                if dom.get(c) == sid:
                    claims.append((sid, c))
        claims = sorted(set(claims))
        if not claims:
            raise DecodeError(f"no tile of the pattern covers {w}")
        if len(claims) > 1:
            raise DecodeError(f"cell {w} claimed by two tiles: {claims[:2]}")
        sid, c = claims[0]
        rel = group.mul(w, group.inv(c))
        fine_sid = 0
        for fsid, t in masters[sid]:
            if rel == t:
                fine_sid = fsid
                break
        out[w] = fine_sid
    return out


def _master_patterns(fine, coarse, W: FiniteSubset) -> dict:
    """Fine decomposition of one reference tile per coarse shape.

    Prime congruence (assumed, and spot-checked here) makes the choice of
    reference tile irrelevant.
    """
    group = coarse.group
    grown = _grow_window(coarse, W)
    prime = verify_primely_congruent(fine, coarse, grown)
    if prime.ok is False:
        raise DecodeError(f"tilings are not primely congruent: {prime.violations[:3]}")
    masters = {}
    for sid in coarse.shape_ids:
        shape = coarse.shape_cells(sid)
        found = None
        for c in coarse.centers_in(sid, grown):
            cells = [group.mul(s, c) for s in shape]
            dec = _decomposition(fine, cells, group)
            if dec is not None:
                found = frozenset(
                    (fsid, group.mul(fc, group.inv(c))) for fsid, fc in dec
                )
                break
        if found is None:
            raise DecodeError(f"no decomposable tile of shape {sid} near the window")
        masters[sid] = found
    return masters


def _grow_window(coarse, W: FiniteSubset) -> FiniteSubset:
    group = coarse.group
    cells = set(W.elements)
    for sid in coarse.shape_ids:
        shape = coarse.shape_cells(sid)
        spread = shape.product(shape.inverse())
        for w in W:
            for t in spread:
                cells.add(group.mul(t, w))
    return FiniteSubset(group, cells)


def to_explicit(tiling: GridTiling, window: Box) -> ExplicitTiling:
    """Materialize the center table of every tile of a grid tiling meeting
    the window."""
    centers = []
    seen = set()
    for g in window.cells():
        _, c = tiling.tile_of(g)
        if c not in seen:
            seen.add(c)
            centers.append((c, 1))
    support = Box(
        tuple(lo + slo for lo, slo in zip(window.lows, tiling.box.lows)),
        tuple(hi + shi for hi, shi in zip(window.highs, tiling.box.highs)),
    )
    return ExplicitTiling(tiling.group, [tiling.shape_cells(1)], centers, support)


def verify_invariance_profile(schedule: TilingSchedule, K_list, eps_list) -> CheckResult:
    """Check that level k is (K_k, eps_k)-invariant for each k, on the
    materialized level box."""
    K_list = list(K_list)
    eps_list = list(eps_list)
    if len(K_list) != len(eps_list):
        raise ValueError("K_list and eps_list length mismatch")
    for k, (K, eps) in enumerate(zip(K_list, eps_list), start=1):
        if Fraction(eps) <= 0:
            # a boundary ratio is never strictly below zero
            return CheckResult(False, f"level {k}: eps = {eps} can never hold", [k])
        S = schedule.level_box(k).to_subset(schedule.group)
        if not is_invariant(S, K, eps):
            return CheckResult(False, f"level {k} is not ({K!r}, {eps})-invariant", [k])
    return CheckResult(True, f"levels 1..{len(K_list)} pass")


def verify_nesting_by_scan(schedule: TilingSchedule, N: int, max_level: int = MAX_SEARCH_LEVEL) -> CheckResult:
    """``TilingSchedule.verify_nesting`` element by element: the first level
    through max_level covering each of g_1..g_N, the worst of them, or the
    first element no such level covers."""
    worst = 0
    it = schedule.group.spiral()
    for i in range(1, N + 1):
        g = next(it)
        level = next((n for n in range(1, max_level + 1) if g in schedule.level_box(n)), None)
        if level is None:
            return CheckResult(False, f"g_{i} = {g} uncovered through level {max_level}", [g])
        worst = max(worst, level)
    return CheckResult(True, f"g_1..g_{N} covered by level {worst}", [worst])


def generate_interval_schedule(
    seed_a: int,
    seed_b: int,
    growth,
    balance: str = "centered",
    group: LatticeGroup = Z,
) -> TilingSchedule:
    """Build a schedule from one seed interval; Z^2 uses the same rule per
    axis."""
    rule = AxisRule.make(seed_a, seed_b, growth)
    return TilingSchedule(group, (rule,) * group.rank, balance)


def parse_schedule(text: str) -> TilingSchedule:
    """Read a schedule written by ``TilingSchedule.serialize``; stored a/b
    arrays must agree with the rebuilt levels."""
    kv = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, val = ln.partition("=")
        kv[key.strip()] = val.strip()
    group = GROUPS.get(kv.get("group", ""))
    if group is None:
        raise ScheduleError(f"unknown group {kv.get('group')!r}")
    balance = kv.get("balance", "centered")
    levels = int(kv.get("levels", "1"))
    rules = []
    for ax in range(group.rank):
        rules.append(
            AxisRule.make(
                int(kv[f"axis{ax}.seed_a"]),
                int(kv[f"axis{ax}.seed_b"]),
                kv[f"axis{ax}.growth"].split(),
            )
        )
    sched = TilingSchedule(group, rules, balance)
    sched.ensure(levels)
    for ax in range(group.rank):
        for key, arr in zip("ab", sched._arrays(ax, levels)):
            stored = kv.get(f"axis{ax}.{key}")
            if stored is not None:
                # compared as text: int() refuses tokens past the int->str limit
                got = stored.split()
                if got != arr[: len(got)]:
                    raise ScheduleError(f"stored axis{ax}.{key} array is inconsistent")
    return sched


def interval(a: int, b: int) -> FiniteSubset:
    """The integer interval [a, b] in Z."""
    if a > b:
        raise ValueError("empty interval")
    return FiniteSubset(Z, ((i,) for i in range(a, b + 1)))


def box2(xlo: int, xhi: int, ylo: int, yhi: int) -> FiniteSubset:
    """The box [xlo, xhi] x [ylo, yhi] in Z^2."""
    if xlo > xhi or ylo > yhi:
        raise ValueError("empty box")
    return FiniteSubset(Z2, product(range(xlo, xhi + 1), range(ylo, yhi + 1)))


def toy_params(
    schedule: TilingSchedule,
    rho,
    dim: int = 1,
    depth: int = 2,
    cap: Optional[int] = None,
    first_delta=Fraction(1, 2),
) -> BuildParams:
    """Build parameters with the default halving net schedule."""
    return BuildParams(
        schedule=schedule,
        rho=rho,
        cube=Polyhedron(dim),
        nets=net_schedule(dim, depth, {1: first_delta}),
        depth=depth,
        cap=cap,
    )


@dataclass(frozen=True)
class DensityReport:
    window_id: str
    window_size: int
    star_density: Fraction
    hash_density: Fraction


def densities(word, window_id: str = "") -> DensityReport:
    """Exact star and hash densities of a finite word.

    ``word`` is a mapping position -> value or an iterable of (position,
    value) pairs, as produced by ``Construction.window``.
    """
    pairs = word.items() if hasattr(word, "items") else list(word)
    total = len(pairs) if not hasattr(word, "items") else len(word)
    if total == 0:
        raise ValueError("empty window")
    stars = sum(1 for _, v in pairs if v is STAR)
    hashes = sum(1 for _, v in pairs if v is HASH)
    return DensityReport(window_id, total, Fraction(stars, total), Fraction(hashes, total))


def free_set_elements(cfg: Construction, n: int) -> list:
    """Every element of J_n, the level-n free coordinates: the stars of
    V_{n+1}, pulled back along the link shifts of steps 1..n (J_0 is empty)."""
    if n == 0:
        return []
    inv = cfg.group.inv(cfg.link_shift(n))
    return [cfg.group.mul(p, inv) for p in cfg.star_positions(n + 1)]


def floors_by_count(cfg: Construction, word: list) -> CheckResult:
    """The per-tile density floors row by a full count, the oracle of
    ``analysis.check_floors``: every run of q[-1] cells of ``word``, the
    literal V_2 of ``Construction.materialize``, is one row of one level-1
    tile, so the stars of each tile are counted on every cell, and the first
    thinning-zone tile in lexicographic order with at most floor stars
    fails."""
    st, lvl1, lvl2 = cfg.steps[1], cfg.levels[1], cfg.levels[2]
    q, across = lvl1.periods, st.tiles.highs[-1] - st.tiles.lows[-1] + 1
    per_row = list(map(operator.countOf, zip(*[iter(word)] * q[-1]), repeat(STAR)))
    counts = {}  # leading tile index -> star count of each tile along the last axis
    for r, lead in enumerate(product(*[  # the leading tile index of each row
        [(x - lo) // qq for x in range(blo, bhi + 1)]
        for lo, qq, blo, bhi in zip(lvl1.box.lows[:-1], q[:-1], lvl2.box.lows[:-1], lvl2.box.highs[:-1])
    ])):
        row = per_row[r * across:(r + 1) * across]
        counts[lead] = list(map(operator.add, counts[lead], row)) if lead in counts else row
    floor = (cfg.rho.numerator * lvl1.volume - cfg.rho.denominator) // cfg.rho.denominator
    for lead, row in counts.items():  # in lexicographic order
        for j in (lead + (st.tiles.lows[-1] + k,) for k, c in enumerate(row) if c <= floor):
            if j not in st.cand:
                center = tuple(jj * qq for jj, qq in zip(j, q))
                return CheckResult(False, f"tile at {center} thinned below its floor")
    return CheckResult(True, "every thinned tile stays above its floor")


def verify_dense(net: Net) -> bool:
    """Check delta-density by covering the dual grid of axis gaps.

    In the sup metric the covering property factorizes per axis; the axis
    {j/k} holds both endpoints, and every gap, 1/k, must be at most 2*delta.
    """
    return Fraction(1, net.k) <= 2 * net.delta
