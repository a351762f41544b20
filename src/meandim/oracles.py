"""Pointwise resolvers of the limit configuration, the tile walk's oracle.

These follow the level-word definitions one cell at a time, by recursion
down the levels, with none of the runs, templates or memos of the tile
walk in ``meandim.construction``.  The engine never imports this module;
the tests compare the walk with it cell by cell.

* ``word(cfg, n, pos)`` is V_n at a position of the level-n tile;
* ``coded(cfg, n, g)`` is the coded word C_n at a cell of the host box of
  step n;
* ``stars_below(cfg, n, pos)`` is a position's rank among the stars of V_n;
* ``eval_w(cfg, g)`` is the stabilized limit value at g, with the same
  errors as ``Construction.eval_w``.
"""

from __future__ import annotations

from bisect import bisect_left

from .construction import HASH, STAR, Construction, StepPlan, _count_lex_below
from .groups import Element


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
    lr = _count_lex_below(j, step.cand_lo, step.cand_hi)
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
        rank = _count_lex_below(j, step.tile_lo, step.tile_hi) - _count_lex_below(
            j, step.cand_lo, step.cand_hi
        )
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
    lb_cand = _count_lex_below(j, step.cand_lo, step.cand_hi)
    lb_thin = _count_lex_below(j, step.tile_lo, step.tile_hi) - lb_cand
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
        raise cfg._undetermined(g)
    return val
