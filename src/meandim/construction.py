"""Hierarchical word construction with exact density control.

The engine plans a tower of construction levels over a nested tiling
schedule and evaluates the resulting configuration lazily with one
evaluator, a tile walk over whole boxes (a single cell is a one-cell box),
with arbitrary-precision arithmetic throughout.  The pointwise resolvers
in ``meandim.oracles`` and the literal materializer here are its oracles.

Level words.  ``V_1`` is the seed word on the level-1 tile: a fixed star
cell set of density just above ``rho``, hash elsewhere.  For n >= 2, ``V_n``
lives on the level-n tile and is assembled from level n-1 in two zones:

* the host zone: a designated sub-tile (a schedule level between n-1 and n,
  anchored at the tile center) carries the coded word ``C_{n-1}``;
* the thinning zone: the remaining level-(n-1) tiles keep their words,
  except that the first ``thin_total`` of them in lexicographic order turn
  their first star into a hash.  Every level word has floor(rho * volume) + 1
  stars, one above its density floor, so a tile can shed one star and no
  more; ``thin_total`` is the count that brings the level-n tile to its own
  floor(rho * volume) + 1 stars.

The coded word ``C_n`` modifies ``V_n``-copies inside the host: the first
``code_count`` level-n tiles (identity first, then lexicographic center
order) have their stars replaced by net points, tile k receiving the base-B
digits of k (B = net size, big-endian over the stars in canonical order),
so the code tiles realize every possible star assignment exactly once.  The
next tile after the code block, the link tile, is left untouched, which
makes each level word reappear inside the next one.

Because the identity tile is always code tile 0, stars near the origin
resolve at the first level that reaches them, and the limit configuration
has no stars anywhere it is defined.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .cube import Net, Polyhedron, net_schedule
from .errors import (
    CapacityError,
    DepthError,
    NotRealizedError,
    ScheduleError,
    SizeGuardError,
)
from .groups import Box, Element, decimal_text, fraction_text
from .schedules import TilingSchedule

# Refuse exact code counts beyond roughly this many bits.
MAX_CODE_BITS = 1_000_000
# Refuse nets (code alphabets) of more points: make_net builds each axis point,
# about 20 us apiece, before any plan check; delta = 1/10**9 would take hours.
MAX_NET_POINTS = 2**16
# Give up scanning schedule levels beyond this index.
MAX_SCHED_LEVEL = 100_000
# Materialization bound, in cells.
MATERIALIZE_GUARD = 500_000


class Symbol:
    """Placeholder symbol (star or hash); net points are Fraction tuples."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return self.label


STAR = Symbol("*")
HASH = Symbol("#")


def render_value(v) -> str:
    """Render a symbol for dumps: '*', '#', or 'num/den[,num/den]'."""
    if v is STAR or v is HASH:
        return v.label
    return ",".join(f"{c.numerator}/{c.denominator}" for c in v)


@dataclass(frozen=True)
class BuildParams:
    """Everything a construction run depends on.

    ``depth`` is the number of fully planned construction levels: levels
    1..depth+1 are laid out and all coordinates of the level-``depth`` tile
    (and of its recurrence copies) are determined.
    """

    schedule: TilingSchedule
    rho: Fraction
    cube: Polyhedron
    nets: tuple
    depth: int
    mode: str = "exact"  # "exact" or "capped"
    cap: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie strictly between 0 and 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.mode not in ("exact", "capped"):
            raise ValueError("mode must be 'exact' or 'capped'")
        if self.mode == "capped":
            if self.cap is None or self.cap < 2:
                raise ValueError("capped mode needs cap >= 2")
        elif self.cap is not None:
            raise ValueError("cap is only meaningful in capped mode")
        if len(self.nets) < self.depth:
            raise ValueError("need one net per construction level")
        for net in self.nets:
            if net.dim != self.cube.dim:
                raise ValueError("net dimension does not match the cube")
            if net.size < 2:
                raise ValueError("nets must have at least two points")
        for a, b in zip(self.nets, self.nets[1:]):
            if not b.is_superset_of(a):
                raise ValueError("nets must be nested (each refines the previous)")

    @staticmethod
    def toy(
        schedule: TilingSchedule,
        rho,
        dim: int = 1,
        depth: int = 2,
        mode: str = "exact",
        cap: Optional[int] = None,
        first_delta=Fraction(1, 2),
    ) -> "BuildParams":
        """Convenience constructor with the default halving net schedule."""
        return BuildParams(
            schedule=schedule,
            rho=Fraction(rho),
            cube=Polyhedron(dim),
            nets=net_schedule(dim, depth, first_delta),
            depth=depth,
            mode=mode,
            cap=cap,
        )


@dataclass(frozen=True)
class LevelPlan:
    """One construction level: its schedule level, tile box, star count and
    tile periods (kept here so evaluation never goes back to the schedule)."""

    n: int
    sched_level: int
    box: Box
    volume: int
    stars: int  # star count of the level word V_n
    periods: tuple  # grid periods of the level's tiling, one per axis


@dataclass(frozen=True)
class StepPlan:
    """Data linking level n to level n+1 (host, code block, link, thinning)."""

    n: int
    host_level: int
    host_box: Box
    cand_lo: tuple  # per-axis j-range of level-n tiles inside the host box
    cand_hi: tuple
    n_cand: int
    e_lexrank: int  # lexicographic rank of the identity tile among candidates
    code_count: int
    code_exact: Optional[int]  # None when too large to represent
    approximate: bool
    link_center: Element
    next_level: int
    tile_lo: tuple  # per-axis j-range of level-n tiles inside the next box
    tile_hi: tuple
    n_out: int
    thin_total: int  # the first thin_total thinning-zone tiles shed their first star
    net: Net
    radix: int
    tile_strides: tuple  # _strides of the two j-ranges, for the tile walk
    cand_strides: tuple


@dataclass
class MaterializedWords:
    """Literal small-instance words, used as the evaluator's oracle.

    Each word is a flat list of values in ``Box.cells()`` order: ``w1``,
    ``v11`` and ``stable`` over ``window``, ``w1_coded`` over the host box
    of step 1 (``steps[1].host_box``).
    """

    window: Box  # the level-2 tile
    w1: list  # the seed word copied into every level-1 tile
    w1_coded: list  # the coded word on the host box of step 1
    v11: list  # the level-2 word (greedy thinning applied)
    stable: Optional[list]  # v11 with its stars resolved by code tile 0 of step 2


# -- box-lattice counting helpers -------------------------------------------


def _strides(lows: tuple, highs: tuple) -> tuple:
    """Per axis, how far one step along it moves in the box's lexicographic
    order."""
    out = [1]
    for lo, hi in zip(lows[:0:-1], highs[:0:-1]):
        out.append(out[-1] * (hi - lo + 1))
    return tuple(reversed(out))


def _line(lead: tuple, lows: tuple, highs: tuple, strides: tuple) -> tuple:
    """``_count_lex_below`` along one line of the box: below lead + (x,) lie
    base + clamp(x - lows[-1]) tuples when ``live`` (lead is inside the box),
    and base for every x otherwise."""
    base = 0
    for x, lo, hi, stride in zip(lead, lows, highs, strides):
        if not lo <= x <= hi:
            return base + (stride * (hi - lo + 1) if x > hi else 0), False
        base += (x - lo) * stride
    return base, True


def _count_lex_below(j: tuple, lows: tuple, highs: tuple) -> int:
    """Number of integer tuples in the box that are lexicographically < j."""
    base, live = _line(j[:-1], lows, highs, _strides(lows, highs))
    return base + min(max(j[-1] - lows[-1], 0), highs[-1] - lows[-1] + 1) if live else base


def _lex_at(index: int, lows: tuple, highs: tuple) -> tuple:
    """Inverse of the lexicographic rank within a box."""
    strides = _strides(lows, highs)
    if not 0 <= index < strides[0] * (highs[0] - lows[0] + 1):
        raise ValueError("lexicographic index out of range")
    out = []
    for lo, stride in zip(lows, strides):
        d, index = divmod(index, stride)
        out.append(lo + d)
    return tuple(out)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ScheduleError(f"alignment broken: {a} not a multiple of {b}")
    return q


class Construction:
    """A fully planned construction with a lazy tile-walk evaluator.

    Plans are immutable after construction and evaluation keeps no state,
    so instances are safe to share across threads and hold no memory that
    grows with what they have evaluated.
    """

    def __init__(self, params: BuildParams):
        self.params = params
        self.schedule = params.schedule
        self.group = params.schedule.group
        self.rho = params.rho
        self.levels: dict = {}
        self.steps: dict = {}
        self._plan()

    # -- planning ----------------------------------------------------------

    def _target_stars(self, volume: int) -> int:
        """Smallest star count whose density strictly exceeds rho."""
        return (self.rho.numerator * volume) // self.rho.denominator + 1

    def _plan(self) -> None:
        sched = self.schedule
        box1 = sched.level_box(1)
        vol1 = box1.volume
        s1 = self._target_stars(vol1)
        if s1 > vol1:
            raise CapacityError("rho too close to 1 for the seed tile")
        self.levels[1] = LevelPlan(1, 1, box1, vol1, s1, sched.periods(1))
        cells = itertools.islice(box1.cells(), s1)
        self.seed_stars = tuple(cells)  # lexicographically first cells
        for n in range(1, self.params.depth + 1):
            self._plan_step(n)

    def _code_count(self, n: int, stars: int, radix: int):
        """Code block size at step n: radix**stars, possibly capped."""
        too_big = stars * (radix.bit_length() - 1) > MAX_CODE_BITS
        exact = None if too_big else radix**stars
        if exact is not None and exact.bit_length() > MAX_CODE_BITS:
            exact, too_big = None, True
        if self.params.mode == "exact":
            if too_big:
                raise DepthError(
                    f"step {n + 1} needs a code block of {radix}^{stars} tiles, "
                    "beyond exact representation; rerun in capped mode"
                )
            return exact, exact, False
        cap = self.params.cap
        if too_big:
            return cap, None, True
        return min(cap, exact), exact, exact > cap

    def _plan_step(self, n: int) -> None:
        sched = self.schedule
        rho = self.rho
        num, den = rho.numerator, rho.denominator  # the tests below stay in integers
        fine = self.levels[n]
        q = fine.periods
        net = self.params.nets[n - 1]
        radix = net.size
        code, code_exact, approximate = self._code_count(n, fine.stars, radix)

        # Host level: the first level whose tile holds more than `code` fine
        # tiles, i.e. whose volume is at least (code + 1) * fine.volume.  The
        # schedule solves for it in closed form, however far up it sits.
        start = fine.sched_level + 1
        host = sched.first_level_holding((code + 1) * fine.volume, start)
        if host > max(start, MAX_SCHED_LEVEL):
            raise CapacityError(f"no host level found for step {n + 1}")
        host_box = sched.level_box(host)
        cand_lo, cand_hi = self._tile_jrange(fine, host_box)
        n_cand = 1
        for lo, hi in zip(cand_lo, cand_hi):
            n_cand *= hi - lo + 1
        # The checks below raise rather than assert so that they survive
        # python -O; their messages name levels only, since the counts can
        # have more digits than int->str converts.
        if n_cand != sched.volume(host) // fine.volume:
            raise ScheduleError(
                f"step {n + 1}: the level-{n} tile range of host level {host} "
                "disagrees with its volume"
            )
        if n_cand <= code:
            raise CapacityError(f"step {n + 1}: host level {host} cannot hold the code block")
        zeros = (0,) * self.group.rank
        e_lexrank = _count_lex_below(zeros, cand_lo, cand_hi)
        link_j = self._cand_at_raw(code, cand_lo, cand_hi, e_lexrank)
        link_center = tuple(jj * qq for jj, qq in zip(link_j, q))

        # Next level: the first level above the host that passes the anchor,
        # star-mass and thinning-capacity tests.
        g_n = self.group.enumerate_element(n)
        shift = self.link_shift(n - 1)
        anchor = self.group.mul(g_n, self.group.mul(shift, link_center))
        # The host zone is never thinned, so its surplus stars over rho must
        # fit under the sandwich ceiling no matter how large the next level
        # is; when rho*|S_n| is an integer this bound does not improve with
        # the level, so an oversized host is detectably hopeless up front.
        surplus = (n_cand - code) * fine.stars
        if (num * fine.volume) % den == 0 and surplus * den > num * sched.volume(host) + den:
            raise CapacityError(
                f"step {n + 1}: the {decimal_text(n_cand - code)} uncoded host tiles hold "
                f"{decimal_text(surplus)} stars, over the sandwich ceiling "
                f"{fraction_text(rho * sched.volume(host) + 1)}; "
                "the schedule jumps too coarsely past the code block"
            )
        # The walk goes up from the host one extension step at a time, so a
        # level costs a few linear big-int operations, not a power.
        reason = ""
        futile = 0
        for m, box_next, periods, vol_m in sched.climb(host, MAX_SCHED_LEVEL):
            n_out = vol_m // fine.volume - n_cand
            target = self._target_stars(vol_m)
            ok_anchor = anchor in box_next
            ok_mass = fine.stars * n_out * den > num * vol_m
            thin_total = (n_cand - code) * fine.stars + n_out * fine.stars - target
            # each thinning-zone tile can shed one star; ok_mass makes
            # stars * n_out at least target, so thin_total >= 0
            ok_capacity = ok_mass and thin_total <= n_out
            if ok_anchor and ok_mass and ok_capacity:
                break
            reason = (
                "anchor containment"
                if not ok_anchor
                else ("outside star mass" if not ok_mass else "thinning capacity")
            )
            futile += 1 if (ok_anchor and ok_mass) else 0
            if futile > 256:
                raise CapacityError(f"step {n + 1}: thinning capacity keeps failing past level {m}")
        else:
            raise CapacityError(f"step {n + 1}: {reason} unsatisfiable through level {MAX_SCHED_LEVEL}")

        tile_lo, tile_hi = self._tile_jrange(fine, box_next)
        self.steps[n] = StepPlan(
            n=n,
            host_level=host,
            host_box=host_box,
            cand_lo=cand_lo,
            cand_hi=cand_hi,
            n_cand=n_cand,
            e_lexrank=e_lexrank,
            code_count=code,
            code_exact=code_exact,
            approximate=approximate,
            link_center=link_center,
            next_level=m,
            tile_lo=tile_lo,
            tile_hi=tile_hi,
            n_out=n_out,
            thin_total=thin_total,
            net=net,
            radix=radix,
            tile_strides=_strides(tile_lo, tile_hi),
            cand_strides=_strides(cand_lo, cand_hi),
        )
        self.levels[n + 1] = LevelPlan(n + 1, m, box_next, vol_m, target, periods)
        # Density sandwich: rho < stars/volume <= rho + 1/volume, exactly
        if not num * vol_m < target * den <= num * vol_m + den:
            raise CapacityError(f"level {n + 1}: star count outside the density sandwich")
        if not (box_next.contains_box(host_box) and host_box.contains_box(fine.box)):
            raise ScheduleError(
                f"step {n + 1}: level-{n + 1} tile, host box and level-{n} tile are not nested"
            )

    def _tile_jrange(self, fine: LevelPlan, outer: Box):
        q = fine.periods
        lo = tuple(
            _exact_div(outer.lows[i] - fine.box.lows[i], q[i])
            for i in range(self.group.rank)
        )
        hi = tuple(
            _exact_div(outer.highs[i] - fine.box.highs[i], q[i])
            for i in range(self.group.rank)
        )
        return lo, hi

    # -- code-block ordering (identity tile first, then lexicographic) ------

    @staticmethod
    def _cand_at_raw(rank: int, lo: tuple, hi: tuple, e_lexrank: int) -> tuple:
        if rank == 0:
            return (0,) * len(lo)
        idx = rank - 1 if rank - 1 < e_lexrank else rank
        return _lex_at(idx, lo, hi)

    def _cand_at(self, step: StepPlan, rank: int) -> Element:
        j = self._cand_at_raw(rank, step.cand_lo, step.cand_hi, step.e_lexrank)
        return tuple(jj * qq for jj, qq in zip(j, self.levels[step.n].periods))

    def _coded_before(self, step: StepPlan, lex_count: int) -> int:
        """How many code tiles sit lexicographically before a given rank."""
        R, le = step.code_count, step.e_lexrank
        if le < R:
            return min(lex_count, R)
        extra = 1 if le < lex_count else 0
        return min(lex_count, R - 1) + extra

    @staticmethod
    def _digit(code_index: int, exp: int, radix: int) -> int:
        if exp >= code_index.bit_length():
            return 0  # radix**exp already exceeds the index
        return (code_index // radix**exp) % radix

    # -- public evaluation ---------------------------------------------------

    @property
    def approximate(self) -> bool:
        return any(s.approximate for s in self.steps.values())

    def eval_w(self, g: Element):
        """Stabilized limit value at g; never a star: a one-cell tile walk.

        Positions inside the level-n tile resolve through the coded word of
        step n; positions beyond the deepest tile resolve through the top
        level word when it determines them, otherwise a DepthError explains
        that more depth is needed.
        """
        return self.window_values(Box(g, g))[0]

    def _undetermined(self, g: Element) -> DepthError:
        # str(g) would refuse coordinates past the int->str digit limit
        coords = ", ".join(map(decimal_text, g)) + ("," if len(g) == 1 else "")
        return DepthError(f"value at ({coords}) is not determined at depth {self.params.depth}")

    def eval_x(self, g: Element):
        """Point of the cube at g: eval_w with hashes sent to the basepoint."""
        val = self.eval_w(g)
        if val is HASH:
            return self.params.cube.basepoint
        return val

    def window(self, cells, kind: str = "w") -> list:
        """Evaluate over a window; returns [(g, value)] in iteration order.

        ``kind`` "w" gives ``eval_w`` values, anything else ``eval_x``
        values.  A ``Box`` is one tile walk (``window_values``) in
        ``Box.cells()`` order; any other iterable is one one-cell walk per
        cell.  Both raise the same ``DepthError`` for the first undetermined
        cell.
        """
        if isinstance(cells, Box):
            return list(zip(cells.cells(), self.window_values(cells, kind)))
        fn = self.eval_w if kind == "w" else self.eval_x
        return [(tuple(g), fn(g)) for g in cells]

    def window_values(self, box: Box, kind: str = "w") -> list:
        """The values of ``window(box, kind)`` alone, in ``Box.cells()``
        order, from one tile walk; no cell tuples are built.  Raises the
        same ``DepthError`` for the first undetermined cell."""
        values = self._walk_box(box)
        # by identity: `STAR in values` would compare STAR with every net point
        if any(map(operator.is_, values, itertools.repeat(STAR))):
            raise self._undetermined_in(box, values)
        if kind != "w":
            base = self.params.cube.basepoint
            values = [base if v is HASH else v for v in values]
        return values

    def _walk_box(self, box: Box) -> list:
        """V_top on a box in ``Box.cells()`` order, with a STAR at every cell
        the planned depth leaves undetermined.

        Inside the level-n tile (n <= depth) the top level word is the coded
        word of step n, reached through code tile 0 at every level above, so
        a box inside such a tile is walked from the smallest one, as that
        coded word; any other box is laid from copies of the top level word.
        """
        if box.rank != self.group.rank:
            raise ValueError("element rank mismatch")
        box.guard_cells()
        walk = _TileWalk(self)
        for n in range(1, self.params.depth + 1):
            if self.levels[n].box.contains_box(box):
                return walk._coded(self.steps[n], (n, box.lows, box.highs), 0)
        return walk.lay(self.params.depth + 1, box.lows, box.highs, False, None)[0]

    def _undetermined_in(self, box: Box, values: list) -> DepthError:
        """The DepthError for the first STAR of ``_walk_box(box)``; its cell
        comes from its index, so no cell is built before the error."""
        return self._undetermined(_lex_at(values.index(STAR), box.lows, box.highs))

    def level_values(self, n: int, box: Box) -> list:
        """V_n on a box inside the level-n tile, in ``Box.cells()`` order,
        from one tile walk."""
        if not 1 <= n <= self.params.depth + 1:
            raise DepthError(f"level {n} not planned")
        if not self.levels[n].box.contains_box(box):
            raise ValueError(f"{box} outside the level-{n} tile")
        box.guard_cells()
        return _TileWalk(self).values(n, box.lows, box.highs, False)[0]

    def star_positions(self, n: int) -> list:
        """Stars of V_n in canonical rank order (walks the whole tile)."""
        box = self.levels[n].box
        if box.volume > MATERIALIZE_GUARD:
            raise SizeGuardError(f"level-{n} tile too large to scan")
        values, ranks = _TileWalk(self).values(n, box.lows, box.highs, True)
        stars = sorted((r, g) for g, v, r in zip(box.cells(), values, ranks) if v is STAR)
        return [g for _, g in stars]

    def link_shift(self, n: int) -> Element:
        """Product of the link centers of steps 1..n."""
        acc = self.group.identity
        for i in range(1, n + 1):
            acc = self.group.mul(acc, self.steps[i].link_center)
        return acc

    def follower_box(self, n: int) -> Box:
        """The level-(n+1) tile pulled back along the link shifts (a Folner window)."""
        shift = self.group.inv(self.link_shift(n))
        return self.levels[n + 1].box.translate(shift)

    # -- code decoding -------------------------------------------------------

    def realization_decode(self, n: int, assignment: Iterable, confirm: bool = True) -> Element:
        """Center of the code tile realizing a star assignment at level n.

        ``assignment`` lists one net point per star of V_n in canonical star
        order; the inverse positional code gives the tile index.
        """
        if n not in self.steps:
            raise DepthError(f"step {n + 1} not planned")
        step = self.steps[n]
        lvl = self.levels[n]
        assignment = [tuple(Fraction(c) for c in p) for p in assignment]
        if len(assignment) != lvl.stars:
            raise ValueError(f"assignment needs {lvl.stars} entries")
        index = 0
        for p in assignment:
            index = index * step.radix + step.net.index_of(p)
        if index >= step.code_count:
            raise NotRealizedError(
                f"assignment index {index} beyond the capped code block ({step.code_count})"
            )
        center = self._cand_at(step, index)
        if confirm and lvl.volume <= MATERIALIZE_GUARD:
            # one walk of the code tile, read at the offset of each star
            coded = self.level_values(n + 1, lvl.box.translate(center))
            for rank, pos in enumerate(self.star_positions(n)):
                got = coded[_count_lex_below(pos, lvl.box.lows, lvl.box.highs)]
                if got != assignment[rank]:
                    raise AssertionError("decode confirmation failed")  # pragma: no cover
        return center

    # -- literal materialization (the oracle) --------------------------------

    def materialize(self, guard: int = MATERIALIZE_GUARD) -> MaterializedWords:
        """Execute the first two levels literally, on flat lists.

        This follows the step definitions directly, with none of the
        arithmetic shortcuts the evaluator uses, and serves as its oracle.
        A cell g of the level-2 tile sits at offset sum((g - lows) * strides)
        of each list; the offset is linear in g, so a cell a + c of the tile
        centered at c sits at c's offset plus a's.
        """
        lvl1, lvl2, step1 = self.levels[1], self.levels[2], self.steps[1]
        if lvl2.volume > guard:
            raise SizeGuardError(f"level-2 tile has {lvl2.volume} cells, over the bound")
        box = lvl2.box
        box.guard_cells()  # a guard above the cell guard does not lift it
        strides = _strides(box.lows, box.highs)

        def offset(g: Element) -> int:
            return sum((x - lo) * s for x, lo, s in zip(g, box.lows, strides))

        # the offsets of the seed stars within a tile, and the lexicographic
        # tile indices j of the level-2 tile with the offsets of their centers
        deltas = [sum(x * s for x, s in zip(a, strides)) for a in self.seed_stars]
        js = list(itertools.product(*[range(lo, hi + 1) for lo, hi in zip(step1.tile_lo, step1.tile_hi)]))
        bases = list(map(sum, itertools.product(*[
            [(j * q - lo) * s for j in range(tlo, thi + 1)]
            for tlo, thi, q, lo, s in zip(step1.tile_lo, step1.tile_hi, lvl1.periods, box.lows, strides)
        ])))
        # W_1: the seed stars written into each of those tiles
        w1 = [HASH] * lvl2.volume
        for b in bases:
            for d in deltas:
                w1[b + d] = STAR
        v11 = list(w1)
        for k in range(step1.code_count):
            b = offset(self._cand_at(step1, k))
            for p, d in enumerate(deltas):
                v11[b + d] = step1.net.point_at(self._digit(k, lvl1.stars - 1 - p, step1.radix))
        # the coded word: V_2 on the host box, row by row along the last axis
        host = step1.host_box
        start, width = offset(host.lows), host.highs[-1] - host.lows[-1] + 1
        w1_coded = []
        for r in itertools.product(*[
            [(x - hl) * s for x in range(hl, hh + 1)]
            for hl, hh, s in zip(host.lows[:-1], host.highs[:-1], strides)
        ]):
            row = start + sum(r)
            w1_coded += v11[row:row + width]
        total = v11.count(STAR)
        target = lvl2.stars
        floor1 = (self.rho.numerator * lvl1.volume) // self.rho.denominator
        for j, b in zip(js, bases):
            if total <= target:
                break
            if all(cl <= x <= ch for x, cl, ch in zip(j, step1.cand_lo, step1.cand_hi)):
                continue  # host zone is never thinned
            budget = lvl1.stars - floor1
            for d in deltas:
                if total <= target or budget == 0:
                    break
                if v11[b + d] is STAR:
                    v11[b + d] = HASH
                    total -= 1
                    budget -= 1
        if total != target:
            raise CapacityError("literal thinning could not reach the target")
        stable = None
        if self.params.depth >= 2:
            zero = self.steps[2].net.point_at(0)
            stable = [zero if v is STAR else v for v in v11]
        return MaterializedWords(box, w1, w1_coded, v11, stable)

    # -- reporting -----------------------------------------------------------

    def plan_report(self) -> dict:
        """Plan summary with every value exact (ints and Fractions)."""
        levels = []
        for n in range(1, self.params.depth + 2):
            lvl = self.levels[n]
            levels.append(
                {
                    "level": n,
                    "schedule_level": lvl.sched_level,
                    "box": [list(lvl.box.lows), list(lvl.box.highs)],
                    "volume": lvl.volume,
                    "stars": lvl.stars,
                    "star_density": Fraction(lvl.stars, lvl.volume),
                }
            )
        steps = []
        for n in range(1, self.params.depth + 1):
            st = self.steps[n]
            steps.append(
                {
                    "step": n + 1,
                    "host_level": st.host_level,
                    "next_level": st.next_level,
                    "code_count": st.code_count,
                    "code_exact_known": st.code_exact is not None,
                    "approximate": st.approximate,
                    "link_center": list(st.link_center),
                    "alphabet_size": st.radix,
                    # every thinned tile sheds one star; the key stays so
                    # that the JSON report keeps its shape
                    "thinning": {
                        "total": st.thin_total,
                        "per_tile": 1,
                    },
                }
            )
        return {
            "group": self.group.name,
            "rho": self.rho,
            "cube_dim": self.params.cube.dim,
            "depth": self.params.depth,
            "mode": self.params.mode,
            "cap": self.params.cap,
            "approximate": self.approximate,
            "seed_stars": [list(a) for a in self.seed_stars],
            "levels": levels,
            "steps": steps,
        }


class _TileWalk:
    """One tile-by-tile evaluation of a window, level by level.

    ``values(n, lows, highs, ranks)`` gives the level word V_n on a box in
    level-n tile coordinates, row-major, and with ``ranks`` also each cell's
    star rank (``meandim.oracles.stars_below``).  The level-(n-1) tiles that
    meet the box come in runs of one class along the last axis (``_runs``),
    each laid down row by row by repeating one piece of V_(n-1).  A thinned
    tile (one of the first ``thin_total`` of the thinning zone) lays the piece
    with its first star turned to a hash, and a code tile patches the digit-0
    template of its piece at its non-zero digits.  The memos, templates and
    net points belong to the walk, not the construction.
    """

    def __init__(self, cfg: Construction):
        self.cfg = cfg
        self.memo: dict = {}  # (n, lows, highs, thinned) -> (word, ranks or None)
        self.templates: dict = {}  # (n, lows, highs) -> [digit-0 word, star index by rank]
        self.points: dict = {}  # (step, digit) -> net point

    def _point(self, step: StepPlan, d: int) -> tuple:
        """Net point d of a step's net, one object per walk: equal values of
        a window are then one object, which ``meandim window`` renders once."""
        key = (step.n, d)
        point = self.points.get(key)
        if point is None:
            point = self.points[key] = step.net.point_at(d)
        return point

    def values(self, n: int, lows: tuple, highs: tuple, ranks: bool, thinned: bool = False) -> tuple:
        """With ``thinned``, V_n with its first star turned to a hash, and
        each cell's rank among the stars left (a thinned tile's piece)."""
        key = (n, lows, highs, thinned)
        hit = self.memo.get(key)
        if hit is not None and (hit[1] is not None or not ranks):
            return hit
        if thinned:
            vals, sub = self.values(n, lows, highs, True)
            out = ([HASH if v is STAR and p == 0 else v for v, p in zip(vals, sub)],
                   [p - 1 if p else 0 for p in sub])
        elif n == 1:
            out = self._seed(lows, highs)
        else:
            out = self.lay(n - 1, lows, highs, ranks, self.cfg.steps[n - 1])
        self.memo[key] = out
        return out

    def _seed(self, lows: tuple, highs: tuple) -> tuple:
        """V_1 and its star ranks: the seed stars are the first cells of
        the level-1 tile in lexicographic order, so a cell's lexicographic
        index is its rank until the stars run out."""
        box, stars = self.cfg.levels[1].box, self.cfg.levels[1].stars
        width = highs[-1] - lows[-1] + 1
        vals, rks = [], []
        for lead in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows[:-1], highs[:-1]))):
            start = _count_lex_below(lead + (lows[-1],), box.lows, box.highs)
            row = range(start, start + width)
            vals += [STAR if i < stars else HASH for i in row]
            rks += [i if i < stars else stars for i in row]
        return vals, rks

    def lay(self, m: int, lows: tuple, highs: tuple, ranks: bool, step: Optional[StepPlan]) -> tuple:
        """Row-major cells of a box from the level-m tiles that meet it:
        V_(m+1) on a box of its tile when ``step`` is step m, else copies of
        V_m (a window's top level).  Each combination of leading-axis tile
        pieces is a band, whose rows are the rows of its runs side by side."""
        lvl = self.cfg.levels[m]
        *lead_axes, last = [  # per axis: (j, piece lo, piece hi), in tile coordinates
            [(j, max(lo - j * q, tlo), min(hi - j * q, thi)) for j in range((lo - tlo) // q, (hi - tlo) // q + 1)]
            for lo, hi, tlo, thi, q in zip(lows, highs, lvl.box.lows, lvl.box.highs, lvl.periods)
        ]
        vals, rks = [], []
        for band in itertools.product(*lead_axes):
            lead, plows, phighs = (tuple(t) for t in zip(*band)) if band else ((), (), ())
            nrows = math.prod(b - a + 1 for _, a, b in band)
            # a band of one row (always on Z) goes straight to the output
            rows = [vals] if nrows == 1 else [[] for _ in range(nrows)]
            rank_rows = [rks] if nrows == 1 else [[] for _ in rows]
            for s, e, code, thinned, off in self._runs(step, lead, last[0][0], last[-1][0]):
                _, plo, phi = last[s - last[0][0]]
                w, key = phi - plo + 1, (m, plows + (plo,), phighs + (phi,))
                if code is None:
                    piece, sub = self.values(*key, ranks, thinned)
                else:  # code tiles come one to a run, and all their stars rank alike
                    piece = self._coded(step, key, code)
                    sub = [0] * len(piece)
                gain = lvl.stars - thinned  # the rank offset from one tile of a run to the next
                for r, row in enumerate(rows):
                    part = piece if nrows == 1 else piece[r * w:(r + 1) * w]
                    row += part if e - s == 1 else part * (e - s)
                    if ranks:
                        part = sub if nrows == 1 else sub[r * w:(r + 1) * w]
                        for t in range(e - s):
                            rank_rows[r] += map((off + t * gain).__add__, part)
            if nrows > 1:
                for row in rows:
                    vals += row
                for row in rank_rows:
                    rks += row
        return vals, rks if ranks else None

    def _runs(self, step: Optional[StepPlan], lead: tuple, ja: int, jb: int):
        """Tiles ja..jb of a band in runs [s, e) of one class: (s, e, code
        index or None, thinned, rank offset of tile s).

        A class changes only at the boundary pieces, the host edges, the end
        of the code block, the identity tile and the thinning cut (thinning
        rank ``thin_total``, before or after the host); the band's
        lexicographic line terms (``_line``) place those cuts without
        visiting the tiles between them.
        """
        cuts = {ja, ja + 1, jb, jb + 1}
        if step is not None:
            cfg, stars = self.cfg, self.cfg.levels[step.n].stars
            t_base, _ = _line(lead, step.tile_lo, step.tile_hi, step.tile_strides)
            c_base, live = _line(lead, step.cand_lo, step.cand_hi, step.cand_strides)
            t0, c0, c1, le = step.tile_lo[-1], step.cand_lo[-1], step.cand_hi[-1] + 1, step.e_lexrank
            # the code tiles other than the identity rank below code_end in the host
            code_end = step.code_count - (le >= step.code_count)
            cut = step.thin_total + c_base - t_base + t0  # the thinning cut before the host
            cuts |= {cut, cut + c1 - c0}
            if live:
                cuts |= {c0, c1, c0 + code_end - c_base, c0 + le - c_base, c0 + le - c_base + 1}
        points = sorted(x for x in cuts if ja <= x <= jb + 1)
        for s, e in zip(points, points[1:]):
            if step is None:
                yield s, e, None, False, 0
                continue
            lc = c_base + min(max(s - c0, 0), c1 - c0) if live else c_base
            lt = t_base + s - t0 - lc  # thinning-zone tiles before tile s
            off = (lc - cfg._coded_before(step, lc)) * stars + lt * stars - min(lt, step.thin_total)
            if not (live and c0 <= s < c1):
                yield s, e, None, lt < step.thin_total, off
            elif lc == le or lc < code_end:
                for lr in range(lc, lc + e - s):  # the identity tile is code tile 0
                    yield s + lr - lc, s + lr - lc + 1, 0 if lr == le else lr + (lr < le), False, off
            else:
                yield s, e, None, False, off

    def _coded(self, step: StepPlan, key: tuple, code: int) -> list:
        """V_(n+1) on a piece of code tile ``code``: the star of rank p takes
        the net point of digit radix**(stars - 1 - p) of the code index."""
        template = self.templates.get(key)
        if template is None:
            vals, _ = self.values(*key, False)
            zero = self._point(step, 0)
            template = self.templates[key] = [[zero if v is STAR else v for v in vals], None]
        out, p = template[0], self.cfg.levels[step.n].stars - 1
        while code:
            code, d = divmod(code, step.radix)
            if d:
                if template[1] is None:  # built only once a non-zero digit needs it
                    vals, sub = self.values(*key, True)
                    template[1] = {r: i for i, (v, r) in enumerate(zip(vals, sub)) if v is STAR}
                i = template[1].get(p)
                if i is not None:
                    out = list(out) if out is template[0] else out
                    out[i] = self._point(step, d)
            p -= 1
        return out


def plan(params: BuildParams) -> Construction:
    """Plan a construction (alias for the constructor)."""
    return Construction(params)
