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

import copy
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .cube import Net, Polyhedron
from .errors import (
    CapacityError,
    ConfigError,
    DecodeError,
    DepthError,
    NotRealizedError,
    SizeGuardError,
)
from .groups import Box, Element, decimal_text, fraction_text
from .schedules import TilingSchedule

# Refuse exact code counts beyond roughly this many bits.
MAX_CODE_BITS = 1_000_000
# A refused code count's star-count exponent longer than this many digits is
# printed as its digit count.
MAX_EXPONENT_DIGITS = 30
# Give up scanning schedule levels beyond this index.
MAX_SCHED_LEVEL = 100_000
# The one bound, in cells, on a scan that reads a whole level tile literally:
# the materializer, star ranking, decode confirmation, free-set nesting and
# the minimality window.
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
    """Everything a construction run depends on; it checks its own fields, and
    its schedule, cube and nets check theirs when built.

    ``depth`` is the number of fully planned construction levels: levels
    1..depth+1 are laid out and all coordinates of the level-``depth`` tile
    (and of its recurrence copies) are determined.  ``cap = None`` is exact
    mode, where each code block holds every star assignment; a cap >= 2 is
    capped mode, where it holds at most ``cap`` of them.  ``seed`` seeds the
    sampling checks and nothing in the plan.
    """

    schedule: TilingSchedule
    rho: Fraction
    cube: Polyhedron
    nets: tuple
    depth: int
    cap: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        if not 0 < self.rho < 1:
            raise ConfigError(f"field 'rho': {fraction_text(self.rho)} outside (0,1)")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.cap is not None and self.cap < 2:
            raise ConfigError("capped mode needs cap >= 2")
        if len(self.nets) < self.depth:
            raise ConfigError("need one net per construction level")
        for net in self.nets:
            if net.dim != self.cube.dim:
                raise ConfigError("net dimension does not match the cube")
            if net.size < 2:
                raise ConfigError("nets must have at least two points")
        for a, b in zip(self.nets, self.nets[1:]):
            if not b.is_superset_of(a):
                raise ConfigError("nets must be nested (each refines the previous)")


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
    """Data linking level n to level n+1 (host, code block, link, thinning).

    Level-n tiles are indexed by j, the tile centered at j * q_n; ``cand``
    and ``tiles`` are the boxes of the j inside the host box and inside the
    level-(n+1) tile, and their lexicographic order (``Box.count_below``,
    ``Box.cell_at``) is the order of the code block and of the thinning.
    """

    n: int
    host_level: int
    host_box: Box
    cand: Box  # j of the level-n tiles inside the host box (the candidates)
    e_lexrank: int  # lexicographic rank of the identity tile among candidates
    code_count: int
    code_exact: Optional[int]  # None when too large to represent
    approximate: bool
    link_center: Element
    tiles: Box  # j of the level-n tiles inside the level-(n+1) tile
    thin_total: int  # the first thin_total thinning-zone tiles shed their first star
    net: Net
    radix: int


@dataclass
class MaterializedWords:
    """Literal small-instance words, used as the evaluator's oracle.

    Each word is a flat list of values over ``window`` in ``Box.cells()``
    order.  The host box of step 1 is never thinned, so ``v11`` on it is the
    coded word of step 1.
    """

    window: Box  # the level-2 tile
    w1: list  # the seed word copied into every level-1 tile
    v11: list  # the level-2 word (greedy thinning applied)
    stable: Optional[list]  # v11 with its stars resolved by code tile 0 of step 2


class Construction:
    """A fully planned construction with a lazy tile-walk evaluator.

    Plans are immutable after construction and evaluation keeps no state:
    each evaluation call makes its own ``_TileWalk``, so instances are safe
    to share across threads and hold no memory that grows with what they
    have evaluated.  The one exception is the view ``with_one_walk`` makes
    for the verify battery: a copy whose evaluations share one walk, which
    lives for exactly one ``analysis.run_verification`` call.
    """

    _walk: Optional["_TileWalk"] = None  # set only on a with_one_walk view

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
        s1 = self._target_stars(vol1)  # at most vol1, as rho < 1
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
        cap = self.params.cap
        if cap is None:
            if too_big:
                exponent = decimal_text(stars)
                if len(exponent) > MAX_EXPONENT_DIGITS:
                    exponent = f"(a {len(exponent)}-digit star count)"
                raise DepthError(
                    f"step {n + 1} needs a code block of {radix}^{exponent} tiles, "
                    "beyond exact representation; rerun in capped mode"
                )
            return exact, exact, False
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
        host_box, host_volume = sched.level_box(host), sched.volume(host)
        cand = self._tile_jrange(fine, host_box)
        n_cand = host_volume // fine.volume  # at least code + 1
        e_lexrank = cand.count_below(self.group.identity)
        link_j = self._cand_at_raw(code, cand, e_lexrank)
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
        if (num * fine.volume) % den == 0 and surplus * den > num * host_volume + den:
            raise CapacityError(
                f"step {n + 1}: the {decimal_text(n_cand - code)} uncoded host tiles hold "
                f"{decimal_text(surplus)} stars, over the sandwich ceiling "
                f"{fraction_text(rho * host_volume + 1)}; "
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
            if not reason:  # the host is at the level cap, so no level was walked
                raise CapacityError(f"step {n + 1}: no level above host level {host}")
            raise CapacityError(f"step {n + 1}: {reason} unsatisfiable through level {MAX_SCHED_LEVEL}")

        self.steps[n] = StepPlan(
            n=n,
            host_level=host,
            host_box=host_box,
            cand=cand,
            e_lexrank=e_lexrank,
            code_count=code,
            code_exact=code_exact,
            approximate=approximate,
            link_center=link_center,
            tiles=self._tile_jrange(fine, box_next),
            thin_total=thin_total,
            net=net,
            radix=radix,
        )
        self.levels[n + 1] = LevelPlan(n + 1, m, box_next, vol_m, target, periods)

    @staticmethod
    def _tile_jrange(fine: LevelPlan, outer: Box) -> Box:
        """The box of indices j of the level-n tiles inside a coarser level's
        tile; each schedule step adds multiples of q_n to both ends, so the
        divisions are exact."""
        return Box(((o - f) // q for o, f, q in zip(outer.lows, fine.box.lows, fine.periods)),
                   ((o - f) // q for o, f, q in zip(outer.highs, fine.box.highs, fine.periods)))

    # -- code-block ordering (identity tile first, then lexicographic) ------

    @staticmethod
    def _cand_at_raw(rank: int, cand: Box, e_lexrank: int) -> tuple:
        if rank == 0:
            return (0,) * cand.rank
        return cand.cell_at(rank - 1 if rank - 1 < e_lexrank else rank)

    def _cand_at(self, step: StepPlan, rank: int) -> Element:
        j = self._cand_at_raw(rank, step.cand, step.e_lexrank)
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

    def with_one_walk(self) -> "Construction":
        """A view of this plan whose evaluations all go through one tile
        walk, so that pieces, templates and net points computed by one call
        are reused by the next.  The plan itself is shared and untouched;
        the walk's memory is held by the view and freed with it, so a view
        should live for one batch of evaluations (``run_verification``
        makes one per call).  The walk's lists are memoized: callers must
        not mutate what the view returns."""
        view = copy.copy(self)
        view._walk = _TileWalk(self)
        return view

    def _tile_walk(self) -> "_TileWalk":
        return self._walk or _TileWalk(self)

    def window(self, box: Box, kind: str = "w") -> list:
        """Evaluate a box; returns [(g, value)] in ``Box.cells()`` order.

        ``kind`` "w" gives the stabilized symbols (never a star), anything
        else cube points (hashes sent to the basepoint), from one tile walk
        (``window_values``), which raises a ``DepthError`` for the first
        undetermined cell.
        """
        return list(zip(box.cells(), self.window_values(box, kind)))

    def window_values(self, box: Box, kind: str = "w") -> list:
        """The values of ``window(box, kind)`` alone, in ``Box.cells()``
        order, from one tile walk; no cell tuples are built.  Raises the
        same ``DepthError`` for the first undetermined cell."""
        codes, palette = self._walk_box(box)
        if 0 in codes:
            raise self._undetermined_in(box, codes)
        if kind != "w":  # the basepoint at code 1, in a copy of the palette
            palette = [STAR, self.params.cube.basepoint, *palette[2:]]
        return [palette[c] for c in codes]

    def _walk_box(self, box: Box) -> tuple:
        """V_top on a box as ``(codes, palette)``: one palette code per cell
        in ``Box.cells()`` order (``_TileWalk.palette``), code 0 (STAR) at
        every cell the planned depth leaves undetermined.

        Inside the level-n tile (n <= depth) the top level word is the coded
        word of step n, reached through code tile 0 at every level above, so
        a box inside such a tile is walked from the smallest one, as that
        coded word; any other box is laid from copies of the top level word.
        """
        if box.rank != self.group.rank:
            raise ValueError("element rank mismatch")
        box.guard_cells()
        walk = self._tile_walk()
        for n in range(1, self.params.depth + 1):
            if self.levels[n].box.contains_box(box):
                return walk._coded(self.steps[n], (n, box.lows, box.highs), 0), walk.palette
        return walk.lay(self.params.depth + 1, box.lows, box.highs, False, None)[0], walk.palette

    def _undetermined_in(self, box: Box, codes: list) -> DepthError:
        """The DepthError for the first STAR (code 0) of ``_walk_box(box)``;
        its cell comes from its index, so no cell is built before the error."""
        g = box.cell_at(codes.index(0))
        # str(g) would refuse coordinates past the int->str digit limit
        coords = ", ".join(map(decimal_text, g)) + ("," if len(g) == 1 else "")
        return DepthError(f"value at ({coords}) is not determined at depth {self.params.depth}")

    def level_values(self, n: int, box: Box) -> list:
        """V_n on a box inside the level-n tile, in ``Box.cells()`` order,
        from one tile walk."""
        codes, palette = self.level_codes(n, box)
        return [palette[c] for c in codes]

    def level_codes(self, n: int, box: Box) -> tuple:
        """``level_values(n, box)`` as the walk's ``(codes, palette)``; code 0 is STAR."""
        if not 1 <= n <= self.params.depth + 1:
            raise DepthError(f"level {n} not planned")
        if not self.levels[n].box.contains_box(box):
            raise ValueError(f"{box} outside the level-{n} tile")
        box.guard_cells()
        walk = self._tile_walk()
        return walk.values(n, box.lows, box.highs, False)[0], walk.palette

    def star_positions(self, n: int) -> list:
        """Stars of V_n in canonical rank order (walks the whole tile)."""
        box = self.levels[n].box
        if box.volume > MATERIALIZE_GUARD:
            raise SizeGuardError(f"level-{n} tile too large to scan")
        codes, ranks = self._tile_walk().values(n, box.lows, box.highs, True)
        stars = sorted((r, g) for g, v, r in zip(box.cells(), codes, ranks) if v == 0)
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

    def realization_decode(self, n: int, assignment: Iterable) -> Element:
        """Center of the code tile realizing a star assignment at level n.

        ``assignment`` lists one net point per star of V_n in canonical star
        order; the inverse positional code gives the tile index, and a walk
        of that code tile confirms it.  A level-n tile past MATERIALIZE_GUARD
        cells raises SizeGuardError before any walk.
        """
        if n not in self.steps:
            raise DepthError(f"step {n + 1} not planned")
        step = self.steps[n]
        lvl = self.levels[n]
        assignment = [tuple(Fraction(c) for c in p) for p in assignment]
        if len(assignment) != lvl.stars:
            raise ValueError(f"assignment needs {decimal_text(lvl.stars)} entries")
        index = 0
        for p in assignment:
            index = index * step.radix + step.net.index_of(p)
        if index >= step.code_count:
            raise NotRealizedError(
                f"assignment index {decimal_text(index)} beyond the capped code block "
                f"({decimal_text(step.code_count)})"
            )
        center = self._cand_at(step, index)
        stars = self.star_positions(n)  # the size guard, before any walk
        # one walk of the code tile, read at the offset of each star
        coded = self.level_values(n + 1, lvl.box.translate(center))
        for rank, pos in enumerate(stars):
            got = coded[lvl.box.count_below(pos)]
            if got != assignment[rank]:
                raise DecodeError(f"decode confirmation failed at star {pos}")
        return center

    # -- literal materialization (the oracle) --------------------------------

    def materialize(self) -> MaterializedWords:
        """Execute the first two levels literally, on flat lists.

        This follows the step definitions directly, with none of the
        arithmetic shortcuts the evaluator uses, and serves as its oracle:
        every seed star is written into every level-1 tile, and every
        thinning-zone tile is visited in lexicographic order until the
        target is reached.  It never walks: the verify battery computes
        these words at most once and compares them with its one walk
        (``with_one_walk``), and both live for exactly one
        ``run_verification`` call.
        A cell g of the level-2 tile sits at offset ``box.count_below(g)`` of
        each list; the offset is linear in g, so a cell a + c of the tile
        centered at c sits at c's offset plus a's, and the tiles of one row
        (one leading tile index) sit q[-1] apart.
        """
        lvl1, lvl2, step1 = self.levels[1], self.levels[2], self.steps[1]
        if lvl2.volume > MATERIALIZE_GUARD:
            raise SizeGuardError(f"level-2 tile has {decimal_text(lvl2.volume)} cells, over the bound")
        box, q, tiles, cand = lvl2.box, lvl1.periods, step1.tiles, step1.cand
        # the offsets of the seed stars within a tile, and per leading tile
        # index, in lexicographic order, the offset of its row's first center
        origin = box.count_below(self.group.identity)
        deltas = [box.count_below(a) - origin for a in self.seed_stars]
        t0, across = tiles.lows[-1], tiles.highs[-1] - tiles.lows[-1] + 1
        leads = list(itertools.product(*[range(lo, hi + 1) for lo, hi in zip(tiles.lows[:-1], tiles.highs[:-1])]))
        rows = [box.count_below(tuple(map(operator.mul, lead + (t0,), q))) for lead in leads]
        # W_1: each seed star written into every tile of a row by one strided slice
        w1 = [HASH] * lvl2.volume
        row_of_stars = [STAR] * across
        for r in rows:
            for d in deltas:
                w1[r + d:r + d + across * q[-1]:q[-1]] = row_of_stars
        v11 = list(w1)
        points = [step1.net.point_at(d) for d in range(step1.radix)]
        for k in range(step1.code_count):
            b = box.count_below(self._cand_at(step1, k))
            for p, d in enumerate(deltas):
                v11[b + d] = points[self._digit(k, lvl1.stars - 1 - p, step1.radix)]
        total = v11.count(STAR)
        target = lvl2.stars
        floor1 = (self.rho.numerator * lvl1.volume) // self.rho.denominator
        # the thinning zone in lexicographic order: a row whose leading index
        # lies in the host (line_base's live flag) skips the host's tiles,
        # which are never thinned
        c0, c1 = cand.lows[-1] - t0, cand.highs[-1] - t0 + 1
        zone = (
            r + k * q[-1]
            for lead, r in zip(leads, rows)
            for k in (itertools.chain(range(c0), range(c1, across)) if cand.line_base(lead)[1] else range(across))
        )
        for b in zone:
            if total <= target:
                break
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
        return MaterializedWords(box, w1, v11, stable)

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
                    "next_level": self.levels[n + 1].sched_level,
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
            "mode": "exact" if self.params.cap is None else "capped",
            "cap": self.params.cap,
            "approximate": self.approximate,
            "seed_stars": [list(a) for a in self.seed_stars],
            "levels": levels,
            "steps": steps,
        }


class _TileWalk:
    """One tile-by-tile evaluation of a window, level by level.

    ``values(n, lows, highs, ranks)`` gives the level word V_n on a box in
    level-n tile coordinates, row-major, as codes into the walk's
    ``palette`` (0 is STAR, 1 is HASH, and each net point gets the next code
    once per walk, so at most 2 + the sum of the net sizes), and with
    ``ranks`` also each cell's star rank (``meandim.oracles.stars_below``).
    The level-(n-1) tiles that meet the box come in runs of one class along
    the last axis (``_runs``), each laid down row by row by repeating one
    piece of V_(n-1).  A thinned tile (one of the first ``thin_total`` of the
    thinning zone) lays the piece with its first star turned to a hash, and
    a code tile patches the digit-0 template of its piece at its non-zero
    digits.  A piece without a star is its own digit-0 template, the
    memoized list itself, so a window read through code tile 0 where the
    stars are already resolved is neither copied nor ranked.  The memos,
    templates and palette belong to the walk, not the construction.  A walk
    lives for one evaluation call, except the verify battery's:
    ``with_one_walk`` gives it to a view that lives for exactly one
    ``run_verification`` call, so its memos are bounded by the battery's
    tiles.  The lists it returns are memoized and must not be mutated.
    """

    def __init__(self, cfg: Construction):
        self.cfg = cfg
        self.memo: dict = {}  # (n, lows, highs, thinned) -> (codes, ranks or None)
        self.templates: dict = {}  # (n, lows, highs) -> [digit-0 codes, star index by rank]
        self.palette: list = [STAR, HASH]  # code -> value
        self.points: dict = {}  # (step, digit) -> palette code of the net point

    def _point(self, step: StepPlan, d: int) -> int:
        """The palette code of net point d of a step's net, added to the
        palette the first time the walk needs it."""
        key = (step.n, d)
        code = self.points.get(key)
        if code is None:
            code = self.points[key] = len(self.palette)
            self.palette.append(step.net.point_at(d))
        return code

    def values(self, n: int, lows: tuple, highs: tuple, ranks: bool, thinned: bool = False) -> tuple:
        """With ``thinned``, V_n with its first star turned to a hash, and
        each cell's rank among the stars left (a thinned tile's piece)."""
        key = (n, lows, highs, thinned)
        hit = self.memo.get(key)
        if hit is not None and (hit[1] is not None or not ranks):
            return hit
        tile = self.cfg.levels[n].box
        whole = None if ranks or thinned else self.memo.get((n, tile.lows, tile.highs, False))
        if whole is not None:  # the box's rows, sliced from the walked tile
            vals, w = [], highs[-1] - lows[-1] + 1
            for i in self._row_starts(tile, lows, highs):
                vals += whole[0][i:i + w]
            out = vals, None
        elif thinned:
            vals, sub = self.values(n, lows, highs, True)
            out = ([1 if v == 0 and p == 0 else v for v, p in zip(vals, sub)],
                   [p - 1 if p else 0 for p in sub])
        elif n == 1:
            out = self._seed_word(lows, highs)
        else:
            out = self.lay(n - 1, lows, highs, ranks, self.cfg.steps[n - 1])
        self.memo[key] = out
        return out

    @staticmethod
    def _row_starts(tile: Box, lows: tuple, highs: tuple):
        """Index in ``tile.cells()`` of the first cell of each row of a box inside it."""
        for lead in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows[:-1], highs[:-1]))):
            yield tile.count_below(lead + (lows[-1],))

    def _seed_word(self, lows: tuple, highs: tuple) -> tuple:
        """V_1 and its star ranks: the seed stars are the first cells of
        the level-1 tile in lexicographic order, so a cell's lexicographic
        index is its rank until the stars run out."""
        box, stars = self.cfg.levels[1].box, self.cfg.levels[1].stars
        width = highs[-1] - lows[-1] + 1
        vals, rks = [], []
        for start in self._row_starts(box, lows, highs):
            row = range(start, start + width)
            vals += [0 if i < stars else 1 for i in row]
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
        bands = list(itertools.product(*lead_axes))
        # in a values-only walk, a band with an earlier band's piece bounds and runs copies it
        laid = {} if not ranks and len(bands) > 1 else None  # (bounds, runs) -> span of vals
        for band in bands:
            lead, plows, phighs = (tuple(t) for t in zip(*band)) if band else ((), (), ())
            runs = list(self._runs(step, lead, last[0][0], last[-1][0]))
            if laid is not None:
                kind = (plows, phighs, tuple(run[:4] for run in runs))
                if kind in laid:
                    vals += vals[laid[kind]]
                    continue
                start = len(vals)
            nrows = math.prod(b - a + 1 for _, a, b in band)
            # a band of one row (always on Z) goes straight to the output
            rows = [vals] if nrows == 1 else [[] for _ in range(nrows)]
            rank_rows = [rks] if nrows == 1 else [[] for _ in rows]
            for s, e, code, thinned, off in runs:
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
            if laid is not None:
                laid[kind] = slice(start, len(vals))
        return vals, rks if ranks else None

    def _runs(self, step: Optional[StepPlan], lead: tuple, ja: int, jb: int):
        """Tiles ja..jb of a band in runs [s, e) of one class: (s, e, code
        index or None, thinned, rank offset of tile s).

        A class changes only at the boundary pieces, the host edges, the end
        of the code block, the identity tile and the thinning cut (thinning
        rank ``thin_total``, before or after the host); the band's
        lexicographic line terms (``Box.line_base``) place those cuts without
        visiting the tiles between them.
        """
        cuts = {ja, ja + 1, jb, jb + 1}
        if step is not None:
            cfg, stars = self.cfg, self.cfg.levels[step.n].stars
            t_base, _ = step.tiles.line_base(lead)
            c_base, live = step.cand.line_base(lead)
            t0, c0, c1, le = step.tiles.lows[-1], step.cand.lows[-1], step.cand.highs[-1] + 1, step.e_lexrank
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
        the net point of digit radix**(stars - 1 - p) of the code index.

        A piece without a star is its own digit-0 template: the walk's
        memoized list of V_n, uncopied, with an empty star index, so no code
        adds a net point to it or ranks its cells."""
        template = self.templates.get(key)
        if template is None:
            vals, _ = self.values(*key, False)
            if 0 in vals:
                zero = self._point(step, 0)
                template = [[zero if v == 0 else v for v in vals], None]
            else:
                template = [vals, {}]
            self.templates[key] = template
        out, p = template[0], self.cfg.levels[step.n].stars - 1
        while code:
            code, d = divmod(code, step.radix)
            if d:
                if template[1] is None:  # built only once a non-zero digit needs it
                    vals, sub = self.values(*key, True)
                    template[1] = {r: i for i, (v, r) in enumerate(zip(vals, sub)) if v == 0}
                i = template[1].get(p)
                if i is not None:
                    out = list(out) if out is template[0] else out
                    out[i] = self._point(step, d)
            p -= 1
        return out
