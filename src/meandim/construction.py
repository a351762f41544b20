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

import bisect
import copy
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
# The deepest schedule level a plan may use as a host or a next level.
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
STAR_TOKEN, HASH_TOKEN = "?", HASH.label  # the walk's tokens of the symbols; a window prints '?' at a star


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
    periods: tuple  # q_n, the level-n tile periods
    tiles: Box  # j of the level-n tiles inside the level-(n+1) tile
    thin_total: int  # the first thin_total thinning-zone tiles shed their first star
    net: Net
    radix: int

    @cached_property
    def link_center(self) -> Element:
        """Center of the link tile, the candidate after the code block; its index
        has as many bits as the code count, so it is divided out on first read."""
        return Construction._cand_at(self, self.code_count)


class Construction:
    """A fully planned construction with a lazy tile-walk evaluator.

    Plans are immutable after construction (a step derives its link center,
    and a plan its ``tile_rows``, on first read) and evaluation keeps no
    state: each evaluation call makes its own ``_TileWalk``, so instances
    are safe to share across threads and hold no memory that grows with what
    they have evaluated.  The one exception is the view ``with_one_walk``
    makes for one multi-box call (the verify battery, a decode): a copy
    whose evaluations share one walk and which lives for exactly that call.
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

        # Next level: the first level above the host that passes the anchor,
        # star-mass and thinning-capacity tests.  The anchor is the link center
        # moved by g_n * link_shift(n - 1).
        shift = self.group.mul(self.group.enumerate_element(n), self.link_shift(n - 1))
        s = fine.stars
        d, over = s * den - num * fine.volume, n_cand - code * s - 1
        # The host zone is never thinned, so its surplus stars over rho must
        # fit under the sandwich ceiling no matter how large the next level
        # is; when rho*|S_n| is an integer (d == den) this bound does not
        # improve with the level, so an oversized host is hopeless up front.
        if d == den and over > 0:
            raise CapacityError(
                f"step {n + 1}: the {decimal_text(n_cand - code)} uncoded host tiles hold "
                f"{decimal_text((n_cand - code) * s)} stars, over the sandwich ceiling "
                f"{fraction_text(rho * host_volume + 1)}; "
                "the schedule jumps too coarsely past the code block"
            )
        top = MAX_SCHED_LEVEL
        if host >= top:
            raise CapacityError(f"step {n + 1}: no level above host level {host}")
        # Each test, once passed, holds above.  With K = vol_m / |S_n| tiles in level
        # m, n_out = K - n_cand: star mass, s * n_out * den > num * vol_m, holds iff
        # K * d > s * n_cand * den; capacity, thin_total <= n_out, iff K * (den - d)
        # >= den * over.  The sandwich puts d in (0, den]; d == den, over > 0 failed
        # above; d <= 0 (a level planted at density rho) never passes star mass.
        first = sched.first_level_holding
        mass = top + 1 if d <= 0 else first((s * n_cand * den // d + 1) * fine.volume, host + 1)
        capacity = host + 1 if over <= 0 else first(-(-den * over // (den - d)) * fine.volume, host + 1)
        # The anchor is read at the level those two give; the first level holding
        # it is searched for only if that one misses it or lies past the cap, or
        # capacity may trail by over 256 levels.  The link tile lies in the host,
        # so a level holding the host moved by the shift holds the anchor: the
        # link center is divided out here only when that test fails.
        m = max(mass, capacity)
        far = m > top or capacity > mass + 256
        if far or not sched.level_box(m).contains_box(host_box.translate(shift)):
            anchor = self.group.mul(shift, tuple(map(operator.mul, self._cand_at_raw(code, cand, e_lexrank), q)))
            if far or anchor not in sched.level_box(m):
                held = bisect.bisect_left(range(top + 1), True, host + 1, key=lambda k: anchor in sched.level_box(k))
                low = max(held, mass)
                if low + 256 <= top and capacity > low + 256:
                    raise CapacityError(f"step {n + 1}: thinning capacity keeps failing past level {low + 256}")
                m = max(low, capacity)
                if m > top:
                    reason = ("anchor containment" if held > top
                              else "outside star mass" if mass > top else "thinning capacity")
                    raise CapacityError(f"step {n + 1}: {reason} unsatisfiable through level {top}")
        box_next, periods, vol_m = sched.level_box(m), sched.periods(m), sched.volume(m)
        target = self._target_stars(vol_m)
        # one star per thinned tile; star mass makes s * n_out >= target, so thin_total >= 0
        thin_total = (vol_m // fine.volume - code) * s - target

        self.steps[n] = StepPlan(
            n=n,
            host_level=host,
            host_box=host_box,
            cand=cand,
            e_lexrank=e_lexrank,
            code_count=code,
            code_exact=code_exact,
            approximate=approximate,
            periods=q,
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

    @staticmethod
    def _cand_at(step: StepPlan, rank: int) -> Element:
        j = Construction._cand_at_raw(rank, step.cand, step.e_lexrank)
        return tuple(map(operator.mul, j, step.periods))

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
        are reused by the next; a view is returned as it is.  The plan
        itself is shared and untouched; the walk's memory is held by the
        view and freed with it, so a view lives for one call that reads
        several boxes.  The walk's lists are memoized: callers must not
        mutate what the view returns."""
        if self._walk is not None:
            return self
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
        codes, palette = self.window_codes(box)
        if kind != "w":  # the basepoint at the hash token, in a copy of the palette
            palette = {**palette, HASH_TOKEN: self.params.cube.basepoint}
        return [palette[c] for c in codes]

    def window_codes(self, box: Box) -> tuple:
        """``window_values(box)`` as the walk's ``(codes, palette)``, with the same ``DepthError``."""
        codes, palette = self._walk_box(box)
        if STAR_TOKEN in codes:
            raise self._undetermined_in(box, codes)
        return codes, palette

    def _walk_box(self, box: Box) -> tuple:
        """V_top on a box as ``(codes, palette)``: one token per cell in
        ``Box.cells()`` order (``_TileWalk``), ``STAR_TOKEN`` at every cell
        the planned depth leaves undetermined.

        Inside the level-n tile (n <= depth) the top level word is the coded
        word of step n, reached through code tile 0 at every level above, so
        a box inside such a tile is walked from the smallest one, as that
        coded word, sparing a lay per level above (2-3% of benchmark wall
        time); any other box is laid from copies of the top level word.
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
        """The DepthError for the first ``STAR_TOKEN`` of ``_walk_box(box)``;
        its cell comes from its index, so no cell is built before the error."""
        g = box.cell_at(codes.index(STAR_TOKEN))
        # str(g) would refuse coordinates past the int->str digit limit
        coords = ", ".join(map(decimal_text, g)) + ("," if len(g) == 1 else "")
        return DepthError(f"value at ({coords}) is not determined at depth {self.params.depth}")

    def level_values(self, n: int, box: Box) -> list:
        """V_n on a box inside the level-n tile, in ``Box.cells()`` order,
        from one tile walk."""
        codes, palette = self.level_codes(n, box)
        return [palette[c] for c in codes]

    def level_codes(self, n: int, box: Box) -> tuple:
        """``level_values(n, box)`` as the walk's ``(codes, palette)``, a star at ``STAR_TOKEN``."""
        if not 1 <= n <= self.params.depth + 1:
            raise DepthError(f"level {n} not planned")
        if not self.levels[n].box.contains_box(box):
            raise ValueError(f"{box} outside the level-{n} tile")
        box.guard_cells()
        walk = self._tile_walk()
        return walk.values(n, box.lows, box.highs, False)[0], walk.palette

    def star_positions(self, n: int) -> list:
        """Stars of V_n in canonical rank order, read from the star index of
        a walk of the whole tile."""
        if not 1 <= n <= self.params.depth + 1:
            raise DepthError(f"level {n} not planned")
        box = self.levels[n].box
        if box.volume > MATERIALIZE_GUARD:
            raise SizeGuardError(f"level-{n} tile too large to scan")
        cells, index = list(box.cells()), self._tile_walk().values(n, box.lows, box.highs, True)[1]
        return [cells[index[r]] for r in range(len(index))]

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
        of that code tile confirms it at each star's cell, read from the
        walk's star index of the level-n tile, ranked once per walk.  A
        level-n tile past MATERIALIZE_GUARD cells raises SizeGuardError
        before any walk.
        """
        if n not in self.steps:
            raise DepthError(f"step {n + 1} not planned")
        step = self.steps[n]
        lvl = self.levels[n]
        assignment = [tuple(c if isinstance(c, Fraction) else Fraction(c) for c in p) for p in assignment]
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
        if lvl.volume > MATERIALIZE_GUARD:
            raise SizeGuardError(f"level-{n} tile too large to scan")
        center, view, box = self._cand_at(step, index), self.with_one_walk(), lvl.box
        at = view._walk.values(n, box.lows, box.highs, True)[1]
        codes, palette = view.level_codes(n + 1, box.translate(center))
        for r, want in enumerate(assignment):
            if palette[codes[at[r]]] != want:
                raise DecodeError(f"decode confirmation failed at star {box.cell_at(at[r])}")
        return center

    # -- literal materialization (the oracle) --------------------------------

    @cached_property
    def tile_rows(self) -> tuple:
        """The level-1 tiles of the level-2 tile as offsets into a flat list
        over the level-2 tile in ``Box.cells()`` order: ``(rows, across,
        offsets)``.  ``rows`` has one ``(lead, offset)`` per leading tile
        index in lexicographic order, ``offset`` being that of the row's
        first tile center; each row holds ``across`` tiles, q[-1] apart; and
        ``offsets`` holds each cell of a level-1 tile relative to its center,
        in ``Box.cells()`` order, so its first ``stars`` are the seed stars.
        The offset is linear in the cell, so a cell a + c of the tile
        centered at c sits at c's offset plus a's."""
        box, tiles, q = self.levels[2].box, self.steps[1].tiles, self.levels[1].periods
        origin = box.count_below(self.group.identity)
        offsets = [box.count_below(a) - origin for a in self.levels[1].box.cells()]
        t0 = tiles.lows[-1]
        leads = itertools.product(*[range(lo, hi + 1) for lo, hi in zip(tiles.lows[:-1], tiles.highs[:-1])])
        rows = [(lead, box.count_below(tuple(map(operator.mul, lead + (t0,), q)))) for lead in leads]
        return rows, tiles.highs[-1] - t0 + 1, offsets

    def materialize(self, labels: Optional[tuple] = None) -> list:
        """V_2, executed literally as a flat list in ``Box.cells()`` order
        over the level-2 tile, written in ``labels``: a star, a hash, then each
        net point of step 1 by digit; by default ``STAR``, ``HASH`` and the points.

        This follows the step definitions directly, with none of the
        arithmetic shortcuts the evaluator uses, and serves as its oracle:
        every seed star is written into every level-1 tile, the code block
        replaces the stars of its tiles, and every thinning-zone tile is
        visited in lexicographic order, each losing its first seed star,
        until the target is reached.  The stars are counted as they are
        written, not by a scan of the word: one per tile and seed star, less
        one for each code write that finds a star in its cell.  The host box
        of step 1 is never thinned, so the word on it is the coded word of
        step 1.  It never walks: the verify battery computes it at most
        once, in the codes of its one walk (``with_one_walk``), and both
        live for exactly one ``run_verification`` call.
        """
        lvl1, lvl2, step1 = self.levels[1], self.levels[2], self.steps[1]
        if lvl2.volume > MATERIALIZE_GUARD:
            raise SizeGuardError(f"level-2 tile has {decimal_text(lvl2.volume)} cells, over the bound")
        star, hash_, *points = labels or (STAR, HASH, *map(step1.net.point_at, range(step1.radix)))
        box, q, cand = lvl2.box, lvl1.periods[-1], step1.cand
        rows, across, offsets = self.tile_rows
        deltas = offsets[:lvl1.stars]
        # each seed star written into every tile of a row by one strided slice
        word = [hash_] * lvl2.volume
        row_of_stars = [star] * across
        for _, r in rows:
            for d in deltas:
                word[r + d:r + d + across * q:q] = row_of_stars
        total, target = len(rows) * across * len(deltas), lvl2.stars
        for k in range(step1.code_count):
            b = box.count_below(self._cand_at(step1, k))
            for p, d in enumerate(deltas):
                total -= word[b + d] is star
                word[b + d] = points[self._digit(k, lvl1.stars - 1 - p, step1.radix)]
        # the thinning zone in lexicographic order, one strided slice per
        # stretch of a row: a row whose leading index lies in the host
        # (line_base's live flag) skips the host's tiles, which are never
        # thinned; a thinning-zone tile holds every seed star
        t0 = step1.tiles.lows[-1]
        c0, c1 = cand.lows[-1] - t0, cand.highs[-1] - t0 + 1
        for lead, r in rows:
            for k0, k1 in ((0, c0), (c1, across)) if cand.line_base(lead)[1] else ((0, across),):
                k, b = max(min(k1 - k0, total - target), 0), r + k0 * q + deltas[0]
                word[b:b + k * q:q] = [hash_] * k
                total -= k
        if total != target:
            raise CapacityError("literal thinning could not reach the target")
        return word

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

    ``values(n, lows, highs, ranks)`` gives a box's record: V_n on the box
    in level-n tile coordinates, row-major, as tokens, and with ``ranks``
    also the box's star index: each star rank of V_n
    (``meandim.oracles.stars_below``) that the box holds, mapped to that
    star's cell index in the box.  The level-(n-1) tiles that meet the box
    come in runs of one class along the last axis (``_runs``), each laid
    down row by row by repeating one piece of V_(n-1); a box inside one
    tile is that piece, uncopied.  A thinned tile (one of the first
    ``thin_total`` of the thinning zone) lays the piece with its star of
    rank 0 turned to a hash, and a code tile patches the digit-0 template
    of its piece at its non-zero digits, from the walk's ``points`` table.
    A token is its value's printed text (``token``): ``STAR_TOKEN`` for
    STAR, ``HASH_TOKEN`` for HASH and ``render_value(point)`` for a net
    point; as ``render_value`` is injective, tokens are equal exactly when
    their values are.  The walk hands out one str object per token (its
    ``tokens``), so equal lists compare by identity, and its ``palette``
    maps each token back to its value.
    All the walk learns about a piece is in its one ``memo`` record: its
    codes, star index, digit-0 template and thinned copy, the last three
    ``None`` until needed.  A ranks walk of a piece laid values-only fills
    in the index and keeps the codes list, so the template and thinned copy
    stay valid.  An index ``{}`` means the piece holds no star: a word laid
    only from code tiles and pieces indexed ``{}`` gets it unscanned, as
    does a piece ``_coded`` scans and finds starless; any other word is
    scanned for a star.  A starless piece is its own digit-0 template, the
    memoized list itself, so a window read through code tile 0 is neither
    copied nor ranked.  The memo and palette belong to the walk, not the
    construction.  A walk lives for one evaluation call, or for the one
    multi-box call (the verify battery, a decode, a nesting or minimality
    check) whose view ``with_one_walk`` gives it, so its memo is bounded by
    that call's tiles.  The records, lists and star indexes it returns are
    memoized and must not be mutated.
    """

    def __init__(self, cfg: Construction):
        self.cfg = cfg
        # (n, lows, highs) -> [codes, star index, digit-0 template, codes with the star of rank 0 a hash]
        self.memo: dict = {}
        self.palette: dict = {STAR_TOKEN: STAR, HASH_TOKEN: HASH}  # token -> value
        self.tokens: dict = {}  # net point -> its token
        self.points: dict = {}  # step -> [token of each digit's net point, None until laid]

    def token(self, point: tuple) -> str:
        """The token of a net point, made and put in the palette the first
        time the walk needs it; a point of several steps' nets has one."""
        token = self.tokens.get(point)
        if token is None:
            token = self.tokens[point] = render_value(point)
            self.palette[token] = point
        return token

    def _point(self, step: StepPlan, d: int) -> str:
        """The token of net point d of a step's net, filed in the step's row of ``points``."""
        row = self._points(step)
        if row[d] is None:
            row[d] = self.token(step.net.point_at(d))
        return row[d]

    def _points(self, step: StepPlan) -> list:
        """The step's row of ``points``, made the first time the walk needs it."""
        row = self.points.get(step.n)
        if row is None:
            row = self.points[step.n] = [None] * step.radix
        return row

    def values(self, n: int, lows: tuple, highs: tuple, ranks: bool) -> list:
        key = (n, lows, highs)
        rec = self.memo.get(key)
        if rec is not None and (rec[1] is not None or not ranks):
            return rec
        tile = self.cfg.levels[n].box
        whole = None if ranks else self.memo.get((n, tile.lows, tile.highs))
        if whole is not None:  # the box's rows, sliced from the walked tile
            vals, index, w = [], None, highs[-1] - lows[-1] + 1
            for i in self._row_starts(tile, lows, highs):
                vals += whole[0][i:i + w]
        elif n == 1:
            vals, index = self._seed_word(lows, highs, ranks)
        else:
            vals, index = self.lay(n - 1, lows, highs, ranks, self.cfg.steps[n - 1])
        if rec is None:
            rec = self.memo[key] = [vals, index, None, None]
        else:  # ranked now: the codes list, and so its template and thinned copy, stay
            rec[1] = index
        return rec

    @staticmethod
    def _row_starts(tile: Box, lows: tuple, highs: tuple):
        """Index in ``tile.cells()`` of the first cell of each row of a box inside it."""
        for lead in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows[:-1], highs[:-1]))):
            yield tile.count_below(lead + (lows[-1],))

    def _seed_word(self, lows: tuple, highs: tuple, ranks: bool) -> tuple:
        """V_1 and, with ``ranks``, its star index: the seed stars are the
        first cells of the level-1 tile in lexicographic order, so a star's
        lexicographic index is its rank."""
        box, stars = self.cfg.levels[1].box, self.cfg.levels[1].stars
        width = highs[-1] - lows[-1] + 1
        vals, index = [], {} if ranks else None
        for start in self._row_starts(box, lows, highs):
            k = min(max(stars - start, 0), width)  # the row's seed stars
            if ranks:
                index.update(zip(range(start, start + k), range(len(vals), len(vals) + k)))
            vals += [STAR_TOKEN] * k + [HASH_TOKEN] * (width - k)
        return vals, index

    def lay(self, m: int, lows: tuple, highs: tuple, ranks: bool, step: Optional[StepPlan]) -> tuple:
        """Row-major cells of a box from the level-m tiles that meet it:
        V_(m+1) on a box of its tile when ``step`` is step m, else copies of
        V_m (a window's top level).  Each combination of leading-axis tile
        pieces is a band, written in one pass: each row appends that row of
        every run's piece, repeated over the run's tiles.  A ranks walk adds
        the stars of every tile that is not a code tile to the box's star
        index.  A band's line terms are worked out once, and a values-only
        walk copies a band whose piece bounds and runs, or off the host its
        thinning cut clamped to the band, repeat an earlier band's.  Off the
        host it also adds the run of like bands that follows in one list
        multiply: while the candidates' line term holds (up to the host's
        first leading index), each band's cut lies one row of tiles below
        the one before, so a band thinned whole or not thinned keeps its key
        for a run worked out in closed form.  A run starts past the first
        band and stops short of the last, either of which may be a partial
        piece; a ranks walk lays every band."""
        lvl = self.cfg.levels[m]
        *lead_axes, last = [  # per axis: (j, piece lo, piece hi), in tile coordinates
            [(j, max(lo - j * q, tlo), min(hi - j * q, thi)) for j in range((lo - tlo) // q, (hi - tlo) // q + 1)]
            for lo, hi, tlo, thi, q in zip(lows, highs, lvl.box.lows, lvl.box.highs, lvl.periods)
        ]
        ja, jb, width = last[0][0], last[-1][0], highs[-1] - lows[-1] + 1
        vals, index, clean = [], {} if ranks else None, True
        bands = list(itertools.product(*lead_axes))
        laid = {} if not ranks and len(bands) > 1 else None  # (bounds, cut or runs) -> span of vals
        pos = 0
        while pos < len(bands):
            band = bands[pos]
            lead, plows, phighs = (tuple(t) for t in zip(*band)) if band else ((), (), ())
            terms, live, cut = None, False, ja  # a window's top level: no host and no thinning
            if step is not None:  # the band's line terms, and its thinning cut before the host
                (t_base, _), (c_base, live) = step.tiles.line_base(lead), step.cand.line_base(lead)
                cut = step.thin_total + c_base - t_base + step.tiles.lows[-1]
                terms = t_base, c_base, live, cut
            runs, start, repeat = None, len(vals), 1
            if laid is not None:
                if not live:  # off the host, tile s is thinned exactly when s lies below the cut
                    kind = (plows, phighs, min(max(cut, ja), jb + 1))
                    if 0 < pos:  # the run of bands with this key, whole pieces short of the last band
                        repeat = len(bands) - 1 - pos
                        if step is not None:  # Z^2: c_base holds up to the host, so the cut falls a row a band
                            if lead[0] < step.cand.lows[0]:
                                repeat = min(repeat, step.cand.lows[0] - lead[0])
                            if cut > ja:  # thinned whole while the cut reaches jb + 1; cut inside, 0
                                row = step.tiles.highs[-1] - step.tiles.lows[-1] + 1
                                repeat = min(repeat, (cut - jb - 1) // row + 1)
                        repeat = max(repeat, 1)
                else:  # a band on the host is keyed by its runs
                    runs = list(self._runs(step, terms, ja, jb, ranks))
                    kind = (plows, phighs, tuple(run[:4] for run in runs))
                if kind in laid:
                    vals += vals[laid[kind]] * repeat
                    pos += repeat
                    continue
            parts, col = [], 0  # per run: (piece, row width, tiles); col, its first column in the box
            for s, e, code, thinned, off in runs or self._runs(step, terms, ja, jb, ranks):
                _, plo, phi = last[s - ja]
                key, w = (m, plows + (plo,), phighs + (phi,)), phi - plo + 1
                if code is not None:  # code tiles come one to a run, and hold no star
                    piece = self._coded(step, key, code)
                else:
                    rec = self.values(*key, ranks or thinned)
                    piece, sub = rec[0], rec[1]
                    clean = clean and sub == {}  # a thinned starless piece is the piece itself
                    if thinned:  # the piece with its star of rank 0 a hash, patched once per walk
                        if rec[3] is None:
                            first = sub.get(0)
                            rec[3] = piece if first is None else [*piece[:first], HASH_TOKEN, *piece[first + 1:]]
                        piece = rec[3]
                    if ranks:  # star p of tile t ranks off + t * gain + p - thinned; rank 0 is shed
                        at = [(p - thinned, start + i // w * width + col + i % w)
                              for p, i in sub.items() if p or not thinned]
                        gain, tiles = lvl.stars - thinned, range(e - s)
                        index.update(zip([off + t * gain + p for t in tiles for p, _ in at],
                                         [t * w + i for t in tiles for _, i in at]))
                parts.append((piece, w, e - s))
                col += (e - s) * w
            if len(bands) == len(parts) == e - s == 1:  # a box inside one tile is its piece, uncopied
                return piece, {} if clean else index
            for r in range(math.prod(b - a + 1 for _, a, b in band)):
                for piece, w, k in parts:
                    part = piece if len(piece) == w else piece[r * w:(r + 1) * w]
                    vals += part if k == 1 else part * k
            if laid is not None:
                laid[kind] = slice(start, len(vals))
                if repeat > 1:
                    vals += vals[start:] * (repeat - 1)
            pos += repeat
        return vals, {} if clean else index

    def _runs(self, step: Optional[StepPlan], terms: Optional[tuple], ja: int, jb: int, ranks: bool):
        """Tiles ja..jb of a band in runs [s, e) of one class: (s, e, code
        index or None, thinned, rank offset of tile s, 0 unless ``ranks``).

        A class changes only at the boundary pieces, the host edges, the end
        of the code block, the identity tile and the thinning cut (thinning
        rank ``thin_total``, before or after the host); the band's line terms
        from ``lay`` (``Box.line_base`` of the tiles and the candidates, and
        the cut) place those cuts without visiting the tiles between them.
        """
        cuts = {ja, ja + 1, jb, jb + 1}
        if step is not None:
            cfg, stars = self.cfg, self.cfg.levels[step.n].stars
            t_base, c_base, live, cut = terms
            t0, c0, c1, le = step.tiles.lows[-1], step.cand.lows[-1], step.cand.highs[-1] + 1, step.e_lexrank
            # the code tiles other than the identity rank below code_end in the host
            code_end = step.code_count - (le >= step.code_count)
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
            off = ((lc - cfg._coded_before(step, lc)) * stars + lt * stars - min(lt, step.thin_total)
                   if ranks else 0)
            if not (live and c0 <= s < c1):
                yield s, e, None, lt < step.thin_total, off
            elif lc == le or lc < code_end:
                for lr in range(lc, lc + e - s):  # the identity tile is code tile 0
                    yield s + lr - lc, s + lr - lc + 1, 0 if lr == le else lr + (lr < le), False, off
            else:
                yield s, e, None, False, off

    def _coded(self, step: StepPlan, key: tuple, code: int) -> list:
        """V_(n+1) on a piece of code tile ``code``, which holds no star: the
        star of rank p takes the net point (read from the step's row of
        ``points``) of digit radix**(stars - 1 - p) of the code index."""
        rec = self.memo.get(key) or self.values(*key, False)
        if rec[2] is None:
            if rec[1] != {} and STAR_TOKEN in rec[0]:
                zero = self._point(step, 0)
                rec[2] = [zero if v == STAR_TOKEN else v for v in rec[0]]
            else:
                rec[1], rec[2] = {}, rec[0]
        out, p = rec[2], self.cfg.levels[step.n].stars - 1
        points = self._points(step)
        while code:
            code, d = divmod(code, step.radix)
            if d:
                if rec[1] is None:  # ranked only once a non-zero digit needs it
                    self.values(*key, True)
                i = rec[1].get(p)
                if i is not None:
                    out = list(out) if out is rec[2] else out
                    out[i] = points[d] or self._point(step, d)
            p -= 1
        return out
