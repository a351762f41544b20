"""Generators of nested interval/box tiling schedules.

A schedule produces one single-shape grid tiling per level.  Level n of a
Z-schedule tiles by S_n = [-a_n, b_n] with period q_n = a_n + b_n + 1 and
centers q_n Z.  Extension rules enforce, by construction:

* q_n divides q_{n+1} and a_{n+1} = a_n (mod q_n), so consecutive levels are
  congruent (each coarse tile is a union of fine tiles) and the common
  refinement is the same for all tiles, i.e. the sequence is primely
  congruent;
* S_n is contained in S_{n+1} and, for the centered balance rule, both ends
  grow without bound, so the levels exhaust the group;
* the shape itself is a tile at every level (center 0).

Past its prefix a growth rule repeats one multiplier m, so from the last
prefix level p on, q_n = q_p * m^(n-p) and the ends a_n, b_n are geometric
sums: any level costs one big-int power per axis, however deep.  For the
same reason the first level holding a given volume is found in closed form
(``first_level_holding``).  Each base keeps its highest power, which a
deeper level extends, so a plan raises each base once.

Z^2 schedules are axis products of Z schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConfigError, ScheduleError
from .groups import Box, LatticeGroup, decimal_text, fraction_text
from .tilings import CheckResult, GridTiling

BALANCES = ("centered", "left", "right")
# deepest level the level searches look at; every multiplier is >= 2, so each
# side at least doubles per level and real searches end long before it
MAX_SEARCH_LEVEL = 64


@dataclass(frozen=True)
class AxisRule:
    """Seed interval [-seed_a, seed_b] and per-level period multipliers."""

    seed_a: int
    seed_b: int
    growth: tuple  # Fractions; the last entry repeats forever

    @staticmethod
    def make(seed_a: int, seed_b: int, growth) -> "AxisRule":
        if seed_a < 0 or seed_b < 0 or seed_a + seed_b < 1:
            raise ScheduleError("seed interval must contain the identity and one more cell")
        if isinstance(growth, (int, Fraction, float, str)):
            growth = (growth,)
        growth = tuple(Fraction(g) for g in growth)
        if not growth:
            raise ScheduleError("growth rule must give at least one multiplier")
        return AxisRule(seed_a, seed_b, growth)

    def multiplier(self, level: int) -> Fraction:
        i = min(level - 1, len(self.growth) - 1)
        return self.growth[i]


class TilingSchedule:
    """Hierarchy of grid tilings, one per level (1-based), computed on demand."""

    def __init__(self, group: LatticeGroup, rules: Sequence[AxisRule], balance: str = "centered"):
        if len(rules) != group.rank:
            raise ScheduleError("one axis rule per group rank required")
        if balance not in BALANCES:
            raise ConfigError(f"field 'balance': {balance!r} is not one of {', '.join(BALANCES)}")
        self.group = group
        self.rules = tuple(rules)
        self.balance = balance
        # levels 1..len(growth) are built step by step, per axis as (a_n, b_n);
        # deeper levels follow from the last of them in closed form
        self._prefix_len = max(len(r.growth) for r in self.rules)
        self._prefix = [[(r.seed_a, r.seed_b)] for r in self.rules]
        self._top = 1  # deepest level asked for
        self._levels = {}  # level -> (box, periods), for the levels asked for
        self._volumes = {}  # level -> volume, for the levels asked for or found by the level search
        self._powers = {}  # base -> (exponent, base**exponent), the highest power of it computed

    def __repr__(self) -> str:
        return f"TilingSchedule({self.group}, levels={self.levels_built}, balance={self.balance})"

    @property
    def levels_built(self) -> int:
        return self._top

    def _step(self, ax: int, a: int, b: int, lvl: int) -> tuple:
        """(a, b) of level lvl + 1 on axis ax from those of level lvl; checks the multiplier."""
        q = a + b + 1
        m = self.rules[ax].multiplier(lvl)
        # q * m is an integer multiple of q exactly when m is an integer
        if m.denominator != 1:
            raise ScheduleError(
                f"level {lvl + 1} axis {ax}: period {fraction_text(q * m)} "
                f"is not an integer multiple of {decimal_text(q)}"
            )
        if m < 2:
            raise ScheduleError(f"level {lvl + 1} axis {ax}: multiplier must be >= 2")
        m = int(m)
        # j of the m - 1 new blocks go left; centered even multipliers put
        # the extra block left at odd levels and right at even ones
        if self.balance == "left":
            j = m - 1
        elif self.balance == "right":
            j = 0
        else:
            j = (m - 1) // 2 + (lvl % 2 if m % 2 == 0 else 0)
        return a + j * q, b + (m - 1 - j) * q

    def ensure(self, n: int) -> None:
        """Make level n available; each multiplier is checked at the first
        level that uses it, so level len(growth) + 1 checks them all."""
        if n < 1:
            raise ScheduleError("levels are 1-based")
        if n <= self._top:
            return
        p = self._prefix_len
        for lvl in range(self._top, min(n, p + 1)):
            ends = [self._step(ax, *self._prefix[ax][lvl - 1], lvl)
                    for ax in range(self.group.rank)]
            if lvl < p:  # the step to level p + 1 only checks the repeated multiplier
                for ax, e in enumerate(ends):
                    self._prefix[ax].append(e)
            self._top = lvl + 1
        self._top = n

    def _power(self, base: int, e: int) -> int:
        """base**e; at or above the base's highest power computed so far,
        that power is extended to e and kept in its place."""
        top, value = self._powers.get(base, (0, 1))
        if e < top:
            return base**e
        value *= base ** (e - top)
        self._powers[base] = e, value
        return value

    def _ends(self, ax: int, n: int) -> tuple:
        """(a_n, b_n) on axis ax; level n must be ensured."""
        p = self._prefix_len
        a, b = self._prefix[ax][min(n, p) - 1]
        if n <= p:
            return a, b
        q = a + b + 1
        m = int(self.rules[ax].growth[-1])
        k = n - p
        mk = self._power(m, k)
        g = q * (mk - 1) // (m - 1)  # q_p + q_{p+1} + ... + q_{n-1}
        # the steps from level p on add the blocks _step would, each step's
        # q_L = q_p * m^(L-p) summed as a geometric series
        if self.balance == "left":
            return a + (m - 1) * g, b
        if self.balance == "right":
            return a, b + (m - 1) * g
        half = (m - 1) // 2 * g
        if m % 2 == 1:
            return a + half, b + half
        # even m: one more block on the left at odd levels, on the right at
        # even ones; the odd levels L = p + i have i = s, s + 2, ... < k, so
        # the left gets q_p * (m^s + m^(s+2) + ...) = q_p * (m^t - m^s) / (m^2 - 1)
        # with t the first exponent >= k of the same parity as s
        s = (p + 1) % 2
        m_t = mk * m if (k - s) % 2 else mk
        left = q * (m_t - m**s) // (m * m - 1)
        return a + half + left, b + half + g - left

    def _shape(self, n: int) -> tuple:
        """Per axis (a_n, b_n), and level n's periods; level n must be ensured."""
        ends = [self._ends(ax, n) for ax in range(self.group.rank)]
        return ends, tuple(a + b + 1 for a, b in ends)

    def _level(self, n: int) -> tuple:
        got = self._levels.get(n)
        if got is None:
            self.ensure(n)
            ends, periods = self._shape(n)
            box = Box(tuple(-a for a, _ in ends), tuple(b for _, b in ends))
            got = self._levels[n] = (box, periods)
        return got

    def level_box(self, n: int) -> Box:
        return self._level(n)[0]

    def periods(self, n: int) -> tuple:
        return self._level(n)[1]

    def volume(self, n: int) -> int:
        vol = self._volumes.get(n)
        if vol is None:
            vol = self._volumes[n] = math.prod(self.periods(n))
        return vol

    # -- level search ------------------------------------------------------

    def first_level_holding(self, need: int, start: int = 1) -> int:
        """First level n >= start whose volume is at least need.

        The growth prefix, levels up to p = len(growth), is read level by
        level.  Past it the volume is volume(p) * M**(n - p), M the product
        of the repeated multipliers, so n - p is the least t with M**t >=
        ceil(need / volume(p)).  The bit length of M**k bounds log2 M from
        above and so gives a t no larger; k grows with the bits of need over
        those of M squared, which keeps that t a few levels short, and one
        multiplication by M per level makes up the rest.  Only the prefix
        levels read are made available (levels_built).
        """
        p = self._prefix_len
        for n in range(start, p + 1):
            self.ensure(n)  # checks the multiplier level n is the first to use
            if math.prod(self._shape(n)[1]) >= need:
                return n
        self.ensure(p + 1)  # checks the repeated multipliers
        base = math.prod(self._shape(p)[1])
        big_m = math.prod(int(r.growth[-1]) for r in self.rules)
        ratio = -(-need // base)
        k = ratio.bit_length() // big_m.bit_length() ** 2 + 1
        t = max((ratio.bit_length() - 1) * k // (big_m**k).bit_length(), start - p)
        power = self._power(big_m, t)
        while power < ratio:  # level p + t holds need once this loop ends
            power *= big_m
            t += 1
        self._volumes[p + t] = base * power  # one short product, where volume(p + t) multiplies two long sides
        return p + t

    def materialize_level(self, n: int) -> GridTiling:
        box = self.level_box(n)
        return GridTiling(self.group, box.lows, box.highs)

    # -- verification ------------------------------------------------------

    def first_invariant_level(
        self, r: int, eps, max_level: int = MAX_SEARCH_LEVEL
    ) -> Optional[int]:
        """First level whose box is (ball(r), eps)-invariant, or None if no
        level through max_level is.  Extends the schedule as it searches and
        counts boundaries in closed form, so no box is materialized."""
        eps = Fraction(eps)
        for n in range(1, max_level + 1):
            box = self.level_box(n)
            if Fraction(box.ball_boundary_size(r), box.volume) < eps:
                return n
        return None

    def verify_nesting(self, N: int, max_level: int = MAX_SEARCH_LEVEL) -> CheckResult:
        """Check that g_1..g_N are covered by some level.  S_n is inside
        S_{n+1} by construction: each step adds j*q_n to a_n and
        (m-1-j)*q_n to b_n with 0 <= j <= m-1.  So the worst element's
        level is the first whose box holds the bounding box of g_1..g_N,
        and an element no level covers lies outside level max_level."""
        it = self.group.spiral()
        gs = [next(it) for _ in range(N)]
        worst = 0
        if gs:
            hull = Box(map(min, zip(*gs)), map(max, zip(*gs)))
            worst = next((n for n in range(1, max_level + 1) if self.level_box(n).contains_box(hull)), None)
        if worst is None:
            i, g = next((i, g) for i, g in enumerate(gs, 1) if max_level < 1 or g not in self.level_box(max_level))
            return CheckResult(False, f"g_{i} = {g} uncovered through level {max_level}", [g])
        return CheckResult(True, f"g_1..g_{N} covered by level {worst}", [worst])

    # -- serialization -----------------------------------------------------

    def serialize(self, levels: Optional[int] = None) -> str:
        n = levels or self.levels_built
        self.ensure(n)
        lines = [
            "# meandim tiling schedule",
            f"group = {self.group.name}",
            f"balance = {self.balance}",
            f"levels = {n}",
        ]
        for ax, rule in enumerate(self.rules):
            lines.append(f"axis{ax}.seed_a = {rule.seed_a}")
            lines.append(f"axis{ax}.seed_b = {rule.seed_b}")
            lines.append(f"axis{ax}.growth = " + " ".join(str(g) for g in rule.growth))
            a, b = self._arrays(ax, n)
            lines.append(f"axis{ax}.a = " + " ".join(a))
            lines.append(f"axis{ax}.b = " + " ".join(b))
        return "\n".join(lines) + "\n"

    def _arrays(self, ax: int, n: int) -> tuple:
        """a_1..a_n and b_1..b_n of axis ax as decimal text (level n ensured);
        not memoized, a written schedule can be thousands of levels deep."""
        ends = [self._ends(ax, k) for k in range(1, n + 1)]
        return [decimal_text(a) for a, _ in ends], [decimal_text(b) for _, b in ends]
