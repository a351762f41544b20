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

Z^2 schedules are axis products of Z schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ScheduleError
from .groups import Box, GROUPS, LatticeGroup, Z, decimal_text, is_invariant
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
    """Lazily extended hierarchy of grid tilings, one per level (1-based)."""

    def __init__(self, group: LatticeGroup, rules: Sequence[AxisRule], balance: str = "centered"):
        if len(rules) != group.rank:
            raise ScheduleError("one axis rule per group rank required")
        if balance not in BALANCES:
            raise ScheduleError(f"balance must be one of {BALANCES}")
        self.group = group
        self.rules = tuple(rules)
        self.balance = balance
        self._a = [[r.seed_a] for r in rules]
        self._b = [[r.seed_b] for r in rules]

    def __repr__(self) -> str:
        return f"TilingSchedule({self.group}, levels={self.levels_built}, balance={self.balance})"

    @property
    def levels_built(self) -> int:
        return len(self._a[0])

    def _left_blocks(self, m: int, level: int) -> int:
        if self.balance == "left":
            return m - 1
        if self.balance == "right":
            return 0
        # centered; for even multipliers alternate the heavier side per level
        if m % 2 == 1:
            return (m - 1) // 2
        return m // 2 - 1 + (level % 2)

    def ensure(self, n: int) -> None:
        if n < 1:
            raise ScheduleError("levels are 1-based")
        while self.levels_built < n:
            lvl = self.levels_built  # extending from this level to lvl+1
            for ax, rule in enumerate(self.rules):
                a, b = self._a[ax][-1], self._b[ax][-1]
                q = a + b + 1
                m_frac = rule.multiplier(lvl)
                next_q = q * m_frac
                if next_q.denominator != 1 or int(next_q) % q != 0:
                    raise ScheduleError(
                        f"level {lvl + 1} axis {ax}: period {float(next_q)} "
                        f"is not an integer multiple of {q}"
                    )
                m = int(m_frac)
                if m < 2:
                    raise ScheduleError(f"level {lvl + 1} axis {ax}: multiplier must be >= 2")
                j = self._left_blocks(m, lvl)
                self._a[ax].append(a + j * q)
                self._b[ax].append(b + (m - 1 - j) * q)

    def level_box(self, n: int) -> Box:
        self.ensure(n)
        return Box(
            tuple(-self._a[ax][n - 1] for ax in range(self.group.rank)),
            tuple(self._b[ax][n - 1] for ax in range(self.group.rank)),
        )

    def periods(self, n: int) -> tuple:
        self.ensure(n)
        return tuple(
            self._a[ax][n - 1] + self._b[ax][n - 1] + 1 for ax in range(self.group.rank)
        )

    def volume(self, n: int) -> int:
        v = 1
        for q in self.periods(n):
            v *= q
        return v

    def materialize_level(self, n: int) -> GridTiling:
        box = self.level_box(n)
        return GridTiling(self.group, box.lows, box.highs)

    # -- verification ------------------------------------------------------

    def verify_invariance_profile(self, K_list, eps_list) -> CheckResult:
        """Check that level k is (K_k, eps_k)-invariant for each k."""
        K_list = list(K_list)
        eps_list = list(eps_list)
        if len(K_list) != len(eps_list):
            raise ValueError("K_list and eps_list length mismatch")
        for k, (K, eps) in enumerate(zip(K_list, eps_list), start=1):
            if Fraction(eps) <= 0:
                # a boundary ratio is never strictly below zero
                return CheckResult(False, f"level {k}: eps = {eps} can never hold", [k])
            S = self.level_box(k).to_subset(self.group)
            if not is_invariant(S, K, eps):
                return CheckResult(False, f"level {k} is not ({K!r}, {eps})-invariant", [k])
        return CheckResult(True, f"levels 1..{len(K_list)} pass")

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
        """Check the S_n chain and that g_1..g_N are covered by some level."""
        self.ensure(min(max_level, 2))
        chain_to = min(max_level, max(self.levels_built, 8))
        for n in range(1, chain_to):
            if not self.level_box(n + 1).contains_box(self.level_box(n)):
                return CheckResult(False, f"level {n + 1} does not contain level {n}", [n])
        worst = 0
        it = self.group.spiral()
        for i in range(1, N + 1):
            g = next(it)
            level = None
            for n in range(1, max_level + 1):
                if g in self.level_box(n):
                    level = n
                    break
            if level is None:
                return CheckResult(False, f"g_{i} = {g} uncovered through level {max_level}", [g])
            worst = max(worst, level)
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
            lines.append(f"axis{ax}.a = " + " ".join(map(decimal_text, self._a[ax][:n])))
            lines.append(f"axis{ax}.b = " + " ".join(map(decimal_text, self._b[ax][:n])))
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "TilingSchedule":
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
            for key, arr in (("a", sched._a[ax]), ("b", sched._b[ax])):
                stored = kv.get(f"axis{ax}.{key}")
                if stored is not None:
                    # compared as text: int() refuses tokens past the int->str limit
                    got = stored.split()
                    if got != [decimal_text(v) for v in arr[: len(got)]]:
                        raise ScheduleError(f"stored axis{ax}.{key} array is inconsistent")
        return sched


def generate_interval_schedule(
    seed_a: int,
    seed_b: int,
    growth,
    balance: str = "centered",
    group: LatticeGroup = Z,
    axis_rules: Optional[Iterable[AxisRule]] = None,
) -> TilingSchedule:
    """Build a schedule from one seed interval; Z^2 uses the same rule per
    axis unless explicit axis_rules are given."""
    if axis_rules is not None:
        return TilingSchedule(group, tuple(axis_rules), balance)
    rule = AxisRule.make(seed_a, seed_b, growth)
    return TilingSchedule(group, (rule,) * group.rank, balance)
