import dataclasses
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from meandim import (
    Construction,
    GROUPS,
    FiniteSubset,
    ScheduleError,
    TilingSchedule,
    Z,
    Z2,
    verify_partition,
)
from meandim.cli import load_config
from meandim.groups import Box, is_invariant
from meandim.oracles import (
    box2,
    generate_interval_schedule,
    interval,
    parse_schedule,
    verify_invariance_profile,
    verify_nesting_by_scan,
)
from meandim.schedules import BALANCES, MAX_SEARCH_LEVEL, AxisRule
from meandim.tilings import verify_congruent, verify_primely_congruent


class RecurrenceSchedule(TilingSchedule):
    """The step-by-step schedule the closed form replaced: every level up to
    the deepest one asked for is appended, one multiplier at a time."""

    def __init__(self, group, rules, balance="centered"):
        super().__init__(group, rules, balance)
        self._a = [[r.seed_a] for r in self.rules]
        self._b = [[r.seed_b] for r in self.rules]

    def _extend(self, n):
        while len(self._a[0]) < n:
            lvl = len(self._a[0])
            for ax, rule in enumerate(self.rules):
                a, b = self._a[ax][-1], self._b[ax][-1]
                q = a + b + 1
                m = int(rule.multiplier(lvl))
                if self.balance == "left":
                    j = m - 1
                elif self.balance == "right":
                    j = 0
                elif m % 2 == 1:
                    j = (m - 1) // 2
                else:
                    j = m // 2 - 1 + lvl % 2
                self._a[ax].append(a + j * q)
                self._b[ax].append(b + (m - 1 - j) * q)

    def level_box(self, n):
        self._extend(n)
        rank = self.group.rank
        return Box(tuple(-self._a[ax][n - 1] for ax in range(rank)),
                   tuple(self._b[ax][n - 1] for ax in range(rank)))

    def periods(self, n):
        box = self.level_box(n)
        return tuple(hi - lo + 1 for lo, hi in zip(box.lows, box.highs))

    def volume(self, n):
        return math.prod(self.periods(n))

    def first_level_holding(self, need, start=1):
        # the planner's search before the closed form: gallop, then bisect
        hi, step = start, 1
        while self.volume(hi) < need:
            hi, step = hi + step, 2 * step
        lo = max(start, hi - step // 2)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.volume(mid) >= need:
                hi = mid
            else:
                lo = mid + 1
        return hi


def test_balanced_growth_values():
    s = generate_interval_schedule(1, 2, 3)
    boxes = [s.level_box(n) for n in range(1, 5)]
    assert [(b.lows[0], b.highs[0]) for b in boxes] == [(-1, 2), (-5, 6), (-17, 18), (-53, 54)]
    assert [s.periods(n)[0] for n in range(1, 5)] == [4, 12, 36, 108]


def test_alignment_invariant():
    s = generate_interval_schedule(1, 2, 3)
    for n in range(1, 8):
        q, qn = s.periods(n)[0], s.periods(n + 1)[0]
        assert qn % q == 0
        a, an = -s.level_box(n).lows[0], -s.level_box(n + 1).lows[0]
        assert (an - a) % q == 0


def test_single_level_schedule_valid():
    s = generate_interval_schedule(0, 1, 2)
    assert s.level_box(1).volume == 2


def test_non_integer_growth_rejected():
    s = generate_interval_schedule(1, 2, Fraction(5, 2))
    with pytest.raises(ScheduleError, match="level 2"):
        s.level_box(2)


def test_small_multiplier_rejected():
    s = generate_interval_schedule(1, 2, 1)
    with pytest.raises(ScheduleError):
        s.level_box(2)


def test_materialize_level_resolver():
    s = generate_interval_schedule(1, 2, 3)
    t1 = s.materialize_level(1)
    assert t1.tile_of((5,)) == (1, (4,))
    for n in range(1, 5):
        t = s.materialize_level(n)
        assert t.tile_of((0,)) == (1, (0,) * 1)
        W = interval(-1000, 1000)
        assert verify_partition(t, W).ok


@given(
    seed_a=st.integers(0, 3),
    seed_b=st.integers(0, 3),
    growth=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    balance=st.sampled_from(BALANCES),
    group=st.sampled_from([Z, Z2]),
)
@example(seed_a=1, seed_b=2, growth=[3, 3, 3], balance="centered", group=Z)
@settings(max_examples=60, deadline=None)
def test_consecutive_levels_primely_congruent(seed_a, seed_b, growth, balance, group):
    # gen-tilings skips these scans: ensure() makes every level pair
    # congruent and primely congruent; the scanners are the oracle here
    assume(seed_a + seed_b >= 1)
    s = generate_interval_schedule(seed_a, seed_b, growth, balance, group=group)
    checked = 0
    for n in range(1, len(growth) + 2):
        q, qn = s.periods(n), s.periods(n + 1)
        a, an = s.level_box(n).lows, s.level_box(n + 1).lows
        assert all(y % x == 0 for x, y in zip(q, qn))
        assert all((x - y) % p == 0 for x, y, p in zip(a, an, q))
        # two whole coarse tiles side by side: every coarse tile meeting W
        # is complete, and prime congruence compares two decompositions
        box = s.level_box(n + 1)
        W = Box(box.lows, (box.highs[0] + qn[0],) + box.highs[1:])
        # the partition scan costs about |W| * |fine tile| steps
        if W.volume > 10_000 or W.volume * s.volume(n) > 200_000:
            continue
        W = W.to_subset(group)
        fine, coarse = s.materialize_level(n), s.materialize_level(n + 1)
        assert verify_partition(fine, W).ok
        assert verify_congruent(fine, coarse, W).ok
        res = verify_primely_congruent(fine, coarse, W)
        assert res.ok and res.detail == "checked=2"
        checked += 1
    assert checked  # levels 1 -> 2 always fit


@given(
    seed_a=st.integers(0, 3),
    seed_b=st.integers(0, 3),
    growth=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    balance=st.sampled_from(BALANCES),
    group=st.sampled_from([Z, Z2]),
    deep=st.integers(2900, 3100),
)
@example(seed_a=1, seed_b=1, growth=[2], balance="centered", group=Z2, deep=3001)
@example(seed_a=0, seed_b=1, growth=[3, 4], balance="centered", group=Z, deep=3000)
@settings(max_examples=60, deadline=None)
def test_closed_form_levels_match_recurrence(seed_a, seed_b, growth, balance, group, deep):
    assume(seed_a + seed_b >= 1)
    s = generate_interval_schedule(seed_a, seed_b, growth, balance, group=group)
    oracle = RecurrenceSchedule(group, s.rules, balance)
    # deepest first: nothing the closed form computes may lean on shallower calls
    for n in [deep, *range(1, 41)]:
        assert s.level_box(n) == oracle.level_box(n)
        assert s.periods(n) == oracle.periods(n)
        assert s.level_box(n + 1).contains_box(s.level_box(n))
    assert s.levels_built == deep + 1


def test_closed_form_plan_matches_recurrence_plan():
    # the Z^2 depth-2 plan reaches level 14,774 of the schedule
    path = Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg"
    params = load_config(str(path), SimpleNamespace(depth=2, mode=None, seed=None))
    sched = params.schedule
    oracle = RecurrenceSchedule(sched.group, sched.rules, sched.balance)
    closed = Construction(params)
    stepped = Construction(dataclasses.replace(params, schedule=oracle))
    assert closed.plan_report() == stepped.plan_report()
    assert closed.steps[2].host_level == 14_768 and closed.levels[3].sched_level == 14_774


def test_z2_depth2_plan_builds_only_the_levels_it_keeps():
    # the host and next-level searches read no level past the growth
    # prefix; only the levels the plan keeps, up to 14,774, are built
    path = Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg"
    params = load_config(str(path), SimpleNamespace(depth=2, mode=None, seed=None))
    Construction(params)
    assert params.schedule.levels_built == 14_774


@given(
    group=st.sampled_from([Z, Z2]),
    seeds=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=2),
    growths=st.lists(st.lists(st.integers(2, 6), min_size=1, max_size=4), min_size=2, max_size=2),
    balance=st.sampled_from(BALANCES),
    start=st.integers(1, 9),
    level=st.integers(1, 400),
    data=st.data(),
)
@example(group=Z2, seeds=[(1, 1), (0, 2)], growths=[[3], [2, 5, 4]], balance="centered",
         start=2, level=2500, data=None)
@settings(max_examples=60, deadline=None)
def test_level_search_matches_the_schedule(group, seeds, growths, balance, start, level, data):
    assume(all(a + b >= 1 for a, b in seeds))
    rules = tuple(AxisRule.make(a, b, g) for (a, b), g in zip(seeds, growths))[: group.rank]
    sched = TilingSchedule(group, rules, balance)
    low = sched.volume(level - 1) if level > 1 else 0
    high = sched.volume(level) + 1
    needs = [low, low + 1, high - 1, high]
    if data is not None:
        needs.append(data.draw(st.integers(low, high)))
    for need in needs:
        n = start
        while sched.volume(n) < need:  # the linear scan
            n += 1
        fresh = TilingSchedule(group, rules, balance)
        assert fresh.first_level_holding(need, start) == n
        # the search makes no level past the growth prefix available
        assert fresh.levels_built <= max(len(g) for g in growths[: group.rank]) + 1


@given(
    group=st.sampled_from([Z, Z2]),
    seeds=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=2),
    growths=st.lists(st.lists(st.integers(2, 6), min_size=1, max_size=3), min_size=2, max_size=2),
    balance=st.sampled_from(BALANCES),
    deep=st.integers(200, 1500),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_powers_raised_once_serve_levels_asked_in_any_order(group, seeds, growths, balance, deep, data):
    # one schedule keeps each base's highest power and extends it; asked deep,
    # then shallow, then deeper, it answers as a fresh schedule per query and
    # as the recurrence, for levels and for the level search alike
    assume(all(a + b >= 1 for a, b in seeds))
    rules = tuple(AxisRule.make(a, b, g) for (a, b), g in zip(seeds, growths))[: group.rank]
    sched, oracle = TilingSchedule(group, rules, balance), RecurrenceSchedule(group, rules, balance)
    order = [deep, data.draw(st.integers(1, deep - 1)), data.draw(st.integers(deep + 1, deep + 400))]
    for level in order:
        want = (oracle.level_box(level), oracle.periods(level), oracle.volume(level))
        fresh = TilingSchedule(group, rules, balance)
        assert (sched.level_box(level), sched.periods(level), sched.volume(level)) == want
        assert (fresh.level_box(level), fresh.periods(level), fresh.volume(level)) == want
        # the first level holding one cell more than the level below it
        need = oracle.volume(level - 1) + 1 if level > 1 else 1
        found = TilingSchedule(group, rules, balance).first_level_holding(need)
        assert sched.first_level_holding(need) == found == oracle.first_level_holding(need) == level
    deeper = order[2] + data.draw(st.integers(1, 50))
    need = oracle.volume(deeper)
    assert sched.first_level_holding(need, 2) == deeper and sched.volume(deeper) == need


def test_deep_level_checks_multipliers_first():
    # asking for a deep level first still fails at the first level that
    # uses a bad multiplier, and leaves the schedule usable below it
    s = generate_interval_schedule(1, 2, [3, Fraction(5, 2)])
    with pytest.raises(ScheduleError, match="^level 3 axis 0: period 30 is not an integer multiple of 12$"):
        s.level_box(5000)
    assert s.levels_built == 2
    assert s.level_box(2) == Box((-5,), (6,))
    # the level search checks the same multiplier at the same level
    with pytest.raises(ScheduleError, match="^level 3 axis 0: period 30 is not an integer multiple of 12$"):
        s.first_level_holding(10**9)
    assert s.first_level_holding(12) == 2
    rules = (AxisRule.make(1, 1, 3), AxisRule.make(1, 1, [2, 1]))
    s = TilingSchedule(Z2, rules)
    with pytest.raises(ScheduleError, match="^level 3 axis 1: multiplier must be >= 2$"):
        s.ensure(3)
    with pytest.raises(ScheduleError, match="levels are 1-based"):
        s.ensure(0)


def test_invariance_profile_doubling():
    s = generate_interval_schedule(4, 5, 2)
    K_list = [Z.ball(k) for k in range(1, 7)]
    eps_list = [Fraction(1, k) for k in range(1, 7)]
    assert verify_invariance_profile(s, K_list, eps_list).ok


def test_invariance_profile_failures():
    s = generate_interval_schedule(1, 2, 3)
    res = verify_invariance_profile(s, [Z.ball(1)], [Fraction(0)])
    assert res.ok is False  # eps = 0 can never hold, strict inequality
    res = verify_invariance_profile(s, [Z.ball(1), Z.ball(2)], [2, Fraction(1, 10**9)])
    assert res.ok is False and res.violations == [2]  # first failing level named
    singleton = FiniteSubset(Z, [(0,)])
    assert verify_invariance_profile(s, [singleton] * 3, [Fraction(1, 10**9)] * 3).ok
    with pytest.raises(ValueError):
        verify_invariance_profile(s, [Z.ball(1)], [1, 1])


def test_first_invariant_level_searches_past_built_levels():
    s = generate_interval_schedule(1, 1, 3, group=Z2)
    assert s.levels_built == 1
    # level 3 (27x27) has ratio 432/729 under ball(2); level 4 (81x81) 1296/6561
    assert s.first_invariant_level(2, Fraction(1, 2)) == 4
    assert s.levels_built == 4
    # the level found is the first that the materialized boundary scan accepts
    for n in range(1, 4):
        assert not is_invariant(s.level_box(n).to_subset(Z2), Z2.ball(2), Fraction(1, 2))
    assert s.first_invariant_level(2, Fraction(1, 2), max_level=3) is None


def test_nesting_coverage():
    s = generate_interval_schedule(1, 2, 3)
    res = s.verify_nesting(100)
    assert res.ok and res.violations[0] <= 5
    assert s.verify_nesting(1).violations[0] == 1  # g_1 = 0 sits in level 1


@pytest.mark.parametrize("seeds,growth", [((1, 2), (3,)), ((0, 1), (2, 5, 3)), ((2, 0), (4, 2))])
@pytest.mark.parametrize("balance", BALANCES)
@pytest.mark.parametrize("group", ["Z", "Z2"])
def test_nesting_from_the_bounding_box_matches_the_scan(group, balance, seeds, growth):
    # the first level holding the bounding box of g_1..g_N against the first
    # level holding each element, N = 0 and max_level 0 included; max_level
    # 1 is too low for N = 100 on every schedule, so each also fails,
    # naming the same first element
    s = generate_interval_schedule(*seeds, growth, balance, group=GROUPS[group])
    for max_level in (0, 1, 2, MAX_SEARCH_LEVEL):
        for N in range(101):
            assert s.verify_nesting(N, max_level) == verify_nesting_by_scan(s, N, max_level), (max_level, N)
    assert s.verify_nesting(100, 1).ok is False


def test_nesting_one_sided_failure():
    s = generate_interval_schedule(0, 3, 3, balance="right")
    res = s.verify_nesting(10, max_level=20)
    assert res.ok is False
    assert res.violations == [(-1,)]  # negative integers never covered


def test_serialization_round_trip():
    s = generate_interval_schedule(1, 2, 3)
    s.ensure(6)
    text = s.serialize(6)
    back = parse_schedule(text)
    assert back.serialize(6) == text
    assert back.level_box(6) == s.level_box(6)


def test_serialization_rejects_tampered_arrays():
    s = generate_interval_schedule(1, 2, 3)
    text = s.serialize(4).replace("17", "16")
    with pytest.raises(ScheduleError):
        parse_schedule(text)


def test_z2_schedule_as_axis_product():
    s = generate_interval_schedule(1, 1, 3, group=Z2)
    assert s.level_box(2) == type(s.level_box(2))((-4, -4), (4, 4))
    t = s.materialize_level(1)
    assert t.tile_of((4, -4)) == (1, (3, -3))
    W = box2(-20, 20, -20, 20)
    assert verify_partition(t, W).ok
    fine, coarse = s.materialize_level(1), s.materialize_level(2)
    assert verify_primely_congruent(fine, coarse, W).ok


def test_even_multiplier_alternates_sides():
    s = generate_interval_schedule(1, 1, 2)
    a = [-s.level_box(n).lows[0] for n in range(1, 9)]
    b = [s.level_box(n).highs[0] for n in range(1, 9)]
    assert a[-1] > a[0] and b[-1] > b[0]  # both ends grow without bound
