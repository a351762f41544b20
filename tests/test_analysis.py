import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from meandim import HASH, STAR, Z2, BuildParams, Construction, Polyhedron, generate_interval_schedule
from meandim.analysis import (
    FreeSet,
    densities,
    free_set,
    lower_bound_estimate,
    mdim_report,
    minimality_check,
    upper_bound_estimate,
    verify_free_nesting,
)
from meandim import oracles
from meandim.cube import net_schedule
from meandim.groups import Box
from tests.conftest import by_cell, make_toy


def test_densities_seed_tile(toy_cfg, toy_words):
    w1 = by_cell(toy_words.window, toy_words.w1)
    tile = {g: w1[g] for g in toy_cfg.levels[1].box.cells()}
    rep = densities(tile, "seed tile")
    assert rep.star_density == Fraction(3, 4)
    assert rep.hash_density == Fraction(1, 4)


def test_densities_all_hash():
    rep = densities({(i,): HASH for i in range(7)})
    assert rep.star_density == 0 and rep.hash_density == 1
    with pytest.raises(ValueError):
        densities({})


def test_coded_word_consumes_stars(toy_cfg, toy_words):
    host_box = toy_cfg.steps[1].host_box
    host = by_cell(host_box, toy_words.w1_coded)
    w1 = by_cell(toy_words.window, toy_words.w1)
    raw = {g: w1[g] for g in host_box.cells()}
    assert densities(host).star_density < densities(raw).star_density
    assert densities(host).star_density == Fraction(3, 36)


def test_free_set_level1(toy_cfg):
    J1 = free_set(toy_cfg, 1)
    assert J1.size == 163
    assert J1.density == Fraction(163, 324) > toy_cfg.rho
    elems = J1.elements()
    assert len(elems) == 163
    assert all(g in J1 for g in elems)
    # the shift is the level-1 link center
    assert J1.shift == toy_cfg.steps[1].link_center
    stars = toy_cfg.star_positions(2)
    assert sorted(elems) == sorted((p[0] - J1.shift[0],) for p in stars)


def test_free_set_nesting(toy_cfg):
    assert verify_free_nesting(toy_cfg, 1).ok  # J_0 empty
    res = verify_free_nesting(toy_cfg, 2)
    assert res.ok is True


def test_free_set_members_match_pointwise(toy_cfg):
    # the walked membership of a box against the pointwise level word
    def pointwise(fs, box):
        moved = (toy_cfg.group.mul(g, fs.shift) for g in box.cells())
        return [oracles.word(toy_cfg, fs.n + 1, h) is STAR for h in moved]

    for n in (1, 2):
        fs = free_set(toy_cfg, n)
        w = fs.window_box
        for lo in (w.lows[0], w.lows[0] + 100, w.highs[0] - 60):
            box = Box((lo,), (lo + 60,))
            assert fs.members(box) == pointwise(fs, box), (n, box)
        with pytest.raises(ValueError):
            fs.members(Box((w.lows[0] - 1,), (w.lows[0] + 60,)))
    J1 = free_set(toy_cfg, 1)
    assert J1.members(J1.window_box) == pointwise(J1, J1.window_box)


def test_free_set_nesting_names_a_missing_element(toy_cfg, monkeypatch):
    # J_2 on the follower box of level 1 is exactly J_1; dropping its first
    # element from J_2 must fail the check and name that element
    real = FreeSet.members

    def dropped(self, box):
        out = list(real(self, box))
        if self.n == 2:
            out[out.index(True)] = False
        return out

    monkeypatch.setattr(FreeSet, "members", dropped)
    res = verify_free_nesting(toy_cfg, 2)
    assert res.ok is False and res.detail == "J_1 not within J_2"
    assert res.violations == [min(free_set(toy_cfg, 1).elements())]


def test_free_set_restrict(toy_cfg):
    J1 = free_set(toy_cfg, 1)
    window = list(Box((-20,), (20,)).cells())
    got = J1.restrict(window)
    assert got == [g for g in window if g in J1]


def test_lower_bound_estimates(matrix_cfg):
    rho = matrix_cfg.rho
    for n in (1, 2):
        lo = lower_bound_estimate(matrix_cfg, n)
        vol = matrix_cfg.levels[n + 1].volume
        assert rho < lo <= rho + Fraction(1, vol)
    # the window slack shrinks with the level
    assert lower_bound_estimate(matrix_cfg, 2) - rho < lower_bound_estimate(matrix_cfg, 1) - rho


def test_lower_bound_scales_with_dimension():
    sched = generate_interval_schedule(1, 2, 3)
    cfg2 = Construction(
        BuildParams(
            schedule=sched,
            rho=Fraction(1, 2),
            cube=Polyhedron(2),
            nets=net_schedule(2, 2),
            depth=2,
        )
    )
    # the estimate is the free-coordinate density times the cube dimension
    density = free_set(cfg2, 1).density
    assert lower_bound_estimate(cfg2, 1) == 2 * density
    assert cfg2.rho < density <= cfg2.rho + Fraction(1, cfg2.levels[2].volume)


def brute_force_class_wholes(cfg, n, window):
    # independent per-class counting: the whole level-n tiles inside the
    # window for every translation class (one center residue per axis),
    # from the centers of that residue scanned along each axis
    lvl = cfg.levels[n]
    per_axis = [
        [sum(1 for c in range(lo - q, hi + q + 1) if c % q == o and lo <= c + blo and c + bhi <= hi)
         for o in range(q)]
        for q, lo, hi, blo, bhi in zip(lvl.periods, window.lows, window.highs, lvl.box.lows, lvl.box.highs)
    ]
    return [math.prod(counts) for counts in product(*per_axis)]


def brute_force_worst_class(cfg, n, window):
    # the most free coordinates over every translation class
    lvl = cfg.levels[n]
    worst = max(
        whole * lvl.stars + (window.volume - whole * lvl.volume)
        for whole in brute_force_class_wholes(cfg, n, window)
    )
    return Fraction(worst, window.volume)


def test_upper_bound_level1_exact(toy_cfg):
    est = upper_bound_estimate(toy_cfg, 1)
    assert est.class_count == 4
    want = brute_force_worst_class(toy_cfg, 1, toy_cfg.levels[2].box)
    assert est.free_fraction == want == Fraction(244, 324)
    assert est.free_fraction <= est.envelope_fraction
    assert est.envelope_fraction == Fraction(1, 2) + Fraction(1, 4) + est.boundary_fraction


def test_upper_bound_level2(toy_cfg):
    est = upper_bound_estimate(toy_cfg, 2)
    assert est.class_count == 324
    assert est.free_fraction <= est.envelope_fraction
    assert est.free_fraction - toy_cfg.rho < Fraction(1, 100)


def test_upper_bound_closed_form_branch(toy_cfg):
    # level-3 tiling has an astronomical class count; only arithmetic works
    q3 = toy_cfg.schedule.periods(toy_cfg.levels[3].sched_level)[0]
    lo = toy_cfg.levels[3].box.lows[0]
    window = Box((lo,), (lo + 3 * q3 - 1,))  # exactly three tiles wide
    est = upper_bound_estimate(toy_cfg, 3, window=window)
    assert not est.exhaustive
    assert est.whole_tiles_min == 2  # the worst class cuts one tile
    assert est.free_fraction <= est.envelope_fraction


def test_upper_bound_custom_window(toy_cfg):
    est = upper_bound_estimate(toy_cfg, 1, window=Box((-1,), (10,)))
    want = brute_force_worst_class(toy_cfg, 1, Box((-1,), (10,)))
    assert est.free_fraction == want
    assert upper_bound_estimate(toy_cfg, 1, window=Box((0,), (1,))) is None  # inconclusive



@given(st.data())
@settings(max_examples=60, deadline=None)
def test_upper_bound_stays_under_its_envelope(data):
    # stars <= rho*|S_n| + 1 (the sandwich) and min_whole*|S_n| <= |W| give
    # free/|W| <= rho + 1/|S_n| + boundary/|W| on any window that holds a
    # whole tile; a narrower window is inconclusive
    if data.draw(st.booleans()):
        cfg = Construction(BuildParams.toy(
            generate_interval_schedule(1, 1, 3, group=Z2), Fraction(1, 2), dim=1, depth=1))
    else:
        cfg = make_toy(data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3)),
                       data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])),
                       depth=data.draw(st.integers(1, 2)))
    n = data.draw(st.integers(1, cfg.params.depth + 1))
    q = cfg.levels[n].periods
    lows = [data.draw(st.integers(-2 * qq, 2 * qq)) for qq in q]
    spans = [data.draw(st.integers(1, 3 * qq)) for qq in q]
    window = Box(tuple(lows), tuple(lo + span - 1 for lo, span in zip(lows, spans)))
    est = upper_bound_estimate(cfg, n, window=window)
    if any(span < qq for span, qq in zip(spans, q)):
        assert est is None
    else:
        assert est.free_fraction <= est.envelope_fraction
        assert est.scaled <= est.envelope_scaled


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_upper_bound_closed_form_matches_class_scan(data):
    # the closed-form minimum over translation classes against a scan of
    # every class, on Z and Z^2 levels of at most 60,000 classes
    if data.draw(st.booleans()):
        cfg = Construction(BuildParams.toy(
            generate_interval_schedule(1, 1, 3, group=Z2), Fraction(1, 2), dim=1, depth=1))
    else:
        cfg = make_toy(data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3)),
                       data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])),
                       depth=data.draw(st.integers(1, 2)))
    n = data.draw(st.sampled_from(
        [n for n, lvl in cfg.levels.items() if math.prod(lvl.periods) <= 60_000]))
    q = cfg.levels[n].periods
    lows = [data.draw(st.integers(-2 * qq, 2 * qq)) for qq in q]
    spans = [data.draw(st.integers(1, 3 * qq)) for qq in q]
    window = Box(tuple(lows), tuple(lo + span - 1 for lo, span in zip(lows, spans)))
    est = upper_bound_estimate(cfg, n, window=window)
    wholes = brute_force_class_wholes(cfg, n, window)
    if est is None:
        assert max(wholes) == 0  # no class holds a whole tile
    else:
        assert est.class_count == len(wholes)
        assert est.whole_tiles_min == min(wholes)
        assert est.free_fraction == brute_force_worst_class(cfg, n, window)


def test_minimality_check_passes(toy_cfg):
    for n in (1, 2):
        rep = minimality_check(toy_cfg, n, sample_size=15, seed=11)
        assert rep.ok and rep.recurrence_ok and rep.syndetic_ok
        assert rep.sampled == 15 and rep.mismatches == []


def test_minimality_identity_shift_trivial(toy_cfg):
    rep = minimality_check(toy_cfg, 1, sample_size=1, seed=0)
    assert rep.ok  # only the identity shift sampled


def test_minimality_mutation_detected_directly(toy_cfg, monkeypatch):
    # corrupt the value at one specific copy coordinate and sample that copy
    import meandim.analysis as analysis_mod

    q = toy_cfg.schedule.periods(toy_cfg.levels[2].sched_level)[0]

    class Rigged:
        def __init__(self, *a, **k):
            pass

        def randrange(self, lo, hi):
            return 7

    monkeypatch.setattr(analysis_mod.random, "Random", Rigged)
    original = type(toy_cfg).window_values
    victim = (q * 7 + 1,)

    def corrupted(self, box, kind="w"):
        values = original(self, box, kind)
        return [(Fraction(9, 10),) if g == victim else v for g, v in zip(box.cells(), values)]

    monkeypatch.setattr(type(toy_cfg), "window_values", corrupted)
    rep = minimality_check(toy_cfg, 1, sample_size=2, seed=0)
    assert not rep.recurrence_ok
    assert rep.mismatches and rep.mismatches[0][0] == (q * 7,)


def test_mdim_report(matrix_cfg):
    rep = mdim_report(matrix_cfg)
    assert len(rep.rows) == 2
    assert rep.gaps_monotone and rep.brackets_contain_target
    target = matrix_cfg.rho * matrix_cfg.params.cube.dim
    for row in rep.rows:
        assert row.certified_low <= target <= row.upper_scaled
        assert row.lower > target  # the raw window estimate sits above rho
        assert row.gap >= 0
    assert rep.rows[1].gap <= rep.rows[0].gap
    assert not rep.approximate
