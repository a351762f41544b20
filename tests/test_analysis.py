import argparse
import math
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from meandim import GROUPS, HASH, STAR, Z2, BuildParams, Construction, DepthError, MeandimError, Polyhedron
from meandim.analysis import (
    check_sandwich,
    lower_bound_estimate,
    mdim_report,
    minimality_check,
    upper_bound_estimate,
    verify_free_nesting,
)
from meandim import oracles
from meandim.cube import net_schedule
from meandim.groups import Box
from meandim.oracles import densities, free_set_elements, generate_interval_schedule, toy_params
from tests.conftest import by_cell, make_toy


def test_densities_seed_tile(toy_cfg):
    box = toy_cfg.levels[1].box
    tile = by_cell(box, toy_cfg.level_values(1, box))
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
    v11 = by_cell(toy_cfg.levels[2].box, toy_words)
    st, q = toy_cfg.steps[1], toy_cfg.levels[1].periods
    # the seed stars in every host tile, before the code block replaces them
    seeded = {tuple(jj * qq + x for jj, qq, x in zip(j, q, a)) for j in st.cand.cells() for a in toy_cfg.seed_stars}
    host = {g: v11[g] for g in host_box.cells()}  # the host box is never thinned
    raw = {g: STAR if g in seeded else HASH for g in host_box.cells()}
    assert densities(host).star_density < densities(raw).star_density
    assert densities(host).star_density == Fraction(3, 36)


def test_free_set_level1(toy_cfg):
    # J_1 is the 163 stars of V_2, pulled back along the level-1 link center
    elems = free_set_elements(toy_cfg, 1)
    assert len(elems) == toy_cfg.levels[2].stars == 163
    assert lower_bound_estimate(toy_cfg, 1) == Fraction(163, 324) > toy_cfg.rho
    shift = toy_cfg.link_shift(1)
    assert shift == toy_cfg.steps[1].link_center
    # the walk's stars on the follower box are J_1, in Box.cells() order
    box = toy_cfg.follower_box(1)
    codes = toy_cfg.level_codes(2, box.translate(shift))[0]
    assert [g for g, c in zip(box.cells(), codes) if c == 0] == sorted(elems)
    stars = toy_cfg.star_positions(2)
    assert sorted(elems) == sorted((p[0] - shift[0],) for p in stars)


def test_free_set_nesting(toy_cfg):
    assert verify_free_nesting(toy_cfg, 1).ok  # J_0 empty
    res = verify_free_nesting(toy_cfg, 2)
    assert res.ok is True


def test_free_set_members_match_pointwise(toy_cfg):
    # J_n's members on a box of its follower box, read as stars of the
    # walked V_(n+1) on the box pulled forward, against the pointwise word
    def members(n, box):
        return [c == 0 for c in toy_cfg.level_codes(n + 1, box.translate(toy_cfg.link_shift(n)))[0]]

    def pointwise(n, box):
        moved = (toy_cfg.group.mul(g, toy_cfg.link_shift(n)) for g in box.cells())
        return [oracles.word(toy_cfg, n + 1, h) is STAR for h in moved]

    for n in (1, 2):
        w = toy_cfg.follower_box(n)
        for lo in (w.lows[0], w.lows[0] + 100, w.highs[0] - 60):
            box = Box((lo,), (lo + 60,))
            assert members(n, box) == pointwise(n, box), (n, box)
        with pytest.raises(ValueError):
            members(n, Box((w.lows[0] - 1,), (w.lows[0] + 60,)))
    w = toy_cfg.follower_box(1)
    assert members(1, w) == pointwise(1, w)


def test_free_set_nesting_names_a_missing_element(toy_cfg, monkeypatch):
    # J_2 on the follower box of level 1 is exactly J_1; turning its first
    # element's star (code 0) to a hash (code 1) in the walk codes of V_3,
    # which J_2 reads, must fail the check and name that element
    real = Construction.level_codes

    def dropped(self, n, box):
        codes, palette = real(self, n, box)
        if n == 3:
            codes = list(codes)
            codes[codes.index(0)] = 1
        return codes, palette

    monkeypatch.setattr(Construction, "level_codes", dropped)
    res = verify_free_nesting(toy_cfg, 2)
    assert res.ok is False and res.detail == "J_1 not within J_2"
    assert res.violations == [min(free_set_elements(toy_cfg, 1))]


def test_lower_bound_estimates(matrix_cfg):
    rho = matrix_cfg.rho
    for n in (1, 2):
        lo = lower_bound_estimate(matrix_cfg, n)
        vol = matrix_cfg.levels[n + 1].volume
        assert rho < lo <= rho + Fraction(1, vol)
    # the window slack shrinks with the level
    assert lower_bound_estimate(matrix_cfg, 2) - rho < lower_bound_estimate(matrix_cfg, 1) - rho


def test_negative_levels_are_refused(toy_cfg):
    # a ValueError from the level check itself, not a DepthError about depth
    with pytest.raises(ValueError, match="estimates start at n = 1"):
        lower_bound_estimate(toy_cfg, -1)


def test_sandwich_refuses_a_level_at_rho():
    # the planner gives every level stars > rho * volume, so only a stub plan
    # reaches a level at exactly rho; level 1 sits on the upper end, which holds
    stub = SimpleNamespace(rho=Fraction(1, 2), params=SimpleNamespace(depth=1), levels={
        1: SimpleNamespace(stars=3, volume=4), 2: SimpleNamespace(stars=18, volume=36)})
    res = check_sandwich(stub, None)
    assert (res.ok, res.detail) == (False, "level 2: 1/2")


def test_sandwich_refuses_a_level_with_one_star_too_many():
    # level 2 holds 20 stars in 36 cells, one above floor(rho * 36) + 1 = 19:
    # its density 5/9 passes rho + 1/36 by exactly 1/36
    stub = SimpleNamespace(rho=Fraction(1, 2), params=SimpleNamespace(depth=1), levels={
        1: SimpleNamespace(stars=3, volume=4), 2: SimpleNamespace(stars=20, volume=36)})
    res = check_sandwich(stub, None)
    assert (res.ok, res.detail) == (False, "level 2: 5/9")


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
    density = Fraction(len(free_set_elements(cfg2, 1)), cfg2.follower_box(1).volume)
    assert lower_bound_estimate(cfg2, 1) == 2 * density
    assert cfg2.rho < density <= cfg2.rho + Fraction(1, cfg2.levels[2].volume)


def brute_force_class_wholes(cfg, n, window):
    # independent per-class counting: the whole level-n tiles inside the
    # window for every translation class (one center residue per axis),
    # from one pass along each axis over the centers c whose tile
    # c + [blo, bhi] lies in [lo, hi], each counted for its residue
    lvl = cfg.levels[n]
    per_axis = []
    for q, lo, hi, blo, bhi in zip(lvl.periods, window.lows, window.highs, lvl.box.lows, lvl.box.highs):
        counts = [0] * q
        for c in range(lo - blo, hi - bhi + 1):
            counts[c % q] += 1
        per_axis.append(counts)
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
        cfg = Construction(toy_params(
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
        cfg = Construction(toy_params(
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
        assert rep.ok is True
        assert rep.detail == "15 centers" and rep.violations == []


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
    assert rep.ok is False
    assert rep.violations and rep.violations[0][0] == (q * 7,)


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


@pytest.mark.parametrize("config", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_verify_battery_runs_on_one_walk_and_frees_it(monkeypatch, config):
    # every check of one run evaluates through one tile walk, held by a view
    # of the plan; the plan keeps its attributes, and the walk is freed by
    # reference counting when the run returns
    from meandim import analysis, cli, construction

    path = Path(__file__).resolve().parents[1] / config
    cfg = Construction(cli.load_config(str(path), argparse.Namespace(depth=None, mode=None, seed=None)))
    planned = dict(vars(cfg))
    walks = []

    class CountedWalk(construction._TileWalk):
        def __init__(self, plan):
            super().__init__(plan)
            walks.append(weakref.ref(self))

    monkeypatch.setattr(construction, "_TileWalk", CountedWalk)
    rows = analysis.run_verification(cfg, cfg.params.seed)
    assert [ok for _, ok, _ in rows] == [True] * len(rows)
    assert len(walks) == 1
    assert walks[0]() is None
    assert vars(cfg) == planned and cfg._walk is None
    # outside the battery each evaluation call still builds its own walk
    cfg.level_values(1, cfg.levels[1].box)
    cfg.star_positions(1)
    assert len(walks) == 3


@pytest.mark.parametrize("config", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_no_star_row_fails_when_code_tile_zero_keeps_its_stars(monkeypatch, config):
    # the no-star row reads its tile through code tile 0 of a step, the walk's
    # coded branch: if that branch left the piece's stars in place, the row
    # must name the first one and FAIL rather than pass unscanned
    from meandim import analysis, cli, construction

    path = Path(__file__).resolve().parents[1] / config
    cfg = Construction(cli.load_config(str(path), argparse.Namespace(depth=None, mode=None, seed=None)))
    assert analysis.check_no_star(cfg.with_one_walk(), None).ok
    monkeypatch.setattr(construction._TileWalk, "_coded", lambda walk, step, key, code: walk.values(*key, False)[0])
    rows = {name: (ok, detail) for name, ok, detail in analysis.run_verification(cfg, cfg.params.seed)}
    ok, detail = rows["no star in the limit"]
    assert ok is False and detail.startswith("DepthError: value at (")


@pytest.mark.parametrize("config", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_multi_box_calls_each_run_on_one_walk(monkeypatch, config):
    # on a plain depth-2 plan, a decode, a nesting check and a minimality
    # check each read several boxes through one tile walk, held by a view
    # the call frees; a view given to them is used as it is
    from meandim import cli, construction

    path = Path(__file__).resolve().parents[1] / config
    cfg = Construction(cli.load_config(str(path), argparse.Namespace(depth=2, mode=None, seed=None)))
    walks = []

    class CountedWalk(construction._TileWalk):
        def __init__(self, plan):
            super().__init__(plan)
            walks.append(weakref.ref(self))

    monkeypatch.setattr(construction, "_TileWalk", CountedWalk)
    assignment = [cfg.steps[1].net.point_at(1)] * cfg.levels[1].stars
    calls = [
        lambda plan: plan.realization_decode(1, assignment),
        lambda plan: verify_free_nesting(plan, 2),
        lambda plan: minimality_check(plan, 1, sample_size=20, seed=3),
    ]
    for call in calls:
        walks.clear()
        call(cfg)
        assert len(walks) == 1 and walks[0]() is None
        assert cfg._walk is None
    view = cfg.with_one_walk()
    assert view.with_one_walk() is view
    walks.clear()
    for call in calls:
        call(view)
    assert walks == []


@pytest.mark.parametrize("config", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_battery_decodes_rank_the_level_1_tile_once(monkeypatch, config):
    # on one battery view, every decode of the realization row reads its
    # star cells from the walk's star index of the level-1 tile, which the
    # walk ranks once across all of them
    from meandim import analysis, cli, construction

    path = Path(__file__).resolve().parents[1] / config
    cfg = Construction(cli.load_config(str(path), argparse.Namespace(depth=None, mode=None, seed=None)))
    tile, ranked, decodes = cfg.levels[1].box, [], []
    seed_word, decode = construction._TileWalk._seed_word, Construction.realization_decode

    def counted_seed_word(self, lows, highs, ranks):
        if ranks and (lows, highs) == (tile.lows, tile.highs):
            ranked.append(lows)
        return seed_word(self, lows, highs, ranks)

    def counted_decode(self, n, assignment):
        decodes.append(n)
        return decode(self, n, assignment)

    monkeypatch.setattr(construction._TileWalk, "_seed_word", counted_seed_word)
    monkeypatch.setattr(Construction, "realization_decode", counted_decode)
    step = cfg.steps[1]
    result = analysis.check_realization(cfg.with_one_walk(), None)
    assert result.ok and len(decodes) == step.radix ** cfg.levels[1].stars > 1
    assert len(ranked) == 1


@pytest.mark.parametrize("call, error, text", [
    (lambda cfg: minimality_check(cfg, 0), ValueError, "minimality starts at n = 1"),
    (lambda cfg: minimality_check(cfg, -1), ValueError, "minimality starts at n = 1"),
    (lambda cfg: cfg.star_positions(0), DepthError, "level 0 not planned"),
    (lambda cfg: cfg.star_positions(-1), DepthError, "level -1 not planned"),
    (lambda cfg: cfg.star_positions(4), DepthError, "level 4 not planned"),
    # the siblings they now match
    (lambda cfg: cfg.level_codes(0, cfg.levels[1].box), DepthError, "level 0 not planned"),
    (lambda cfg: upper_bound_estimate(cfg, 4), DepthError, "level 4 not planned"),
    (lambda cfg: lower_bound_estimate(cfg, 0), ValueError, "estimates start at n = 1"),
    (lambda cfg: lower_bound_estimate(cfg, 3), DepthError, "free set level 3 needs depth >= 3"),
    (lambda cfg: verify_free_nesting(cfg, 0), ValueError, "nesting starts at n = 1"),
    (lambda cfg: verify_free_nesting(cfg, 3), DepthError, "free set level 3 needs depth >= 3"),
    # the smaller set J_(n-1) is named first
    (lambda cfg: verify_free_nesting(cfg, 4), DepthError, "free set level 3 needs depth >= 3"),
    (lambda cfg: verify_free_nesting(cfg, 5), DepthError, "free set level 4 needs depth >= 4"),
    (lambda cfg: minimality_check(cfg, 3), DepthError, "minimality at level 3 needs depth >= 3"),
])
def test_out_of_range_levels_raise_the_package_errors(toy_cfg, call, error, text):
    # the Z toy at depth 2 plans levels 1..3
    with pytest.raises(error) as exc:
        call(toy_cfg)
    assert type(exc.value) is error and str(exc.value) == text


@given(st.sampled_from(["Z", "Z2"]), st.sampled_from(["centered", "left", "right"]),
       st.sampled_from([(0, 1), (1, 1), (1, 2)]), st.integers(2, 3),
       st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]), st.integers(1, 2), st.integers(1, 3))
# Z^2 plans whose level-3 tile (16,384 cells) holds J_2: about one Z^2 draw
# in fourteen reaches them
@example("Z2", "left", (0, 1), 2, Fraction(1, 2), 1, 2)
@example("Z2", "right", (0, 1), 2, Fraction(1, 3), 2, 3)
@settings(max_examples=60, deadline=None)
def test_free_set_rows_match_the_enumerated_sets(group, balance, seed, growth, rho, dim, depth):
    # the nesting verdict and count, and the lower bound, against J_n
    # enumerated from the star positions of V_(n+1) (oracles.free_set_elements),
    # on capped:2 plans, at each level whose level-(n+1) tile has at most
    # 30,000 cells
    sched = generate_interval_schedule(*seed, growth, balance, group=GROUPS[group])
    try:
        cfg = Construction(toy_params(sched, rho, dim=dim, depth=depth, cap=2))
    except MeandimError:
        return
    smaller = []  # J_0
    for n in range(1, depth + 1):
        if cfg.levels[n + 1].volume > 30_000:
            break
        larger = free_set_elements(cfg, n)
        res = verify_free_nesting(cfg, n)
        assert res.ok is (set(smaller) <= set(larger))
        if n > 1:
            assert res.detail == f"all {len(smaller)} elements of J_{n - 1} lie in J_{n}"
        assert lower_bound_estimate(cfg, n) == Fraction(len(larger), cfg.follower_box(n).volume) * dim
        smaller = larger
