import contextlib
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from meandim import (
    BuildParams,
    Construction,
    DepthError,
    HASH,
    NotRealizedError,
    Polyhedron,
    GROUPS,
    STAR,
    SizeGuardError,
    Z2,
    make_net,
    net_schedule,
    render_value,
)
from meandim import oracles
from meandim.construction import HASH_TOKEN, STAR_TOKEN
from meandim.groups import Box
from meandim.oracles import generate_interval_schedule, toy_params
from tests.conftest import by_cell, make_toy, stabilized, value_at
from tests.test_cli import TOY_Z_CFG, int_str_limit_lifted


def values_equal(a, b):
    return a is b or a == b


def test_params_validation():
    sched = generate_interval_schedule(1, 2, 3)
    with pytest.raises(ValueError):
        toy_params(sched, Fraction(1, 1))
    with pytest.raises(ValueError):
        toy_params(sched, Fraction(1, 2), depth=0)
    with pytest.raises(ValueError):
        BuildParams(
            schedule=sched,
            rho=Fraction(1, 2),
            cube=Polyhedron(1),
            nets=(make_net(1, Fraction(1, 4)), make_net(1, Fraction(1, 2))),
            depth=2,
        )  # nets not nested



def test_params_raise_config_errors(monkeypatch):
    from meandim import ConfigError, cube

    sched = generate_interval_schedule(1, 2, 3)
    with pytest.raises(ConfigError, match=r"^field 'rho': 2 outside \(0,1\)$"):
        toy_params(sched, 2)
    with pytest.raises(ConfigError, match="^capped mode needs cap >= 2$"):
        toy_params(sched, Fraction(1, 2), cap=1)
    # the net-size guard fires before a single axis point is built
    monkeypatch.setattr(cube, "Net", None)
    with pytest.raises(ConfigError, match="^field 'delta1': 1/1000000000 needs over 65536 net points$"):
        toy_params(sched, Fraction(1, 2), first_delta=Fraction(1, 10**9))

def test_seed_star_choice(toy_cfg):
    # first floor(rho*|S|)+1 cells in canonical order, density sandwich holds
    assert toy_cfg.seed_stars == ((-1,), (0,), (1,))
    s, v = toy_cfg.levels[1].stars, toy_cfg.levels[1].volume
    assert toy_cfg.rho < Fraction(s, v) <= toy_cfg.rho + Fraction(1, v)


def test_seed_star_count_against_exhaustive_search():
    # the chosen count is the unique one satisfying the sandwich
    for vol, rho in [(4, Fraction(1, 2)), (10, Fraction(1, 2)), (4, Fraction(1, 3))]:
        want = [s for s in range(1, vol + 1) if rho < Fraction(s, vol) <= rho + Fraction(1, vol)]
        got = (rho.numerator * vol) // rho.denominator + 1
        assert want == [got]
    ten = Construction(toy_params(generate_interval_schedule(4, 5, 2), Fraction(1, 2), depth=1))
    assert ten.levels[1].stars == 6  # |S| = 10, rho = 1/2


def test_toy_plan_numbers(toy_cfg):
    st1 = toy_cfg.steps[1]
    assert toy_cfg.levels[1].stars == 3
    assert st1.code_count == 8  # |net|^stars = 2^3
    assert st1.host_level == 3 and st1.cand.volume == 9
    assert st1.link_center == (16,)
    assert toy_cfg.levels[2].sched_level == 5
    assert toy_cfg.levels[2].volume == 324 and toy_cfg.levels[2].stars == 163
    assert st1.thin_total == 56


def test_oracle_equivalence_words(matrix_cfg):
    word, box = matrix_cfg.materialize(), matrix_cfg.levels[2].box
    # verify reads the literal V_2 as a list in Box.cells() order
    host_box = matrix_cfg.steps[1].host_box
    assert len(word) == box.volume
    v11, stable = by_cell(box, word), by_cell(box, stabilized(matrix_cfg, word))
    for g in box.cells():
        assert values_equal(oracles.word(matrix_cfg, 2, g), v11[g])
    for g in host_box.cells():  # the host box is never thinned
        assert values_equal(oracles.coded(matrix_cfg, 1, g), v11[g])
    for g in box.cells():
        assert value_at(matrix_cfg, g) == stable[g]


def test_code_tiles_enumerate_all_assignments(toy_cfg, toy_words):
    # restrictions of the coded word to the star cells of each code tile
    seen = set()
    st = toy_cfg.steps[1]
    v11 = by_cell(toy_cfg.levels[2].box, toy_words)
    for k in range(st.code_count):
        c = toy_cfg._cand_at(st, k)
        word = tuple(v11[Z_mul(a, c)] for a in toy_cfg.seed_stars)
        seen.add(word)
    assert len(seen) == st.code_count
    assert seen == {
        tuple(st.net.point_at(d) for d in combo) for combo in product(range(2), repeat=3)
    }


def Z_mul(a, c):
    return tuple(x + y for x, y in zip(a, c))


def test_eval_examples(toy_cfg):
    # star positions of the identity code tile carry the all-zero assignment
    zero = toy_cfg.steps[1].net.point_at(0)
    for a in toy_cfg.seed_stars:
        assert value_at(toy_cfg, a) == zero
    # a seed hash position never touched later stays hash
    assert value_at(toy_cfg, (2,)) is HASH
    assert value_at(toy_cfg, (2,), "x") == toy_cfg.params.cube.basepoint
    assert value_at(toy_cfg, (0,), "x") == zero


def test_no_star_and_window(toy_cfg):
    box2 = toy_cfg.levels[2].box
    vals = toy_cfg.window(box2, "w")
    assert all(v is not STAR for _, v in vals)
    xs = dict(toy_cfg.window(box2, "x"))
    for g, v in vals:
        assert xs[g] == (toy_cfg.params.cube.basepoint if v is HASH else v)


def test_window_singleton_matches_eval(toy_cfg):
    [(g, v)] = toy_cfg.window(Box((7,), (7,)), "w")
    assert v == value_at(toy_cfg, (7,))


def test_stabilization_under_deeper_plans(toy_cfg):
    sched = generate_interval_schedule(1, 2, 3)
    deep3 = Construction(
        toy_params(sched, Fraction(1, 2), depth=3, cap=4096)
    )
    deep4 = Construction(
        toy_params(sched, Fraction(1, 2), depth=4, cap=4096)
    )
    box2 = toy_cfg.levels[2].box
    for g in box2.cells():
        want = value_at(toy_cfg, g)
        assert value_at(deep3, g) == want
        assert value_at(deep4, g) == want


def test_top_descent_agrees_with_coded_path(toy_cfg):
    # the same value is reached via the deepest level word
    top = toy_cfg.params.depth + 1
    for g in toy_cfg.levels[2].box.cells():
        via_top = oracles.word(toy_cfg, top, g)
        assert values_equal(via_top, oracles.eval_w(toy_cfg, g))


def test_level_linking(matrix_cfg):
    # each level word reappears in the next one at the link tile
    for n in (1, 2):
        h = matrix_cfg.steps[n].link_center
        box = matrix_cfg.levels[n].box
        if box.volume > 2000:
            continue
        for pos in box.cells():
            lhs = oracles.word(matrix_cfg, n + 1, Z_mul(pos, h))
            assert values_equal(lhs, oracles.word(matrix_cfg, n, pos))


def test_per_tile_floor(toy_cfg, toy_words):
    # every thinned tile keeps its star count above rho - 1/|S_1|
    rho = toy_cfg.rho
    st = toy_cfg.steps[1]
    q = toy_cfg.schedule.periods(1)[0]
    vol1 = toy_cfg.levels[1].volume
    v11 = by_cell(toy_cfg.levels[2].box, toy_words)
    for j in st.tiles.cells():
        if j in st.cand:
            continue
        c = (j[0] * q,)
        stars = sum(
            1 for s in toy_cfg.schedule.level_box(1).cells() if v11[Z_mul(s, c)] is STAR
        )
        assert Fraction(stars, vol1) > rho - Fraction(1, vol1)


def test_star_rank_consistency(toy_cfg):
    stars = toy_cfg.star_positions(2)
    assert len(stars) == toy_cfg.levels[2].stars
    ranks = [oracles.stars_below(toy_cfg, 2, p) for p in stars]
    assert ranks == list(range(len(stars)))
    assert stars == sorted(stars)  # on Z the canonical star order is numeric


def test_realization_decode_exhaustive(toy_cfg):
    net = toy_cfg.steps[1].net
    centers = set()
    for combo in product(range(net.size), repeat=toy_cfg.levels[1].stars):
        pts = [net.point_at(d) for d in combo]
        centers.add(toy_cfg.realization_decode(1, pts))
    assert len(centers) == toy_cfg.steps[1].code_count
    zero = [net.point_at(0)] * toy_cfg.levels[1].stars
    assert toy_cfg.realization_decode(1, zero) == (0,)
    five = [net.point_at(d) for d in (1, 0, 1)]
    c5 = toy_cfg.realization_decode(1, five)
    for rank, pos in enumerate(toy_cfg.star_positions(1)):
        assert oracles.coded(toy_cfg, 1, Z_mul(pos, c5)) == five[rank]


def test_realization_decode_capped():
    cfg = make_toy(cap=4)
    st = cfg.steps[1]
    assert st.code_count == 4 and st.approximate
    net = st.net
    ok = [net.point_at(d) for d in (0, 1, 1)]  # index 3 < 4
    cfg.realization_decode(1, ok)
    with pytest.raises(NotRealizedError):
        cfg.realization_decode(1, [net.point_at(d) for d in (1, 0, 1)])  # index 5


def test_realization_decode_converts_only_coordinates_that_are_not_fractions(toy_cfg, monkeypatch):
    # int coordinates (and lists for points) decode to the same centers as
    # the net's Fraction points; Fraction coordinates reach the net's
    # check as the very objects given, so none is rebuilt
    from meandim.cube import Net

    net, stars = toy_cfg.steps[1].net, toy_cfg.levels[1].stars
    seen, index_of = [], Net.index_of

    def recorded(self, point):
        seen.extend(point)
        return index_of(self, point)

    monkeypatch.setattr(Net, "index_of", recorded)
    for combo in product(range(net.size), repeat=stars):
        points = [net.point_at(d) for d in combo]
        center = toy_cfg.realization_decode(1, points)
        assert all(got is want for got, want in zip(seen, (c for p in points for c in p)))
        plain = [[int(c) for c in p] for p in points]
        assert all(type(c) is int for p in plain for c in p)
        assert toy_cfg.realization_decode(1, plain) == center
        seen.clear()
    with pytest.raises(ValueError, match="not a net coordinate"):
        toy_cfg.realization_decode(1, [(2,)] * stars)


def test_depth_error_for_exact_deep_plan():
    sched = generate_interval_schedule(1, 2, 3)
    with pytest.raises(DepthError, match="capped"):
        Construction(toy_params(sched, Fraction(1, 2), depth=3))


def test_eval_beyond_depth_raises(toy_cfg):
    # a surviving level-2 star inside a non-code neighbour tile is only
    # resolved by the (unplanned) step after the configured depth
    star = toy_cfg.star_positions(2)[0]
    q2 = toy_cfg.schedule.periods(toy_cfg.levels[2].sched_level)[0]
    with pytest.raises(DepthError):
        value_at(toy_cfg, (q2 + star[0],))
    # the same relative coordinate in the identity tile is determined
    assert value_at(toy_cfg, star) is not None


def test_materialize_guard(toy_cfg, monkeypatch):
    from meandim import construction

    monkeypatch.setattr(construction, "MATERIALIZE_GUARD", 10)
    with pytest.raises(SizeGuardError):
        toy_cfg.materialize()


def test_render_value(toy_cfg):
    assert render_value(STAR) == "*"
    assert render_value(HASH) == "#"
    assert render_value((Fraction(1, 2),)) == "1/2"
    assert render_value((Fraction(0), Fraction(1))) == "0/1,1/1"


def test_plan_report_shape(toy_cfg):
    rep = toy_cfg.plan_report()
    assert rep["group"] == "Z" and rep["depth"] == 2
    assert rep["levels"][1]["stars"] == 163
    assert rep["steps"][0]["code_count"] == 8
    assert rep["approximate"] is False


def test_z2_construction_oracle():
    sched = generate_interval_schedule(1, 1, 3, group=Z2)
    cfg = Construction(toy_params(sched, Fraction(1, 2), dim=1, depth=1))
    word, box = cfg.materialize(), cfg.levels[2].box
    assert len(word) == box.volume
    v11 = by_cell(box, word)
    for g in box.cells():
        assert values_equal(oracles.word(cfg, 2, g), v11[g])
    stars = cfg.star_positions(2)
    assert len(stars) == cfg.levels[2].stars
    assert [oracles.stars_below(cfg, 2, p) for p in stars] == list(range(len(stars)))


def test_z2_infeasible_host_surplus_detected():
    # rho * |S_1| integral and a coarse schedule jump past the code block:
    # the uncoded host tiles alone break the density ceiling, at every level
    sched = generate_interval_schedule(1, 1, 3, group=Z2)
    from meandim import CapacityError

    with pytest.raises(CapacityError, match="host tiles"):
        Construction(toy_params(sched, Fraction(1, 3), dim=1, depth=2))


def test_z2_depth2_plan_and_eval():
    sched = generate_interval_schedule(1, 1, 3, group=Z2)
    cfg = Construction(toy_params(sched, Fraction(1, 2), dim=1, depth=2))
    st2 = cfg.steps[2]
    assert st2.code_exact is not None and not cfg.approximate
    box1 = cfg.levels[1].box
    zero = cfg.steps[1].net.point_at(0)
    for g in box1.cells():
        v = value_at(cfg, g)
        assert v is not STAR
        if g in cfg.seed_stars:
            assert v == zero
    # recurrence copy across one level-3 tile center
    q = cfg.schedule.periods(cfg.levels[3].sched_level)
    c = (q[0] * 3, -q[1] * 2)
    for g in box1.cells():
        assert value_at(cfg, (g[0] + c[0], g[1] + c[1])) == value_at(cfg, g)
    from meandim.analysis import minimality_check

    rep = minimality_check(cfg, 1, sample_size=10, seed=2)
    assert rep.ok


def test_identical_configs_evaluate_identically():
    # two independently planned identical configs must agree byte for byte
    a, b = make_toy(), make_toy()
    box = a.levels[2].box
    dump_a = " ".join(render_value(v) for _, v in a.window(box, "w"))
    dump_b = " ".join(render_value(v) for _, v in b.window(box, "w"))
    assert dump_a == dump_b


from hypothesis import example, given, settings, strategies as st  # noqa: E402


@st.composite
def candidate_boxes(draw):
    rank = draw(st.sampled_from([1, 2]))
    lo = tuple(draw(st.integers(-5, 0)) for _ in range(rank))
    hi = tuple(draw(st.integers(0, 5)) for _ in range(rank))
    return lo, hi


@given(candidate_boxes(), st.data())
@settings(max_examples=60, deadline=None)
def test_code_block_counting_matches_enumeration(box, data):
    # oracle: materialize the identity-first order and count directly
    lo, hi = box
    rank = len(lo)
    cells = sorted(product(*[range(l, h + 1) for l, h in zip(lo, hi)]))
    e_lex = cells.index((0,) * rank)
    order = [(0,) * rank] + [c for c in cells if c != (0,) * rank]
    R = data.draw(st.integers(1, len(cells)))
    t = data.draw(st.integers(0, len(cells)))

    class Step:
        code_count = R
        e_lexrank = e_lex

    subst = set(order[:R])
    want = sum(1 for c in cells[:t] if c in subst)
    assert Construction._coded_before(None, Step, t) == want
    for k, c in enumerate(order):
        assert Construction._cand_at_raw(k, Box(lo, hi), e_lex) == c


def test_digit_fast_path():
    digit = Construction._digit
    assert digit(0, 10**80, 3) == 0  # radix**exp dwarfs the index
    assert digit(5, 0, 2) == 1 and digit(5, 1, 2) == 0 and digit(5, 2, 2) == 1
    assert digit(5, 3, 2) == 0
    huge = 3**400 + 7
    assert digit(huge, 400, 3) == 1 and digit(huge, 1, 3) == 2  # 7 = 21_3


def test_deep_star_ranks_capped():
    # level-3 word arithmetic with the capped depth-3 plan
    cfg = make_toy(depth=3, cap=65536)
    st2 = cfg.steps[2]
    q2 = cfg.schedule.periods(cfg.levels[2].sched_level)[0]
    stars2 = cfg.star_positions(2)
    # the leftmost tile of the level-3 box is thinned: it sheds exactly its
    # first star and its first surviving star opens the level-3 star order
    c0 = st2.tiles.lows[0] * q2
    assert oracles.word(cfg, 3, (c0 + stars2[0][0],)) is HASH
    assert oracles.word(cfg, 3, (c0 + stars2[1][0],)) is STAR
    assert oracles.stars_below(cfg, 3, (c0 + stars2[1][0],)) == 0
    # the first uncoded tile inside the host follows the whole left thin zone
    j = st2.cand.cell_at(st2.code_count - 1)
    c = j[0] * q2
    left_tiles = st2.cand.lows[0] - st2.tiles.lows[0]
    want = left_tiles * (cfg.levels[2].stars - 1)  # each sheds one star
    assert oracles.stars_below(cfg, 3, (c + stars2[0][0],)) == want
    assert oracles.stars_below(cfg, 3, (c + stars2[1][0],)) == want + 1
    # a level-3 star inside the identity code tile resolves to net point 0
    g = (q2 + stars2[0][0],)
    assert oracles.word(cfg, 3, g) is STAR
    assert value_at(cfg, g) == cfg.steps[3].net.point_at(0)


def test_dim2_cube_points():
    sched = generate_interval_schedule(1, 2, 3)
    cfg = Construction(
        BuildParams(
            schedule=sched,
            rho=Fraction(1, 2),
            cube=Polyhedron(2),
            nets=net_schedule(2, 1),
            depth=1,
        )
    )
    vals = {v for _, v in cfg.window(cfg.levels[1].box, "w") if v is not HASH}
    assert all(len(v) == 2 for v in vals)
    box = cfg.levels[2].box
    v11 = by_cell(box, cfg.materialize())
    for g in box.cells():
        assert values_equal(oracles.word(cfg, 2, g), v11[g])


def test_group_rank_mismatch(toy_cfg):
    with pytest.raises(ValueError):
        value_at(toy_cfg, (1, 2))


def test_window_accepts_box(toy_cfg):
    vals = toy_cfg.window(Box((-8,), (8,)), "w")
    assert len(vals) == 17 and vals[0][0] == (-8,)


def test_plan_invariant_breaks_raise_meandim_errors(monkeypatch, capsys):
    # the planner does not re-check the density sandwich, which holds by
    # arithmetic; verify's sandwich row is its one check and catches a broken
    # star count, and the planner's own capacity tests still stop a plan it
    # cannot complete (raises, not asserts, so python -O keeps them)
    from meandim import CapacityError, construction
    from meandim.analysis import run_verification
    from meandim.cli import main

    real = Construction._target_stars

    def one_short(self, volume):
        # right for the seed tile, one star short (density exactly rho) above
        return real(self, volume) - (volume != self.params.schedule.volume(1))

    monkeypatch.setattr(Construction, "_target_stars", one_short)
    rows = {name: (ok, detail) for name, ok, detail in run_verification(make_toy(depth=1))}
    assert rows["density sandwich"] == (False, "level 2: 1/2")
    assert main(["verify", "--config", TOY_Z_CFG, "--depth", "1"]) == 1
    assert "FAIL density sandwich: level 2: 1/2" in capsys.readouterr().out.splitlines()
    # a lowered level cap keeps the futile climb short
    monkeypatch.setattr(construction, "MAX_SCHED_LEVEL", 200)
    with pytest.raises(CapacityError, match="^step 3: outside star mass unsatisfiable through level 200$"):
        make_toy()


def test_anchor_outside_every_level_is_refused():
    # left balance never moves a level's high ends, here (1, 0), so step 4's
    # anchor, shifted by g_3 = (1, 1), lies in no level of the schedule
    from meandim import CapacityError
    from meandim.schedules import AxisRule, TilingSchedule

    sched = TilingSchedule(Z2, (AxisRule.make(0, 1, [6, 2]), AxisRule.make(1, 0, [2, 2])), "left")
    with pytest.raises(CapacityError, match="^step 4: anchor containment unsatisfiable through level 100000$"):
        Construction(toy_params(sched, Fraction(3, 4), depth=3, cap=24))


# -- tile-batched windows against the pointwise evaluator ---------------------


def or_error(evaluate):
    """evaluate(), with a DepthError turned into a comparable value."""
    try:
        return evaluate()
    except DepthError as exc:
        return ("DepthError", str(exc))


def oracle_window(cfg, cells, kind):
    """``cfg.window(box, kind)`` cell by cell from the pointwise oracle."""
    base = cfg.params.cube.basepoint
    out = []
    for g in cells:
        v = oracles.eval_w(cfg, g)
        out.append((tuple(g), base if kind != "w" and v is HASH else v))
    return out


def assert_batched_matches_pointwise(cfg, box):
    # cfg.window on a Box (batched) and its values alone against the
    # pointwise oracle, cell by cell
    for kind in ("w", "x"):
        pointwise = or_error(lambda: oracle_window(cfg, box.cells(), kind))
        assert or_error(lambda: cfg.window(box, kind)) == pointwise, (box, kind)
        if isinstance(pointwise, list):
            pointwise = [v for _, v in pointwise]
        assert or_error(lambda: cfg.window_values(box, kind)) == pointwise, (box, kind)


@pytest.fixture(scope="module")
def deep_capped_cfg():
    return make_toy(depth=3, cap=4096)


@pytest.fixture(scope="module")
def z2_cfgs():
    sched = generate_interval_schedule(1, 1, 3, group=Z2)
    return {
        depth: Construction(toy_params(sched, Fraction(1, 2), dim=1, depth=depth))
        for depth in (1, 2)
    }


def thinning_cut_tile(cfg, n):
    """The level-n tile of thinning rank ``thin_total`` of step n (the first
    thinning-zone tile that keeps all its stars), in level-(n+1) coordinates;
    None if there is none.  The rows of tiles (one leading index each; Z has
    one row) come in three runs, before, across and after the host's rows,
    and every row of a run holds the same number of thinning-zone tiles, so
    one division per run places the cut, as ``_TileWalk._runs`` does."""
    step = cfg.steps[n]
    tiles, host = step.tiles, step.cand
    width = tiles.highs[-1] - tiles.lows[-1] + 1
    inside = host.highs[-1] - host.lows[-1] + 1  # host tiles in a row across the host
    if tiles.rank == 1:
        runs = [((), 1, inside)]
    else:  # Z^2: a run is (its first row's leading index, its rows, host tiles per row)
        (a, b), (ha, hb) = (tiles.lows[0], tiles.highs[0]), (host.lows[0], host.highs[0])
        runs = [((a,), ha - a, 0), ((ha,), hb - ha + 1, inside), ((hb + 1,), b - hb, 0)]
    rank = step.thin_total
    for lead, rows, skip in runs:
        per_row = width - skip
        if rank < rows * per_row:
            row, k = divmod(rank, per_row)
            if skip and k >= host.lows[-1] - tiles.lows[-1]:
                k += skip  # past the host tiles, which are never thinned
            j = tuple(x + row for x in lead) + (tiles.lows[-1] + k,)
            break
        rank -= rows * per_row
    else:
        return None
    # thin_total thinning-zone tiles lie before it
    assert j not in host and tiles.count_below(j) - host.count_below(j) == step.thin_total, (n, j)
    center = tuple(jj * q for jj, q in zip(j, cfg.levels[n].periods))
    return cfg.levels[n].box.translate(center)


def edge_boxes(cfg):
    """Level tiles, host boxes and thinning-cut tiles whose coordinates stay
    printable: a Box with thousands of digits (Z^2 at depth 2) cannot even be
    printed when a case fails."""
    printable = [lvl.n for lvl in cfg.levels.values() if lvl.volume < 10**200]
    boxes = [cfg.levels[n].box for n in printable]
    for n in (n for n in printable if n + 1 in printable):
        boxes += [cfg.steps[n].host_box, thinning_cut_tile(cfg, n)]
    return [box for box in boxes if box is not None]


@st.composite
def windows_near_edges(draw, cfg, max_side):
    """A box within a few cells of some edge of ``edge_boxes`` (the top
    level tile included), often shifted by a multiple of the top period out
    to about 10**80."""
    edges = draw(st.sampled_from(edge_boxes(cfg)))
    top = cfg.levels[cfg.params.depth + 1]
    lows, highs = [], []
    for axis in range(cfg.group.rank):
        edge = draw(st.sampled_from([edges.lows[axis], edges.highs[axis], 0]))
        lo = edge + draw(st.integers(-max_side, max_side))
        lows.append(lo)
        highs.append(lo + draw(st.integers(0, max_side - 1)))
    k = 0
    if top.volume < 10**200:
        k = draw(st.sampled_from([0, 0, 1, -3, 10**80 // top.periods[0] + 7]))
    shift = tuple(k * q for q in top.periods)
    return Box(tuple(x + s for x, s in zip(lows, shift)), tuple(x + s for x, s in zip(highs, shift)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_batched_window_matches_pointwise_z_exact(toy_cfg, data):
    assert_batched_matches_pointwise(toy_cfg, data.draw(windows_near_edges(toy_cfg, 40)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_batched_window_matches_pointwise_z_capped(deep_capped_cfg, data):
    cfg = deep_capped_cfg
    assert_batched_matches_pointwise(cfg, data.draw(windows_near_edges(cfg, 40)))


@given(st.data(), st.sampled_from([1, 2]))
@settings(max_examples=30, deadline=None)
def test_batched_window_matches_pointwise_z2(z2_cfgs, data, depth):
    cfg = z2_cfgs[depth]
    assert_batched_matches_pointwise(cfg, data.draw(windows_near_edges(cfg, 9)))


@st.composite
def boxes_by_level(draw, cfg, max_side):
    """A box inside some level-n tile, one straddling an edge of that tile,
    or one beyond the top level tile: shifted by whole top periods (out to
    about 10**80) or placed near 10**80 outright."""
    depth = cfg.params.depth
    tile = cfg.levels[draw(st.integers(1, depth + 1))].box
    place = draw(st.sampled_from(["inside", "edge", "beyond"]))
    straddle = draw(st.integers(0, cfg.group.rank - 1))
    lows, highs = [], []
    for axis, (lo_t, hi_t) in enumerate(zip(tile.lows, tile.highs)):
        side = min(draw(st.integers(1, max_side)), hi_t - lo_t + 1)
        if place == "edge" and axis == straddle:
            edge = draw(st.sampled_from([lo_t, hi_t + 1]))  # the first cell past a side
            side = max(side, 2)
            lo = draw(st.integers(edge - side + 1, edge - 1))
        else:
            lo = draw(st.integers(lo_t, hi_t - side + 1))
        lows.append(lo)
        highs.append(lo + side - 1)
    box = Box(lows, highs)
    if place == "beyond":
        top = cfg.levels[depth + 1].periods
        k = draw(st.sampled_from([1, -3, 10**80 // top[0] + 7, None]))
        shift = (10**80,) * cfg.group.rank if k is None else tuple(k * q for q in top)
        box = box.translate(shift)
    return box


@given(st.sampled_from(["Z", "Z capped", "Z2 depth 1", "Z2 depth 2"]), st.data())
@settings(max_examples=80, deadline=None)
def test_walk_from_the_smallest_tile_matches_the_oracle(toy_cfg, deep_capped_cfg, z2_cfgs, case, data):
    # window_values starts the walk at the smallest level tile that holds
    # the box; the pointwise oracle descends from the level of each cell
    cfg = {"Z": toy_cfg, "Z capped": deep_capped_cfg,
           "Z2 depth 1": z2_cfgs[1], "Z2 depth 2": z2_cfgs[2]}[case]
    box = data.draw(boxes_by_level(cfg, 40 if cfg.group.rank == 1 else 6))
    cells = list(box.cells())
    want = or_error(lambda: [oracles.eval_w(cfg, g) for g in cells])
    assert or_error(lambda: cfg.window_values(box)) == want, box
    for g in data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)):
        assert or_error(lambda: value_at(cfg, g)) == or_error(lambda: oracles.eval_w(cfg, g)), g


def test_evaluation_keeps_no_state_on_the_construction():
    # evaluator memory is bounded by the window: batched windows, pointwise
    # cells and star ranking leave the construction as it was planned
    cfg = make_toy(depth=3, cap=4096)
    planned = dict(vars(cfg))
    sizes = {name: len(v) for name, v in planned.items() if hasattr(v, "__len__")}
    far = 10**80 // cfg.levels[4].periods[0] * cfg.levels[4].periods[0]
    for lo in (-3000, far - 3000):
        box = Box((lo,), (lo + 6000,))
        assert len(cfg.window(box)) == 6001
        assert [(g, value_at(cfg, g)) for g in list(box.cells())[:300]] == cfg.window(Box((lo,), (lo + 299,)))
    cfg.star_positions(2)
    assert vars(cfg) == planned
    assert {name: len(planned[name]) for name in sizes} == sizes


def corner_boxes(cfg, n, lead=6):
    """Boxes of V_(n+1) across each corner of the host of step n and of
    its thinning-cut tile, clipped to the level-(n+1) tile: ``lead`` cells
    each way along the first axis, 6 along the others."""
    outer, host = cfg.levels[n + 1].box, cfg.steps[n].host_box
    cut = thinning_cut_tile(cfg, n)
    for corner in (host.lows, host.highs) + ((cut.lows, cut.highs) if cut else ()):
        reach = (lead,) + (6,) * (len(corner) - 1)
        lows = tuple(max(x - r, lo) for x, r, lo in zip(corner, reach, outer.lows))
        highs = tuple(min(x + r, hi) for x, r, hi in zip(corner, reach, outer.highs))
        yield Box(lows, highs)


def band_boxes(cfg, n, whole_rows=False):
    """Boxes of V_(n+1) on the Z^2 toys whose first and last bands (rows of
    level-n tiles) are partial pieces, one row short at each end, and whose
    inner bands run across the thinning cut's band, up to the host's first
    band and on from its last.  Their columns end in the cut's tile, start
    in it, or end in the host's first column, two cells into each end tile,
    or with ``whole_rows`` take the whole row but a cell at each end; all
    clipped to the level-(n+1) tile."""
    outer, step, cut = cfg.levels[n + 1].box, cfg.steps[n], thinning_cut_tile(cfg, n)
    (tlo, tlo1), (thi, thi1), (q, q1) = cfg.levels[n].box.lows, cfg.levels[n].box.highs, cfg.levels[n].periods
    jc, kc = ((x - lo) // p for x, lo, p in zip(cut.lows, (tlo, tlo1), (q, q1)))  # the cut tile's j
    (h0, c0), h1 = step.cand.lows, step.cand.highs[0]
    columns = [(kc - 1, kc), (kc, kc + 1), (c0 - 1, c0)]
    spans = [(k0 * q1 + thi1 - 1, k1 * q1 + tlo1 + 1) for k0, k1 in columns]
    if whole_rows:
        spans.append((outer.lows[1] + 1, outer.highs[1] - 1))
    for j0, j1 in ((jc - 3, jc + 3), (h0 - 4, h0 + 1), (h1 - 1, h1 + 4)):
        j0, j1 = max(j0, step.tiles.lows[0]), min(j1, step.tiles.highs[0])
        for lo1, hi1 in spans:
            lows, highs = (j0 * q + tlo + 1, lo1), (j1 * q + thi - 1, hi1)
            yield Box(tuple(map(max, lows, outer.lows)), tuple(map(min, highs, outer.highs)))


def pointwise_star_index(cfg, n, box, word):
    """The walk's star index of a box of V_n from the pointwise oracles: the
    rank of each star the box holds, mapped to its cell index in the box."""
    return {oracles.stars_below(cfg, n, g): i for i, (g, v) in enumerate(zip(box.cells(), word)) if v is STAR}


def test_tile_walk_words_and_ranks_match_pointwise(toy_cfg, deep_capped_cfg, z2_cfgs):
    from meandim.construction import _TileWalk

    cases = [
        (toy_cfg, 2, toy_cfg.levels[2].box),
        (toy_cfg, 3, Box((-700,), (500,))),
        (deep_capped_cfg, 3, Box((-900,), (-100,))),
        (deep_capped_cfg, 4, Box((-300,), (300,))),
        (z2_cfgs[1], 2, Box((-40, -121), (-20, -90))),
        (z2_cfgs[2], 2, Box((100, -30), (121, -10))),
    ]
    # boxes of V_(n+1) across each host edge and around each thinning-cut
    # tile; the last two configs put their cut before the host
    z2_early_cut = Construction(toy_params(
        generate_interval_schedule(0, 1, 3, group=Z2), Fraction(1, 5), dim=1, depth=1))
    for cfg in (toy_cfg, deep_capped_cfg, z2_cfgs[1], z2_cfgs[2], make_toy(0, 2), z2_early_cut):
        for n in cfg.steps:
            cases += [(cfg, n + 1, box) for box in corner_boxes(cfg, n)]
    for cfg, n, box in cases:
        want = [oracles.word(cfg, n, g) for g in box.cells()]
        walk = _TileWalk(cfg)
        codes, index = walk.values(n, box.lows, box.highs, False)[:2]
        words = [walk.palette[c] for c in codes]
        assert words == want, (n, box)
        assert index is None or index == {} and STAR not in want, (n, box)  # {}: known to hold no star
        walk = _TileWalk(cfg)
        codes, index = walk.values(n, box.lows, box.highs, True)[:2]
        words = [walk.palette[c] for c in codes]
        assert words == want, (n, box)
        assert index == pointwise_star_index(cfg, n, box, want), (n, box)
        assert_tokens_sound(walk)


@given(
    st.sampled_from([("Z", 2), ("Z", 3), ("Z capped", 2), ("Z capped", 3), ("Z capped", 4), ("Z2 depth 1", 2),
                     ("Z2 depth 2", 2)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_tile_walk_ranks_match_pointwise_on_random_boxes(toy_cfg, deep_capped_cfg, z2_cfgs, case, data):
    # random boxes of V_n inside the level-n tile, n >= 2; on Z^2 each box
    # spans at least three level-(n-1) tiles on the leading axis, so it
    # crosses bands, and every box holds at most about 600 cells; a Z^2
    # level-3 box that tall has over 486 cells at 1-2 ms each in the
    # pointwise oracle, so level 3 of the Z^2 toy keeps its corner boxes
    from meandim.construction import _TileWalk

    name, n = case
    cfg = {"Z": toy_cfg, "Z capped": deep_capped_cfg, "Z2 depth 1": z2_cfgs[1], "Z2 depth 2": z2_cfgs[2]}[name]
    tile, q = cfg.levels[n].box, cfg.levels[n - 1].periods
    sizes = [data.draw(st.integers(2 * q[0] + 1, 3 * q[0]))] if len(q) == 2 else []
    width = tile.highs[-1] - tile.lows[-1] + 1
    sizes.append(data.draw(st.integers(1, min(max(1, 600 // math.prod(sizes)), width))))
    lows = tuple(data.draw(st.integers(lo, hi - size + 1)) for lo, hi, size in zip(tile.lows, tile.highs, sizes))
    box = Box(lows, tuple(lo + size - 1 for lo, size in zip(lows, sizes)))
    want = [oracles.word(cfg, n, g) for g in box.cells()]
    walk = _TileWalk(cfg)
    codes, index = walk.values(n, box.lows, box.highs, False)[:2]
    assert index is None or index == {} and STAR not in want  # {}: known to hold no star
    assert [walk.palette[c] for c in codes] == want
    walk = _TileWalk(cfg)
    codes, index = walk.values(n, box.lows, box.highs, True)[:2]
    assert [walk.palette[c] for c in codes] == want
    assert index == pointwise_star_index(cfg, n, box, want)
    assert_tokens_sound(walk)


def test_one_walk_slices_the_walked_tile_and_copies_repeated_bands(z2_cfgs):
    # a view's walk that holds the whole level-2 tile slices later boxes of
    # V_2 from it, and lays boxes of V_3 from level-2 pieces sliced from it,
    # copying each band whose piece bounds and runs repeat an earlier one
    for cfg in z2_cfgs.values():
        view, tile = cfg.with_one_walk(), cfg.levels[2].box
        assert view.level_values(2, tile) == cfg.materialize()
        cases = [(n + 1, box) for n in cfg.steps for box in corner_boxes(cfg, n)]
        if cfg.params.depth >= 2:
            # three bands of level-2 tiles above the step-2 host: the last
            # three rows of one tile, a whole tile, the first three rows of
            # the next, so the boundary bands differ only in piece bounds
            top, left, q = *cfg.steps[2].host_box.lows, cfg.levels[2].periods[0]
            cases.append((3, Box((top - 2 * q - 3, left - 1), (top - q + 2, left + 1))))
        for n, box in cases:
            assert view.level_values(n, box) == [oracles.word(cfg, n, g) for g in box.cells()], (n, box)


@pytest.mark.parametrize("case", ["centered", "left", "right", "early cut"])
def test_values_only_walk_copies_bands_as_a_ranks_walk_lays_them(monkeypatch, case):
    # a ranks walk lays every band; a values-only walk copies a band off the
    # host by its piece bounds and its thinning cut clamped to the band, and
    # one on the host by its runs, and adds each run of like bands off the
    # host at once.  Boxes of V_(n+1) two level-n tiles each way across each
    # host corner and thinning-cut tile cross the cut band and the host
    # bands, and band boxes with partial first and last bands run across
    # the cut and beside the host; the thinning cut lies in a host band on
    # the centered config, before the host on the left and early-cut ones
    # and after it on the right one
    from meandim.construction import _TileWalk

    if case == "early cut":
        cfgs = [Construction(toy_params(
            generate_interval_schedule(0, 1, 3, group=Z2), Fraction(1, 5), dim=1, depth=1))]
    else:
        sched = generate_interval_schedule(1, 1, 3, case, group=Z2)
        cfgs = [Construction(toy_params(sched, Fraction(1, 2), dim=1, depth=depth)) for depth in (1, 2)]
    for cfg in cfgs:
        cases = [(2, cfg.levels[2].box)]
        cases += [(n + 1, box) for n in cfg.steps for box in corner_boxes(cfg, n, 2 * cfg.levels[n].periods[0])]
        cases += [(n + 1, box) for n in cfg.steps for box in band_boxes(cfg, n, n == 1)]
        for n, box in cases:
            walk = _TileWalk(cfg)
            codes = walk.values(n, box.lows, box.highs, True)[0]
            want = [walk.palette[c] for c in codes]
            walk = _TileWalk(cfg)
            codes = walk.values(n, box.lows, box.highs, False)[0]
            assert [walk.palette[c] for c in codes] == want, (n, box)
        # on the level-2 tile each band resolves its runs at most once, and a
        # band off the host only if it is laid: one thinned whole, one cut
        # inside and one not thinned at most; each band's line terms differ.
        # Off the host only the first band, the first of each run and the
        # last band work out their line terms: at most 4 bands on each side
        bands, runs, keyed, line_base = [], _TileWalk._runs, [], Box.line_base
        tile, host, tiles = cfg.levels[2].box, cfg.steps[1].cand, cfg.steps[1].tiles

        def counted(self, step, terms, *rest):
            bands.append(terms)
            return runs(self, step, terms, *rest)

        def counted_line_base(self, lead):
            if self is tiles:
                keyed.append(lead)
            return line_base(self, lead)

        monkeypatch.setattr(_TileWalk, "_runs", counted)
        monkeypatch.setattr(Box, "line_base", counted_line_base)
        _TileWalk(cfg).values(2, tile.lows, tile.highs, False)
        monkeypatch.undo()
        host_rows = host.highs[0] - host.lows[0] + 1
        assert len(bands) == len(set(bands)) <= host_rows + 3
        assert len(keyed) == len(set(keyed)) <= host_rows + 8


def test_long_link_index_is_divided_once_and_only_when_read(monkeypatch):
    # step 2 of the Z^2 toy at depth 2 puts its link tile at a 46,797-bit
    # index of its candidates: planning and a window never divide it out, as
    # the anchor test reads the host box moved by the shift, and the plan
    # report divides it out once, however often it is read
    from types import SimpleNamespace
    from meandim.cli import load_config

    path = Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg"
    params = load_config(str(path), SimpleNamespace(depth=2, mode=None, seed=None))
    long_indices, cell_at = [], Box.cell_at

    def counted(self, index):
        if index.bit_length() > 64:
            long_indices.append(index)
        return cell_at(self, index)

    monkeypatch.setattr(Box, "cell_at", counted)
    cfg = Construction(params)
    assert len(cfg.window_values(Box((-40, -40), (40, 40)))) == 81 * 81
    assert long_indices == []
    assert cfg.plan_report() == cfg.plan_report()
    assert [i.bit_length() for i in long_indices] == [46_797]


def test_tile_walk_palette_codes_each_net_point_once(deep_capped_cfg, z2_cfgs):
    # the walk lays tokens, which its palette maps back to values: STAR_TOKEN
    # to STAR, HASH_TOKEN to HASH, and each net point gets its token the first
    # time a code tile needs it, so the palette is bounded by the nets,
    # however many windows the walk lays
    cases = [
        (deep_capped_cfg, [Box((-20621,), (19379,)), Box((-3000,), (3000,)), Box((10**80,), (10**80 + 500,))]),
        (make_toy(dim=2), [Box((-300,), (300,))]),
        (z2_cfgs[2], [Box((-40, -40), (40, 40)), Box((-200, -3), (200, 3))]),
    ]
    for cfg, boxes in cases:
        view = cfg.with_one_walk()
        walk = view._walk
        bound = 2 + sum(net.size for net in cfg.params.nets)
        sizes = []
        for box in boxes * 2:
            codes, palette = view._walk_box(box)
            assert palette is walk.palette
            assert palette[STAR_TOKEN] is STAR and palette[HASH_TOKEN] is HASH
            assert set(codes) <= palette.keys() and len(palette) <= bound
            sizes.append(len(palette))
        # laying the same windows again adds no code
        assert sizes[len(boxes):] == [sizes[len(boxes) - 1]] * len(boxes)
        assert sizes[-1] > 2
        laid = [(n, d, token) for n, row in walk.points.items() for d, token in enumerate(row) if token is not None]
        assert {token for _, _, token in laid} == walk.palette.keys() - {STAR_TOKEN, HASH_TOKEN}
        for n, d, token in laid:
            assert walk._point(cfg.steps[n], d) is token
            assert walk.palette[token] == cfg.steps[n].net.point_at(d)
        assert len(walk.palette) == sizes[-1]
        assert_tokens_sound(walk)
        # a point filed under another point's token breaks the rule
        n, d, token = laid[0]
        walk.points[n][d] = next(t for _, _, t in laid if t != token)
        with pytest.raises(AssertionError):
            assert_tokens_sound(walk)


def test_starless_piece_is_its_own_digit_zero_template(monkeypatch, deep_capped_cfg):
    # the capped depth-3 window near the origin is V_3 read through code tile
    # 0 of step 3 and holds no star: _coded returns the walk's memoized list
    # itself, adds no digit-0 net point, and a non-zero code ranks nothing;
    # a piece with stars still gets a substituted copy of its memoized list
    from meandim.construction import _TileWalk

    ranked, values = [], _TileWalk.values

    def counted(self, n, lows, highs, ranks):
        if ranks:
            ranked.append((n, lows, highs))
        return values(self, n, lows, highs, ranks)

    monkeypatch.setattr(_TileWalk, "values", counted)
    cfg = deep_capped_cfg
    walk = _TileWalk(cfg)
    key = (3, (-20621,), (19379,))
    coded = walk._coded(cfg.steps[3], key, 0)
    assert coded is walk.memo[key][0] and STAR_TOKEN not in coded
    assert walk.points[3][0] is None
    assert key not in ranked  # only the step-2 code pieces it was laid from
    ranked.clear()
    assert walk._coded(cfg.steps[3], key, cfg.steps[3].code_count - 1) is coded
    assert ranked == [] and walk.memo[key][1] == {}  # no star ranks were walked
    # a starless piece that no lay marks, the last cell of V_1 past its seed
    # stars, is scanned once and indexed {}: a non-zero code ranks it neither
    piece = (1, cfg.levels[1].box.highs, cfg.levels[1].box.highs)
    assert walk._coded(cfg.steps[1], piece, cfg.steps[1].code_count - 1) is walk.memo[piece][0]
    assert ranked == [] and walk.memo[piece][1] == {}
    tile = cfg.levels[2].box
    key = (2, tile.lows, tile.highs)
    memo = walk.values(*key, False)[0]
    zero = walk._point(cfg.steps[2], 0)
    coded = walk._coded(cfg.steps[2], key, 0)
    assert coded is not memo and coded == [zero if v == STAR_TOKEN else v for v in memo]
    last = walk._coded(cfg.steps[2], key, cfg.steps[2].code_count - 1)
    assert last != coded and walk.memo[key][0] is memo and memo.count(STAR_TOKEN) == cfg.levels[2].stars
    # the near window's top word is laid from step-2 code tiles alone, so the
    # walk indexes it {} and _coded takes it as its template unscanned; the
    # level-2 tile, which holds stars, is not indexed {}
    walk, near = _TileWalk(cfg), (3, (-20621,), (19379,))
    ScanCounted.scans = 0
    rec = walk.values(*near, False)
    assert rec[1] == {} and walk.memo[key][1] != {}
    rec[0] = ScanCounted(rec[0])
    assert walk._coded(cfg.steps[3], near, 0) is rec[0]
    assert ScanCounted.scans == 0
    # the same word reached as copies of V_4, shifted by the top period, is
    # that word itself: a box inside one tile is laid as its piece, uncopied
    view = cfg.with_one_walk()
    far = Box(*near[1:]).translate((10**80 // cfg.levels[4].periods[0] * cfg.levels[4].periods[0],))
    codes, _ = view.window_codes(far)
    assert codes is view._walk.memo[near][0] and view._walk.memo[(4, *near[1:])][1] == {}
    assert_tokens_sound(walk)
    assert_tokens_sound(view._walk)


def test_ranking_a_memoized_piece_keeps_its_record(toy_cfg):
    # the level-2 tile laid values-only and given its digit-0 template, then
    # ranked by the thinned tile that opens step 2's thinning zone, keeps one
    # record: the ranks walk fills in its index and leaves its codes list and
    # template as they were, and the thinned copy joins the same record
    from meandim.construction import _TileWalk

    cfg, walk = toy_cfg, _TileWalk(toy_cfg)
    step, tile = cfg.steps[2], cfg.levels[2].box
    key = (2, tile.lows, tile.highs)
    rec = walk.values(*key, False)
    codes, template = rec[0], walk._coded(step, key, 0)
    assert rec[1] is None and rec[2] is template and template is not codes
    assert step.tiles.lows[0] < step.cand.lows[0] and step.thin_total > 0  # tile tiles.lows is thinned
    thinned = tile.translate((step.tiles.lows[0] * step.periods[0],))
    laid = walk.values(3, thinned.lows, thinned.highs, False)[0]
    assert walk.memo[key] is rec and rec[0] is codes and rec[2] is template
    word = [walk.palette[c] for c in codes]
    assert rec[1] == pointwise_star_index(cfg, 2, tile, word)
    first = rec[1][0]
    assert laid is rec[3] and laid == [*codes[:first], HASH_TOKEN, *codes[first + 1:]]
    assert walk._coded(step, key, 0) is template


class ScanCounted(list):
    """A list that counts the membership tests made on any instance."""

    scans = 0

    def __contains__(self, value):
        ScanCounted.scans += 1
        return super().__contains__(value)


def assert_clean_words_hold_no_star(walk):
    """Every record the walk indexes ``{}`` (known starless) holds no
    ``STAR_TOKEN``; returns how many there are."""
    clean = [(key, rec[0]) for key, rec in walk.memo.items() if rec[1] == {}]
    for key, codes in clean:
        assert STAR_TOKEN not in codes, key
    return len(clean)


def assert_tokens_sound(walk):
    """The walk's token rule: each palette entry renders back to its own
    token, each point laid in ``points`` is filed under its own token, and
    every list in the memo holds only the palette's str objects, so equal
    values share one object."""
    for token, value in walk.palette.items():
        assert token == (STAR_TOKEN if value is STAR else HASH_TOKEN if value is HASH else render_value(value))
    assert all(walk.tokens[value] is token for token, value in walk.palette.items() if value not in (STAR, HASH))
    for n, row in walk.points.items():
        for d, token in enumerate(row):
            assert token is None or walk.palette[token] == walk.cfg.steps[n].net.point_at(d), (n, d)
    ids = set(map(id, walk.palette))
    assert {id(t) for row in walk.points.values() for t in row if t is not None} <= ids
    for key, rec in walk.memo.items():
        for codes in (rec[0], rec[2], rec[3]):
            assert codes is None or set(map(id, codes)) <= ids, key


def test_words_marked_starless_hold_no_star(toy_cfg, deep_capped_cfg, z2_cfgs):
    # the empty star index is sound: a record indexed {} (a word laid only
    # from code-tile pieces and pieces already indexed {}, or one found
    # starless) never holds STAR_TOKEN, whichever boxes, levels and windows
    # one walk has laid; and every token the walk lays keeps the token rule
    marked = 0
    for cfg in (toy_cfg, deep_capped_cfg, z2_cfgs[1], z2_cfgs[2]):
        view = cfg.with_one_walk()
        tile = cfg.levels[2].box
        boxes = [(2, tile)] + [(n + 1, box) for n in cfg.steps for box in corner_boxes(cfg, n)]
        for n, box in boxes:
            view.level_codes(n, box)
        top = cfg.levels[cfg.params.depth + 1].periods
        for box in (tile, Box((-40,) * len(top), (40,) * len(top))):
            for shift in ((0,) * len(top), tuple(10**80 // q * q for q in top)):
                with contextlib.suppress(DepthError):
                    view.window_codes(box.translate(shift))
        marked += assert_clean_words_hold_no_star(view._walk)
        assert_tokens_sound(view._walk)
    assert marked


@pytest.mark.parametrize("case", ["Z", "Z dim 2", "Z2"])
def test_x_window_is_the_w_window_with_hashes_at_the_basepoint(deep_capped_cfg, z2_cfgs, case):
    cfg, box = {
        "Z": (deep_capped_cfg, Box((-20621,), (19379,))),
        "Z dim 2": (make_toy(dim=2), make_toy(dim=2).levels[2].box),
        "Z2": (z2_cfgs[2], Box((-40, -40), (40, 40))),
    }[case]
    w = cfg.window_values(box, "w")
    assert any(v is HASH for v in w) and any(v is not HASH for v in w)
    base = cfg.params.cube.basepoint
    assert cfg.window_values(box, "x") == [base if v is HASH else v for v in w]


def test_depth_error_names_huge_coordinates(toy_cfg):
    # (-200,) is undetermined at depth 2 (see the CLI window test); so is
    # every translate of it by a top-level period
    q = toy_cfg.levels[3].periods[0]
    g = (-200 + (10**4400 // q) * q,)
    for evaluate in (
        lambda: value_at(toy_cfg, g),
        lambda: toy_cfg.window(Box(g, (g[0] + 1,))),
    ):
        with pytest.raises(DepthError) as info:
            evaluate()
        with int_str_limit_lifted():
            assert str(info.value) == f"value at {g} is not determined at depth 2"


def pointwise_star_order(cfg, n):
    """The stars of V_n sorted by their pointwise rank, the walk's oracle."""
    box = cfg.levels[n].box
    stars = [g for g in box.cells() if oracles.word(cfg, n, g) is STAR]
    return sorted(stars, key=lambda g: oracles.stars_below(cfg, n, g))


@pytest.fixture(scope="module")
def z2_star_orders(z2_cfgs):
    """The pointwise order of the level-2 stars per depth (about 0.7 s each)."""
    return {depth: pointwise_star_order(cfg, 2) for depth, cfg in z2_cfgs.items()}


@given(
    st.sampled_from(["Z", "Z capped", "Z2"]),
    st.integers(0, 3),
    st.integers(1, 3),
    st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]),
    st.integers(1, 2),
)
@settings(max_examples=30, deadline=None)
def test_star_positions_follow_pointwise_rank_order(
    z2_cfgs, z2_star_orders, case, seed_a, seed_b, rho, n
):
    if case == "Z2":
        # the only small feasible Z^2 toy; depth n, level 2 (59,049 cells)
        assert z2_cfgs[n].star_positions(2) == z2_star_orders[n]
        return
    flags = {"depth": 3, "cap": 4096} if case == "Z capped" else {}
    cfg = make_toy(seed_a, seed_b, rho, **flags)
    stars = cfg.star_positions(n)
    assert len(stars) == cfg.levels[n].stars
    assert stars == pointwise_star_order(cfg, n)


def assert_sheds_one_star_per_tile(cfg):
    """Every level word holds one star above its density floor, so the literal
    greedy thinning (``materialize()``) takes the first seed star of each
    of the first thin_total thinning-zone tiles, in lexicographic order, and
    nothing else."""
    rho = cfg.rho
    for lvl in cfg.levels.values():
        assert lvl.stars == (rho.numerator * lvl.volume) // rho.denominator + 1
    for step in cfg.steps.values():
        assert step.thin_total <= step.tiles.volume - step.cand.volume
    step, lvl1, v11 = cfg.steps[1], cfg.levels[1], by_cell(cfg.levels[2].box, cfg.materialize())
    zone = [j for j in step.tiles.cells() if j not in step.cand]
    cells1 = list(lvl1.box.cells())
    stars_of = {}  # the star cells of each thinning-zone tile, relative to its center
    for j in zone:
        c = tuple(jj * qq for jj, qq in zip(j, lvl1.periods))
        stars_of[j] = [a for a in cells1 if v11[Z_mul(a, c)] is STAR]
    assert [j for j in zone if len(stars_of[j]) < lvl1.stars] == zone[:step.thin_total]
    for rank, j in enumerate(zone):
        assert stars_of[j] == list(cfg.seed_stars[1:] if rank < step.thin_total else cfg.seed_stars)


@given(
    st.integers(0, 3),
    st.integers(1, 3),
    st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(3, 7), Fraction(1, 2), Fraction(2, 3)]),
    st.integers(1, 2),
)
@settings(max_examples=40, deadline=None)
def test_literal_thinning_sheds_one_star_per_tile(seed_a, seed_b, rho, depth):
    assert_sheds_one_star_per_tile(make_toy(seed_a, seed_b, rho, depth=depth))


@pytest.mark.parametrize("depth", [1, 2])
def test_literal_thinning_sheds_one_star_per_tile_z2(z2_cfgs, depth):
    assert_sheds_one_star_per_tile(z2_cfgs[depth])


def test_z2_depth2_literal_words_match_the_walk(z2_cfgs):
    # the literal V_2 and its stabilized word against the tile walk on the
    # whole level-2 tile, and a sample of cells against one-cell windows
    cfg = z2_cfgs[2]
    word, box = cfg.materialize(), cfg.levels[2].box
    stable = stabilized(cfg, word)
    assert word == cfg.level_values(2, box)
    assert stable == cfg.window_values(box, "w")
    cells = list(box.cells())
    sample = sorted(random.Random(2).sample(range(len(cells)), 2000))
    for i in [0, len(cells) - 1] + sample:
        assert value_at(cfg, cells[i]) == stable[i], cells[i]


@pytest.mark.parametrize("case,cut_mid_row,host_before_cut", [
    ("Z2", True, True),  # the cut row crosses the host, whose rows come first
    ("Z left", True, False),  # thinning stops before the host
    ("Z right", True, True),  # the one row crosses the host before the cut
    ("Z2 left", True, False),  # the host is the last 9 x 9 tiles, after the cut
    ("Z2 right", True, True),  # the host is the first 9 x 9 tiles, before the cut
])
def test_literal_words_match_the_pointwise_oracle(z2_cfgs, case, cut_mid_row, host_before_cut):
    # the materializer writes W_1 a row of tiles at a time and thins a row
    # one stretch of tiles at a time; every cell of its words against the
    # pointwise resolvers
    group, balance = case.split() if " " in case else (case, "centered")
    seed_b, depth = (1, 1) if group == "Z2" else (2, 2)
    cfg = z2_cfgs[1] if case == "Z2" else Construction(toy_params(
        generate_interval_schedule(1, seed_b, 3, balance, group=GROUPS[group]), Fraction(1, 2), dim=1, depth=depth))
    step, lvl1 = cfg.steps[1], cfg.levels[1]
    cut = thinning_cut_tile(cfg, 1)
    j = tuple((x - lo) // q for x, lo, q in zip(cut.lows, lvl1.box.lows, lvl1.periods))
    assert (step.tiles.lows[-1] < j[-1] < step.tiles.highs[-1]) is cut_mid_row
    assert (step.cand.count_below(j) > 0) is host_before_cut
    word, box = cfg.materialize(), cfg.levels[2].box
    assert all(values_equal(v, oracles.word(cfg, 2, g)) for g, v in zip(box.cells(), word))


@pytest.mark.parametrize("balance", ["centered", "left", "right"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("group", ["Z", "Z2"])
def test_balances_and_cube_dimensions(group, dim, balance):
    # the Z toy (seed [-1,2], growth 3, depth 2) and the Z^2 toy (seed
    # [-1,1]^2, growth 3, depth 1) with every balance and a cube of dim 1 or 2
    from meandim import cli, construction
    from meandim.analysis import mdim_report

    a, b, depth = (1, 2, 2) if group == "Z" else (1, 1, 1)
    sched = generate_interval_schedule(a, b, 3, balance, group=GROUPS[group])
    cfg = Construction(toy_params(sched, Fraction(1, 2), dim=dim, depth=depth))
    assert [name for name, ok, _ in cli.run_verification(cfg, 7) if ok is False] == []
    rep = mdim_report(cfg)
    assert rep.rows and all(r.certified_low <= cfg.rho * dim <= r.upper_scaled for r in rep.rows)
    tile = cfg.levels[2].box
    if tile.volume <= construction.MATERIALIZE_GUARD:
        assert cfg.level_values(2, tile) == cfg.materialize()
    else:  # Z^2 with dim 2: a 2187 x 2187 level-2 tile, sampled at the
        # identity code tile and at two random boxes
        rng = random.Random(3)
        corners = [tuple(max(-4, lo) for lo in tile.lows)] + [tuple(rng.randrange(lo, hi - 7) for lo, hi in zip(tile.lows, tile.highs))
                                for _ in range(2)]
        for lows in corners:
            box = Box(lows, tuple(min(x + 7, hi) for x, hi in zip(lows, tile.highs)))
            assert cfg.level_values(2, box) == [oracles.word(cfg, 2, g) for g in box.cells()]


@st.composite
def small_plans(draw):
    """A small schedule and plan parameters: Z or Z^2, any balance, seeds in
    0..3, growth prefixes of 1-3 multipliers in 2..6, rho with denominator at
    most 12, depth 1-3, exact or capped."""
    from meandim.schedules import BALANCES, AxisRule, TilingSchedule

    group = GROUPS[draw(st.sampled_from(["Z", "Z2"]))]
    rules = []
    for _ in range(group.rank):
        a, b = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda t: sum(t) >= 1))
        rules.append(AxisRule.make(a, b, draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))))
    sched = TilingSchedule(group, rules, draw(st.sampled_from(BALANCES)))
    den = draw(st.integers(2, 12))
    rho = Fraction(draw(st.integers(1, den - 1)), den)
    cap = draw(st.one_of(st.none(), st.integers(2, 64)))
    return toy_params(sched, rho, dim=draw(st.integers(1, 2)), depth=draw(st.integers(1, 3)), cap=cap)


@given(small_plans())
# the capacity bound is a ceiling: here K >= floor(den * over / (den - d))
# would give step 1 next level 5, one short of 6, and capacity fails at 5
@example(toy_params(generate_interval_schedule(2, 1, 2), Fraction(1, 22), dim=2, depth=2, cap=7))
@settings(max_examples=200, deadline=None)
def test_planned_steps_satisfy_the_identities_the_planner_relies_on(params):
    # the planner does not re-check these at run time: each follows from
    # arithmetic or from how the schedule extends its levels
    from meandim import CapacityError
    from meandim.analysis import upper_bound_estimate

    try:
        cfg = Construction(params)
    except (CapacityError, DepthError):
        return
    sched, rho = cfg.schedule, cfg.rho
    for lvl in cfg.levels.values():  # the density sandwich
        assert rho * lvl.volume < lvl.stars <= rho * lvl.volume + 1
    for n, step in cfg.steps.items():
        fine, nxt = cfg.levels[n], cfg.levels[n + 1]
        # the host is the first level above level n holding code_count + 1
        # level-n tiles: volumes grow with the level, so the level below it
        # holds fewer (a scan of the levels would stop at the host)
        need, host = (step.code_count + 1) * fine.volume, step.host_level
        assert sched.volume(host) >= need
        assert host == fine.sched_level + 1 or sched.volume(host - 1) < need
        # the host holds volume(host) / |S_n| level-n tiles, at least code + 1
        assert step.cand.volume * fine.volume == sched.volume(host)
        assert step.cand.volume > step.code_count
        # level n, the host and level n+1 nest, and every step moves both
        # ends by multiples of q_n
        assert fine.sched_level < host < nxt.sched_level
        assert nxt.box.contains_box(step.host_box) and step.host_box.contains_box(fine.box)
        for outer in (step.host_box, nxt.box):
            for ends, fine_ends in ((outer.lows, fine.box.lows), (outer.highs, fine.box.highs)):
                assert all((o - f) % q == 0 for o, f, q in zip(ends, fine_ends, fine.periods))
        # the default window of the upper bound holds a whole level-n tile
        assert upper_bound_estimate(cfg, n) is not None
        # the next level is the first above the host where the anchor,
        # star-mass and capacity tests, run here level by level, all hold
        assert all(next_level_tests(cfg, n, nxt.sched_level))
        assert nxt.sched_level - 1 == host or not all(next_level_tests(cfg, n, nxt.sched_level - 1))
        n_cand, n_out = step.cand.volume, nxt.volume // fine.volume - step.cand.volume
        target = cfg._target_stars(nxt.volume)
        assert step.thin_total == (n_cand - step.code_count) * fine.stars + n_out * fine.stars - target
        # the link tile, derived on first read, is the candidate after the code block
        assert step.link_center == cfg._cand_at(step, step.code_count)


def next_level_tests(cfg, n, m):
    """Whether schedule level m passes step n's anchor, star-mass and
    thinning-capacity tests, each computed literally from the level's box
    and volume: the per-level definition the planner's volume bounds solve."""
    sched, fine, step = cfg.schedule, cfg.levels[n], cfg.steps[n]
    group, num, den = cfg.group, cfg.rho.numerator, cfg.rho.denominator
    anchor = group.mul(group.enumerate_element(n), group.mul(cfg.link_shift(n - 1), step.link_center))
    volume = sched.volume(m)
    n_cand = step.cand.volume
    n_out = volume // fine.volume - n_cand
    thin_total = (n_cand - step.code_count) * fine.stars + n_out * fine.stars - cfg._target_stars(volume)
    return anchor in sched.level_box(m), fine.stars * n_out * den > num * volume, thin_total <= n_out


@given(small_plans())
@settings(max_examples=40, deadline=None)
def test_words_marked_starless_hold_no_star_on_small_plans(params):
    # on drawn plans, every word marked starless holds no star, and
    # window_codes raises exactly when the walked codes hold a star; every
    # token the walk lays keeps the token rule
    from meandim import CapacityError

    try:
        cfg = Construction(params)
    except (CapacityError, DepthError):
        return
    view = cfg.with_one_walk()
    # V_(n+1) on code tiles 0 and 1 of step n is laid from one code tile
    # (before any whole tile is walked, as a slice of one is not marked)
    coded = [(n + 1, cfg.levels[n].box.translate(cfg._cand_at(step, k)))
             for n, step in cfg.steps.items() for k in range(min(step.code_count, 2))]
    for n, box in coded:
        if box.volume <= 5000:
            view.level_codes(n, box)
            assert view._walk.memo[n, box.lows, box.highs][1] == {}
    for n in range(2, cfg.params.depth + 2):
        tile = cfg.levels[n].box
        if tile.volume <= 5000:
            view.level_codes(n, tile)
    rank = cfg.group.rank
    for box in (Box((-30,) * rank, (30,) * rank), cfg.levels[1].box):
        codes, _ = view._walk_box(box)
        try:
            assert view.window_codes(box)[0] == codes and STAR_TOKEN not in codes
        except DepthError:
            assert STAR_TOKEN in codes
    assert_clean_words_hold_no_star(view._walk)
    assert_tokens_sound(view._walk)
