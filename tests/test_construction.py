import random
from fractions import Fraction
from itertools import product

import pytest

from meandim import (
    BuildParams,
    Construction,
    DepthError,
    HASH,
    NotRealizedError,
    Polyhedron,
    STAR,
    SizeGuardError,
    Z2,
    generate_interval_schedule,
    make_net,
    net_schedule,
    render_value,
)
from meandim import oracles
from meandim.groups import Box
from tests.conftest import by_cell, make_toy
from tests.test_cli import int_str_limit_lifted


def values_equal(a, b):
    return a is b or a == b


def test_params_validation():
    sched = generate_interval_schedule(1, 2, 3)
    with pytest.raises(ValueError):
        BuildParams.toy(sched, Fraction(1, 1))
    with pytest.raises(ValueError):
        BuildParams.toy(sched, Fraction(1, 2), depth=0)
    with pytest.raises(ValueError):
        BuildParams.toy(sched, Fraction(1, 2), mode="capped")  # cap missing
    with pytest.raises(ValueError):
        BuildParams(
            schedule=sched,
            rho=Fraction(1, 2),
            cube=Polyhedron(1),
            nets=(make_net(1, Fraction(1, 4)), make_net(1, Fraction(1, 2))),
            depth=2,
        )  # nets not nested


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
    ten = Construction(BuildParams.toy(generate_interval_schedule(4, 5, 2), Fraction(1, 2), depth=1))
    assert ten.levels[1].stars == 6  # |S| = 10, rho = 1/2


def test_toy_plan_numbers(toy_cfg):
    st1 = toy_cfg.steps[1]
    assert toy_cfg.levels[1].stars == 3
    assert st1.code_count == 8  # |net|^stars = 2^3
    assert st1.host_level == 3 and st1.n_cand == 9
    assert st1.link_center == (16,)
    assert st1.next_level == 5
    assert toy_cfg.levels[2].volume == 324 and toy_cfg.levels[2].stars == 163
    assert st1.thin_total == 56


def test_oracle_equivalence_words(matrix_cfg):
    words = matrix_cfg.materialize()
    # verify reads the literal words as lists in Box.cells() order
    host_box = matrix_cfg.steps[1].host_box
    assert len(words.v11) == len(words.stable) == len(words.w1) == words.window.volume
    assert len(words.w1_coded) == host_box.volume
    v11, stable = by_cell(words.window, words.v11), by_cell(words.window, words.stable)
    w1_coded = by_cell(host_box, words.w1_coded)
    for g in words.window.cells():
        assert values_equal(oracles.word(matrix_cfg, 2, g), v11[g])
    for g in host_box.cells():
        assert values_equal(oracles.coded(matrix_cfg, 1, g), w1_coded[g])
    for g in words.window.cells():
        assert matrix_cfg.eval_w(g) == stable[g]


def test_code_tiles_enumerate_all_assignments(toy_cfg, toy_words):
    # restrictions of the coded word to the star cells of each code tile
    seen = set()
    st = toy_cfg.steps[1]
    w1_coded = by_cell(st.host_box, toy_words.w1_coded)
    for k in range(st.code_count):
        c = toy_cfg._cand_at(st, k)
        word = tuple(w1_coded[Z_mul(a, c)] for a in toy_cfg.seed_stars)
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
        assert toy_cfg.eval_w(a) == zero
    # a seed hash position never touched later stays hash
    assert toy_cfg.eval_w((2,)) is HASH
    assert toy_cfg.eval_x((2,)) == toy_cfg.params.cube.basepoint
    assert toy_cfg.eval_x((0,)) == zero


def test_no_star_and_window(toy_cfg):
    box2 = toy_cfg.levels[2].box
    vals = toy_cfg.window(box2, "w")
    assert all(v is not STAR for _, v in vals)
    xs = dict(toy_cfg.window(box2, "x"))
    for g, v in vals:
        assert xs[g] == (toy_cfg.params.cube.basepoint if v is HASH else v)


def test_window_singleton_matches_eval(toy_cfg):
    [(g, v)] = toy_cfg.window([(7,)], "w")
    assert v == toy_cfg.eval_w((7,))


def test_stabilization_under_deeper_plans(toy_cfg):
    sched = generate_interval_schedule(1, 2, 3)
    deep3 = Construction(
        BuildParams.toy(sched, Fraction(1, 2), depth=3, mode="capped", cap=4096)
    )
    deep4 = Construction(
        BuildParams.toy(sched, Fraction(1, 2), depth=4, mode="capped", cap=4096)
    )
    box2 = toy_cfg.levels[2].box
    for g in box2.cells():
        want = toy_cfg.eval_w(g)
        assert deep3.eval_w(g) == want
        assert deep4.eval_w(g) == want


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
    v11 = by_cell(toy_words.window, toy_words.v11)
    for j in range(st.tile_lo[0], st.tile_hi[0] + 1):
        if st.cand_lo[0] <= j <= st.cand_hi[0]:
            continue
        c = (j * q,)
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
    cfg = make_toy(mode="capped", cap=4)
    st = cfg.steps[1]
    assert st.code_count == 4 and st.approximate
    net = st.net
    ok = [net.point_at(d) for d in (0, 1, 1)]  # index 3 < 4
    cfg.realization_decode(1, ok)
    with pytest.raises(NotRealizedError):
        cfg.realization_decode(1, [net.point_at(d) for d in (1, 0, 1)])  # index 5


def test_depth_error_for_exact_deep_plan():
    sched = generate_interval_schedule(1, 2, 3)
    with pytest.raises(DepthError, match="capped"):
        Construction(BuildParams.toy(sched, Fraction(1, 2), depth=3))


def test_eval_beyond_depth_raises(toy_cfg):
    # a surviving level-2 star inside a non-code neighbour tile is only
    # resolved by the (unplanned) step after the configured depth
    star = toy_cfg.star_positions(2)[0]
    q2 = toy_cfg.schedule.periods(toy_cfg.levels[2].sched_level)[0]
    with pytest.raises(DepthError):
        toy_cfg.eval_w((q2 + star[0],))
    # the same relative coordinate in the identity tile is determined
    assert toy_cfg.eval_w(star) is not None


def test_materialize_guard(toy_cfg):
    with pytest.raises(SizeGuardError):
        toy_cfg.materialize(guard=10)


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
    cfg = Construction(BuildParams.toy(sched, Fraction(1, 2), dim=1, depth=1))
    words = cfg.materialize()
    assert len(words.v11) == words.window.volume
    v11 = by_cell(words.window, words.v11)
    for g in words.window.cells():
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
        Construction(BuildParams.toy(sched, Fraction(1, 3), dim=1, depth=2))


def test_z2_depth2_plan_and_eval():
    sched = generate_interval_schedule(1, 1, 3, group=Z2)
    cfg = Construction(BuildParams.toy(sched, Fraction(1, 2), dim=1, depth=2))
    st2 = cfg.steps[2]
    assert st2.code_exact is not None and not cfg.approximate
    box1 = cfg.levels[1].box
    zero = cfg.steps[1].net.point_at(0)
    for g in box1.cells():
        v = cfg.eval_w(g)
        assert v is not STAR
        if g in cfg.seed_stars:
            assert v == zero
    # recurrence copy across one level-3 tile center
    q = cfg.schedule.periods(cfg.levels[3].sched_level)
    c = (q[0] * 3, -q[1] * 2)
    for g in box1.cells():
        assert cfg.eval_w((g[0] + c[0], g[1] + c[1])) == cfg.eval_w(g)
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


from hypothesis import given, settings, strategies as st  # noqa: E402


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
        assert Construction._cand_at_raw(k, lo, hi, e_lex) == c


def test_digit_fast_path():
    digit = Construction._digit
    assert digit(0, 10**80, 3) == 0  # radix**exp dwarfs the index
    assert digit(5, 0, 2) == 1 and digit(5, 1, 2) == 0 and digit(5, 2, 2) == 1
    assert digit(5, 3, 2) == 0
    huge = 3**400 + 7
    assert digit(huge, 400, 3) == 1 and digit(huge, 1, 3) == 2  # 7 = 21_3


def test_deep_star_ranks_capped():
    # level-3 word arithmetic with the capped depth-3 plan
    cfg = make_toy(depth=3, mode="capped", cap=65536)
    st2 = cfg.steps[2]
    q2 = cfg.schedule.periods(cfg.levels[2].sched_level)[0]
    stars2 = cfg.star_positions(2)
    # the leftmost tile of the level-3 box is thinned: it sheds exactly its
    # first star and its first surviving star opens the level-3 star order
    c0 = st2.tile_lo[0] * q2
    assert oracles.word(cfg, 3, (c0 + stars2[0][0],)) is HASH
    assert oracles.word(cfg, 3, (c0 + stars2[1][0],)) is STAR
    assert oracles.stars_below(cfg, 3, (c0 + stars2[1][0],)) == 0
    # the first uncoded tile inside the host follows the whole left thin zone
    from meandim.construction import _lex_at

    j = _lex_at(st2.code_count - 1, st2.cand_lo, st2.cand_hi)
    c = j[0] * q2
    left_tiles = st2.cand_lo[0] - st2.tile_lo[0]
    want = left_tiles * (cfg.levels[2].stars - 1)  # each sheds one star
    assert oracles.stars_below(cfg, 3, (c + stars2[0][0],)) == want
    assert oracles.stars_below(cfg, 3, (c + stars2[1][0],)) == want + 1
    # a level-3 star inside the identity code tile resolves to net point 0
    g = (q2 + stars2[0][0],)
    assert oracles.word(cfg, 3, g) is STAR
    assert cfg.eval_w(g) == cfg.steps[3].net.point_at(0)


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
    words = cfg.materialize()
    v11 = by_cell(words.window, words.v11)
    for g in words.window.cells():
        assert values_equal(oracles.word(cfg, 2, g), v11[g])


def test_group_rank_mismatch(toy_cfg):
    with pytest.raises(ValueError):
        toy_cfg.eval_w((1, 2))


def test_window_accepts_box(toy_cfg):
    vals = toy_cfg.window(Box((-8,), (8,)), "w")
    assert len(vals) == 17 and vals[0][0] == (-8,)


def test_plan_invariant_breaks_raise_meandim_errors(monkeypatch):
    # the plan checks are raises, not asserts, so python -O keeps them
    from meandim import MeandimError

    real = Construction._target_stars

    def one_short(self, volume):
        # right for the seed tile, one star short (density exactly rho) above
        return real(self, volume) - (volume != self.params.schedule.volume(1))

    monkeypatch.setattr(Construction, "_target_stars", one_short)
    with pytest.raises(MeandimError, match="density sandwich"):
        make_toy()


# -- tile-batched windows against the pointwise evaluator ---------------------


def or_error(evaluate):
    """evaluate(), with a DepthError turned into a comparable value."""
    try:
        return evaluate()
    except DepthError as exc:
        return ("DepthError", str(exc))


def oracle_window(cfg, cells, kind):
    """``cfg.window(cells, kind)`` cell by cell from the pointwise oracle."""
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
    return make_toy(depth=3, mode="capped", cap=4096)


@pytest.fixture(scope="module")
def z2_cfgs():
    sched = generate_interval_schedule(1, 1, 3, group=Z2)
    return {
        depth: Construction(BuildParams.toy(sched, Fraction(1, 2), dim=1, depth=depth))
        for depth in (1, 2)
    }


def thinning_cut_tile(cfg, n):
    """The level-n tile of thinning rank ``thin_total`` of step n (the first
    thinning-zone tile that keeps all its stars), in level-(n+1) coordinates;
    None if there is none.  Thinning ranks grow with the lexicographic index,
    so bisect."""
    from meandim.construction import _count_lex_below, _lex_at

    step, lo, hi = cfg.steps[n], cfg.steps[n].tile_lo, cfg.steps[n].tile_hi
    total = Box(lo, hi).volume
    host = Box(step.cand_lo, step.cand_hi)
    i, past = 0, total  # the first index of thinning rank thin_total or more
    while i < past:
        mid = (i + past) // 2
        # the tiles before index mid, less the host tiles among them
        if mid - _count_lex_below(_lex_at(mid, lo, hi), step.cand_lo, step.cand_hi) < step.thin_total:
            i = mid + 1
        else:
            past = mid
    while i < total and _lex_at(i, lo, hi) in host:
        i += 1  # the host tiles share the thinning rank of the next tile after them
    if i == total:
        return None
    center = tuple(j * q for j, q in zip(_lex_at(i, lo, hi), cfg.levels[n].periods))
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
        assert or_error(lambda: cfg.eval_w(g)) == or_error(lambda: oracles.eval_w(cfg, g)), g


def test_evaluation_keeps_no_state_on_the_construction():
    # evaluator memory is bounded by the window: batched windows, pointwise
    # cells and star ranking leave the construction as it was planned
    cfg = make_toy(depth=3, mode="capped", cap=4096)
    planned = dict(vars(cfg))
    sizes = {name: len(v) for name, v in planned.items() if hasattr(v, "__len__")}
    far = 10**80 // cfg.levels[4].periods[0] * cfg.levels[4].periods[0]
    for lo in (-3000, far - 3000):
        box = Box((lo,), (lo + 6000,))
        assert len(cfg.window(box)) == 6001
        assert cfg.window(list(box.cells())[:300]) == cfg.window(Box((lo,), (lo + 299,)))
    cfg.star_positions(2)
    assert vars(cfg) == planned
    assert {name: len(planned[name]) for name in sizes} == sizes


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
    z2_early_cut = Construction(BuildParams.toy(
        generate_interval_schedule(0, 1, 3, group=Z2), Fraction(1, 5), dim=1, depth=1))
    for cfg in (toy_cfg, deep_capped_cfg, z2_cfgs[1], z2_cfgs[2], make_toy(0, 2), z2_early_cut):
        for n in (n for n in cfg.steps if cfg.levels[n + 1].volume < 10**200):
            outer, host = cfg.levels[n + 1].box, cfg.steps[n].host_box
            cut = thinning_cut_tile(cfg, n)
            for corner in (host.lows, host.highs) + ((cut.lows, cut.highs) if cut else ()):
                lows = tuple(max(x - 6, lo) for x, lo in zip(corner, outer.lows))
                highs = tuple(min(x + 6, hi) for x, hi in zip(corner, outer.highs))
                cases.append((cfg, n + 1, Box(lows, highs)))
    for cfg, n, box in cases:
        want = [oracles.word(cfg, n, g) for g in box.cells()]
        words, ranks = _TileWalk(cfg).values(n, box.lows, box.highs, False)
        assert (words, ranks) == (want, None), (n, box)
        words, ranks = _TileWalk(cfg).values(n, box.lows, box.highs, True)
        assert words == want, (n, box)
        assert ranks == [oracles.stars_below(cfg, n, g) for g in box.cells()], (n, box)


def test_depth_error_names_huge_coordinates(toy_cfg):
    # (-200,) is undetermined at depth 2 (see the CLI window test); so is
    # every translate of it by a top-level period
    q = toy_cfg.levels[3].periods[0]
    g = (-200 + (10**4400 // q) * q,)
    for evaluate in (
        lambda: toy_cfg.eval_w(g),
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
    flags = {"depth": 3, "mode": "capped", "cap": 4096} if case == "Z capped" else {}
    cfg = make_toy(seed_a, seed_b, rho, **flags)
    stars = cfg.star_positions(n)
    assert len(stars) == cfg.levels[n].stars
    assert stars == pointwise_star_order(cfg, n)


def assert_sheds_one_star_per_tile(cfg):
    """Every level word holds one star above its density floor, so the literal
    greedy thinning (``materialize().v11``) takes the first seed star of each
    of the first thin_total thinning-zone tiles, in lexicographic order, and
    nothing else."""
    rho = cfg.rho
    for lvl in cfg.levels.values():
        assert lvl.stars == (rho.numerator * lvl.volume) // rho.denominator + 1
    for step in cfg.steps.values():
        assert step.thin_total <= step.n_out
    words = cfg.materialize()
    step, lvl1, v11 = cfg.steps[1], cfg.levels[1], by_cell(words.window, words.v11)
    host = Box(step.cand_lo, step.cand_hi)
    zone = [
        j for j in product(*(range(lo, hi + 1) for lo, hi in zip(step.tile_lo, step.tile_hi)))
        if j not in host
    ]
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
    # whole level-2 tile, and a sample of cells against eval_w
    cfg = z2_cfgs[2]
    words, box = cfg.materialize(), cfg.levels[2].box
    assert words.window == box
    assert words.v11 == cfg.level_values(2, box)
    assert words.stable == cfg.window_values(box, "w")
    cells = list(box.cells())
    sample = sorted(random.Random(2).sample(range(len(cells)), 2000))
    for i in [0, len(cells) - 1] + sample:
        assert cfg.eval_w(cells[i]) == words.stable[i], cells[i]
