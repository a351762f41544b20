"""Planning and oracle equivalence across adversarial parameter choices.

Each case runs the full pipeline: plan, literal materialization, pointwise
evaluator comparison on every level-2 cell, and the exact density sandwich.
"""

from fractions import Fraction

import pytest

from meandim import Construction, STAR, Z2
from meandim import oracles
from meandim.oracles import generate_interval_schedule, toy_params
from meandim.schedules import AxisRule, TilingSchedule
from tests.conftest import by_cell


def full_check(cfg):
    word, box = cfg.materialize(), cfg.levels[2].box
    v11 = by_cell(box, word)
    for g in box.cells():
        a, b = oracles.word(cfg, 2, g), v11[g]
        assert a is b or a == b, g
    rho = cfg.rho
    for n in (1, 2):
        lvl = cfg.levels[n]
        assert rho < Fraction(lvl.stars, lvl.volume) <= rho + Fraction(1, lvl.volume)
    stars = sum(1 for v in word if v is STAR)
    assert stars == cfg.levels[2].stars


CASES = [
    ("growth-2", 1, 2, 2, Fraction(1, 2)),
    ("growth-4", 1, 2, 4, Fraction(1, 2)),
    ("mixed-growth", 1, 2, (3, 2), Fraction(1, 2)),
    ("asymmetric-seed", 0, 3, 3, Fraction(1, 2)),
    ("left-anchored", 0, 3, 3, Fraction(2, 5)),
    ("dense-stars", 2, 3, 3, Fraction(5, 6)),
    ("sparse-stars", 1, 2, 3, Fraction(1, 100)),
    ("awkward-rho", 1, 3, 3, Fraction(3, 7)),
]


@pytest.mark.parametrize("name,a,b,growth,rho", CASES, ids=[c[0] for c in CASES])
def test_alternate_z_configs(name, a, b, growth, rho):
    sched = generate_interval_schedule(a, b, growth)
    cfg = Construction(toy_params(sched, rho, dim=1, depth=2))
    full_check(cfg)


def test_dense_seed_has_no_hash():
    # rho = 5/6 on a 6-cell tile stars the whole seed tile
    sched = generate_interval_schedule(2, 3, 3)
    cfg = Construction(toy_params(sched, Fraction(5, 6), dim=1, depth=2))
    assert cfg.levels[1].stars == cfg.levels[1].volume


def test_sparse_seed_single_star():
    sched = generate_interval_schedule(1, 2, 3)
    cfg = Construction(toy_params(sched, Fraction(1, 100), dim=1, depth=2))
    assert cfg.levels[1].stars == 1
    assert sum(1 for v in cfg.materialize() if v is STAR) == cfg.levels[2].stars


def test_three_point_alphabet():
    # first net {0, 1/2, 1}: radix-3 digits, and the plan lands exactly on
    # the host-surplus and thinning-capacity boundaries
    from itertools import product

    sched = generate_interval_schedule(1, 2, 3)
    cfg = Construction(
        toy_params(sched, Fraction(1, 2), dim=1, depth=2, first_delta=Fraction(1, 4))
    )
    assert cfg.steps[1].code_count == 27
    full_check(cfg)
    net = cfg.steps[1].net
    centers = {
        cfg.realization_decode(1, [net.point_at(d) for d in combo])
        for combo in product(range(3), repeat=3)
    }
    assert len(centers) == 27


def test_z2_asymmetric_axis_rules():
    rules = (AxisRule.make(1, 1, 3), AxisRule.make(0, 2, 3))
    sched = TilingSchedule(Z2, rules)
    cfg = Construction(toy_params(sched, Fraction(1, 2), dim=1, depth=1))
    box = cfg.levels[2].box
    v11 = by_cell(box, cfg.materialize())
    for g in box.cells():
        a, b = oracles.word(cfg, 2, g), v11[g]
        assert a is b or a == b, g


def test_growth_two_alternation_alignment():
    # even multipliers alternate the heavier side; congruence must survive
    sched = generate_interval_schedule(1, 2, 2)
    for n in range(1, 9):
        q, qn = sched.periods(n)[0], sched.periods(n + 1)[0]
        a, an = -sched.level_box(n).lows[0], -sched.level_box(n + 1).lows[0]
        assert qn % q == 0 and (an - a) % q == 0
