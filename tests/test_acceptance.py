"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact rational arithmetic or literal symbol equality; the
only numeric slack anywhere is the stated per-criterion runtime budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from meandim import (
    ExplicitTiling,
    FiniteSubset,
    GridTiling,
    STAR,
    Z,
    Z2,
    check_irreducibility_witness,
    covers_window,
    generate_interval_schedule,
    render_value,
    verify_congruent,
    verify_partition,
    verify_primely_congruent,
    verify_syndetic_centers,
)
from meandim.analysis import (
    free_set,
    lower_bound_estimate,
    mdim_report,
    minimality_check,
    upper_bound_estimate,
    verify_free_nesting,
)
from meandim import oracles
from meandim.groups import Box
from tests.conftest import TOY_MATRIX, by_cell, make_toy


def report(num: int, ok: bool, text: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def toys():
    return {(a, b, rho): make_toy(a, b, rho) for a, b, rho in TOY_MATRIX}


def values_equal(x, y):
    return x is y or x == y


def test_criterion_1_oracle_equivalence(toys):
    worst = 0.0
    for key, cfg in toys.items():
        t0 = time.monotonic()
        words = cfg.materialize()
        v11, stable = by_cell(words.window, words.v11), by_cell(words.window, words.stable)
        for g in words.window.cells():
            assert values_equal(oracles.word(cfg, 2, g), v11[g]), (key, g)
            assert cfg.eval_w(g) == stable[g], (key, g)
        worst = max(worst, time.monotonic() - t0)
    report(
        1,
        worst < 10.0,
        f"eval agrees with literal materialization on every level-2 cell of "
        f"{len(toys)} configs (worst {worst:.2f}s < 10s)",
    )


def test_criterion_2_density_sandwich(toys):
    ok = True
    for (a, b, rho), cfg in toys.items():
        lvl1 = cfg.levels[1]
        step1_density = Fraction(lvl1.stars, lvl1.volume)
        ok &= rho < step1_density <= rho + Fraction(1, lvl1.volume)
        # n = 1: the star count recounted from the literal level-2 word
        words = cfg.materialize()
        stars2 = sum(1 for v in words.v11 if v is STAR)
        vol2 = cfg.levels[2].volume
        ok &= stars2 == cfg.levels[2].stars
        ok &= rho < Fraction(stars2, vol2) <= rho + Fraction(1, vol2)
        # n = 2: exact plan arithmetic, with the layout identity recounted
        st2 = cfg.steps[2]
        stars3 = (st2.n_cand - st2.code_count) * cfg.levels[2].stars
        stars3 += st2.n_out * cfg.levels[2].stars - st2.thin_total
        vol3 = cfg.levels[3].volume
        ok &= stars3 == cfg.levels[3].stars
        ok &= rho < Fraction(stars3, vol3) <= rho + Fraction(1, vol3)
    report(2, ok, "rho < density <= rho + 1/|tile| exactly, levels 1..3, all configs")


def test_criterion_3_free_set_nesting_and_lower_bound(toys):
    ok = True
    for (a, b, rho), cfg in toys.items():
        res = verify_free_nesting(cfg, 2)  # J_1 within J_2, exhaustively
        ok &= res.ok is True
        J1 = free_set(cfg, 1)
        ok &= all(g in J1 for g in J1.elements())
        for n in (1, 2):
            lo = lower_bound_estimate(cfg, n)
            vol = cfg.levels[n + 1].volume
            ok &= rho < lo <= rho + Fraction(1, vol)
    report(3, ok, "J_1 within J_2 exactly; lower estimates in (rho, rho + 1/|window|]")


def test_criterion_4_upper_bound_bracket(toys):
    ok = True
    for (a, b, rho), cfg in toys.items():
        for n in (1, 2):
            est = upper_bound_estimate(cfg, n)
            ok &= est.free_fraction <= est.envelope_fraction
        rep = mdim_report(cfg)
        ok &= rep.gaps_monotone
        ok &= rep.rows[1].gap <= rep.rows[0].gap
        target = rho * cfg.params.cube.dim
        for row in rep.rows:
            ok &= row.certified_low <= target <= row.upper_scaled
    report(
        4,
        ok,
        "class counts never exceed their envelopes; gaps shrink with depth; "
        "certified brackets contain rho*dim",
    )


def test_criterion_5_realization_surjectivity(toys):
    ok = True
    sizes = []
    for key, cfg in toys.items():
        net = cfg.steps[1].net
        stars = cfg.levels[1].stars
        centers = set()
        for combo in product(range(net.size), repeat=stars):
            pts = [net.point_at(d) for d in combo]
            centers.add(cfg.realization_decode(1, pts))
        want = net.size**stars
        sizes.append(want)
        ok &= len(centers) == want == cfg.steps[1].code_count
    report(5, ok, f"every assignment realized by a distinct code tile (exhaustive: {sizes})")


def test_criterion_6_minimality(toys):
    t0 = time.monotonic()
    ok = True
    for key, cfg in toys.items():
        for n in (1, 2):
            rep = minimality_check(cfg, n, sample_size=100, seed=7)
            ok &= rep.recurrence_ok and rep.syndetic_ok and rep.sampled == 100
    # the small-period witness also passes the set-level covering check
    cfg = next(iter(toys.values()))
    q = cfg.schedule.periods(cfg.levels[2].sched_level)[0]
    F = FiniteSubset.interval(0, q - 1)
    W = FiniteSubset.interval(0, 1000)
    sample = FiniteSubset(Z, [(q * k,) for k in range(-1, 1000 // q + 2)])
    ok &= covers_window(F, sample, W)
    took = time.monotonic() - t0
    report(
        6,
        ok and took < 60.0,
        f"100-center exact recurrence at levels 1,2 all configs; syndetic "
        f"witnesses on 10^3-cell windows ({took:.1f}s < 60s)",
    )


def test_criterion_7_tiling_suite():
    ok = True
    sched = generate_interval_schedule(1, 2, 3)
    W = FiniteSubset.interval(-5000, 4999)  # 10^4 cells
    for n in range(1, 5):
        ok &= verify_partition(sched.materialize_level(n), W).ok is True
    for n in range(1, 4):
        fine, coarse = sched.materialize_level(n), sched.materialize_level(n + 1)
        wide = FiniteSubset.interval(-3 * sched.volume(n + 1), 3 * sched.volume(n + 1))
        ok &= verify_congruent(fine, coarse, wide).ok is True
        ok &= verify_primely_congruent(fine, coarse, wide).ok is True
    ok &= sched.verify_nesting(100).ok is True
    # irreducibility witnesses and syndetic centers per level
    for n in range(1, 4):
        t = sched.materialize_level(n)
        q = sched.volume(n)
        cands = [FiniteSubset.interval(k, k + 3 * q - 1) for k in (-q, 0, 17)]
        ok &= check_irreducibility_witness(t, Z.ball(1), Fraction(1, 2), cands).ok is True
        ok &= verify_syndetic_centers(
            t, 1, FiniteSubset.interval(0, q - 1), FiniteSubset.interval(0, 2000)
        )
    # invariance: strict profile on a doubling schedule, and eventual
    # invariance on the construction schedule
    dbl = generate_interval_schedule(4, 5, 2)
    ok &= dbl.verify_invariance_profile(
        [Z.ball(k) for k in range(1, 7)], [Fraction(1, k) for k in range(1, 7)]
    ).ok is True
    from meandim.groups import is_invariant

    for k in (1, 2, 3):
        ok &= any(
            is_invariant(sched.level_box(n).to_subset(Z), Z.ball(k), Fraction(1, k))
            for n in range(1, 6)
        )
    # Z^2 windows
    sched2 = generate_interval_schedule(1, 1, 3, group=Z2)
    W2 = FiniteSubset.box2(-50, 49, -50, 49)  # 10^4 cells
    ok &= verify_partition(sched2.materialize_level(1), W2).ok is True
    ok &= verify_primely_congruent(
        sched2.materialize_level(1), sched2.materialize_level(2), W2
    ).ok is True
    # seeded corruption must fail with a named violation
    import random

    rng = random.Random(7)
    base = GridTiling(Z, (-1,), (2,)).to_explicit(Box((-60,), (60,)))
    centers = list(base.centers)
    victim = rng.randrange(len(centers))
    c, sid = centers[victim]
    centers[victim] = ((c[0] + 1,), sid)
    res = verify_partition(
        ExplicitTiling(Z, base.shapes, centers, base.support),
        FiniteSubset.interval(-40, 40),
    )
    ok &= res.ok is False and any(v[0] in ("overlap", "uncovered") for v in res.violations)
    report(7, ok, "partition/congruence/nesting/irreducibility/invariance pass; "
                  "seeded corruption fails with a named violation")


def test_criterion_8_no_star_and_stabilization(toys):
    ok = True
    cfg2 = toys[(1, 2, Fraction(1, 2))]
    box2 = cfg2.levels[2].box
    vals2 = [render_value(v) for _, v in cfg2.window(box2, "w")]
    ok &= "*" not in vals2
    cfg3 = make_toy(depth=3, mode="capped", cap=65536)
    vals3 = [render_value(v) for _, v in cfg3.window(box2, "w")]
    ok &= "*" not in vals3
    dump2 = " ".join(vals2).encode()
    dump3 = " ".join(vals3).encode()
    ok &= dump2 == dump3
    report(
        8,
        ok,
        f"no star among {box2.volume} evaluated coordinates; depth-3 dump "
        f"byte-identical to depth-2 on the level-2 tile",
    )
