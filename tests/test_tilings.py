from fractions import Fraction

import pytest

from meandim import (
    DecodeError,
    ExplicitTiling,
    FiniteSubset,
    GridTiling,
    OutOfSupportError,
    Z,
    Z2,
    read_tiling,
    verify_partition,
    write_tiling,
)
from meandim.groups import Box
from meandim.oracles import (
    box2,
    check_irreducibility_witness,
    factor_window,
    interval,
    tiling_configuration,
    to_explicit,
    verify_syndetic_centers,
)
from meandim.tilings import verify_congruent, verify_primely_congruent


@pytest.fixture
def interval4():
    # shape [-1, 2], period 4, centers 4Z
    return GridTiling(Z, (-1,), (2,))


@pytest.fixture
def interval12():
    return GridTiling(Z, (-5,), (6,))


def canonical_pattern(tiling, cells):
    return {tuple(g): tiling_configuration(tiling, g) for g in cells}


def test_tile_of(interval4):
    assert interval4.tile_of((5,)) == (1, (4,))
    assert interval4.tile_of((-2,)) == (1, (-4,))
    for c in [(-8,), (0,), (4,)]:
        assert interval4.tile_of(c) == (1, c)


def test_verify_partition_grid(interval4):
    W = interval(-100, 100)
    assert verify_partition(interval4, W).ok
    assert verify_partition(interval4, FiniteSubset(Z, [(7,)])).ok


def test_verify_partition_corrupted():
    base = to_explicit(GridTiling(Z, (-1,), (2,)), Box((-40,), (40,)))
    centers = [((5,) if c == (4,) else c, sid) for c, sid in base.centers]
    bad = ExplicitTiling(Z, base.shapes, centers, base.support)
    res = verify_partition(bad, interval(-20, 20))
    assert res.ok is False
    kinds = {v[0] for v in res.violations}
    assert "overlap" in kinds  # the shifted tile overlaps its neighbour
    assert "uncovered" in kinds  # and leaves a gap behind


def test_centers_in(interval4):
    got = interval4.centers_in(1, interval(0, 10))
    assert got.elements == ((0,), (4,), (8,))
    assert len(interval4.centers_in(1, interval(1, 3))) == 0
    with pytest.raises(ValueError):
        interval4.centers_in(7, interval(0, 1))


def test_centers_in_explicit_matches_table():
    shapes = [interval(0, 1), FiniteSubset(Z, [(0,)])]
    centers = [((0,), 1), ((2,), 2), ((3,), 1), ((5,), 2)]
    t = ExplicitTiling(Z, shapes, centers, Box((0,), (5,)))
    assert t.centers_in(1, interval(0, 5)).elements == ((0,), (3,))
    assert t.centers_in(2, interval(0, 5)).elements == ((2,), (5,))


def test_syndetic_centers(interval4):
    W = interval(0, 1000)
    assert verify_syndetic_centers(interval4, 1, interval(0, 3), W)
    # the shape itself always witnesses (tiles cover the group)
    assert verify_syndetic_centers(interval4, 1, interval(-1, 2), W)
    assert not verify_syndetic_centers(
        interval4, 1, FiniteSubset(Z, [(0,)]), interval(0, 10)
    )


def test_irreducibility_witness(interval4):
    wit = interval(-4, 4)
    candidates = [interval(0, 99), interval(-53, 20)]
    assert check_irreducibility_witness(interval4, wit, Fraction(1, 2), candidates).ok
    # a candidate shorter than the shape cannot contain a tile
    singleton = FiniteSubset(Z, [(0,)])
    res = check_irreducibility_witness(
        interval4, singleton, Fraction(1, 2), [interval(0, 1)]
    )
    assert res.ok is False
    assert any(v[0] == "no_tile_of_shape" for v in res.violations)
    # non-invariant candidates are skipped, leaving nothing tested
    res = check_irreducibility_witness(
        interval4, wit, Fraction(1, 1000), [interval(0, 7)]
    )
    assert res.ok is None


def test_tile_multiplicity(interval4):
    # a window holding n disjoint copies of a passing candidate holds >= n tiles
    passing = interval(0, 11)
    W = interval(0, 35)  # three disjoint translates of [0,11]
    inside = [
        c
        for c in interval4.centers_in(1, W)
        if all(Z.mul(s, c) in W for s in interval4.shape_cells(1))
    ]
    assert len(inside) >= 3
    assert len(passing) * 3 == len(W)


def test_congruent_aligned(interval4, interval12):
    W = interval(-40, 40)
    assert verify_congruent(interval4, interval12, W).ok
    assert verify_primely_congruent(interval4, interval12, W).ok


def test_congruent_divisibility_failure(interval4):
    ten = GridTiling(Z, (-4,), (5,))
    res = verify_congruent(interval4, ten, interval(-30, 30))
    assert res.ok is False


def test_congruent_inconclusive(interval4, interval12):
    res = verify_congruent(interval4, interval12, interval(0, 3))
    assert res.ok is None


def test_primely_congruent_counterexample():
    # two same-shape coarse tiles with different fine splits
    coarse_shapes = [interval(0, 3)]
    coarse = ExplicitTiling(Z, coarse_shapes, [((0,), 1), ((4,), 1)], Box((0,), (7,)))
    fine_shapes = [interval(0, 1), FiniteSubset(Z, [(0,)])]
    fine = ExplicitTiling(
        Z,
        fine_shapes,
        [((0,), 1), ((2,), 1), ((4,), 1), ((6,), 2), ((7,), 2)],
        Box((0,), (7,)),
    )
    W = interval(0, 7)
    assert verify_congruent(fine, coarse, W).ok
    res = verify_primely_congruent(fine, coarse, W)
    assert res.ok is False
    assert any(v[0] == "master_partition_mismatch" for v in res.violations)


def test_tiling_configuration(interval4):
    assert tiling_configuration(interval4, (4,)) == 1
    assert tiling_configuration(interval4, (5,)) == 0
    assert tiling_configuration(interval4, (0,)) == 1
    window = interval(0, 20)
    dumped = [g for g in window if tiling_configuration(interval4, g) == 1]
    assert FiniteSubset(Z, dumped) == interval4.centers_in(1, window)


def test_factor_window_canonical(interval4, interval12):
    # the coarse configuration decodes to the fine one on the window
    W = interval(-10, 10)
    grown = interval(-40, 40)
    pattern = canonical_pattern(interval12, grown)
    out = factor_window(interval4, interval12, pattern, W)
    assert out == canonical_pattern(interval4, W)


def test_factor_window_singleton_center(interval4, interval12):
    W = FiniteSubset(Z, [(12,)])
    pattern = canonical_pattern(interval12, interval(-30, 50))
    assert factor_window(interval4, interval12, pattern, W) == {(12,): 1}


def test_factor_window_equivariance(interval4, interval12):
    t = (5,)
    W = interval(-8, 8)
    grown = interval(-60, 60)
    pattern = canonical_pattern(interval12, grown)
    out = factor_window(interval4, interval12, pattern, W)
    shifted_pattern = {Z.mul(g, Z.inv(t)): v for g, v in pattern.items()}
    shifted_W = FiniteSubset(Z, [Z.mul(w, Z.inv(t)) for w in W])
    out2 = factor_window(interval4, interval12, shifted_pattern, shifted_W)
    assert out2 == {Z.mul(w, Z.inv(t)): v for w, v in out.items()}


def test_factor_window_multishape():
    coarse = ExplicitTiling(
        Z, [interval(0, 3)], [((0,), 1), ((4,), 1)], Box((0,), (7,))
    )
    fine = ExplicitTiling(
        Z,
        [interval(0, 1), FiniteSubset(Z, [(0,)])],
        [((0,), 1), ((2,), 1), ((4,), 1), ((6,), 1)],
        Box((0,), (7,)),
    )
    W = interval(2, 5)
    pattern = canonical_pattern(coarse, interval(0, 7))
    out = factor_window(fine, coarse, pattern, W)
    assert out == {(2,): 1, (3,): 0, (4,): 1, (5,): 0}


def test_factor_window_decode_error(interval4, interval12):
    W = interval(-10, 10)
    pattern = canonical_pattern(interval12, interval(-40, 40))
    pattern[(0,)] = 0  # erase a coarse center: its cells lose their tile
    with pytest.raises(DecodeError):
        factor_window(interval4, interval12, pattern, W)
    pattern[(0,)] = 1
    pattern[(4,)] = 1  # a bogus extra center overlapping the real tile
    with pytest.raises(DecodeError):
        factor_window(interval4, interval12, pattern, W)


def test_explicit_out_of_support():
    t = to_explicit(GridTiling(Z, (-1,), (2,)), Box((-8,), (8,)))
    with pytest.raises(OutOfSupportError):
        t.tile_of((1000,))


def test_tiling_io_round_trip():
    t = to_explicit(GridTiling(Z, (-1,), (2,)), Box((-12,), (12,)))
    text = write_tiling(t)
    back = read_tiling(text)
    assert back.centers == tuple(sorted(t.centers))
    assert back.shapes == t.shapes
    assert back.support == t.support
    assert verify_partition(back, interval(-10, 10)).ok


def test_tiling_io_z2():
    t = to_explicit(GridTiling(Z2, (-1, 0), (1, 2)), Box((-6, -6), (6, 6)))
    back = read_tiling(write_tiling(t))
    assert back.centers == tuple(sorted(t.centers))
    assert verify_partition(back, box2(-4, 4, -4, 4)).ok


def test_read_tiling_rejects_translate_duplicates():
    text = "\n".join(
        [
            "group Z",
            "support 0 7",
            "shapes 2",
            "shape 1 0 1",
            "shape 2 0 1",  # a translate (identical) of shape 1
            "tiles 4",
            "0 1",
            "2 2",
            "4 1",
            "6 2",
        ]
    )
    with pytest.raises(ValueError, match="^shape list not minimal: "):
        read_tiling(text)


def test_read_tiling_malformed():
    with pytest.raises(ValueError):
        read_tiling("shapes 1\nshape 1 0\n")  # no group header
    with pytest.raises(ValueError):
        read_tiling("group Q\nsupport 0 1\nshapes 0\ntiles 0\n")
    with pytest.raises(ValueError):
        read_tiling("group Z2\nsupport 0 1\nshapes 1\nshape 1 0,0\ntiles 0\n")  # support rank
    for cut in (1, 3, 5):  # truncated after the header, the shapes count, one of two tiles
        with pytest.raises(ValueError, match="^truncated tiling$"):
            read_tiling("\n".join("group Z|support 0 7|shapes 1|shape 1 0 1|tiles 2|0 1|2 1".split("|")[:cut + 1]))


def test_explicit_tiling_validation():
    with pytest.raises(ValueError):
        ExplicitTiling(Z, [interval(1, 2)], [((0,), 1)], Box((0,), (3,)))
    with pytest.raises(ValueError):
        ExplicitTiling(Z, [interval(0, 1)], [((0,), 2)], Box((0,), (3,)))


def test_grid_z2_partition():
    t = GridTiling(Z2, (-1, -1), (1, 1))
    W = box2(-30, 30, -30, 30)
    assert verify_partition(t, W).ok
    assert t.tile_of((4, -4)) == (1, (3, -3))


from hypothesis import given, settings, strategies as st  # noqa: E402


@given(
    a=st.integers(0, 5),
    b=st.integers(0, 5),
    lo=st.integers(-4000, 4000),
    size=st.integers(1, 9999),
)
@settings(max_examples=25, deadline=None)
def test_partition_random_windows(a, b, lo, size):
    if a + b < 1:
        b = 1
    t = GridTiling(Z, (-a,), (b,))
    assert verify_partition(t, interval(lo, lo + size)).ok


@given(
    x=st.integers(-80, 80),
    y=st.integers(-80, 80),
    w=st.integers(1, 60),
    h=st.integers(1, 60),
)
@settings(max_examples=15, deadline=None)
def test_partition_random_windows_z2(x, y, w, h):
    t = GridTiling(Z2, (-1, 0), (1, 2))
    assert verify_partition(t, box2(x, x + w, y, y + h)).ok
