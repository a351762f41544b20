import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meandim import FiniteSubset, GroupMismatchError, Z, Z2
from meandim.groups import Box, boundary, is_invariant
from meandim.oracles import covers_window, interval


def brute_boundary(A, K):
    # direct transcription of the definition, scanning a wide range
    group = A.group
    out = []
    candidates = K.inverse().product(A)
    for g in candidates:
        kg = [group.mul(k, g) for k in K]
        if any(h in A for h in kg) and any(h not in A for h in kg):
            out.append(g)
    return FiniteSubset(group, out)


def test_boundary_interval():
    A = interval(0, 9)
    K = FiniteSubset(Z, [(-1,), (0,), (1,)])
    assert boundary(A, K).elements == ((-1,), (0,), (9,), (10,))


def test_boundary_singleton_k_empty():
    A = interval(-3, 17)
    K = FiniteSubset(Z, [(0,)])
    assert len(boundary(A, K)) == 0


def test_boundary_long_interval():
    A = interval(0, 99)
    K = FiniteSubset(Z, [(-1,), (0,), (1,)])
    assert boundary(A, K).elements == ((-1,), (0,), (99,), (100,))


def test_boundary_mixed_groups():
    with pytest.raises(GroupMismatchError):
        boundary(interval(0, 3), FiniteSubset(Z2, [(0, 0)]))


def test_is_invariant_strictness():
    A = interval(0, 99)
    K = FiniteSubset(Z, [(-1,), (0,), (1,)])
    assert is_invariant(A, K, Fraction(1, 20))
    assert not is_invariant(A, K, Fraction(1, 25))  # 4/100 == 1/25, not strict
    assert is_invariant(A, FiniteSubset(Z, [(0,)]), Fraction(1, 10**6))


def test_is_invariant_rejects_nonpositive_delta():
    A = interval(0, 9)
    K = FiniteSubset(Z, [(0,), (1,)])
    with pytest.raises(ValueError):
        is_invariant(A, K, 0)


def test_covers_window():
    F = interval(0, 3)
    S = FiniteSubset(Z, [(4 * k,) for k in range(-1, 27)])
    W = interval(0, 100)
    assert covers_window(F, S, W)
    assert covers_window(FiniteSubset(Z, [(0,)]), W, W)
    F_short = interval(0, 2)
    assert not covers_window(F_short, S, W)  # residue 3 mod 4 stays uncovered


@given(
    rank=st.sampled_from([1, 2]),
    q=st.lists(st.integers(1, 9), min_size=2, max_size=2),
    lows=st.lists(st.integers(-20, 20), min_size=2, max_size=2),
    sides=st.lists(st.integers(1, 30), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_covers_window_lattice_centers(rank, q, lows, sides):
    # minimality_check's closed-form syndeticity: F = [0, q) covers every g
    # from the center q * floor(g / q), so the centers in F^{-1}W cover W
    group = Z if rank == 1 else Z2
    q, lows = q[:rank], lows[:rank]
    highs = [lo + s - 1 for lo, s in zip(lows, sides)]
    F = Box((0,) * rank, [p - 1 for p in q]).to_subset(group)
    W = Box(lows, highs).to_subset(group)
    centers = FiniteSubset(
        group,
        itertools.product(
            *[range(-((p - 1 - lo) // p) * p, hi + 1, p) for lo, hi, p in zip(lows, highs, q)]
        ),
    )
    lattice = [c for c in F.inverse().product(W) if all(x % p == 0 for x, p in zip(c, q))]
    assert centers.elements == tuple(lattice)
    assert covers_window(F, centers, W)


def test_set_product_and_inverse():
    A = interval(0, 1)
    B = interval(0, 10)
    assert A.product(B) == interval(0, 11)
    assert FiniteSubset(Z, [(2,), (5,)]).inverse().elements == ((-5,), (-2,))


def test_enumeration_spiral_z():
    got = [Z.enumerate_element(n) for n in range(1, 8)]
    assert got == [(0,), (1,), (-1,), (2,), (-2,), (3,), (-3,)]


def test_enumeration_spiral_z2_bijective_on_ball():
    seen = []
    it = Z2.spiral()
    for _ in range(12000):
        seen.append(next(it))
    assert len(set(seen)) == len(seen)
    for r in range(1, 51):
        ball = set(Z2.ball(r))
        prefix = set(seen[: (2 * r + 1) ** 2 + 4 * (2 * r + 1)])
        assert ball <= prefix


def test_enumeration_covers_every_z_ball():
    for r in range(1, 51):
        prefix = {Z.enumerate_element(n) for n in range(1, 2 * r + 2)}
        assert set(Z.ball(r)) <= prefix


small_sets = st.lists(st.integers(-30, 30), min_size=1, max_size=12)


@given(small_sets, small_sets)
@settings(max_examples=60, deadline=None)
def test_boundary_matches_brute_force(a_cells, k_cells):
    A = FiniteSubset(Z, [(x,) for x in a_cells])
    K = FiniteSubset(Z, [(x,) for x in k_cells])
    assert boundary(A, K) == brute_boundary(A, K)


@given(small_sets, small_sets)
@settings(max_examples=60, deadline=None)
def test_boundary_is_contained_in_kinv_a_union_a(a_cells, k_cells):
    A = FiniteSubset(Z, [(x,) for x in a_cells])
    K = FiniteSubset(Z, [(x,) for x in k_cells])
    hull = set(K.inverse().product(A)) | set(A)
    assert set(boundary(A, K)) <= hull


@given(small_sets, small_sets)
@settings(max_examples=40, deadline=None)
def test_product_matches_brute_force(a_cells, b_cells):
    A = FiniteSubset(Z, [(x,) for x in a_cells])
    B = FiniteSubset(Z, [(x,) for x in b_cells])
    want = sorted({(x + y,) for (x,) in A for (y,) in B})
    assert list(A.product(B)) == want


def test_box_queries():
    box = Box((-2, 0), (1, 3))
    assert box.volume == 16
    assert (0, 2) in box and (2, 2) not in box
    assert list(box.cells())[0] == (-2, 0)
    assert box.translate((1, 1)) == Box((-1, 1), (2, 4))
    assert Box((-5,), (5,)).contains_box(Box((-1,), (2,)))


def test_box_membership_needs_the_same_rank():
    # an element of another rank is not a member, as in FiniteSubset
    assert (5, 5) in Box((0, 0), (9, 9)) and (5, 10) not in Box((0, 0), (9, 9))
    assert (5,) not in Box((0, 0), (9, 9)) and (5, 99) not in Box((0,), (9,))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 9)), min_size=1, max_size=2),
    st.integers(0, 3),
)
def test_box_ball_boundary_size_matches_boundary(axes, r):
    # sides run from 1 to 9, so boxes with side <= 2r (empty inner box) occur
    box = Box([lo for lo, _ in axes], [lo + side - 1 for lo, side in axes])
    group = Z if box.rank == 1 else Z2
    assert box.ball_boundary_size(r) == len(boundary(box.to_subset(group), group.ball(r)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 4)), min_size=1, max_size=3),
    st.data(),
)
def test_box_lexicographic_order_matches_enumeration(axes, data):
    # count_below, cell_at and line_base against the cells in cells()
    # order; g ranges past the box on every side, and rank 3 reaches the
    # axes after one that g leaves
    box = Box([lo for lo, _ in axes], [lo + side - 1 for lo, side in axes])
    cells = list(box.cells())
    for i, c in enumerate(cells):
        assert box.count_below(c) == i and box.cell_at(i) == c
    for bad in (-1, len(cells)):
        with pytest.raises(ValueError, match="lexicographic index out of range"):
            box.cell_at(bad)
    g = tuple(data.draw(st.integers(lo - 3, lo + side + 2)) for lo, side in axes)
    assert box.count_below(g) == sum(1 for c in cells if c < g)
    base, live = box.line_base(g[:-1])
    assert live is all(lo <= x <= hi for x, lo, hi in zip(g[:-1], box.lows, box.highs))
    for x in range(box.lows[-1] - 2, box.highs[-1] + 3):
        clamp = min(max(x - box.lows[-1], 0), box.highs[-1] - box.lows[-1] + 1)
        assert base + (clamp if live else 0) == sum(1 for c in cells if c < g[:-1] + (x,))
