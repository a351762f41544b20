from fractions import Fraction

import pytest

from meandim import Net, Polyhedron, make_net, net_schedule
from meandim.oracles import verify_dense


def test_make_net_examples():
    n = make_net(1, Fraction(1, 2))
    assert n.k == 1 and n.size == 2
    assert make_net(1, 1).size == 2  # endpoints always included
    n2 = make_net(2, Fraction(1, 4))
    assert n2.size == 9
    assert {n2.point_at(i) for i in range(n2.size)} == {
        (a, b) for a in (0, Fraction(1, 2), 1) for b in (0, Fraction(1, 2), 1)
    }


def test_make_net_rejects_bad_delta():
    with pytest.raises(ValueError):
        make_net(1, 0)
    with pytest.raises(ValueError):
        make_net(1, -1)


def test_size_closed_form():
    import math

    for d in (1, 2, 3):
        for delta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 8)):
            k = math.ceil(1 / (2 * delta))
            assert make_net(d, delta).size == (k + 1) ** d


def test_verify_dense():
    assert verify_dense(make_net(1, Fraction(1, 2)))
    assert verify_dense(make_net(2, Fraction(1, 8)))
    coarse = Net(1, Fraction(1, 4), 1)  # the axis {0, 1}: a gap of 1 over 2 * delta
    assert not verify_dense(coarse)


def test_net_needs_an_axis_step():
    from meandim import ConfigError

    with pytest.raises(ConfigError, match=r"^a net needs at least one axis step, got 0$"):
        Net(1, Fraction(1, 2), 0)


def test_point_order_and_inverse():
    n = make_net(1, Fraction(1, 2))
    assert n.point_at(0) == (0,)
    assert n.point_at(1) == (1,)
    n2 = make_net(2, Fraction(1, 2))
    assert [n2.point_at(i) for i in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i in range(n2.size):
        assert n2.index_of(n2.point_at(i)) == i
    with pytest.raises(ValueError):
        n.point_at(2)
    n3 = make_net(1, Fraction(1, 4))  # the axis {0, 1/2, 1}
    assert n3.index_of((Fraction(1, 2),)) == 1 and n3.index_of((1,)) == 2
    for c in (Fraction(1, 3), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="is not a net coordinate"):
            n3.index_of((c,))


def test_halving_schedule_is_nested():
    nets = net_schedule(2, 4)
    assert [n.delta for n in nets] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
    ]
    for a, b in zip(nets, nets[1:]):
        assert b.is_superset_of(a)
        assert {a.point_at(i) for i in range(a.size)} <= {b.point_at(i) for i in range(b.size)}



def test_net_schedule_fills_only_the_missing_deltas():
    # delta_n is the given one, else delta_{n-1} / 2, and delta_1 is 1/2
    deltas = {2: Fraction(1, 4), 4: Fraction(1, 32)}
    assert [n.delta for n in net_schedule(1, 5, deltas)] == [
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 32), Fraction(1, 64)]
    assert [n.delta for n in net_schedule(1, 2, {1: 1})] == [1, Fraction(1, 2)]


def test_make_net_refuses_oversized_nets():
    from meandim import ConfigError
    from meandim.cube import MAX_NET_POINTS

    assert make_net(16, Fraction(1, 2)).size == MAX_NET_POINTS
    with pytest.raises(ConfigError, match=r"^field 'delta': 1/2 needs over 65536 net points$"):
        make_net(17, Fraction(1, 2))
    with pytest.raises(ConfigError, match=r"^field 'delta3': 0 outside \(0,1\]$"):
        net_schedule(1, 3, {3: 0})

def test_polyhedron_basepoint():
    assert Polyhedron(3).basepoint == (0, 0, 0)
    with pytest.raises(ValueError):
        Polyhedron(0)


def test_net_schedule_checks_every_level_before_building_a_net(monkeypatch):
    # delta_17 = 1/2^17 is the first default net past MAX_NET_POINTS; its
    # guard fires before nets 1-16 are built
    from meandim import ConfigError, cube

    def refuse(*args, **kwargs):
        raise AssertionError("a net was built")

    monkeypatch.setattr(cube, "Net", refuse)
    with pytest.raises(ConfigError, match=r"^field 'delta17': 1/131072 needs over 65536 net points$"):
        net_schedule(1, 40)
