import pytest
from fractions import Fraction

from meandim import STAR, Box, Construction
from meandim.oracles import generate_interval_schedule, toy_params


def by_cell(box, values):
    """A materialized word keyed by cell: ``materialize()`` gives a flat list
    in ``box.cells()`` order."""
    return dict(zip(box.cells(), values))


def stabilized(cfg, word):
    """The literal V_2 with its stars resolved by code tile 0 of step 2: the
    limit configuration on the level-2 tile, at depth >= 2."""
    zero = cfg.steps[2].net.point_at(0)
    return [zero if v is STAR else v for v in word]


def value_at(cfg, g, kind="w"):
    """The value of one cell: a one-cell window (``kind`` as in
    ``Construction.window_values``)."""
    return cfg.window_values(Box(g, g), kind)[0]


def make_toy(seed_a=1, seed_b=2, rho=Fraction(1, 2), dim=1, depth=2, **kw):
    sched = generate_interval_schedule(seed_a, seed_b, 3)
    return Construction(toy_params(sched, rho, dim=dim, depth=depth, **kw))


TOY_MATRIX = [
    (1, 2, Fraction(1, 3)),
    (1, 2, Fraction(1, 2)),
    (2, 2, Fraction(1, 3)),
    (2, 2, Fraction(1, 2)),
]


@pytest.fixture(scope="session")
def toy_cfg():
    """The smallest configuration: seed tile [-1,2], rho = 1/2, depth 2."""
    return make_toy()


@pytest.fixture(scope="session")
def toy_words(toy_cfg):
    return toy_cfg.materialize()


@pytest.fixture(scope="session", params=TOY_MATRIX, ids=lambda t: f"[-{t[0]},{t[1]}]-rho={t[2]}")
def matrix_cfg(request):
    a, b, rho = request.param
    return make_toy(a, b, rho)
