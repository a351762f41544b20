"""Unit-cube target spaces and the nested rational grids used as alphabets.

A ``Net`` is a finite delta-dense subset of [0,1]^dim in the sup metric,
realized as an axis grid with spacing at most 2*delta.  Net points carry a
fixed lexicographic order so they can serve as digits of a positional code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterator


@dataclass(frozen=True)
class Polyhedron:
    """The cube [0,1]^dim with the origin as basepoint."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def basepoint(self) -> tuple:
        return (Fraction(0),) * self.dim


@dataclass(frozen=True)
class Net:
    """A finite grid in [0,1]^dim: the product of one axis point list per axis."""

    dim: int
    delta: Fraction
    axis: tuple  # increasing Fractions in [0,1]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if any(not (0 <= p <= 1) for p in self.axis):
            raise ValueError("axis points must lie in [0,1]")
        if tuple(sorted(set(self.axis))) != self.axis:
            raise ValueError("axis points must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.axis) ** self.dim

    def point_at(self, index: int) -> tuple:
        """The index-th point in lexicographic order (the digit decoder)."""
        if not 0 <= index < self.size:
            raise ValueError(f"net point index {index} out of range")
        k = len(self.axis)
        digits = []
        for _ in range(self.dim):
            index, d = divmod(index, k)
            digits.append(d)
        return tuple(self.axis[d] for d in reversed(digits))

    def index_of(self, point: tuple) -> int:
        if len(point) != self.dim:
            raise ValueError("point has wrong dimension")
        k = len(self.axis)
        pos = {p: i for i, p in enumerate(self.axis)}
        index = 0
        for c in point:
            c = Fraction(c)
            if c not in pos:
                raise ValueError(f"{c} is not a net coordinate")
            index = index * k + pos[c]
        return index

    def __contains__(self, point: tuple) -> bool:
        try:
            self.index_of(point)
        except ValueError:
            return False
        return True

    def points(self) -> Iterator[tuple]:
        return iter_product(*([self.axis] * self.dim))

    def is_superset_of(self, other: "Net") -> bool:
        return self.dim == other.dim and set(other.axis) <= set(self.axis)


def axis_points(delta) -> int:
    """Points per axis of ``make_net(dim, delta)``: ceil(1/(2*delta)) + 1."""
    return math.ceil(Fraction(1, 2 * Fraction(delta))) + 1


def make_net(dim: int, delta) -> Net:
    """Axis grid with spacing 1/ceil(1/(2*delta)), endpoints included.

    Every point of the cube is then within sup-distance delta of a grid
    point, and the point count is axis_points(delta)^dim.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if delta > 1:
        raise ValueError("delta must be at most 1")
    k = axis_points(delta) - 1
    axis = tuple(Fraction(j, k) for j in range(k + 1))
    return Net(dim, delta, axis)


def verify_dense(net: Net) -> bool:
    """Check delta-density by covering the dual grid of axis gaps.

    In the sup metric the covering property factorizes per axis: both
    endpoints present and every gap at most 2*delta.
    """
    axis = net.axis
    if not axis or axis[0] != 0 or axis[-1] != 1:
        return False
    return all(b - a <= 2 * net.delta for a, b in zip(axis, axis[1:]))


def net_schedule(dim: int, depth: int, first=Fraction(1, 2)) -> tuple:
    """Nets for the halving schedule delta_n = first / 2^(n-1), one per level;
    consecutive nets are nested by refinement."""
    return tuple(make_net(dim, Fraction(first) / 2**i) for i in range(depth))
