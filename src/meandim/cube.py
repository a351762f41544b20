"""Unit-cube target spaces and the nested rational grids used as alphabets.

A ``Net`` is a finite delta-dense subset of [0,1]^dim in the sup metric,
realized as an axis grid with spacing at most 2*delta.  Net points carry a
fixed lexicographic order so they can serve as digits of a positional code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .groups import fraction_text

# Refuse nets (code alphabets) of more points: the literal materializer builds
# every point of step 1's net.
MAX_NET_POINTS = 2**16


@dataclass(frozen=True)
class Polyhedron:
    """The cube [0,1]^dim with the origin as basepoint."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"field 'dim': {self.dim} is below 1")

    @property
    def basepoint(self) -> tuple:
        return (Fraction(0),) * self.dim


@dataclass(frozen=True)
class Net:
    """The grid {0, 1/k, ..., 1}^dim in [0,1]^dim, its points numbered in
    lexicographic order: the digits of a base-(k + 1)**dim positional code."""

    dim: int
    delta: Fraction
    k: int  # axis steps: the axis points are j/k for j = 0..k

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"field 'dim': {self.dim} is below 1")
        if self.k < 1:
            raise ConfigError(f"a net needs at least one axis step, got {self.k}")

    @property
    def size(self) -> int:
        return (self.k + 1) ** self.dim

    def point_at(self, index: int) -> tuple:
        """The index-th point in lexicographic order (the digit decoder)."""
        if not 0 <= index < self.size:
            raise ValueError(f"net point index {index} out of range")
        digits = []
        for _ in range(self.dim):
            index, d = divmod(index, self.k + 1)
            digits.append(Fraction(d, self.k))
        return tuple(reversed(digits))

    def index_of(self, point: tuple) -> int:
        if len(point) != self.dim:
            raise ValueError("point has wrong dimension")
        index = 0
        for c in point:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            i, r = divmod(c.numerator * self.k, c.denominator)
            if r or not 0 <= i <= self.k:
                raise ValueError(f"{c} is not a net coordinate")
            index = index * (self.k + 1) + i
        return index

    def is_superset_of(self, other: "Net") -> bool:
        return self.dim == other.dim and self.k % other.k == 0


def make_net(dim: int, delta, name: str = "delta") -> Net:
    """Axis grid with spacing 1/ceil(1/(2*delta)), endpoints included.

    Every point of the cube is then within sup-distance delta of a grid
    point, and the point count is (ceil(1/(2*delta)) + 1)^dim, refused past
    MAX_NET_POINTS.  Errors name field ``name``.
    """
    delta = Fraction(delta)
    return Net(dim, delta, _axis_steps(dim, delta, name))


def _axis_steps(dim: int, delta: Fraction, name: str) -> int:
    """The axis spacing 1/k of make_net's grid, refused as make_net refuses it."""
    if not 0 < delta <= 1:
        raise ConfigError(f"field {name!r}: {fraction_text(delta)} outside (0,1]")
    k = math.ceil(1 / (2 * delta))
    # (k + 1)**dim > MAX_NET_POINTS, without the power of a huge dim
    if (k + 1) ** min(dim, MAX_NET_POINTS.bit_length()) > MAX_NET_POINTS:
        raise ConfigError(f"field {name!r}: {fraction_text(delta)} needs over {MAX_NET_POINTS} net points")
    return k


def net_schedule(dim: int, depth: int, deltas=None) -> tuple:
    """Nets for levels 1..depth.  delta_n is ``deltas[n]`` where the mapping
    gives it (the config's ``delta{n}``), else delta_{n-1} / 2, and delta_1
    defaults to 1/2; with no deltas given, consecutive nets are nested by
    refinement.  Every level's point count is checked before the first net
    is built, so an oversized deep net fails at once."""
    deltas = deltas or {}
    chosen, delta = [], Fraction(1)
    for n in range(1, depth + 1):
        delta = Fraction(deltas[n]) if n in deltas else delta / 2
        _axis_steps(dim, delta, f"delta{n}")
        chosen.append(delta)
    return tuple(make_net(dim, delta, f"delta{n}") for n, delta in enumerate(chosen, 1))
