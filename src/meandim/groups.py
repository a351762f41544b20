"""Concrete lattice groups (Z and Z^2) with finite-set calculus.

Group elements are plain integer tuples, multiplication is componentwise
addition.  Two fixed orders matter everywhere downstream:

* the canonical total order: lexicographic comparison of coordinate tuples;
* the enumeration g_1, g_2, ...: spiral order (0, 1, -1, 2, -2, ... for Z,
  a square spiral for Z^2), which visits every element exactly once and
  eventually covers every ball.

All densities are exact ``Fraction`` values; no floating point.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Iterator

from .errors import GroupMismatchError, SizeGuardError

Element = tuple  # tuple of ints, length == group rank

# Hard cap on the number of cells any operation is allowed to materialize.
CELL_GUARD = 2_000_000


# Digits per chunk of decimal_text, far below CPython's int->str limit
# (4300 digits by default since 3.11), which the program never lifts.
DECIMAL_CHUNK = 1000


def decimal_text(n: int) -> str:
    """Exact decimal text of an int of any size, the same as str(n).

    Ints past the int->str digit limit are split into DECIMAL_CHUNK-digit
    chunks by repeated divmod, each printed zero-padded."""
    chunk = 10**DECIMAL_CHUNK
    if -chunk < n < chunk:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    parts = []
    while n >= chunk:
        n, r = divmod(n, chunk)
        parts.append(f"{r:0{DECIMAL_CHUNK}d}")
    parts.append(str(n))
    return sign + "".join(reversed(parts))


def fraction_text(x) -> str:
    """str(x) of a Fraction, for numerators and denominators past the
    int->str digit limit."""
    text = decimal_text(x.numerator)
    return text if x.denominator == 1 else f"{text}/{decimal_text(x.denominator)}"


class LatticeGroup:
    """The group Z^rank under coordinatewise addition."""

    def __init__(self, rank: int, name: str):
        if rank not in (1, 2):
            raise ValueError("only rank 1 and 2 lattice groups are built in")
        self.rank = rank
        self.name = name
        self.identity: Element = (0,) * rank

    def __repr__(self) -> str:
        return self.name

    def element(self, *coords: int) -> Element:
        if len(coords) != self.rank:
            raise ValueError(f"{self.name} elements need {self.rank} coordinates")
        if not all(isinstance(c, int) for c in coords):
            raise ValueError("coordinates must be integers")
        return tuple(coords)

    def mul(self, a: Element, b: Element) -> Element:
        return tuple(map(operator.add, a, b))

    def inv(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def spiral(self) -> Iterator[Element]:
        """Yield g_1, g_2, ... in the fixed enumeration order."""
        if self.rank == 1:
            yield (0,)
            k = 1
            while True:
                yield (k,)
                yield (-k,)
                k += 1
        else:
            x = y = 0
            yield (x, y)
            step = 1
            while True:
                for _ in range(step):
                    x += 1
                    yield (x, y)
                for _ in range(step):
                    y += 1
                    yield (x, y)
                step += 1
                for _ in range(step):
                    x -= 1
                    yield (x, y)
                for _ in range(step):
                    y -= 1
                    yield (x, y)
                step += 1

    def enumerate_element(self, n: int) -> Element:
        """Return g_n (1-based) of the spiral enumeration."""
        if n < 1:
            raise ValueError("enumeration index must be >= 1")
        if self.rank == 1:
            if n == 1:
                return (0,)
            k, odd = divmod(n, 2)
            return (k,) if odd == 0 else (-k,)
        it = self.spiral()
        for _ in range(n - 1):
            next(it)
        return next(it)

    def ball(self, r: int) -> "FiniteSubset":
        """Sup-norm ball of radius r, as an explicit set."""
        rng = range(-r, r + 1)
        return FiniteSubset(self, iter_product(*([rng] * self.rank)))


Z = LatticeGroup(1, "Z")
Z2 = LatticeGroup(2, "Z2")
GROUPS = {"Z": Z, "Z2": Z2}


class FiniteSubset:
    """A nonempty-or-empty finite subset of a lattice group.

    Elements are stored deduplicated in canonical (lexicographic) order.
    """

    __slots__ = ("group", "elements", "_set")

    def __init__(self, group: LatticeGroup, elements: Iterable[Element]):
        elems = sorted(set(tuple(e) for e in elements))
        for e in elems:
            if len(e) != group.rank:
                raise ValueError(f"element {e} has wrong rank for {group}")
        self.group = group
        self.elements: tuple = tuple(elems)
        self._set = frozenset(elems)

    @staticmethod
    def interval(a: int, b: int) -> "FiniteSubset":
        """The integer interval [a, b] in Z."""
        if a > b:
            raise ValueError("empty interval")
        return FiniteSubset(Z, ((i,) for i in range(a, b + 1)))

    @staticmethod
    def box2(xlo: int, xhi: int, ylo: int, yhi: int) -> "FiniteSubset":
        if xlo > xhi or ylo > yhi:
            raise ValueError("empty box")
        return FiniteSubset(Z2, iter_product(range(xlo, xhi + 1), range(ylo, yhi + 1)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, g: Element) -> bool:
        return g in self._set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSubset)
            and self.group is other.group
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.group.name, self.elements))

    def __repr__(self) -> str:
        shown = ", ".join(map(str, self.elements[:6]))
        more = "" if len(self) <= 6 else f", ... ({len(self)} elements)"
        return f"FiniteSubset({self.group}: {shown}{more})"

    def _check_same_group(self, other: "FiniteSubset") -> None:
        if self.group is not other.group:
            raise GroupMismatchError(f"mixed groups {self.group} and {other.group}")

    def product(self, other: "FiniteSubset") -> "FiniteSubset":
        """Pointwise set product AB = {a + b}."""
        self._check_same_group(other)
        if len(self) * len(other) > CELL_GUARD:
            raise SizeGuardError("set product too large to materialize")
        mul = self.group.mul
        return FiniteSubset(
            self.group, (mul(a, b) for a in self.elements for b in other.elements)
        )

    def inverse(self) -> "FiniteSubset":
        return FiniteSubset(self.group, (self.group.inv(a) for a in self.elements))

    def translate(self, g: Element) -> "FiniteSubset":
        mul = self.group.mul
        return FiniteSubset(self.group, (mul(a, g) for a in self.elements))


def boundary(A: FiniteSubset, K: FiniteSubset) -> FiniteSubset:
    """K-boundary of A: elements g with Kg meeting both A and its complement.

    Kg meets A only when g lies in K^{-1}A, so the result is finite and the
    scan below is exhaustive.
    """
    A._check_same_group(K)
    if len(A) == 0 or len(K) == 0:
        raise ValueError("boundary needs nonempty sets")
    mul = A.group.mul
    out = []
    for g in K.inverse().product(A):
        hits = misses = False
        for k in K.elements:
            if mul(k, g) in A:
                hits = True
            else:
                misses = True
            if hits and misses:
                out.append(g)
                break
    return FiniteSubset(A.group, out)


def is_invariant(A: FiniteSubset, K: FiniteSubset, delta) -> bool:
    """True iff |B(A,K)| / |A| < delta (strict, exact rationals)."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return Fraction(len(boundary(A, K)), len(A)) < delta


def covers_window(F: FiniteSubset, S_sample: FiniteSubset, W: FiniteSubset) -> bool:
    """Window-level check of G = FS: true iff W is covered by F * S_sample.

    The caller supplies the visible portion of S, typically S intersected
    with F^{-1}W.
    """
    F._check_same_group(S_sample)
    F._check_same_group(W)
    if len(W) == 0:
        return True
    covered = F.product(S_sample)
    return all(w in covered for w in W)


class Box:
    """An axis-aligned integer box, kept implicit (never materialized).

    Used for tile shapes and windows whose volume may be astronomically
    large; only arithmetic queries are supported unless the volume is
    small enough to iterate.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Iterable[int], highs: Iterable[int]):
        lows = tuple(lows)
        highs = tuple(highs)
        if len(lows) != len(highs):
            raise ValueError("lows/highs rank mismatch")
        for lo, hi in zip(lows, highs):
            if lo > hi:
                raise ValueError(f"empty box axis [{lo}, {hi}]")
        self.lows = lows
        self.highs = highs

    @property
    def rank(self) -> int:
        return len(self.lows)

    @property
    def volume(self) -> int:
        v = 1
        for lo, hi in zip(self.lows, self.highs):
            v *= hi - lo + 1
        return v

    def __contains__(self, g: Element) -> bool:
        return all(lo <= x <= hi for x, lo, hi in zip(g, self.lows, self.highs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Box)
            and self.lows == other.lows
            and self.highs == other.highs
        )

    def __hash__(self) -> int:
        return hash((self.lows, self.highs))

    def __repr__(self) -> str:
        spans = "x".join(
            f"[{decimal_text(lo)},{decimal_text(hi)}]" for lo, hi in zip(self.lows, self.highs)
        )
        return f"Box({spans})"

    def contains_box(self, other: "Box") -> bool:
        return all(
            slo <= olo and ohi <= shi
            for slo, shi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs)
        )

    def ball_boundary_size(self, r: int) -> int:
        """|B(box, ball(r))| for the sup-norm ball, in closed form.

        ball(r)g meets the box iff g lies in the box grown by r on every
        side, and stays inside it iff g lies in the box shrunk by r; the
        boundary is the difference.  Agrees with ``boundary`` without
        materializing anything.
        """
        grown = shrunk = 1
        for lo, hi in zip(self.lows, self.highs):
            side = hi - lo + 1
            grown *= side + 2 * r
            shrunk *= max(side - 2 * r, 0)
        return grown - shrunk

    def translate(self, g: Element) -> "Box":
        return Box(
            tuple(lo + x for lo, x in zip(self.lows, g)),
            tuple(hi + x for hi, x in zip(self.highs, g)),
        )

    def guard_cells(self) -> None:
        """Raise SizeGuardError if the box has more cells than CELL_GUARD."""
        if self.volume > CELL_GUARD:
            raise SizeGuardError(f"box of volume {decimal_text(self.volume)} exceeds the cell guard")

    def cells(self) -> Iterator[Element]:
        """Iterate cells in canonical (lexicographic) order; guarded."""
        self.guard_cells()
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lows, self.highs)]
        return iter_product(*ranges)

    def to_subset(self, group: LatticeGroup) -> FiniteSubset:
        if group.rank != self.rank:
            raise GroupMismatchError("box rank does not match group rank")
        return FiniteSubset(group, self.cells())
