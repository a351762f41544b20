"""Finitely checkable consequences of a planned construction.

Everything here is exact: densities and bound estimates are Fractions,
window comparisons are symbol-by-symbol equality, and the free-coordinate
sets are read from tile walks of the level words rather than materialized.

The dimension bounds are certified window estimates along the
construction's own Folner windows, not suprema over all Folner sequences.
The free-coordinate count of the upper bound is reported both bare and
scaled by the cube dimension; the two disagree for dim > 1 and the report
carries both rather than picking one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .construction import MATERIALIZE_GUARD, Construction, HASH, STAR
from .errors import DepthError, SizeGuardError
from .groups import Box, Element
from .tilings import CheckResult


@dataclass(frozen=True)
class DensityReport:
    window_id: str
    window_size: int
    star_density: Fraction
    hash_density: Fraction


def densities(word, window_id: str = "") -> DensityReport:
    """Exact star and hash densities of a finite word.

    ``word`` is a mapping position -> value or an iterable of (position,
    value) pairs, as produced by ``Construction.window``.
    """
    pairs = word.items() if hasattr(word, "items") else list(word)
    total = len(pairs) if not hasattr(word, "items") else len(word)
    if total == 0:
        raise ValueError("empty window")
    stars = sum(1 for _, v in pairs if v is STAR)
    hashes = sum(1 for _, v in pairs if v is HASH)
    return DensityReport(window_id, total, Fraction(stars, total), Fraction(hashes, total))


class FreeSet:
    """The level-n free coordinates: stars of V_{n+1}, pulled back along the
    link shifts.  Kept implicit; membership and exact size are always
    available, enumeration only when the level tile is small."""

    def __init__(self, cfg: Construction, n: int):
        if not 0 <= n <= cfg.params.depth:
            raise DepthError(f"free set level {n} needs depth >= {n}")
        self.cfg = cfg
        self.n = n
        self.shift = cfg.link_shift(n)  # J_n + shift = stars of V_{n+1}
        self.size = 0 if n == 0 else cfg.levels[n + 1].stars
        self.window_box = cfg.follower_box(n) if n >= 1 else None

    def __contains__(self, g: Element) -> bool:
        if self.n == 0:
            return False
        h = self.cfg.group.mul(tuple(g), self.shift)
        if h not in self.cfg.levels[self.n + 1].box:
            return False
        return self.cfg.level_values(self.n + 1, Box(h, h))[0] is STAR

    def members(self, box: Box) -> list:
        """Membership of each cell of a box that pulls back into the
        level-(n+1) tile, in ``Box.cells()`` order, from one tile walk."""
        if self.n == 0:
            return [False] * box.volume
        moved = box.translate(self.shift)
        return [v is STAR for v in self.cfg.level_values(self.n + 1, moved)]

    @property
    def density(self) -> Fraction:
        if self.n == 0:
            return Fraction(0)
        return Fraction(self.size, self.cfg.levels[self.n + 1].volume)

    def elements(self) -> list:
        if self.n == 0:
            return []
        inv = self.cfg.group.inv(self.shift)
        return [self.cfg.group.mul(p, inv) for p in self.cfg.star_positions(self.n + 1)]

    def restrict(self, cells) -> list:
        return [tuple(g) for g in cells if tuple(g) in self]


def free_set(cfg: Construction, n: int) -> FreeSet:
    return FreeSet(cfg, n)


def verify_free_nesting(cfg: Construction, n: int) -> CheckResult:
    """Exact set inclusion J_{n-1} within J_n (exhaustive when enumerable).

    J_{n-1} lies in its follower box, so two walks of that box decide it:
    V_n on the level-n tile and V_{n+1} on the level-n link tile of step n.
    """
    if n < 1:
        raise ValueError("nesting starts at n = 1")
    smaller = FreeSet(cfg, n - 1)
    larger = FreeSet(cfg, n)
    if smaller.n == 0:
        return CheckResult(True, "J_0 is empty")
    box = smaller.window_box
    if box.volume > MATERIALIZE_GUARD:
        return CheckResult(None, f"J_{n-1} too large to enumerate")
    inner, outer = smaller.members(box), larger.members(box)
    missing = [g for g, a, b in zip(box.cells(), inner, outer) if a and not b]
    if missing:
        return CheckResult(False, f"J_{n-1} not within J_{n}", missing[:10])
    return CheckResult(True, f"all {sum(inner)} elements of J_{n-1} lie in J_{n}")


def lower_bound_estimate(cfg: Construction, n: int) -> Fraction:
    """Free-coordinate density of the level-n Folner window, times dim P.

    Exceeds rho * dim P by at most dim P / |window|; a certified estimate of
    the mean-dimension lower bound along these windows.
    """
    fs = FreeSet(cfg, n)
    if n < 1:
        raise ValueError("estimates start at n = 1")
    return fs.density * cfg.params.cube.dim


@dataclass(frozen=True)
class BoundEstimate:
    level: int
    window_volume: int
    class_count: int
    whole_tiles_min: int
    free_fraction: Fraction  # worst-class free coordinates / |W|
    scaled: Fraction  # free_fraction * dim P
    boundary_fraction: Fraction
    envelope_fraction: Fraction  # rho + 1/|S_n| + boundary fraction
    envelope_scaled: Fraction
    # always False: the minimum over classes is the closed form min_whole;
    # the field stays while the benchmark probes read it
    exhaustive: bool


def upper_bound_estimate(
    cfg: Construction, n: int, window: Optional[Box] = None
) -> Optional[BoundEstimate]:
    """Worst-case free-coordinate count over the translation classes of the
    level-n tiling relative to a window.

    Coordinates not fixed by every configuration agreeing on the class
    pattern are the stars of whole tiles inside the window plus everything
    in boundary-cut tiles.  Returns None when the window cannot contain a
    whole tile (inconclusive).
    """
    if not 1 <= n <= cfg.params.depth + 1:
        raise DepthError(f"level {n} not planned")
    lvl = cfg.levels[n]
    if window is None:
        if n + 1 > cfg.params.depth + 1:
            raise DepthError("default window needs the next level")
        window = cfg.levels[n + 1].box
    q = lvl.periods
    spans = [hi - lo + 1 for lo, hi in zip(window.lows, window.highs)]
    pts = [span - qq + 1 for span, qq in zip(spans, q)]  # center slots per axis
    if any(p <= 0 for p in pts):
        return None
    wvol = window.volume
    # a class (one residue per axis) has floor or ceil(p / q) whole tiles
    # along each axis, and some class has the floor on every axis at once
    min_whole = 1
    for p, qq in zip(pts, q):
        min_whole *= p // qq
    class_count = 1
    for qq in q:
        class_count *= qq
    free_max = min_whole * lvl.stars + (wvol - min_whole * lvl.volume)
    free_fraction = Fraction(free_max, wvol)
    boundary = Fraction(wvol - min_whole * lvl.volume, wvol)
    envelope = cfg.rho + Fraction(1, lvl.volume) + boundary
    dim = cfg.params.cube.dim
    est = BoundEstimate(
        level=n,
        window_volume=wvol,
        class_count=class_count,
        whole_tiles_min=min_whole,
        free_fraction=free_fraction,
        scaled=free_fraction * dim,
        boundary_fraction=boundary,
        envelope_fraction=envelope,
        envelope_scaled=envelope * dim,
        exhaustive=False,
    )
    return est


@dataclass
class MinimalityReport:
    level: int
    sampled: int
    recurrence_ok: bool
    syndetic_ok: bool
    witness: str
    mismatches: list = field(default_factory=list)
    diagnostic: str = "evidence-based, not a proof"

    @property
    def ok(self) -> bool:
        return self.recurrence_ok and self.syndetic_ok


def minimality_check(
    cfg: Construction,
    n: int,
    sample_size: int = 100,
    seed: int = 0,
    span: int = 10**6,
) -> MinimalityReport:
    """Recurrence of the configuration along level-(n+1) tile centers.

    Samples centers (seeded), shifts the level-n window there and compares
    symbol by symbol.  Syndeticity of the center lattice q Z^r needs no
    scan: F = [0, q) covers every g from the center q * floor(g / q).
    """
    if n + 1 > cfg.params.depth + 1:
        raise DepthError(f"minimality at level {n} needs depth >= {n}")
    group = cfg.group
    base_box = cfg.levels[n].box
    if base_box.volume > 100_000:
        raise SizeGuardError("comparison window too large")
    base = cfg.window_values(base_box, "x")
    q = cfg.levels[n + 1].periods
    rng = random.Random(seed)
    shifts = [group.identity]
    while len(shifts) < sample_size:
        k = tuple(rng.randrange(-span, span + 1) for _ in range(group.rank))
        shifts.append(tuple(kk * qq for kk, qq in zip(k, q)))
    mismatches = []
    for c in shifts:
        got = cfg.window_values(base_box.translate(c), "x")
        if got != base:
            i, g = next(
                (i, g) for i, (g, want, have) in enumerate(zip(base_box.cells(), base, got))
                if want != have
            )
            mismatches.append((c, g, base[i], got[i]))
    witness = f"F = [0,q) box with q = {q}: g = q*floor(g/q) + r, 0 <= r < q"
    return MinimalityReport(n, len(shifts), not mismatches, True, witness, mismatches)


@dataclass
class MdimRow:
    level: int
    lower: Fraction
    upper_count: Fraction
    upper_scaled: Fraction
    envelope_scaled: Fraction
    gap: Fraction
    certified_low: Fraction  # lower minus the window slack, below rho*dim


@dataclass
class MdimReport:
    rho_dim: Fraction
    rows: list
    gaps_monotone: bool
    brackets_contain_target: bool
    approximate: bool


def mdim_report(cfg: Construction, depth: Optional[int] = None) -> MdimReport:
    """Per-level bound table; the certified bracket always contains rho*dim P."""
    depth = depth or cfg.params.depth
    dim = cfg.params.cube.dim
    target = cfg.rho * dim
    rows = []
    for n in range(1, depth + 1):
        lower = lower_bound_estimate(cfg, n)
        est = upper_bound_estimate(cfg, n)
        if est is None:
            continue
        slack = Fraction(dim, cfg.levels[n + 1].volume)
        rows.append(
            MdimRow(
                level=n,
                lower=lower,
                upper_count=est.free_fraction,
                upper_scaled=est.scaled,
                envelope_scaled=est.envelope_scaled,
                gap=est.scaled - lower,
                certified_low=lower - slack,
            )
        )
    monotone = all(a.gap >= b.gap for a, b in zip(rows, rows[1:]))
    contains = all(r.certified_low <= target <= r.upper_scaled for r in rows)
    return MdimReport(target, rows, monotone, contains, cfg.approximate)
