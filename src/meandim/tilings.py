"""Finite tilings of a lattice group: resolvers, window checks, text I/O.

A tiling of an infinite group cannot be stored, so everything goes through a
resolver ``tile_of(g) -> (shape_id, center)``.  Two resolver families exist:

* ``GridTiling``: one rectangular shape, arithmetic resolver, valid on all
  of the group;
* ``ExplicitTiling``: several shapes and a windowed center table, imported
  from a line-oriented text format.

Verification operations return a ``CheckResult`` whose ``ok`` field is True,
False, or None; None marks an inconclusive check (window too small), which
is deliberately distinct from a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .errors import GroupMismatchError, OutOfSupportError
from .groups import Box, Element, FiniteSubset, GROUPS, LatticeGroup


@dataclass
class CheckResult:
    ok: Optional[bool]  # None = inconclusive
    detail: str = ""
    violations: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok is True


class GridTiling:
    """Single-shape tiling of Z^r by the box [-a_i, b_i] with centers q_i Z.

    The shape contains the identity and is itself a tile (center 0), so the
    resolver is pure floor arithmetic and is valid everywhere.
    """

    def __init__(self, group: LatticeGroup, lows: Iterable[int], highs: Iterable[int]):
        self.group = group
        self.box = Box(lows, highs)
        if self.box.rank != group.rank:
            raise GroupMismatchError("shape rank does not match group")
        if group.identity not in self.box:
            raise ValueError("shape must contain the identity")
        self.periods = tuple(hi - lo + 1 for lo, hi in zip(self.box.lows, self.box.highs))
        self.support: Optional[Box] = None  # valid everywhere

    def __repr__(self) -> str:
        return f"GridTiling({self.group}, {self.box})"

    @property
    def shape_ids(self) -> tuple:
        return (1,)

    @cached_property
    def _cells(self) -> FiniteSubset:
        return self.box.to_subset(self.group)

    def shape_cells(self, shape_id: int) -> FiniteSubset:
        if shape_id != 1:
            raise ValueError(f"unknown shape id {shape_id}")
        return self._cells

    def tile_of(self, g: Element) -> tuple:
        c = tuple(
            q * ((x - lo) // q) for x, lo, q in zip(g, self.box.lows, self.periods)
        )
        return 1, c

    def is_center(self, g: Element) -> bool:
        return all(x % q == 0 for x, q in zip(g, self.periods))

    def centers_in(self, shape_id: int, W: FiniteSubset) -> FiniteSubset:
        if shape_id != 1:
            raise ValueError(f"unknown shape id {shape_id}")
        return FiniteSubset(self.group, (g for g in W if self.is_center(g)))

class ExplicitTiling:
    """Tiling given by shapes plus a (center, shape_id) table on a window.

    The table is taken as-is; inconsistencies (overlaps, gaps) are detected
    by ``verify_partition`` rather than rejected here, so corrupted tables
    can be used as verification targets.
    """

    def __init__(
        self,
        group: LatticeGroup,
        shapes: Iterable[FiniteSubset],
        centers: Iterable[tuple],
        support: Box,
    ):
        self.group = group
        self.shapes = tuple(shapes)
        if not self.shapes:
            raise ValueError("at least one shape required")
        for s in self.shapes:
            if group.identity not in s:
                raise ValueError("every shape must contain the identity")
        self.centers = tuple((tuple(c), int(sid)) for c, sid in centers)
        for _, sid in self.centers:
            if not 1 <= sid <= len(self.shapes):
                raise ValueError(f"shape id {sid} out of range")
        self.support = support
        # cell -> sorted list of claiming tiles
        claims: dict = {}
        for c, sid in self.centers:
            for s in self.shapes[sid - 1]:
                cell = group.mul(s, c)
                claims.setdefault(cell, []).append((sid, c))
        self._claims = {cell: sorted(ts) for cell, ts in claims.items()}

    def __repr__(self) -> str:
        return f"ExplicitTiling({self.group}, {len(self.shapes)} shapes, {len(self.centers)} tiles)"

    @property
    def shape_ids(self) -> tuple:
        return tuple(range(1, len(self.shapes) + 1))

    def shape_cells(self, shape_id: int) -> FiniteSubset:
        if not 1 <= shape_id <= len(self.shapes):
            raise ValueError(f"unknown shape id {shape_id}")
        return self.shapes[shape_id - 1]

    def tile_of(self, g: Element) -> tuple:
        if self.support is not None and g not in self.support:
            raise OutOfSupportError(f"{g} outside resolver support {self.support}")
        ts = self._claims.get(tuple(g))
        if not ts:
            raise OutOfSupportError(f"{g} not covered by the center table")
        return ts[0]  # deterministic choice; overlaps surface in verify_partition

    def centers_in(self, shape_id: int, W: FiniteSubset) -> FiniteSubset:
        if not 1 <= shape_id <= len(self.shapes):
            raise ValueError(f"unknown shape id {shape_id}")
        return FiniteSubset(
            self.group,
            (c for c, sid in self.centers if sid == shape_id and c in W),
        )

    def shapes_pairwise_non_translates(self) -> CheckResult:
        """Check the minimal-cardinality convention for imported shape lists."""
        normalized = []
        for i, s in enumerate(self.shapes, start=1):
            anchor = s.elements[0]
            normalized.append(
                (i, tuple(self.group.mul(e, self.group.inv(anchor)) for e in s))
            )
        bad = []
        for i, (ia, na) in enumerate(normalized):
            for ib, nb in normalized[i + 1 :]:
                if na == nb:
                    bad.append((ia, ib))
        if bad:
            return CheckResult(False, "shapes are translates of each other", bad)
        return CheckResult(True)


def verify_partition(tiling, W: FiniteSubset) -> CheckResult:
    """Check that the tiles meeting W are pairwise disjoint and cover W.

    W must sit inside the resolver support, enlarged by the shape diameters.
    Violations are reported, never raised.
    """
    group = tiling.group
    cover_viol = []
    tiles = {}
    for g in W:
        try:
            sid, c = tiling.tile_of(g)
        except OutOfSupportError as exc:
            cover_viol.append(("uncovered", g, str(exc)))
            continue
        if group.mul(group.inv(c), g) not in tiling.shape_cells(sid):
            cover_viol.append(("resolver_mismatch", g, (sid, c)))
            continue
        tiles[(sid, c)] = True
    disjoint_viol = []
    for sid, c in tiles:
        for s in tiling.shape_cells(sid):
            h = group.mul(s, c)
            try:
                other = tiling.tile_of(h)
            except OutOfSupportError:
                continue  # tile sticks out of the support window
            if other != (sid, c):
                disjoint_viol.append(("overlap", h, (sid, c), other))
    covered = not cover_viol
    disjoint = not disjoint_viol
    return CheckResult(
        covered and disjoint,
        f"covered={covered} disjoint={disjoint}",
        cover_viol + disjoint_viol,
    )


def _complete_coarse_tiles(coarse, W: FiniteSubset):
    """Coarse tiles whose cells all lie in W, via the coarse resolver; each
    tile meeting W is looked at once, whether or not it is complete."""
    out = {}
    seen = set()
    wset = set(W.elements)
    group = coarse.group
    for g in W:
        try:
            tile = coarse.tile_of(g)
        except OutOfSupportError:
            continue
        if tile in seen:
            continue
        seen.add(tile)
        sid, c = tile
        cells = [group.mul(s, c) for s in coarse.shape_cells(sid)]
        if all(h in wset for h in cells):
            out[tile] = cells
    return out


def _decomposition(fine, coarse_cells, group) -> Optional[frozenset]:
    """Fine tiles partitioning the given coarse tile, or None if they cross."""
    cellset = set(coarse_cells)
    seen = {}
    for h in coarse_cells:
        try:
            fsid, fc = fine.tile_of(h)
        except OutOfSupportError:
            return None
        if (fsid, fc) in seen:
            continue
        fine_cells = [group.mul(s, fc) for s in fine.shape_cells(fsid)]
        if not all(x in cellset for x in fine_cells):
            return None  # fine tile crosses the coarse boundary
        seen[(fsid, fc)] = True
    return frozenset(seen)


def verify_congruent(fine, coarse, W: FiniteSubset) -> CheckResult:
    """True iff every coarse tile fully inside W is an exact union of fine tiles."""
    complete = _complete_coarse_tiles(coarse, W)
    if not complete:
        return CheckResult(None, "no complete coarse tile inside the window")
    bad = []
    for (sid, c), cells in complete.items():
        if _decomposition(fine, cells, coarse.group) is None:
            bad.append(("not_a_union_of_fine_tiles", sid, c))
    return CheckResult(not bad, f"checked={len(complete)}", bad)


def verify_primely_congruent(fine, coarse, W: FiniteSubset) -> CheckResult:
    """Congruent, and same-shape coarse tiles decompose identically after
    translating both to a common center."""
    complete = _complete_coarse_tiles(coarse, W)
    if not complete:
        return CheckResult(None, "no complete coarse tile inside the window")
    group = coarse.group
    bad = []
    reference: dict = {}
    for (sid, c), cells in sorted(complete.items()):
        dec = _decomposition(fine, cells, group)
        if dec is None:
            bad.append(("not_a_union_of_fine_tiles", sid, c))
            continue
        rel = frozenset((fsid, group.mul(fc, group.inv(c))) for fsid, fc in dec)
        if sid not in reference:
            reference[sid] = (c, rel)
        elif reference[sid][1] != rel:
            bad.append(("master_partition_mismatch", sid, reference[sid][0], c))
    return CheckResult(not bad, f"checked={len(complete)}", bad)


# ---------------------------------------------------------------------------
# Line-oriented text format for explicit tilings.


def _fmt_cell(cell: Element) -> str:
    return ",".join(str(x) for x in cell)


def _parse_cell(token: str, rank: int) -> Element:
    parts = token.split(",")
    if len(parts) != rank:
        raise ValueError(f"cell {token!r} has wrong rank")
    return tuple(int(p) for p in parts)


def write_tiling(tiling: ExplicitTiling) -> str:
    lines = [f"group {tiling.group.name}"]
    sup = tiling.support
    lines.append(
        "support " + " ".join(f"{lo} {hi}" for lo, hi in zip(sup.lows, sup.highs))
    )
    lines.append(f"shapes {len(tiling.shapes)}")
    for i, s in enumerate(tiling.shapes, start=1):
        lines.append(f"shape {i} " + " ".join(_fmt_cell(c) for c in s))
    lines.append(f"tiles {len(tiling.centers)}")
    for c, sid in sorted(tiling.centers):
        lines.append(f"{_fmt_cell(c)} {sid}")
    return "\n".join(lines) + "\n"


def read_tiling(text: str) -> ExplicitTiling:
    """Parse ``write_tiling`` output; malformed or truncated text, or a shape
    list with two translates of one shape, raises ValueError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("group "):
        raise ValueError("missing group header")
    group = GROUPS.get(lines[0].split()[1])
    if group is None:
        raise ValueError(f"unknown group {lines[0].split()[1]!r}")
    rank = group.rank
    try:
        if not lines[1].startswith("support "):
            raise ValueError("missing support header")
        nums = [int(t) for t in lines[1].split()[1:]]
        if len(nums) != 2 * rank:
            raise ValueError("support needs lo/hi per axis")
        support = Box(nums[0::2], nums[1::2])
        n_shapes = int(lines[2].split()[1])
        shapes = []
        at = 3
        for i in range(n_shapes):
            parts = lines[at].split()
            if parts[0] != "shape" or int(parts[1]) != i + 1:
                raise ValueError(f"bad shape line: {lines[at]!r}")
            shapes.append(FiniteSubset(group, (_parse_cell(t, rank) for t in parts[2:])))
            at += 1
        n_tiles = int(lines[at].split()[1])
        centers = []
        for ln in (lines[at + 1 + k] for k in range(n_tiles)):
            token, sid = ln.split()
            centers.append((_parse_cell(token, rank), int(sid)))
    except IndexError:
        raise ValueError("truncated tiling") from None
    tiling = ExplicitTiling(group, shapes, centers, support)
    res = tiling.shapes_pairwise_non_translates()
    if not res:
        raise ValueError(f"shape list not minimal: {res.violations}")
    return tiling
