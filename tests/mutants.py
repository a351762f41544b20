"""Mutation harness: does tier-1 fail for each planted one-line defect?

Each entry of ``MUTANTS`` plants one defect: in ``file`` (relative to the
repository root), the text ``old``, which must occur there exactly once,
becomes ``new``; ``why`` says what the defect breaks.  For each mutant the
harness copies the checkout (without ``.git`` and caches) to a temporary
directory, applies the mutant, runs ``python -m pytest -x -q`` there under
a cap of ``TIMEOUT`` seconds, and prints one JSON line: ``killed`` (the suite
failed), ``survived`` (it passed) or ``timeout``.  Every mutant must apply
before any suite runs, and an unmutated copy runs first and must pass.  A
mutant marked ``equivalent`` changes no behaviour, for the reason given; it is
run and reported, but the score leaves it out::

    python tests/mutants.py

The last line is the score, killed over the mutants not marked equivalent,
with the wall time; the exit code is 1 if any of those survived or timed
out.  Stdlib only; pytest does not collect this file (its name has no
``test_`` prefix).  A survivor costs one full tier-1 run, so the harness is
run by hand; CI only checks that every mutant still applies, so that a
change which rewrites an anchored line re-anchors its mutant.  Grounding:
DeMillo-Lipton-Sayward, *Hints on test data selection*, IEEE Computer
11(4) (1978).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

REPO = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds per suite run
ANALYSIS, CONSTRUCTION = "src/meandim/analysis.py", "src/meandim/construction.py"
SCHEDULES = "src/meandim/schedules.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str
    equivalent: Optional[str] = None  # the reason it changes no behaviour


MUTANTS = [
    Mutant("nesting-comparison", ANALYSIS, "if a == 0 and b]", "if a == 0 and not b]",
           "the nesting row names the elements of J_(n-1) that J_n holds, not those it misses"),
    Mutant("nesting-link-tile", ANALYSIS, "view.level_codes(n + 1, tile.translate(cfg.steps[n].link_center))",
           "view.level_codes(n + 1, tile)",
           "J_n is read at the level-n tile of the origin, code tile 0 of step n, not at step n's link tile"),
    Mutant("lower-bound-level", ANALYSIS, "Fraction(cfg.levels[n + 1].stars, cfg.levels[n + 1].volume)",
           "Fraction(cfg.levels[n].stars, cfg.levels[n].volume)",
           "the lower bound counts the stars of V_n, not the free coordinates J_n (the stars of V_(n+1))"),
    Mutant("one-walk-reuse", CONSTRUCTION, "        if self._walk is not None:\n            return self\n", "",
           "a view makes a new walk for each multi-box call it is given, so the battery walks once per row"),
    Mutant("decode-view", CONSTRUCTION, "at = view._walk.values(", "at = self._tile_walk().values(",
           "a decode on a plain plan ranks its stars on a walk of their own"),
    Mutant("minimality-view", ANALYSIS, "    cfg = cfg.with_one_walk()  # every window through one walk\n", "",
           "a minimality check on a plain plan walks every window afresh, 21 walks a call"),
    Mutant("minimality-level-check", ANALYSIS, '    if n < 1:\n        raise ValueError("minimality starts at n = 1")\n',
           "", "minimality_check(cfg, 0) raises a bare KeyError"),
    Mutant("star-positions-level-check", CONSTRUCTION,
           'a walk of the whole tile."""\n        if not 1 <= n <= self.params.depth + 1:',
           'a walk of the whole tile."""\n        if not 1 <= n <= self.params.depth + 2:',
           "star_positions past the top planned level raises a bare KeyError"),
    Mutant("band-cut-unclamped", CONSTRUCTION, "min(max(cut, ja), jb + 1)", "cut",
           "bands off the host are keyed by their raw thinning cut, so every band thinned whole is laid afresh"),
    Mutant("power-extension", SCHEDULES, "value *= base ** (e - top)", "value *= base ** (e - top + 1)",
           "a base's highest power is extended one exponent too far"),
    Mutant("anchor-unshifted-host", CONSTRUCTION, "contains_box(host_box.translate(shift))", "contains_box(host_box)",
           "the anchor test reads the host box in place, which every level above the host holds"),
    Mutant("rank-offset-skipped", CONSTRUCTION, "                   if ranks else 0)", "                   if False else 0)",
           "a ranks walk skips each run's rank offset too, so every run's ranks start at 0"),
    Mutant("index-thinned-shift", CONSTRUCTION, "at = [(p - thinned, ", "at = [(p, ",
           "the stars of a thinned tile keep their ranks in the piece, though its star of rank 0 is shed"),
    Mutant("index-row-stride", CONSTRUCTION, "i // w * width", "i // w * w",
           "a star's row in its piece is strided by the piece's width, not the box's"),
    Mutant("index-run-column", CONSTRUCTION, "col += (e - s) * w", "col += w",
           "the next run's first column skips one tile of the run before it, not all of them"),
    Mutant("index-seed-offset", CONSTRUCTION, "range(len(vals), len(vals) + k)", "range(k)",
           "every row's seed stars are indexed as if the row were the box's first"),
    Mutant("index-thinned-hash", CONSTRUCTION, "first = sub.get(0)", "first = sub.get(1)",
           "a thinned tile turns its star of rank 1 to a hash, not its first"),
    Mutant("plain-piece-starless", CONSTRUCTION, "clean = clean and sub == {}", "clean = clean",
           "a piece that is not a code tile is taken as starless, so a word holding stars skips its star scan"),
    Mutant("values-only-starless", CONSTRUCTION, "return vals, {} if clean else index",
           "return vals, {} if clean or not ranks else index",
           "every word a values-only walk lays is indexed {}, known starless, so a word holding stars skips its "
           "star scan"),
    Mutant("digit-table-shift", CONSTRUCTION, "out[i] = points[d] or", "out[i] = points[d - 1] or",
           "a code tile's digit d lays the net point of digit d - 1 once that point is in the palette"),
    Mutant("nesting-scan-forced", ANALYSIS, "missing = [] if inner == outer else [", "missing = [",
           "equal code lists are scanned too",
           equivalent="equal lists hold no index where one is 0 and the other is not, so the scan finds nothing"),
    Mutant("runs-identity-rank", CONSTRUCTION, "lr + (lr < le)", "lr + (lr <= le)",
           "the code tile at the identity's rank takes the next code index",
           equivalent="lr == le takes the other branch of the conditional, so lr <= le and lr < le agree"),
]


def applied(mutant: Mutant, root: Path) -> str:
    """The mutated text of the mutant's file under ``root``; ValueError unless
    ``old`` occurs there exactly once."""
    text = (root / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run_suite(mutant: Optional[Mutant]) -> tuple:
    """Run ``pytest -x -q`` on a copy of the checkout with the mutant applied;
    returns (status, seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        if mutant is not None:
            (root / mutant.file).write_text(applied(mutant, root))
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        try:
            run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                                 cwd=root, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start
        status = "survived" if run.returncode == 0 else "killed"
        return status, time.monotonic() - start


def main() -> int:
    for mutant in MUTANTS:  # every mutant applies before any suite runs
        applied(mutant, REPO)
    start = time.monotonic()
    status, seconds = run_suite(None)
    print(json.dumps({"name": None, "status": "passed" if status == "survived" else status,
                      "seconds": round(seconds, 1)}), flush=True)
    if status != "survived":
        return 1
    survivors, killed = [], 0
    for mutant in MUTANTS:
        status, seconds = run_suite(mutant)
        print(json.dumps({"name": mutant.name, "file": mutant.file, "status": status,
                          "seconds": round(seconds, 1), "why": mutant.why,
                          "equivalent": mutant.equivalent}), flush=True)
        if mutant.equivalent is None:
            killed += status == "killed"
            if status != "killed":
                survivors.append(mutant.name)
    counted = sum(m.equivalent is None for m in MUTANTS)
    print(json.dumps({"score": f"{killed}/{counted}", "survivors": survivors,
                      "seconds": round(time.monotonic() - start, 1)}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
