"""Record the same-behaviour corpus of CLI runs in ``cli.json``.

Each entry of ``cli.json`` names one run of the ``meandim`` command: its
``argv`` (config paths relative to the repository root), optionally an
``edit`` ``[old, new]`` that replaces one line of the named config in a
temporary copy, and the recorded exit code and sha256 digests of stdout and
stderr.  ``tests/test_cli.py`` replays every entry; this script re-records
only the entries named on its command line::

    python tests/golden/record.py ID [ID ...]

With ``--check`` it records nothing: it replays every entry, in-process or,
given a COMMAND (``meandim``, the installed script), through it, prints the
ids whose exit code or digests differ and exits 1 if any do::

    python tests/golden/record.py --check [COMMAND ...]

The corpus is the one record of CLI bytes.  Where and when each entry was
recorded (its provenance) lives in CHANGES.md, not here; an entry whose
output changes on purpose is re-recorded here, with the reason stated there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().with_name("cli.json")


def load() -> list:
    return json.loads(CORPUS.read_text())


def run_entry(entry: dict, command: Optional[list] = None) -> dict:
    """Run one entry; returns its exit code and the sha256 of its stdout and
    stderr.  Without ``command`` it runs in-process, through
    ``meandim.cli.main``; with one (``["meandim"]``, the installed script) it
    runs ``command`` and the entry's argv in a subprocess and hashes the bytes
    it writes."""
    argv = list(entry["argv"])
    i = argv.index("--config") + 1
    argv[i] = str(REPO / argv[i])
    with tempfile.TemporaryDirectory() as tmp:
        if "edit" in entry:
            old, new = entry["edit"]
            text = Path(argv[i]).read_text()
            if text.count(f"\n{old}\n") != 1:
                raise ValueError(f"{entry['id']}: {old!r} is not one line of {argv[i]}")
            argv[i] = os.path.join(tmp, "edited.cfg")
            Path(argv[i]).write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        if command is None:
            from meandim.cli import main

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
        else:
            run = subprocess.run([*command, *argv], capture_output=True)
            code, stdout, stderr = run.returncode, run.stdout, run.stderr
    stdout, stderr = (hashlib.sha256(b).hexdigest() for b in (stdout, stderr))
    return {"exit": code, "stdout": stdout, "stderr": stderr}


def check(command: Optional[list]) -> int:
    bad = [e["id"] for e in load() if run_entry(e, command) != {k: e[k] for k in ("exit", "stdout", "stderr")}]
    print("entries differing from tests/golden/cli.json:", *bad or ["none"])
    return 1 if bad else 0


def main(ids: list) -> int:
    if ids[:1] == ["--check"]:
        return check(ids[1:] or None)
    corpus = load()
    known = {e["id"] for e in corpus}
    unknown = [i for i in ids if i not in known]
    if unknown or not ids:
        sys.stderr.write(f"usage: record.py ID [ID ...] | --check [COMMAND ...]; unknown ids: {unknown}\n")
        return 2
    for entry in corpus:
        if entry["id"] in ids:
            entry.update(run_entry(entry))
            print(entry["id"], entry["exit"])
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, corpus)) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main(sys.argv[1:]))
