import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from meandim import oracles
from meandim.cli import load_config, main, parse_mode, parse_window
from meandim.construction import Construction, render_value
from meandim.errors import CapacityError, ConfigError, DepthError, NotRealizedError, SizeGuardError
from meandim.groups import DECIMAL_CHUNK, Box, Z, Z2, decimal_text
from tests.golden import record

TOY_Z_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg")
TOY_Z = Path(TOY_Z_CFG).read_text()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_window():
    assert parse_window("[-8,8]", Z).lows == (-8,)
    box = parse_window("[0,3]x[-2,2]", Z2)
    assert box.lows == (0, -2) and box.highs == (3, 2)
    with pytest.raises(ConfigError):
        parse_window("[3,0]", Z)
    with pytest.raises(ConfigError):
        parse_window("[0,3]", Z2)


def test_parse_mode():
    # the cap of each mode text, or the message it has printed since before
    # the cap alone chose the mode
    assert parse_mode("exact") is None
    assert parse_mode("capped:4") == 4
    assert parse_mode("capped:512") == 512
    assert parse_mode("capped: 5") == 5  # int() strips the space
    for text, message in [
        ("capped", "capped mode needs cap >= 2"),
        ("capped:1", "capped mode needs cap >= 2"),
        ("capped:-3", "capped mode needs cap >= 2"),
        ("capped:", "bad mode 'capped:'"),
        ("capped:x", "bad mode 'capped:x'"),
        ("loose", "mode must be 'exact' or 'capped:N', got 'loose'"),
        ("EXACT", "mode must be 'exact' or 'capped:N', got 'EXACT'"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_mode(text)


def test_window_command_no_stars(capsys):
    code, out, _ = run(capsys, "window", "--config", TOY_Z_CFG, "--window", "[-8,8]")
    assert code == 0
    symbols = out.strip().split()
    assert len(symbols) == 17
    assert "*" not in symbols


def test_window_command_deterministic(capsys):
    _, out1, _ = run(capsys, "window", "--config", TOY_Z_CFG, "--window", "[-30,30]")
    _, out2, _ = run(capsys, "window", "--config", TOY_Z_CFG, "--window", "[-30,30]")
    assert out1 == out2


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "--config", TOY_Z_CFG, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][1]["stars"] == 163
    assert payload["steps"][0]["code_count"] == 8


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--config", TOY_Z_CFG)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


def test_mdim_command(capsys):
    code, out, _ = run(capsys, "mdim", "--config", TOY_Z_CFG, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_rho_dim"] == "1/2"
    assert payload["gaps_monotone"] is True


def test_gen_tilings(tmp_path, capsys):
    out_path = tmp_path / "schedule.txt"
    code, out, _ = run(
        capsys, "gen-tilings", "--config", TOY_Z_CFG, "--levels", "4", "--out", str(out_path)
    )
    assert code == 0
    assert "checks failed = 0" in out
    sched = oracles.parse_schedule(out_path.read_text())
    assert sched.level_box(4).volume == 108


def test_gen_tilings_corrupted_import(tmp_path, capsys):
    from meandim import GridTiling, write_tiling, ExplicitTiling
    from meandim.groups import Box, Z as Zg

    base = oracles.to_explicit(GridTiling(Zg, (-1,), (2,)), Box((-40,), (40,)))
    centers = [((5,) if c == (4,) else c, sid) for c, sid in base.centers]
    bad = ExplicitTiling(Zg, base.shapes, centers, base.support)
    path = tmp_path / "bad.tiling"
    path.write_text(write_tiling(bad))
    code, out, _ = run(
        capsys, "gen-tilings", "--config", TOY_Z_CFG, "--levels", "3", "--imported", str(path)
    )
    assert code == 1
    assert "imported tiling" in out
    assert "checks failed = 1" in out.splitlines()  # the import is the only failure


def test_gen_tilings_z2(tmp_path, capsys):
    path = tmp_path / "z2.cfg"
    path.write_text(
        TOY_Z.replace("group = Z", "group = Z2").replace(
            "seed_b = 2", "seed_b = 1"
        ).replace("depth = 2", "depth = 1")
    )
    out_path = tmp_path / "schedule.txt"
    code, out, _ = run(
        capsys, "gen-tilings", "--config", str(path), "--levels", "3", "--out", str(out_path)
    )
    assert code == 0
    assert "checks failed = 0" in out
    # the invariant levels lie past --levels: 27x27 is not (ball(2), 1/2)-invariant
    lines = out.splitlines()
    assert "invariance ball(1) = level 2" in lines
    assert "invariance ball(2) = level 4" in lines
    assert "invariance ball(3) = level 4" in lines
    # the deeper search does not leak into the written schedule
    assert "levels = 3" in out_path.read_text().splitlines()


def test_usage_error_bad_rho(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TOY_Z.replace("rho = 1/2", "rho = 1"))
    code, _, err = run(capsys, "build", "--config", str(path))
    assert code == 2
    assert "rho" in err


def test_usage_error_missing_config(capsys):
    code, _, err = run(capsys, "build", "--config", "/nonexistent.cfg")
    assert code == 2


def test_depth_override_capped(capsys):
    code, out, _ = run(
        capsys, "window", "--config", TOY_Z_CFG, "--depth", "3", "--mode", "capped:4096",
        "--window", "[-8,8]",
    )
    assert code == 0
    _, base, _ = run(capsys, "window", "--config", TOY_Z_CFG, "--window", "[-8,8]")
    assert out == base  # deeper capped plan leaves stabilized values alone


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dump.txt"
    code, out, _ = run(
        capsys, "window", "--config", TOY_Z_CFG, "--window", "[0,5]", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert len(target.read_text().split()) == 6


CONFIG_ERRORS = [
    ("dim = 1", "dim = abc", "'dim'"),
    ("delta1 = 1/2", "delta1 = 0", "'delta1'"),
    ("growth = 3", "growth = 5/2", "is not an integer multiple"),
    ("growth = 3", "growth = 1", "multiplier must be >= 2"),
    ("seed_a = 1", "seed_a = -1", "'seed_a/seed_b'"),
    ("balance = centered", "balance = middle", "'balance'"),
    ("growth = 3", "growth = 1" + "0" * 5000, "'growth'"),
    ("seed_a = 1", "seed_a = 1" + "0" * 5000, "'seed_a'"),
    ("mode = exact", "mode = capped:1" + "0" * 5000, "'mode': a literal of 5008 characters is longer than 4300"),
    # interpolation stays on: a bad '%' is the field's error, and a long value is not quoted
    ("rho = 1/2", "rho = 1/2%", "'rho': '%' must be followed by '%' or '(', found: '%'"),
    ("rho = 1/2", "rho = 1/2%" + "0" * 5000, "'rho': a literal of 5004 characters is longer than 4300"),
    ("growth = 3", "growth = 1" + "0" * 400 + "1/3", "is not an integer multiple of 4"),
    # refused before a single net point is built
    ("delta1 = 1/2", "delta1 = 1/1000000000", "'delta1': 1/1000000000 needs over 65536 net points"),
    ("delta2 = 1/4", "delta2 = 1/" + "7" * 4000, "'delta2'"),
    ("dim = 1", "dim = 1" + "0" * 4000, "'delta1'"),
    # the [nets] keys are read without a loop over the depth
    ("depth = 2", "depth = 1" + "0" * 30, "'delta17': 1/131072 needs over 65536 net points"),
]


@pytest.mark.parametrize(
    "old,new,message", CONFIG_ERRORS, ids=[new[:16] for _, new, _ in CONFIG_ERRORS]
)
def test_config_errors_exit_2_without_traceback(tmp_path, capsys, old, new, message):
    assert TOY_Z.count(f"\n{old}\n") == 1
    path = tmp_path / "bad.cfg"
    path.write_text(TOY_Z.replace(f"\n{old}\n", f"\n{new}\n"))
    code, out, err = run(capsys, "build", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: field '") and message in err
    assert "Traceback" not in err


AXES_CFG = """\
[experiment]
group = Z2
rho = 1/2
depth = 1

[schedule]
seed_a = 1
seed_b = 1
seed_a2 = 0
seed_b2 = 2
growth = 3

[nets]
delta1 = 1/2
"""


def test_z2_reads_per_axis_schedule_keys(tmp_path, capsys):
    # axis 2 of Z^2 reads seed_a2, seed_b2 and growth2, and an axis without
    # its own key reads the unsuffixed one
    path = tmp_path / "axes.cfg"
    path.write_text(AXES_CFG)
    code, out, err = run(capsys, "build", "--config", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["levels"][0]["box"] == [[-1, 0], [1, 2]]
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 9
    path.write_text(AXES_CFG.replace("growth = 3\n", "growth = 3\ngrowth2 = 5/2\n"))
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: field 'growth/growth2': level 2 axis 1: "
                   "period 15/2 is not an integer multiple of 3\n")


def test_missing_delta_defaults_by_its_own_level(tmp_path, capsys):
    # delta1 dropped: delta_1 is the default 1/2 and delta_2 stays the
    # configured 1/4, so every level keeps its mesh and the plan is unchanged
    path = tmp_path / "gap.cfg"
    path.write_text(TOY_Z.replace("\ndelta1 = 1/2\n", "\n"))
    flags = argparse.Namespace(depth=None, mode=None, seed=None)
    assert [net.size for net in load_config(str(path), flags).nets] == [2, 3]
    code, out, err = run(capsys, "build", "--config", str(path), "--format", "json")
    assert (code, err) == (0, "")
    recorded = next(e for e in CLI_CORPUS if e["id"] == "build-toy-z-depth2-json")
    assert hashlib.sha256(out.encode()).hexdigest() == recorded["stdout"]


def test_seed_comes_from_the_config_or_the_flag():
    assert load_config(TOY_Z_CFG, argparse.Namespace(depth=None, mode=None, seed=None)).seed == 7
    assert load_config(TOY_Z_CFG, argparse.Namespace(depth=None, mode=None, seed=3)).seed == 3


FILE_ERRORS = [
    ("imported-missing", ("gen-tilings", "--imported", "{tmp}/missing.tiling")),
    ("imported-directory", ("gen-tilings", "--imported", "{tmp}")),
    ("imported-malformed", ("gen-tilings", "--imported", "{tmp}/malformed.tiling")),
    ("imported-one-line", ("gen-tilings", "--imported", "{tmp}/one-line.tiling")),
    ("imported-truncated", ("gen-tilings", "--imported", "{tmp}/truncated.tiling")),
    ("imported-not-utf8", ("gen-tilings", "--imported", "{tmp}/binary.tiling")),
    ("imported-other-group", ("gen-tilings", "--imported", "{tmp}/z2.tiling")),
    ("build-out-missing-dir", ("build", "--out", "{tmp}/missing/x.json")),
    ("build-out-directory", ("build", "--out", "{tmp}")),
    ("gen-tilings-out-missing-dir", ("gen-tilings", "--out", "{tmp}/missing/schedule.txt")),
]


@pytest.mark.parametrize("argv", [a for _, a in FILE_ERRORS], ids=[i for i, _ in FILE_ERRORS])
def test_file_errors_exit_2_without_traceback(tmp_path, capsys, argv):
    (tmp_path / "malformed.tiling").write_text("group Z\nsupport 0 x\n")
    (tmp_path / "one-line.tiling").write_text("group Z\n")
    (tmp_path / "truncated.tiling").write_text("group Z\nsupport 0 7\nshapes 1\nshape 1 0 1\ntiles 4\n0 1\n")
    (tmp_path / "binary.tiling").write_bytes(b"\xffgroup Z\n")
    (tmp_path / "z2.tiling").write_text("group Z2\nsupport -1 2 -1 2\nshapes 1\nshape 1 0,0\ntiles 0\n")
    command, *rest = (a.format(tmp=tmp_path) for a in argv)
    code, out, err = run(capsys, command, "--config", TOY_Z_CFG, *rest)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("old,new", [
    ("rho = 1/2", "rho = 1e-100000000"),
    ("growth = 3", "growth = 1e100000000"),
    ("delta1 = 1/2", "delta1 = 1e-100000000"),
])
def test_exponent_past_the_limit_is_refused(tmp_path, capsys, old, new):
    # Fraction() would write out 10^100000000, which takes minutes; the
    # exponent is refused up front, in one line that does not echo it
    path = tmp_path / "exponent.cfg"
    path.write_text(TOY_Z.replace(f"\n{old}\n", f"\n{new}\n"))
    start = time.monotonic()
    code, out, err = run(capsys, "build", "--config", str(path))
    assert time.monotonic() - start < 1
    field = old.split()[0]
    assert (code, out, err) == (2, "", f"error: field '{field}': a literal with an exponent over 100000 in magnitude\n")


def test_exponent_notation_within_the_limit_is_read(tmp_path, capsys):
    path = tmp_path / "exponent.cfg"
    for rho, expected in [("5e-1", Fraction(1, 2)), ("1e-100000", Fraction(1, 10**100000))]:
        path.write_text(TOY_Z.replace("\nrho = 1/2\n", f"\nrho = {rho}\n"))
        assert load_config(str(path), argparse.Namespace(depth=1, mode=None, seed=None)).rho == expected
    path.write_text(TOY_Z.replace("\nrho = 1/2\n", "\nrho = 5e-1\n"))
    assert run(capsys, "build", "--config", str(path)) == run(capsys, "build", "--config", TOY_Z_CFG)
    path.write_text(TOY_Z.replace("\nrho = 1/2\n", "\nrho = 1e-100001\n"))
    with pytest.raises(ConfigError, match="^field 'rho': a literal with an exponent over 100000 in magnitude$"):
        load_config(str(path), argparse.Namespace(depth=1, mode=None, seed=None))


def test_empty_mode_flag_is_refused(capsys):
    # an empty --mode is a bad mode text, not an absent flag
    code, out, err = run(capsys, "build", "--config", TOY_Z_CFG, "--mode", "")
    assert (code, out, err) == (2, "", "error: mode must be 'exact' or 'capped:N', got ''\n")


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_gen_tilings_levels_below_one_is_usage_error(capsys, levels):
    code, out, err = run(capsys, "gen-tilings", "--config", TOY_Z_CFG, "--levels", levels)
    assert code == 2 and out == ""
    assert "argument --levels: levels are 1-based" in err


LONG = "a literal of 5000 characters is longer than 4300"


@pytest.mark.parametrize("command,flag,value,message", [
    ("window", "--window", "[0,{}]", LONG),
    ("build", "--mode", "capped:{}", LONG),
    ("build", "--depth", "{}", LONG),
    ("build", "--seed", "{}", LONG),
    ("gen-tilings", "--levels", "{}", LONG),
    ("build", "--depth", "x", "invalid int value: 'x'"),
    ("build", "--seed", "x", "invalid int value: 'x'"),
    ("gen-tilings", "--levels", "x", "invalid int value: 'x'"),
])
def test_flag_numbers_follow_the_literal_limit(capsys, command, flag, value, message):
    # a 5,000-digit number in a flag is refused as in a config field: exit 2
    # and one short message naming the flag and the length, not the digits
    code, out, err = run(capsys, command, "--config", TOY_Z_CFG, flag, value.format("1" * 5000))
    assert (code, out) == (2, "")
    assert f"{flag}: {message}\n" in err
    assert "1" * 100 not in err and len(err.encode()) < 1000 and "Traceback" not in err


@pytest.mark.parametrize("argv", [("gen-tilings",), ("window", "--window", "[0,3]")])
def test_format_is_refused_where_no_report_is_printed(capsys, argv):
    # only build, verify and mdim print a report that --format selects
    code, out, err = run(capsys, argv[0], "--config", TOY_Z_CFG, *argv[1:], "--format", "json")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format json" in err


def test_checked_in_config_runs(capsys):
    code, out, _ = run(capsys, "build", "--config", TOY_Z_CFG)
    assert code == 0
    assert "levels[1].stars = 163" in out


def test_window_undetermined_cell_exit_and_message(capsys):
    # a partially determined window prints every cell, '?' where the depth
    # leaves the value open, and still exits 1 naming the first such cell
    code, out, err = run(capsys, "window", "--config", TOY_Z_CFG, "--window", "[-200,200]")
    assert code == 1
    texts = out.split()
    assert len(texts) == 401 and out.count("\n") == 1
    cfg = Construction(load_config(TOY_Z_CFG, argparse.Namespace(depth=None, mode=None, seed=None)))
    for g, text in zip(range(-200, 201), texts):
        try:
            want = render_value(oracles.eval_w(cfg, (g,)))
        except DepthError:
            want = "?"
        assert text == want, g
    unknown = texts.count("?")
    assert 0 < unknown < 401 and texts[0] == "?"
    assert err == (
        "error: DepthError: value at (-200,) is not determined at depth 2 "
        f"({unknown} of 401 cells shown as ?)\n"
    )
    with pytest.raises(DepthError, match=r"^value at \(-200,\) is not determined at depth 2$"):
        cfg.window_values(Box((-200,), (200,)))


# the same-behaviour corpus, the one record of CLI bytes: exit code and sha256
# of stdout and stderr of each run in tests/golden/cli.json, written by
# tests/golden/record.py, which re-records the entries named on its command
# line; where each entry was recorded is stated in CHANGES.md
CLI_CORPUS = record.load()


@pytest.mark.parametrize("entry", CLI_CORPUS, ids=[e["id"] for e in CLI_CORPUS])
def test_cli_run_matches_its_recording(entry):
    assert record.run_entry(entry) == {k: entry[k] for k in ("exit", "stdout", "stderr")}


@pytest.mark.parametrize("entry_id", ["window-toy-z-undetermined", "config-dim-abc"])
def test_cli_run_through_a_script_matches_its_recording(entry_id):
    # run_entry's subprocess path, the one CI replays the corpus through the
    # installed script with, on a run that exits 1 and an edited config
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = f"import sys; sys.path.insert(0, {src!r}); from meandim.cli import main; sys.exit(main())"
    entry = next(e for e in CLI_CORPUS if e["id"] == entry_id)
    assert record.run_entry(entry, [sys.executable, "-c", script]) == {k: entry[k] for k in ("exit", "stdout", "stderr")}


@contextlib.contextmanager
def int_str_limit_lifted():
    """Lift CPython's int->str digit limit (3.11+, 3.10.7+) for one block."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_build_json_prints_huge_ints(tmp_path, capsys):
    # Z^2 depth 2 reaches level boxes with over 4300-digit coordinates
    path = tmp_path / "z2.cfg"
    path.write_text(
        TOY_Z.replace("group = Z", "group = Z2").replace("seed_b = 2", "seed_b = 1")
    )
    code, out, err = run(capsys, "build", "--config", str(path), "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    top = report["levels"][-1]
    assert isinstance(top["volume"], str) and len(top["volume"]) > 4300
    with int_str_limit_lifted():
        (lows, highs) = ([int(x) for x in side] for side in top["box"])
        volume = 1
        for lo, hi in zip(lows, highs):
            volume *= hi - lo + 1
        assert top["volume"] == str(volume)


# random ints of up to 66,439 bits, i.e. up to 20,000 decimal digits
big_ints = st.builds(
    lambda bits, seed, negative: (-1) ** negative * random.Random(seed).getrandbits(bits),
    st.integers(1, 66_439),
    st.integers(0, 2**32),
    st.booleans(),
)


@given(big_ints | st.integers())
@example(10**DECIMAL_CHUNK - 1)
@example(10**DECIMAL_CHUNK)
@example(-(10 ** (2 * DECIMAL_CHUNK)))
@example(10**4300 + 7)
@settings(max_examples=60, deadline=None)
def test_decimal_text_matches_str(n):
    text = decimal_text(n)
    with int_str_limit_lifted():
        assert text == str(n) and int(text) == n


def test_gen_tilings_prints_huge_schedule_arrays(tmp_path, capsys):
    # growth 10^100 puts level-45 ends past 4300 digits
    path = tmp_path / "huge.cfg"
    path.write_text(TOY_Z.replace("growth = 3", f"growth = {10**100}"))
    out_path = tmp_path / "schedule.txt"
    code, out, err = run(
        capsys, "gen-tilings", "--config", str(path), "--levels", "45", "--out", str(out_path)
    )
    assert code == 0 and err == "" and "checks failed = 0" in out
    text = out_path.read_text()
    sched = oracles.parse_schedule(text)
    assert sched.serialize(45) == text
    box = sched.level_box(45)
    assert len(decimal_text(box.highs[0])) > 4300
    with int_str_limit_lifted():
        assert repr(box) == f"Box([{box.lows[0]},{box.highs[0]}])"


def test_verify_depth_1_on_checked_in_config(capsys):
    # depth 1 determines the level-1 tile only; the star check walks that one
    code, out, err = run(capsys, "verify", "--config", TOY_Z_CFG, "--depth", "1")
    assert code == 0 and err == ""
    assert "PASS no star in the limit: 4 cells" in out.splitlines()
    assert "FAIL" not in out


def test_capacity_error_prints_huge_counts(tmp_path, capsys):
    # a 10^5000 multiplier puts the host surplus and the sandwich ceiling past
    # the int->str digit limit; the message prints them in full
    path = tmp_path / "huge.cfg"
    path.write_text(TOY_Z.replace("\ngrowth = 3\n", "\ngrowth = 1e5000\n"))
    code, out, err = run(capsys, "build", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: CapacityError: step 2: the ") and err.endswith("code block\n")
    assert "Traceback" not in err
    surplus = err.split(" tiles hold ")[1].split(" stars")[0]
    ceiling = err.split("sandwich ceiling ")[1].split(";")[0]
    with int_str_limit_lifted():
        assert int(surplus) > int(ceiling) > 10**5000


def test_depth_error_prints_the_digit_count_of_a_huge_star_count(capsys):
    # step 4 of the Z^2 toy needs 5^stars code tiles, and the level-3 star
    # count has about 14,000 digits: the one stderr line names its digit
    # count instead, and keeps the hint and the exit code
    from meandim import cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg"
    code, out, err = run(capsys, "build", "--config", str(path), "--depth", "3")
    assert (code, out) == (1, "")
    plan = Construction(cli.load_config(str(path), argparse.Namespace(depth=2, mode=None, seed=None)))
    digits = len(decimal_text(plan.levels[3].stars))
    assert digits > 4300
    assert err == (f"error: DepthError: step 4 needs a code block of 5^(a {digits}-digit star count) "
                   "tiles, beyond exact representation; rerun in capped mode\n")
    assert len(err) < 200


def test_depth_error_prints_a_short_star_count_in_full():
    # a refused code block whose star count is short enough to read
    from types import SimpleNamespace

    from meandim import construction

    stub = SimpleNamespace(params=SimpleNamespace(cap=None))
    stars = construction.MAX_CODE_BITS // 2 + 1  # two bits a digit at radix 4
    with pytest.raises(DepthError, match=rf"^step 3 needs a code block of 4\^{stars} tiles, .* capped mode$"):
        Construction._code_count(stub, 2, stars, 4)


def test_verify_prints_a_huge_level_2_volume(tmp_path, capsys):
    # a level-2 multiplier of 10^2200 puts the level-2 tile past the
    # materializer's bound and its volume past the int->str digit limit
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg").read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("\ngrowth = 3\n", f"\ngrowth = 3 1{'0' * 2200}\n"))
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert not [line for line in lines if line.startswith("FAIL")]
    inconclusive = [line for line in lines if line.startswith("INCONCLUSIVE ")]
    assert [line.split(":")[0] for line in inconclusive] == [
        "INCONCLUSIVE evaluator equals literal materialization",
        "INCONCLUSIVE per-tile density floors",
    ]
    for line in inconclusive:
        assert re.fullmatch(r"[^:]*: SizeGuardError: level-2 tile has 810{8800} cells, over the bound", line)


def test_verify_reads_level_2_tiles_up_to_the_materialize_guard(tmp_path, capsys):
    # a 640 x 640 level-2 tile (409,600 cells) is under MATERIALIZE_GUARD, so
    # the checks that read the literal words decide
    path = tmp_path / "mid.cfg"
    path.write_text("[experiment]\ngroup = Z2\nrho = 1/3\ndepth = 1\n\n"
                    "[schedule]\nseed_a = 1\nseed_b = 3\ngrowth = 2\n")
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert "PASS evaluator equals literal materialization: 409600 cells" in lines
    assert "PASS per-tile density floors: every thinned tile stays above its floor" in lines


def test_capped_realization_row_counts_the_assignments_past_the_cap(monkeypatch, capsys):
    # a cap of 4 truncates the 2^3 assignments of step 1: the first 4 decode
    # to distinct centers and the other 4 must raise NotRealizedError
    code, out, err = run(capsys, "verify", "--config", TOY_Z_CFG, "--mode", "capped:4")
    assert (code, err) == (0, "")
    row = "level-1 assignments below the cap realized: 4 distinct centers, 4 past the cap"
    assert f"PASS {row}" in out.splitlines()
    assert all(line.startswith("PASS ") for line in out.splitlines())
    real = Construction.realization_decode

    def realized(self, n, assignment):
        try:
            return real(self, n, assignment)
        except NotRealizedError:
            return (0,)

    monkeypatch.setattr(Construction, "realization_decode", realized)
    code, out, err = run(capsys, "verify", "--config", TOY_Z_CFG, "--mode", "capped:4")
    assert (code, err) == (1, "")
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL level-1 assignments below the cap realized: 4 distinct centers, 0 past the cap"]


# The planner's error paths, recorded at commit e57a577, before the host and
# next-level searches became closed form.  With the level cap lowered, the
# Z^2 depth-2 toy (host 14,768, next level 14,774) fails in the host search
# (cap below the host), in the next-level walk (cap between the two, with
# the reason of the last level walked) and with no level to walk (cap at the
# host).
@pytest.mark.parametrize("cap,message", [
    (100, "no host level found for step 3"),
    (14_767, "no host level found for step 3"),
    (14_768, "step 3: no level above host level 14768"),
    (14_770, "step 3: outside star mass unsatisfiable through level 14770"),
])
def test_planner_error_paths(monkeypatch, capsys, cap, message):
    from meandim import construction

    monkeypatch.setattr(construction, "MAX_SCHED_LEVEL", cap)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg"
    code, out, err = run(capsys, "build", "--config", str(path), "--depth", "2")
    assert (code, out, err) == (1, "", f"error: CapacityError: {message}\n")


def test_deep_capped_plan_refuses_a_next_level_past_the_cap(capsys):
    # on the capped:2 Z toy the next level's schedule index doubles at each
    # step; step 17's star mass first holds past MAX_SCHED_LEVEL, and the
    # volume bound finds that without reading the levels below it
    code, out, err = run(capsys, "build", "--config", TOY_Z_CFG, "--depth", "16", "--mode", "capped:2")
    assert (code, out) == (1, "")
    assert err == "error: CapacityError: step 17: outside star mass unsatisfiable through level 100000\n"


@pytest.mark.parametrize("exponent,outcome", [
    (300, 191),
    (420, "step 2: thinning capacity keeps failing past level 260"),
])
def test_thinning_capacity_gives_up_after_256_futile_levels(tmp_path, capsys, exponent, outcome):
    # rho = 2^-e puts rho * |S_1| just above an integer, so the thinning zone
    # sheds its surplus only at a next level about e / log2(3) levels above
    # the host; past 256 such levels the planner gives up
    text = TOY_Z.replace("rho = 1/2", f"rho = 1/{2**exponent}").replace("delta1 = 1/2", "delta1 = 1/8")
    path = tmp_path / "thin.cfg"
    path.write_text(text)
    code, out, err = run(capsys, "build", "--config", str(path), "--depth", "1", "--format", "json")
    if isinstance(outcome, int):
        assert (code, err) == (0, "")
        assert json.loads(out)["steps"][0]["next_level"] == outcome
    else:
        assert (code, out, err) == (1, "", f"error: CapacityError: {outcome}\n")


@pytest.mark.parametrize("depth", [1, 2])
def test_planted_literal_mismatch_fails_oracle_and_linking(monkeypatch, depth):
    from fractions import Fraction

    from meandim import HASH, Construction, cli

    cfg = Construction(cli.load_config(TOY_Z_CFG, argparse.Namespace(depth=depth, mode=None, seed=None)))
    real = Construction.materialize
    cells = list(cfg.levels[2].box.cells())
    victim = next(g for g, v in zip(cells, real(cfg)) if v is HASH and g[0] > 0)

    def planted(self, labels):
        # the battery asks for the literal in its walk's codes: the victim
        # gets a new code of the walk's palette, holding a value no net holds
        out = real(self, labels)
        out[cells.index(victim)] = len(self._walk.palette)
        self._walk.palette.append((Fraction(9, 10),))
        return out

    monkeypatch.setattr(Construction, "materialize", planted)
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(cfg, 7)}
    failed = {name for name, (ok, _) in rows.items() if not ok}
    want = {"evaluator equals literal materialization"}
    if depth >= 2:
        want.add("level words reappear at the link tile")
    assert failed == want
    for name in want:
        assert rows[name][1] == f"mismatch at {victim}"


def planted_floor_rows(monkeypatch, config_name, left, spare=0):
    """The verify rows at depth 1 with stars of one thinning-zone level-1
    tile of the literal V_2 turned to hashes until `left` are left, then
    its first `spare` cells past the seed stars turned to stars: the first
    such tile after the host in lexicographic order.  Returns the rows, the
    tile's center and the verdict of the floors oracle on the planted words."""
    from meandim import HASH, STAR, cli

    cfg_path = Path(__file__).resolve().parents[1] / config_name
    cfg = Construction(cli.load_config(str(cfg_path), argparse.Namespace(depth=1, mode=None, seed=None)))
    st, q = cfg.steps[1], cfg.levels[1].periods
    center = tuple((hi + 1) * qq for hi, qq in zip(st.cand.highs, q))
    victims = [cfg.group.mul(a, center) for a in cfg.seed_stars]
    extras = [cfg.group.mul(a, center) for a in cfg.levels[1].box.cells() if a not in cfg.seed_stars][:spare]
    assert len(extras) == spare
    real = Construction.materialize

    def planted(self, labels=None):
        # the battery asks for the literal in its walk's codes (0 a star, 1
        # a hash); the oracle below reads the same word in values
        out = real(self, labels)
        star, hash_ = labels[:2] if labels else (STAR, HASH)
        at = {g: i for i, g in enumerate(self.levels[2].box.cells())}
        stars = [g for g in victims if out[at[g]] == star]
        assert len(stars) > left
        for g in stars[left:]:
            out[at[g]] = hash_
        for g in extras:
            assert out[at[g]] == hash_
            out[at[g]] = star
        return out

    monkeypatch.setattr(Construction, "materialize", planted)
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(cfg, 7)}
    oracle = oracles.floors_by_count(cfg, planted(cfg))
    return rows, center, (oracle.ok, oracle.detail)


def floor_of(config_name):
    """The most stars c with c / |S_1| <= rho - 1 / |S_1|, by search."""
    path = Path(__file__).resolve().parents[1] / config_name
    cfg = Construction(load_config(str(path), argparse.Namespace(depth=1, mode=None, seed=None)))
    vol = cfg.levels[1].volume
    return max(c for c in range(vol + 1) if Fraction(c, vol) <= cfg.rho - Fraction(1, vol))


@pytest.mark.parametrize("config_name", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_planted_thinned_tile_fails_the_floors(monkeypatch, config_name):
    # every star of the tile turned to a hash
    rows, center, oracle = planted_floor_rows(monkeypatch, config_name, 0)
    assert rows["per-tile density floors"] == oracle == (False, f"tile at {center} thinned below its floor")


@pytest.mark.parametrize("config_name", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_planted_tile_at_its_floor_fails_the_floors(monkeypatch, config_name):
    # the tile left with exactly its floor: the comparison must not be strict
    rows, center, oracle = planted_floor_rows(monkeypatch, config_name, floor_of(config_name))
    assert rows["per-tile density floors"] == oracle == (False, f"tile at {center} thinned below its floor")


@pytest.mark.parametrize("config_name", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_planted_star_past_the_seed_cells_keeps_the_tile_above_its_floor(monkeypatch, config_name):
    # the tile holds its floor of stars at the seed cells, which is all the
    # row's lower bound sees, and one more at a cell past them: only the
    # exact recount of the tile's cells keeps the row at PASS
    rows, _, oracle = planted_floor_rows(monkeypatch, config_name, floor_of(config_name), spare=1)
    assert rows["per-tile density floors"] == oracle == (True, "every thinned tile stays above its floor")


@pytest.mark.parametrize("config_name,depth", [("configs/toy-z.cfg", 2), ("perfbench/toy-z2.cfg", 1)])
def test_floors_row_agrees_with_the_full_count(config_name, depth):
    from meandim import analysis

    path = Path(__file__).resolve().parents[1] / config_name
    cfg = Construction(load_config(str(path), argparse.Namespace(depth=depth, mode=None, seed=None)))
    # the row reads the literal in codes (0 a star), the oracle in values
    codes, words = cfg.materialize((0, 1, *range(2, 2 + cfg.steps[1].radix))), cfg.materialize()
    assert analysis.check_floors(cfg, lambda: codes) == oracles.floors_by_count(cfg, words)
    assert oracles.floors_by_count(cfg, words).ok


def test_planted_stable_mismatch_fails_the_oracle(monkeypatch):
    # one cell of the stabilized window on the level-2 tile changed on the
    # walk's side: only the oracle's second comparison reads those values
    from fractions import Fraction

    from meandim import HASH, cli

    cfg = Construction(cli.load_config(TOY_Z_CFG, argparse.Namespace(depth=2, mode=None, seed=None)))
    tile = cfg.levels[2].box
    cells = list(tile.cells())
    victim = next(g for g, v in zip(cells, cfg.window_values(tile, "w")) if v is HASH and g[0] > 0)
    real = Construction.window_codes

    def planted(self, box):
        # the victim gets a new code of the walk's palette, holding a value no net holds
        codes, palette = real(self, box)
        if box == tile:
            codes = list(codes)
            codes[cells.index(victim)] = len(palette)
            palette.append((Fraction(9, 10),))
        return codes, palette

    monkeypatch.setattr(Construction, "window_codes", planted)
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(cfg, 7)}
    assert {name for name, (ok, _) in rows.items() if not ok} == {"evaluator equals literal materialization"}
    assert rows["evaluator equals literal materialization"] == (False, f"stabilized mismatch at {victim}")


@pytest.mark.parametrize("equal", [True, False], ids=["equal-value", "other-value"])
@pytest.mark.parametrize("seam,row,what", [
    ("level_codes 2", "evaluator equals literal materialization", "mismatch"),
    ("window_codes", "evaluator equals literal materialization", "stabilized mismatch"),
    ("level_codes 3", "level words reappear at the link tile", "mismatch"),
])
def test_walk_codes_that_differ_are_compared_by_value(monkeypatch, seam, row, what, equal):
    # the first net-point cell of one walk the literal rows read gets a new
    # palette code: holding an equal value it passes, as the row compares
    # codes that differ by value; holding another value it fails there
    from meandim import cli

    cfg = Construction(cli.load_config(TOY_Z_CFG, argparse.Namespace(depth=2, mode=None, seed=None)))
    unplanted = cli.run_verification(cfg, 7)
    method, *level = seam.split()
    tile = cfg.levels[2].box
    box = tile.translate(cfg.steps[2].link_center) if level == ["3"] else tile
    real, victims = getattr(Construction, method), []

    def planted(self, *args):
        codes, palette = real(self, *args)
        if args == (*map(int, level), box):
            i = next(i for i, c in enumerate(codes) if c > 1)  # codes 0 and 1 are STAR and HASH
            value = tuple(palette[codes[i]]) if equal else (Fraction(9, 10),)  # an equal copy, or no net's point
            codes = list(codes)
            codes[i] = len(palette)
            palette.append(value)
            victims.append(tile.cell_at(i))
        return codes, palette

    monkeypatch.setattr(Construction, method, planted)
    rows = cli.run_verification(cfg, 7)
    assert len(set(victims)) == 1
    if equal:
        assert rows == unplanted
    else:
        assert [(name, ok, note) for name, ok, note in rows if not ok] == [(row, False, f"{what} at {victims[0]}")]


def test_walk_code_holding_the_wrong_net_point_fails_the_oracle(monkeypatch):
    # the walk's code of step 1's net point 1 holds point 0: the literal's
    # labels are checked by value, so it is written with a code of its own
    # there, and the oracle row fails at the first cell of that point; the
    # decode confirmation reads the walk's values and fails too
    from meandim import cli, construction

    cfg = Construction(cli.load_config(TOY_Z_CFG, argparse.Namespace(depth=1, mode=None, seed=None)))
    net, tile = cfg.steps[1].net, cfg.levels[2].box
    victim = next(g for g, v in zip(tile.cells(), cfg.materialize()) if v == net.point_at(1))
    real = construction._TileWalk._point

    def planted(self, step, d):
        code = real(self, step, d)
        if (step.n, d) == (1, 1):
            self.palette[code] = step.net.point_at(0)
        return code

    monkeypatch.setattr(construction._TileWalk, "_point", planted)
    assert [row for row in cli.run_verification(cfg, 7) if not row[1]] == [
        ("evaluator equals literal materialization", False, f"mismatch at {victim}"),
        ("level-1 assignments all realized", False, "DecodeError: decode confirmation failed at star (1,)"),
    ]


@pytest.mark.parametrize("error,ok", [(SizeGuardError, None), (CapacityError, False)])
def test_planted_materialize_error_labels_the_literal_checks(monkeypatch, error, ok):
    # a guard that fires reads INCONCLUSIVE, any other package error FAIL; the
    # three checks that read the literal words ask for them before they walk,
    # so the oracle's and the linking check's walks never happen
    from collections import Counter

    from meandim import cli

    cfg = Construction(cli.load_config(TOY_Z_CFG, argparse.Namespace(depth=2, mode=None, seed=None)))
    walks = Counter()
    real_walk = Construction.level_codes

    def counted(self, n, box):
        walks[n, box.lows, box.highs] += 1
        return real_walk(self, n, box)

    def planted(self, *args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(Construction, "level_codes", counted)
    cli.run_verification(cfg, 7)
    unplanted, walks = walks, Counter()
    monkeypatch.setattr(Construction, "materialize", planted)
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(cfg, 7)}
    literal = {"evaluator equals literal materialization", "level words reappear at the link tile",
               "per-tile density floors"}
    assert {name: rows[name] for name in literal} == {name: (ok, f"{error.__name__}: planted") for name in literal}
    assert all(rows[name][0] is True for name in rows.keys() - literal)
    tile, link = cfg.levels[2].box, cfg.levels[2].box.translate(cfg.steps[2].link_center)
    assert unplanted - walks == Counter({(2, tile.lows, tile.highs): 1, (3, link.lows, link.highs): 1})
    assert walks - unplanted == Counter()


def test_planted_star_order_fails_the_oracle_and_linking(monkeypatch, capsys):
    # a reversed level-1 star index puts each code digit on the wrong seed
    # star: the walk's V_2 leaves the literal one, which no longer reappears
    # at the link tile either; encode and decode read the one index, so
    # every assignment still decodes to its own code tile
    from meandim.construction import _TileWalk

    real = _TileWalk._seed_word

    def planted(self, lows, highs, ranks):
        vals, index = real(self, lows, highs, ranks)
        return vals, index and dict(zip(index, reversed(index.values())))

    monkeypatch.setattr(_TileWalk, "_seed_word", planted)
    code, out, err = run(capsys, "verify", "--config", TOY_Z_CFG)
    assert (code, err) == (1, "")
    rows = {line.split(":")[0]: line for line in out.splitlines()}
    assert [row for row in rows if row.startswith("FAIL")] == [
        "FAIL evaluator equals literal materialization", "FAIL level words reappear at the link tile"]
    assert rows["PASS level-1 assignments all realized"].endswith(": 8 distinct centers")


def toy_z_plan():
    return Construction(load_config(TOY_Z_CFG, argparse.Namespace(depth=None, mode=None, seed=None)))


def test_planted_top_level_cell_fails_the_descent(monkeypatch):
    # one cell of the level-1 tile changed only in walks from the top level,
    # depth + 1: the walk started at step 1 keeps its value
    from meandim import cli

    cfg = toy_z_plan()
    top, victim = cfg.params.depth + 1, cfg.levels[1].box.lows
    real = Construction.level_values

    def planted(self, n, box):
        values = list(real(self, n, box))
        if n == top and victim in box:
            values[list(box.cells()).index(victim)] = (Fraction(9, 10),)
        return values

    monkeypatch.setattr(Construction, "level_values", planted)
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(cfg, 7)}
    assert {name: rows[name] for name in rows if rows[name][0] is not True} == {
        "top-level descent agrees with stabilized values": (False, f"mismatch at {victim}")}


def test_planted_constant_decode_fails_the_realization(monkeypatch, capsys):
    # every assignment decoded to the same center: in exact mode the row
    # needs one distinct center per assignment
    monkeypatch.setattr(Construction, "realization_decode", lambda self, n, assignment: self.group.identity)
    code, out, err = run(capsys, "verify", "--config", TOY_Z_CFG)
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL level-1 assignments all realized: 1 distinct centers"]


@pytest.mark.parametrize("shift,broken", [
    # level 2's lower estimate pulled down by one: its gap grows past level 1's
    (lambda n: 1 - n, "gaps_monotone"),
    # every lower estimate raised by one: the certified bracket sits above rho*dim
    (lambda n: 1, "brackets_contain_target"),
], ids=["gaps-grow", "bracket-misses-target"])
def test_planted_bound_estimates_fail_the_bounds(monkeypatch, capsys, shift, broken):
    from meandim import analysis, cli

    real = analysis.lower_bound_estimate
    monkeypatch.setattr(analysis, "lower_bound_estimate", lambda cfg, n: real(cfg, n) + shift(n))
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(toy_z_plan(), 7)}
    assert {name: rows[name] for name in rows if rows[name][0] is not True} == {
        "bound brackets and monotone gaps": (False, "2 levels, target 1/2")}
    code, out, err = run(capsys, "mdim", "--config", TOY_Z_CFG, "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert [key for key in ("gaps_monotone", "brackets_contain_target") if not report[key]] == [broken]


# a Z^2 plan whose level-2 tile (5^10 cells) is past every size guard and whose
# 13 seed stars are too many to enumerate their assignments
OVERSIZED_Z2 = """\
[experiment]
group = Z2
rho = 1/2
dim = 1
depth = 2
mode = capped:64

[schedule]
seed_a = 2
seed_b = 2
growth = 5

[nets]
delta1 = 1/2
"""


def test_verify_reports_guarded_checks_inconclusive(tmp_path, capsys):
    path = tmp_path / "oversized.cfg"
    path.write_text(OVERSIZED_Z2)
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert not [line for line in lines if line.startswith("FAIL") or "skipped" in line]
    inconclusive = [line.split(":")[0] for line in lines if line.startswith("INCONCLUSIVE ")]
    assert inconclusive == [
        "INCONCLUSIVE no star in the limit",
        "INCONCLUSIVE evaluator equals literal materialization",
        "INCONCLUSIVE level words reappear at the link tile",
        "INCONCLUSIVE free set nesting",
        "INCONCLUSIVE per-tile density floors",
        "INCONCLUSIVE level-1 assignments below the cap realized",  # the cap of 64 truncates 2^13
    ]
    # the nesting guard reads like every other guarded row
    assert "INCONCLUSIVE free set nesting: SizeGuardError: J_1 too large to enumerate" in lines
    assert all(line.startswith(("PASS ", "INCONCLUSIVE ")) for line in lines)


# Z plans at depth 1 whose realization row cannot be decided: a level-1 tile
# past MATERIALIZE_GUARD, whose code tiles no walk may confirm, and 12 seed
# stars with a 51- and an 11-point net (51^12 and 11^12 assignments)
REALIZATION_GUARDED = [
    ("600000", "1/100000", "1/2", "level-1 tile too large to scan"),
    ("23", "11/24", "1/100", "51^12 assignments, over 4096 to enumerate"),
    ("23", "11/24", "1/20", "11^12 assignments, over 4096 to enumerate"),
]


@pytest.mark.parametrize("seed_b,rho,delta1,detail", REALIZATION_GUARDED, ids=["tile", "net-51", "net-11"])
def test_verify_realization_row_is_inconclusive_past_its_guards(tmp_path, capsys, seed_b, rho, delta1, detail):
    path = tmp_path / "guarded.cfg"
    path.write_text(f"[experiment]\ngroup = Z\nrho = {rho}\ndepth = 1\n\n"
                    f"[schedule]\nseed_a = 0\nseed_b = {seed_b}\n\n[nets]\ndelta1 = {delta1}\n")
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, err) == (0, "")
    assert f"INCONCLUSIVE level-1 assignments all realized: SizeGuardError: {detail}" in out.splitlines()


@pytest.mark.parametrize("config_name", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_verification_decides_every_check_at_the_default_depth(config_name):
    # the benchmark probe counts any row that is not True as a failure
    from meandim import cli

    cfg_path = Path(__file__).resolve().parents[1] / config_name
    cfg = Construction(cli.load_config(str(cfg_path), argparse.Namespace(depth=None, mode=None, seed=None)))
    assert [(name, ok) for name, ok, _ in cli.run_verification(cfg, 7) if ok is not True] == []


def test_verify_json_lists_the_text_rows(tmp_path, capsys):
    path = tmp_path / "oversized.cfg"
    path.write_text(OVERSIZED_Z2)
    for config in (str(path), TOY_Z_CFG):
        code, text, _ = run(capsys, "verify", "--config", config)
        json_code, out, err = run(capsys, "verify", "--config", config, "--format", "json")
        assert (json_code, err) == (code, "")
        rows = json.loads(out)
        assert all(set(row) == {"name", "status", "detail"} for row in rows)
        assert text == "".join(f"{r['status']} {r['name']}: {r['detail']}\n" for r in rows)


def test_gen_tilings_builds_schedule_text_only_for_out():
    # without --out no schedule text is built, so a level count no
    # serialization could reach still prints its summary at once; a separate
    # process, so that a regression times out rather than hangs the suite
    root = Path(__file__).resolve().parents[1]
    levels = str(10**23)
    flags = ["-O"] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, *flags, "-m", "meandim.cli", "gen-tilings", "--config", TOY_Z_CFG,
                           "--levels", levels], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == f"schedule levels = {levels}" and lines[-1] == "checks failed = 0"


def test_importing_the_command_leaves_the_oracles_out():
    # the engine evaluates through the tile walk alone, and the pointwise
    # resolvers and scanners are test oracles: neither the package nor a
    # verify run loads them.  The child prints what it saw rather than
    # asserting, so the check holds under python -O
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import contextlib, io, sys, meandim, meandim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = meandim.cli.main(['verify', '--config', sys.argv[1]])\n"
        "print(code, [m for m in sys.modules if m.startswith('meandim.oracles')])\n"
    )
    flags = ["-O"] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", probe, TOY_Z_CFG],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")


# every name that lives in meandim.oracles rather than in the engine
ORACLE_NAMES = {
    "DensityReport", "box2", "check_irreducibility_witness", "covers_window", "densities", "factor_window",
    "floors_by_count", "free_set_elements", "generate_interval_schedule", "interval", "parse_schedule",
    "tiling_configuration", "to_explicit", "toy_params", "verify_dense", "verify_invariance_profile",
    "verify_syndetic_centers",
}


def test_the_engine_neither_exports_nor_imports_the_oracles():
    import ast
    import meandim

    assert not ORACLE_NAMES & set(meandim.__all__)
    assert ORACLE_NAMES <= set(dir(oracles))
    # an import anywhere in an engine module, reached by a run or not
    for path in sorted(Path(meandim.__file__).parent.glob("*.py")):
        if path.name == "oracles.py":
            continue
        imported = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        assert not [name for name in imported if "oracles" in name.split(".")], path.name


# -- mutated configs: exit codes hold and output is deterministic -------------

MUTATION_BASES = [
    (Path(TOY_Z_CFG), "[-3,3]"),
    (Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg", "[-3,3]x[-3,3]"),
]
# (config, window, line number) of every field line of the base configs
MUTATION_FIELDS = [
    (path, window, i)
    for path, window in MUTATION_BASES
    for i, line in enumerate(path.read_text().splitlines())
    if re.match(r"\w+\s*=", line)
]
MUTATION_TOKENS = ["", "0", "-1", "1/0", "abc", "1e5000", "3 0", "1" * 5000, "capped:1", "1/2%", "%(seed)s"]


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def mutation_field(name):
    return next(f for f in MUTATION_FIELDS if f[0].read_text().splitlines()[f[2]].startswith(name))


# about 230 cases in all, 2 ms to 40 ms each; enough examples to try them all
@given(st.sampled_from(MUTATION_FIELDS), st.sampled_from(MUTATION_TOKENS))
@example(mutation_field("rho"), "1e5000")  # once a ValueError from str(Fraction)
@example(mutation_field("growth"), "1e5000")  # once a CapacityError traceback
@example(mutation_field("rho"), "1/2%")  # once an InterpolationSyntaxError traceback
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_mutated_config_exits_cleanly_and_deterministically(field, token):
    # one field value of a checked-in config replaced by a hostile token; no
    # token makes a depth past 2, so every run stays small
    path, window, i = field
    lines = path.read_text().splitlines()
    lines[i] = f"{lines[i].split('=')[0].rstrip()} = {token}"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "mutated.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        for argv in (["build", "--config", str(cfg)],
                     ["window", "--config", str(cfg), "--window", window]):
            first = run_captured(argv)
            assert first[0] in (0, 1, 2), (lines[i], argv[0], first)
            assert "Traceback" not in first[2]
            assert run_captured(argv) == first


def line_mutations():
    """(id, config bytes, window) of each line of a base config deleted or
    duplicated, of its section headers dropped and of a non-UTF-8 first byte."""
    for path, window in MUTATION_BASES:
        lines = path.read_text().splitlines(keepends=True)
        for i in range(len(lines)):
            yield f"{path.stem}-delete{i}", "".join(lines[:i] + lines[i + 1:]).encode(), window
            yield f"{path.stem}-duplicate{i}", "".join(lines[:i + 1] + lines[i:]).encode(), window
        yield f"{path.stem}-no-headers", "".join(ln for ln in lines if not ln.startswith("[")).encode(), window
        yield f"{path.stem}-prepend-xff", b"\xff" + path.read_bytes(), window


@pytest.mark.parametrize("text,window", [m[1:] for m in line_mutations()], ids=[m[0] for m in line_mutations()])
def test_line_mutated_config_exits_cleanly_and_deterministically(tmp_path, text, window):
    # each line-level mutation is an INI syntax error (exit 2) or a config the
    # field checks read as they would any other
    cfg = tmp_path / "mutated.cfg"
    cfg.write_bytes(text)
    for argv in (["build", "--config", str(cfg)],
                 ["window", "--config", str(cfg), "--window", window]):
        first = run_captured(argv)
        assert first[0] in (0, 1, 2), (argv[0], first)
        assert "Traceback" not in first[2]
        assert run_captured(argv) == first
