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
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from meandim import oracles
from meandim.cli import DECIMAL_CHUNK, decimal_text, load_config, main, parse_mode, parse_window
from meandim.construction import Construction, render_value
from meandim.errors import DepthError
from meandim.groups import Box, Z, Z2

TOY = """\
[experiment]
group = Z
rho = 1/2
dim = 1
depth = 2
mode = exact
seed = 7

[schedule]
seed_a = 1
seed_b = 2
growth = 3

[nets]
delta1 = 1/2
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_window():
    assert parse_window("[-8,8]", Z).lows == (-8,)
    box = parse_window("[0,3]x[-2,2]", Z2)
    assert box.lows == (0, -2) and box.highs == (3, 2)
    from meandim.cli import CliError

    with pytest.raises(CliError):
        parse_window("[3,0]", Z)
    with pytest.raises(CliError):
        parse_window("[0,3]", Z2)


def test_parse_mode():
    assert parse_mode("exact") == ("exact", None)
    assert parse_mode("capped:512") == ("capped", 512)
    from meandim.cli import CliError

    with pytest.raises(CliError):
        parse_mode("loose")


def test_window_command_no_stars(config, capsys):
    code, out, _ = run(capsys, "window", "--config", config, "--window", "[-8,8]")
    assert code == 0
    symbols = out.strip().split()
    assert len(symbols) == 17
    assert "*" not in symbols


def test_window_command_deterministic(config, capsys):
    _, out1, _ = run(capsys, "window", "--config", config, "--window", "[-30,30]")
    _, out2, _ = run(capsys, "window", "--config", config, "--window", "[-30,30]")
    assert out1 == out2


def test_build_json(config, capsys):
    code, out, _ = run(capsys, "build", "--config", config, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][1]["stars"] == 163
    assert payload["steps"][0]["code_count"] == 8


def test_verify_command(config, capsys):
    code, out, _ = run(capsys, "verify", "--config", config)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


def test_mdim_command(config, capsys):
    code, out, _ = run(capsys, "mdim", "--config", config, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_rho_dim"] == "1/2"
    assert payload["gaps_monotone"] is True


def test_gen_tilings(config, tmp_path, capsys):
    out_path = tmp_path / "schedule.txt"
    code, out, _ = run(
        capsys, "gen-tilings", "--config", config, "--levels", "4", "--out", str(out_path)
    )
    assert code == 0
    assert "checks failed = 0" in out
    from meandim import TilingSchedule

    sched = TilingSchedule.parse(out_path.read_text())
    assert sched.level_box(4).volume == 108


def test_gen_tilings_corrupted_import(config, tmp_path, capsys):
    from meandim import GridTiling, write_tiling, ExplicitTiling
    from meandim.groups import Box, Z as Zg

    base = GridTiling(Zg, (-1,), (2,)).to_explicit(Box((-40,), (40,)))
    centers = [((5,) if c == (4,) else c, sid) for c, sid in base.centers]
    bad = ExplicitTiling(Zg, base.shapes, centers, base.support)
    path = tmp_path / "bad.tiling"
    path.write_text(write_tiling(bad))
    code, out, _ = run(
        capsys, "gen-tilings", "--config", config, "--levels", "3", "--imported", str(path)
    )
    assert code == 1
    assert "imported tiling" in out
    assert "checks failed = 1" in out.splitlines()  # the import is the only failure


def test_gen_tilings_z2(tmp_path, capsys):
    path = tmp_path / "z2.cfg"
    path.write_text(
        TOY.replace("group = Z", "group = Z2").replace("seed_a = 1", "seed_a = 1").replace(
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
    path.write_text(TOY.replace("rho = 1/2", "rho = 1"))
    code, _, err = run(capsys, "build", "--config", str(path))
    assert code == 2
    assert "rho" in err


def test_usage_error_missing_config(capsys):
    code, _, err = run(capsys, "build", "--config", "/nonexistent.cfg")
    assert code == 2


def test_depth_override_capped(config, capsys):
    code, out, _ = run(
        capsys, "window", "--config", config, "--depth", "3", "--mode", "capped:4096",
        "--window", "[-8,8]",
    )
    assert code == 0
    _, base, _ = run(capsys, "window", "--config", config, "--window", "[-8,8]")
    assert out == base  # deeper capped plan leaves stabilized values alone


def test_out_file(config, tmp_path, capsys):
    target = tmp_path / "dump.txt"
    code, out, _ = run(
        capsys, "window", "--config", config, "--window", "[0,5]", "--out", str(target)
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
    ("growth = 3", "growth = 1" + "0" * 400 + "1/3", "is not an integer multiple of 4"),
    # refused before a single net point is built
    ("delta1 = 1/2", "delta1 = 1/1000000000", "'delta1': 1/1000000000 needs over 65536 net points"),
    ("delta2 = 1/4", "delta2 = 1/" + "7" * 4000, "'delta2'"),
    ("dim = 1", "dim = 1" + "0" * 4000, "'delta1'"),
]


@pytest.mark.parametrize(
    "old,new,message", CONFIG_ERRORS, ids=[new[:16] for _, new, _ in CONFIG_ERRORS]
)
def test_config_errors_exit_2_without_traceback(tmp_path, capsys, old, new, message):
    text = (Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg").read_text()
    assert text.count(f"\n{old}\n") == 1
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    code, out, err = run(capsys, "build", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: field '") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_gen_tilings_levels_below_one_is_usage_error(config, capsys, levels):
    code, out, err = run(capsys, "gen-tilings", "--config", config, "--levels", levels)
    assert code == 2 and out == ""
    assert "argument --levels: levels are 1-based" in err


def test_checked_in_config_runs(capsys):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg"
    code, out, _ = run(capsys, "build", "--config", str(cfg))
    assert code == 0
    assert "levels[1].stars = 163" in out


def test_window_undetermined_cell_exit_and_message(config, capsys):
    # a partially determined window prints every cell, '?' where the depth
    # leaves the value open, and still exits 1 naming the first such cell
    code, out, err = run(capsys, "window", "--config", config, "--window", "[-200,200]")
    assert code == 1
    texts = out.split()
    assert len(texts) == 401 and out.count("\n") == 1
    cfg = Construction(load_config(config, argparse.Namespace(depth=None, mode=None, seed=None)))
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


# sha256 of stdout and the exit code of `window` runs, recorded at commit
# fda1859, before windows were printed from value lists; the eval-deep-z
# pair is the benchmark's seed-1 window near 0 and its shift past 10**80
FAR_WINDOW = (
    "[100000000000000000000000000000000000000000000000000001075506492646844534185916595,"
    "100000000000000000000000000000000000000000000000000001075506492646844534185956595]"
)
GOLDEN_WINDOWS = [
    ("eval-deep-z-near", "configs/toy-z.cfg",
     ("--depth", "3", "--mode", "capped:4096", "--window", "[-20621,19379]"),
     "d7518d2bff7b2d89ae44a1c441cef26679c5750b3714439c4cd2b4c8bf6003af"),
    ("eval-deep-z-far", "configs/toy-z.cfg",
     ("--depth", "3", "--mode", "capped:4096", "--window", FAR_WINDOW),
     "d7518d2bff7b2d89ae44a1c441cef26679c5750b3714439c4cd2b4c8bf6003af"),
    ("z2-depth2", "perfbench/toy-z2.cfg",
     ("--depth", "2", "--window", "[-40,40]x[-40,40]"),
     "5b6eb74dda1d5adc81e2874a8e854a2883d2ecc72d896ff147d3710d2e4ded65"),
    ("toy-z-x", "configs/toy-z.cfg",
     ("--window", "[-12,12]", "--what", "x"),
     "c8c5e8c77bc0e0f59dc172e0ad47d4e17f29700af78386e22c68df7c9ee9c6b8"),
]


@pytest.mark.parametrize("config_path,flags,digest", [g[1:] for g in GOLDEN_WINDOWS],
                         ids=[g[0] for g in GOLDEN_WINDOWS])
def test_window_output_is_byte_identical_to_golden(capsys, config_path, flags, digest):
    path = Path(__file__).resolve().parents[1] / config_path
    code, out, err = run(capsys, "window", "--config", str(path), *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify` stdout, recorded at commit 82ae71f, before the tile walk
# resolved its tiles in runs and the floors check counted stars by rows; the
# capped depth-3 run, which reads the stabilized word past depth 2, recorded at
# 4b21366, before the literal materializer moved to flat lists; the Z^2 depth-2
# run recorded at 29b4e41, before single cells went through the tile walk and
# the bound bracket stopped iterating classes; each run exits 0
DEEP_Z = ("--depth", "3", "--mode", "capped:4096")
GOLDEN_VERIFY = [
    ("toy-z-depth1", "configs/toy-z.cfg", ("--depth", "1"),
     "9f266b96986aebc0918ff1501d9701c55ad5528a1a4a51a90496e6e975d6c0e7"),
    ("toy-z-depth2", "configs/toy-z.cfg", ("--depth", "2"),
     "ec845801804a11c7ac6307a6e009ce4a298b9d48e75b57fac9b0a3bb05cc8e1e"),
    ("toy-z-depth3-capped", "configs/toy-z.cfg", DEEP_Z,
     "43d8697fa5e9cac1cfab66b169ad1baf8f93f693988c929f4e196b87ad0071df"),
    ("toy-z2-depth1", "perfbench/toy-z2.cfg", ("--depth", "1"),
     "0da06fac6e9e6b90acb066fae4eb2f21370f9887171b53259aab1645290b2c89"),
    ("toy-z2-depth2", "perfbench/toy-z2.cfg", ("--depth", "2"),
     "aca453e47eeb262382dc15de690fb9954db8253c34d9171e636667a2fbef9475"),
]


@pytest.mark.parametrize("config_path,flags,digest", [g[1:] for g in GOLDEN_VERIFY],
                         ids=[g[0] for g in GOLDEN_VERIFY])
def test_verify_output_is_byte_identical_to_golden(capsys, config_path, flags, digest):
    path = Path(__file__).resolve().parents[1] / config_path
    code, out, err = run(capsys, "verify", "--config", str(path), *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `build --format json` and `mdim --format json` stdout, recorded at
# commit fbab476, before thinning kept only its total; `mdim` on toy-z2 at
# depth 2 recorded at 29b4e41, before the bound bracket stopped iterating
# classes; each run exits 0.  The build reports pin the plan numbers and the
# "per_tile" key
GOLDEN_REPORTS = [
    ("build-toy-z-depth2", "build", "configs/toy-z.cfg", (),
     "460b7ef6c89f2c649e901159bfc452da3ebebfebaee575bd3ff050b6daa00189"),
    ("build-toy-z-depth3-capped", "build", "configs/toy-z.cfg", DEEP_Z,
     "1e4ef75ad5392ede88d310af8a5c44c897f34ae26dc389a7ae8b52b9f0c7ce46"),
    ("build-toy-z2-depth1", "build", "perfbench/toy-z2.cfg", ("--depth", "1"),
     "080d58a090acfc7183d769ea1dd04eb148c790a3d167ec605bd835a6987b3cbe"),
    ("build-toy-z2-depth2", "build", "perfbench/toy-z2.cfg", ("--depth", "2"),
     "d8daa588fc2d8c22975d402506c1d444dde63563e0bfe315f183be8f6e868c42"),
    ("mdim-toy-z-depth2", "mdim", "configs/toy-z.cfg", (),
     "e265eba116c4fe94620dcd5b605f35b1e6da30fb3a0ca9be8b8552b534d23096"),
    ("mdim-toy-z-depth3-capped", "mdim", "configs/toy-z.cfg", DEEP_Z,
     "0432b98208973b0e412c0318d44236f9ae609dda60525ddda99e3263c94eb4b1"),
    ("mdim-toy-z2-depth1", "mdim", "perfbench/toy-z2.cfg", ("--depth", "1"),
     "81fffadf442d8680a66f04482390eb49319855b0e077f6a92757f8de23b4f4fb"),
    ("mdim-toy-z2-depth2", "mdim", "perfbench/toy-z2.cfg", ("--depth", "2"),
     "2a8b765e32a0213caadab2cb05001fd4c65c571f83dbacbb541a2e779a0d16f2"),
]


@pytest.mark.parametrize("command,config_path,flags,digest", [g[1:] for g in GOLDEN_REPORTS],
                         ids=[g[0] for g in GOLDEN_REPORTS])
def test_json_reports_are_byte_identical_to_golden(capsys, command, config_path, flags, digest):
    path = Path(__file__).resolve().parents[1] / config_path
    code, out, err = run(capsys, command, "--config", str(path), "--format", "json", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        TOY.replace("group = Z", "group = Z2").replace("seed_b = 2", "seed_b = 1")
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
    path.write_text(TOY.replace("growth = 3", f"growth = {10**100}"))
    out_path = tmp_path / "schedule.txt"
    code, out, err = run(
        capsys, "gen-tilings", "--config", str(path), "--levels", "45", "--out", str(out_path)
    )
    assert code == 0 and err == "" and "checks failed = 0" in out
    from meandim import TilingSchedule

    text = out_path.read_text()
    sched = TilingSchedule.parse(text)
    assert sched.serialize(45) == text
    box = sched.level_box(45)
    assert len(decimal_text(box.highs[0])) > 4300
    with int_str_limit_lifted():
        assert repr(box) == f"Box([{box.lows[0]},{box.highs[0]}])"


def test_verify_depth_1_on_checked_in_config(capsys):
    # depth 1 determines the level-1 tile only; the star check walks that one
    cfg = Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg"
    code, out, err = run(capsys, "verify", "--config", str(cfg), "--depth", "1")
    assert code == 0 and err == ""
    assert "PASS no star in the limit: 4 cells" in out.splitlines()
    assert "FAIL" not in out


def test_capacity_error_prints_huge_counts(tmp_path, capsys):
    # a 10^5000 multiplier puts the host surplus and the sandwich ceiling past
    # the int->str digit limit; the message prints them in full
    text = (Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg").read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("\ngrowth = 3\n", "\ngrowth = 1e5000\n"))
    code, out, err = run(capsys, "build", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: CapacityError: step 2: the ") and err.endswith("code block\n")
    assert "Traceback" not in err
    surplus = err.split(" tiles hold ")[1].split(" stars")[0]
    ceiling = err.split("sandwich ceiling ")[1].split(";")[0]
    with int_str_limit_lifted():
        assert int(surplus) > int(ceiling) > 10**5000


# The planner's error paths, recorded at commit e57a577, before the host and
# next-level searches became closed form.  With the level cap lowered, the
# Z^2 depth-2 toy (host 14,768, next level 14,774) fails in the host search
# (cap below the host), in the next-level walk (cap between the two, with
# the reason of the last level walked) and with no level to walk (cap at the
# host).
@pytest.mark.parametrize("cap,message", [
    (100, "no host level found for step 3"),
    (14_767, "no host level found for step 3"),
    (14_768, "step 3:  unsatisfiable through level 14768"),
    (14_770, "step 3: outside star mass unsatisfiable through level 14770"),
])
def test_planner_error_paths(monkeypatch, capsys, cap, message):
    from meandim import construction

    monkeypatch.setattr(construction, "MAX_SCHED_LEVEL", cap)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg"
    code, out, err = run(capsys, "build", "--config", str(path), "--depth", "2")
    assert (code, out, err) == (1, "", f"error: CapacityError: {message}\n")


@pytest.mark.parametrize("exponent,outcome", [
    (300, 191),
    (420, "step 2: thinning capacity keeps failing past level 260"),
])
def test_thinning_capacity_gives_up_after_256_futile_levels(tmp_path, capsys, exponent, outcome):
    # rho = 2^-e puts rho * |S_1| just above an integer, so the thinning zone
    # sheds its surplus only at a next level about e / log2(3) levels above
    # the host; past 256 such levels the planner gives up
    text = (Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg").read_text()
    text = text.replace("rho = 1/2", f"rho = 1/{2**exponent}").replace("delta1 = 1/2", "delta1 = 1/8")
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

    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg"
    flags = argparse.Namespace(depth=depth, mode=None, seed=None)
    cfg = Construction(cli.load_config(str(cfg_path), flags))
    real = Construction.materialize
    words = real(cfg)
    cells = list(words.window.cells())
    victim = next(g for g, v in zip(cells, words.v11) if v is HASH and g[0] > 0)

    def planted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        out.v11[cells.index(victim)] = (Fraction(9, 10),)  # one cell that no net holds
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


@pytest.mark.parametrize("config_name", ["configs/toy-z.cfg", "perfbench/toy-z2.cfg"])
def test_planted_thinned_tile_fails_the_floors(monkeypatch, config_name):
    # every star of one thinning-zone level-1 tile of the literal V_2 turned
    # to a hash: the first such tile after the host in lexicographic order
    from meandim import HASH, STAR, cli

    cfg_path = Path(__file__).resolve().parents[1] / config_name
    cfg = Construction(cli.load_config(str(cfg_path), argparse.Namespace(depth=1, mode=None, seed=None)))
    st, q = cfg.steps[1], cfg.levels[1].periods
    center = tuple((hi + 1) * qq for hi, qq in zip(st.cand_hi, q))
    victims = [cfg.group.mul(a, center) for a in cfg.seed_stars]
    real = Construction.materialize

    def planted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        at = {g: i for i, g in enumerate(out.window.cells())}
        assert any(out.v11[at[g]] is STAR for g in victims)
        for g in victims:
            out.v11[at[g]] = HASH
        return out

    monkeypatch.setattr(Construction, "materialize", planted)
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(cfg, 7)}
    assert rows["per-tile density floors"] == (False, f"tile at {center} thinned below its floor")


def test_planted_stable_mismatch_fails_the_oracle(monkeypatch):
    from fractions import Fraction

    from meandim import HASH, cli

    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg"
    cfg = Construction(cli.load_config(str(cfg_path), argparse.Namespace(depth=2, mode=None, seed=None)))
    real = Construction.materialize
    words = real(cfg)
    cells = list(words.window.cells())
    victim = next(g for g, v in zip(cells, words.stable) if v is HASH and g[0] > 0)

    def planted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        out.stable[cells.index(victim)] = (Fraction(9, 10),)
        return out

    monkeypatch.setattr(Construction, "materialize", planted)
    rows = {name: (ok, note) for name, ok, note in cli.run_verification(cfg, 7)}
    assert rows["evaluator equals literal materialization"] == (False, f"stabilized mismatch at {victim}")


def test_importing_the_command_leaves_the_oracles_out():
    # the engine evaluates through the tile walk alone, and the pointwise
    # resolvers are a test oracle: the command never loads them.  The child
    # reports by exit code, not assert, so the check holds under python -O
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, meandim.cli; sys.exit(3 if 'meandim.oracles' in sys.modules else 0)"
    flags = ["-O"] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


# -- mutated configs: exit codes hold and output is deterministic -------------

MUTATION_BASES = [
    (Path(__file__).resolve().parents[1] / "configs" / "toy-z.cfg", "[-3,3]"),
    (Path(__file__).resolve().parents[1] / "perfbench" / "toy-z2.cfg", "[-3,3]x[-3,3]"),
]
# (config, window, line number) of every field line of the base configs
MUTATION_FIELDS = [
    (path, window, i)
    for path, window in MUTATION_BASES
    for i, line in enumerate(path.read_text().splitlines())
    if re.match(r"\w+\s*=", line)
]
MUTATION_TOKENS = ["", "0", "-1", "1/0", "abc", "1e5000", "3 0", "1" * 5000, "capped:1"]


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
