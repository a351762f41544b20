"""What the benchmark measures: metric units and directions, the layer map,
the functions the traced run wraps, and the cases it knowingly leaves out.

``BENCHMARK.json`` at the repository root selects which of these metrics the
result line carries; ``run.py`` refuses to run when a selected metric is
missing here or disagrees with it on its unit.
"""

# End-to-end metrics of the untraced passes: name -> (unit, better).
# Per-command times appear only on workloads that run the command;
# BENCHMARK.json gates the metrics every workload has.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    # each pass over the median reference loop timed between its ops (run.reference_loop)
    "wall_ref": ("ref", "lower"),
    "reference_ms": ("ms", "lower"),  # the host's speed, not meandim's
    "gen_tilings_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "window_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "mdim_s": ("s", "lower"),
    "window_cells_per_s": ("1/s", "higher"),
    "failed_ratio": ("ratio", "lower"),
}

# Metrics of the traced run: name -> (unit, better, what it should move).
# The layers are meandim's modules; peak_mib comes from the memory pass,
# which runs here because tracemalloc would distort the timed passes.
PER_LAYER = {
    "peak_mib": (
        "MiB", "lower", "itself: the largest tracemalloc peak of one op of the workload"),
    "schedules.ensure_s": (
        "s", "lower", "window_s and build_s on plan-z2"),
    "schedules.levels_built": (
        "count", "lower", "window_s and build_s on plan-z2"),
    "schedules.level_box_us": (
        "us", "lower", "window_s on eval-deep-z; verify_s on plan-z2"),
    "schedules.verify_nesting_s": (
        "s", "lower", "gen_tilings_s on cli-session"),
    "construction.plan_s": (
        "s", "lower", "build_s and window_s on plan-z2"),
    "construction.eval_us_per_cell.near": (
        "us", "lower", "window_s and window_cells_per_s on eval-deep-z"),
    "construction.eval_us_per_cell.far": (
        "us", "lower", "window_s and window_cells_per_s on eval-deep-z"),
    "construction.eval_us_per_cell.warm": (
        "us", "lower", "window_s and window_cells_per_s on eval-deep-z"),
    "construction.cells": (
        "count", "higher", "window_cells_per_s on eval-deep-z"),
    "construction.eval_retained_mib": (
        "MiB", "lower", "peak_mib on eval-deep-z"),
    "construction.materialize_s": (
        "s", "lower", "verify_s on plan-z2"),
    "construction.star_positions_s": (
        "s", "lower", "verify_s on plan-z2"),
    "construction.decode_s": (
        "s", "lower", "verify_s on plan-z2"),
    "tilings.verify_partition_s": (
        "s", "lower", "gen_tilings_s on cli-session"),
    "tilings.verify_congruent_s": (
        "s", "lower", "gen_tilings_s on cli-session"),
    "tilings.verify_primely_congruent_s": (
        "s", "lower", "gen_tilings_s on cli-session"),
    "tilings.cells_checked": (
        "count", "higher", "gen_tilings_s on cli-session"),
    "tilings.coarse_tiles_checked": (
        "count", "higher", "gen_tilings_s on cli-session"),
    "groups.is_invariant_s": (
        "s", "lower", "gen_tilings_s on cli-session"),
    "analysis.upper_bound_estimate_s": (
        "s", "lower", "mdim_s and verify_s on cli-session and plan-z2"),
    "analysis.classes_iterated": (
        "count", "lower", "mdim_s and verify_s on cli-session and plan-z2"),
    "analysis.mdim_report_s": (
        "s", "lower", "mdim_s on cli-session and plan-z2"),
    "analysis.verify_free_nesting_s": (
        "s", "lower", "verify_s on plan-z2 and cli-session"),
    "analysis.minimality_check_s": (
        "s", "lower", "verify_s on plan-z2 and cli-session"),
    "cli.load_config_s": (
        "s", "lower", "every command on every workload"),
    "cli.run_verification_s": (
        "s", "lower", "verify_s on plan-z2 and cli-session"),
    "cli.render_s": (
        "s", "lower", "window_s on eval-deep-z"),
    "cli.checks_skipped": (
        "count", "lower", "nothing timed; PASS lines that only skipped"),
    "trace.overhead_s": (
        "s", "lower", "nothing; traced wall_s minus untraced wall_s"),
}

# Layers of the traced pass, in pipeline order: tilings, then planning, then
# lazy evaluation, then the free-coordinate bounds, with the CLI on top.
LAYERS = ("groups", "cube", "tilings", "schedules", "construction", "analysis", "cli")
PER_LAYER.update(
    {f"{layer}.errors": ("count", "lower", "failed_ratio wherever the layer runs")
     for layer in LAYERS})

# Public functions the traced pass wraps, per layer module.  Hot arithmetic
# helpers (group multiplication, Box membership, tile resolvers, symbol
# rendering) stay unwrapped: a span per cell would swamp what it measures,
# so their cost counts as self time of the wrapped caller.
TRACED = {
    "groups": (
        "is_invariant", "boundary", "covers_window",
        "LatticeGroup.ball", "LatticeGroup.enumerate_element",
        "Box.to_subset", "FiniteSubset.product", "FiniteSubset.inverse",
    ),
    "cube": ("make_net", "net_schedule", "Net.index_of"),
    "tilings": (
        "verify_partition", "verify_congruent", "verify_primely_congruent",
        "GridTiling.shape_cells", "read_tiling",
    ),
    "schedules": (
        "AxisRule.make", "TilingSchedule.ensure", "TilingSchedule.level_box",
        "TilingSchedule.periods", "TilingSchedule.volume",
        "TilingSchedule.materialize_level", "TilingSchedule.verify_nesting",
        "TilingSchedule.serialize",
    ),
    "construction": (
        "Construction.__init__", "Construction.window", "Construction.eval_w",
        "Construction.eval_x", "Construction.star_positions",
        "Construction.realization_decode", "Construction.materialize",
        "Construction.plan_report",
    ),
    "analysis": (
        "verify_free_nesting", "lower_bound_estimate", "upper_bound_estimate",
        "minimality_check", "mdim_report", "FreeSet.elements",
    ),
    "cli": (
        "main", "load_config", "parse_window", "run_verification",
        "cmd_gen_tilings", "cmd_build", "cmd_window", "cmd_verify", "cmd_mdim",
    ),
}

# Ops that fail today.  Each run attempts them once, outside the timed
# passes, and counts them in failed_ratio; once fixed they pass the same
# output checks as every other op of their command.
KNOWN_FAILING = {
    ("cli-session", "gen-tilings-z2"): (
        "exits 1: cmd_gen_tilings searches for a (ball(k),1/k)-invariant level "
        "only up to --levels, and level 4 is the first one on Z^2 (ROADMAP item 0)"
    ),
    ("plan-z2", "build-z2-depth2"): (
        "raises ValueError after about 0.8 s: cli._to_jsonable calls str() on a "
        "level box coordinate over the 4300-digit int->str limit of Python 3.11"
    ),
}

# Cases left out for length, with single-run costs measured under Python
# 3.11.7 on a shared 2-CPU machine; add them once ROADMAP items 2 and 4 shrink them.
LEFT_OUT = (
    ("plan-z2", "mdim --depth 2", "27 s: 20 s in upper_bound_estimate's 59,049-class "
     "loop, then the same int->str ValueError as build --depth 2"),
    ("plan-z2", "verify --depth 2", "60 s"),
    ("cli-session", "gen-tilings --levels 3 on Z^2", "16 s"),
    ("cli-session", "gen-tilings --levels 4 on Z^2", "20 s"),
)
