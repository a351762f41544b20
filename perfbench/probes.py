"""Per-layer probes: each layer's public functions called directly, untraced,
on fixed inputs drawn from the workloads, with one harness span per probe.

Probes that take milliseconds repeat until ``MIN_PROBE_S`` has passed and
report the median call; the rest run once on a fresh instance.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import statistics
import time
import tracemalloc
from fractions import Fraction

from workloads import overrides

MIN_PROBE_S = 0.2


class ProbeError(Exception):
    """A probe's call returned a wrong result."""


def _repeat(fn, prepare=lambda: None) -> float:
    """Median seconds of fn(prepare()) over repetitions; prepare is untimed."""
    times = []
    spent = 0.0
    while len(times) < 3 or spent < MIN_PROBE_S:
        arg = prepare()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


class Probes:
    def __init__(self, meandim, tracer, configs: dict, deep_windows, prog_seed: int):
        self.m = meandim
        self.tracer = tracer
        self.z, self.z2 = configs["toy-z"], configs["toy-z2"]
        self.deep_windows = deep_windows  # eval-deep-z (near, far) window specs
        self.prog_seed = prog_seed
        self.metrics = {}
        self.failures = []

    GROUPS = ("schedules_and_plan", "evaluation", "verify_parts",
              "tilings_and_groups", "analysis", "cli")

    def run(self) -> None:
        for name in self.GROUPS:
            self.tracer.begin_op(f"probe:{name}")
            try:
                getattr(self, name)()
            except Exception as exc:  # a broken probe is reported, the rest still run
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}"[:300])

    def _span(self, metric: str, layer: str, fn):
        return self.tracer.call(f"probe.{metric}", layer, fn)

    def _time(self, metric: str, layer: str, fn):
        start = time.perf_counter()
        result = self._span(metric, layer, fn)
        self.metrics[metric] = time.perf_counter() - start
        return result

    def _time_repeated(self, metric: str, layer: str, fn, prepare=lambda: None) -> None:
        self.metrics[metric] = self._span(metric, layer, lambda: _repeat(fn, prepare))

    def _plan(self, path, **flags):
        params = self.m.cli.load_config(path, overrides(**flags))
        return self.m.construction.Construction(params)

    # -- schedules and planning ------------------------------------------

    def schedules_and_plan(self) -> None:
        cli, Construction = self.m.cli, self.m.construction.Construction
        planned = cli.load_config(self.z2, overrides(depth=2))
        Construction(planned)  # learns the schedule level the plan reaches
        top = planned.schedule.levels_built
        self.metrics["schedules.levels_built"] = top
        fresh = cli.load_config(self.z2, overrides(depth=2))
        self._time("schedules.ensure_s", "schedules", lambda: fresh.schedule.ensure(top))
        z2_deep = self._time("construction.plan_s", "construction", lambda: Construction(fresh))

        z_deep = self._plan(self.z, depth=3, mode="capped:4096")
        pairs = []
        for plan in (z_deep, z2_deep):
            levels = {lvl.sched_level for lvl in plan.levels.values()}
            levels |= {st.host_level for st in plan.steps.values()}
            pairs += [(plan.schedule, n) for n in sorted(levels)]

        def level_boxes(_):
            for schedule, n in pairs:
                schedule.level_box(n)
                schedule.periods(n)

        self._time_repeated("schedules.level_box_us", "schedules", level_boxes)
        self.metrics["schedules.level_box_us"] *= 1e6 / len(pairs)

    # -- lazy evaluation ---------------------------------------------------

    def evaluation(self) -> None:
        cli, construction = self.m.cli, self.m.construction
        params = cli.load_config(self.z, overrides(depth=3, mode="capped:4096"))
        near, far = (cli.parse_window(spec, params.schedule.group) for spec in self.deep_windows)
        cells = near.volume
        self.metrics["construction.cells"] = cells

        warm_instance = construction.Construction(params)
        near_values = self._time("construction.eval_us_per_cell.near", "construction",
                                 lambda: warm_instance.window(near))
        self._time("construction.eval_us_per_cell.warm", "construction",
                   lambda: warm_instance.window(near))
        far_instance = construction.Construction(params)
        far_values = self._time("construction.eval_us_per_cell.far", "construction",
                                lambda: far_instance.window(far))
        for key in ("near", "warm", "far"):
            self.metrics[f"construction.eval_us_per_cell.{key}"] *= 1e6 / cells
        values = [v for _, v in near_values]
        if values != [v for _, v in far_values]:
            raise ProbeError("far window differs from the near window")
        if any(v is construction.STAR for v in values):
            raise ProbeError("a star in the near window")

        def render(_):
            " ".join(construction.render_value(v) for v in values)
            with contextlib.redirect_stdout(io.StringIO()):
                for plan in (warm_instance, far_instance):
                    cli._report(plan.plan_report(), "json", None)
                    cli._report(plan.plan_report(), "text", None)

        self._time_repeated("cli.render_s", "cli", render)

        # memory still held by a fresh instance after the near window (memo growth)
        del near_values, far_values, values, warm_instance, far_instance
        instance = construction.Construction(params)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self._span("construction.eval_retained_mib", "construction",
                       lambda: instance.window(near))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        self.metrics["construction.eval_retained_mib"] = retained / 2**20

    def verify_parts(self) -> None:
        """The Z^2 depth-1 pieces behind verify: materializer, star ranking, decoding."""
        plan = self._plan(self.z2)
        self._time("construction.materialize_s", "construction", plan.materialize)
        planned = [n for n, lvl in plan.levels.items()
                   if lvl.volume <= self.m.construction.MATERIALIZE_GUARD]
        self._time("construction.star_positions_s", "construction",
                   lambda: [plan.star_positions(n) for n in planned])
        step, stars = plan.steps[1], plan.levels[1].stars

        def decode_all(_):
            centers = {plan.realization_decode(1, [step.net.point_at(d) for d in combo])
                       for combo in itertools.product(range(step.radix), repeat=stars)}
            if len(centers) != step.radix**stars:
                raise ProbeError("level-1 assignments decode to repeated centers")

        self._time_repeated("construction.decode_s", "construction", decode_all)

    # -- tilings, groups and nesting, as gen-tilings runs them ---------------

    def tilings_and_groups(self) -> None:
        groups, tilings = self.m.groups, self.m.tilings
        totals = dict.fromkeys(("partition", "congruent", "primely", "nesting", "invariant"), 0.0)
        cells = coarse = 0

        def timed(key, layer, fn):
            start = time.perf_counter()
            result = self._span(f"{layer}.{key}", layer, fn)
            totals[key] += time.perf_counter() - start
            if isinstance(result, tilings.CheckResult) and result.ok is not True:
                raise ProbeError(f"{key}: {result.detail}")
            return result

        for path, levels in ((self.z, 5), (self.z2, 2)):
            schedule = self.m.cli.load_config(path, overrides()).schedule
            schedule.ensure(levels)
            group = schedule.group
            side = 10_000 if group.rank == 1 else 100
            window = groups.Box((-side // 2,) * group.rank, (side // 2,) * group.rank)
            window = window.to_subset(group)
            checkable = [n for n in range(1, levels + 1)
                         if all(3 * q <= side for q in schedule.periods(n))]
            for n in checkable:
                tiling = schedule.materialize_level(n)
                timed("partition", "tilings", lambda: tilings.verify_partition(tiling, window))
                cells += len(window)
            for n in checkable:
                if n + 1 not in checkable:
                    continue
                fine, coarse_tiling = schedule.materialize_level(n), schedule.materialize_level(n + 1)
                for key, check in (("congruent", tilings.verify_congruent),
                                   ("primely", tilings.verify_primely_congruent)):
                    res = timed(key, "tilings", lambda: check(fine, coarse_tiling, window))
                    coarse += int(res.detail.partition("checked=")[2])
            timed("nesting", "schedules", lambda: schedule.verify_nesting(100))

            def invariance_scans():
                for k in range(1, 4):
                    ball = group.ball(k)
                    for n in range(1, levels + 1):
                        if schedule.volume(n) > 20_000:
                            break
                        box = schedule.level_box(n).to_subset(group)
                        if groups.is_invariant(box, ball, Fraction(1, k)):
                            break

            timed("invariant", "groups", invariance_scans)
        self.metrics.update({
            "tilings.verify_partition_s": totals["partition"],
            "tilings.verify_congruent_s": totals["congruent"],
            "tilings.verify_primely_congruent_s": totals["primely"],
            "tilings.cells_checked": cells,
            "tilings.coarse_tiles_checked": coarse,
            "schedules.verify_nesting_s": totals["nesting"],
            "groups.is_invariant_s": totals["invariant"],
        })

    # -- free-coordinate bounds and the minimality diagnostic -----------------

    def analysis(self) -> None:
        analysis = self.m.analysis

        def fresh():
            return [self._plan(self.z), self._plan(self.z2)]

        plans = fresh()

        def bounds(_):
            return [analysis.upper_bound_estimate(plan, n)
                    for plan in plans for n in range(1, plan.params.depth + 1)]

        self._time_repeated("analysis.upper_bound_estimate_s", "analysis", bounds)
        self.metrics["analysis.classes_iterated"] = sum(
            est.class_count for est in bounds(None) if est is not None and est.exhaustive)
        self._time_repeated("analysis.mdim_report_s", "analysis",
                            lambda _: [analysis.mdim_report(plan) for plan in plans])

        def nesting(fresh_plans):
            for plan in fresh_plans:
                if analysis.verify_free_nesting(plan, min(2, plan.params.depth)).ok is not True:
                    raise ProbeError("free set nesting failed")

        self._time_repeated("analysis.verify_free_nesting_s", "analysis", nesting, fresh)

        def minimality(fresh_plans):
            for plan in fresh_plans:
                if not analysis.minimality_check(plan, 1, sample_size=20, seed=self.prog_seed).ok:
                    raise ProbeError("minimality diagnostic failed")

        self._time_repeated("analysis.minimality_check_s", "analysis", minimality, fresh)

    # -- the CLI's own work ----------------------------------------------------

    def cli(self) -> None:
        cli = self.m.cli

        def load_all(_):
            for path, flags in ((self.z, {}), (self.z, {"depth": 3, "mode": "capped:4096"}),
                                (self.z2, {}), (self.z2, {"depth": 2})):
                cli.load_config(path, overrides(**flags))

        self._time_repeated("cli.load_config_s", "cli", load_all)
        plans = [self._plan(self.z), self._plan(self.z2)]
        results = self._time("cli.run_verification_s", "cli", lambda: [
            row for plan in plans for row in cli.run_verification(plan, self.prog_seed)])
        failed = [name for name, ok, _ in results if not ok]
        if failed:
            raise ProbeError(f"run_verification failed: {failed}")
        self.metrics["cli.checks_skipped"] = sum(
            1 for _, ok, note in results if ok and "skipped" in note)
