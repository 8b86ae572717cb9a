"""Per-layer spans around calls into powerplan's public functions.

The tracer replaces each traced function, in every ``powerplan`` module that
holds it, with a wrapper that times the call and records it under a span
name.  Nothing inside the package is edited.  Spans nest: a span's self time
is its busy time minus the time spent in traced calls it made.  Counters are
taken at the same boundaries, so ratios are measured where the work happens.
Only aggregates are kept, in memory, and written out when the run ends.
"""

from __future__ import annotations

import sys
import time

# (module, function, span); several renderers share the one "report.format" span.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_ingest", "cli.cmd_ingest"),
    ("ingest", "parse_power_log", "ingest.parse_power_log"),
    ("ingest", "parse_timing_log", "ingest.parse_timing_log"),
    ("ingest", "aggregate_point", "ingest.aggregate_point"),
    ("ingest", "load_profile", "ingest.load_profile"),
    ("ingest", "save_profile", "ingest.save_profile"),
    ("core", "select_configuration_fast", "core.select_configuration_fast"),
    ("core", "feasible_combinations", "core.feasible_combinations"),
    ("baselines", "fastest_configuration", "baselines.fastest_configuration"),
    ("baselines", "baseline1_select", "baselines.baseline1_select"),
    ("baselines", "baseline2_select", "baselines.baseline2_select"),
    ("report", "cap_range", "report.cap_range"),
    ("report", "build_sweep", "report.build_sweep"),
    ("report", "build_comparison", "report.build_comparison"),
    ("report", "build_sensitivity", "report.build_sensitivity"),
    ("report", "format_sweep_table", "report.format"),
    ("report", "sweep_csv_rows", "report.format"),
    ("report", "format_comparison_table", "report.format"),
    ("report", "comparison_csv_rows", "report.format"),
    ("report", "format_sensitivity_table", "report.format"),
    ("report", "sensitivity_csv_rows", "report.format"),
)
VALIDATION_SPAN = "core.DeviceProfile"  # wraps DeviceProfile.__post_init__
SPAN_NAMES = tuple(dict.fromkeys([s for _, _, s in SPANS] + [VALIDATION_SPAN]))
COUNTERS = ("lines", "bytes", "selections", "infeasible", "rows_scanned", "feasible_pairs")


def replace_everywhere(old, new) -> None:
    """Rebind every powerplan module attribute that refers to ``old``."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "powerplan" or name.startswith("powerplan.")):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


class Tracer:
    def __init__(self) -> None:
        # span -> [calls, busy_s, self_s, errors]
        self.spans = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child_time: list[float] = []

    def wrap(self, span: str, fn, count=None):
        stats = self.spans[span]
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                stats[3] += 1
                raise
            finally:
                busy = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += busy
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - children
                if count is not None:
                    count(self.counters, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function; call after ``import powerplan.cli``."""
        import powerplan.cli  # noqa: F401  (loads every module that holds a traced name)
        from powerplan.core import DeviceProfile, InfeasibleError

        def selection(counters, args, result, error):
            counters["selections"] += 1
            counters["infeasible"] += isinstance(error, InfeasibleError)

        def fast_selection(counters, args, result, error):
            selection(counters, args, result, error)
            counters["rows_scanned"] += len(args[0].batch_sizes)
            counters["feasible_pairs"] += 0 if result is None else result.feasible_count

        def feasible(counters, args, result, error):
            counters["rows_scanned"] += len(args[0].batch_sizes)
            counters["feasible_pairs"] += 0 if result is None else len(result)

        def lines(counters, args, result, error):
            if isinstance(args[0], str):
                counters["lines"] += args[0].count("\n")

        def loaded(counters, args, result, error):
            if isinstance(args[0], str):
                counters["bytes"] += len(args[0])

        def saved(counters, args, result, error):
            counters["bytes"] += 0 if result is None else len(result)

        hooks = {
            "core.select_configuration_fast": fast_selection,
            "baselines.fastest_configuration": selection,
            "core.feasible_combinations": feasible,
            "ingest.parse_power_log": lines,
            "ingest.parse_timing_log": lines,
            "ingest.load_profile": loaded,
            "ingest.save_profile": saved,
        }
        for module, func, span in SPANS:
            original = getattr(sys.modules[f"powerplan.{module}"], func)
            replace_everywhere(original, self.wrap(span, original, hooks.get(span)))
        DeviceProfile.__post_init__ = self.wrap(VALIDATION_SPAN, DeviceProfile.__post_init__)

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counters": dict(self.counters)}


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (used for traced child processes)."""
    for name, values in part["spans"].items():
        acc = total["spans"].setdefault(name, [0, 0.0, 0.0, 0])
        for k, v in enumerate(values):
            acc[k] += v
    for name, v in part["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + v
    return total


def empty() -> dict:
    return Tracer().snapshot()
