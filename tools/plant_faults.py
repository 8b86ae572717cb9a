"""Plant one-line faults in a copy of the sources and check that the tests catch each.

Run from the repository root:

    python3 tools/plant_faults.py

Each fault replaces one piece of one line under ``src/powerplan`` with a
wrong one.  For each, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, plants the fault there and
runs the tests named for it, test files or node ids, with ``pytest -x``.
A fault is caught when those tests fail.  Node ids keep the whole run
short.  The script first runs every named test on the unpatched copy,
which must pass.  It exits 1 if the copy fails, if a fault's text no
longer occurs exactly once, or if any fault survives, and prints its total
wall time last.

The script lives outside ``testpaths``, so the tier-1 run does not pay for
it; CI runs it as a step of its own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The report tests that plan many caps and policies against one-cap selections and exhaustive scans.
KERNEL_TESTS = tuple(
    f"tests/test_report.py::{name}"
    for name in ("TestBuildComparison", "TestBuildSensitivity", "TestSweepMatchesBruteForce", "TestPruningIsExact")
)

# Each fault between two valid inputs: the library's error carries the input the CLI names.
CROSS_FILE_TEST = "tests/test_cli.py::test_library_fault_carries_the_mapping_of_the_file_the_cli_names"

# name: (file under src/powerplan, text, its faulty replacement, test files or node ids that must catch it)
FAULTS = {
    "bound without the tie margin": (
        "core.py", "bisect_right(sorted_lows, guess * _PRUNE_SLACK)", "bisect_right(sorted_lows, guess)",
        KERNEL_TESTS,
    ),
    "bound from the first column": (
        "core.py", "lows = [row[-1] * m for row, m in", "lows = [row[0] * m for row, m in", KERNEL_TESTS,
    ),
    "warm start kept after it leaves the prefix": ("core.py", "if w >= n:", "if w >= reach:", KERNEL_TESTS),
    "peak at the cap fits": (
        "core.py", "cols = [bisect_left(power[i], p_max) - 1", "cols = [bisect_right(power[i], p_max) - 1",
        KERNEL_TESTS,
    ),
    "ties go to the smaller batch": ("core.py", "k = _last_near_min(tts)", "k = tts.index(min(tts))", KERNEL_TESTS),
    "energy from peak power": (
        "core.py", "return profile.avg_power_rows[i][j] * tt", "return profile.power_rows[i][j] * tt",
        ("tests/test_report.py::TestBuildComparison", "tests/test_baselines.py"),
    ),
    "sweep ladder one cap short": (
        "report.py", "range(int(math.floor(n_steps)) + 1)", "range(int(math.floor(n_steps)))",
        ("tests/test_report.py::TestBuildSweep",),
    ),
    "smaller batch resumes at the lowest frequency": (
        "ingest.py", "        j = start\n", "        j = 0\n", ("tests/test_ingest.py::TestProfilingSchedule",),
    ),
    "zero duration accepted": (
        "ingest.py", "if duration <= 0:", "if duration < 0:", ("tests/test_ingest.py::TestParseTimingLog",),
    ),
    "line numbers off by one": (
        "ingest.py", "enumerate(lines, start=1)", "enumerate(lines, start=0)",
        ("tests/test_ingest.py::TestParsePowerLog",),
    ),
    "warm-up durations kept": (
        "ingest.py", "return self.minibatch_durations[self.warmup_discarded :]", "return self.minibatch_durations",
        ("tests/test_ingest.py::TestParseTimingLog",),
    ),
    "percentile lerp from the lower end only": (
        "ingest.py", "return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t", "return a + (b - a) * t",
        ("tests/test_ingest.py::TestAggregatePoint",),
    ),
    "no tie tolerance": ("core.py", "TIE_REL_TOL = 1e-9", "TIE_REL_TOL = 0.0", KERNEL_TESTS),
    "fastest pass planned on the relation": (
        "report.py", 'passes["fastest"] = _count_picks(profile, true_counts, p_maxes)',
        'passes["fastest"] = _count_picks(profile, r.entries, p_maxes)', ("tests/test_report.py::TestBuildComparison",),
    ),
    "comparison picks against the caps unsorted": (
        "report.py", "p_maxes = [cap.p_max for cap in ordered]", "p_maxes = [cap.p_max for cap in caps]",
        ("tests/test_report.py::TestBuildComparison",),
    ),
    "baseline candidate sets swapped": (
        "baselines.py", 'first = 0 if policy_tag == "baseline2"', 'first = 0 if policy_tag == "baseline1"',
        ("tests/test_baselines.py", "tests/test_report.py::TestBuildComparison"),
    ),
    "baseline ties go to the smaller batch": (
        "baselines.py", "k = _last_near_min(ratios)", "k = ratios.index(min(ratios))", ("tests/test_baselines.py",),
    ),
    "temporary file left behind": (
        "cli.py", "        os.unlink(tmp)\n", "        pass\n", ("tests/test_cli.py::TestOutputFiles",),
    ),
    "sensitivity entry below the tied fastest kept": (
        "report.py", "if realized > fastest_tt:", "if True:", ("tests/test_report.py::TestBuildSensitivity",),
    ),
    "zero peak accepted": (
        "ingest.py", "if not peak_w > 0:", "if peak_w < 0:",
        ("tests/test_ingest.py::TestAggregatePoint::test_zero_peak_rejected",),
    ),
    "zero average accepted": (
        "ingest.py", "if not avg_w > 0:", "if avg_w < 0:",
        ("tests/test_ingest.py::TestAggregatePoint::test_zero_average_rejected",),
    ),
    "cap ladder one over its limit": (
        "report.py", "if not n_steps < MAX_CAP_LADDER:", "if not n_steps <= MAX_CAP_LADDER:",
        ("tests/test_report.py::TestBuildSweep",),
    ),
    "percentile midpoint lerped from the lower end": (
        "ingest.py", "if t >= 0.5 else", "if t > 0.5 else",
        ("tests/test_ingest.py::TestAggregatePoint::test_peak_percentile_is_numpys_bit_for_bit",),
    ),
    "relation's largest ratio only near 1": (
        "core.py", "any(r == 1.0 for r in clean.values())", "any(r >= 0.999 for r in clean.values())",
        ("tests/test_ingest.py::TestRelationAndCountsFiles",),
    ),
    "column width from the header only": (
        "report.py", "repeat(max(map(len, column)))", "repeat(len(column[0]))",
        ("tests/test_report.py::TestRendering",),
    ),
    "sweep and comparison picks unchecked": (
        "core.py", "yield w, j, tt, n, _pick_energy(profile, w, j, tt, multipliers)",
        "yield w, j, tt, n, _energy_at(profile, w, j, tt)", ("tests/test_report.py::TestOutOfRangeProducts",),
    ),
    "an infinite estimate ties": (
        "core.py", "<= TIE_REL_TOL * values[k] < math.inf:", "<= TIE_REL_TOL * values[k]:",
        ("tests/test_report.py::TestOutOfRangeProducts",),
    ),
    "input read stops after its first chunk": (
        "cli.py", "while chunk := os.read(fd, _READ_CHUNK if room", "if chunk := os.read(fd, _READ_CHUNK if room",
        ("tests/test_cli.py::TestInputReads",),
    ),
    # The faulty read still stops one byte past the limit, so no run reads /dev/zero without end.
    "input past its limit parsed as truncated": (
        "cli.py", "    if not room:\n", "    if room < 0:\n", ("tests/test_cli.py::TestInputReads",),
    ),
    "an overflowing sum taken for a non-finite entry": (
        "core.py", "return math.isfinite(sum(values, 0.0)) or all(map(math.isfinite, values))",
        "return math.isfinite(sum(values, 0.0))", ("tests/test_ingest.py::TestFiniteness",),
    ),
    "off-axis frequency passes the line check": (
        "ingest.py", "if f not in freq_set:", "if False:",
        ("tests/test_ingest.py::TestProfilePersistence::test_sample_count_axis_and_cell_faults_name_their_line",),
    ),
    "infinite energy accepted": (
        "core.py", "if energy is not None and not 0 < energy < math.inf:", "if energy is not None and not 0 < energy:",
        ("tests/test_report.py::TestOutOfRangeProducts::test_infinite_energy_raises_with_its_mapping",),
    ),
    "repeated batch size accepted": (
        "core.py", "if not bs or any(a >= b for a, b in zip(bs, bs[1:])):",
        "if not bs or any(a > b for a, b in zip(bs, bs[1:])):",
        ("tests/test_core.py::test_repeated_axis_value_rejected",),
    ),
    "repeated frequency accepted": (
        "core.py", "any(a >= b for a, b in zip(fs, fs[1:]))", "any(a > b for a, b in zip(fs, fs[1:]))",
        ("tests/test_core.py::test_repeated_axis_value_rejected",),
    ),
    "timing logs beyond the power logs dropped": (
        "cli.py", "if len(args.timing) != len(args.power):", "if len(args.timing) < len(args.power):",
        ("tests/test_cli.py::TestIngestCommand::test_unpaired_logs_is_usage_error",),
    ),
    "a row whose first peak is the cap fits": (
        "core.py", "n = bisect_left(next(zip(*power)), cap.p_max)", "n = bisect_right(next(zip(*power)), cap.p_max)",
        ("tests/test_core.py::TestPowerCap::test_strict_comparison_intent",),
    ),
    "a frequency whose peak is the cap fits": (
        "core.py", "{b: fs[bisect_left(row, cap.p_max) - 1]", "{b: fs[bisect_right(row, cap.p_max) - 1]",
        ("tests/test_core.py::TestPowerCap::test_strict_comparison_intent",),
    ),
    "cap ladder from 0 W": (
        "report.py", "if not (p_max_min > 0 and", "if not (p_max_min >= 0 and",
        ("tests/test_cli.py::TestParserBasics::test_bad_cap_option_is_usage_error_before_any_read",),
    ),
    "key fault without its mapping": (
        "core.py", '{sorted(unknown)}", multipliers)', '{sorted(unknown)}")', (CROSS_FILE_TEST,),
    ),
    "missing safe cap without its table": (
        "baselines.py", 'does not define cap {cap}", self.entries)', 'does not define cap {cap}")', (CROSS_FILE_TEST,),
    ),
    "off-axis safe frequency without its table": (
        "baselines.py", "EntriesError(str(exc), safe.entries)", "EntriesError(str(exc))", (CROSS_FILE_TEST,),
    ),
    "sweep rows tagged with another policy": (
        "report.py", 'ComparisonRow(cap.p_max, "ours", bs[i]', 'ComparisonRow(cap.p_max, "fastest", bs[i]',
        ("tests/test_report.py::TestSweepMatchesBruteForce",),
    ),
    "a fractional warm-up count truncated": (
        "ingest.py", "_int_at_least(warmup_discarded, _WARMUP_RULE, 0)",
        "_int_at_least(int(warmup_discarded), _WARMUP_RULE, 0)",
        ("tests/test_ingest.py::test_timing_integers_of_any_type_and_nothing_else",),
    ),
    "warm-up override sliced unchecked": (
        "ingest.py", "warmup = _int_at_least(warmup_override, _WARMUP_RULE, 0)", "warmup = warmup_override",
        ("tests/test_ingest.py::test_timing_integers_of_any_type_and_nothing_else",),
    ),
    "max_minibatches not checked as an integer": (
        "ingest.py", '_int_at_least(max_minibatches, "max_minibatches must be a positive integer")]',
        "max_minibatches]", ("tests/test_ingest.py::test_timing_integers_of_any_type_and_nothing_else",),
    ),
    "a count past the float range escapes as OverflowError": (
        "core.py", "except OverflowError:  # an integer count past the float range", "except ZeroDivisionError:  #",
        ("tests/test_baselines.py::TestFastestConfiguration::test_infinite_estimates_rejected",),
    ),
    "relation_vector's division past the float range escapes as OverflowError": (
        "core.py", "except OverflowError:  # a float count over an integer one", "except ZeroDivisionError:  #",
        ("tests/test_core.py::TestRelationVector::test_ratio_range_enforced",),
    ),
    "a realized count past the float range escapes as OverflowError": (
        "report.py", "except OverflowError:  # an integer count no kernel converted", "except ZeroDivisionError:  #",
        ("tests/test_report.py::TestOutOfRangeProducts::test_realized_time_out_of_range_names_the_counts",),
    ),
    "a ratio past the float range escapes as OverflowError": (
        "core.py", "except OverflowError:  # an integer past the float range", "except ZeroDivisionError:  #",
        ("tests/test_core.py::TestRelationVector::test_ratio_range_enforced",),
    ),
    "sensitivity proxies checked after the targets": (
        "report.py", "        _check_keys(profile, proxies[pid].entries)\n", "        pass\n", (CROSS_FILE_TEST,),
    ),
}


def pytest(workdir: Path, files) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    return subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)


def fresh_copy(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", workdir / "pyproject.toml")


def main() -> int:
    began = time.perf_counter()
    try:
        return check()
    finally:
        print(f"total wall time {time.perf_counter() - began:.1f} s")


def check() -> int:
    named = {f for *_, tests in FAULTS.values() for f in tests}
    files = sorted(f for f in named if f.partition("::")[0] == f or f.partition("::")[0] not in named)
    ok = True
    with tempfile.TemporaryDirectory(prefix="plant-faults-") as tmp:
        workdir = Path(tmp) / "copy"
        fresh_copy(workdir)
        started = time.perf_counter()
        proc = pytest(workdir, files)
        if proc.returncode != 0:
            print(f"the unpatched copy fails {' '.join(files)}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
            return 1
        print(f"unpatched copy passes ({time.perf_counter() - started:.1f} s)")
        for name, (module, text, wrong, tests) in FAULTS.items():
            fresh_copy(workdir)
            path = workdir / "src" / "powerplan" / module
            source = path.read_text(encoding="utf-8")
            if source.count(text) != 1:
                print(f"STALE     {name}: {text!r} occurs {source.count(text)} times in {module}")
                ok = False
                continue
            path.write_text(source.replace(text, wrong), encoding="utf-8")
            started = time.perf_counter()
            proc = pytest(workdir, tests)
            took = time.perf_counter() - started
            if proc.returncode == 1:  # a test failed
                failed = next((line for line in proc.stdout.splitlines() if line.startswith("FAILED")), "")
                print(f"caught    {name} ({took:.1f} s) {failed}")
            else:
                verdict = "SURVIVED" if proc.returncode == 0 else f"ERROR {proc.returncode}"
                print(f"{verdict:<9} {name} ({took:.1f} s)\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
