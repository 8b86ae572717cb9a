"""Plant one-line faults in a copy of the sources and check that the tests catch each.

Run from the repository root:

    python3 tools/plant_faults.py

Each fault replaces one piece of one line under ``src/powerplan`` with a
wrong one.  For each, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, plants the fault there and
runs the fault's test files (or node ids, where a whole file would take
too long) with ``pytest -x``.  A fault is caught when those tests fail.
The script first runs every listed test file on the unpatched copy, which
must pass.  It exits 1 if the copy fails, if a fault's text no longer
occurs exactly once, or if any fault survives.

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

KERNEL_TESTS = ("tests/test_report.py", "tests/test_core.py", "tests/test_cli.py")

# name: (file under src/powerplan, text, its faulty replacement, test files or node ids that must catch it)
FAULTS = {
    "bound without the tie margin": (
        "core.py", "bisect_right(sorted_lows, guess * _PRUNE_SLACK)", "bisect_right(sorted_lows, guess)",
        KERNEL_TESTS,
    ),
    "bound from the first column": (
        "core.py", "else row[-1] * m for row, m in", "else row[0] * m for row, m in", KERNEL_TESTS,
    ),
    "warm start kept after it leaves the prefix": ("core.py", "if w >= n:", "if w >= reach:", KERNEL_TESTS),
    "overflowing rows pruned like the others": (
        "core.py", "lows = [0.0 if row[0] * m == math.inf else row[-1] * m", "lows = [row[-1] * m", KERNEL_TESTS,
    ),
    "peak at the cap fits": (
        "core.py", "cols = [bisect_left(power[i], p_max) - 1", "cols = [bisect_right(power[i], p_max) - 1",
        KERNEL_TESTS,
    ),
    "ties go to the smaller batch": ("core.py", "k = _last_near_min(tts)", "k = tts.index(min(tts))", KERNEL_TESTS),
    "energy from peak power": (
        "core.py", "return profile.avg_power_rows[i][j] * tt", "return profile.power_rows[i][j] * tt",
        ("tests/test_report.py", "tests/test_baselines.py"),
    ),
    "sweep ladder one cap short": (
        "report.py", "range(int(math.floor(n_steps)) + 1)", "range(int(math.floor(n_steps)))",
        ("tests/test_report.py",),
    ),
    "smaller batch resumes at the lowest frequency": (
        "ingest.py", "        j = start\n", "        j = 0\n", ("tests/test_ingest.py::TestProfilingSchedule",),
    ),
    "zero duration accepted": ("ingest.py", "if duration <= 0:", "if duration < 0:", ("tests/test_ingest.py",)),
    "line numbers off by one": (
        "ingest.py", "enumerate(lines, start=1)", "enumerate(lines, start=0)", ("tests/test_ingest.py",),
    ),
    "warm-up durations kept": (
        "ingest.py", "return self.minibatch_durations[self.warmup_discarded :]", "return self.minibatch_durations",
        ("tests/test_ingest.py",),
    ),
    "percentile lerp from the lower end only": (
        "ingest.py", "return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t", "return a + (b - a) * t",
        ("tests/test_ingest.py",),
    ),
    "no tie tolerance": ("core.py", "TIE_REL_TOL = 1e-9", "TIE_REL_TOL = 0.0", KERNEL_TESTS),
    "fastest pass planned on the relation": (
        "report.py", 'passes["fastest"] = _count_picks(profile, true_counts, p_maxes)',
        'passes["fastest"] = _count_picks(profile, r.entries, p_maxes)', ("tests/test_report.py",),
    ),
    "comparison picks against the caps unsorted": (
        "report.py", "p_maxes = [cap.p_max for cap in ordered]", "p_maxes = [cap.p_max for cap in caps]",
        ("tests/test_report.py",),
    ),
    "baseline candidate sets swapped": (
        "baselines.py", 'first = 0 if policy_tag == "baseline2"', 'first = 0 if policy_tag == "baseline1"',
        ("tests/test_baselines.py", "tests/test_report.py"),
    ),
    "baseline ties go to the smaller batch": (
        "baselines.py", "k = _last_near_min(ratios)", "k = ratios.index(min(ratios))", ("tests/test_baselines.py",),
    ),
    "temporary file left behind": ("cli.py", "        os.unlink(tmp)\n", "        pass\n", ("tests/test_cli.py",)),
    "sensitivity entry below the tied fastest kept": (
        "report.py", "if realized > fastest_tt:", "if True:", ("tests/test_report.py",),
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
        "report.py", "if not n_steps < MAX_CAP_LADDER:", "if not n_steps <= MAX_CAP_LADDER:", ("tests/test_report.py",),
    ),
    "percentile midpoint lerped from the lower end": (
        "ingest.py", "if t >= 0.5 else", "if t > 0.5 else",
        ("tests/test_ingest.py::TestAggregatePoint::test_peak_percentile_is_numpys_bit_for_bit",),
    ),
    "relation's largest ratio only near 1": (
        "core.py", "any(r == 1.0 for r in clean.values())", "any(r >= 0.999 for r in clean.values())",
        ("tests/test_ingest.py::TestRelationAndCountsFiles",),
    ),
    "repeated axis value takes the fast path": (
        "ingest.py", "and (len(row_start), len(freq_pos)) == shape", "and True",
        ("tests/test_ingest.py::TestProfilePersistence",),
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
    files = sorted({f.partition("::")[0] for *_, tests in FAULTS.values() for f in tests})
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
