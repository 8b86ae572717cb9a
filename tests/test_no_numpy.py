"""Every CLI command runs in a process where numpy cannot be imported.

Each command runs in a child process that blocks ``import numpy`` before it
imports ``powerplan.cli``; its stdout and output files must match the
outputs recorded in ``tests/data`` byte for byte.  The README's library
example and a profile's repr run the same way, and the functions the README
lists are the package's.  A ``select`` run also leaves out numpy and the
standard modules that would add to every CLI start-up.
"""

import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import powerplan

SRC = Path(powerplan.__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
EXPECTED = DATA / "expected"

BLOCKED = (
    "import sys; sys.modules['numpy'] = None; import powerplan.cli; "
    "sys.exit(powerplan.cli.main(sys.argv[1:]))"
)


def run_child(args, cwd, code, flags=()):
    """Run ``code`` in a child interpreter started with ``flags``, with ``args`` as its argv."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=60
    )


def run_without_numpy(args, cwd, code=BLOCKED):
    return run_child(args, cwd, code)


def readme_lines() -> list[str]:
    return (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()


def readme_select_block() -> str:
    lines = readme_lines()
    start = lines.index("policy=ours")
    end = next(k for k in range(start, len(lines)) if lines[k].startswith("feasible_count="))
    return "\n".join(lines[start : end + 1]) + "\n"


PROFILE_B8 = ["--profile", "profile_b8_b32.csv", "--relation", "relation_b8_b32.csv"]
# The same profile without its avg_w column: every energy cell is empty.
NO_AVG_B8 = ["--profile", "profile_noavg_b8_b32.csv", "--relation", "relation_b8_b32.csv"]
COUNTS_CAPS = ["--counts", "counts_b8_b32.csv", "--p-max", "4.5", "7.0", "unlimited"]
# A key's CSV is recorded in EXPECTED / f"{key}.csv"; a stdout of None is the README's select block.
COMMANDS = {
    "select": (
        ["select", "--profile", "profile_b64_b128.csv", "--relation", "relation_uniform_b64_b128.csv",
         "--p-max", "5.0"],
        None,
    ),
    "select_no_avg": (["select", *NO_AVG_B8, "--p-max", "5.0"], EXPECTED / "select_no_avg.out"),
    "compare": (
        ["compare", *PROFILE_B8, *COUNTS_CAPS, "--safe-freqs", "safe_freqs_b8_b32.csv"],
        EXPECTED / "compare.out",
    ),
    # ours and fastest fit nothing under 1.0 W; baseline1 and baseline2 trust the safe table.
    "compare_infeasible": (
        ["compare", *PROFILE_B8, "--counts", "counts_b8_b32.csv", "--p-max", "1.0", "4.5",
         "--safe-freqs", "safe_freqs_low_b8_b32.csv"],
        EXPECTED / "compare_infeasible.out",
    ),
    "compare_no_counts": (
        ["compare", *PROFILE_B8, "--p-max", "4.5", "7.0", "unlimited", "--safe-freqs", "safe_freqs_b8_b32.csv"],
        EXPECTED / "compare_no_counts.out",
    ),
    "compare_no_avg": (
        ["compare", *NO_AVG_B8, *COUNTS_CAPS, "--safe-freqs", "safe_freqs_b8_b32.csv"],
        EXPECTED / "compare_no_avg.out",
    ),
    "sweep": (
        ["sweep", *PROFILE_B8, "--p-max-min", "3.5", "--p-max-max", "8.0", "--step", "0.5"],
        EXPECTED / "sweep.out",
    ),
    "sweep_no_avg": (
        ["sweep", *NO_AVG_B8, "--p-max-min", "3.5", "--p-max-max", "8.0", "--step", "0.5"],
        EXPECTED / "sweep_no_avg.out",
    ),
    "sensitivity": (
        ["sensitivity", "--profile", "profile_b8_b32.csv", "--relation", "relation_b8_b32.csv",
         "relation_flat_b8_b32.csv", "--counts", "counts_b8_b32.csv", "counts_steep_b8_b32.csv",
         "--p-max", "4.5", "7.0", "unlimited"],
        EXPECTED / "sensitivity.out",
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_planning_command_matches_recorded_output(command, tmp_path):
    args, stdout_file = COMMANDS[command]
    csv_path = tmp_path / f"{command}.csv"
    proc = run_without_numpy(args + ["--csv", str(csv_path)], cwd=DATA)
    assert (proc.returncode, proc.stderr) == (0, "")
    expected = readme_select_block() if stdout_file is None else stdout_file.read_text(encoding="utf-8")
    assert proc.stdout == expected
    assert csv_path.read_bytes() == (EXPECTED / f"{command}.csv").read_bytes()


def run_ingest_without_numpy(options, tmp_path):
    """Ingest the four committed logs with ``options``; the profile file's bytes."""
    points = [f"b{b}_f{f}" for b in (16, 32) for f in (307, 614)]
    out = tmp_path / "profile.csv"
    args = (
        ["ingest", "--timing", *(f"timing_{p}.csv" for p in points)]
        + ["--power", *(f"power_{p}.csv" for p in points)]
        + ["--s", "4096", "--model-id", "bench-cnn", *options, "--out", str(out)]
    )
    proc = run_without_numpy(args, cwd=DATA)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"wrote {out}: 2x2 grid, model_id=bench-cnn\n"
    return out.read_bytes()


def test_ingest_matches_golden_profile(tmp_path):
    assert run_ingest_without_numpy([], tmp_path) == (DATA / "golden_profile.csv").read_bytes()


def test_ingest_peak_percentile_matches_recorded_profile(tmp_path):
    profile = run_ingest_without_numpy(["--peak-percentile", "90"], tmp_path)
    assert profile == (EXPECTED / "ingest_p90.csv").read_bytes()


def readme_library_block() -> str:
    lines = readme_lines()
    start = lines.index("```python") + 1
    return "\n".join(lines[start : lines.index("```", start)]) + "\n"


def test_readme_library_example_runs(tmp_path):
    shutil.copyfile(DATA / "profile_b8_b32.csv", tmp_path / "profile.csv")
    # The block's last line is an expression; the child prints the selection it made.
    code = (
        "import sys; sys.modules['numpy'] = None; namespace = {}; "
        "exec(compile(sys.argv[1], 'README.md', 'exec'), namespace); "
        "print(namespace['sel'].batch_size, namespace['sel'].frequency_mhz)"
    )
    proc = run_without_numpy([readme_library_block()], cwd=tmp_path, code=code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "8 614.0\n"


def test_readme_key_operations_are_the_public_functions():
    lines = readme_lines()
    start = next(k for k, line in enumerate(lines) if line.startswith("Key operations"))
    end = lines.index("", start + 2)  # the blank line that ends the list
    listed = re.findall(r"`([a-z0-9_]+)`", "\n".join(lines[start:end]))
    public = [name for name in powerplan.__all__ if inspect.isfunction(getattr(powerplan, name))]
    assert sorted(listed) == sorted(public)


def test_profile_repr_needs_no_numpy():
    # The repr renders the rows, never the ndarray views, and evaluates back to an equal profile.
    code = (
        "import sys; sys.modules['numpy'] = None; import powerplan as pp; "
        "profile = pp.load_profile(open('profile_b8_b32.csv').read()); text = repr(profile); "
        "assert eval(text, {'DeviceProfile': pp.DeviceProfile}) == profile; print(text)"
    )
    proc = run_without_numpy([], cwd=DATA, code=code)
    assert (proc.returncode, proc.stderr) == (0, "")
    profile = powerplan.load_profile((DATA / "profile_b8_b32.csv").read_text(encoding="utf-8"))
    assert proc.stdout == repr(profile) + "\n"
    assert proc.stdout.startswith("DeviceProfile(model_id='edge-cnn-small', batch_sizes=(8, 32), ")


# Each would add to every CLI start-up: numpy serves only the ndarray views,
# the value types are plain slotted classes rather than dataclasses or named
# tuples, csv is imported for --csv output and pathlib by sensitivity alone.
SLOW_IMPORTS = ("numpy", "dataclasses", "inspect", "csv", "typing", "pathlib")
# argparse, with re and the gettext, locale and shutil it loads, serves only
# help, errors and an argv the plain reader leaves alone.
ARGPARSE_IMPORTS = ("argparse", "re", "gettext", "locale", "shutil")


def test_select_run_leaves_out_slow_imports():
    # Judged against what the interpreter had loaded before powerplan.cli; numpy
    # is not blocked, so any import of it shows.  A site module may load typing,
    # pathlib or argparse's modules itself, so the run is repeated without site
    # (-S), where argparse's modules are rejected too.
    args, _ = COMMANDS["select"]
    for flags, rejected in (([], SLOW_IMPORTS), (["-S"], SLOW_IMPORTS + ARGPARSE_IMPORTS)):
        code = (
            "import sys; before = set(sys.modules); import powerplan.cli; status = powerplan.cli.main(sys.argv[1:]); "
            f"print(sorted(set({rejected!r}) & (set(sys.modules) - before)), file=sys.stderr); sys.exit(status)"
        )
        proc = run_child(args, cwd=DATA, code=code, flags=flags)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "[]\n", readme_select_block())
