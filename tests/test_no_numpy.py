"""The CLI's planning commands run in a process where numpy cannot be imported.

Each command runs in a child process that blocks ``import numpy`` before it
imports ``powerplan.cli``; its stdout and output files must match the
outputs recorded in ``tests/data`` byte for byte.
"""

import os
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


def run_without_numpy(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", BLOCKED, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=60
    )


def readme_select_block() -> str:
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("policy=ours")
    end = next(k for k in range(start, len(lines)) if lines[k].startswith("feasible_count="))
    return "\n".join(lines[start : end + 1]) + "\n"


PROFILE_B8 = ["--profile", "profile_b8_b32.csv", "--relation", "relation_b8_b32.csv"]
COMMANDS = {
    "select": (
        ["select", "--profile", "profile_b64_b128.csv", "--relation", "relation_uniform_b64_b128.csv",
         "--p-max", "5.0"],
        None,
    ),
    "compare": (
        ["compare", *PROFILE_B8, "--counts", "counts_b8_b32.csv", "--p-max", "4.5", "7.0", "unlimited",
         "--safe-freqs", "safe_freqs_b8_b32.csv"],
        EXPECTED / "compare.out",
    ),
    "sweep": (
        ["sweep", *PROFILE_B8, "--p-max-min", "3.5", "--p-max-max", "8.0", "--step", "0.5"],
        EXPECTED / "sweep.out",
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


def test_ingest_matches_golden_profile(tmp_path):
    points = [f"b{b}_f{f}" for b in (16, 32) for f in (307, 614)]
    out = tmp_path / "profile.csv"
    args = (
        ["ingest", "--timing", *(f"timing_{p}.csv" for p in points)]
        + ["--power", *(f"power_{p}.csv" for p in points)]
        + ["--s", "4096", "--model-id", "bench-cnn", "--out", str(out)]
    )
    proc = run_without_numpy(args, cwd=DATA)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"wrote {out}: 2x2 grid, model_id=bench-cnn\n"
    assert out.read_bytes() == (DATA / "golden_profile.csv").read_bytes()

