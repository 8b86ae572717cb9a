import io
import math
import os
import re
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerplan as pp
from powerplan import cli
from powerplan.cli import COMMANDS, _read_plain, _replace_file, _write_csv, build_parser, main
from powerplan.core import EntriesError
from synth_corpus import (
    format_counts_file, infinite_energy_profile, out_of_range_pick_profile, random_counts, random_profile,
    random_relation,
)

CHUNK = cli._READ_CHUNK  # bytes per raw read of an input
FLIP_CAPS = ["4.5", "7.0", "unlimited"]
DATA = Path(__file__).parent / "data"


def ingest_args(data_dir, out_path):
    timing = [str(data_dir / f"timing_b{b}_f{f}.csv") for b in (16, 32) for f in (307, 614)]
    power = [str(data_dir / f"power_b{b}_f{f}.csv") for b in (16, 32) for f in (307, 614)]
    return [
        "ingest",
        "--timing", *timing,
        "--power", *power,
        "--s", "4096",
        "--model-id", "bench-cnn",
        "--out", str(out_path),
    ]


class TestIngestCommand:
    def test_golden_profile_reproduced_byte_exact(self, data_dir, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(ingest_args(data_dir, out)) == 0
        assert out.read_bytes() == (data_dir / "golden_profile.csv").read_bytes()

    def test_missing_inputs_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--s", "4096", "--model-id", "x", "--out", "p.csv"])
        assert exc.value.code == 2

    def test_unpaired_logs_is_usage_error(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal width
        usage = build_parser("ingest").format_usage()
        args = ingest_args(data_dir, tmp_path / "p.csv")
        timing, power = args.index("--timing"), args.index("--power")
        # One timing log dropped, then two timing logs and one power log.
        for argv in (args[:2] + args[3:], args[: timing + 3] + args[power : power + 2] + args[power + 5 :]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr() == ("", f"{usage}powerplan ingest: error: need one --power log per --timing log\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--m", "0", "--m must be at least 1"),
            ("--warmup", "-1", "--warmup must be non-negative"),
            ("--s", "0", "--s must be at least 1"),
            ("--s", "-4096", "--s must be at least 1"),
            ("--peak-percentile", "0", "--peak-percentile must lie in (0, 100]"),
            ("--peak-percentile", "100.5", "--peak-percentile must lie in (0, 100]"),
            ("--peak-percentile", "-5", "--peak-percentile must lie in (0, 100]"),
            ("--peak-percentile", "nan", "--peak-percentile must lie in (0, 100]"),
            ("--peak-percentile", "inf", "--peak-percentile must lie in (0, 100]"),
        ],
    )
    def test_out_of_range_option_is_usage_error_before_any_read(self, tmp_path, capsys, option, value, message):
        absent = [str(tmp_path / "timing_absent.csv"), str(tmp_path / "power_absent.csv")]
        args = ["ingest", "--timing", absent[0], "--power", absent[1], "--s", "4096", "--model-id", "x"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "p.csv"), option, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_invalid_file_names_file_and_line(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad_power.csv"
        bad.write_text("0.0,4000\nnot-a-sample\n", encoding="utf-8")
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args[args.index(str(data_dir / "power_b16_f307.csv"))] = str(bad)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "bad_power.csv" in err
        assert "line 2" in err

    @pytest.mark.parametrize(
        "log, text, line",
        [
            ("power_b16_f307.csv", "0.0,4000\nnan,4100\n2.0,4200\n", "nan,4100"),
            ("power_b16_f307.csv", "0.0,4000\n1.0,nan\n2.0,4200\n", "1.0,nan"),
            ("timing_b16_f307.csv", "b=16,f_mhz=307.0,warmup=0\nnan\n0.2\n", "nan"),
        ],
    )
    def test_non_finite_value_names_file_and_line(self, data_dir, tmp_path, capsys, log, text, line):
        bad = tmp_path / log
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "p.csv"
        args = ingest_args(data_dir, out)
        args[args.index(str(data_dir / log))] = str(bad)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {bad}: line 2: non-finite value in {line!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_header_frequency_names_file_and_line(self, data_dir, tmp_path, capsys, token):
        bad = tmp_path / "timing_b16_f307.csv"
        header = f"b=16,f_mhz={token},warmup=1"
        bad.write_text(f"{header}\n0.5\n0.2\n", encoding="utf-8")
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args[args.index(str(data_dir / "timing_b16_f307.csv"))] = str(bad)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {bad}: line 1: invalid header values in {header!r}\n"

    @pytest.mark.parametrize(
        "log, text, message",
        [
            ("power_b16_f307.csv", "# no sample\n", "empty power trace"),
            ("power_b16_f307.csv", "0.0,1e308\n1.0,1e308\n", "power samples sum past the float range"),
            ("power_b16_f307.csv", "0.0,0\n1.0,0\n2.0,0\n", "peak power must be positive, got 0.0 W"),
            ("power_b16_f307.csv", "0,1e-320\n1,0\n2,0\n3,0\n4,0\n5,0\n", "average power must be positive, got 0.0 W"),
            ("timing_b16_f307.csv", "b=16,f_mhz=307.0,warmup=0\n1e308\n1e308\n",
             "retained mini-batch durations sum past the float range"),
        ],
    )
    def test_log_invalid_as_a_whole_names_file(self, data_dir, tmp_path, capsys, log, text, message):
        bad = tmp_path / log
        bad.write_text(text, encoding="utf-8")
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args[args.index(str(data_dir / log))] = str(bad)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_overflowing_t_s_names_timing_log(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "timing_b16_f307.csv"
        bad.write_text("b=16,f_mhz=307.0,warmup=1\n0.5\n1e307\n", encoding="utf-8")
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args[args.index(str(data_dir / "timing_b16_f307.csv"))] = str(bad)
        assert main(args) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: T_s out of range: mean duration 1e+307 s times 4096 / b=16 is inf s\n"
        )

    def test_unwritable_out_names_target(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(ingest_args(data_dir, "nodir/o.csv")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: nodir/o.csv: ") and ".tmp" not in err
        assert os.listdir(tmp_path) == []

    def test_unencodable_model_id_keeps_existing_out(self, data_dir, tmp_path, capsys):
        out = tmp_path / "p.csv"
        out.write_bytes(b"previous\n")
        args = ingest_args(data_dir, out)
        args[args.index("--model-id") + 1] = "a\udcffb"  # how argv decodes a byte that is not UTF-8
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {out}: cannot write as UTF-8: surrogates not allowed\n"
        assert out.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_failed_run_keeps_existing_out(self, data_dir, tmp_path, capsys):
        out = tmp_path / "p.csv"
        out.write_bytes(b"previous\n")
        args = ingest_args(data_dir, out)
        args[args.index("--model-id") + 1] = "a\x0bb"  # save_profile rejects it
        assert main(args) == 3
        assert "newlines" in capsys.readouterr().err
        assert out.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_replaced_out_keeps_its_mode(self, data_dir, tmp_path):
        out = tmp_path / "p.csv"
        out.write_bytes(b"previous\n")
        out.chmod(0o640)
        assert main(ingest_args(data_dir, out)) == 0
        assert out.read_bytes() == (data_dir / "golden_profile.csv").read_bytes()
        assert out.stat().st_mode & 0o777 == 0o640

    def test_incomplete_grid_rejected(self, data_dir, tmp_path, capsys):
        args = ingest_args(data_dir, tmp_path / "p.csv")
        # drop one (timing, power) pair: the 2x2 grid now has a hole
        ti = args.index("--timing")
        pi = args.index("--power")
        del args[pi + 4]
        del args[ti + 4]
        assert main(args) == 3
        assert "missing cell" in capsys.readouterr().err

    def test_grid_hole_names_the_logs_of_its_axes(self, data_dir, tmp_path, capsys):
        # One header moved off the 307 MHz column: (16, 307.0) becomes a hole.
        moved = tmp_path / "timing_b16_f307.csv"
        text = (data_dir / "timing_b16_f307.csv").read_text(encoding="utf-8")
        moved.write_text(text.replace("f_mhz=307.0", "f_mhz=307.5", 1), encoding="utf-8")
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args[args.index("--timing") + 1] = str(moved)
        assert main(args) == 3
        assert capsys.readouterr().err == (
            f"error: missing cell (16, 307.0): grid must be complete; batch size 16 first from {moved}, "
            f"frequency 307.0 first from {data_dir / 'timing_b32_f307.csv'}\n"
        )

    def test_slow_timing_log_names_both_cells_of_its_row(self, data_dir, tmp_path, capsys):
        # Durations x10 at (16, 614.0): T_s now rises from 307 to 614 MHz.
        slow = tmp_path / "timing_b16_f614.csv"
        lines = (data_dir / "timing_b16_f614.csv").read_text(encoding="utf-8").splitlines()
        slow.write_text("\n".join(lines[:1] + [repr(float(x) * 10) for x in lines[1:]]) + "\n", encoding="utf-8")
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args[args.index("--timing") + 2] = str(slow)
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "error: time table increases with frequency for batch size 16; noisy measurement, re-profile this row; "
            f"cells (16, 307.0) from {data_dir / 'timing_b16_f307.csv'} and (16, 614.0) from {slow}\n"
        )
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "swap, fault, cells",
        [
            # The b16 and b32 power logs swapped at 614 MHz: peak falls with batch size there.
            ((1, 3), "decreases with batch size at frequency 614.0; noisy measurement, re-profile this column",
             [((16, 614.0), 3), ((32, 614.0), 1)]),
            # The b16 power logs swapped between 307 and 614 MHz: peak falls with frequency.
            ((0, 1), "decreases with frequency for batch size 16; noisy measurement, re-profile this row",
             [((16, 307.0), 1), ((16, 614.0), 0)]),
        ],
        ids=["batch", "frequency"],
    )
    def test_swapped_power_logs_are_named(self, data_dir, tmp_path, capsys, swap, fault, cells):
        args = ingest_args(data_dir, tmp_path / "p.csv")
        p = args.index("--power") + 1
        logs = args[p : p + 4]
        a, b = swap
        args[p + a], args[p + b] = logs[b], logs[a]
        assert main(args) == 3
        named = " and ".join(f"{cell} from {logs[k]}" for cell, k in cells)
        assert capsys.readouterr().err == f"error: power table {fault}; cells {named}\n"

    def test_duplicate_point_names_timing_log(self, data_dir, tmp_path, capsys):
        again = tmp_path / "timing_again.csv"
        again.write_bytes((data_dir / "timing_b32_f614.csv").read_bytes())
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args.insert(args.index("--power"), str(again))
        args.insert(args.index("--s"), str(data_dir / "power_b32_f614.csv"))
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "timing_again.csv: duplicate cell (32, 614.0)" in err

    def test_warmup_and_m_overrides_change_output(self, data_dir, tmp_path):
        base = tmp_path / "base.csv"
        tweaked = tmp_path / "tweaked.csv"
        assert main(ingest_args(data_dir, base)) == 0
        assert main(ingest_args(data_dir, tweaked) + ["--warmup", "0", "--m", "1"]) == 0
        assert base.read_bytes() != tweaked.read_bytes()
        prof = pp.load_profile(tweaked.read_text())
        # warmup 0, m 1: only the first (slow) mini-batch survives per point
        assert prof.time_table[0, 0] == 0.5 * 4096 / 16


class TestSelectCommand:
    def test_joint_profile_under_five_watts(self, data_dir, capsys):
        rc = main([
            "select",
            "--profile", str(data_dir / "profile_b64_b128.csv"),
            "--relation", str(data_dir / "relation_uniform_b64_b128.csv"),
            "--p-max", "5.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch_size=64" in out
        assert "frequency_mhz=460.0" in out
        assert "policy=ours" in out

    def test_unlimited_cap(self, data_dir, capsys):
        rc = main([
            "select",
            "--profile", str(data_dir / "profile_b64_b128.csv"),
            "--relation", str(data_dir / "relation_uniform_b64_b128.csv"),
            "--p-max", "unlimited",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # at max frequency everywhere, b=128 has the lower T_s
        assert "batch_size=128" in out
        assert "frequency_mhz=921.0" in out

    def test_infeasible_cap_exits_4(self, data_dir, capsys):
        rc = main([
            "select",
            "--profile", str(data_dir / "profile_b64_b128.csv"),
            "--relation", str(data_dir / "relation_uniform_b64_b128.csv"),
            "--p-max", "3.0",
        ])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: no configuration satisfies power cap 3.0 W; the lowest peak in the profile is 4.0 W\n"
        )

    def test_missing_profile_exits_3(self, data_dir, capsys):
        rc = main([
            "select",
            "--profile", "does-not-exist.csv",
            "--relation", str(data_dir / "relation_uniform_b64_b128.csv"),
            "--p-max", "5.0",
        ])
        assert rc == 3

    def test_undecodable_profile_exits_3(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"model_id,s\n\xff\n")
        rc = main([
            "select",
            "--profile", str(bad),
            "--relation", str(data_dir / "relation_uniform_b64_b128.csv"),
            "--p-max", "5.0",
        ])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 at line 2, byte 11\n"

    def test_crlf_files_read_as_lf(self, data_dir, tmp_path, capsys):
        def select(profile, relation):
            assert main(["select", "--profile", str(profile), "--relation", str(relation), "--p-max", "5.0"]) == 0
            return capsys.readouterr().out

        files = []
        for name in ("profile_b64_b128.csv", "relation_uniform_b64_b128.csv"):
            files.append(tmp_path / name)
            files[-1].write_bytes((data_dir / name).read_bytes().replace(b"\n", b"\r\n"))
        assert select(*files) == select(*(data_dir / f.name for f in files))

    def test_matches_library_exactly_on_random_profile(self, tmp_path, capsys):
        rng = np.random.default_rng(90)
        profile, _ = random_profile(rng)
        r = random_relation(rng, profile.batch_sizes)
        cap = pp.PowerCap(float(np.quantile(profile.power_table, 0.7)))
        profile_path = tmp_path / "synth_profile.csv"
        profile_path.write_text(pp.save_profile(profile), encoding="utf-8")
        relation_path = tmp_path / "synth_relation.csv"
        relation_path.write_text(pp.format_relation_file(r), encoding="utf-8")

        rc = main([
            "select",
            "--profile", str(profile_path),
            "--relation", str(relation_path),
            "--p-max", repr(cap.p_max),
        ])
        assert rc == 0
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        sel = pp.select_configuration_fast(profile, r, cap)
        assert int(out["batch_size"]) == sel.batch_size
        assert float(out["frequency_mhz"]) == sel.frequency_mhz
        assert float(out["estimated_tt_acc_s"]) == sel.estimated_tt_acc
        assert float(out["estimated_energy_j"]) == sel.estimated_energy
        assert int(out["feasible_count"]) == sel.feasible_count


@pytest.mark.parametrize(
    "text, message",
    [
        ("source_id,x\n8,1.0\n9,0.5\n", "relation vector names batch sizes not in profile: [9]"),
        ("32,1.0\n", "relation vector incomplete: no entry for batch size 8"),
    ],
)
@pytest.mark.parametrize(
    "command", [["select", "--p-max", "7.0"], ["sweep", "--p-max-min", "3.5", "--p-max-max", "8.0", "--step", "0.5"]]
)
def test_relation_at_odds_with_profile_names_relation(data_dir, tmp_path, capsys, command, text, message):
    relation = tmp_path / "relation.csv"
    relation.write_text(text, encoding="utf-8")
    args = [command[0], "--profile", str(data_dir / "profile_b8_b32.csv"), "--relation", str(relation), *command[1:]]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {relation}: {message}\n"


class TestCompareCommand:
    def compare_args(self, data_dir, extra=()):
        return [
            "compare",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"),
            "--counts", str(data_dir / "counts_b8_b32.csv"),
            "--p-max", *FLIP_CAPS,
            "--safe-freqs", str(data_dir / "safe_freqs_b8_b32.csv"),
        ] + list(extra)

    def test_ours_switches_batch_across_caps(self, data_dir, tmp_path, capsys):
        csv_path = tmp_path / "compare.csv"
        rc = main(self.compare_args(data_dir, ["--csv", str(csv_path)]))
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        ours = [line.split(",") for line in lines if line.split(",")[1] == "ours"]
        assert [row[2] for row in ours] == ["8", "32", "32"]
        fastest = [line.split(",") for line in lines if line.split(",")[1] == "fastest"]
        assert [row[2] for row in fastest] == ["8", "32", "32"]

    def test_report_matches_library(self, data_dir, tmp_path):
        csv_path = tmp_path / "compare.csv"
        assert main(self.compare_args(data_dir, ["--csv", str(csv_path)])) == 0
        profile = pp.load_profile((data_dir / "profile_b8_b32.csv").read_text())
        r = pp.parse_relation_file((data_dir / "relation_b8_b32.csv").read_text())
        counts, _ = pp.parse_counts_file((data_dir / "counts_b8_b32.csv").read_text())
        safe = pp.parse_safe_table((data_dir / "safe_freqs_b8_b32.csv").read_text())
        caps = [pp.PowerCap.parse(c) for c in FLIP_CAPS]
        report = pp.build_comparison(profile, r, caps, safe, true_counts=counts)
        from powerplan.report import comparison_csv_rows

        expected = "\n".join(",".join(row) for row in comparison_csv_rows(report)) + "\n"
        assert csv_path.read_text() == expected

    def test_byte_identical_between_runs(self, data_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.compare_args(data_dir, ["--csv", str(a)])) == 0
        assert main(self.compare_args(data_dir, ["--csv", str(b)])) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_count_names_counts_file(self, data_dir, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("8,inf\n32,15\n")
        args = self.compare_args(data_dir)
        args[args.index("--counts") + 1] = str(counts)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {counts}: invalid count for batch size 8: inf\n"

    def test_bad_safe_table_names_file_and_line(self, data_dir, tmp_path, capsys):
        safe = tmp_path / "safe.csv"
        safe.write_text("4.5,307.0\n4.5;7\n")
        args = self.compare_args(data_dir)
        args[args.index("--safe-freqs") + 1] = str(safe)
        assert main(args) == 3
        assert capsys.readouterr().err.startswith(f"error: {safe}: line 2:")

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_safe_frequency_names_file_and_line(self, data_dir, tmp_path, capsys, token):
        safe = tmp_path / "safe.csv"
        safe.write_text(f"5.0,{token}\n")
        args = self.compare_args(data_dir)
        args[args.index("--safe-freqs") + 1] = str(safe)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {safe}: line 1: non-finite frequency in '5.0,{token}'\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            # checked smallest cap first: 4.6 is missing, unlimited too
            ("4.5,307.0\n7.0,614.0\n", "safe-frequency table does not define cap 4.6"),
            ("4.6,300.0\n7.0,614.0\nunlimited,921.0\n", "frequency 300.0 MHz not in profile 'edge-cnn-small'"),
        ],
    )
    def test_safe_table_at_odds_with_caps_or_profile_names_table(self, data_dir, tmp_path, capsys, text, message):
        safe = tmp_path / "safe.csv"
        safe.write_text(text, encoding="utf-8")
        args = self.compare_args(data_dir)
        args[args.index("--safe-freqs") + 1] = str(safe)
        args[args.index("--p-max") + 1 : args.index("--safe-freqs")] = ["7.0", "4.6", "unlimited"]
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {safe}: {message}\n"

    def test_works_without_counts(self, data_dir, capsys):
        args = self.compare_args(data_dir)
        ci = args.index("--counts")
        del args[ci : ci + 2]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fastest" not in out


@pytest.mark.parametrize("command", ["compare", "sensitivity"])
def test_relation_with_batch_size_not_in_profile_names_relation(data_dir, tmp_path, capsys, command):
    # A valid relation, then one naming b=9, which profile_b8_b32.csv lacks.
    relation = tmp_path / "relation.csv"
    relation.write_text("source_id,x\n8,1.0\n9,0.5\n32,1.0\n", encoding="utf-8")
    args = [str(data_dir / tok) if (data_dir / tok).is_file() else tok for tok in FUZZ_ARGV[command]]
    args.insert(args.index("--relation") + 2, str(relation))
    if command == "compare":  # one relation only
        del args[args.index("--relation") + 1]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {relation}: relation vector names batch sizes not in profile: [9]\n"


@pytest.mark.parametrize("command", ["compare", "sensitivity"])
def test_counts_with_batch_size_not_in_profile_names_counts(data_dir, tmp_path, capsys, command):
    counts = tmp_path / "counts.csv"
    counts.write_text("8,10\n9,3\n32,15\n", encoding="utf-8")
    args = [str(data_dir / tok) if (data_dir / tok).is_file() else tok for tok in FUZZ_ARGV[command]]
    args[args.index("--counts") + 1] = str(counts)
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {counts}: true counts name batch sizes not in profile: [9]\n"


@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--relation", "32,1.0\n", "relation vector incomplete: no entry for batch size 8"),
        ("--counts", "32,15\n", "true counts incomplete: no entry for batch size 8"),
    ],
)
@pytest.mark.parametrize("command", ["compare", "sensitivity"])
def test_incomplete_relation_or_counts_names_its_file(data_dir, tmp_path, capsys, command, option, text, message):
    # Valid on its own, but batch size 8 is feasible under the first cap and the file lacks it.
    partial = tmp_path / "partial.csv"
    partial.write_text(text, encoding="utf-8")
    args = [str(data_dir / tok) if (data_dir / tok).is_file() else tok for tok in FUZZ_ARGV[command]]
    if command == "compare":  # one file per option
        args[args.index(option) + 1] = str(partial)
    else:  # the second of two files for the option
        args.insert(args.index(option) + 2, str(partial))
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {partial}: {message}\n")


@pytest.mark.parametrize("command", ["compare", "sensitivity"])
def test_counts_whose_estimate_overflows_names_its_file(data_dir, tmp_path, capsys, command):
    # Each count is valid on its own, but batch size 32's times 1e308 overflow.
    counts = tmp_path / "counts.csv"
    counts.write_text("8,10\n32,1e308\n", encoding="utf-8")
    args = [str(data_dir / tok) if (data_dir / tok).is_file() else tok for tok in FUZZ_ARGV[command]]
    args[args.index("--counts") + 1] = str(counts)
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {counts}: estimated time to accuracy must be positive and finite\n")


@pytest.mark.parametrize("command", ["compare", "sensitivity"])
def test_counts_whose_estimate_is_subnormal_names_its_file(data_dir, tmp_path, capsys, command):
    # Each count is valid on its own, but under 5 W batch size 32's fastest
    # estimate, 34.7 s at 460 MHz times 1e-320, is subnormal.
    counts = tmp_path / "counts.csv"
    counts.write_text("8,10\n32,1e-320\n", encoding="utf-8")
    args = [command, "--profile", str(data_dir / "profile_b8_b32.csv"), "--relation",
            str(data_dir / "relation_b8_b32.csv"), "--counts", str(counts), "--p-max", "5.0"]
    if command == "compare":
        args += ["--safe-freqs", str(data_dir / "safe_freqs_b8_b32.csv")]
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {counts}: estimated time to accuracy {34.7 * 1e-320!r} is subnormal\n")


@pytest.mark.parametrize(
    "ratio, message",
    [(1.0, "estimated energy must be positive"),
     (1e-120, f"estimated time to accuracy {1e-200 * 1e-120!r} is subnormal")],
)
@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_pick_out_of_range_names_the_relation_file(tmp_path, capsys, command, ratio, message):
    # Each file is valid on its own, but under the second cap the winning
    # pick's energy underflows to 0 W·s or its estimate is subnormal.
    profile, relation = tmp_path / "profile.csv", tmp_path / "relation.csv"
    profile.write_text(pp.save_profile(out_of_range_pick_profile()), encoding="utf-8")
    relation.write_text(f"8,1.0\n32,{ratio!r}\n", encoding="utf-8")
    args = [command, "--profile", str(profile), "--relation", str(relation)]
    if command == "sweep":
        args += ["--p-max-min", "2.2", "--p-max-max", "3.0", "--step", "0.8"]
    else:
        safe = tmp_path / "safe.csv"
        safe.write_text("2.2,300.0\n3.0,300.0\n", encoding="utf-8")
        args += ["--safe-freqs", str(safe), "--p-max", "2.2", "3.0"]
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {relation}: {message}\n")


@pytest.mark.parametrize("command", ["select", "sweep", "compare", "compare-realized"])
def test_infinite_energy_names_its_file(tmp_path, capsys, command):
    # Each file is valid on its own and every estimate is finite, but an
    # energy, at an average 1e300 W, is not: the pick's (5e8 s), or, with
    # counts, baseline 1's realized one (1e9 s at its safe 307 MHz).
    profile, relation, counts = tmp_path / "profile.csv", tmp_path / "relation.csv", tmp_path / "counts.csv"
    profile.write_text(pp.save_profile(infinite_energy_profile()), encoding="utf-8")
    relation.write_text("8,1.0\n32,0.5\n", encoding="utf-8")
    args = [command, "--profile", str(profile), "--relation", str(relation), "--p-max", "7.0"]
    named = relation
    if command == "sweep":
        args[-2:] = ["--p-max-min", "7.0", "--p-max-max", "7.0", "--step", "1.0"]
    elif command.startswith("compare"):
        safe = tmp_path / "safe.csv"
        safe.write_text("7.0,614.0\n", encoding="utf-8")
        args[0] = "compare"
        args += ["--safe-freqs", str(safe)]
        if command == "compare-realized":
            relation.write_text("8,1.0\n32,0.001\n", encoding="utf-8")
            safe.write_text("7.0,307.0\n", encoding="utf-8")
            counts.write_text("8,1.0\n32,0.1\n", encoding="utf-8")
            args += ["--counts", str(counts)]
            named = counts
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {named}: estimated energy must be finite\n")


RELATION_9 = "source_id,r9\n8,1.0\n9,0.5\n32,1.0\n"  # valid, and b=9 is not in profile_b8_b32.csv
COUNTS_9 = "8,10\n9,3\n32,15\n"
LACKS_4_6 = "4.5,307.0\n7.0,614.0\n"
# Faults between inputs that are each valid: the command, the texts of its files
# that replace FUZZ_ARGV's (per option, in argv order), its caps, the option and
# position of the file at fault, and the fault's text.
CROSS_FILE_FAULTS = {
    "compare-relation-key": ("compare", {"--relation": [RELATION_9]}, FLIP_CAPS, ("--relation", 0),
                             "relation vector names batch sizes not in profile: [9]"),
    "compare-counts-key": ("compare", {"--counts": [COUNTS_9]}, FLIP_CAPS, ("--counts", 0),
                           "true counts name batch sizes not in profile: [9]"),
    "compare-counts-incomplete": ("compare", {"--counts": ["32,15\n"]}, FLIP_CAPS, ("--counts", 0),
                                  "true counts incomplete: no entry for batch size 8"),
    "compare-counts-overflow": ("compare", {"--counts": ["8,10\n32,1e308\n"]}, FLIP_CAPS, ("--counts", 0),
                                "estimated time to accuracy must be positive and finite"),
    "compare-safe-cap": ("compare", {"--safe-freqs": [LACKS_4_6]}, ["7.0", "4.6"], ("--safe-freqs", 0),
                         "safe-frequency table does not define cap 4.6"),
    "compare-safe-off-axis": ("compare", {"--safe-freqs": ["4.6,300.0\n7.0,614.0\nunlimited,921.0\n"]},
                              ["7.0", "4.6", "unlimited"], ("--safe-freqs", 0),
                              "frequency 300.0 MHz not in profile 'edge-cnn-small'"),
    # Two faults: at the first cap, baseline 1's safe lookup comes before the relation.
    "compare-safe-before-relation": ("compare", {"--relation": [RELATION_9], "--safe-freqs": [LACKS_4_6]},
                                     ["4.6", "7.0"], ("--safe-freqs", 0),
                                     "safe-frequency table does not define cap 4.6"),
    "sensitivity-relation-incomplete": ("sensitivity", {"--relation": ["32,1.0\n"]}, ["4.5", "7.0"],
                                        ("--relation", 0), "relation vector incomplete: no entry for batch size 8"),
    "sensitivity-counts-overflow": ("sensitivity", {"--counts": ["8,10\n32,1e308\n"]}, ["4.5", "7.0"],
                                    ("--counts", 0), "estimated time to accuracy must be positive and finite"),
    # A cap under every peak: the counts are checked before the cap is found infeasible.
    "sensitivity-counts-key-at-an-infeasible-cap": (
        "sensitivity", {"--counts": [COUNTS_9]}, ["0.001"], ("--counts", 0),
        "true counts name batch sizes not in profile: [9]",
    ),
    # Two faults: every proxy's keys come before any target's.
    "sensitivity-relation-before-counts": ("sensitivity", {"--relation": [RELATION_9], "--counts": [COUNTS_9]},
                                           ["4.5", "7.0"], ("--relation", 0),
                                           "relation vector names batch sizes not in profile: [9]"),
    # Two faulty proxies: the first in id order, not in argv order, is named.
    "sensitivity-relations-in-id-order": (
        "sensitivity", {"--relation": ["source_id,zz\n8,1.0\n9,0.5\n", "source_id,aa\n8,1.0\n10,0.5\n"]},
        ["4.5"], ("--relation", 1), "relation vector names batch sizes not in profile: [10]",
    ),
}


def option_values(argv: list[str], option: str) -> list[str]:
    start = argv.index(option) + 1
    return argv[start : next((k for k in range(start, len(argv)) if argv[k].startswith("--")), len(argv))]


@pytest.mark.parametrize("case", sorted(CROSS_FILE_FAULTS))
def test_library_fault_carries_the_mapping_of_the_file_the_cli_names(data_dir, tmp_path, capsys, case):
    command, texts, caps, (option, position), message = CROSS_FILE_FAULTS[case]
    argv = [str(data_dir / tok) if (data_dir / tok).is_file() else tok for tok in FUZZ_ARGV[command]]
    for opt, contents in texts.items():
        paths = [tmp_path / f"{opt[2:]}{k}.csv" for k in range(len(contents))]
        for path, text in zip(paths, contents):
            path.write_text(text, encoding="utf-8")
        at = argv.index(opt) + 1
        argv[at : at + 1] = map(str, paths)  # FUZZ_ARGV gives each file option one file
    at = argv.index("--p-max")
    argv[at : at + 1 + len(option_values(argv, "--p-max"))] = ["--p-max", *caps]
    named = option_values(argv, option)[position]

    # The library, on the inputs as the CLI parses them.
    def read(opt, parse):
        return [parse(Path(path).read_text(encoding="utf-8")) for path in option_values(argv, opt)]

    profile = read("--profile", pp.load_profile)[0]
    relations, counts = read("--relation", pp.parse_relation_file), read("--counts", pp.parse_counts_file)
    mappings = dict(zip(option_values(argv, "--relation"), [rv.entries for rv in relations]))
    mappings.update(zip(option_values(argv, "--counts"), [c for c, _ in counts]))
    with pytest.raises(EntriesError) as exc:
        if command == "compare":
            safe = read("--safe-freqs", pp.parse_safe_table)[0]
            mappings[option_values(argv, "--safe-freqs")[0]] = safe.entries
            pp.build_comparison(profile, relations[0], list(map(pp.PowerCap.parse, caps)), safe, counts[0][0])
        else:
            stems = [Path(path).stem for path in option_values(argv, "--relation") + option_values(argv, "--counts")]
            proxies = {rv.source_id or stem: rv for rv, stem in zip(relations, stems)}
            targets = {tid or stem: c for (c, tid), stem in zip(counts, stems[len(relations) :])}
            for cap in sorted(map(pp.PowerCap.parse, caps), key=lambda c: c.p_max):
                pp.build_sensitivity(profile, proxies, targets, cap)
    assert str(exc.value) == message
    assert exc.value.entries is mappings[named]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {named}: {message}\n")


def test_padded_source_ids_print_as_unpadded(data_dir, tmp_path):
    relation_text = (data_dir / "relation_b8_b32.csv").read_text(encoding="utf-8")
    counts_text = (data_dir / "counts_b8_b32.csv").read_text(encoding="utf-8")
    outputs = []
    for pad in ("", " "):
        relation, counts = tmp_path / f"relation{pad!r}.csv", tmp_path / f"counts{pad!r}.csv"
        relation.write_text(relation_text.replace("source_id,", f"source_id,{pad}"), encoding="utf-8")
        counts.write_text(counts_text.replace("source_id,", f"source_id,{pad}"), encoding="utf-8")
        csv_path = tmp_path / f"sens{pad!r}.csv"
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([
                "sensitivity", "--profile", str(data_dir / "profile_b8_b32.csv"), "--relation", str(relation),
                "--counts", str(counts), "--p-max", "4.5", "--csv", str(csv_path),
            ]) == 0
        outputs.append((out.getvalue(), csv_path.read_text(encoding="utf-8")))
    assert outputs[1] == outputs[0]
    assert outputs[0][1].splitlines()[1] == "4.5,proxy-small,truth-small,0.0"


class TestSensitivityCommand:
    def test_self_proxy_zero_diagonal_in_csv(self, data_dir, tmp_path):
        csv_path = tmp_path / "sens.csv"
        rc = main([
            "sensitivity",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"),
            "--counts", str(data_dir / "counts_b8_b32.csv"),
            "--p-max", "4.5", "7.0",
            "--csv", str(csv_path),
        ])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "p_max_w,proxy_id,target_id,time_increase_pct"
        # the committed relation file is exactly the normalized committed counts
        assert lines[1] == "4.5,proxy-small,truth-small,0.0"
        assert lines[2] == "7.0,proxy-small,truth-small,0.0"

    def test_ids_fall_back_to_file_stems(self, data_dir, tmp_path):
        # One relation file without a source_id line, one counts file with an empty one.
        relation = tmp_path / "proxy_plain.csv"
        relation.write_text("8,0.6666666666666666\n32,1.0\n", encoding="utf-8")
        counts = tmp_path / "target_blank.csv"
        counts.write_text("source_id,\n8,10\n32,15\n", encoding="utf-8")
        csv_path = tmp_path / "sens.csv"
        assert main([
            "sensitivity",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"), str(relation),
            "--counts", str(counts), str(data_dir / "counts_b8_b32.csv"),
            "--p-max", "4.5",
            "--csv", str(csv_path),
        ]) == 0
        labels = [line.split(",")[1:3] for line in csv_path.read_text().splitlines()[1:]]
        assert labels == [
            ["proxy-small", "target_blank"],
            ["proxy-small", "truth-small"],
            ["proxy_plain", "target_blank"],
            ["proxy_plain", "truth-small"],
        ]

    def test_proxy_pick_inside_the_fastest_tie_is_zero(self, tmp_path, capsys):
        # The fastest configuration (32, 614.0) ties the proxy's pick (8, 614.0)
        # within TIE_REL_TOL but realizes 5e-9 s more.
        files = {
            "profile": "tie,100\n8,32\n307.0,614.0\n8,307.0,2.0,1.0\n8,614.0,1.0,2.0\n"
                       "32,307.0,2.0,1.5\n32,614.0,1.00000000005,3.0\n",
            "relation": "source_id,proxy\n8,0.1\n32,1.0\n",
            "counts": "source_id,truth\n8,100\n32,100\n",
        }
        argv = ["sensitivity", "--p-max", "10", "--csv", str(tmp_path / "sens.csv")]
        for option, text in files.items():
            (tmp_path / f"{option}.csv").write_text(text, encoding="utf-8")
            argv += [f"--{option}", str(tmp_path / f"{option}.csv")]
        assert main(argv) == 0
        assert capsys.readouterr() == ("p_max_w=10.0  truth\nproxy         0.0\n\n", "")
        csv_text = (tmp_path / "sens.csv").read_text()
        assert csv_text == "p_max_w,proxy_id,target_id,time_increase_pct\n10.0,proxy,truth,0.0\n"

    def test_infeasible_cap_exits_4(self, data_dir, capsys):
        rc = main([
            "sensitivity",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"),
            "--counts", str(data_dir / "counts_b8_b32.csv"),
            "--p-max", "7.0", "2.0",
        ])
        assert rc == 4
        # Of several caps, the message names the one that fails.
        assert capsys.readouterr() == (
            "", "error: no configuration satisfies power cap 2.0 W; the lowest peak in the profile is 3.8 W\n"
        )

    def test_duplicate_proxy_id_rejected(self, data_dir, tmp_path, capsys):
        # The first file declares source_id proxy-small; the second has no
        # source_id line, so its id is its stem, proxy-small too.
        first = data_dir / "relation_b8_b32.csv"
        later = tmp_path / "proxy-small.csv"
        later.write_text("8,0.6666666666666666\n32,1.0\n", encoding="utf-8")
        rc = main([
            "sensitivity",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(first), str(later),
            "--counts", str(data_dir / "counts_b8_b32.csv"),
            "--p-max", "4.5",
        ])
        assert rc == 3
        assert capsys.readouterr() == ("", f"error: {later}: duplicate proxy id 'proxy-small', also in {first}\n")

    def test_duplicate_target_id_rejected(self, data_dir, tmp_path, capsys):
        # Both files declare source_id truth-small.
        first = data_dir / "counts_b8_b32.csv"
        later = tmp_path / "truth-copy.csv"
        later.write_bytes(first.read_bytes())
        rc = main([
            "sensitivity",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"),
            "--counts", str(first), str(later),
            "--p-max", "4.5",
        ])
        assert rc == 3
        assert capsys.readouterr() == ("", f"error: {later}: duplicate target id 'truth-small', also in {first}\n")


class TestSweepCommand:
    def sweep_args(self, data_dir, extra=()):
        return [
            "sweep",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"),
            "--p-max-min", "3.5",
            "--p-max-max", "8.0",
            "--step", "0.5",
        ] + list(extra)

    def test_row_count_and_infeasible_flags(self, data_dir, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(self.sweep_args(data_dir, ["--csv", str(csv_path)])) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 10  # header + caps 3.5..8.0 by 0.5
        first = lines[1].split(",")
        assert first[0] == "3.5" and first[-1] == "infeasible" and first[1] == ""

    def test_tt_column_non_increasing(self, data_dir, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(self.sweep_args(data_dir, ["--csv", str(csv_path)])) == 0
        tts = [
            float(line.split(",")[3])
            for line in csv_path.read_text().strip().splitlines()[1:]
            if line.split(",")[-1] == "ok"
        ]
        assert tts == sorted(tts, reverse=True) or all(
            a >= b for a, b in zip(tts, tts[1:])
        )

    def test_bad_range_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep",
                "--profile", str(data_dir / "profile_b8_b32.csv"),
                "--relation", str(data_dir / "relation_b8_b32.csv"),
                "--p-max-min", "5.0",
                "--p-max-max", "4.0",
                "--step", "0.5",
            ])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "\npowerplan sweep: error: --p-max-min/--p-max-max/--step: cap range requires 0 < min <= max and step > 0\n"
        )


class TestOutputFiles:
    def test_csv_not_touched_when_rendering_fails(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_bytes(b"previous\n")

        def rows():
            yield ["a", "b"]
            raise RuntimeError("renderer failed")

        with pytest.raises(RuntimeError):
            _write_csv(str(path), rows())
        assert path.read_bytes() == b"previous\n"

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"previous\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        _replace_file(str(link), "new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"previous\n")
        with pytest.raises(UnicodeEncodeError):
            _replace_file(str(path), "ok\udcff")  # a lone surrogate has no UTF-8 form
        assert path.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_failed_rename_removes_the_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_bytes(b"previous\n")
        written = []

        def refuse(src, dst):  # the temporary file is complete when the rename fails
            written.append(Path(src).read_bytes())
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="No space left"):
            _replace_file(str(path), "new\n")
        assert written == [b"new\n"]
        assert path.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["p.csv"]


def _fed_fifo(path: Path, data: bytes) -> threading.Thread:
    """Make ``path`` a FIFO and start a thread writing ``data`` into it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    return writer


class TestInputReads:
    """An input is read whole whatever kind of file it is, and a failed read names the path."""

    SELECT = ["select", "--profile", "profile_b64_b128.csv", "--relation", "relation_uniform_b64_b128.csv",
              "--p-max", "5.0", "--csv"]

    def argv(self, command, data_dir, out):
        """The command's arguments over the fixtures, and the index of the input to replace."""
        if command == "select":
            argv = [str(data_dir / tok) if (data_dir / tok).is_file() else tok for tok in self.SELECT]
            return argv + [str(out)], argv.index("--profile") + 1
        argv = ingest_args(data_dir, out)
        return argv, argv.index(str(data_dir / "power_b32_f614.csv"))

    @pytest.mark.parametrize("command", ["select", "ingest"])
    def test_fifo_reads_as_the_regular_file(self, data_dir, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        argv, k = self.argv(command, data_dir, out)
        # More than a pipe holds at once, so the FIFO is read in several chunks.
        data = b"# padding\n" * 10_000 + Path(argv[k]).read_bytes()
        runs = []
        for kind in ("file", "fifo"):
            argv[k] = str(tmp_path / f"input_{kind}.csv")
            if kind == "fifo":
                writer = _fed_fifo(Path(argv[k]), data)
            else:
                Path(argv[k]).write_bytes(data)
            assert main(argv) == 0
            if kind == "fifo":
                writer.join(timeout=10)
                assert not writer.is_alive()
            runs.append((capsys.readouterr(), out.read_bytes()))
            out.unlink()
        assert runs[1] == runs[0]
        expected = "golden_profile.csv" if command == "ingest" else "expected/select.csv"
        assert runs[1][1] == (data_dir / expected).read_bytes()

    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])
    def test_read_loop_returns_the_whole_file(self, tmp_path, size):
        # CRLF lines, and a two-byte character across each chunk boundary the file crosses.
        data = bytearray((b"0.25,4000\r\n" * (size // 11 + 1))[:size])
        for end in range(CHUNK, size, CHUNK):
            data[end - 1 : end + 1] = "\u00e9".encode("utf-8")
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        assert path.stat().st_size == size
        assert cli._parse_file(str(path), str) == path.read_bytes().decode("utf-8")

    def test_ingest_reads_a_power_log_longer_than_a_chunk(self, data_dir, tmp_path):
        out = tmp_path / "out.csv"
        argv, k = self.argv("ingest", data_dir, out)
        # CRLF samples past one chunk, the peak last: a read that stops early lowers the peak.
        text = "".join(f"{i / 1000!r},{4500 + i % 7}\r\n" for i in range(CHUNK // 8)) + "99.0,5200\r\n"
        argv[k] = str(tmp_path / "power_long.csv")
        Path(argv[k]).write_bytes(text.encode("utf-8"))
        assert Path(argv[k]).stat().st_size > CHUNK
        assert main(argv) == 0
        power = pp.parse_power_log(text)
        profile = pp.load_profile(out.read_text(encoding="utf-8"))
        i, j = profile.batch_index(32), profile.frequency_index(614.0)
        assert power.peak_w == 5.2
        assert (profile.power_rows[i][j], profile.avg_power_rows[i][j]) == (power.peak_w, power.avg_w)

    @pytest.mark.parametrize(
        "kind, reason",
        [("missing", "No such file or directory"), ("directory", "Is a directory"), ("unreadable", "Permission denied")],
    )
    @pytest.mark.parametrize("command", ["select", "ingest"])
    def test_failed_read_names_path_and_reason(self, data_dir, tmp_path, capsys, command, kind, reason):
        out = tmp_path / "out.csv"
        argv, k = self.argv(command, data_dir, out)
        path = tmp_path / "input.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "unreadable":
            path.write_bytes(Path(argv[k]).read_bytes())
            path.chmod(0)
            if os.access(path, os.R_OK):
                pytest.skip("this user reads a file whatever its mode")
        argv[k] = str(path)
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {path}: {reason}\n")
        assert not out.exists()


class TestParserBasics:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("select", ["--p-max", "abc"], "--p-max: invalid power cap 'abc'"),
            ("compare", ["--p-max", "4.5", "0"], "--p-max: power cap must be positive, got 0.0"),
            ("sensitivity", ["--p-max", "nan"], "--p-max: power cap must be positive, got nan"),
            ("sweep", ["--step", "0"],
             "--p-max-min/--p-max-max/--step: cap range requires 0 < min <= max and step > 0"),
            ("sweep", ["--p-max-min", "0"],
             "--p-max-min/--p-max-max/--step: cap range requires 0 < min <= max and step > 0"),
        ],
    )
    def test_bad_cap_option_is_usage_error_before_any_read(self, tmp_path, capsys, command, options, message):
        argv = [str(DATA / tok) if (DATA / tok).is_file() else tok for tok in FUZZ_ARGV[command]]
        argv[argv.index("--profile") + 1] = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main(argv + options)  # the last occurrence of an option wins
        assert exc.value.code == 2
        err = capsys.readouterr().err  # the command's own usage, not the top-level one
        assert err.startswith(f"usage: powerplan {command} [-h] --profile PROFILE ")
        assert err.endswith(f"\npowerplan {command}: error: {message}\n")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("tail", [["-h"], [], ["--s", "abc"]], ids=["help", "no-options", "s-abc"])
    def test_command_texts_match_the_full_parser(self, capsys, monkeypatch, command, tail):
        # main builds the named command's parser alone; its help and argparse's
        # own errors (a missing required option, a bad value) must read as the
        # full parser's subparser prints them.
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        expected = parser_outcome(lambda: build_parser().parse_args([command, *tail]), capsys)
        assert parser_outcome(lambda: main([command, *tail]), capsys) == expected
        assert expected[0] == (0 if tail == ["-h"] else 2)

    def test_top_level_texts(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        usage = "usage: powerplan [-h] {ingest,select,compare,sensitivity,sweep} ...\n"
        assert parser_outcome(lambda: main(["-h"]), capsys) == (0, TOP_LEVEL_HELP, "")
        assert parser_outcome(lambda: main([]), capsys) == (
            2, "", usage + "powerplan: error: the following arguments are required: command\n"
        )
        # Newer Python releases print the choices unquoted; the rest reads the same on every version.
        unknown = usage + "powerplan: error: argument command: invalid choice: 'optimize' (choose from "
        assert parser_outcome(lambda: main(["optimize"]), capsys) in {
            (2, "", unknown + ", ".join(choices) + ")\n") for choices in (COMMANDS, map("'{}'".format, COMMANDS))
        }


TOP_LEVEL_HELP = """\
usage: powerplan [-h] {ingest,select,compare,sensitivity,sweep} ...

Plan (batch size, GPU frequency) operating points for power-capped on-device
training from measured profiles.

positional arguments:
  {ingest,select,compare,sensitivity,sweep}
    ingest              aggregate measurement logs into a profile file
    select              pick the best feasible (b, f) pair
    compare             compare against baseline policies
    sensitivity         proxy-vs-target time-increase matrix
    sweep               selection across a ladder of caps

options:
  -h, --help            show this help message and exit
"""


def parser_outcome(run, capsys):
    """The exit status, stdout and stderr of ``run()``, which must end in SystemExit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run()
    return (exc.value.code, *capsys.readouterr())


# Each command over the committed fixtures; every token naming a file in
# tests/data is a file argument the fuzz test may replace.
INGEST_POINTS = [f"b{b}_f{f}" for b in (16, 32) for f in (307, 614)]
FUZZ_ARGV = {
    "select": ["select", "--profile", "profile_b64_b128.csv", "--relation", "relation_uniform_b64_b128.csv",
               "--p-max", "5.0"],
    "compare": ["compare", "--profile", "profile_b8_b32.csv", "--relation", "relation_b8_b32.csv",
                "--counts", "counts_b8_b32.csv", "--p-max", *FLIP_CAPS, "--safe-freqs", "safe_freqs_b8_b32.csv"],
    "sweep": ["sweep", "--profile", "profile_b8_b32.csv", "--relation", "relation_b8_b32.csv",
              "--p-max-min", "3.5", "--p-max-max", "8.0", "--step", "0.5"],
    "sensitivity": ["sensitivity", "--profile", "profile_b8_b32.csv", "--relation", "relation_b8_b32.csv",
                    "--counts", "counts_b8_b32.csv", "--p-max", "4.5", "7.0"],
    "ingest": ["ingest", "--timing", *(f"timing_{p}.csv" for p in INGEST_POINTS),
               "--power", *(f"power_{p}.csv" for p in INGEST_POINTS), "--s", "4096", "--model-id", "fuzz"],
}
# The parser the CLI applies to each kind of file, by file-name prefix.
FILE_PARSERS = {
    "profile": pp.load_profile,
    "relation": pp.parse_relation_file,
    "counts": pp.parse_counts_file,
    "safe": pp.parse_safe_table,
    "timing": pp.parse_timing_log,
    "power": pp.parse_power_log,
}
# Tokens that sit on the edges of the file grammars.
EDGE_NUMBERS = [b"1e308", b"0", b"-1", b"nan", b"inf", b"1e-320"]
EDGE_TOKENS = EDGE_NUMBERS + [b"-inf", b"", b",", b"#", b"=", b"\r", b"\n", b"\x00", b"\xff", b"\xc3", b"unlimited",
                              b"source_id", b"b=", b"9" * 30]


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """``base`` after one to three edits: bytes, numeric tokens, a column or whole lines."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["byte", "insert", "delete", "token", "column", "line"]))
        if kind == "byte" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(st.one_of(st.sampled_from(EDGE_TOKENS), st.binary(max_size=8)))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 40))]
        elif kind == "token":
            numbers = list(re.finditer(rb"[0-9][0-9.]*", data))
            if numbers:
                m = draw(st.sampled_from(numbers))
                plain = st.from_regex(rb"\A[0-9]{1,4}(\.[0-9]{1,3})?\Z")
                data[m.start() : m.end()] = draw(st.one_of(st.sampled_from(EDGE_TOKENS), plain))
        elif kind == "column":  # one field of every line from a point on, set to one value
            lines = bytes(data).split(b"\n")
            k, c = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, 2))
            value = draw(st.sampled_from(EDGE_NUMBERS))
            for n in range(k, len(lines)):
                fields = lines[n].split(b",")
                if c < len(fields):
                    fields[c] = value
                    lines[n] = b",".join(fields)
            data = bytearray(b"\n".join(lines))
        else:
            lines = bytes(data).split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = draw(st.sampled_from([[], [lines[k]] * 2, [lines[-1 - k]]]))
            data = bytearray(b"\n".join(lines))
    return bytes(data)


# What an error between two valid files says it is about, and the option naming that file.
CROSS_FILE_SUBJECTS = (
    ("relation vector", "--relation"),
    ("true counts", "--counts"),
    ("safe-frequency table", "--safe-freqs"),
    ("MHz not in profile", "--safe-freqs"),
)


def file_contents(base: bytes):
    grammar_text = st.text(alphabet="0123456789.,-+e#=\n bfmhzwarupsoucid_l", max_size=200).map(str.encode)
    return st.one_of(st.binary(max_size=300), grammar_text, mutated(base), mutated(base))


def invalid_on_its_own(name: str, data: bytes) -> bool:
    """Whether the CLI's parser for ``name`` rejects ``data`` with no other file involved."""
    try:
        parsed = FILE_PARSERS[name.partition("_")[0]](data.decode("utf-8"))
    except (UnicodeDecodeError, pp.DataError):
        return True
    return isinstance(parsed, pp.PowerTrace) and not any(parsed.power_mw)  # ingest needs a non-zero sample


class TestFileArgumentFuzz:
    """Any bytes in any one input file end in exit 0, 3 or 4, never a traceback.

    A file that is invalid on its own is reported with its path.  An error
    between two valid files names the relation in ``select`` and ``sweep``.
    In ``compare`` and ``sensitivity`` it names the file its message is
    about: a relation vector, true counts or a safe-frequency table.  The
    others (an estimate out of range, an ingest grid with a hole) only have
    to be one-line errors.
    """

    @pytest.mark.parametrize("command", sorted(FUZZ_ARGV))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_file_replaced(self, command, data):
        argv = [str(DATA / tok) if (DATA / tok).is_file() else tok for tok in FUZZ_ARGV[command]]
        k = data.draw(st.sampled_from([k for k, tok in enumerate(FUZZ_ARGV[command]) if (DATA / tok).is_file()]))
        name = FUZZ_ARGV[command][k]
        content = data.draw(file_contents((DATA / name).read_bytes()), label=name)
        with tempfile.TemporaryDirectory() as tmp:
            argv[k] = os.path.join(tmp, name)
            Path(argv[k]).write_bytes(content)
            if command == "ingest":
                argv += ["--out", os.path.join(tmp, "out.csv")]
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:
                pytest.fail(f"exit {exc.code} from argparse: {err.getvalue()!r}")
        err = err.getvalue()
        assert code in (0, 3, 4)
        if code == 0:
            assert err == ""
        elif code == 4:  # only select and sensitivity stop at an infeasible cap, their first (lowest) one
            profile_arg = FUZZ_ARGV[command].index("--profile") + 1
            profile = content if k == profile_arg else (DATA / FUZZ_ARGV[command][profile_arg]).read_bytes()
            cap = FUZZ_ARGV[command][FUZZ_ARGV[command].index("--p-max") + 1]
            lowest = pp.load_profile(profile.decode("utf-8")).power_rows[0][0]
            assert err == (
                f"error: no configuration satisfies power cap {cap} W; the lowest peak in the profile is {lowest!r} W\n"
            )
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            if invalid_on_its_own(name, content):
                assert err.startswith(f"error: {argv[k]}: "), err
            elif command in ("select", "sweep"):  # every fault between its two files is the relation's
                assert err.startswith(f"error: {argv[argv.index('--relation') + 1]}: "), err
            else:
                options = [opt for subject, opt in CROSS_FILE_SUBJECTS if subject in err]
                if options and command != "ingest":
                    assert err.startswith(f"error: {argv[argv.index(options[0]) + 1]}: "), err

    @pytest.mark.parametrize("command", ["select", "sensitivity"])
    @given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["over", "at", "under"]))
    @settings(max_examples=30, deadline=None)
    def test_cap_beside_the_lowest_peak(self, command, seed, side):
        # A generated profile is valid, so the cap alone decides between exit 0 and exit 4.
        rng = np.random.default_rng(seed)
        profile, _ = random_profile(rng)
        lowest = profile.power_rows[0][0]
        cap = {"over": math.nextafter(lowest, math.inf), "at": lowest, "under": math.nextafter(lowest, 0.0)}[side]
        texts = {"--profile": pp.save_profile(profile),
                 "--relation": pp.format_relation_file(random_relation(rng, profile.batch_sizes))}
        if command == "sensitivity":
            texts["--counts"] = format_counts_file(random_counts(rng, profile.batch_sizes))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, "--p-max", repr(cap)]
            for option, text in texts.items():
                argv += [option, os.path.join(tmp, f"{option[2:]}.csv")]
                Path(argv[-1]).write_text(text, encoding="utf-8")
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        if side == "over":
            assert (code, err.getvalue()) == (0, "")
        else:
            assert (code, out.getvalue(), err.getvalue()) == (4, "", (
                f"error: no configuration satisfies power cap {cap!r} W; the lowest peak in the profile is {lowest!r} W\n"
            ))


# Words an argv is drawn from: values of each type, values argparse reads
# differently or rejects, and words that are no option of any command.
PLAIN_VALUES = ["4096", "1", "0", "5.0", "1e3", "nan", "inf", "unlimited", "a.csv", "", " 7", "1_0", "x y", "abc"]
DASH_VALUES = ["-1", "-2.5", "-", "-x", "-5 W"]
NOT_OPTIONS = ["-h", "--help", "--", "--nope", "-p", "select"]


@st.composite
def command_options(draw, command):
    """Plain options of ``command`` (the required ones, some optional ones, any order), then a few edits."""
    rows = COMMANDS[command][1]
    flags = [row[0] for row in rows]
    words = []
    for flag, nargs, *_ in draw(st.permutations([row for row in rows if row[3] or draw(st.booleans())])):
        words += [flag, *draw(st.lists(st.sampled_from(PLAIN_VALUES), min_size=1, max_size=3 if nargs else 1))]
    word = st.one_of(
        st.sampled_from(flags),
        st.builds(lambda flag, k: flag[: max(3, len(flag) - k)], st.sampled_from(flags), st.integers(1, 6)),
        st.builds("{}={}".format, st.sampled_from(flags), st.sampled_from(PLAIN_VALUES)),
        st.sampled_from(PLAIN_VALUES),
        st.sampled_from(DASH_VALUES),
        st.sampled_from(NOT_OPTIONS),
        st.text(max_size=4),
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]) if at < len(words) else st.just("insert"))
        if edit == "insert":
            words.insert(at, draw(word))
        elif edit == "delete":
            del words[at]
        else:
            words[at] = draw(word)
    return words


def namespace_reprs(namespace) -> dict[str, str]:
    # repr tells 1 from 1.0 and compares nan with nan.
    return {key: repr(value) for key, value in vars(namespace).items()}


class TestPlainReader:
    """``_read_plain`` returns argparse's namespace or nothing; argparse does the rest."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_reads_as_argparse_or_not_at_all(self, command, data):
        argv = data.draw(command_options(command))
        read = _read_plain(command, argv)
        if read is None:
            return
        try:
            with redirect_stderr(io.StringIO()) as err:
                parsed = build_parser(command).parse_args(argv)
        except SystemExit:
            pytest.fail(f"read {vars(read)}, but argparse rejects it: {err.getvalue()!r}")
        assert namespace_reprs(read) == namespace_reprs(parsed)
        assert read.func is parsed.func is getattr(cli, f"cmd_{command}")

    @pytest.mark.parametrize("argv", [
        *(FUZZ_ARGV[command] for command in ("select", "compare", "sensitivity", "sweep")),
        FUZZ_ARGV["ingest"] + ["--out", "p.csv"],
        # The shapes of perfbench's cli-select and ingest-logs ops, so that the gain cannot quietly vanish.
        ["select", "--profile", "/w/profile.csv", "--relation", "/w/relation.csv", "--p-max", "5.25"],
        ["ingest", "--timing", *(f"/w/timing_{k}.csv" for k in range(512)),
         "--power", *(f"/w/power_{k}.csv" for k in range(512)),
         "--s", "4096", "--model-id", "bench", "--out", "/w/profile.csv"],
    ])
    def test_reads_each_plain_argv(self, argv):
        parsed = build_parser(argv[0]).parse_args(argv[1:])
        assert namespace_reprs(_read_plain(argv[0], argv[1:])) == namespace_reprs(parsed)

    @pytest.mark.parametrize(
        "tail", [["--pro", "p"], ["--profile=p"], ["--"], ["-h"], ["--csv", "a", "--csv", "b"], ["--csv", "-x"]]
    )
    def test_leaves_the_rest_to_argparse(self, tail):
        assert _read_plain("select", FUZZ_ARGV["select"][1:] + tail) is None

    def test_runs_the_command_bound_when_main_runs(self, monkeypatch):
        # A tracer rebinds cli.cmd_*; main must call the rebound one.
        calls = []
        monkeypatch.setattr(cli, "cmd_select", lambda args: calls.append(args.p_max) or 0)
        assert main(FUZZ_ARGV["select"]) == 0
        assert calls == ["5.0"]

    def test_usage_error_in_a_plain_argv_prints_the_command_usage(self, capsys):
        argv = [str(DATA / tok) if (DATA / tok).is_file() else tok for tok in FUZZ_ARGV["select"]]
        argv[argv.index("--p-max") + 1] = "abc"
        assert _read_plain("select", argv[1:]) is not None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: powerplan select [-h] --profile PROFILE ")
        assert err.endswith("\npowerplan select: error: --p-max: invalid power cap 'abc'\n")
