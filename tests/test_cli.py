import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerplan as pp
from powerplan.cli import _replace_file, _write_csv, main
from synth_corpus import random_counts, random_profile, random_relation

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

    def test_unpaired_logs_is_usage_error(self, data_dir, tmp_path):
        args = ingest_args(data_dir, tmp_path / "p.csv")
        with pytest.raises(SystemExit) as exc:
            main(args[:2] + args[3:])  # drop one timing log
        assert exc.value.code == 2

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
        assert "no configuration satisfies power cap" in capsys.readouterr().err

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

    def test_infeasible_cap_exits_4(self, data_dir, capsys):
        rc = main([
            "sensitivity",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"),
            "--counts", str(data_dir / "counts_b8_b32.csv"),
            "--p-max", "2.0",
        ])
        assert rc == 4

    def test_duplicate_proxy_id_rejected(self, data_dir, capsys):
        rc = main([
            "sensitivity",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"), str(data_dir / "relation_b8_b32.csv"),
            "--counts", str(data_dir / "counts_b8_b32.csv"),
            "--p-max", "4.5",
        ])
        assert rc == 3
        assert "duplicate proxy id" in capsys.readouterr().err


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

    def test_bad_range_exits_3(self, data_dir, capsys):
        rc = main([
            "sweep",
            "--profile", str(data_dir / "profile_b8_b32.csv"),
            "--relation", str(data_dir / "relation_b8_b32.csv"),
            "--p-max-min", "5.0",
            "--p-max-max", "4.0",
            "--step", "0.5",
        ])
        assert rc == 3


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


class TestParserBasics:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2


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


def file_contents(base: bytes):
    grammar_text = st.text(alphabet="0123456789.,-+e#=\n bfmhzwarupsoucid_l", max_size=200).map(str.encode)
    return st.one_of(st.binary(max_size=300), grammar_text, mutated(base), mutated(base))


def invalid_on_its_own(name: str, data: bytes) -> bool:
    """Whether the CLI's parser for ``name`` rejects ``data`` with no other file involved."""
    try:
        parsed = FILE_PARSERS[name.partition("_")[0]](data.decode("utf-8"))
    except (UnicodeDecodeError, pp.DataError):
        return True
    return isinstance(parsed, pp.PowerTrace) and not parsed.samples  # ingest needs a sample


class TestFileArgumentFuzz:
    """Any bytes in any one input file end in exit 0, 3 or 4, never a traceback.

    A file that is invalid on its own is reported with its path.  An error
    between two valid files names the relation in ``select`` and ``sweep``
    and the safe-frequency table in ``compare``; the others (``compare``'s
    relation or counts against the profile, ``sensitivity``, an ingest grid
    with a hole) only have to be one-line errors.
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
        elif code == 4:
            assert err == "error: no configuration satisfies power cap\n"
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            if invalid_on_its_own(name, content):
                assert err.startswith(f"error: {argv[k]}: "), err
            elif command in ("select", "sweep") or name.startswith("safe"):
                blamed = argv[k] if name.startswith(("relation", "safe")) else argv[argv.index("--relation") + 1]
                assert err.startswith(f"error: {blamed}: "), err
