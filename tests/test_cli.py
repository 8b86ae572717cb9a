import numpy as np
import pytest

import powerplan as pp
from powerplan.cli import main
from synth_corpus import random_counts, random_profile, random_relation

FLIP_CAPS = ["4.5", "7.0", "unlimited"]


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

    def test_invalid_file_names_file_and_line(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad_power.csv"
        bad.write_text("0.0,4000\nnot-a-sample\n", encoding="utf-8")
        args = ingest_args(data_dir, tmp_path / "p.csv")
        args[args.index(str(data_dir / "power_b16_f307.csv"))] = str(bad)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "bad_power.csv" in err
        assert "line 2" in err

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

    def test_seed_flag_accepted(self, data_dir, capsys):
        rc = main([
            "select", "--seed", "7",
            "--profile", str(data_dir / "profile_b64_b128.csv"),
            "--relation", str(data_dir / "relation_uniform_b64_b128.csv"),
            "--p-max", "5.0",
        ])
        assert rc == 0


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


class TestParserBasics:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2
