import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerplan as pp
from powerplan.report import (
    STATUS_INFEASIBLE,
    STATUS_OK,
    SweepRow,
    comparison_csv_rows,
    format_comparison_table,
    format_sensitivity_table,
    format_sweep_table,
    sensitivity_csv_rows,
    sweep_csv_rows,
)
from synth_corpus import (
    brute_force_feasible,
    brute_force_select,
    plant_duplicate_row,
    random_counts,
    random_profile,
)

CAPS_FLIP = [pp.PowerCap(4.5), pp.PowerCap(7.0), pp.PowerCap.unlimited()]


def policy_rows(report, policy_tag):
    return [row for row in report.rows if row.policy_tag == policy_tag]


class TestBuildComparison:
    def test_ours_row_switches_batch_size_across_caps(
        self, profile_flip, relation_small, counts_small, safe_small
    ):
        report = pp.build_comparison(
            profile_flip, relation_small, CAPS_FLIP, safe_small, true_counts=counts_small
        )
        ours = policy_rows(report, "ours")
        assert [row.batch_size for row in ours] == [8, 32, 32]
        assert [row.p_max_w for row in ours] == [4.5, 7.0, math.inf]

    def test_proportional_proxy_equals_fastest_row(
        self, profile_flip, relation_small, counts_small, safe_small
    ):
        report = pp.build_comparison(
            profile_flip, relation_small, CAPS_FLIP, safe_small, true_counts=counts_small
        )
        for ours, fastest in zip(policy_rows(report, "ours"), policy_rows(report, "fastest")):
            assert (ours.batch_size, ours.frequency_mhz) == (
                fastest.batch_size,
                fastest.frequency_mhz,
            )
            assert ours.realized_tt_acc == fastest.realized_tt_acc

    def test_baseline1_speedup_is_exactly_one(
        self, profile_flip, relation_small, counts_small, safe_small
    ):
        report = pp.build_comparison(
            profile_flip, relation_small, CAPS_FLIP, safe_small, true_counts=counts_small
        )
        for row in policy_rows(report, "baseline1"):
            assert row.speedup_vs_baseline1 == 1.0

    def test_ours_speedup_at_least_one_with_true_proxy(
        self, profile_flip, relation_small, counts_small, safe_small
    ):
        report = pp.build_comparison(
            profile_flip, relation_small, CAPS_FLIP, safe_small, true_counts=counts_small
        )
        for row in policy_rows(report, "ours"):
            assert row.speedup_vs_baseline1 >= 1.0

    def test_without_counts_no_fastest_no_realized(
        self, profile_flip, relation_small, safe_small
    ):
        report = pp.build_comparison(profile_flip, relation_small, CAPS_FLIP, safe_small)
        assert not policy_rows(report, "fastest")
        assert all(row.realized_tt_acc is None for row in report.rows)
        # speedups fall back to the estimated basis
        for row in policy_rows(report, "baseline1"):
            assert row.speedup_vs_baseline1 == 1.0

    def test_infeasible_cap_flagged_not_fatal(self, profile_flip, relation_small, counts_small):
        trusted = pp.SafeFrequencyTable({3.0: 307.0, 7.0: 614.0})
        report = pp.build_comparison(
            profile_flip,
            relation_small,
            [pp.PowerCap(3.0), pp.PowerCap(7.0)],
            trusted,
            true_counts=counts_small,
        )
        low = [r for r in report.rows if r.p_max_w == 3.0]
        assert {r.policy_tag: r.status for r in low} == {
            "baseline1": STATUS_OK,  # trusted table, deliberately unchecked
            "baseline2": STATUS_OK,
            "ours": STATUS_INFEASIBLE,
            "fastest": STATUS_INFEASIBLE,
        }
        infeasible = [r for r in low if r.status == STATUS_INFEASIBLE]
        assert all(r.batch_size is None and r.speedup_vs_baseline1 is None for r in infeasible)

    def test_energy_none_without_avg_power(self, relation_small, counts_small, safe_small):
        rng = np.random.default_rng(80)
        bare = pp.DeviceProfile(
            model_id="bare",
            batch_sizes=(8, 32),
            frequencies=(307.0, 460.0, 614.0, 921.0),
            time_table=[[90.0, 60.0, 45.0, 30.0], [52.0, 34.7, 19.5, 15.0]],
            power_table=[[3.8, 4.3, 4.9, 6.4], [4.2, 4.85, 5.6, 7.5]],
            samples_per_unit=4096,
        )
        report = pp.build_comparison(bare, relation_small, CAPS_FLIP, safe_small, true_counts=counts_small)
        assert all(row.energy_j is None for row in report.rows)

    def test_rows_sorted_by_cap_then_policy_order(self, profile_flip, relation_small, safe_small):
        report = pp.build_comparison(
            profile_flip, relation_small, [pp.PowerCap(7.0), pp.PowerCap(4.5)], safe_small
        )
        assert [r.p_max_w for r in report.rows] == [4.5, 4.5, 4.5, 7.0, 7.0, 7.0]
        assert [r.policy_tag for r in report.rows[:3]] == ["baseline1", "baseline2", "ours"]


class TestBuildSensitivity:
    def scenario(self, seed=81):
        rng = np.random.default_rng(seed)
        profile, _ = random_profile(rng, max_batches=6, max_freqs=10)
        targets = {
            f"target-{k}": random_counts(rng, profile.batch_sizes) for k in range(3)
        }
        proxies = {
            tid.replace("target", "proxy"): pp.relation_vector(counts, source_id="self")
            for tid, counts in targets.items()
        }
        lo, hi = float(profile.power_table.min()), float(profile.power_table.max())
        cap = pp.PowerCap(float(rng.uniform((lo + hi) / 2, hi * 1.1)))
        return profile, proxies, targets, cap

    def test_self_proxy_diagonal_is_exact_zero(self):
        profile, proxies, targets, cap = self.scenario()
        matrix = pp.build_sensitivity(profile, proxies, targets, cap)
        for k in range(3):
            p = matrix.proxy_ids.index(f"proxy-{k}")
            t = matrix.target_ids.index(f"target-{k}")
            assert matrix.values[p][t] == 0.0

    def test_entries_non_negative(self):
        profile, proxies, targets, cap = self.scenario(seed=82)
        matrix = pp.build_sensitivity(profile, proxies, targets, cap)
        assert all(v >= 0.0 for row in matrix.values for v in row)

    def test_identical_argmin_proxies_share_rows(self, profile_flip, counts_small):
        # scaled counts give an identical relation vector, hence identical rows
        r1 = pp.relation_vector(counts_small, source_id="a")
        r2 = pp.relation_vector({b: 3 * c for b, c in counts_small.items()}, source_id="b")
        matrix = pp.build_sensitivity(
            profile_flip,
            {"a": r1, "b": r2},
            {"t": counts_small},
            pp.PowerCap(4.5),
        )
        assert matrix.values[0] == matrix.values[1]

    def test_cells_match_independent_recomputation(self):
        profile, proxies, targets, cap = self.scenario(seed=83)
        matrix = pp.build_sensitivity(profile, proxies, targets, cap)
        for p_idx, pid in enumerate(matrix.proxy_ids):
            sel = pp.select_configuration_fast(profile, proxies[pid], cap)
            i = profile.batch_index(sel.batch_size)
            j = profile.frequency_index(sel.frequency_mhz)
            for t_idx, tid in enumerate(matrix.target_ids):
                counts = targets[tid]
                realized = float(profile.time_table[i, j] * counts[sel.batch_size])
                # brute-force fastest over every feasible pair
                best = None
                for bi in range(len(profile.batch_sizes)):
                    for fj in range(len(profile.frequencies)):
                        if profile.power_table[bi, fj] < cap.p_max:
                            tt = float(
                                profile.time_table[bi, fj] * counts[profile.batch_sizes[bi]]
                            )
                            best = tt if best is None else min(best, tt)
                expected = (realized - best) / best * 100.0
                assert matrix.values[p_idx][t_idx] == expected

    def test_infeasible_cap_raises(self, profile_flip, relation_small, counts_small):
        with pytest.raises(pp.InfeasibleError):
            pp.build_sensitivity(
                profile_flip,
                {"p": relation_small},
                {"t": counts_small},
                pp.PowerCap(2.0),
            )

    def test_matrix_validation(self):
        with pytest.raises(pp.DataError, match="shape"):
            pp.SensitivityMatrix(5.0, ("a",), ("t",), np.zeros((2, 1)))
        with pytest.raises(pp.DataError, match="non-negative"):
            pp.SensitivityMatrix(5.0, ("a",), ("t",), [[-1.0]])
        # A ragged table and an empty axis of either kind are shape errors too.
        with pytest.raises(pp.DataError, match="shape does not match id axes"):
            pp.SensitivityMatrix(5.0, ("a", "b"), ("t",), [[1.0], [2.0, 3.0]])
        with pytest.raises(pp.DataError, match="shape does not match id axes"):
            pp.SensitivityMatrix(5.0, (), (), [])
        with pytest.raises(pp.DataError, match="shape does not match id axes"):
            pp.SensitivityMatrix(5.0, ("a",), (), [[]])
        with pytest.raises(pp.DataError, match="shape does not match id axes"):
            pp.SensitivityMatrix(5.0, (), ("t",), [])


class TestBuildSweep:
    def test_infeasible_rows_flagged(self, profile_flip, relation_small):
        rows = pp.build_sweep(
            profile_flip, relation_small, [pp.PowerCap(2.0), pp.PowerCap(5.0)]
        )
        assert rows[0].status == STATUS_INFEASIBLE
        assert rows[0].batch_size is None
        assert rows[1].status == STATUS_OK
        assert rows[1].batch_size == 8

    def test_tt_non_increasing_in_cap(self, profile_flip, relation_small):
        caps = pp.cap_range(4.0, 9.0, 0.25)
        rows = pp.build_sweep(profile_flip, relation_small, caps)
        previous = None
        for row in rows:
            if row.status != STATUS_OK:
                continue
            if previous is not None:
                assert row.estimated_tt_acc <= previous
            previous = row.estimated_tt_acc

    def test_cap_range_exact_step_count(self):
        caps = pp.cap_range(1.0, 10.0, 0.5)
        assert len(caps) == 19
        assert caps[0].p_max == 1.0
        assert caps[-1].p_max == pytest.approx(10.0)

    def test_cap_range_validation(self):
        with pytest.raises(pp.DataError):
            pp.cap_range(0.0, 5.0, 1.0)
        with pytest.raises(pp.DataError):
            pp.cap_range(5.0, 4.0, 1.0)
        with pytest.raises(pp.DataError):
            pp.cap_range(1.0, 5.0, 0.0)

    def test_cap_range_length_bounded(self):
        # Imported before any call, so a powerplan without the bound fails here
        # instead of building the unbounded ladder.
        from powerplan.report import MAX_CAP_LADDER

        assert len(pp.cap_range(1.0, float(MAX_CAP_LADDER), 1.0)) == MAX_CAP_LADDER
        for args in [(1.0, float(MAX_CAP_LADDER + 1), 1.0), (0.001, 1e6, 1e-3), (1.0, math.inf, 1.0)]:
            with pytest.raises(pp.DataError, match=f"more than {MAX_CAP_LADDER} caps"):
                pp.cap_range(*args)


def per_cap_brute_force(profile, multipliers, caps):
    """The sweep by exhaustive scan, one cap at a time, or the error text of
    the first cap whose feasible set holds a batch size with no multiplier."""
    rows = []
    for cap in caps:
        feasible = [profile.batch_sizes[i] for i in sorted(brute_force_feasible(profile, cap))]
        absent = [b for b in feasible if b not in multipliers]
        if absent:
            return f"relation vector incomplete: no entry for batch size {absent[0]}"
        sel = brute_force_select(profile, multipliers, cap)
        if sel is None:
            rows.append(SweepRow(cap.p_max, None, None, None, None, STATUS_INFEASIBLE))
        else:
            rows.append(SweepRow(cap.p_max, sel.batch_size, sel.frequency_mhz, sel.estimated_tt_acc, sel.estimated_energy))
    return tuple(rows)


class TestSweepMatchesBruteForce:
    @given(
        seed=st.integers(0, 2**32 - 1),
        duplicate=st.booleans(),
        drop=st.booleans(),
        n_entries=st.integers(0, 6),
        n_random=st.integers(0, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_sweep_equals_per_cap_brute_force(self, seed, duplicate, drop, n_entries, n_random):
        rng = np.random.default_rng(seed)
        profile, _ = random_profile(rng, with_avg_power=bool(seed % 2))
        batches = profile.batch_sizes
        counts = random_counts(rng, batches)
        if duplicate and len(batches) > 1:
            # an exact copy of the row below it, with an equal count: ties
            profile, k = plant_duplicate_row(rng, profile)
            counts[batches[k]] = counts[batches[k - 1]]
        if drop and len(batches) > 1:
            del counts[batches[int(rng.integers(len(batches)))]]
        r = pp.relation_vector(counts)
        power = profile.power_table
        caps = [pp.PowerCap(float(power.min()) * 0.5), pp.PowerCap.unlimited()]  # below every peak; all
        caps += [pp.PowerCap(float(p)) for p in rng.choice(power.ravel(), n_entries)]  # on table entries
        caps += [pp.PowerCap(float(p)) for p in rng.uniform(power.min() * 0.9, power.max() * 1.1, n_random)]
        caps = [caps[k] for k in rng.permutation(len(caps))]  # in no particular order

        expected = per_cap_brute_force(profile, r.entries, caps)
        if isinstance(expected, str):
            with pytest.raises(pp.DataError) as exc:
                pp.build_sweep(profile, r, caps)
            assert str(exc.value) == expected
        else:
            assert pp.build_sweep(profile, r, caps) == expected

    def test_memory_stays_linear_in_caps(self):
        # 9,999 caps over 512 batch rows: a caps x rows table of frontier
        # indices alone would take over 40 MB.
        child = textwrap.dedent("""
            import resource
            import powerplan as pp

            n_b, n_f = 512, 64
            profile = pp.DeviceProfile(
                model_id="wide",
                batch_sizes=tuple(range(1, n_b + 1)),
                frequencies=tuple(100.0 + 10.0 * j for j in range(n_f)),
                time_table=[[100.0 / (1 + j) + 0.01 * i for j in range(n_f)] for i in range(n_b)],
                power_table=[[1.0 + 0.01 * i + 0.1 * j for j in range(n_f)] for i in range(n_b)],
                samples_per_unit=1024,
            )
            r = pp.RelationVector({b: 1.0 for b in profile.batch_sizes})
            caps = pp.cap_range(0.5, 0.5 + 9998 * 0.00125, 0.00125)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rows = pp.build_sweep(profile, r, caps)
            grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            print(len(rows), sum(row.status == "ok" for row in rows), grew)
        """)
        src = str(Path(pp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        n_rows, n_ok, grew = map(int, proc.stdout.split())
        assert (n_rows, n_ok) == (9999, 9999 - 401)  # caps up to 1.0 W fit nothing: peak < cap
        kb_per_mb = 1024 * 1024 if sys.platform == "darwin" else 1024  # ru_maxrss is bytes on macOS
        assert grew / kb_per_mb < 20


class TestRendering:
    def test_comparison_csv_caps_rendered(self, profile_flip, relation_small, safe_small):
        report = pp.build_comparison(profile_flip, relation_small, CAPS_FLIP, safe_small)
        rows = comparison_csv_rows(report)
        assert rows[0][0] == "p_max_w"
        caps = {row[0] for row in rows[1:]}
        assert caps == {"4.5", "7.0", "unlimited"}

    def test_comparison_table_mentions_policies(self, profile_flip, relation_small, safe_small):
        report = pp.build_comparison(profile_flip, relation_small, CAPS_FLIP, safe_small)
        text = format_comparison_table(report)
        for tag in ("baseline1", "baseline2", "ours"):
            assert tag in text

    def test_sensitivity_csv_one_decimal(self, profile_flip, counts_small):
        r = pp.relation_vector(counts_small, source_id="self")
        matrix = pp.build_sensitivity(
            profile_flip, {"self": r}, {"t": counts_small}, pp.PowerCap(4.5)
        )
        rows = sensitivity_csv_rows([matrix])
        assert rows[1] == ["4.5", "self", "t", "0.0"]
        text = format_sensitivity_table(matrix)
        assert "0.0" in text

    def test_sweep_csv_round_trips_floats(self, profile_flip, relation_small):
        rows = pp.build_sweep(profile_flip, relation_small, [pp.PowerCap(5.0)])
        csv_rows = sweep_csv_rows(rows)
        assert float(csv_rows[1][3]) == rows[0].estimated_tt_acc
        assert format_sweep_table(rows).startswith("p_max_w")
