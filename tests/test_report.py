import bisect
import functools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import powerplan as pp
from powerplan.core import TIE_REL_TOL, EntriesError, _select_caps
from powerplan.report import (
    STATUS_INFEASIBLE,
    STATUS_OK,
    ComparisonReport,
    ComparisonRow,
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
    infinite_energy_profile,
    out_of_range_pick_profile,
    plant_duplicate_row,
    random_counts,
    random_profile,
    random_relation,
    reference_renders,
)

CAPS_FLIP = [pp.PowerCap(4.5), pp.PowerCap(7.0), pp.PowerCap.unlimited()]


def policy_rows(report, policy_tag):
    return [row for row in report.rows if row.policy_tag == policy_tag]


def row_basis(profile, sel, true_counts):
    """A selection's grid cell, realized time (None without counts) and speedup basis."""
    i = profile.batch_index(sel.batch_size)
    j = profile.frequency_index(sel.frequency_mhz)
    if true_counts is None:
        return i, j, None, sel.estimated_tt_acc
    realized = float(profile.time_rows[i][j] * true_counts[sel.batch_size])
    return i, j, realized, realized


def one_cap_row(profile, cap, tag, select, multipliers, true_counts, anchor):
    """The repr of the comparison row that ``select`` at ``cap`` alone gives."""
    try:
        sel = select(profile, multipliers, cap)
    except pp.InfeasibleError:
        return repr(ComparisonRow(cap.p_max, tag, None, None, None, None, None, None, STATUS_INFEASIBLE))
    i, j, realized, basis = row_basis(profile, sel, true_counts)
    energy = None if profile.avg_power_rows is None else profile.avg_power_rows[i][j] * basis
    return repr(ComparisonRow(
        cap.p_max, tag, sel.batch_size, sel.frequency_mhz, sel.estimated_tt_acc, realized, energy, anchor / basis
    ))


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

    @pytest.mark.parametrize(
        "safe_text, caps, counts, message",
        [
            # Cap 4.0 plans in full (the counts cover the one row that fits); at 6.0
            # baseline1's table lookup fails before the fastest pass meets batch size 16.
            ("4.0,300.0", [6.0, 4.0], {8: 10, 32: 5}, "safe-frequency table does not define cap 6.0"),
            # Baseline1 runs first at the first cap, before the counts' key check.
            ("9.0,300.0", [4.0], {8: 1, 64: 2}, "safe-frequency table does not define cap 4.0"),
            ("4.0,300.0", [4.0], {}, "no batch sizes"),
        ],
    )
    def test_errors_fire_at_their_cap_and_policy(self, safe_text, caps, counts, message):
        # Order: caps ascending, then baseline1, baseline2, ours, fastest.
        profile = pp.DeviceProfile(
            "m", (8, 16, 32), (300.0, 600.0), [[90, 45], [60, 30], [50, 20]],
            [[3.8, 4.9], [4.5, 5.5], [5.0, 6.5]], 4096,
        )
        r = pp.RelationVector({8: 1.0, 16: 0.8, 32: 0.5})
        safe = pp.parse_safe_table(safe_text)
        with pytest.raises(pp.DataError) as exc:
            pp.build_comparison(profile, r, [pp.PowerCap(c) for c in caps], safe, true_counts=counts)
        assert str(exc.value) == message

    @given(
        seed=st.integers(0, 2**32 - 1),
        with_counts=st.booleans(),
        n_random=st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_joint_rows_match_one_cap_selections(self, seed, with_counts, n_random):
        rng = np.random.default_rng(seed)
        profile, _ = random_profile(rng, max_batches=6, max_freqs=12, with_avg_power=bool(seed % 2))
        counts = random_counts(rng, profile.batch_sizes)
        r = pp.relation_vector({b: c * float(rng.uniform(0.5, 2.0)) for b, c in counts.items()})
        power = profile.power_table
        caps = [pp.PowerCap(float(power.min()) * 0.5), pp.PowerCap.unlimited()]  # infeasible; all
        caps += [pp.PowerCap(float(p)) for p in rng.uniform(power.min() * 0.9, power.max() * 1.1, n_random)]
        caps += [caps[k] for k in rng.integers(0, len(caps), 2)]  # duplicates
        caps = [caps[k] for k in rng.permutation(len(caps))]  # in no particular order
        # A trusted table, never re-checked against the cap, with a frequency
        # drawn per cap, so a pass that carries one cap's into the next shows.
        p_maxes = sorted({cap.p_max for cap in caps})
        safe = pp.SafeFrequencyTable(dict(zip(p_maxes, sorted(rng.choice(profile.frequencies, len(p_maxes))))))
        true_counts = counts if with_counts else None

        report = pp.build_comparison(profile, r, caps, safe, true_counts=true_counts)
        tags = ("baseline1", "baseline2", "ours", "fastest")
        got = {tag: [repr(row) for row in policy_rows(report, tag)] for tag in tags}
        want = {tag: [] for tag in tags}
        for cap in sorted(caps, key=lambda c: c.p_max):
            anchor = row_basis(profile, pp.baseline1_select(profile, r, cap, safe), true_counts)[3]
            for tag, baseline in (("baseline1", pp.baseline1_select), ("baseline2", pp.baseline2_select)):
                select = functools.partial(baseline, safe=safe)
                want[tag].append(one_cap_row(profile, cap, tag, select, r, true_counts, anchor))
            want["ours"].append(one_cap_row(profile, cap, "ours", pp.select_configuration_fast, r, true_counts, anchor))
            if with_counts:
                want["fastest"].append(
                    one_cap_row(profile, cap, "fastest", pp.fastest_configuration, counts, true_counts, anchor)
                )
        assert got == want


class TestBuildSensitivity:
    @pytest.mark.parametrize("empty, message", [("proxies", "no proxy relation vectors supplied"),
                                                ("targets", "no target counts supplied")])
    def test_an_empty_axis_is_rejected(self, profile_flip, relation_small, counts_small, empty, message):
        axes = {"proxies": {"p": relation_small}, "targets": {"t": counts_small}, empty: {}}
        with pytest.raises(pp.DataError) as exc:
            pp.build_sensitivity(profile_flip, axes["proxies"], axes["targets"], pp.PowerCap(7.0))
        assert str(exc.value) == message

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

    def test_proxy_pick_inside_the_fastest_tie_is_zero(self):
        # The fastest pick breaks the tie within TIE_REL_TOL toward (32, 614.0)
        # at 100.000000005 s; the proxy picks (8, 614.0), which realizes 100.0 s.
        profile = pp.DeviceProfile(
            model_id="tie",
            batch_sizes=(8, 32),
            frequencies=(307.0, 614.0),
            time_table=[[2.0, 1.0], [2.0, 1.00000000005]],
            power_table=[[1.0, 2.0], [1.5, 3.0]],
            samples_per_unit=100,
        )
        proxy, counts, cap = pp.RelationVector({8: 0.1, 32: 1.0}), {8: 100.0, 32: 100.0}, pp.PowerCap(10.0)
        fastest = pp.fastest_configuration(profile, counts, cap)
        assert (fastest.batch_size, fastest.frequency_mhz, fastest.estimated_tt_acc) == (32, 614.0, 100.000000005)
        assert pp.select_configuration_fast(profile, proxy, cap).batch_size == 8
        matrix = pp.build_sensitivity(profile, {"proxy": proxy}, {"truth": counts}, cap)
        assert matrix.values == ((0.0,),)

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
        with pytest.raises(pp.DataError, match="shape does not match id axes"):
            pp.SensitivityMatrix(5.0, ("a",), ("t",), [1.0])  # not rows


class TestBuildSweep:
    def test_relation_checked_without_caps(self, profile_flip, relation_small):
        r = pp.RelationVector({**relation_small.entries, 9: 0.5})
        with pytest.raises(pp.DataError, match=r"^relation vector names batch sizes not in profile: \[9\]$"):
            pp.build_sweep(profile_flip, r, [])

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
        # In the last, (max - min) / step plus the accumulation slack is exactly
        # MAX_CAP_LADDER: a ladder of MAX_CAP_LADDER + 1 caps.
        for args in [(1.0, float(MAX_CAP_LADDER + 1), 1.0), (0.001, 1e6, 1e-3), (1.0, math.inf, 1.0),
                     (1.0, 1.0 + (MAX_CAP_LADDER - 1e-9), 1.0)]:
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


def outcome(select, *args):
    """``select(*args)``, the text of the DataError it raises, or None for an InfeasibleError."""
    try:
        return select(*args)
    except pp.DataError as exc:
        return str(exc)
    except pp.InfeasibleError:
        return None


def assert_single_caps_match_brute_force(profile, r, caps):
    """``select_configuration_fast`` and ``fastest_configuration`` (on the
    ratios as counts) at each cap, against the exhaustive scan."""
    for cap in caps:
        for tag, select, multipliers in [
            ("ours", pp.select_configuration_fast, r),
            ("fastest", pp.fastest_configuration, r.entries),
        ]:
            want = outcome(brute_force_select, profile, r.entries, cap, tag)
            assert outcome(select, profile, multipliers, cap) == want


def last_tie(low):
    """The largest float that ties with ``low`` under the selector's rule."""
    x = low / (1 - TIE_REL_TOL)
    while not x - low <= TIE_REL_TOL * x:
        x = math.nextafter(x, 0.0)
    while math.nextafter(x, math.inf) - low <= TIE_REL_TOL * math.nextafter(x, math.inf):
        x = math.nextafter(x, math.inf)
    return x


# Where a planted row's lowest estimate lies against the minimum of the other rows.
EDGE_OFFSETS = {
    "at": lambda low: low,
    "one ulp above": lambda low: math.nextafter(low, math.inf),
    "inside the tolerance": lambda low: low * (1 + TIE_REL_TOL / 2),
    "last tie": last_tie,
    "first miss": lambda low: math.nextafter(last_tie(low), math.inf),
    "just beyond the slack": lambda low: low / (1 - 2 * TIE_REL_TOL) * (1 + 2e-12),
}


class TestPruningIsExact:
    """The kernel scans only the rows whose lowest estimate (at the last
    column) can still win or tie at a cap.  These profiles put one row's
    lowest estimate at a cap's minimum, next to it or at the edge of the tie
    tolerance, and plan the caps in every order, so the previous cap's winner
    leaves the feasible prefix."""

    @staticmethod
    def edge_profile(rng, offset):
        n_b, n_f = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        # Repeated increments give equal peaks, so caps on table entries tie with them.
        power = 1.0 + np.cumsum(np.cumsum(rng.choice([0.0, 0.25, 1.0], (n_b, n_f)), axis=0), axis=1)
        time = -np.sort(-rng.uniform(1.0, 100.0, (n_b, n_f)), axis=1)
        ratios = rng.uniform(0.05, 1.0, n_b)
        k = int(rng.integers(n_b))
        ratios[k] = 1.0  # the planted row: its estimates are its times, exactly
        # The minimum of the other rows where row k first runs at its last column.
        cap = float(power[k, -1]) + 0.125
        others = [
            float(time[i, np.flatnonzero(power[i] < cap)[-1]] * ratios[i])
            for i in range(n_b)
            if i != k and power[i, 0] < cap
        ]
        assume(others)
        time[k, -1] = EDGE_OFFSETS[offset](min(others))
        time[k, :-1] = time[k, -1] * (1 + np.cumsum(rng.uniform(0.0, 1.0, n_f - 1))[::-1])
        profile = pp.DeviceProfile(
            "edge", tuple(range(8, 8 * n_b + 1, 8)), tuple(100.0 * (j + 1) for j in range(n_f)), time, power, 1
        )
        r = pp.RelationVector(dict(zip(profile.batch_sizes, ratios.tolist())))
        caps = sorted({cap, math.inf, 0.5, *power.ravel().tolist(), *(power.ravel() + 0.125).tolist()})
        return profile, r, [pp.PowerCap(c) for c in caps]

    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from(sorted(EDGE_OFFSETS)),
        order=st.sampled_from(["ascending", "descending", "shuffled"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_bound_next_to_the_minimum(self, seed, offset, order):
        rng = np.random.default_rng(seed)
        profile, r, caps = self.edge_profile(rng, offset)
        if order == "descending":
            caps.reverse()
        elif order == "shuffled":
            caps = [caps[k] for k in rng.permutation(len(caps))]
        assert pp.build_sweep(profile, r, caps) == per_cap_brute_force(profile, r.entries, caps)
        assert_single_caps_match_brute_force(profile, r, caps)

    def test_pinned_tie_at_the_edge_of_the_tolerance(self):
        # Batch size 8 attains the minimum, 600; batch size 16's lowest estimate
        # is the last float that ties with it, so it wins, or the first that
        # does not, so it loses.  Planned after a cap that 8 wins.
        for last, winner in [(last_tie(600.0), 16), (math.nextafter(last_tie(600.0), math.inf), 8)]:
            profile = pp.DeviceProfile(
                "tie", (8, 16), (300.0, 600.0), [[900.0, 600.0], [2 * last, last]], [[3.0, 4.0], [3.5, 5.0]], 1
            )
            r = pp.RelationVector({8: 1.0, 16: 1.0})
            rows = pp.build_sweep(profile, r, [pp.PowerCap(4.5), pp.PowerCap(5.5)])
            assert [(row.batch_size, row.estimated_tt_acc) for row in rows] == [
                (8, 600.0), (winner, 600.0 if winner == 8 else last)
            ]

    def test_pinned_warm_start_leaves_the_prefix(self):
        # Batch size 32 wins under 5.5 W but does not fit under 3.2 W, where
        # its lowest estimate (10 s) would undercut every feasible row.
        profile = pp.DeviceProfile(
            "warm", (8, 32), (300.0, 600.0), [[90.0, 60.0], [50.0, 10.0]], [[3.0, 4.0], [3.5, 5.0]], 1
        )
        r = pp.RelationVector({8: 1.0, 32: 1.0})
        rows = pp.build_sweep(profile, r, [pp.PowerCap(5.5), pp.PowerCap(3.2), pp.PowerCap(4.5)])
        assert [(row.batch_size, row.frequency_mhz, row.estimated_tt_acc) for row in rows] == [
            (32, 600.0, 10.0), (8, 300.0, 90.0), (32, 300.0, 50.0)
        ]


class TestOutOfRangeProducts:
    """A valid time times a valid multiplier can overflow to inf or fall
    into the subnormal range.  Only a counts mapping can overflow (a ratio
    is at most 1), and an infinite estimate ties with no finite minimum."""

    def overflow_profile(self):
        # Batch size 32 overflows at 307 MHz (1e300 s times 1e9) but not at 921 MHz (1e9 s).
        profile = pp.DeviceProfile(
            "overflow", (8, 32), (307.0, 921.0), [[90.0, 60.0], [1e300, 1.0]], [[3.0, 4.0], [3.5, 5.0]], 1
        )
        return profile, {8: 10.0, 32: 1e9}

    def test_later_row_overflowing_at_low_frequency_never_ties(self):
        profile, counts = self.overflow_profile()
        # Under 4.5 W batch size 32 runs only at 307 MHz, where its estimate
        # overflows.  An infinite estimate ties with nothing finite, so batch
        # size 8's 600 s wins; under 5.5 W batch size 32's 1e9 s is far behind.
        for cap in (4.5, 5.5):
            sel = pp.fastest_configuration(profile, counts, pp.PowerCap(cap))
            assert (sel.batch_size, sel.frequency_mhz, sel.estimated_tt_acc, sel.feasible_count) == (8, 921.0, 600.0, 2)
        # After 5.5 W, with batch size 8 as the warm start, the overflowing row's bound (1e9 s) prunes it.
        assert [pick[:3] for pick in _select_caps(profile, counts, [5.5, 4.5])] == [(0, 1, 600.0)] * 2
        # With batch size 32 at 921 MHz taking 1e-8 s, its bound (10 s) is below 600 s, so under 4.5 W
        # its row is scanned; its infinite estimate at 307 MHz still loses.
        scanned = pp.DeviceProfile(
            "overflow", (8, 32), (307.0, 921.0), [[90.0, 60.0], [1e300, 1e-8]], [[3.0, 4.0], [3.5, 5.0]], 1
        )
        sel = pp.fastest_configuration(scanned, counts, pp.PowerCap(4.5))
        assert (sel.batch_size, sel.frequency_mhz, sel.estimated_tt_acc) == (8, 921.0, 600.0)
        # Only a cap whose every feasible estimate overflows is rejected.
        with pytest.raises(EntriesError, match="^estimated time to accuracy must be positive and finite$"):
            pp.fastest_configuration(profile, {8: 1e308, 32: 1e9}, pp.PowerCap(4.5))
        # A cap only batch size 8 fits is planned as ever.
        assert pp.fastest_configuration(profile, counts, pp.PowerCap(3.2)).batch_size == 8

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's numpy products
    def test_overflowing_products_select_as_a_full_scan(self, seed):
        rng = np.random.default_rng(seed)
        base, _ = random_profile(rng, with_avg_power=False)
        # Times near 1e300 s and counts up to 1e12: many products overflow,
        # and an infinite estimate ties with no finite one.
        profile = pp.DeviceProfile(
            "overflow", base.batch_sizes, base.frequencies,
            [[t * 1e300 for t in row] for row in base.time_rows], base.power_rows, base.samples_per_unit,
        )
        counts = dict(zip(profile.batch_sizes, (10.0 ** rng.uniform(0.0, 12.0, len(profile.batch_sizes))).tolist()))
        power = sorted({p for row in profile.power_rows for p in row})
        p_maxes = [*power[:: max(1, len(power) // 12)], math.inf]
        p_maxes = [p_maxes[k] for k in rng.permutation(len(p_maxes))]
        want = []
        for p_max in p_maxes:
            sel = outcome(brute_force_select, profile, counts, pp.PowerCap(p_max), "fastest")
            assert outcome(pp.fastest_configuration, profile, counts, pp.PowerCap(p_max)) == sel
            if isinstance(sel, pp.SelectionResult):
                i, j = profile.batch_index(sel.batch_size), profile.frequency_index(sel.frequency_mhz)
                sel = (i, j, sel.estimated_tt_acc)
            want.append(sel)
            if isinstance(sel, str):
                break
        # One pass over every cap, each warm-started from the last, up to the first error.
        got = []
        try:
            got.extend(None if pick is None else pick[:3] for pick in _select_caps(profile, counts, p_maxes))
        except pp.DataError as exc:
            got.append(str(exc))
        assert got == want

    @pytest.mark.parametrize(
        "ratio, message",
        [(1.0, "estimated energy must be positive"),
         (1e-120, f"estimated time to accuracy {1e-200 * 1e-120!r} is subnormal")],
    )
    def test_winning_pick_out_of_range_raises_at_its_cap(self, ratio, message):
        # Under 3.0 W batch size 32 wins at 600 MHz: 1e-200 s times a ratio of 1 at
        # an average 1e-200 W is 0 W·s, and times a ratio of 1e-120 it is subnormal.
        profile = out_of_range_pick_profile()
        r = pp.RelationVector({8: 1.0, 32: ratio})
        counts = dict(r.entries)
        safe = pp.SafeFrequencyTable({2.2: 300.0, 3.0: 300.0})
        caps = [pp.PowerCap(2.2), pp.PowerCap(3.0)]
        sel = pp.select_configuration_fast(profile, r, caps[0])
        assert (sel.batch_size, sel.frequency_mhz, sel.estimated_tt_acc, sel.estimated_energy) == (32, 300.0) + (ratio,) * 2
        assert pp.build_sweep(profile, r, caps[:1])[0].estimated_tt_acc == ratio
        for call, entries in [
            (lambda: pp.select_configuration_fast(profile, r, caps[1]), r.entries),
            (lambda: pp.fastest_configuration(profile, counts, caps[1]), counts),
            (lambda: pp.build_sweep(profile, r, caps), r.entries),
            (lambda: pp.build_comparison(profile, r, caps, safe), r.entries),
            (lambda: pp.build_comparison(profile, r, caps, safe, counts), r.entries),
        ]:
            with pytest.raises(EntriesError) as info:
                call()
            assert str(info.value) == message
            assert info.value.entries is entries
        # The baselines' safe 300 MHz keeps their picks in range.
        assert pp.baseline2_select(profile, r, caps[1], safe).estimated_energy == ratio

    def test_infinite_energy_raises_with_its_mapping(self):
        # Every estimate is finite, but 5e8 s at an average 1e300 W is past the float range.
        profile = infinite_energy_profile()
        r = pp.RelationVector({8: 1.0, 32: 0.5})
        counts = {8: 1.0, 32: 0.5}
        cap = pp.PowerCap(7.0)
        for call, entries in [
            (lambda: pp.select_configuration_fast(profile, r, cap), r.entries),
            (lambda: pp.fastest_configuration(profile, counts, cap), counts),
            (lambda: pp.baseline1_select(profile, r, cap, pp.SafeFrequencyTable({7.0: 614.0})), r.entries),
            (lambda: pp.build_sweep(profile, r, [cap]), r.entries),
            (lambda: pp.build_comparison(profile, r, [cap], pp.SafeFrequencyTable({7.0: 614.0})), r.entries),
        ]:
            with pytest.raises(EntriesError) as info:
                call()
            assert (str(info.value), info.value.entries) == ("estimated energy must be finite", entries)

    def test_realized_energy_out_of_range_names_the_counts(self):
        # Every pick's energy is finite (the fastest's is 1e8 s at 1e300 W), but
        # baseline 1 realizes 1e9 s at its safe 307 MHz: 1e309 J overflows.
        profile = infinite_energy_profile()
        r = pp.RelationVector({8: 1.0, 32: 1e-3})
        counts = {8: 1.0, 32: 0.1}
        safe = pp.SafeFrequencyTable({7.0: 307.0})
        assert pp.build_comparison(profile, r, [pp.PowerCap(7.0)], safe).rows[0].energy_j == 1e300 * 1e7
        with pytest.raises(EntriesError) as info:
            pp.build_comparison(profile, r, [pp.PowerCap(7.0)], safe, counts)
        assert (str(info.value), info.value.entries) == ("estimated energy must be finite", counts)

    @pytest.mark.parametrize(
        "count, message",
        [(1e-320, f"estimated time to accuracy {10.0 * 1e-320!r} is subnormal"),
         (1e308, "estimated time to accuracy must be positive and finite")],
    )
    def test_realized_time_out_of_range_names_the_counts(self, count, message):
        # Batch size 32 draws 5 W or more, so no selection under 4.5 W uses its
        # count; baseline 1 still runs it at the trusted safe 300 MHz, 10 s.
        profile = pp.DeviceProfile(
            "realized", (8, 32), (300.0, 600.0), [[90.0, 60.0], [10.0, 5.0]], [[3.0, 4.0], [5.0, 6.0]], 1
        )
        counts = {8: 10.0, 32: count}
        with pytest.raises(EntriesError) as info:
            pp.build_comparison(
                profile, pp.RelationVector({8: 1.0, 32: 1.0}), [pp.PowerCap(4.5)],
                pp.SafeFrequencyTable({4.5: 300.0}), counts,
            )
        assert (str(info.value), info.value.entries) == (message, counts)

    @pytest.mark.parametrize("seed", range(40))
    def test_subnormal_products_select_as_a_full_scan(self, seed):
        rng = np.random.default_rng(seed)
        base, _ = random_profile(rng, with_avg_power=False)
        # Times near 1e-300 and ratios down to 1e-27: over half the products
        # are subnormal and some underflow to 0.  The selection rejects a
        # subnormal or zero winner, and the oracle, built through
        # SelectionResult as well, rejects it with the same text.
        profile = pp.DeviceProfile(
            "subnormal", base.batch_sizes, base.frequencies,
            [[t * 1e-300 for t in row] for row in base.time_rows], base.power_rows, base.samples_per_unit,
        )
        ratios = 10.0 ** -rng.uniform(5.0, 27.0, len(base.batch_sizes))
        ratios[int(rng.integers(len(ratios)))] = 1.0
        r = pp.RelationVector(dict(zip(profile.batch_sizes, ratios.tolist())))
        power = sorted({p for row in profile.power_rows for p in row})
        caps = [pp.PowerCap(p) for p in [*power[:: max(1, len(power) // 12)], math.inf]]
        caps = [caps[k] for k in rng.permutation(len(caps))]
        assert outcome(pp.build_sweep, profile, r, caps) == outcome(per_cap_brute_force, profile, r.entries, caps)
        assert_single_caps_match_brute_force(profile, r, caps)


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

    @pytest.mark.parametrize("seed", range(24))
    def test_renderers_match_the_row_wise_reference(self, seed):
        rng = np.random.default_rng(seed)
        profile, _ = random_profile(rng, with_avg_power=bool(seed % 2))
        batches = profile.batch_sizes
        counts = random_counts(rng, batches)
        r = pp.relation_vector(counts)
        lo, hi = min(map(min, profile.power_rows)), max(map(max, profile.power_rows))
        # A cap below every peak (infeasible rows), an unlimited one and some in between.
        p_maxes = [lo * 0.5, math.inf, *rng.uniform(lo * 0.9, hi * 1.1, 8).tolist()]
        caps = [pp.PowerCap(p) for p in p_maxes]
        # A cap no frequency fits runs the baselines at the lowest one, trusted by construction.
        worst = [max(column) for column in zip(*profile.power_rows)]
        safe = pp.SafeFrequencyTable(
            {p: profile.frequencies[max(0, bisect.bisect_left(worst, p) - 1)] for p in p_maxes}
        )
        sweep = pp.build_sweep(profile, r, caps)
        report = pp.build_comparison(profile, r, caps, safe, counts if seed % 3 else None)
        proxies = {f"proxy-{k}": random_relation(rng, batches) for k in range(1 + seed % 3)}
        targets = {f"t{k}": random_counts(rng, batches) for k in range(1 + seed % 2)}
        matrices = [pp.build_sensitivity(profile, proxies, targets, cap) for cap in caps if cap.p_max > lo]
        matrices.append(pp.SensitivityMatrix(math.inf, ("a", "wide proxy id"), ("target",), [[12.25], [0.0]]))
        # The same rows built by hand: numpy-int batch sizes and int frequencies.
        hand_sweep = [
            SweepRow(row.p_max_w, np.int64(row.batch_size), int(row.frequency_mhz), row.estimated_tt_acc,
                     row.energy_j) if row.status == STATUS_OK else row
            for row in sweep
        ]
        hand_report = ComparisonReport(tuple(
            ComparisonRow(row.p_max_w, row.policy_tag, np.int32(row.batch_size), int(row.frequency_mhz),
                          *row._astuple()[4:]) if row.status == STATUS_OK else row
            for row in report.rows
        ))
        assert any(row.status == STATUS_INFEASIBLE for row in sweep)
        for sweep, report, matrices in [
            (sweep, report, matrices), (hand_sweep, hand_report, matrices), ((), ComparisonReport(()), []),
        ]:
            renders = (
                sweep_csv_rows(iter(sweep)), format_sweep_table(iter(sweep)),
                comparison_csv_rows(report), format_comparison_table(report),
                sensitivity_csv_rows(matrices), [format_sensitivity_table(m) for m in matrices],
            )
            assert renders == reference_renders(sweep, report, matrices)

    def test_library_built_rows_render_exactly(self):
        # A numpy batch size prints as an int, an int frequency as a float, and a missing
        # cell as "" in the CSV and "-" in the table.
        sweep = [SweepRow(5.0, np.int64(8), 614, 30, None), SweepRow(3.5, None, None, None, None, STATUS_INFEASIBLE)]
        assert sweep_csv_rows(sweep)[1:] == [
            ["5.0", "8", "614.0", "30.0", "", "ok"],
            ["3.5", "", "", "", "", "infeasible"],
        ]
        assert [line.split() for line in format_sweep_table(sweep).splitlines()[1:]] == [
            ["5.0", "8", "614", "30", "-", "ok"],
            ["3.5", "-", "-", "-", "-", "infeasible"],
        ]
        report = ComparisonReport((ComparisonRow(math.inf, "ours", np.int64(8), 614, 40, None, None, 1.5),))
        assert comparison_csv_rows(report)[1] == ["unlimited", "ours", "8", "614.0", "40.0", "", "", "1.5", "ok"]
        assert format_comparison_table(report).splitlines()[1].split() == [
            "unlimited", "ours", "8", "614", "40", "-", "-", "1.5"
        ]
