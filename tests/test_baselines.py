import math
import sys

import numpy as np
import pytest

import powerplan as pp
from synth_corpus import (
    distorted_relation,
    random_counts,
    random_profile,
    random_relation,
    selection_energy,
)


class TestSafeFrequencyTable:
    def test_fixture_lookup(self, safe_small):
        assert safe_small.frequency_for(pp.PowerCap(4.5)) == 307.0
        assert safe_small.frequency_for(pp.PowerCap.unlimited()) == 921.0

    def test_missing_cap(self, safe_small):
        with pytest.raises(pp.DataError, match="does not define cap 6.0"):
            safe_small.frequency_for(pp.PowerCap(6.0))

    def test_must_be_non_decreasing(self):
        with pytest.raises(pp.DataError, match="non-decreasing"):
            pp.SafeFrequencyTable({4.5: 600.0, 7.0: 300.0})

    def test_parse_rejects_duplicates_and_junk(self):
        with pytest.raises(pp.ParseError, match="duplicate cap"):
            pp.parse_safe_table("4.5,307\n4.5,614\n")
        with pytest.raises(pp.ParseError, match="line 1"):
            pp.parse_safe_table("4.5\n")

    def test_format_round_trip(self, safe_small):
        again = pp.parse_safe_table(pp.format_safe_table(safe_small))
        assert dict(again.entries) == dict(safe_small.entries)

    def test_computed_table_matches_committed_fixtures(
        self, profile_joint, profile_flip, safe_shared, safe_small, data_dir
    ):
        caps = [pp.PowerCap(5.0), pp.PowerCap(7.0), pp.PowerCap.unlimited()]
        computed = pp.compute_safe_table([profile_joint, profile_flip], caps)
        assert dict(computed.entries) == dict(safe_shared.entries)
        caps_small = [pp.PowerCap(4.5)] + caps
        computed_small = pp.compute_safe_table([profile_flip], caps_small)
        assert dict(computed_small.entries) == dict(safe_small.entries)

    def test_compute_errors(self, profile_joint, profile_flip):
        with pytest.raises(pp.DataError, match="no frequency is safe"):
            pp.compute_safe_table([profile_joint], [pp.PowerCap(1.0)])
        other = pp.DeviceProfile(
            model_id="other-axis",
            batch_sizes=(8,),
            frequencies=(100.0,),
            time_table=[[1.0]],
            power_table=[[1.0]],
            samples_per_unit=4,
        )
        with pytest.raises(pp.DataError, match="differing frequency axes"):
            pp.compute_safe_table([profile_joint, other], [pp.PowerCap(5.0)])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: pp.SafeFrequencyTable({5.0: 0.0}), "safe frequency for cap 5.0 must be positive"),
            (lambda: pp.SafeFrequencyTable({5.0: -307.0}), "safe frequency for cap 5.0 must be positive"),
            (lambda: pp.compute_safe_table([], [pp.PowerCap(5.0)]), "no profiles supplied"),
        ],
    )
    def test_rejected_inputs_name_their_fault(self, build, message):
        with pytest.raises(pp.DataError) as exc:
            build()
        assert str(exc.value) == message

    def test_computed_table_is_feasible_by_construction(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            profile, _ = random_profile(rng)
            lo, hi = float(profile.power_table.min()), float(profile.power_table.max())
            cap = pp.PowerCap(float(rng.uniform(lo, hi * 1.2)))
            try:
                safe = pp.compute_safe_table([profile], [cap])
            except pp.DataError:
                continue
            j = profile.frequency_index(safe.frequency_for(cap))
            assert np.all(profile.power_table[:, j] < cap.p_max)


class TestBaseline1:
    def test_largest_batch_at_capped_frequency(self, profile_joint, relation_uniform, safe_small):
        sel = pp.baseline1_select(profile_joint, relation_uniform, pp.PowerCap(4.5), safe_small)
        assert (sel.batch_size, sel.frequency_mhz) == (128, 307.0)
        assert sel.estimated_tt_acc == 36.0  # raw T_s: the ratio of b=128 is 1.0
        assert sel.policy_tag == "baseline1"
        assert sel.feasible_count == 1

    def test_trusts_safe_table_without_cap_check(self, profile_joint, relation_uniform, safe_small):
        # (128, 307) draws 4.6 W, over the 4.5 W cap; the table is trusted anyway
        sel = pp.baseline1_select(profile_joint, relation_uniform, pp.PowerCap(4.5), safe_small)
        i = profile_joint.batch_index(sel.batch_size)
        j = profile_joint.frequency_index(sel.frequency_mhz)
        assert profile_joint.power_table[i, j] >= 4.5

    def test_uses_relation_when_supplied(self, profile_flip, relation_small, safe_small):
        sel = pp.baseline1_select(profile_flip, relation_small, pp.PowerCap(4.5), safe_small)
        assert sel.batch_size == 32
        assert sel.estimated_tt_acc == 52.0 * 1.0

    def test_safe_frequency_must_be_on_axis(self, profile_joint, relation_uniform):
        off_axis = pp.SafeFrequencyTable({5.0: 533.0})
        with pytest.raises(pp.DataError, match="not in profile"):
            pp.baseline1_select(profile_joint, relation_uniform, pp.PowerCap(5.0), off_axis)

    def test_relation_checked_after_safe_frequency(self, profile_joint, safe_shared):
        no_largest = pp.RelationVector({64: 1.0})
        with pytest.raises(pp.DataError, match="frequency 533.0 MHz not in profile"):
            pp.baseline1_select(profile_joint, no_largest, pp.PowerCap(5.0), pp.SafeFrequencyTable({5.0: 533.0}))
        with pytest.raises(pp.DataError, match="relation vector incomplete: no entry for batch size 128"):
            pp.baseline1_select(profile_joint, no_largest, pp.PowerCap(5.0), safe_shared)
        with pytest.raises(pp.DataError, match="not in profile: \\[256\\]"):
            pp.baseline1_select(profile_joint, pp.RelationVector({128: 1.0, 256: 1.0}), pp.PowerCap(5.0), safe_shared)

    def test_single_batch_profile(self, safe_small):
        prof = pp.DeviceProfile(
            model_id="one-batch",
            batch_sizes=(16,),
            frequencies=(307.0, 614.0),
            time_table=[[4.0, 2.0]],
            power_table=[[2.0, 3.0]],
            samples_per_unit=64,
        )
        sel = pp.baseline1_select(prof, pp.RelationVector({16: 1.0}), pp.PowerCap(7.0), safe_small)
        assert sel.batch_size == 16


class TestBaseline2:
    def test_picks_best_ratio_batch(self, profile_flip, relation_small, safe_small):
        sel = pp.baseline2_select(profile_flip, relation_small, pp.PowerCap(4.5), safe_small)
        assert (sel.batch_size, sel.frequency_mhz) == (8, 307.0)
        assert sel.policy_tag == "baseline2"
        assert sel.feasible_count == 2

    def test_uniform_ratios_degenerate_to_baseline1(self, profile_joint, relation_uniform, safe_shared):
        cap = pp.PowerCap(5.0)
        b2 = pp.baseline2_select(profile_joint, relation_uniform, cap, safe_shared)
        b1 = pp.baseline1_select(profile_joint, relation_uniform, cap, safe_shared)
        assert (b2.batch_size, b2.frequency_mhz) == (b1.batch_size, b1.frequency_mhz)
        assert b2.estimated_tt_acc == b1.estimated_tt_acc

    def test_near_tie_chain_judged_against_global_minimum(self):
        # b=3 is within tolerance of b=2 but not of the minimum at b=1
        prof = pp.DeviceProfile(
            model_id="chain",
            batch_sizes=(1, 2, 3, 4),
            frequencies=(307.0,),
            time_table=[[4.0], [4.0], [4.0], [4.0]],
            power_table=[[2.0], [2.0], [2.0], [2.0]],
            samples_per_unit=64,
        )
        r = pp.RelationVector({1: 0.5, 2: 0.5 * (1.0 + 0.9e-9), 3: 0.5 * (1.0 + 1.8e-9), 4: 1.0})
        safe = pp.SafeFrequencyTable({5.0: 307.0})
        sel = pp.baseline2_select(prof, r, pp.PowerCap(5.0), safe)
        assert sel.batch_size == 2
        assert sel.estimated_tt_acc == 4.0 * r.entries[2]

    def test_requires_full_profile_coverage(self, profile_joint, safe_shared):
        partial = pp.RelationVector({64: 1.0})
        with pytest.raises(pp.DataError, match="relation vector incomplete"):
            pp.baseline2_select(profile_joint, partial, pp.PowerCap(5.0), safe_shared)

    def test_relation_checked_after_safe_frequency(self, profile_joint, safe_shared):
        # Baseline 1's check order: the cap's safe frequency, then the relation's keys, then its entries.
        no_smallest = pp.RelationVector({128: 1.0})
        with pytest.raises(pp.DataError, match="frequency 533.0 MHz not in profile"):
            pp.baseline2_select(profile_joint, no_smallest, pp.PowerCap(5.0), pp.SafeFrequencyTable({5.0: 533.0}))
        with pytest.raises(pp.DataError, match="safe-frequency table does not define cap 5.0"):
            pp.baseline2_select(profile_joint, no_smallest, pp.PowerCap(5.0), pp.SafeFrequencyTable({6.0: 307.0}))
        with pytest.raises(pp.DataError, match="relation vector incomplete: no entry for batch size 64"):
            pp.baseline2_select(profile_joint, no_smallest, pp.PowerCap(5.0), safe_shared)
        with pytest.raises(pp.DataError, match="not in profile: \\[256\\]"):
            pp.baseline2_select(profile_joint, pp.RelationVector({64: 1.0, 256: 1.0}), pp.PowerCap(5.0), safe_shared)


class TestFastestConfiguration:
    def test_proportional_proxy_matches_ours(self, profile_flip, relation_small, counts_small):
        cap = pp.PowerCap(4.5)
        ours = pp.select_configuration_fast(profile_flip, relation_small, cap)
        fastest = pp.fastest_configuration(profile_flip, counts_small, cap)
        assert (fastest.batch_size, fastest.frequency_mhz) == (ours.batch_size, ours.frequency_mhz)
        assert fastest.policy_tag == "fastest"

    @pytest.mark.parametrize("cap_w,expected_b", [(4.5, 8), (7.0, 32)])
    def test_flip_profile_true_counts(self, profile_flip, counts_small, cap_w, expected_b):
        sel = pp.fastest_configuration(profile_flip, counts_small, pp.PowerCap(cap_w))
        assert sel.batch_size == expected_b

    def test_reports_absolute_seconds(self, profile_flip, counts_small):
        sel = pp.fastest_configuration(profile_flip, counts_small, pp.PowerCap(4.5))
        assert sel.estimated_tt_acc == 60.0 * 10  # T(8, 460) * N(8)

    def test_empty_feasible_set(self, profile_flip, counts_small):
        with pytest.raises(pp.InfeasibleError):
            pp.fastest_configuration(profile_flip, counts_small, pp.PowerCap(2.0))

    def test_count_validation(self, profile_flip):
        with pytest.raises(pp.DataError, match="invalid count"):
            pp.fastest_configuration(profile_flip, {8: -1, 32: 5}, pp.PowerCap(4.5))
        with pytest.raises(pp.DataError, match="not in profile"):
            pp.fastest_configuration(profile_flip, {8: 1, 32: 2, 999: 3}, pp.PowerCap(4.5))

    def test_infinite_estimates_rejected(self, profile_flip):
        # infinite counts are rejected before selection
        with pytest.raises(pp.DataError, match="invalid count"):
            pp.fastest_configuration(profile_flip, {8: math.inf, 32: math.inf}, pp.PowerCap(7.0))
        # and so is an integer count past the float range on a batch size a cap reaches
        with pytest.raises(pp.DataError) as exc:
            pp.fastest_configuration(profile_flip, {8: 10**400, 32: 15}, pp.PowerCap(7.0))
        assert str(exc.value) == f"invalid count for batch size 8: {10**400!r}"

    def test_overflowing_estimates_rejected(self, profile_flip):
        # finite counts whose products with every feasible time overflow
        for counts in ({8: 1e308, 32: 1.7e308}, {8: 1.7e308, 32: 9e307}):
            with pytest.raises(pp.DataError) as exc:
                pp.fastest_configuration(profile_flip, counts, pp.PowerCap(7.0))
            assert str(exc.value) == "estimated time to accuracy must be positive and finite"
        # one overflowing estimate just loses to the finite one
        sel = pp.fastest_configuration(profile_flip, {8: 1.7e308, 32: 1.0}, pp.PowerCap(7.0))
        assert (sel.batch_size, math.isfinite(sel.estimated_tt_acc)) == (32, True)

    def test_subnormal_estimates_rejected(self, profile_flip):
        # Normal counts whose products with every feasible time fall below the normal floats.
        with pytest.raises(pp.DataError) as exc:
            pp.fastest_configuration(profile_flip, {8: 1e-320, 32: 1e-320}, pp.PowerCap(7.0))
        assert str(exc.value).endswith(" is subnormal")
        tiny = sys.float_info.min
        assert pp.SelectionResult(8, 100.0, tiny, 1, "ours").estimated_tt_acc == tiny
        below = math.nextafter(tiny, 0.0)
        with pytest.raises(pp.DataError) as exc:
            pp.SelectionResult(8, 100.0, below, 1, "ours")
        assert str(exc.value) == f"estimated time to accuracy {below!r} is subnormal"
        for tt in (0.0, math.inf):
            with pytest.raises(pp.DataError, match="^estimated time to accuracy must be positive and finite$"):
                pp.SelectionResult(8, 100.0, tt, 1, "ours")

    def test_count_of_unreachable_batch_never_converted(self, profile_flip):
        # an int count with no float form, on a batch no cap here reaches (b=32 peaks at 4.2 W and up)
        sel = pp.fastest_configuration(profile_flip, {8: 5, 32: 10**400}, pp.PowerCap(4.0))
        assert (sel.batch_size, sel.estimated_tt_acc) == (8, 450.0)

    def test_upper_bound_against_distorted_proxies(self):
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(200):
            profile, _ = random_profile(rng)
            counts = random_counts(rng, profile.batch_sizes)
            proxy = distorted_relation(rng, counts)
            lo, hi = float(profile.power_table.min()), float(profile.power_table.max())
            cap = pp.PowerCap(float(rng.uniform(lo * 0.95, hi * 1.1)))
            try:
                ours = pp.select_configuration_fast(profile, proxy, cap)
            except pp.InfeasibleError:
                continue
            fastest = pp.fastest_configuration(profile, counts, cap)
            i = profile.batch_index(ours.batch_size)
            j = profile.frequency_index(ours.frequency_mhz)
            ours_realized = float(profile.time_table[i, j] * counts[ours.batch_size])
            assert fastest.estimated_tt_acc <= ours_realized
            checked += 1
        assert checked > 100


class TestDominance:
    def test_ours_never_slower_than_baselines(self):
        rng = np.random.default_rng(72)
        checked = 0
        for _ in range(300):
            profile, _ = random_profile(rng)
            r = random_relation(rng, profile.batch_sizes)
            lo, hi = float(profile.power_table.min()), float(profile.power_table.max())
            cap = pp.PowerCap(float(rng.uniform(lo, hi * 1.2)))
            try:
                safe = pp.compute_safe_table([profile], [cap])
            except pp.DataError:
                continue
            ours = pp.select_configuration_fast(profile, r, cap)
            b1 = pp.baseline1_select(profile, r, cap, safe)
            b2 = pp.baseline2_select(profile, r, cap, safe)
            assert ours.estimated_tt_acc <= b1.estimated_tt_acc
            assert ours.estimated_tt_acc <= b2.estimated_tt_acc
            checked += 1
        assert checked > 150


class TestEnergyEstimate:
    """Energy at a selection, from the ``selection_energy`` oracle and from the library's energy fields."""

    def test_plain_multiplication(self):
        prof = pp.DeviceProfile(
            model_id="energy",
            batch_sizes=(8,),
            frequencies=(100.0,),
            time_table=[[50.0]],
            power_table=[[5.0]],
            samples_per_unit=64,
            avg_power_table=[[4.0]],
        )
        sel = pp.SelectionResult(8, 100.0, 100.0, 1, "ours")
        assert selection_energy(sel, prof, 2.0) == 400.0  # 4 W * (50 s * 2)
        assert pp.fastest_configuration(prof, {8: 2.0}, pp.PowerCap.unlimited()).estimated_energy == 400.0

    def test_linearity_in_multiplier(self, profile_flip):
        sel = pp.select_configuration_fast(
            profile_flip, pp.RelationVector({8: 1.0, 32: 1.0}), pp.PowerCap(4.5)
        )
        once = selection_energy(sel, profile_flip, 0.5)
        twice = selection_energy(sel, profile_flip, 1.0)
        assert twice == 2.0 * once
        assert twice == sel.estimated_energy

    def test_time_optimal_is_not_always_energy_optimal(self):
        # pinned witness: the joint selector beats baseline2 on time yet
        # spends more energy, because the higher frequency costs more watts
        # than it saves seconds
        rng = np.random.default_rng(129)
        profile, _ = random_profile(rng, max_batches=6, max_freqs=12)
        counts = random_counts(rng, profile.batch_sizes)
        r = pp.relation_vector(counts, source_id="self")
        lo, hi = float(profile.power_table.min()), float(profile.power_table.max())
        cap = pp.PowerCap(float(rng.uniform(lo, hi)))
        safe = pp.compute_safe_table([profile], [cap])
        ours = pp.select_configuration_fast(profile, r, cap)
        b2 = pp.baseline2_select(profile, r, cap, safe)

        def realized(sel):
            i = profile.batch_index(sel.batch_size)
            j = profile.frequency_index(sel.frequency_mhz)
            return float(profile.time_table[i, j] * counts[sel.batch_size])

        assert realized(b2) > realized(ours)
        assert selection_energy(b2, profile, counts[b2.batch_size]) < selection_energy(
            ours, profile, counts[ours.batch_size]
        )
        # compare's energy column holds the same joules
        report = pp.build_comparison(profile, r, [cap], safe, true_counts=counts)
        energy = {row.policy_tag: row.energy_j for row in report.rows}
        assert energy["baseline2"] == selection_energy(b2, profile, counts[b2.batch_size])
        assert energy["ours"] == selection_energy(ours, profile, counts[ours.batch_size])
