import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerplan as pp
from powerplan.core import _select_caps
from synth_corpus import (
    brute_force_feasible,
    brute_force_min_estimate,
    brute_force_select,
    plant_duplicate_row,
    random_cap,
    random_counts,
    random_profile,
    random_relation,
)


def tiny_profile(time, power, batch_sizes=(32,), frequencies=(307.0,), avg=None, s=4096):
    return pp.DeviceProfile(
        model_id="tiny",
        batch_sizes=batch_sizes,
        frequencies=frequencies,
        time_table=time,
        power_table=power,
        samples_per_unit=s,
        avg_power_table=avg,
    )


class TestPowerCap:
    def test_parse_watts(self):
        assert pp.PowerCap.parse("5.0").p_max == 5.0
        assert pp.PowerCap.parse(" 7 ").p_max == 7.0

    def test_parse_unlimited(self):
        cap = pp.PowerCap.parse("unlimited")
        assert cap.is_unlimited
        assert str(cap) == "unlimited"

    @pytest.mark.parametrize("bad", ["0", "-3", "nan", "watts"])
    def test_parse_rejects(self, bad):
        with pytest.raises(pp.DataError):
            pp.PowerCap.parse(bad)

    def test_strict_comparison_intent(self):
        # the cap itself is not feasible: power == cap must be excluded
        prof = tiny_profile([[10.0]], [[5.0]])
        assert len(pp.feasible_combinations(prof, pp.PowerCap(5.0))) == 0
        assert len(pp.feasible_combinations(prof, pp.PowerCap(5.0000001))) == 1


class TestRelationVector:
    def test_normalizes_counts(self):
        r = pp.relation_vector({8: 10, 32: 15})
        assert r.entries[8] == 10 / 15
        assert r.entries[32] == 1.0

    def test_single_entry(self):
        assert pp.relation_vector({64: 7}).entries == {64: 1.0}

    def test_exact_halving(self):
        r = pp.relation_vector({4: 100, 8: 50, 16: 25})
        assert dict(r.entries) == {4: 1.0, 8: 0.5, 16: 0.25}

    def test_empty_counts(self):
        with pytest.raises(pp.DataError, match="no batch sizes"):
            pp.relation_vector({})

    def test_nonpositive_count(self):
        with pytest.raises(pp.DataError, match="invalid count"):
            pp.relation_vector({8: 0})
        with pytest.raises(pp.DataError, match="invalid count"):
            pp.relation_vector({8: math.inf, 16: 1})

    def test_ratio_range_enforced(self):
        with pytest.raises(pp.DataError, match="out of range"):
            pp.RelationVector({8: 1.5, 16: 1.0})
        with pytest.raises(pp.DataError, match="exactly equal to 1"):
            pp.RelationVector({8: 0.5, 16: 0.9})

    @given(
        st.dictionaries(st.integers(1, 4096), st.integers(1, 10**6), min_size=1),
        st.integers(1, 10**3),
    )
    @settings(max_examples=300)
    def test_normalization_properties(self, counts, k):
        r = pp.relation_vector(counts)
        assert all(0.0 < v <= 1.0 for v in r.entries.values())
        assert any(v == 1.0 for v in r.entries.values())
        # integer scaling cancels exactly in the quotient
        scaled = pp.relation_vector({b: c * k for b, c in counts.items()})
        assert dict(scaled.entries) == dict(r.entries)

    def test_immutable(self):
        r = pp.relation_vector({8: 10, 32: 15})
        with pytest.raises(TypeError):
            r.entries[8] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.source_id = "other"


class TestDeviceProfileValidation:
    def test_rejects_dimension_mismatch(self):
        with pytest.raises(pp.DataError, match="dimension mismatch"):
            tiny_profile([[1.0, 2.0]], [[1.0]])

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(pp.DataError, match="strictly positive"):
            tiny_profile([[0.0]], [[1.0]])
        with pytest.raises(pp.DataError, match="strictly positive"):
            tiny_profile([[1.0]], [[-2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(pp.DataError, match="finite"):
            tiny_profile([[math.nan]], [[1.0]])

    def test_rejects_time_rising_with_frequency(self):
        with pytest.raises(pp.DataError, match="re-profile"):
            tiny_profile([[1.0, 2.0]], [[1.0, 2.0]], frequencies=(100.0, 200.0))

    def test_rejects_power_falling_with_frequency(self):
        with pytest.raises(pp.DataError, match="re-profile"):
            tiny_profile([[2.0, 1.0]], [[2.0, 1.0]], frequencies=(100.0, 200.0))

    def test_rejects_power_falling_with_batch(self):
        with pytest.raises(pp.DataError, match="re-profile"):
            tiny_profile([[2.0], [1.0]], [[2.0], [1.0]], batch_sizes=(8, 16))

    def test_rejects_unsorted_axes(self):
        with pytest.raises(pp.DataError, match="strictly increasing"):
            tiny_profile([[1.0], [1.0]], [[1.0], [1.0]], batch_sizes=(16, 8))
        with pytest.raises(pp.DataError, match="strictly increasing"):
            tiny_profile([[1.0, 1.0]], [[1.0, 1.0]], frequencies=(200.0, 100.0))

    def test_rejects_bad_samples_per_unit(self):
        with pytest.raises(pp.DataError, match="samples_per_unit"):
            tiny_profile([[1.0]], [[1.0]], s=0)

    def test_tables_are_frozen(self, profile_joint):
        with pytest.raises(ValueError):
            profile_joint.time_table[0, 0] = 1.0

    def test_array_views_match_rows(self, profile_joint):
        for name in ("time", "power", "avg_power"):
            view = getattr(profile_joint, f"{name}_table")
            assert view.dtype == np.float64 and not view.flags.writeable
            assert view.tolist() == [list(row) for row in getattr(profile_joint, f"{name}_rows")]

    def test_array_views_survive_replace(self, profile_joint):
        renamed = dataclasses.replace(profile_joint, model_id="renamed")
        assert renamed.time_rows == profile_joint.time_rows
        assert np.array_equal(renamed.power_table, profile_joint.power_table)
        assert not renamed.power_table.flags.writeable
        assert dataclasses.replace(renamed, model_id=profile_joint.model_id) == profile_joint
        halved = dataclasses.replace(profile_joint, avg_power_table=profile_joint.avg_power_table / 2)
        assert halved.avg_power_rows == tuple(tuple(w / 2 for w in row) for row in profile_joint.avg_power_rows)
        assert np.array_equal(halved.avg_power_table, profile_joint.avg_power_table / 2)
        assert halved.power_rows == profile_joint.power_rows

    def test_rows_hold_floats_from_any_nested_sequence(self):
        prof = tiny_profile(np.array([[3, 2]]), [(1, 2)], frequencies=(100.0, 200.0))
        assert prof.time_rows == ((3.0, 2.0),) and prof.power_rows == ((1.0, 2.0),)
        assert {type(v) for row in prof.time_rows + prof.power_rows for v in row} == {float}
        assert prof.avg_power_rows is None and prof.avg_power_table is None

    def test_axis_lookup(self, profile_joint):
        assert profile_joint.batch_index(128) == 1
        assert profile_joint.frequency_index(460.0) == 1
        with pytest.raises(pp.DataError, match="not in profile"):
            profile_joint.batch_index(12)
        with pytest.raises(pp.DataError, match="not in profile"):
            profile_joint.frequency_index(500.0)


class TestFeasibleCombinations:
    def test_joint_profile_under_five_watts(self, profile_joint):
        feas = pp.feasible_combinations(profile_joint, pp.PowerCap(5.0))
        assert feas.to_values(profile_joint) == ((64, 460.0), (128, 307.0))

    def test_cap_below_every_measurement(self, profile_joint):
        feas = pp.feasible_combinations(profile_joint, pp.PowerCap(3.0))
        assert len(feas) == 0  # an empty feasible set is a legal value

    def test_unlimited_gives_max_frequency_everywhere(self, profile_joint):
        feas = pp.feasible_combinations(profile_joint, pp.PowerCap.unlimited())
        assert feas.to_values(profile_joint) == ((64, 921.0), (128, 921.0))

    def test_matches_exhaustive_scan_on_random_corpus(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            profile, _ = random_profile(rng)
            cap = random_cap(rng, profile)
            feas = dict(pp.feasible_combinations(profile, cap).pairs)
            assert feas == brute_force_feasible(profile, cap)

    def test_pair_validation(self):
        with pytest.raises(pp.DataError, match="ascending"):
            pp.FeasibleSet(((1, 0), (0, 1)))
        with pytest.raises(pp.DataError, match="non-negative"):
            pp.FeasibleSet(((-1, 0),))


class TestEstimateTtAcc:
    def test_plain_multiplication(self):
        r = pp.relation_vector({32: 1, 64: 2})  # ratio 0.5 for b=32
        prof = tiny_profile([[25.6], [20.0]], [[4.0], [4.5]], batch_sizes=(32, 64))
        assert pp.estimate_tt_acc(prof, r, (0, 0)) == 12.8

    def test_identity_ratio(self, profile_joint, relation_uniform):
        assert pp.estimate_tt_acc(profile_joint, relation_uniform, (1, 0)) == 36.0

    def test_flip_profile_ordering_under_low_cap(self, profile_flip, relation_small):
        # at the lowest cap, b=8 runs at 460 MHz and b=32 at 307 MHz
        est_b8 = pp.estimate_tt_acc(profile_flip, relation_small, (0, 1))
        est_b32 = pp.estimate_tt_acc(profile_flip, relation_small, (1, 0))
        assert est_b8 < est_b32

    def test_missing_entry(self, profile_joint):
        r = pp.RelationVector({64: 1.0})
        with pytest.raises(pp.DataError, match="relation vector incomplete"):
            pp.estimate_tt_acc(profile_joint, r, (1, 0))

    def test_index_range(self, profile_joint, relation_uniform):
        with pytest.raises(pp.DataError, match="out of range"):
            pp.estimate_tt_acc(profile_joint, relation_uniform, (2, 0))


class TestSelectConfiguration:
    def test_smaller_batch_higher_frequency_wins(self, profile_joint, relation_uniform):
        sel = pp.select_configuration(profile_joint, relation_uniform, pp.PowerCap(5.0))
        assert (sel.batch_size, sel.frequency_mhz) == (64, 460.0)
        baseline_time = profile_joint.time_table[1, 0]
        reduction = (baseline_time - sel.estimated_tt_acc) / baseline_time
        assert reduction == pytest.approx(0.319, abs=1e-3)
        assert sel.feasible_count == 2
        assert sel.policy_tag == "ours"

    @pytest.mark.parametrize(
        "cap_w,expected_b", [(4.5, 8), (5.0, 8), (7.0, 32), (math.inf, 32)]
    )
    def test_best_batch_flips_with_cap(self, profile_flip, relation_small, cap_w, expected_b):
        sel = pp.select_configuration(profile_flip, relation_small, pp.PowerCap(cap_w))
        assert sel.batch_size == expected_b

    def test_single_cell_profile(self):
        prof = tiny_profile([[10.0]], [[2.0]])
        r = pp.RelationVector({32: 1.0})
        sel = pp.select_configuration(prof, r, pp.PowerCap(9.0))
        assert (sel.batch_size, sel.frequency_mhz) == (32, 307.0)

    def test_empty_feasible_set(self, profile_joint, relation_uniform):
        with pytest.raises(pp.InfeasibleError, match="no configuration satisfies power cap"):
            pp.select_configuration(profile_joint, relation_uniform, pp.PowerCap(3.0))

    def test_missing_feasible_batch_is_hard_error(self, profile_joint):
        r = pp.RelationVector({64: 1.0})
        with pytest.raises(pp.DataError, match="relation vector incomplete"):
            pp.select_configuration(profile_joint, r, pp.PowerCap(5.0))

    def test_unknown_relation_batch_rejected(self, profile_joint):
        r = pp.RelationVector({64: 1.0, 128: 1.0, 256: 1.0})
        with pytest.raises(pp.DataError, match="not in profile"):
            pp.select_configuration(profile_joint, r, pp.PowerCap(5.0))

    def test_selected_pair_is_strictly_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            profile, _ = random_profile(rng)
            r = random_relation(rng, profile.batch_sizes)
            cap = random_cap(rng, profile)
            try:
                sel = pp.select_configuration(profile, r, cap)
            except pp.InfeasibleError:
                continue
            i = profile.batch_index(sel.batch_size)
            j = profile.frequency_index(sel.frequency_mhz)
            assert profile.power_table[i, j] < cap.p_max

    def test_energy_reported_only_with_avg_power(self, profile_joint, relation_uniform):
        sel = pp.select_configuration(profile_joint, relation_uniform, pp.PowerCap(5.0))
        assert sel.estimated_energy == pytest.approx(4.3 * 24.516)
        rng = np.random.default_rng(3)
        bare, _ = random_profile(rng, with_avg_power=False)
        sel = pp.select_configuration(
            bare, random_relation(rng, bare.batch_sizes), pp.PowerCap.unlimited()
        )
        assert sel.estimated_energy is None


class TestFastPathEquivalence:
    """``select_configuration`` is an alias; both names must match the oracle."""

    def test_named_cases(self, profile_joint, profile_flip, relation_uniform, relation_small):
        cases = [
            (profile_joint, relation_uniform, pp.PowerCap(5.0)),
            (profile_flip, relation_small, pp.PowerCap(4.5)),
            (profile_flip, relation_small, pp.PowerCap(7.0)),
        ]
        for prof, r, cap in cases:
            expected = brute_force_select(prof, r.entries, cap)
            assert pp.select_configuration(prof, r, cap) == expected
            assert pp.select_configuration_fast(prof, r, cap) == expected

    def test_single_frequency_rows_degenerate(self):
        prof = tiny_profile([[10.0], [8.0]], [[2.0], [3.0]], batch_sizes=(8, 16))
        r = pp.relation_vector({8: 3, 16: 4})
        cap = pp.PowerCap(2.5)
        assert pp.select_configuration_fast(prof, r, cap) == brute_force_select(prof, r.entries, cap)

    def test_random_corpus_identical(self):
        # Half the profiles carry a planted duplicate row with equal
        # multipliers, so exact ties at the minimum occur.
        rng = np.random.default_rng(22)
        decisive_ties = 0
        for n in range(1000):
            profile, _ = random_profile(rng)
            counts = random_counts(rng, profile.batch_sizes)
            if n % 2 and len(profile.batch_sizes) > 1:
                profile, k = plant_duplicate_row(rng, profile)
                counts[profile.batch_sizes[k]] = counts[profile.batch_sizes[k - 1]]
            r = pp.relation_vector(counts)
            cap = random_cap(rng, profile)
            for select, arg, multipliers, tag in (
                (pp.select_configuration_fast, r, r.entries, "ours"),
                (pp.fastest_configuration, counts, counts, "fastest"),
            ):
                expected = brute_force_select(profile, multipliers, cap, tag)
                if expected is None:
                    with pytest.raises(pp.InfeasibleError):
                        select(profile, arg, cap)
                    continue
                assert select(profile, arg, cap) == expected
                i = profile.batch_index(expected.batch_size)
                decisive_ties += bool(
                    i and np.array_equal(profile.time_table[i], profile.time_table[i - 1])
                    and multipliers[profile.batch_sizes[i - 1]] == multipliers[expected.batch_size]
                )
        assert decisive_ties >= 100  # the planted ties must reach the argmin


class TestTieBreaking:
    def test_equal_estimates_prefer_larger_batch(self):
        # identical rows and a uniform relation vector make the estimates
        # exactly equal across batch sizes
        prof = tiny_profile(
            [[10.0, 8.0], [10.0, 8.0]],
            [[2.0, 3.0], [2.0, 3.0]],
            batch_sizes=(8, 16),
            frequencies=(100.0, 200.0),
        )
        r = pp.RelationVector({8: 1.0, 16: 1.0})
        sel = pp.select_configuration(prof, r, pp.PowerCap.unlimited())
        assert sel.batch_size == 16
        assert pp.select_configuration_fast(prof, r, pp.PowerCap.unlimited()) == sel

    def test_same_batch_ties_prefer_higher_frequency(self):
        # the kernel keeps one cell per batch, its highest feasible
        # frequency, so equal times at two frequencies go to the higher one
        prof = tiny_profile(
            [[10.0, 10.0]], [[2.0, 2.0]], frequencies=(100.0, 200.0)
        )
        ((i, j, sel),) = _select_caps(prof, {32: 1.0}, [math.inf], "ours")
        assert (i, j) == (0, 1)
        assert sel.frequency_mhz == 200.0

    def test_near_ties_within_tolerance_are_deterministic(self):
        t = 10.0
        prof = tiny_profile(
            [[t * (1.0 + 2e-10)], [t]],
            [[2.0], [2.0]],
            batch_sizes=(8, 16),
        )
        r = pp.RelationVector({8: 1.0, 16: 1.0})
        sel = pp.select_configuration(prof, r, pp.PowerCap.unlimited())
        assert sel.batch_size == 16

    def test_near_tie_chain_judged_against_global_minimum(self):
        # b=2 is within tolerance of the minimum at b=1; b=3 is within
        # tolerance of b=2 but 1.8e-9 relative above the minimum, so a tie
        # judged against the running best would drift to it.
        t = 10.0
        prof = tiny_profile(
            [[t], [t * (1.0 + 0.9e-9)], [t * (1.0 + 1.8e-9)]],
            [[2.0], [2.0], [2.0]],
            batch_sizes=(1, 2, 3),
        )
        r = pp.RelationVector({1: 1.0, 2: 1.0, 3: 1.0})
        cap = pp.PowerCap.unlimited()
        assert pp.select_configuration(prof, r, cap).batch_size == 2
        assert pp.select_configuration_fast(prof, r, cap).batch_size == 2
        assert pp.fastest_configuration(prof, {1: 1, 2: 1, 3: 1}, cap).batch_size == 2


class TestArgminScaleInvariance:
    def test_counts_scaling_preserves_selection(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            profile, _ = random_profile(rng)
            counts = random_counts(rng, profile.batch_sizes)
            cap = random_cap(rng, profile)
            k = float(rng.uniform(0.1, 50.0))
            try:
                base = pp.fastest_configuration(profile, counts, cap)
            except pp.InfeasibleError:
                continue
            scaled = pp.fastest_configuration(
                profile, {b: c * k for b, c in counts.items()}, cap
            )
            assert (scaled.batch_size, scaled.frequency_mhz) == (
                base.batch_size,
                base.frequency_mhz,
            )

    def test_renormalized_relation_matches_counts_argmin(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            profile, _ = random_profile(rng)
            counts = random_counts(rng, profile.batch_sizes)
            cap = random_cap(rng, profile)
            r = pp.relation_vector(counts)
            try:
                ours = pp.select_configuration(profile, r, cap)
            except pp.InfeasibleError:
                continue
            fastest = pp.fastest_configuration(profile, counts, cap)
            assert (ours.batch_size, ours.frequency_mhz) == (
                fastest.batch_size,
                fastest.frequency_mhz,
            )


class TestCapMonotonicity:
    def test_larger_cap_never_slower(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            profile, _ = random_profile(rng)
            r = random_relation(rng, profile.batch_sizes)
            lo = float(profile.power_table.min())
            hi = float(profile.power_table.max())
            caps = [pp.PowerCap(w) for w in np.linspace(lo * 0.9, hi * 1.1, 6)]
            caps.append(pp.PowerCap.unlimited())
            prev_tt = None
            for cap in caps:
                try:
                    sel = pp.select_configuration(profile, r, cap)
                except pp.InfeasibleError:
                    assert prev_tt is None  # feasibility is monotone in the cap
                    continue
                if prev_tt is not None:
                    assert sel.estimated_tt_acc <= prev_tt
                prev_tt = sel.estimated_tt_acc


class TestOracleEquivalenceSampled:
    def test_selection_attains_brute_force_minimum(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            profile, _ = random_profile(rng)
            r = random_relation(rng, profile.batch_sizes)
            cap = random_cap(rng, profile)
            best = brute_force_min_estimate(profile, r.entries, cap)
            if best is None:
                with pytest.raises(pp.InfeasibleError):
                    pp.select_configuration(profile, r, cap)
                continue
            sel = pp.select_configuration(profile, r, cap)
            assert sel.estimated_tt_acc == best
