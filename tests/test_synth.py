import numpy as np
import pytest

import powerplan as pp
from synth_corpus import random_device_params, random_grid


def flat_voltage(v=1.0):
    return ((100.0, v),)


def make_params(**overrides):
    defaults = dict(
        p_static=1.5,
        power_coeff=0.005,
        voltage_curve=flat_voltage(),
        parallel_cap=64,
        per_sample_cost=2.0,
        freq_efficiency=100.0,
        rng_seed=0,
        noise_level=0.0,
    )
    defaults.update(overrides)
    return pp.SynthDeviceParams(**defaults)


def cell(b, f, params, s=4096):
    """The one cell of a generated 1x1 profile: (time, peak power)."""
    prof = pp.generate_profile((b,), (f,), params, s)
    return prof.time_table[0, 0], prof.power_table[0, 0]


class TestSynthPower:
    def test_unit_voltage_saturated_batch(self):
        # at V=1 and a fully saturated batch the dynamic term is coeff * f
        params = make_params()
        f = 400.0
        assert cell(64, f, params)[1] == 1.5 + 0.005 * f
        assert cell(128, f, params)[1] == 1.5 + 0.005 * f

    def test_non_decreasing_in_batch_over_random_params(self):
        rng = np.random.default_rng(40)
        for _ in range(10_000):
            params = random_device_params(rng)
            f = float(rng.uniform(50.0, 1600.0))
            b1, b2 = sorted(rng.integers(1, 512, size=2).tolist())
            assert cell(b1, f, params)[1] <= cell(b2, f, params)[1]

    def test_non_decreasing_in_frequency_over_random_params(self):
        rng = np.random.default_rng(41)
        for _ in range(10_000):
            params = random_device_params(rng)
            b = int(rng.integers(1, 512))
            f1, f2 = sorted(rng.uniform(50.0, 1600.0, size=2).tolist())
            assert cell(b, f1, params)[1] <= cell(b, f2, params)[1]

    def test_avg_never_exceeds_peak(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            params = random_device_params(rng)
            b = int(rng.integers(1, 512))
            f = float(rng.uniform(50.0, 1600.0))
            prof = pp.generate_profile((b,), (f,), params, 4096)
            assert prof.avg_power_table[0, 0] <= prof.power_table[0, 0]


class TestSynthTime:
    def test_doubling_frequency_halves_time(self):
        params = make_params()
        t1 = cell(16, 300.0, params)[0]
        t2 = cell(16, 600.0, params)[0]
        assert t2 == t1 / 2.0

    def test_batch_saturation(self):
        params = make_params(parallel_cap=32)
        t_at_cap = cell(32, 400.0, params)[0]
        assert cell(64, 400.0, params)[0] == t_at_cap
        assert cell(128, 400.0, params)[0] == t_at_cap

    def test_strictly_decreasing_in_frequency(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            params = random_device_params(rng)
            b = int(rng.integers(1, 512))
            f1, f2 = sorted(rng.uniform(50.0, 1600.0, size=2).tolist())
            if f1 == f2:
                continue
            assert cell(b, f2, params, 1024)[0] < cell(b, f1, params, 1024)[0]


class TestGenerateProfile:
    def test_validation_sweep(self):
        # every generated profile must pass DeviceProfile validation, which
        # rejects power falling in batch size or in frequency; time must also
        # fall strictly in frequency and average power never exceed peak
        rng = np.random.default_rng(45)
        for _ in range(1000):
            params = random_device_params(rng)
            batches, freqs = random_grid(rng, max_batches=5, max_freqs=8)
            profile = pp.generate_profile(batches, freqs, params, 1024)
            assert (len(profile.batch_sizes), len(profile.frequencies)) == (len(batches), len(freqs))
            assert np.all(np.diff(profile.time_table, axis=1) < 0)
            assert np.all(profile.avg_power_table <= profile.power_table)

    def test_deterministic_for_seed(self):
        params = random_device_params(np.random.default_rng(46))
        grid = ((4, 16, 64), (200.0, 400.0, 800.0))
        a = pp.generate_profile(*grid, params, 2048, model_id="m")
        b = pp.generate_profile(*grid, params, 2048, model_id="m")
        assert a == b
        assert pp.save_profile(a) == pp.save_profile(b)

    def test_axes_may_be_one_shot_iterators(self):
        params = make_params()
        once = pp.generate_profile(iter([8, 16]), iter([100.0, 200.0]), params, 1024)
        assert once == pp.generate_profile((8, 16), (100.0, 200.0), params, 1024)

    def test_noise_moves_tables_but_keeps_invariants(self):
        base = make_params(noise_level=0.0, rng_seed=9)
        noisy = make_params(noise_level=0.25, rng_seed=9)
        grid = ((8, 32), (250.0, 500.0))
        a = pp.generate_profile(*grid, base, 1024)
        b = pp.generate_profile(*grid, noisy, 1024)
        assert not np.array_equal(a.power_table, b.power_table)


class TestParamsValidation:
    def test_rejects_nonpositive_core_fields(self):
        with pytest.raises(pp.DataError, match="p_static"):
            make_params(p_static=0.0)
        with pytest.raises(pp.DataError, match="parallel_cap"):
            make_params(parallel_cap=0)

    def test_rejects_bad_noise_and_duty(self):
        with pytest.raises(pp.DataError, match="noise_level"):
            make_params(noise_level=1.0)
        with pytest.raises(pp.DataError, match="avg_duty"):
            make_params(avg_duty=0.0)

    def test_rejects_bad_voltage_curves(self):
        with pytest.raises(pp.DataError, match="voltage_curve"):
            make_params(voltage_curve=())
        with pytest.raises(pp.DataError, match="strictly increasing"):
            make_params(voltage_curve=((200.0, 1.0), (100.0, 1.1)))
        with pytest.raises(pp.DataError, match="non-decreasing"):
            make_params(voltage_curve=((100.0, 1.2), (200.0, 1.0)))

    def test_voltage_interpolation_clamps(self):
        # a cell's power equals that of a flat curve at the interpolated voltage
        params = make_params(voltage_curve=((100.0, 0.8), (200.0, 1.0)))

        def peak(f, v=None):
            p = params if v is None else make_params(voltage_curve=flat_voltage(v))
            return cell(64, f, p)[1]

        assert peak(50.0) == peak(50.0, 0.8)
        assert peak(150.0) == pytest.approx(peak(150.0, 0.9))
        assert peak(400.0) == peak(400.0, 1.0)
