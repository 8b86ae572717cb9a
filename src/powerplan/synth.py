"""Parametric synthetic devices for exercising the selectors without hardware.

The generative power model follows the dynamic-power relation of
voltage-frequency scaling (dynamic power grows with f * V(f)^2), scaled by
how much of the GPU the batch keeps busy.  Timing assumes throughput grows
linearly with frequency and with batch size up to a parallelism saturation
point.

Noise, when enabled, perturbs the model coefficients once per profile
(seeded), never per grid cell, so generated tables always satisfy the
monotonicity invariants of DeviceProfile.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import DataError, DeviceProfile, _axes, _positive_int, _Record, _set


class SynthDeviceParams(_Record):
    """Generative knobs for one synthetic device/model pairing.

    ``voltage_curve`` is a non-decreasing piecewise-linear map from frequency
    (MHz) to core voltage (V), clamped outside its breakpoints.  ``avg_duty``
    scales the dynamic term down for the average-power table (average draw
    never exceeds peak).
    """

    __slots__ = (
        "p_static",
        "power_coeff",
        "voltage_curve",
        "parallel_cap",
        "per_sample_cost",
        "freq_efficiency",
        "rng_seed",
        "noise_level",
        "avg_duty",
    )

    def __init__(
        self,
        p_static: float,
        power_coeff: float,
        voltage_curve: Iterable[tuple[float, float]],
        parallel_cap: int,
        per_sample_cost: float,
        freq_efficiency: float,
        rng_seed: int = 0,
        noise_level: float = 0.0,
        avg_duty: float = 0.9,
    ) -> None:
        positive = {
            "p_static": p_static,
            "power_coeff": power_coeff,
            "per_sample_cost": per_sample_cost,
            "freq_efficiency": freq_efficiency,
        }
        for name, value in positive.items():
            if not value > 0:
                raise DataError(f"{name} must be positive")
        parallel_cap = _positive_int(parallel_cap, "parallel_cap must be a positive integer")
        if not 0.0 <= noise_level < 1.0:
            raise DataError("noise_level must lie in [0, 1)")
        if not 0.0 < avg_duty <= 1.0:
            raise DataError("avg_duty must lie in (0, 1]")
        curve = tuple((float(f), float(v)) for f, v in voltage_curve)
        if not curve:
            raise DataError("voltage_curve needs at least one breakpoint")
        fs = [f for f, _ in curve]
        vs = [v for _, v in curve]
        if any(a >= b for a, b in zip(fs, fs[1:])):
            raise DataError("voltage_curve frequencies must be strictly increasing")
        if any(v <= 0 for v in vs) or any(a > b for a, b in zip(vs, vs[1:])):
            raise DataError("voltage_curve voltages must be positive and non-decreasing")
        _set(self, "p_static", p_static)
        _set(self, "power_coeff", power_coeff)
        _set(self, "voltage_curve", curve)
        _set(self, "parallel_cap", parallel_cap)
        _set(self, "per_sample_cost", per_sample_cost)
        _set(self, "freq_efficiency", freq_efficiency)
        _set(self, "rng_seed", rng_seed)
        _set(self, "noise_level", noise_level)
        _set(self, "avg_duty", avg_duty)


def _effective_coefficients(params: SynthDeviceParams) -> tuple[float, float, float]:
    import numpy as np

    # One seeded draw per profile; noise_level == 0 yields exactly 1.0
    # factors so noiseless profiles are bit-stable across runs.
    rng = np.random.default_rng(params.rng_seed)
    jitter = 1.0 + params.noise_level * rng.uniform(-1.0, 1.0, size=3)
    return (
        float(params.p_static * jitter[0]),
        float(params.power_coeff * jitter[1]),
        float(params.per_sample_cost * jitter[2]),
    )


def generate_profile(
    batch_sizes: Iterable[int],
    frequencies: Iterable[float],
    params: SynthDeviceParams,
    s: int,
    model_id: str = "synthetic",
    with_avg_power: bool = True,
) -> DeviceProfile:
    """Evaluate the synthetic model over a full grid.

    The result passes every DeviceProfile invariant for any valid params and
    seed, and identical (params, seed) produce bit-identical tables.
    """
    import numpy as np

    batch_sizes, frequencies = _axes(batch_sizes, frequencies)
    bs = np.array(batch_sizes, dtype=float)
    fs = np.array(frequencies, dtype=float)
    p_static, power_coeff, per_sample_cost = _effective_coefficients(params)

    curve_f = np.array([f for f, _ in params.voltage_curve])
    curve_v = np.array([v for _, v in params.voltage_curve])
    volts = np.interp(fs, curve_f, curve_v)

    util = np.minimum(bs, params.parallel_cap) / params.parallel_cap
    dyn = power_coeff * fs * volts**2
    power = p_static + np.outer(util, dyn)
    avg = p_static + params.avg_duty * np.outer(util, dyn)

    work = s * per_sample_cost * params.freq_efficiency
    time = work / np.outer(np.minimum(bs, params.parallel_cap), fs)

    return DeviceProfile(
        model_id=model_id,
        batch_sizes=batch_sizes,
        frequencies=frequencies,
        time_table=time,
        power_table=power,
        samples_per_unit=int(s),
        avg_power_table=avg if with_avg_power else None,
    )
