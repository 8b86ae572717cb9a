"""Parametric synthetic devices for exercising the selectors without hardware.

The generative power model follows the dynamic-power relation of
voltage-frequency scaling (dynamic power grows with f * V(f)^2), scaled by
how much of the GPU the batch keeps busy.  Timing assumes throughput grows
linearly with frequency and with batch size up to a parallelism saturation
point.  The convergence-count model is a critical-batch-style stand-in:
its constants are plumbing, not measured truth, and tests must not treat
them as such.

Noise, when enabled, perturbs the model coefficients once per profile
(seeded), never per grid cell, so generated tables always satisfy the
monotonicity invariants of DeviceProfile.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

from .core import DataError, DeviceProfile


@dataclass(frozen=True)
class SynthDeviceParams:
    """Generative knobs for one synthetic device/model pairing.

    ``voltage_curve`` is a non-decreasing piecewise-linear map from frequency
    (MHz) to core voltage (V), clamped outside its breakpoints.  ``avg_duty``
    scales the dynamic term down for the average-power table (average draw
    never exceeds peak).
    """

    p_static: float
    power_coeff: float
    voltage_curve: tuple[tuple[float, float], ...]
    parallel_cap: int
    per_sample_cost: float
    freq_efficiency: float
    rng_seed: int = 0
    noise_level: float = 0.0
    avg_duty: float = 0.9

    def __post_init__(self) -> None:
        for name in ("p_static", "power_coeff", "per_sample_cost", "freq_efficiency"):
            if not getattr(self, name) > 0:
                raise DataError(f"{name} must be positive")
        if not (isinstance(self.parallel_cap, numbers.Integral) and self.parallel_cap > 0):
            raise DataError("parallel_cap must be a positive integer")
        if not 0.0 <= self.noise_level < 1.0:
            raise DataError("noise_level must lie in [0, 1)")
        if not 0.0 < self.avg_duty <= 1.0:
            raise DataError("avg_duty must lie in (0, 1]")
        curve = tuple((float(f), float(v)) for f, v in self.voltage_curve)
        if not curve:
            raise DataError("voltage_curve needs at least one breakpoint")
        fs = [f for f, _ in curve]
        vs = [v for _, v in curve]
        if any(a >= b for a, b in zip(fs, fs[1:])):
            raise DataError("voltage_curve frequencies must be strictly increasing")
        if any(v <= 0 for v in vs) or any(a > b for a, b in zip(vs, vs[1:])):
            raise DataError("voltage_curve voltages must be positive and non-decreasing")
        object.__setattr__(self, "voltage_curve", curve)
        object.__setattr__(self, "parallel_cap", int(self.parallel_cap))


@dataclass(frozen=True)
class SynthConvergenceParams:
    """Stand-in convergence model: samples to accuracy grow linearly past a
    critical batch size."""

    n_min: int
    b_noise: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n_min, numbers.Integral) and self.n_min > 0):
            raise DataError("n_min must be a positive integer")
        if not self.b_noise > 0:
            raise DataError("b_noise must be positive")
        object.__setattr__(self, "n_min", int(self.n_min))
        object.__setattr__(self, "b_noise", float(self.b_noise))


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


def convergence_count(b: float, params: SynthConvergenceParams) -> int:
    """Samples-to-accuracy multiplier for one batch size; n_min at b -> 0."""
    if b < 0:
        raise DataError("batch size must be non-negative")
    return math.ceil(params.n_min * (1.0 + b / params.b_noise))


def synth_counts(
    batch_sizes: Iterable[int], params: SynthConvergenceParams
) -> dict[int, int]:
    """Ground-truth convergence counts for a batch-size axis (non-decreasing in b)."""
    bs = [int(b) for b in batch_sizes]
    if not bs:
        raise DataError("no batch sizes")
    if any(b <= 0 for b in bs):
        raise DataError("batch sizes must be positive")
    return {b: convergence_count(b, params) for b in bs}


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

    batch_sizes = tuple(int(b) for b in batch_sizes)
    frequencies = tuple(float(f) for f in frequencies)
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
