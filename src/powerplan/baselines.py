"""Comparison policies and the energy model.

Baseline 1 is the state of practice: the largest batch size that fits,
run at a precomputed worst-case-safe frequency for the cap.  Baseline 2
picks the batch size with the best samples-to-accuracy ratio but keeps
Baseline 1's frequency, so no joint optimization happens.  The fastest
configuration is the upper bound: the joint selector fed ground-truth
convergence counts instead of proxy ratios.

Energy is a model, not a measurement: average power at the chosen grid
point times the time-to-accuracy estimate.  Peak power decides
feasibility; average power decides energy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .core import (
    DataError,
    DeviceProfile,
    PowerCap,
    RelationVector,
    SelectionResult,
    _check_counts,
    _check_relation_keys,
    _energy_at,
    _last_near_min,
    _result_at,
    _select_one,
)
from .ingest import ParseError, _format_key_values, _key_value_lines, _numbered_lines


@dataclass(frozen=True)
class SafeFrequencyTable:
    """Per-cap frequency ceilings guaranteeing the cap for any model or batch.

    Keys are cap watts (``math.inf`` for unlimited); the mapping must be
    non-decreasing in the cap.  Lookups are exact: the table is precomputed
    configuration, not something interpolated at run time.
    """

    entries: Mapping[float, float]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DataError("safe-frequency table is empty")
        clean: dict[float, float] = {}
        for cap_w, f in self.entries.items():
            cap = PowerCap(cap_w).p_max  # validates positivity
            clean[cap] = float(f)
            if not clean[cap] > 0:
                raise DataError(f"safe frequency for cap {cap!r} must be positive")
        ordered = dict(sorted(clean.items()))
        freqs = list(ordered.values())
        if any(a > b for a, b in zip(freqs, freqs[1:])):
            raise DataError("safe frequencies must be non-decreasing in the cap")
        object.__setattr__(self, "entries", MappingProxyType(ordered))

    def frequency_for(self, cap: PowerCap) -> float:
        f = self.entries.get(cap.p_max)
        if f is None:
            raise DataError(f"safe-frequency table does not define cap {cap}")
        return f


def parse_safe_table(text: str) -> SafeFrequencyTable:
    """Parse CSV lines ``p_max_w,f_mhz`` ('unlimited' allowed for the cap)."""
    entries: dict[float, float] = {}
    rows = _key_value_lines(_numbered_lines(text.splitlines()), "p_max_w,f_mhz", PowerCap.parse, float)
    for n, line, cap, f in rows:
        if not math.isfinite(f):
            raise ParseError(n, f"non-finite frequency in {line!r}")
        if cap.p_max in entries:
            raise ParseError(n, f"duplicate cap {line.split(',')[0]!r}")
        entries[cap.p_max] = f
    return SafeFrequencyTable(entries)


def format_safe_table(table: SafeFrequencyTable) -> str:
    return _format_key_values((PowerCap(cap), repr(float(f))) for cap, f in table.entries.items())


def compute_safe_table(
    profiles: Iterable[DeviceProfile], caps: Iterable[PowerCap]
) -> SafeFrequencyTable:
    """Derive worst-case-safe frequencies from a set of profiles.

    For each cap, picks the highest frequency whose peak power stays under
    the cap for every profile and every batch size.  All profiles must share
    one frequency axis; a cap no frequency can satisfy is an error rather
    than a silent omission.
    """
    profiles = list(profiles)
    if not profiles:
        raise DataError("no profiles supplied")
    freqs = profiles[0].frequencies
    if any(p.frequencies != freqs for p in profiles):
        raise DataError("profiles have differing frequency axes")
    worst = [max(column) for column in zip(*(row for p in profiles for row in p.power_rows))]
    entries: dict[float, float] = {}
    for cap in caps:
        # The column-wise worst case of non-decreasing rows is non-decreasing,
        # so its cells under the cap are a prefix.
        j = bisect_left(worst, cap.p_max) - 1
        if j < 0:
            raise DataError(f"no frequency is safe under cap {cap}")
        entries[cap.p_max] = freqs[j]
    return SafeFrequencyTable(entries)


def baseline1_select(
    profile: DeviceProfile,
    r: RelationVector,
    cap: PowerCap,
    safe: SafeFrequencyTable,
) -> SelectionResult:
    """Largest batch size at the cap's precomputed safe frequency.

    The safe table is trusted by construction (worst-case precomputation),
    so the chosen point is deliberately not re-checked against the cap.
    """
    j = profile.frequency_index(safe.frequency_for(cap))
    i = len(profile.batch_sizes) - 1
    _check_relation_keys(profile, r)
    ratio = r.entries.get(profile.batch_sizes[i])
    if ratio is None:
        raise DataError(f"relation vector incomplete: no entry for batch size {profile.batch_sizes[i]}")
    return _result_at(profile, i, j, profile.time_rows[i][j] * ratio, 1, "baseline1")


def baseline2_select(
    profile: DeviceProfile,
    r: RelationVector,
    cap: PowerCap,
    safe: SafeFrequencyTable,
) -> SelectionResult:
    """Best samples-to-accuracy batch size at Baseline 1's frequency.

    The batch size is the argmin of the relation vector over the profile's
    batch sizes (ties go to the larger batch); the frequency stays at the
    safe ceiling, so system and application knobs remain decoupled.
    """
    _check_relation_keys(profile, r)
    missing = [b for b in profile.batch_sizes if b not in r.entries]
    if missing:
        raise DataError(f"relation vector incomplete: no entry for batch size {missing[0]}")
    j = profile.frequency_index(safe.frequency_for(cap))
    ratios = [r.entries[b] for b in profile.batch_sizes]
    i = _last_near_min(ratios)
    return _result_at(profile, i, j, profile.time_rows[i][j] * ratios[i], len(ratios), "baseline2")


def fastest_configuration(
    profile: DeviceProfile,
    true_counts: Mapping[int, float],
    cap: PowerCap,
) -> SelectionResult:
    """Upper bound: the joint selector driven by ground-truth counts.

    Identical machinery to select_configuration_fast, but the multiplier is
    the measured samples-to-accuracy count, so the reported time is absolute
    seconds rather than a normalized estimate.
    """
    _check_counts(true_counts)
    unknown = set(true_counts) - set(profile.batch_sizes)
    if unknown:
        raise DataError(f"true counts name batch sizes not in profile: {sorted(unknown)}")
    return _select_one(profile, true_counts, cap, "fastest", missing_label="true counts")


def energy_estimate(
    result: SelectionResult, profile: DeviceProfile, ratio_or_count: float
) -> float:
    """Joules for a selection: average power at (b, f) times the time estimate.

    ``ratio_or_count`` is the convergence multiplier the caller wants the
    energy based on: the relation ratio gives normalized energy, a true
    count gives absolute joules.
    """
    if profile.avg_power_rows is None:
        raise DataError("profile lacks average power")
    _check_counts({result.batch_size: ratio_or_count})
    i = profile.batch_index(result.batch_size)
    j = profile.frequency_index(result.frequency_mhz)
    return _energy_at(profile, i, j, float(profile.time_rows[i][j] * ratio_or_count))
