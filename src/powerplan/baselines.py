"""Comparison policies: the two baselines and the fastest configuration.

Both baselines run at a precomputed worst-case-safe frequency for the cap
and take the best-ratio batch size among their candidates: Baseline 1, the
state of practice, has only the largest batch size; Baseline 2 has them
all, so no joint optimization happens.  The fastest configuration is the
upper bound: the joint selector fed ground-truth convergence counts
instead of proxy ratios.

Energy is a model, not a measurement: ``core._energy_at`` multiplies
average power at the chosen grid point by the time-to-accuracy estimate,
and ``compare`` reports it in its energy column.  Peak power decides
feasibility; average power decides energy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from .core import (
    DataError,
    DeviceProfile,
    EntriesError,
    Pick,
    PowerCap,
    RelationVector,
    SelectionResult,
    _check_counts,
    _check_keys,
    _entry,
    _last_near_min,
    _pick_energy,
    _Record,
    _select_caps,
    _select_one,
    _set,
)
from .ingest import ParseError, _format_key_values, _key_value_lines, _numbered_lines


class SafeFrequencyTable(_Record):
    """Per-cap frequency ceilings guaranteeing the cap for any model or batch.

    Keys are cap watts (``math.inf`` for unlimited); the mapping must be
    non-decreasing in the cap.  Lookups are exact: the table is precomputed
    configuration, not something interpolated at run time.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[float, float]) -> None:
        if not entries:
            raise DataError("safe-frequency table is empty")
        clean: dict[float, float] = {}
        for cap_w, f in entries.items():
            cap = PowerCap(cap_w).p_max  # validates positivity
            clean[cap] = float(f)
            if not clean[cap] > 0:
                raise DataError(f"safe frequency for cap {cap!r} must be positive")
        ordered = dict(sorted(clean.items()))
        freqs = list(ordered.values())
        if any(a > b for a, b in zip(freqs, freqs[1:])):
            raise DataError("safe frequencies must be non-decreasing in the cap")
        _set(self, "entries", MappingProxyType(ordered))

    def frequency_for(self, cap: PowerCap) -> float:
        f = self.entries.get(cap.p_max)
        if f is None:
            raise EntriesError(f"safe-frequency table does not define cap {cap}", self.entries)
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


def _safe_picks(
    profile: DeviceProfile, r: RelationVector, caps: Sequence[PowerCap], safe: SafeFrequencyTable, policy_tag: str
) -> Iterator[Pick]:
    """Yield, per cap, a baseline's cell (i, j) at the cap's safe frequency, as ``_select_caps`` does.

    The batch size is the best-ratio candidate, ties going to the larger one.
    Each cap's safe frequency is looked up first; the relation is checked
    once, after the first cap's lookup.  An EntriesError carries the mapping at fault.
    """
    first = 0 if policy_tag == "baseline2" else len(profile.batch_sizes) - 1
    ratios: list[float] = []
    for cap in caps:
        f = safe.frequency_for(cap)
        try:
            j = profile.frequency_index(f)
        except DataError as exc:
            raise EntriesError(str(exc), safe.entries) from None
        if not ratios:
            _check_keys(profile, r.entries)
            ratios = list(map(r.entries.get, profile.batch_sizes[first:]))
            if None in ratios:
                _entry(r.entries, profile.batch_sizes[first + ratios.index(None)], "relation vector")  # raises
            k = _last_near_min(ratios)
            i = first + k
        tt = profile.time_rows[i][j] * ratios[k]
        yield i, j, tt, len(ratios), _pick_energy(profile, i, j, tt, r.entries)


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
    return _select_one(profile, _safe_picks(profile, r, (cap,), safe, "baseline1"), cap, "baseline1")


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
    return _select_one(profile, _safe_picks(profile, r, (cap,), safe, "baseline2"), cap, "baseline2")


def _count_picks(
    profile: DeviceProfile, true_counts: Mapping[int, float], p_maxes: Sequence[float]
) -> Iterator[Pick | None]:
    """``_select_caps`` for the ``fastest`` policy, after the counts' own and key checks."""
    _check_counts(true_counts)
    _check_keys(profile, true_counts, "true counts name")
    yield from _select_caps(profile, true_counts, p_maxes, "true counts")


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
    return _select_one(profile, _count_picks(profile, true_counts, (cap.p_max,)), cap, "fastest")

