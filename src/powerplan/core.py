"""Domain types and joint batch-size / GPU-frequency selection.

A device profile stores, per (batch size, GPU frequency) grid point, the
measured wall-clock time to process a fixed number of training samples and
the measured peak power.  A relation vector states, per batch size, how many
times that sample budget must be processed to reach the target accuracy,
normalized to the worst batch size.  Selection picks the pair that minimizes
the product of the two while keeping peak power strictly below the cap.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

# Two estimates within this relative distance count as a tie and fall
# through to the deterministic tie-break (larger batch, then higher
# frequency).  Below measurement noise, above float rounding noise.
TIE_REL_TOL = 1e-9

# A row whose estimates all exceed this multiple of an estimate that some
# row attains at a cap cannot tie with that cap's minimum; the margin over
# 1 / (1 - TIE_REL_TOL) absorbs the rounding of the tie test.
_PRUNE_SLACK = (1 + 1e-12) / (1 - 2 * TIE_REL_TOL)

POLICY_TAGS = ("ours", "baseline1", "baseline2", "fastest")


class DataError(ValueError):
    """Measurement data, tables, or input files violate a documented invariant."""


class EntriesError(DataError):
    """A relation, counts or safe-frequency mapping cannot serve a plan; ``entries`` is that mapping.

    It names a batch size the profile lacks or a frequency off its axis,
    misses a batch size or cap the plan needs, or has a multiplier that
    takes a profile time out of the float range.
    """

    def __init__(self, message: str, entries: Mapping[int, float] | None = None) -> None:
        super().__init__(message)
        self.entries = entries


class OrderError(DataError):
    """A profile's ``table`` ("time" or "power") is out of order between its ``cells``, two (batch size, MHz)."""

    def __init__(self, message: str, table: str, *cells: tuple[int, float]) -> None:
        super().__init__(message)
        self.table, self.cells = table, cells


class InfeasibleError(RuntimeError):
    """No (batch size, frequency) combination stays under the power cap."""


_set = object.__setattr__  # stores a field of a _Record from its __init__


def _positive_int(value: object, message: str) -> int:
    """``value`` as an int if it is a positive integer of any type (numpy's, bool), else DataError(message)."""
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if n <= 0:
        raise DataError(message)
    return n


def _batch_size(value: object, message: str) -> int:
    """``value`` as an int if it is a positive integer other than a bool, else DataError(message)."""
    return _positive_int(None if isinstance(value, bool) else value, message)


class _Record:
    """An immutable value whose ``__slots__`` name its fields in constructor order.

    Each subclass writes its own ``__init__``, which validates its arguments
    and stores the fields with ``_set``.  The base compares and hashes
    instances of the same type field by field, renders them as
    ``Type(field=value, ...)`` and refuses assignment and deletion, as a
    frozen dataclass would.  A read-only mapping field pickles as a dict
    and hashes as its items, so its constructor stores them sorted.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        """The fields' values, in constructor order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(tuple(v.items()) if type(v) is MappingProxyType else v for v in self._astuple()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PowerCap(_Record):
    """Hard upper bound on device power draw, in watts.

    ``math.inf`` stands for an unconstrained device.  Feasibility checks use
    a strict ``power < p_max`` comparison.
    """

    __slots__ = ("p_max",)

    def __init__(self, p_max: float) -> None:
        if not isinstance(p_max, (int, float)) or isinstance(p_max, bool):
            raise DataError(f"power cap must be a number, got {p_max!r}")
        p_max = float(p_max)
        if math.isnan(p_max) or p_max <= 0:
            raise DataError(f"power cap must be positive, got {p_max!r}")
        _set(self, "p_max", p_max)

    @classmethod
    def unlimited(cls) -> "PowerCap":
        return cls(math.inf)

    @classmethod
    def parse(cls, text: str) -> "PowerCap":
        """Parse a cap from CLI/file text: a positive number, ``inf`` or ``unlimited``."""
        token = text.strip().lower()
        if token == "unlimited":
            return cls.unlimited()
        try:
            watts = float(token)
        except ValueError:
            raise DataError(f"invalid power cap {text!r}") from None
        return cls(watts)

    @property
    def is_unlimited(self) -> bool:
        return math.isinf(self.p_max)

    def __str__(self) -> str:
        return _fmt_cap(self.p_max)


def _fmt_cap(p_max_w: float) -> str:
    """A cap's watts as every output writes them: ``unlimited`` or the float's repr."""
    return "unlimited" if math.isinf(p_max_w) else repr(float(p_max_w))


Rows = tuple[tuple[float, ...], ...]


def _all_finite(values: Sequence[float]) -> bool:
    """``all(map(math.isfinite, values))``; a finite sum proves it, so only a sum that is not checks each entry."""
    return math.isfinite(sum(values, 0.0)) or all(map(math.isfinite, values))


def _table_rows(
    table: object, name: str, shape: tuple[int, int], descending: bool = False
) -> tuple[Rows, int | None]:
    """A table's rows as tuples of floats, checked for shape, finiteness and sign.

    Also returns the index of the first row that is not sorted ascending
    (descending when ``descending``), or None when every row is.
    """
    if hasattr(table, "tolist"):  # an ndarray: one C-level conversion to lists
        table = table.tolist()
    try:
        rows = tuple(tuple(map(float, row)) for row in table)
    except TypeError:  # not a sequence of rows
        raise DataError(f"dimension mismatch: {name} is not a table of rows, expected {shape}") from None
    widths = set(map(len, rows))
    if len(rows) != shape[0] or widths != {shape[1]}:
        got = f"shape {(len(rows), *widths)}" if len(widths) <= 1 else f"rows of widths {sorted(widths)}"
        raise DataError(f"dimension mismatch: {name} has {got}, expected {shape}")
    ordered = [sorted(row, reverse=descending) for row in rows]
    # A row's least entry is an end of its sorted copy.
    if not all(map(_all_finite, rows)) or min(min(s[0], s[-1]) for s in ordered) <= 0.0:
        raise DataError(f"{name} entries must be finite and strictly positive")
    return rows, next((i for i, (s, row) in enumerate(zip(ordered, rows)) if s != list(row)), None)


def _array_view(rows: str) -> property:
    """A read-only float64 ndarray of the ``rows`` attribute (None when it is None).

    The array is built on first read and kept in the ``_<rows>_array``
    slot, so numpy is imported only by code that asks for arrays.
    """
    cache = f"_{rows}_array"

    def view(self):
        try:
            return getattr(self, cache)
        except AttributeError:  # first read
            pass
        arr = getattr(self, rows)
        if arr is not None:
            import numpy as np

            arr = np.array(arr, dtype=float)
            arr.setflags(write=False)
        _set(self, cache, arr)
        return arr

    return property(view)


def _batch_axis(batch_sizes: Iterable[int]) -> tuple[int, ...]:
    """A grid's batch-size axis as ints, non-empty, positive and strictly increasing, else DataError."""
    message = "batch sizes must be strictly increasing positive integers"
    bs = tuple(_batch_size(b, message) for b in batch_sizes)
    if not bs or any(a >= b for a, b in zip(bs, bs[1:])):
        raise DataError(message)
    return bs


def _frequency_axis(frequencies: Iterable[float]) -> tuple[float, ...]:
    """A grid's frequency axis as floats, non-empty, finite, positive and strictly increasing, else DataError."""
    fs = tuple(map(float, frequencies))
    if not fs or any(not 0 < f < math.inf for f in fs) or any(a >= b for a, b in zip(fs, fs[1:])):
        raise DataError("frequencies must be strictly increasing positive values")
    return fs


def _axes(batch_sizes: Iterable[int], frequencies: Iterable[float]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Both axes of a grid, each checked by its own rule."""
    return _batch_axis(batch_sizes), _frequency_axis(frequencies)


class DeviceProfile(_Record):
    """Measured time and peak-power lookup tables for one model on one device.

    ``time_table[i, j]`` is the seconds needed to process ``samples_per_unit``
    training samples at batch size ``batch_sizes[i]`` and GPU frequency
    ``frequencies[j]`` (MHz).  ``power_table`` holds the matching peak watts;
    ``avg_power_table``, when present, the average watts used for energy
    estimates.  Tables are validated on construction and frozen; instances
    are immutable and safe to share across threads.  The tables are kept
    as tuples of rows in ``time_rows``, ``power_rows`` and
    ``avg_power_rows`` (``time_rows[i][j] == time_table[i, j]``), and the
    ``*_table`` attributes are read-only ndarray views of them.
    """

    # The constructor's fields in its order, each table as its rows; then the views' caches.
    __slots__ = (
        "model_id",
        "batch_sizes",
        "frequencies",
        "time_rows",
        "power_rows",
        "samples_per_unit",
        "avg_power_rows",
        "_time_rows_array",
        "_power_rows_array",
        "_avg_power_rows_array",
    )

    time_table = _array_view("time_rows")
    power_table = _array_view("power_rows")
    avg_power_table = _array_view("avg_power_rows")

    def __init__(
        self,
        model_id: str,
        batch_sizes: Sequence[int],
        frequencies: Sequence[float],
        time_table: object,
        power_table: object,
        samples_per_unit: int,
        avg_power_table: object = None,
    ) -> None:
        _set(self, "model_id", model_id)
        _set(self, "batch_sizes", batch_sizes)
        _set(self, "frequencies", frequencies)
        _set(self, "time_rows", time_table)  # each table is replaced by its rows in __post_init__
        _set(self, "power_rows", power_table)
        _set(self, "samples_per_unit", samples_per_unit)
        _set(self, "avg_power_rows", avg_power_table)
        self.__post_init__()  # looked up on the class, where it may be rebound

    def __post_init__(self) -> None:
        bs, fs = _axes(self.batch_sizes, self.frequencies)
        s = _positive_int(self.samples_per_unit, "samples_per_unit must be a positive integer")
        _set(self, "batch_sizes", bs)
        _set(self, "frequencies", fs)
        _set(self, "samples_per_unit", s)

        shape = (len(bs), len(fs))
        time, rising = _table_rows(self.time_rows, "time table", shape, descending=True)
        power, falling = _table_rows(self.power_rows, "power table", shape)
        _set(self, "time_rows", time)
        _set(self, "power_rows", power)
        if self.avg_power_rows is not None:
            _set(self, "avg_power_rows", _table_rows(self.avg_power_rows, "average power table", shape)[0])

        # Monotonicity violations point at sensor faults; reject rather than
        # smooth so the owner re-profiles the offending row.
        if rising is not None:
            j = next(j for j, (a, b) in enumerate(zip(time[rising], time[rising][1:])) if a < b)
            raise OrderError(
                f"time table increases with frequency for batch size {bs[rising]}; "
                "noisy measurement, re-profile this row", "time", (bs[rising], fs[j]), (bs[rising], fs[j + 1])
            )
        if falling is not None:
            j = next(j for j, (a, b) in enumerate(zip(power[falling], power[falling][1:])) if a > b)
            raise OrderError(
                f"power table decreases with frequency for batch size {bs[falling]}; "
                "noisy measurement, re-profile this row", "power", (bs[falling], fs[j]), (bs[falling], fs[j + 1])
            )
        for i, (lower, upper) in enumerate(zip(power, power[1:])):
            if not all(map(operator.le, lower, upper)):
                j = next(j for j, (a, b) in enumerate(zip(lower, upper)) if a > b)
                raise OrderError(
                    f"power table decreases with batch size at frequency {fs[j]}; "
                    "noisy measurement, re-profile this column", "power", (bs[i], fs[j]), (bs[i + 1], fs[j])
                )

    def batch_index(self, batch_size: int) -> int:
        try:
            return self.batch_sizes.index(batch_size)
        except ValueError:
            raise DataError(f"batch size {batch_size} not in profile {self.model_id!r}") from None

    def frequency_index(self, frequency_mhz: float) -> int:
        try:
            return self.frequencies.index(float(frequency_mhz))
        except ValueError:
            raise DataError(
                f"frequency {frequency_mhz} MHz not in profile {self.model_id!r}"
            ) from None

    def _astuple(self) -> tuple:
        """The constructor's arguments, each table as its rows."""
        return (
            self.model_id,
            self.batch_sizes,
            self.frequencies,
            self.time_rows,
            self.power_rows,
            self.samples_per_unit,
            self.avg_power_rows,
        )

    def __repr__(self) -> str:
        # From the rows, never the ndarray views: no numpy is needed, and
        # evaluating the text rebuilds an equal profile.
        names = (name.replace("_rows", "_table") for name in self.__slots__)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._astuple()))
        return f"DeviceProfile({fields})"


class RelationVector(_Record):
    """Per-batch-size samples-to-accuracy ratios, normalized to the worst case.

    Every ratio lies in (0, 1] and at least one entry equals 1.0 exactly (the
    batch size needing the most samples).
    """

    __slots__ = ("entries", "source_id")

    def __init__(self, entries: Mapping[int, float], source_id: str = "") -> None:
        if not entries:
            raise DataError("no batch sizes")
        clean: dict[int, float] = {}
        for b, ratio in entries.items():
            key = _batch_size(b, f"batch sizes must be positive integers, got {b!r}")
            r = float(ratio)
            if not (0.0 < r <= 1.0):
                raise DataError(f"ratio for batch size {b} out of range (0, 1]: {r!r}")
            clean[key] = r
        if not any(r == 1.0 for r in clean.values()):
            raise DataError("relation vector must contain an entry exactly equal to 1.0")
        _set(self, "entries", MappingProxyType(dict(sorted(clean.items()))))
        _set(self, "source_id", source_id)


def _check_estimate(tt: float, entries: Mapping[int, float] | None = None) -> None:
    """Reject a time to accuracy that is not a positive, finite, normal float; the EntriesError carries ``entries``."""
    if not (tt > 0 and math.isfinite(tt)):
        raise EntriesError("estimated time to accuracy must be positive and finite", entries)
    if tt < sys.float_info.min:
        raise EntriesError(f"estimated time to accuracy {tt!r} is subnormal", entries)


def _check_energy(energy: float | None, entries: Mapping[int, float] | None = None) -> None:
    """Reject an energy that is present but not positive and finite; the EntriesError carries ``entries``."""
    if energy is not None and not 0 < energy < math.inf:
        raise EntriesError(f"estimated energy must be {'finite' if energy > 0 else 'positive'}", entries)


class SelectionResult(_Record):
    """A chosen operating point plus the estimates that justified it.

    ``feasible_count`` records how many candidate configurations the policy
    actually evaluated (the feasible-set size for the joint policies, the
    fixed candidate list for the baselines).  ``estimated_energy`` is present
    only when the profile carries an average-power table.
    """

    __slots__ = (
        "batch_size",
        "frequency_mhz",
        "estimated_tt_acc",
        "feasible_count",
        "policy_tag",
        "estimated_energy",
    )

    def __init__(
        self,
        batch_size: int,
        frequency_mhz: float,
        estimated_tt_acc: float,
        feasible_count: int,
        policy_tag: str,
        estimated_energy: float | None = None,
    ) -> None:
        if policy_tag not in POLICY_TAGS:
            raise DataError(f"unknown policy tag {policy_tag!r}")
        _check_estimate(estimated_tt_acc)
        _check_energy(estimated_energy)
        if feasible_count < 1:
            raise DataError("feasible_count must be at least 1")
        _set(self, "batch_size", batch_size)
        _set(self, "frequency_mhz", frequency_mhz)
        _set(self, "estimated_tt_acc", estimated_tt_acc)
        _set(self, "feasible_count", feasible_count)
        _set(self, "policy_tag", policy_tag)
        _set(self, "estimated_energy", estimated_energy)


def _check_counts(counts: Mapping[int, float]) -> None:
    """Require at least one batch size, each with a finite, positive count."""
    if not counts:
        raise DataError("no batch sizes")
    for b, count in counts.items():
        if not 0 < count < math.inf:
            raise DataError(f"invalid count for batch size {b}: {count!r}")


def relation_vector(counts: Mapping[int, float], source_id: str = "counts") -> RelationVector:
    """Normalize per-batch-size samples-to-accuracy counts into ratios.

    Each ratio is the batch size's count divided by the maximum count over
    all batch sizes, so the slowest-converging batch size maps to exactly 1.0.
    """
    _check_counts(counts)
    worst = max(counts.values())
    return RelationVector({b: count / worst for b, count in counts.items()}, source_id=source_id)


def feasible_combinations(profile: DeviceProfile, cap: PowerCap) -> dict[int, float]:
    """Per batch size with a cell under the cap, in ascending order, the
    highest frequency (MHz) whose peak power is < cap.

    Power is validated non-decreasing along both axes, so the rows with a
    feasible cell are a prefix (those whose first entry is under the cap)
    and so are each row's feasible cells; bisection finds both ends.
    """
    power, fs = profile.power_rows, profile.frequencies
    n = bisect_left(next(zip(*power)), cap.p_max)
    return {b: fs[bisect_left(row, cap.p_max) - 1] for b, row in zip(profile.batch_sizes[:n], power)}


def _last_near_min(values: Sequence[float]) -> int:
    """Index of the last entry within TIE_REL_TOL of the global minimum.

    Ties are judged against the minimum itself, never against a running
    best, so the result does not depend on scan order.  An infinite entry
    ties with nothing finite; when every entry is infinite, the last one is
    returned for the estimate check to reject.
    """
    low = min(values)
    if low == math.inf:
        return len(values) - 1
    k = len(values) - 1
    while not values[k] - low <= TIE_REL_TOL * values[k] < math.inf:
        k -= 1
    return k


def _energy_at(profile: DeviceProfile, i: int, j: int, tt: float) -> float | None:
    if profile.avg_power_rows is None:
        return None
    return profile.avg_power_rows[i][j] * tt


def _pick_energy(profile: DeviceProfile, i: int, j: int, tt: float, entries: Mapping[int, float]) -> float | None:
    """Grid cell (i, j)'s energy at estimated time ``tt``, after the checks a SelectionResult makes of both.

    ``tt`` is the cell's time times a multiplier from ``entries``.  Both are
    valid on their own, so an estimate or energy out of range is an
    EntriesError that carries ``entries``.
    """
    _check_estimate(tt, entries)
    energy = _energy_at(profile, i, j, tt)
    _check_energy(energy, entries)
    return energy


def _entry(entries: Mapping[int, float], b: int, label: str) -> float:
    """``entries[b]``; an EntriesError names ``label`` when batch size ``b`` has no entry."""
    value = entries.get(b)
    if value is None:
        raise EntriesError(f"{label} incomplete: no entry for batch size {b}", entries)
    return value


def _check_keys(
    profile: DeviceProfile, multipliers: Mapping[int, float], subject: str = "relation vector names"
) -> None:
    """An EntriesError carrying ``multipliers`` if they name a batch size ``profile`` lacks; ``subject`` opens it."""
    unknown = set(multipliers) - set(profile.batch_sizes)
    if unknown:
        raise EntriesError(f"{subject} batch sizes not in profile: {sorted(unknown)}", multipliers)


# An argmin cell (i, j), its estimated time, the feasible count and the energy (None without average power).
Pick = tuple[int, int, float, int, float | None]


def _select_caps(
    profile: DeviceProfile,
    multipliers: Mapping[int, float],
    p_maxes: Sequence[float],
    missing_label: str = "relation vector",
) -> Iterator[Pick | None]:
    """Yield, per cap in ``p_maxes``, the argmin cell (i, j) of time * multiplier
    over the cap's frontier with its estimate, feasible count and energy, or
    None when nothing fits.

    A generator: the multipliers are looked up at the first ``next()``, and
    each cap's checks run only when its pick is taken, so a caller that
    interleaves several passes raises each error at the cap where a
    one-cap call would.  Each cap needs O(rows) working memory, so caps may
    be many and in any order.

    Every cell within TIE_REL_TOL of the minimum ties, and the last one in
    (i, j) order wins: the larger batch size, then the higher frequency
    (equal time, fewer optimizer steps).  An estimate that overflows ties
    with nothing finite.

    Only rows that can still win or tie are scanned.  Time never rises
    with frequency and a rounded product is monotone, so a row's estimate
    at its last column bounds all its estimates from below.  A cap scans
    the feasible rows whose bound is at most ``_PRUNE_SLACK`` times a
    guessed estimate: the previous cap's winner, else the feasible row with
    the least bound.  Any other row lies beyond the tie tolerance of the
    minimum, or is infinite, so the pick is the full scan's.
    """
    batches, time, power = profile.batch_sizes, profile.time_rows, profile.power_rows
    firsts = next(zip(*power))
    looked_up = list(map(multipliers.get, batches))
    missing = looked_up.index(None) if None in looked_up else len(batches)
    # Rows no cap reaches never have their multiplier used, so it is not converted.
    reach = min(missing, bisect_left(firsts, max(p_maxes, default=0.0)))
    mults = list(map(float, looked_up[:reach]))
    lows = [row[-1] * m for row, m in zip(time, mults)]
    order = sorted(range(reach), key=lows.__getitem__)
    sorted_lows = [lows[i] for i in order]
    w = reach  # the previous cap's winner; no row yet
    for p_max in p_maxes:
        # As in feasible_combinations: the first n rows fit, each up to its column bisect_left - 1.
        n = bisect_left(firsts, p_max)
        if not n:
            yield None
            continue
        if n > missing:
            _entry(multipliers, batches[missing], missing_label)  # raises: no entry
        if w >= n:
            w = next(i for i in order if i < n)
        guess = time[w][bisect_left(power[w], p_max) - 1] * mults[w]
        rows = sorted([i for i in order[: bisect_right(sorted_lows, guess * _PRUNE_SLACK)] if i < n])
        cols = [bisect_left(power[i], p_max) - 1 for i in rows]
        tts = [time[i][j] * mults[i] for i, j in zip(rows, cols)]
        k = _last_near_min(tts)
        w, j, tt = rows[k], cols[k], tts[k]
        yield w, j, tt, n, _pick_energy(profile, w, j, tt, multipliers)


def _relation_picks(
    profile: DeviceProfile, r: RelationVector, p_maxes: Sequence[float]
) -> Iterator[Pick | None]:
    """``_select_caps`` for the ``ours`` policy, after the relation's key check."""
    _check_keys(profile, r.entries)
    yield from _select_caps(profile, r.entries, p_maxes)


def _select_one(
    profile: DeviceProfile, picks: Iterator[Pick | None], cap: PowerCap, policy_tag: str
) -> SelectionResult:
    """The SelectionResult of a pass over ``cap`` alone; raises InfeasibleError when nothing fits."""
    pick = next(picks)
    if pick is None:
        # Peak power never falls along either axis, so the first cell holds the lowest peak.
        raise InfeasibleError(
            f"no configuration satisfies power cap {cap} W; "
            f"the lowest peak in the profile is {profile.power_rows[0][0]!r} W"
        )
    i, j, tt, feasible_count, energy = pick
    return SelectionResult(profile.batch_sizes[i], profile.frequencies[j], tt, feasible_count, policy_tag, energy)


def select_configuration_fast(
    profile: DeviceProfile, r: RelationVector, cap: PowerCap
) -> SelectionResult:
    """Pick the feasible (batch size, frequency) minimizing estimated time to accuracy.

    Raises InfeasibleError when nothing stays under the cap and DataError
    when the relation vector misses a feasible batch size (silent shrinking
    of the search space would mask data bugs).
    """
    return _select_one(profile, _relation_picks(profile, r, (cap.p_max,)), cap, "ours")
