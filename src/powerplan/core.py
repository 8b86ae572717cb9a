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
import numbers
import operator
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Two estimates within this relative distance count as a tie and fall
# through to the deterministic tie-break (larger batch, then higher
# frequency).  Below measurement noise, above float rounding noise.
TIE_REL_TOL = 1e-9

POLICY_TAGS = ("ours", "baseline1", "baseline2", "fastest")


class DataError(ValueError):
    """Measurement data, tables, or input files violate a documented invariant."""


class InfeasibleError(RuntimeError):
    """No (batch size, frequency) combination stays under the power cap."""


@dataclass(frozen=True)
class PowerCap:
    """Hard upper bound on device power draw, in watts.

    ``math.inf`` stands for an unconstrained device.  Feasibility checks use
    a strict ``power < p_max`` comparison.
    """

    p_max: float

    def __post_init__(self) -> None:
        if not isinstance(self.p_max, (int, float)) or isinstance(self.p_max, bool):
            raise DataError(f"power cap must be a number, got {self.p_max!r}")
        object.__setattr__(self, "p_max", float(self.p_max))
        if math.isnan(self.p_max) or self.p_max <= 0:
            raise DataError(f"power cap must be positive, got {self.p_max!r}")

    @classmethod
    def unlimited(cls) -> "PowerCap":
        return cls(math.inf)

    @classmethod
    def parse(cls, text: str) -> "PowerCap":
        """Parse a cap from CLI/file text: a positive number or ``unlimited``."""
        token = text.strip().lower()
        if token in ("unlimited", "inf"):
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
        return "unlimited" if self.is_unlimited else repr(self.p_max)


Rows = tuple[tuple[float, ...], ...]


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
    # A finite row sum proves every entry finite; only an overflowing sum of
    # finite entries needs the entries checked one by one.  A row's least
    # entry is an end of its sorted copy.
    finite = all(math.isfinite(sum(row)) or all(map(math.isfinite, row)) for row in rows)
    if not finite or min(min(s[0], s[-1]) for s in ordered) <= 0.0:
        raise DataError(f"{name} entries must be finite and strictly positive")
    return rows, next((i for i, (s, row) in enumerate(zip(ordered, rows)) if s != list(row)), None)


class _Table:
    """A table field of DeviceProfile, stored as rows and read as an ndarray.

    The constructor takes an ndarray or nested sequences; ``__post_init__``
    validates them and keeps tuples of row tuples of floats in the
    ``<name>_rows`` attribute, which the planner reads.  Reading the field
    itself returns a read-only float64 ndarray built on first access, so
    numpy is imported only by code that asks for arrays.
    """

    def __init__(self, optional: bool = False):
        self.optional = optional

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        self.rows = name.removesuffix("_table") + "_rows"
        self.array = f"_{name}_array"

    def __get__(self, obj: object, owner: type | None = None):
        if obj is None:
            if self.optional:
                return None  # the dataclass field's default
            raise AttributeError(self.name)  # no default: a required field
        rows = obj.__dict__[self.rows]
        if rows is None:
            return None
        arr = obj.__dict__.get(self.array)
        if arr is None:
            import numpy as np

            arr = np.array(rows, dtype=float)
            arr.setflags(write=False)
            obj.__dict__[self.array] = arr
        return arr

    def __set__(self, obj: object, value: object) -> None:
        obj.__dict__[self.rows] = value  # validated and replaced by __post_init__


@dataclass(frozen=True, eq=False)
class DeviceProfile:
    """Measured time and peak-power lookup tables for one model on one device.

    ``time_table[i, j]`` is the seconds needed to process ``samples_per_unit``
    training samples at batch size ``batch_sizes[i]`` and GPU frequency
    ``frequencies[j]`` (MHz).  ``power_table`` holds the matching peak watts;
    ``avg_power_table``, when present, the average watts used for energy
    estimates.  Tables are validated on construction and frozen; instances
    are immutable and safe to share across threads.  The same values are
    kept as tuples of rows in ``time_rows``, ``power_rows`` and
    ``avg_power_rows`` (``time_rows[i][j] == time_table[i, j]``).
    """

    model_id: str
    batch_sizes: tuple[int, ...]
    frequencies: tuple[float, ...]
    time_table: np.ndarray = _Table()
    power_table: np.ndarray = _Table()
    samples_per_unit: int
    avg_power_table: np.ndarray | None = _Table(optional=True)

    def __post_init__(self) -> None:
        bs = tuple(int(b) for b in self.batch_sizes)
        if not bs or any(b <= 0 for b in bs) or any(a >= b for a, b in zip(bs, bs[1:])):
            raise DataError("batch sizes must be strictly increasing positive integers")
        fs = tuple(float(f) for f in self.frequencies)
        if (
            not fs
            or any(not math.isfinite(f) or f <= 0 for f in fs)
            or any(a >= b for a, b in zip(fs, fs[1:]))
        ):
            raise DataError("frequencies must be strictly increasing positive values")
        if not isinstance(self.samples_per_unit, numbers.Integral) or self.samples_per_unit <= 0:
            raise DataError("samples_per_unit must be a positive integer")
        object.__setattr__(self, "batch_sizes", bs)
        object.__setattr__(self, "frequencies", fs)
        object.__setattr__(self, "samples_per_unit", int(self.samples_per_unit))

        shape = (len(bs), len(fs))
        stored = vars(self)  # the rows each _Table field keeps
        time, rising = _table_rows(stored["time_rows"], "time table", shape, descending=True)
        power, falling = _table_rows(stored["power_rows"], "power table", shape)
        stored["time_rows"], stored["power_rows"] = time, power
        if stored["avg_power_rows"] is not None:
            stored["avg_power_rows"] = _table_rows(stored["avg_power_rows"], "average power table", shape)[0]

        # Monotonicity violations point at sensor faults; reject rather than
        # smooth so the owner re-profiles the offending row.
        if rising is not None:
            raise DataError(
                f"time table increases with frequency for batch size {bs[rising]}; "
                "noisy measurement, re-profile this row"
            )
        if falling is not None:
            raise DataError(
                f"power table decreases with frequency for batch size {bs[falling]}; "
                "noisy measurement, re-profile this row"
            )
        for lower, upper in zip(power, power[1:]):
            if not all(map(operator.le, lower, upper)):
                j = next(j for j, (a, b) in enumerate(zip(lower, upper)) if a > b)
                raise DataError(
                    f"power table decreases with batch size at frequency {fs[j]}; "
                    "noisy measurement, re-profile this column"
                )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.batch_sizes), len(self.frequencies))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceProfile):
            return NotImplemented
        return (
            self.model_id == other.model_id
            and self.batch_sizes == other.batch_sizes
            and self.frequencies == other.frequencies
            and self.samples_per_unit == other.samples_per_unit
            and self.time_rows == other.time_rows
            and self.power_rows == other.power_rows
            and self.avg_power_rows == other.avg_power_rows
        )


@dataclass(frozen=True)
class RelationVector:
    """Per-batch-size samples-to-accuracy ratios, normalized to the worst case.

    Every ratio lies in (0, 1] and at least one entry equals 1.0 exactly (the
    batch size needing the most samples).
    """

    entries: Mapping[int, float]
    source_id: str = ""

    def __post_init__(self) -> None:
        if not self.entries:
            raise DataError("no batch sizes")
        clean: dict[int, float] = {}
        for b, ratio in self.entries.items():
            if not isinstance(b, numbers.Integral) or isinstance(b, bool) or b <= 0:
                raise DataError(f"batch sizes must be positive integers, got {b!r}")
            r = float(ratio)
            if not (0.0 < r <= 1.0):
                raise DataError(f"ratio for batch size {b} out of range (0, 1]: {r!r}")
            clean[int(b)] = r
        if not any(r == 1.0 for r in clean.values()):
            raise DataError("relation vector must contain an entry exactly equal to 1.0")
        ordered = dict(sorted(clean.items()))
        object.__setattr__(self, "entries", MappingProxyType(ordered))

    @property
    def batch_sizes(self) -> tuple[int, ...]:
        return tuple(self.entries)


@dataclass(frozen=True)
class FeasibleSet:
    """Per batch size, the maximal frequency index staying under the cap.

    ``pairs`` holds (batch index, frequency index) tuples, ascending in batch
    index, at most one per batch.  Batch sizes with no feasible frequency are
    simply absent; an empty set is a legal value.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        if any(i < 0 or j < 0 for i, j in pairs):
            raise DataError("feasible pair indices must be non-negative")
        batches = [i for i, _ in pairs]
        if any(a >= b for a, b in zip(batches, batches[1:])):
            raise DataError("feasible pairs must be strictly ascending in batch index")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def to_values(self, profile: DeviceProfile) -> tuple[tuple[int, float], ...]:
        """Resolve index pairs into (batch size, frequency MHz) values."""
        return tuple((profile.batch_sizes[i], profile.frequencies[j]) for i, j in self.pairs)


@dataclass(frozen=True)
class SelectionResult:
    """A chosen operating point plus the estimates that justified it.

    ``feasible_count`` records how many candidate configurations the policy
    actually evaluated (the feasible-set size for the joint policies, the
    fixed candidate list for the baselines).  ``estimated_energy`` is present
    only when the profile carries an average-power table.
    """

    batch_size: int
    frequency_mhz: float
    estimated_tt_acc: float
    feasible_count: int
    policy_tag: str
    estimated_energy: float | None = None

    def __post_init__(self) -> None:
        if self.policy_tag not in POLICY_TAGS:
            raise DataError(f"unknown policy tag {self.policy_tag!r}")
        if not (self.estimated_tt_acc > 0 and math.isfinite(self.estimated_tt_acc)):
            raise DataError("estimated time to accuracy must be positive and finite")
        if self.estimated_energy is not None and not self.estimated_energy > 0:
            raise DataError("estimated energy must be positive")
        if self.feasible_count < 1:
            raise DataError("feasible_count must be at least 1")


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


def _prefix_frontier(power: Rows, firsts: Sequence[float], p_max: float) -> list[int]:
    """Per batch row with a cell under the cap, in row order, the highest
    frequency index of such a cell; ``firsts`` is the first power column.

    Power is validated non-decreasing along both axes, so the rows with a
    feasible cell are a prefix (those whose first entry is under the cap)
    and so are each row's feasible cells; bisection finds both ends.
    """
    n = bisect_left(firsts, p_max)
    return [end - 1 for end in map(bisect_left, power[:n], repeat(p_max))]


def feasible_combinations(profile: DeviceProfile, cap: PowerCap) -> FeasibleSet:
    """Collect, per batch size, the highest frequency with peak power < cap."""
    power = profile.power_rows
    return FeasibleSet(tuple(enumerate(_prefix_frontier(power, next(zip(*power)), cap.p_max))))


def estimate_tt_acc(
    profile: DeviceProfile, r: RelationVector, pair: tuple[int, int]
) -> float:
    """Estimated time-to-accuracy for one (batch index, frequency index) pair.

    Returns ``time_table[i, j] * r[batch]``.  Because ratios are normalized,
    this equals the absolute time to accuracy divided by the worst batch
    size's sample count: a constant positive factor, so comparisons and
    argmins over pairs are unaffected.  Supplying raw counts instead of
    ratios (see ``fastest_configuration``) yields absolute seconds.
    """
    i, j = pair
    if not (0 <= i < len(profile.batch_sizes) and 0 <= j < len(profile.frequencies)):
        raise DataError(f"pair indices {pair!r} out of range for profile shape {profile.shape}")
    b = profile.batch_sizes[i]
    ratio = r.entries.get(b)
    if ratio is None:
        raise DataError(f"relation vector incomplete: no entry for batch size {b}")
    return profile.time_rows[i][j] * ratio


def _last_near_min(values: Sequence[float]) -> int:
    """Index of the last entry within TIE_REL_TOL of the global minimum.

    Ties are judged against the minimum itself, never against a running
    best, so the result does not depend on scan order.
    """
    low = min(values)
    if low == math.inf:  # time * count overflowed: SelectionResult rejects it
        return len(values) - 1
    k = len(values) - 1
    while not values[k] - low <= TIE_REL_TOL * values[k]:
        k -= 1
    return k


def _energy_at(profile: DeviceProfile, i: int, j: int, tt: float) -> float | None:
    if profile.avg_power_rows is None:
        return None
    return profile.avg_power_rows[i][j] * tt


def _check_relation_keys(profile: DeviceProfile, r: RelationVector) -> None:
    unknown = set(r.entries) - set(profile.batch_sizes)
    if unknown:
        raise DataError(
            f"relation vector names batch sizes not in profile: {sorted(unknown)}"
        )


def _select_caps(
    profile: DeviceProfile,
    multipliers: Mapping[int, float],
    p_maxes: Sequence[float],
    policy_tag: str,
    missing_label: str = "relation vector",
) -> list[tuple[int, int, SelectionResult] | None]:
    """Per cap, the argmin cell (i, j) of time * multiplier over the cap's
    frontier and its SelectionResult, or None when nothing fits.

    Every cell within TIE_REL_TOL of the minimum ties, and the last one in
    (i, j) order wins: the larger batch size, then the higher frequency
    (equal time, fewer optimizer steps).  Multipliers are looked up once
    per call and each cap needs O(rows) working memory, so caps may be
    many and in any order.
    """
    batches, time, power = profile.batch_sizes, profile.time_rows, profile.power_rows
    firsts = next(zip(*power))
    looked_up = list(map(multipliers.get, batches))
    missing = looked_up.index(None) if None in looked_up else len(batches)
    # Rows no cap reaches never have their multiplier used, so it is not converted.
    reach = min(missing, bisect_left(firsts, max(p_maxes, default=0.0)))
    mults = list(map(float, looked_up[:reach]))
    picks: list[tuple[int, int, SelectionResult] | None] = []
    for p_max in p_maxes:
        cols = _prefix_frontier(power, firsts, p_max)
        if not cols:
            picks.append(None)
            continue
        if len(cols) > missing:
            raise DataError(f"{missing_label} incomplete: no entry for batch size {batches[missing]}")
        tts = list(map(operator.mul, map(operator.getitem, time, cols), mults))
        i = _last_near_min(tts)
        j, tt = cols[i], tts[i]
        energy = _energy_at(profile, i, j, tt)
        picks.append((i, j, SelectionResult(batches[i], profile.frequencies[j], tt, len(cols), policy_tag, energy)))
    return picks


def _select_one(
    profile: DeviceProfile,
    multipliers: Mapping[int, float],
    cap: PowerCap,
    policy_tag: str,
    missing_label: str = "relation vector",
) -> SelectionResult:
    """``_select_caps`` at one cap; raises InfeasibleError when nothing fits."""
    (pick,) = _select_caps(profile, multipliers, (cap.p_max,), policy_tag, missing_label)
    if pick is None:
        raise InfeasibleError("no configuration satisfies power cap")
    return pick[2]


def select_configuration_fast(
    profile: DeviceProfile, r: RelationVector, cap: PowerCap
) -> SelectionResult:
    """Pick the feasible (batch size, frequency) minimizing estimated time to accuracy.

    Raises InfeasibleError when nothing stays under the cap and DataError
    when the relation vector misses a feasible batch size (silent shrinking
    of the search space would mask data bugs).
    """
    _check_relation_keys(profile, r)
    return _select_one(profile, r.entries, cap, "ours")


# The README documents both names; one kernel serves them.
select_configuration = select_configuration_fast
