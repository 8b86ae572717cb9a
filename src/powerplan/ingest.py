"""Measurement-log parsing, aggregation into profiles, and persistence.

File grammars (UTF-8, LF line endings; '#' starts a comment line and blank
lines are ignored everywhere):

* power log: one sample per line, ``timestamp_s,power_mw``; finite values,
  strictly increasing timestamps, non-negative power.
* timing log: header ``b=<int>,f_mhz=<num>,warmup=<int>`` then one mini-batch
  duration (seconds) per line, finite and positive.
* device profile: header ``model_id,s``; a batch-size axis line; a frequency
  axis line; then one cell per line, ``b,f_mhz,t_s_seconds,peak_w[,avg_w]``,
  covering the full grid exactly once.
* relation / counts files: optional ``source_id,<name>`` line, then one
  ``batch_size,value`` line per batch size, in the ``key,value`` grammar
  of the safe-frequency table: one reader and one writer serve all three.

Numbers are written with Python's shortest round-trip rendering so that a
save/load cycle is bit-exact.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .core import DataError, DeviceProfile, PowerCap, RelationVector, _check_counts

DEFAULT_MINIBATCHES = 5
DEFAULT_WARMUP = 1  # first mini-batch absorbs kernel compilation noise
_CELL_CHUNK = 1024  # profile cell lines tokenised at a time; bounds load memory


class ParseError(DataError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _numbered_lines(lines: list[str]) -> Iterator[tuple[int, str]]:
    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield n, line


def _data_lines(lines: list[str]) -> list[str]:
    """The lines ``_numbered_lines`` yields, without their numbers."""
    return [line for line in map(str.strip, lines) if line and line[0] != "#"]


def _key_value_lines(numbered: Iterable[tuple[int, str]], fields: str, key: Callable, value: Callable) -> Iterator:
    """(line number, line, key, value) per ``key,value`` line; a line that is not two
    fields that ``key`` and ``value`` convert raises ``expected <fields>, got <line>``.
    """
    for n, line in numbered:
        try:
            k, v = line.split(",")
            k, v = key(k), value(v)
        except (ValueError, DataError):
            raise ParseError(n, f"expected {fields}, got {line!r}") from None
        yield n, line, k, v


@dataclass(frozen=True)
class PowerTrace:
    """Raw timestamped power samples, milliwatts, prior to aggregation."""

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ts, mw = zip(*self.samples) if self.samples else ((), ())
        if not all(map(math.isfinite, ts + mw)):
            raise DataError("power samples must be finite")
        if not all(map(operator.lt, ts, ts[1:])):
            raise DataError("power trace timestamps must be strictly increasing")
        if min(mw, default=0.0) < 0:
            raise DataError("power samples must be non-negative")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def peak_w(self) -> float:
        if not self.samples:
            raise DataError("empty power trace")
        return max(map(operator.itemgetter(1), self.samples)) / 1000.0

    @property
    def avg_w(self) -> float:
        if not self.samples:
            raise DataError("empty power trace")
        # fsum is correctly rounded on every Python; sum() changed in 3.12.
        try:
            total = math.fsum(map(operator.itemgetter(1), self.samples))
        except OverflowError:
            raise DataError("power samples sum past the float range") from None
        return total / len(self.samples) / 1000.0


@dataclass(frozen=True)
class TimingTrace:
    """Per-mini-batch durations for one (batch size, frequency) point.

    The first ``warmup_discarded`` durations are kept for the record but
    excluded from aggregation.
    """

    batch_size: int
    frequency_mhz: float
    minibatch_durations: tuple[float, ...]
    warmup_discarded: int = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise DataError("batch size must be positive")
        if not self.frequency_mhz > 0:
            raise DataError("frequency must be positive")
        if any(map(operator.ge, repeat(0.0), self.minibatch_durations)):
            raise DataError("mini-batch durations must be positive")
        if self.warmup_discarded < 0:
            raise DataError("warm-up count must be non-negative")
        if len(self.minibatch_durations) <= self.warmup_discarded:
            raise DataError("all samples discarded")
        try:
            math.fsum(self.retained)
        except OverflowError:
            raise DataError("retained mini-batch durations sum past the float range") from None

    @property
    def retained(self) -> tuple[float, ...]:
        return self.minibatch_durations[self.warmup_discarded :]


@dataclass(frozen=True)
class ProfilingSchedule:
    """Ordered (batch size, frequency MHz) measurement points.

    Batch sizes run in descending order, each with one contiguous ascending
    frequency run; the run's last probe may be the infeasible stopping point.
    """

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        points = tuple((int(b), float(f)) for b, f in self.points)
        seen: list[int] = []
        run_freqs: list[float] = []
        for b, f in points:
            if not seen or seen[-1] != b:
                if b in seen:
                    raise DataError(f"batch size {b} appears in two separate runs")
                if seen and b >= seen[-1]:
                    raise DataError("schedule batch sizes must descend")
                seen.append(b)
                run_freqs = [f]
            else:
                if f <= run_freqs[-1]:
                    raise DataError(f"frequency run for batch size {b} must ascend")
                run_freqs.append(f)
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def parse_power_log(text: str) -> PowerTrace:
    """Parse ``timestamp_s,power_mw`` lines into a PowerTrace.

    Every input line is either a sample, a comment/blank, or a ParseError
    naming its line number; nothing is dropped silently.
    """
    lines = text.splitlines()
    # The samples are parsed as whole columns, and PowerTrace checks them; on
    # any fault a line-by-line re-check names the first faulty line.
    kept = _data_lines(lines)
    try:
        if set(map(str.count, kept, repeat(","))) - {1}:
            raise ValueError("a line without exactly two fields")
        values = list(map(float, ",".join(kept).split(","))) if kept else []
        return PowerTrace(tuple(zip(values[0::2], values[1::2])))
    except (ValueError, DataError):
        fault = _first_sample_fault(_numbered_lines(lines))
        if fault is None:
            raise  # the two checks disagree: a defect here, not in the file
        raise fault from None


def _first_sample_fault(numbered: Iterable[tuple[int, str]]) -> ParseError | None:
    """Check power log lines one at a time, in file order; the first faulty line's error."""
    last_ts: float | None = None
    try:
        for n, line, ts, mw in _key_value_lines(numbered, "timestamp_s,power_mw", float, float):
            if not (math.isfinite(ts) and math.isfinite(mw)):
                return ParseError(n, f"non-finite value in {line!r}")
            if last_ts is not None and ts <= last_ts:
                return ParseError(n, f"non-monotone timestamp {ts!r}")
            if mw < 0:
                return ParseError(n, f"negative power {mw!r}")
            last_ts = ts
    except ParseError as fault:
        return fault
    return None


def parse_timing_log(
    text: str,
    warmup_override: int | None = None,
    max_minibatches: int | None = None,
) -> TimingTrace:
    """Parse a timing log: header ``b=...,f_mhz=...,warmup=...`` then durations.

    ``warmup_override`` replaces the header's warm-up count; when
    ``max_minibatches`` is given, at most that many retained durations are
    kept (extra trailing measurements are trimmed).
    """
    lines = text.splitlines()
    kept = _data_lines(lines)
    if not kept:
        raise DataError("timing log has no header line")
    header = kept[0]
    parts = header.split(",")
    keys = [p.partition("=")[0] for p in parts]
    if keys != ["b", "f_mhz", "warmup"]:
        message = f"expected header b=<int>,f_mhz=<num>,warmup=<int>, got {header!r}"
        raise ParseError(next(_numbered_lines(lines))[0], message)
    try:
        b = int(parts[0].partition("=")[2])
        f_mhz = float(parts[1].partition("=")[2])
        warmup = int(parts[2].partition("=")[2])
        if b <= 0 or not 0 < f_mhz < math.inf or warmup < 0:
            raise ValueError("header value out of range")
    except ValueError:
        raise ParseError(next(_numbered_lines(lines))[0], f"invalid header values in {header!r}") from None

    # The durations are parsed and checked as one column; on any fault a
    # line-by-line re-check names the first faulty line.
    try:
        durations = list(map(float, kept[1:]))
        if not (all(map(math.isfinite, durations)) and all(map(operator.lt, repeat(0.0), durations))):
            raise ValueError("non-finite or non-positive duration")
    except ValueError:
        numbered = _numbered_lines(lines)
        next(numbered)  # the header
        fault = _first_duration_fault(numbered)
        if fault is None:
            raise  # the two checks disagree: a defect here, not in the file
        raise fault from None
    if warmup_override is not None:
        warmup = warmup_override
    if max_minibatches is not None:
        if max_minibatches < 1:
            raise DataError("max_minibatches must be at least 1")
        durations = durations[: warmup + max_minibatches]
    return TimingTrace(
        batch_size=b,
        frequency_mhz=f_mhz,
        minibatch_durations=tuple(durations),
        warmup_discarded=warmup,
    )


def _first_duration_fault(numbered: Iterable[tuple[int, str]]) -> ParseError | None:
    """Check duration lines one at a time, in file order; the first faulty line's error."""
    for n, line in numbered:
        try:
            duration = float(line)
        except ValueError:
            return ParseError(n, f"expected one duration per line, got {line!r}")
        if not math.isfinite(duration):
            return ParseError(n, f"non-finite value in {line!r}")
        if duration <= 0:
            return ParseError(n, f"non-positive duration {duration!r}")
    return None


class TimeScaleError(DataError):
    """T_s, the mean retained duration scaled to s samples, is not a positive float."""


class AggregatedPoint(NamedTuple):
    """(t_s_seconds, peak_w, avg_w) for one grid point."""

    t_s_seconds: float
    peak_w: float
    avg_w: float


def aggregate_point(
    power: PowerTrace,
    timing: TimingTrace,
    s: int,
    peak_percentile: float | None = None,
) -> AggregatedPoint:
    """Reduce one measurement point to (T_s, peak watts, average watts).

    T_s scales the mean retained mini-batch duration to s samples; s need not
    be a multiple of the batch size.  Peak is the maximum raw sample unless
    ``peak_percentile`` selects a percentile for noisy sensors.  Raises
    TimeScaleError when T_s overflows or underflows the float range.
    """
    if not s > 0:
        raise DataError("samples_per_unit must be positive")
    avg_w = power.avg_w  # first: an empty trace is reported before a bad percentile
    if peak_percentile is None:
        peak_w = power.peak_w
    else:
        if not 0 < peak_percentile <= 100:
            raise DataError("peak percentile must lie in (0, 100]")
        import numpy as np

        peak_w = float(np.percentile(list(map(operator.itemgetter(1), power.samples)), peak_percentile)) / 1000.0
    # TimingTrace guarantees at least one retained duration.
    retained = timing.retained
    mean = math.fsum(retained) / len(retained)
    t_s = mean * (s / timing.batch_size)
    if not 0 < t_s < math.inf:
        raise TimeScaleError(f"T_s out of range: mean duration {mean!r} s times {s} / b={timing.batch_size} is {t_s!r} s")
    return AggregatedPoint(t_s, peak_w, avg_w)


def profiling_schedule(
    batch_sizes: Sequence[int],
    frequencies: Sequence[float],
    cap: PowerCap,
    power_oracle: Callable[[int, float], float],
) -> ProfilingSchedule:
    """Plan the pruned measurement order for a known power cap.

    Starts at the largest batch size with the lowest frequency and ascends
    until the first infeasible probe (which stays in the schedule: it had to
    be measured to know it is over the cap).  Each smaller batch size resumes
    at the highest feasible frequency found so far, since at a fixed
    frequency a smaller batch can only draw less power.  Without a finite
    cap nothing can be pruned and the schedule covers the full grid.
    """
    bs = [int(b) for b in batch_sizes]
    fs = [float(f) for f in frequencies]
    if not bs or any(a >= b for a, b in zip(bs, bs[1:])):
        raise DataError("batch sizes must be sorted ascending and unique")
    if not fs or any(a >= b for a, b in zip(fs, fs[1:])):
        raise DataError("frequencies must be sorted ascending and unique")

    points: list[tuple[int, float]] = []
    if cap.is_unlimited:
        for b in reversed(bs):
            points.extend((b, f) for f in fs)
        return ProfilingSchedule(tuple(points))

    start = 0
    for b in reversed(bs):
        j = start
        row_best: int | None = None
        while j < len(fs):
            points.append((b, fs[j]))
            if power_oracle(b, fs[j]) < cap.p_max:
                row_best = j
                j += 1
            else:
                break
        if row_best is not None:
            start = row_best
    return ProfilingSchedule(tuple(points))


def discovered_feasible(
    schedule: ProfilingSchedule,
    power_oracle: Callable[[int, float], float],
    cap: PowerCap,
) -> dict[int, float]:
    """Per batch size, the highest frequency whose probe measured under the cap."""
    found: dict[int, float] = {}
    for b, f in schedule:
        if power_oracle(b, f) < cap.p_max:
            if b not in found or f > found[b]:
                found[b] = f
    return found


def _fmt(x: float) -> str:
    return repr(float(x))


class CellPlacement(NamedTuple):
    """Where the cells of a (batch size, frequency) grid land, one entry per cell."""

    # Cell numbers sorted by flat row-major grid position i * n_freqs + j;
    # None when the cells come in that order already, as save_profile writes them.
    order: list[int] | None
    shape: tuple[int, int]
    duplicate: int | None  # first cell that lands where an earlier cell did
    missing: tuple[int, float] | None  # first (b, f) grid point no cell covers

    def fill(self, values: Sequence[float]) -> list[Sequence[float]]:
        """Rows holding each cell's value at its grid position; the grid must be complete."""
        flat = values if self.order is None else list(map(values.__getitem__, self.order))
        n_freqs = self.shape[1]
        return [flat[k : k + n_freqs] for k in range(0, len(flat), n_freqs)]


def place_cells(
    batch_sizes: Sequence[int],
    frequencies: Sequence[float],
    cell_b: Sequence[int],
    cell_f: Sequence[float],
) -> CellPlacement:
    """Place cells on the grid through axis lookups and sort them into grid order.

    A grid point covered twice or not at all is reported, not raised, so the
    caller can name the offending line or file.  Raises KeyError for a cell
    whose batch size or frequency is not on its axis.  Memory follows the
    number of cells, never the size of the grid the axes declare.
    """
    shape = (len(batch_sizes), len(frequencies))
    n_grid = shape[0] * shape[1]
    row_start = {b: i * shape[1] for i, b in enumerate(batch_sizes)}
    freq_pos = {f: j for j, f in enumerate(frequencies)}
    if (
        len(cell_b) == n_grid
        and (len(row_start), len(freq_pos)) == shape  # no axis value repeats
        and list(cell_f) == list(frequencies) * shape[0]
        and list(cell_b) == [b for b in batch_sizes for _ in frequencies]
    ):
        return CellPlacement(None, shape, None, None)  # already in grid order: no lookups
    index = list(map(operator.add, map(row_start.__getitem__, cell_b), map(freq_pos.__getitem__, cell_f)))
    order = sorted(range(len(index)), key=index.__getitem__)
    duplicate = missing = None
    if len(order) != n_grid or list(map(index.__getitem__, order)) != list(range(n_grid)):
        seen: set[int] = set()
        for k, p in enumerate(index):
            if p in seen:
                duplicate = k
                break
            seen.add(p)
        covered = sorted(set(index))
        gap = next((p for p, q in enumerate(covered) if p != q), len(covered))
        if gap < n_grid:
            i, j = divmod(gap, shape[1])
            missing = (batch_sizes[i], frequencies[j])
    return CellPlacement(order, shape, duplicate, missing)


def save_profile(profile: DeviceProfile) -> str:
    """Render a DeviceProfile in the profile file grammar (bit-exact round trip)."""
    # load_profile splits on every break str.splitlines knows, not only \n and \r.
    if len(f"{profile.model_id},".splitlines()) > 1:
        raise DataError("model_id must not contain newlines")
    batch_text = [str(b) for b in profile.batch_sizes]
    freq_text = [_fmt(f) for f in profile.frequencies]
    tables = [profile.time_rows, profile.power_rows]
    if profile.avg_power_rows is not None:
        tables.append(profile.avg_power_rows)
    lines = [f"{profile.model_id},{profile.samples_per_unit}", ",".join(batch_text), ",".join(freq_text)]
    # One batch row at a time keeps the rendered numbers small; rows hold
    # Python floats, so repr renders exactly as _fmt does.
    for b, *rows in zip(batch_text, *tables):
        values = (map(repr, row) for row in rows)
        lines.extend(map(",".join, zip(repeat(b), freq_text, *values)))
    lines.append("")  # trailing newline
    return "\n".join(lines)


def _parse_each(convert: Callable[[str], object], tokens: list[str]):
    """``convert`` applied to each token; axis tokens repeat, so each distinct one is parsed once."""
    parsed = {tok: convert(tok) for tok in set(tokens)}
    return map(parsed.__getitem__, tokens)


def _cell_columns(cells: list[str]) -> tuple[list[int], list[float], list[list[float]]]:
    """Batch sizes, frequencies and value columns of the cell lines.

    Raises ValueError on any malformed line without saying which; the
    caller finds it with ``_first_cell_fault``.
    """
    widths = {line.count(",") + 1 for line in cells} or {4}
    if widths != {4} and widths != {5}:
        raise ValueError("cell lines disagree on their field count")
    (width,) = widths
    cell_b: list[int] = []
    cell_f: list[float] = []
    values: list[list[float]] = [[] for _ in range(width - 2)]
    for start in range(0, len(cells), _CELL_CHUNK):
        tokens = ",".join(cells[start : start + _CELL_CHUNK]).split(",")
        cell_b += _parse_each(int, tokens[0::width])
        cell_f += _parse_each(float, tokens[1::width])
        for k, column in enumerate(values, start=2):
            column += map(float, tokens[k::width])
    return cell_b, cell_f, values


def _first_cell_fault(
    numbered_cells: Iterable[tuple[int, str]],
    batch_sizes: Sequence[int],
    frequencies: Sequence[float],
) -> ParseError | None:
    """Check cell lines one at a time, in file order; the first faulty line's error."""
    batch_set, freq_set = set(batch_sizes), set(frequencies)
    seen: set[tuple[int, float]] = set()
    n_fields: int | None = None
    for n, line in numbered_cells:
        fields = line.split(",")
        if len(fields) not in (4, 5):
            return ParseError(n, f"expected b,f_mhz,t_s_seconds,peak_w[,avg_w], got {line!r}")
        if n_fields is None:
            n_fields = len(fields)
        elif len(fields) != n_fields:
            return ParseError(n, "mixed avg_w column: all cells must agree")
        try:
            b = int(fields[0])
            f = float(fields[1])
            for tok in fields[2:]:
                float(tok)
        except ValueError:
            return ParseError(n, f"invalid cell values in {line!r}")
        if b not in batch_set:
            return ParseError(n, f"cell batch size {b} not on axis")
        if f not in freq_set:
            return ParseError(n, f"cell frequency {f!r} not on axis")
        if (b, f) in seen:
            return ParseError(n, f"duplicate cell ({b}, {f!r})")
        seen.add((b, f))
    return None


def load_profile(text: str) -> DeviceProfile:
    """Parse the profile file grammar back into a validated DeviceProfile.

    Cell lines may come in any order.  Any malformed cell line raises a
    ParseError naming the first such line in the file.
    """
    lines = text.splitlines()
    numbered = _numbered_lines(lines)
    try:
        n, header = next(numbered)
    except StopIteration:
        raise DataError("empty profile file") from None
    model_id, sep, s_text = header.rpartition(",")
    if not sep:
        raise ParseError(n, "expected header model_id,s")
    try:
        s = int(s_text)
    except ValueError:
        raise ParseError(n, f"invalid sample count {s_text!r}") from None

    try:
        n, batch_line = next(numbered)
        batch_sizes = tuple(int(tok) for tok in batch_line.split(","))
        n, freq_line = next(numbered)
        frequencies = tuple(float(tok) for tok in freq_line.split(","))
    except StopIteration:
        raise DataError("profile file missing axis lines") from None
    except ValueError:
        raise ParseError(n, "invalid axis line") from None

    # Cells are parsed column by column; on any fault a line-by-line re-check
    # of the remaining lines names the first faulty one.
    cells = _data_lines(lines[n:])
    try:
        cell_b, cell_f, values = _cell_columns(cells)
        placed = place_cells(batch_sizes, frequencies, cell_b, cell_f)
        if placed.duplicate is not None:
            raise ValueError("duplicate cell")
    except (ValueError, KeyError):
        fault = _first_cell_fault(numbered, batch_sizes, frequencies)
        if fault is None:
            raise  # the two checks disagree: a defect here, not in the file
        raise fault from None
    if placed.missing is not None:
        b, f = placed.missing
        raise DataError(f"missing cell ({b}, {f!r})")
    return DeviceProfile(
        model_id=model_id,
        batch_sizes=batch_sizes,
        frequencies=frequencies,
        time_table=placed.fill(values[0]),
        power_table=placed.fill(values[1]),
        samples_per_unit=s,
        avg_power_table=placed.fill(values[2]) if len(values) == 3 else None,
    )


def _format_key_values(pairs: Iterable[tuple[object, object]], source_id: str = "") -> str:
    """``key,value`` lines, after a ``source_id`` line when one is given."""
    lines = [f"source_id,{source_id}"] if source_id else []
    return "\n".join(lines + [f"{k},{v}" for k, v in pairs]) + "\n"


def _parse_id_and_values(text: str) -> tuple[str, dict[int, float]]:
    numbered = list(_numbered_lines(text.splitlines()))
    source_id = ""
    if numbered and numbered[0][1].split(",")[0] == "source_id":
        n, line = numbered.pop(0)
        if line.count(",") != 1:
            raise ParseError(n, "expected source_id,<name>")
        source_id = line.partition(",")[2]
    values: dict[int, float] = {}
    for n, _, b, v in _key_value_lines(numbered, "batch_size,value", int, float):
        if b in values:
            raise ParseError(n, f"duplicate batch size {b}")
        values[b] = v
    return source_id, values


def parse_relation_file(text: str) -> RelationVector:
    """Parse ``batch_size,ratio`` lines into a validated RelationVector."""
    source_id, values = _parse_id_and_values(text)
    return RelationVector(values, source_id=source_id)


def parse_counts_file(text: str) -> tuple[dict[int, float], str]:
    """Parse ``batch_size,count`` lines; returns (counts, source_id)."""
    source_id, values = _parse_id_and_values(text)
    _check_counts(values)
    return values, source_id


def format_relation_file(r: RelationVector) -> str:
    return _format_key_values(((b, _fmt(v)) for b, v in r.entries.items()), r.source_id)


def format_counts_file(counts: Mapping[int, float], source_id: str = "") -> str:
    pairs = ((b, v if isinstance(v, int) else _fmt(v)) for b, v in sorted(counts.items()))
    return _format_key_values(pairs, source_id)
