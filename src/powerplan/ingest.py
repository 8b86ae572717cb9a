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
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import repeat

from .core import (
    DataError, DeviceProfile, PowerCap, RelationVector, _all_finite, _axes, _batch_axis, _batch_size, _check_counts,
    _frequency_axis, _Record, _set,
)

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


class PowerTrace(_Record):
    """Raw power samples prior to aggregation, as two equal-length columns: seconds and milliwatts."""

    __slots__ = ("timestamps_s", "power_mw")

    def __init__(self, timestamps_s: Sequence[float], power_mw: Sequence[float]) -> None:
        timestamps_s, power_mw = tuple(timestamps_s), tuple(power_mw)  # no copy of a tuple
        if len(timestamps_s) != len(power_mw):
            raise DataError("power trace columns differ in length")
        if not (_all_finite(timestamps_s) and _all_finite(power_mw)):
            raise DataError("power samples must be finite")
        if not all(map(operator.lt, timestamps_s, timestamps_s[1:])):
            raise DataError("power trace timestamps must be strictly increasing")
        if min(power_mw, default=0.0) < 0:
            raise DataError("power samples must be non-negative")
        _set(self, "timestamps_s", timestamps_s)
        _set(self, "power_mw", power_mw)

    @property
    def peak_w(self) -> float:
        if not self.power_mw:
            raise DataError("empty power trace")
        return max(self.power_mw) / 1000.0

    @property
    def avg_w(self) -> float:
        if not self.power_mw:
            raise DataError("empty power trace")
        # fsum is correctly rounded on every Python; sum() changed in 3.12.
        try:
            total = math.fsum(self.power_mw)
        except OverflowError:
            raise DataError("power samples sum past the float range") from None
        return total / len(self.power_mw) / 1000.0


class TimingTrace(_Record):
    """Per-mini-batch durations for one (batch size, frequency) point.

    The first ``warmup_discarded`` durations are kept for the record but
    excluded from aggregation.
    """

    __slots__ = ("batch_size", "frequency_mhz", "minibatch_durations", "warmup_discarded")

    def __init__(
        self,
        batch_size: int,
        frequency_mhz: float,
        minibatch_durations: Sequence[float],
        warmup_discarded: int = 0,
    ) -> None:
        minibatch_durations = tuple(minibatch_durations)
        batch_size = _batch_size(batch_size, f"batch size must be a positive integer, got {batch_size!r}")
        if not frequency_mhz > 0:
            raise DataError("frequency must be positive")
        if any(map(operator.ge, repeat(0.0), minibatch_durations)):
            raise DataError("mini-batch durations must be positive")
        if warmup_discarded < 0:
            raise DataError("warm-up count must be non-negative")
        if len(minibatch_durations) <= warmup_discarded:
            raise DataError("all samples discarded")
        try:
            math.fsum(minibatch_durations[warmup_discarded:])
        except OverflowError:
            raise DataError("retained mini-batch durations sum past the float range") from None
        # Last, so that every trace the checks above reject keeps its message.
        if not math.isfinite(frequency_mhz):
            raise DataError("frequency must be finite")
        if not _all_finite(minibatch_durations):
            raise DataError("mini-batch durations must be finite")
        _set(self, "batch_size", batch_size)
        _set(self, "frequency_mhz", frequency_mhz)
        _set(self, "minibatch_durations", minibatch_durations)
        _set(self, "warmup_discarded", warmup_discarded)

    @property
    def retained(self) -> tuple[float, ...]:
        return self.minibatch_durations[self.warmup_discarded :]


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
        values = tuple(map(float, ",".join(kept).split(","))) if kept else ()
        return PowerTrace(values[0::2], values[1::2])
    except (ValueError, DataError):
        _check_samples(_numbered_lines(lines))
        raise  # the two checks disagree: a defect here, not in the file


def _check_samples(numbered: Iterable[tuple[int, str]]) -> None:
    """Check power log lines one at a time, in file order; the first faulty line raises.

    Each ParseError drops the column parse's error as its context.
    """
    last_ts: float | None = None
    for n, line, ts, mw in _key_value_lines(numbered, "timestamp_s,power_mw", float, float):
        if not (math.isfinite(ts) and math.isfinite(mw)):
            raise ParseError(n, f"non-finite value in {line!r}") from None
        if last_ts is not None and ts <= last_ts:
            raise ParseError(n, f"non-monotone timestamp {ts!r}") from None
        if mw < 0:
            raise ParseError(n, f"negative power {mw!r}") from None
        last_ts = ts


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
    numbered = _numbered_lines(text.splitlines())
    try:
        n, header = next(numbered)
    except StopIteration:
        raise DataError("timing log has no header line") from None
    parts = header.split(",")
    if [p.partition("=")[0] for p in parts] != ["b", "f_mhz", "warmup"]:
        raise ParseError(n, f"expected header b=<int>,f_mhz=<num>,warmup=<int>, got {header!r}")
    try:
        b = int(parts[0].partition("=")[2])
        f_mhz = float(parts[1].partition("=")[2])
        warmup = int(parts[2].partition("=")[2])
        if b <= 0 or not 0 < f_mhz < math.inf or warmup < 0:
            raise ValueError("header value out of range")
    except ValueError:
        raise ParseError(n, f"invalid header values in {header!r}") from None

    durations: list[float] = []
    for n, line in numbered:
        try:
            duration = float(line)
        except ValueError:
            raise ParseError(n, f"expected one duration per line, got {line!r}") from None
        if not math.isfinite(duration):
            raise ParseError(n, f"non-finite value in {line!r}")
        if duration <= 0:
            raise ParseError(n, f"non-positive duration {duration!r}")
        durations.append(duration)
    if warmup_override is not None:
        warmup = warmup_override
    if max_minibatches is not None:
        if max_minibatches < 1:
            raise DataError("max_minibatches must be at least 1")
        durations = durations[: warmup + max_minibatches]
    return TimingTrace(
        batch_size=b,
        frequency_mhz=f_mhz,
        minibatch_durations=durations,
        warmup_discarded=warmup,
    )


class TimeScaleError(DataError):
    """T_s, the mean retained duration scaled to s samples, is not a positive float."""


class AggregatedPoint(_Record):
    """One grid point's T_s in seconds and its peak and average power in watts."""

    __slots__ = ("t_s_seconds", "peak_w", "avg_w")

    def __init__(self, t_s_seconds: float, peak_w: float, avg_w: float) -> None:
        _set(self, "t_s_seconds", t_s_seconds)
        _set(self, "peak_w", peak_w)
        _set(self, "avg_w", avg_w)


def _percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values``, q in (0, 100], as ``numpy.percentile`` gives it.

    numpy's default ``linear`` method (Hyndman & Fan's definition 7, 1996) in
    numpy's order of operations: rank ``(n - 1) * (q / 100)``, lerp from the nearer end.
    """
    xs = sorted(values)
    h = (len(xs) - 1) * (q / 100.0)
    k = math.floor(h)
    a, b = xs[k], xs[min(k + 1, len(xs) - 1)]
    t = h - k
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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
        peak_w = _percentile(power.power_mw, peak_percentile) / 1000.0
    if not peak_w > 0:  # samples are non-negative, so the peak is 0 W
        raise DataError(f"peak power must be positive, got {peak_w!r} W")
    if not avg_w > 0:  # a positive peak, but the mean of the samples underflows to 0 W
        raise DataError(f"average power must be positive, got {avg_w!r} W")
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
) -> tuple[tuple[int, float], ...]:
    """Plan the pruned measurement order for a known power cap, as (batch size, MHz) probes.

    Starts at the largest batch size with the lowest frequency and ascends
    until the first infeasible probe (which stays in the schedule: it had to
    be measured to know it is over the cap).  Each smaller batch size resumes
    at the highest feasible frequency found so far, since at a fixed
    frequency a smaller batch can only draw less power.  Without a finite
    cap nothing can be pruned and the schedule covers the full grid.
    """
    bs, fs = _axes(batch_sizes, frequencies)

    points: list[tuple[int, float]] = []
    if cap.is_unlimited:
        for b in reversed(bs):
            points.extend((b, f) for f in fs)
        return tuple(points)

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
    return tuple(points)


def _fmt(x: float) -> str:
    return repr(float(x))


class GridError(DataError):
    """A grid point that two cells cover (``duplicate``, the later cell's number) or none (``missing``, its (b, f))."""

    def __init__(self, message: str, duplicate: int | None = None, missing: tuple[int, float] | None = None) -> None:
        super().__init__(message)
        self.duplicate, self.missing = duplicate, missing


def place_cells(
    batch_sizes: Sequence[int],
    frequencies: Sequence[float],
    cell_b: Sequence[int],
    cell_f: Sequence[float],
    columns: Iterable[Sequence[float]],
) -> list[list[Sequence[float]]]:
    """Each of ``columns``, one value per cell, as the rows of the (batch size, frequency) grid.

    Neither axis may repeat a value.  Cells that come in grid order, as
    save_profile writes them, need no lookups; any others are placed through
    the axes.  Raises GridError for a grid point covered twice or not at all,
    and KeyError for a cell whose batch size or frequency is not on its axis.
    Memory follows the number of cells, never the size of the grid the axes
    declare.
    """
    shape = (len(batch_sizes), len(frequencies))
    n_grid = shape[0] * shape[1]
    row_start = {b: i * shape[1] for i, b in enumerate(batch_sizes)}
    freq_pos = {f: j for j, f in enumerate(frequencies)}
    if not (
        len(cell_b) == n_grid
        and list(cell_f) == list(frequencies) * shape[0]
        and list(cell_b) == [b for b in batch_sizes for _ in frequencies]
    ):
        index = list(map(operator.add, map(row_start.__getitem__, cell_b), map(freq_pos.__getitem__, cell_f)))
        order = sorted(range(len(index)), key=index.__getitem__)
        if len(order) != n_grid or list(map(index.__getitem__, order)) != list(range(n_grid)):
            seen: set[int] = set()
            for k, p in enumerate(index):
                if p in seen:
                    raise GridError(f"duplicate cell ({cell_b[k]}, {cell_f[k]!r})", duplicate=k)
                seen.add(p)
            # No point is covered twice, so the grid has a hole: the first position the sorted cells skip.
            i, j = divmod(next((p for p, q in enumerate(sorted(seen)) if p != q), len(seen)), shape[1])
            b, f = batch_sizes[i], frequencies[j]
            raise GridError(f"missing cell ({b}, {f!r})", missing=(b, f))
        columns = [list(map(column.__getitem__, order)) for column in columns]
    return [[column[k : k + shape[1]] for k in range(0, n_grid, shape[1])] for column in columns]


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
    caller names it with ``_check_cells``.
    """
    commas = set(map(str.count, cells, repeat(","))) or {3}
    if commas != {3} and commas != {4}:
        raise ValueError("cell lines disagree on their field count")
    width = commas.pop() + 1
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


def _check_cells(
    numbered_cells: Iterable[tuple[int, str]],
    batch_sizes: Sequence[int],
    frequencies: Sequence[float],
) -> None:
    """Check cell lines one at a time, in file order; the first faulty line raises.

    Each ParseError drops the column parse's error as its context.
    """
    batch_set, freq_set = set(batch_sizes), set(frequencies)
    seen: set[tuple[int, float]] = set()
    n_fields: int | None = None
    for n, line in numbered_cells:
        fields = line.split(",")
        if len(fields) not in (4, 5):
            raise ParseError(n, f"expected b,f_mhz,t_s_seconds,peak_w[,avg_w], got {line!r}") from None
        if n_fields is None:
            n_fields = len(fields)
        elif len(fields) != n_fields:
            raise ParseError(n, "mixed avg_w column: all cells must agree") from None
        try:
            b = int(fields[0])
            f = float(fields[1])
            for tok in fields[2:]:
                float(tok)
        except ValueError:
            raise ParseError(n, f"invalid cell values in {line!r}") from None
        if b not in batch_set:
            raise ParseError(n, f"cell batch size {b} not on axis") from None
        if f not in freq_set:
            raise ParseError(n, f"cell frequency {f!r} not on axis") from None
        if (b, f) in seen:
            raise ParseError(n, f"duplicate cell ({b}, {f!r})") from None
        seen.add((b, f))


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

    # Each axis gets DeviceProfile's rule as soon as its line is read, so that its fault names the line.
    try:
        n, batch_line = next(numbered)
        batch_sizes = _batch_axis([int(tok) for tok in batch_line.split(",")])
        n, freq_line = next(numbered)
        frequencies = _frequency_axis([float(tok) for tok in freq_line.split(",")])
    except StopIteration:
        raise DataError("profile file missing axis lines") from None
    except DataError as exc:
        raise ParseError(n, str(exc)) from None
    except ValueError:
        raise ParseError(n, "invalid axis line") from None

    # Cells are parsed column by column; on any fault a line-by-line re-check
    # of the remaining lines names the first faulty one.
    cells = _data_lines(lines[n:])
    try:
        cell_b, cell_f, values = _cell_columns(cells)
        tables = place_cells(batch_sizes, frequencies, cell_b, cell_f, values)
    except (ValueError, KeyError):  # GridError too
        _check_cells(numbered, batch_sizes, frequencies)
        raise  # a missing cell, which sits on no line; else the two checks disagree, a defect here
    return DeviceProfile(
        model_id=model_id,
        batch_sizes=batch_sizes,
        frequencies=frequencies,
        time_table=tables[0],
        power_table=tables[1],
        samples_per_unit=s,
        avg_power_table=tables[2] if len(tables) == 3 else None,
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
        source_id = line.partition(",")[2].strip()  # padded like the numeric fields
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
