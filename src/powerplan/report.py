"""Policy comparison, proxy-sensitivity, and cap-sweep reports.

Builders run the selectors over a scenario grid and collect rows suitable
both for human-readable tables and for plot-ready CSV.  Estimated times use
the proxy relation vector; realized times re-evaluate each policy's chosen
point under the ground-truth counts.  Speedups (and energy, when ground
truth is available) are computed on the realized basis, otherwise on the
estimated one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat
from operator import attrgetter

from .baselines import (
    SafeFrequencyTable,
    _count_picks,
    _safe_picks,
)
from .core import (
    DataError,
    DeviceProfile,
    PowerCap,
    RelationVector,
    _check_energy,
    _check_estimate,
    _check_keys,
    _energy_at,
    _entry,
    _fmt_cap,
    _Record,
    _relation_picks,
    _set,
    select_configuration_fast,
)

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"

# Longest cap ladder cap_range builds: a sweep runs one selection per cap, and
# a ladder over any real device's watt range needs a few hundred at most.
MAX_CAP_LADDER = 10_000


class ComparisonRow(_Record):
    __slots__ = (
        "p_max_w",
        "policy_tag",
        "batch_size",
        "frequency_mhz",
        "estimated_tt_acc",
        "realized_tt_acc",
        "energy_j",
        "speedup_vs_baseline1",
        "status",
    )

    def __init__(
        self,
        p_max_w: float,
        policy_tag: str,
        batch_size: int | None,
        frequency_mhz: float | None,
        estimated_tt_acc: float | None,
        realized_tt_acc: float | None,
        energy_j: float | None,
        speedup_vs_baseline1: float | None,
        status: str = STATUS_OK,
    ) -> None:
        _set(self, "p_max_w", p_max_w)
        _set(self, "policy_tag", policy_tag)
        _set(self, "batch_size", batch_size)
        _set(self, "frequency_mhz", frequency_mhz)
        _set(self, "estimated_tt_acc", estimated_tt_acc)
        _set(self, "realized_tt_acc", realized_tt_acc)
        _set(self, "energy_j", energy_j)
        _set(self, "speedup_vs_baseline1", speedup_vs_baseline1)
        _set(self, "status", status)


class ComparisonReport(_Record):
    """Per-(cap, policy) selection outcomes; baseline1 is the speedup anchor."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[ComparisonRow, ...]) -> None:
        _set(self, "rows", rows)


class SensitivityMatrix(_Record):
    """Percent extra realized training time versus the fastest configuration.

    Rows are proxy sources, columns target ground truths, for one cap.  An
    entry is 0 exactly when the proxy-driven choice realizes at most the
    fastest configuration's time; entries are stored exact and only rounded
    when rendered.  ``values`` is a tuple of rows, each a tuple of floats, so
    ``values[p][t]`` is proxy ``p`` against target ``t``.
    """

    __slots__ = ("p_max_w", "proxy_ids", "target_ids", "values")

    def __init__(
        self,
        p_max_w: float,
        proxy_ids: tuple[str, ...],
        target_ids: tuple[str, ...],
        values: Sequence[Sequence[float]],
    ) -> None:
        try:
            rows = tuple(tuple(map(float, row)) for row in values)
        except TypeError:  # not a sequence of rows
            rows = ()
        # A matrix needs at least one row and one column: an empty axis is rejected.
        if not (rows and target_ids) or len(rows) != len(proxy_ids) or any(len(row) != len(target_ids) for row in rows):
            raise DataError("sensitivity matrix shape does not match id axes")
        if not all(v >= 0.0 and math.isfinite(v) for row in rows for v in row):
            raise DataError("sensitivity entries must be finite and non-negative")
        _set(self, "p_max_w", p_max_w)
        _set(self, "proxy_ids", proxy_ids)
        _set(self, "target_ids", target_ids)
        _set(self, "values", rows)


class SweepRow(_Record):
    __slots__ = ("p_max_w", "batch_size", "frequency_mhz", "estimated_tt_acc", "energy_j", "status")

    def __init__(
        self,
        p_max_w: float,
        batch_size: int | None,
        frequency_mhz: float | None,
        estimated_tt_acc: float | None,
        energy_j: float | None,
        status: str = STATUS_OK,
    ) -> None:
        _set(self, "p_max_w", p_max_w)
        _set(self, "batch_size", batch_size)
        _set(self, "frequency_mhz", frequency_mhz)
        _set(self, "estimated_tt_acc", estimated_tt_acc)
        _set(self, "energy_j", energy_j)
        _set(self, "status", status)


def _realized(profile: DeviceProfile, i: int, j: int, counts: Mapping[int, float]) -> float:
    """Grid cell (i, j)'s time times its true count; an EntriesError carries ``counts``
    when the count is missing or takes the product out of the normal float range."""
    tt = float(profile.time_rows[i][j] * _entry(counts, profile.batch_sizes[i], "true counts"))
    _check_estimate(tt, counts)
    return tt


def build_comparison(
    profile: DeviceProfile,
    r: RelationVector,
    caps: Sequence[PowerCap],
    safe: SafeFrequencyTable,
    true_counts: Mapping[int, float] | None = None,
) -> ComparisonReport:
    """Run every policy under every cap and assemble the comparison rows.

    The estimated column keeps each policy's native basis: normalized time
    for the proxy-driven policies, absolute seconds for the fastest
    configuration (it runs on raw counts).  Cross-policy comparisons should
    read the realized column, which is absolute for everyone.  The
    fastest-configuration row needs ground truth and is omitted when
    ``true_counts`` is None.  A cap that leaves the joint selector with an
    empty feasible set produces an 'infeasible' row instead of aborting the
    whole report.

    Every policy plans every cap in one pass, taken one pick per cap, so
    every error fires at the cap and policy where a one-cap selection
    would: caps ascending, then baseline1, baseline2, ours, fastest.
    """
    ordered = sorted(caps, key=lambda c: c.p_max)
    p_maxes = [cap.p_max for cap in ordered]
    passes = {tag: _safe_picks(profile, r, ordered, safe, tag) for tag in ("baseline1", "baseline2")}
    passes["ours"] = _relation_picks(profile, r, p_maxes)
    if true_counts is not None:
        passes["fastest"] = _count_picks(profile, true_counts, p_maxes)
    bs, fs = profile.batch_sizes, profile.frequencies
    rows: list[ComparisonRow] = []
    for cap in ordered:
        # Every pick is taken before any row's realized time can raise.  Rows
        # follow this order; baseline1, the speedup anchor, always fits.
        picks = [(tag, next(picked)) for tag, picked in passes.items()]
        for tag, pick in picks:
            if pick is None:
                rows.append(ComparisonRow(cap.p_max, tag, None, None, None, None, None, None, STATUS_INFEASIBLE))
                continue
            i, j, tt, _, _ = pick
            realized = None if true_counts is None else _realized(profile, i, j, true_counts)
            basis = tt if realized is None else realized
            if tag == "baseline1":
                anchor = basis
            energy = _energy_at(profile, i, j, basis)
            _check_energy(energy, true_counts)  # on the estimated basis, the pick's energy, checked already
            rows.append(ComparisonRow(cap.p_max, tag, bs[i], fs[j], tt, realized, energy, anchor / basis))
    return ComparisonReport(tuple(rows))


def build_sensitivity(
    profile: DeviceProfile,
    proxies: Mapping[str, RelationVector],
    targets: Mapping[str, Mapping[int, float]],
    cap: PowerCap,
) -> SensitivityMatrix:
    """Percent time increase of proxy-driven selection over the fastest, per cell.

    Both axes are sorted by id so output is deterministic.  Errors follow
    one order: each proxy's keys, then each target's counts, keys and
    fastest pick, then each proxy's pick, which raises InfeasibleError
    when the cap admits no configuration at all.
    """
    if not proxies:
        raise DataError("no proxy relation vectors supplied")
    if not targets:
        raise DataError("no target counts supplied")
    proxy_ids = tuple(sorted(proxies))
    target_ids = tuple(sorted(targets))
    for pid in proxy_ids:
        _check_keys(profile, proxies[pid].entries)
    fastest = [next(_count_picks(profile, targets[tid], (cap.p_max,))) for tid in target_ids]
    picks = [select_configuration_fast(profile, proxies[pid], cap) for pid in proxy_ids]
    chosen = [(profile.batch_index(sel.batch_size), profile.frequency_index(sel.frequency_mhz)) for sel in picks]
    values = [[0.0] * len(target_ids) for _ in proxy_ids]
    for t_idx, tid in enumerate(target_ids):
        counts, fastest_tt = targets[tid], fastest[t_idx][2]
        for p_idx, (i, j) in enumerate(chosen):
            realized = _realized(profile, i, j, counts)
            if realized > fastest_tt:  # else a tie within the fastest pick's TIE_REL_TOL: the entry stays 0
                values[p_idx][t_idx] = (realized - fastest_tt) / fastest_tt * 100.0
    return SensitivityMatrix(cap.p_max, proxy_ids, target_ids, values)


def build_sweep(
    profile: DeviceProfile,
    r: RelationVector,
    caps: Sequence[PowerCap],
) -> tuple[SweepRow, ...]:
    """Selector outcome per cap; caps with an empty feasible set are flagged.

    One kernel call plans every cap, the same selection that
    ``select_configuration_fast`` makes at each.
    """
    picks = _relation_picks(profile, r, [cap.p_max for cap in caps])
    bs, fs = profile.batch_sizes, profile.frequencies
    rows: list[SweepRow] = []
    for pick, cap in zip(picks, caps):  # each pick first: a bad relation raises even with no caps
        if pick is None:
            rows.append(SweepRow(cap.p_max, None, None, None, None, STATUS_INFEASIBLE))
        else:
            i, j, tt, _, energy = pick
            rows.append(SweepRow(cap.p_max, bs[i], fs[j], tt, energy))
    return tuple(rows)


def cap_range(p_max_min: float, p_max_max: float, step: float) -> list[PowerCap]:
    """Inclusive arithmetic cap ladder; tolerates float step accumulation."""
    if not (p_max_min > 0 and p_max_max >= p_max_min and step > 0):
        raise DataError("cap range requires 0 < min <= max and step > 0")
    n_steps = (p_max_max - p_max_min) / step + 1e-9
    if not n_steps < MAX_CAP_LADDER:  # also rejects an infinite span
        raise DataError(f"cap range would hold more than {MAX_CAP_LADDER} caps; use a larger step")
    return [PowerCap(p_max_min + k * step) for k in range(int(math.floor(n_steps)) + 1)]


# A renderer maps a column's values to its cells, for a table when ``table`` and for a CSV otherwise.
def _caps(values: list, table: bool) -> list[str]:
    return list(map(_fmt_cap, values))


def _texts(values: list, table: bool) -> list[str]:
    return values


def _ints(values: list, table: bool) -> list[str]:
    """A batch size is an integer of any type (a numpy one from library callers), so
    it renders with str(), never as a float; a missing one renders as a missing float."""
    missing = "-" if table else ""
    return [missing if v is None else str(v) for v in values]


def _floats(values: list, table: bool) -> list[str]:
    """Six significant digits in a table and exact in a CSV; "-" and "" when missing."""
    if table:
        return ["-" if v is None else f"{v:.6g}" for v in values]
    return ["" if v is None else repr(float(v)) for v in values]


# Each report's columns in order: CSV header, table header (None: CSV only), row attribute, renderer.
_COMPARISON_COLUMNS = (
    ("p_max_w", "p_max_w", "p_max_w", _caps),
    ("policy", "policy", "policy_tag", _texts),
    ("batch_size", "b", "batch_size", _ints),
    ("frequency_mhz", "f_mhz", "frequency_mhz", _floats),
    ("estimated_tt_acc_s", "est_tt_s", "estimated_tt_acc", _floats),
    ("realized_tt_acc_s", "real_tt_s", "realized_tt_acc", _floats),
    ("energy_j", "energy_j", "energy_j", _floats),
    ("speedup_vs_baseline1", "speedup", "speedup_vs_baseline1", _floats),
    ("status", None, "status", _texts),  # an infeasible row's dashes show it in the table
)
_SWEEP_COLUMNS = (
    ("p_max_w", "p_max_w", "p_max_w", _caps),
    ("batch_size", "b", "batch_size", _ints),
    ("frequency_mhz", "f_mhz", "frequency_mhz", _floats),
    ("estimated_tt_acc_s", "est_tt_s", "estimated_tt_acc", _floats),
    ("energy_j", "energy_j", "energy_j", _floats),
    ("status", "status", "status", _texts),
)


def _columns(rows: Iterable[_Record], columns: tuple, table: bool) -> list[list[str]]:
    """Each of ``columns`` as its header and its cells over ``rows``, for a table when ``table``."""
    rows = tuple(rows)  # read once per column, so an iterator is taken in whole first
    out = []
    for csv_header, table_header, attr, render in columns:
        header = table_header if table else csv_header
        if header is not None:
            out.append([header, *render(list(map(attrgetter(attr), rows)), table)])
    return out


def _align(columns: Sequence[Sequence[str]]) -> str:
    """The columns side by side, each padded to its widest cell, two spaces apart, lines right-stripped."""
    padded = [list(map(str.ljust, column, repeat(max(map(len, column))))) for column in columns]
    return "".join(["  ".join(line).rstrip() + "\n" for line in zip(*padded)])


def comparison_csv_rows(report: ComparisonReport) -> list[list[str]]:
    return list(map(list, zip(*_columns(report.rows, _COMPARISON_COLUMNS, False))))


def format_comparison_table(report: ComparisonReport) -> str:
    return _align(_columns(report.rows, _COMPARISON_COLUMNS, True))


def sensitivity_csv_rows(matrices: Sequence[SensitivityMatrix]) -> list[list[str]]:
    rows = [["p_max_w", "proxy_id", "target_id", "time_increase_pct"]]
    for m in matrices:
        cap = _fmt_cap(m.p_max_w)
        for pid, values in zip(m.proxy_ids, m.values):
            rows += [[cap, pid, tid, f"{v:.1f}"] for tid, v in zip(m.target_ids, values)]
    return rows


def format_sensitivity_table(matrix: SensitivityMatrix) -> str:
    first = [f"p_max_w={_fmt_cap(matrix.p_max_w)}", *matrix.proxy_ids]
    targets = zip(matrix.target_ids, zip(*matrix.values))
    return _align([first] + [[tid, *(f"{v:.1f}" for v in column)] for tid, column in targets])


def sweep_csv_rows(rows: Sequence[SweepRow]) -> list[list[str]]:
    return list(map(list, zip(*_columns(rows, _SWEEP_COLUMNS, False))))


def format_sweep_table(rows: Sequence[SweepRow]) -> str:
    return _align(_columns(rows, _SWEEP_COLUMNS, True))
