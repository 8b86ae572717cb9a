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
from collections.abc import Callable, Mapping, Sequence

from .baselines import (
    SafeFrequencyTable,
    baseline1_select,
    baseline2_select,
    fastest_configuration,
)
from .core import (
    DataError,
    DeviceProfile,
    IncompleteError,
    InfeasibleError,
    PowerCap,
    RelationVector,
    SelectionResult,
    _check_keys,
    _energy_at,
    _Record,
    _select_caps,
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
        for row in rows:
            if row.policy_tag == "baseline1" and row.status == STATUS_OK:
                if row.speedup_vs_baseline1 != 1.0:
                    raise DataError("baseline1 speedup must be exactly 1")
        _set(self, "rows", rows)


class SensitivityMatrix(_Record):
    """Percent extra realized training time versus the fastest configuration.

    Rows are proxy sources, columns target ground truths, for one cap.  An
    entry is 0 exactly when the proxy-driven choice realizes the fastest
    configuration's time; entries are stored exact and only rounded when
    rendered.  ``values`` is a tuple of rows, each a tuple of floats, so
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
    b = profile.batch_sizes[i]
    count = counts.get(b)
    if count is None:
        raise IncompleteError(f"true counts incomplete: no entry for batch size {b}", counts)
    return float(profile.time_rows[i][j] * count)


def _cell_finder(profile: DeviceProfile) -> Callable[[SelectionResult], tuple[int, int]]:
    """A lookup from a selection on ``profile`` to its grid cell (i, j)."""
    rows = {b: i for i, b in enumerate(profile.batch_sizes)}
    cols = {f: j for j, f in enumerate(profile.frequencies)}
    return lambda sel: (rows[sel.batch_size], cols[sel.frequency_mhz])


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
    """
    cell = _cell_finder(profile)
    rows: list[ComparisonRow] = []
    for cap in sorted(caps, key=lambda c: c.p_max):
        # Rows follow this order; baseline1, the speedup anchor, always fits.
        selections: dict[str, SelectionResult | None] = {
            "baseline1": baseline1_select(profile, r, cap, safe),
            "baseline2": baseline2_select(profile, r, cap, safe),
        }
        try:
            selections["ours"] = select_configuration_fast(profile, r, cap)
        except InfeasibleError:
            selections["ours"] = None
        if true_counts is not None:
            try:
                selections["fastest"] = fastest_configuration(profile, true_counts, cap)
            except InfeasibleError:
                selections["fastest"] = None

        for tag, sel in selections.items():
            if sel is None:
                rows.append(ComparisonRow(cap.p_max, tag, None, None, None, None, None, None, STATUS_INFEASIBLE))
                continue
            i, j = cell(sel)
            realized = None if true_counts is None else _realized(profile, i, j, true_counts)
            basis = sel.estimated_tt_acc if realized is None else realized
            if tag == "baseline1":
                anchor = basis
            rows.append(
                ComparisonRow(
                    p_max_w=cap.p_max,
                    policy_tag=tag,
                    batch_size=sel.batch_size,
                    frequency_mhz=sel.frequency_mhz,
                    estimated_tt_acc=sel.estimated_tt_acc,
                    realized_tt_acc=realized,
                    energy_j=_energy_at(profile, i, j, basis),
                    speedup_vs_baseline1=anchor / basis,
                )
            )
    return ComparisonReport(tuple(rows))


def build_sensitivity(
    profile: DeviceProfile,
    proxies: Mapping[str, RelationVector],
    targets: Mapping[str, Mapping[int, float]],
    cap: PowerCap,
) -> SensitivityMatrix:
    """Percent time increase of proxy-driven selection over the fastest, per cell.

    Both axes are sorted by id so output is deterministic.  Raises
    InfeasibleError when the cap admits no configuration at all.
    """
    if not proxies:
        raise DataError("no proxy relation vectors supplied")
    if not targets:
        raise DataError("no target counts supplied")
    proxy_ids = tuple(sorted(proxies))
    target_ids = tuple(sorted(targets))
    cell = _cell_finder(profile)
    chosen = {pid: cell(select_configuration_fast(profile, proxies[pid], cap)) for pid in proxy_ids}
    values = [[0.0] * len(target_ids) for _ in proxy_ids]
    for t_idx, tid in enumerate(target_ids):
        counts = targets[tid]
        fastest_tt = fastest_configuration(profile, counts, cap).estimated_tt_acc
        for p_idx, pid in enumerate(proxy_ids):
            realized = _realized(profile, *chosen[pid], counts)
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
    _check_keys(profile, r.entries)
    picks = _select_caps(profile, r.entries, [cap.p_max for cap in caps], "ours")
    rows: list[SweepRow] = []
    for cap, pick in zip(caps, picks):
        if pick is None:
            rows.append(SweepRow(cap.p_max, None, None, None, None, STATUS_INFEASIBLE))
            continue
        sel = pick[2]
        rows.append(SweepRow(cap.p_max, sel.batch_size, sel.frequency_mhz, sel.estimated_tt_acc, sel.estimated_energy))
    return tuple(rows)


def cap_range(p_max_min: float, p_max_max: float, step: float) -> list[PowerCap]:
    """Inclusive arithmetic cap ladder; tolerates float step accumulation."""
    if not (p_max_min > 0 and p_max_max >= p_max_min and step > 0):
        raise DataError("cap range requires 0 < min <= max and step > 0")
    n_steps = (p_max_max - p_max_min) / step + 1e-9
    if not n_steps < MAX_CAP_LADDER:  # also rejects an infinite span
        raise DataError(f"cap range would hold more than {MAX_CAP_LADDER} caps; use a larger step")
    return [PowerCap(p_max_min + k * step) for k in range(int(math.floor(n_steps)) + 1)]


def _fmt_cap(p_max_w: float) -> str:
    return "unlimited" if math.isinf(p_max_w) else repr(float(p_max_w))


def _csv_cell(value: float | None) -> str:
    """A float cell of a CSV row: exact, and empty when missing."""
    return "" if value is None else repr(float(value))


def _table_cell(value: float | None) -> str:
    """A float cell of a table: six significant digits, and "-" when missing."""
    return "-" if value is None else f"{value:.6g}"


def _align(table: Sequence[Sequence[str]]) -> str:
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


# A batch size is an integer of any type (a numpy one from library callers), so
# it renders with str(), never as a float; only its absence goes through ``cell``.
def _comparison_cells(r: ComparisonRow, cell: Callable[[float | None], str]) -> list[str]:
    """A comparison row's cells in column order, each float rendered by ``cell``."""
    return [
        _fmt_cap(r.p_max_w),
        r.policy_tag,
        cell(None) if r.batch_size is None else str(r.batch_size),
        cell(r.frequency_mhz),
        cell(r.estimated_tt_acc),
        cell(r.realized_tt_acc),
        cell(r.energy_j),
        cell(r.speedup_vs_baseline1),
        r.status,
    ]


def _sweep_cells(r: SweepRow, cell: Callable[[float | None], str]) -> list[str]:
    """A sweep row's cells in column order, each float rendered by ``cell``."""
    return [
        _fmt_cap(r.p_max_w),
        cell(None) if r.batch_size is None else str(r.batch_size),
        cell(r.frequency_mhz),
        cell(r.estimated_tt_acc),
        cell(r.energy_j),
        r.status,
    ]


def comparison_csv_rows(report: ComparisonReport) -> list[list[str]]:
    header = ["p_max_w", "policy", "batch_size", "frequency_mhz", "estimated_tt_acc_s", "realized_tt_acc_s",
              "energy_j", "speedup_vs_baseline1", "status"]
    return [header] + [_comparison_cells(r, _csv_cell) for r in report.rows]


def format_comparison_table(report: ComparisonReport) -> str:
    # No status column: an infeasible row's dashes show it.
    header = ["p_max_w", "policy", "b", "f_mhz", "est_tt_s", "real_tt_s", "energy_j", "speedup"]
    return _align([header] + [_comparison_cells(r, _table_cell)[:-1] for r in report.rows])


def sensitivity_csv_rows(matrices: Sequence[SensitivityMatrix]) -> list[list[str]]:
    rows = [["p_max_w", "proxy_id", "target_id", "time_increase_pct"]]
    for m in matrices:
        for p_idx, pid in enumerate(m.proxy_ids):
            for t_idx, tid in enumerate(m.target_ids):
                rows.append([_fmt_cap(m.p_max_w), pid, tid, f"{m.values[p_idx][t_idx]:.1f}"])
    return rows


def format_sensitivity_table(matrix: SensitivityMatrix) -> str:
    header = (f"p_max_w={_fmt_cap(matrix.p_max_w)}",) + matrix.target_ids
    table = [header]
    for p_idx, pid in enumerate(matrix.proxy_ids):
        table.append((pid,) + tuple(f"{v:.1f}" for v in matrix.values[p_idx]))
    return _align(table)


def sweep_csv_rows(rows: Sequence[SweepRow]) -> list[list[str]]:
    header = ["p_max_w", "batch_size", "frequency_mhz", "estimated_tt_acc_s", "energy_j", "status"]
    return [header] + [_sweep_cells(r, _csv_cell) for r in rows]


def format_sweep_table(rows: Sequence[SweepRow]) -> str:
    header = ["p_max_w", "b", "f_mhz", "est_tt_s", "energy_j", "status"]
    return _align([header] + [_sweep_cells(r, _table_cell) for r in rows])
