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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .baselines import (
    SafeFrequencyTable,
    baseline1_select,
    baseline2_select,
    fastest_configuration,
)
from .core import (
    DataError,
    DeviceProfile,
    InfeasibleError,
    PowerCap,
    RelationVector,
    SelectionResult,
    _check_relation_keys,
    _energy_at,
    _select_caps,
    select_configuration_fast,
)

if TYPE_CHECKING:
    import numpy as np

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"

# Longest cap ladder cap_range builds: a sweep runs one selection per cap, and
# a ladder over any real device's watt range needs a few hundred at most.
MAX_CAP_LADDER = 10_000


@dataclass(frozen=True)
class ComparisonRow:
    p_max_w: float
    policy_tag: str
    batch_size: int | None
    frequency_mhz: float | None
    estimated_tt_acc: float | None
    realized_tt_acc: float | None
    energy_j: float | None
    speedup_vs_baseline1: float | None
    status: str = STATUS_OK


@dataclass(frozen=True)
class ComparisonReport:
    """Per-(cap, policy) selection outcomes; baseline1 is the speedup anchor."""

    rows: tuple[ComparisonRow, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.policy_tag == "baseline1" and row.status == STATUS_OK:
                if row.speedup_vs_baseline1 != 1.0:
                    raise DataError("baseline1 speedup must be exactly 1")

    def rows_for(self, policy_tag: str) -> tuple[ComparisonRow, ...]:
        return tuple(r for r in self.rows if r.policy_tag == policy_tag)


@dataclass(frozen=True, eq=False)
class SensitivityMatrix:
    """Percent extra realized training time versus the fastest configuration.

    Rows are proxy sources, columns target ground truths, for one cap.  An
    entry is 0 exactly when the proxy-driven choice realizes the fastest
    configuration's time; entries are stored exact and only rounded when
    rendered.
    """

    p_max_w: float
    proxy_ids: tuple[str, ...]
    target_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.array(self.values, dtype=float)
        if arr.shape != (len(self.proxy_ids), len(self.target_ids)):
            raise DataError("sensitivity matrix shape does not match id axes")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise DataError("sensitivity entries must be finite and non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class SweepRow:
    p_max_w: float
    batch_size: int | None
    frequency_mhz: float | None
    estimated_tt_acc: float | None
    energy_j: float | None
    status: str = STATUS_OK


def _realized(profile: DeviceProfile, i: int, j: int, counts: Mapping[int, float]) -> float:
    b = profile.batch_sizes[i]
    count = counts.get(b)
    if count is None:
        raise DataError(f"true counts incomplete: no entry for batch size {b}")
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
            "baseline1": baseline1_select(profile, cap, safe, r=r),
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
    _check_relation_keys(profile, r)
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


def _fmt_opt(value: float | None, human: bool = False) -> str:
    if value is None:
        return "-" if human else ""
    return f"{value:.6g}" if human else repr(float(value))


def _align(table: Sequence[tuple[str, ...]]) -> str:
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def comparison_csv_rows(report: ComparisonReport) -> list[list[str]]:
    rows = [
        [
            "p_max_w",
            "policy",
            "batch_size",
            "frequency_mhz",
            "estimated_tt_acc_s",
            "realized_tt_acc_s",
            "energy_j",
            "speedup_vs_baseline1",
            "status",
        ]
    ]
    for r in report.rows:
        rows.append(
            [
                _fmt_cap(r.p_max_w),
                r.policy_tag,
                "" if r.batch_size is None else str(r.batch_size),
                _fmt_opt(r.frequency_mhz),
                _fmt_opt(r.estimated_tt_acc),
                _fmt_opt(r.realized_tt_acc),
                _fmt_opt(r.energy_j),
                _fmt_opt(r.speedup_vs_baseline1),
                r.status,
            ]
        )
    return rows


def format_comparison_table(report: ComparisonReport) -> str:
    header = ("p_max_w", "policy", "b", "f_mhz", "est_tt_s", "real_tt_s", "energy_j", "speedup")
    table = [header]
    for r in report.rows:
        table.append(
            (
                _fmt_cap(r.p_max_w),
                r.policy_tag,
                "-" if r.batch_size is None else str(r.batch_size),
                _fmt_opt(r.frequency_mhz, human=True),
                _fmt_opt(r.estimated_tt_acc, human=True),
                _fmt_opt(r.realized_tt_acc, human=True),
                _fmt_opt(r.energy_j, human=True),
                _fmt_opt(r.speedup_vs_baseline1, human=True),
            )
        )
    return _align(table)


def sensitivity_csv_rows(matrices: Sequence[SensitivityMatrix]) -> list[list[str]]:
    rows = [["p_max_w", "proxy_id", "target_id", "time_increase_pct"]]
    for m in matrices:
        for p_idx, pid in enumerate(m.proxy_ids):
            for t_idx, tid in enumerate(m.target_ids):
                rows.append([_fmt_cap(m.p_max_w), pid, tid, f"{m.values[p_idx, t_idx]:.1f}"])
    return rows


def format_sensitivity_table(matrix: SensitivityMatrix) -> str:
    header = (f"p_max_w={_fmt_cap(matrix.p_max_w)}",) + matrix.target_ids
    table = [header]
    for p_idx, pid in enumerate(matrix.proxy_ids):
        table.append((pid,) + tuple(f"{v:.1f}" for v in matrix.values[p_idx]))
    return _align(table)


def sweep_csv_rows(rows: Sequence[SweepRow]) -> list[list[str]]:
    out = [["p_max_w", "batch_size", "frequency_mhz", "estimated_tt_acc_s", "energy_j", "status"]]
    for r in rows:
        out.append(
            [
                _fmt_cap(r.p_max_w),
                "" if r.batch_size is None else str(r.batch_size),
                _fmt_opt(r.frequency_mhz),
                _fmt_opt(r.estimated_tt_acc),
                _fmt_opt(r.energy_j),
                r.status,
            ]
        )
    return out


def format_sweep_table(rows: Sequence[SweepRow]) -> str:
    header = ("p_max_w", "b", "f_mhz", "est_tt_s", "energy_j", "status")
    table = [header]
    for r in rows:
        table.append(
            (
                _fmt_cap(r.p_max_w),
                "-" if r.batch_size is None else str(r.batch_size),
                _fmt_opt(r.frequency_mhz, human=True),
                _fmt_opt(r.estimated_tt_acc, human=True),
                _fmt_opt(r.energy_j, human=True),
                r.status,
            )
        )
    return _align(table)
