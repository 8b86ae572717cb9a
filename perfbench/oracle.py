"""Independent oracle for the perfbench workloads.

Nothing here calls into powerplan: expected answers are computed by brute
force over every grid cell from the generated input values, and outputs are
parsed with this module's own reader of the profile grammar.  The generator
redraws any input whose best and second-best estimates lie within
``TIE_GAP`` of each other, so no check here depends on the planner's tie
rule.
"""

from __future__ import annotations

import math

TIE_GAP = 1e-6
REL_TOL = 1e-12
PCT_ABS_TOL = 1e-9


class OracleError(AssertionError):
    """A program output disagrees with the oracle."""


def argmin(time, power, mult, p_max: float):
    """Brute-force argmin of ``time[i, j] * mult[i]`` over cells with ``power < p_max``.

    Returns ``(i, j, estimate, gap)`` where ``gap`` is the relative distance
    from the best estimate to the second-best one (``inf`` with a single
    feasible cell), or ``None`` when no cell stays strictly under the cap.
    """
    import numpy as np

    feasible = power < p_max
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        return None
    est = np.where(feasible, time * np.asarray(mult, dtype=float)[:, None], np.inf).ravel()
    k = int(np.argmin(est))
    best = float(est[k])
    gap = math.inf
    if n_feasible > 1:
        gap = (float(np.partition(est, 1)[1]) - best) / best
    i, j = divmod(k, power.shape[1])
    return i, j, best, gap


def ratio_argmin(ratios) -> tuple[int, float]:
    """Index of the smallest ratio and its relative gap to the runner-up."""
    order = sorted(range(len(ratios)), key=lambda k: ratios[k])
    best = ratios[order[0]]
    gap = math.inf if len(order) == 1 else (ratios[order[1]] - best) / best
    return order[0], gap


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def check_selection(sel, want, where: str) -> None:
    """``sel`` is a SelectionResult or None (InfeasibleError); ``want`` is [b, f, tt] or None."""
    if want is None:
        if sel is not None:
            raise OracleError(f"{where}: selected ({sel.batch_size}, {sel.frequency_mhz}) but no cell is under the cap")
        return
    expect(sel is not None, f"{where}: reported infeasible but the oracle found {want[:2]}")
    b, f, tt = want
    expect(
        (sel.batch_size, sel.frequency_mhz) == (b, f),
        f"{where}: selected ({sel.batch_size}, {sel.frequency_mhz}), oracle argmin is ({b}, {f})",
    )
    expect(close(sel.estimated_tt_acc, tt), f"{where}: estimate {sel.estimated_tt_acc!r} != {tt!r}")


def check_select_stdout(code: int, stdout: str, want, where: str) -> None:
    """Check one ``powerplan select`` process: exit 4 when nothing fits, else the argmin."""
    if want is None:
        expect(code == 4, f"{where}: exit {code}, expected 4 (no cell under the cap)")
        return
    expect(code == 0, f"{where}: exit {code}, expected 0")
    fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    b, f, tt = want
    expect(fields.get("batch_size") == str(b), f"{where}: batch_size={fields.get('batch_size')}, oracle {b}")
    expect(fields.get("frequency_mhz") == repr(f), f"{where}: frequency_mhz={fields.get('frequency_mhz')}, oracle {f!r}")
    got = fields.get("estimated_tt_acc_s")
    expect(got is not None and close(float(got), tt), f"{where}: estimated_tt_acc_s={got}, oracle {tt!r}")


def parse_profile(text: str):
    """Read the profile grammar: returns (model_id, s, batch axis, freq axis, cells).

    ``cells`` maps (b, f) to the tuple of values on that line.  Any deviation
    from one cell per grid point raises OracleError.
    """
    lines = [ln for ln in text.split("\n") if ln.strip() and not ln.startswith("#")]
    expect(len(lines) >= 3, "profile output has no axis lines")
    model_id, _, s = lines[0].rpartition(",")
    bs = [int(tok) for tok in lines[1].split(",")]
    fs = [float(tok) for tok in lines[2].split(",")]
    cells = {}
    for line in lines[3:]:
        tok = line.split(",")
        key = (int(tok[0]), float(tok[1]))
        expect(key not in cells, f"profile output repeats cell {key}")
        cells[key] = tuple(float(t) for t in tok[2:])
    expect(len(cells) == len(bs) * len(fs), f"profile output has {len(cells)} cells, grid has {len(bs) * len(fs)}")
    return model_id, int(s), bs, fs, cells


def aggregate(durations, warmup: int, samples_mw, s: int, b: int) -> tuple[float, float, float]:
    """Recompute one ingest cell (T_s, peak W, avg W) from the raw log values."""
    kept = durations[warmup:]
    t_s = math.fsum(kept) / len(kept) * (s / b)
    return t_s, max(samples_mw) / 1000.0, math.fsum(samples_mw) / len(samples_mw) / 1000.0


def check_ingest_output(text: str, want, where: str) -> None:
    model_id, s, bs, fs, cells = parse_profile(text)
    expect((model_id, s) == (want["model_id"], want["s"]), f"{where}: header {model_id},{s}")
    expect(bs == want["batch_sizes"] and fs == want["frequencies"], f"{where}: axes differ from the logs")
    for b, f, t_s, peak, avg in want["cells"]:
        got = cells.get((b, f))
        expect(got is not None and len(got) == 3, f"{where}: cell ({b}, {f}) missing or without avg_w")
        for name, g, w in zip(("t_s", "peak_w", "avg_w"), got, (t_s, peak, avg)):
            expect(close(g, w), f"{where}: cell ({b}, {f}) {name}={g!r}, recomputed {w!r}")


def check_sweep(rows, ladder, want, where: str) -> None:
    expect(len(rows) == len(ladder), f"{where}: sweep has {len(rows)} rows for {len(ladder)} caps")
    for row, cap, w in zip(rows, ladder, want):
        at = f"{where}: sweep cap {cap!r}"
        expect(row.p_max_w == cap, f"{at}: row cap {row.p_max_w!r}")
        if w is None:
            expect(row.status == "infeasible", f"{at}: status {row.status}, nothing is under the cap")
            continue
        b, f, tt, energy = w
        expect(row.status == "ok", f"{at}: status {row.status}, oracle found ({b}, {f})")
        expect((row.batch_size, row.frequency_mhz) == (b, f), f"{at}: ({row.batch_size}, {row.frequency_mhz}) != ({b}, {f})")
        expect(close(row.estimated_tt_acc, tt) and close(row.energy_j, energy), f"{at}: estimates differ")


def check_comparison(report, want, where: str) -> None:
    rows = report.rows
    expect(len(rows) == len(want), f"{where}: comparison has {len(rows)} rows, expected {len(want)}")
    for row, w in zip(rows, want):
        at = f"{where}: comparison cap {w[0]!r} {w[1]}"
        expect((row.p_max_w, row.policy_tag, row.status) == tuple(w[:3]),
               f"{at}: row is ({row.p_max_w!r}, {row.policy_tag}, {row.status})")
        if w[2] != "ok":
            continue
        expect((row.batch_size, row.frequency_mhz) == tuple(w[3:5]),
               f"{at}: ({row.batch_size}, {row.frequency_mhz}) != ({w[3]}, {w[4]})")
        got = (row.estimated_tt_acc, row.realized_tt_acc, row.energy_j, row.speedup_vs_baseline1)
        expect(all(close(g, x) for g, x in zip(got, w[5:])), f"{at}: values {got} != {tuple(w[5:])}")


def check_sensitivity(matrices, want, where: str) -> None:
    expect(len(matrices) == len(want), f"{where}: {len(matrices)} sensitivity matrices, expected {len(want)}")
    for m, (cap, pids, tids, values) in zip(matrices, want):
        at = f"{where}: sensitivity cap {cap!r}"
        expect((m.p_max_w, list(m.proxy_ids), list(m.target_ids)) == (cap, pids, tids), f"{at}: axes differ")
        for p, row in enumerate(values):
            for t, v in enumerate(row):
                got = float(m.values[p][t])
                expect(abs(got - v) <= PCT_ABS_TOL + REL_TOL * abs(v), f"{at}: cell ({pids[p]}, {tids[t]}) {got!r} != {v!r}")


def check_renders(sweep_csv, sweep_table, sweep_want, comparison_csv, comparison_table, n_rows,
                  sens_csv, sens_tables, sens_want, where: str) -> None:
    """Row counts of every renderer, and the sweep CSV's chosen points against the oracle."""
    expect(len(sweep_csv) == len(sweep_want) + 1, f"{where}: sweep CSV has {len(sweep_csv)} rows")
    expect(sweep_table.count("\n") == len(sweep_want) + 1, f"{where}: sweep table line count")
    for row, w in zip(sweep_csv[1:], sweep_want):
        if w is None:
            expect(row[1] == "" and row[-1] == "infeasible", f"{where}: sweep CSV row {row}")
        else:
            expect(row[1:3] == [str(w[0]), repr(w[1])], f"{where}: sweep CSV row {row}, oracle ({w[0]}, {w[1]!r})")
    expect(len(comparison_csv) == n_rows + 1, f"{where}: comparison CSV has {len(comparison_csv)} rows")
    expect(comparison_table.count("\n") == n_rows + 1, f"{where}: comparison table line count")
    cells = sum(len(pids) * len(tids) for _, pids, tids, _ in sens_want)
    expect(len(sens_csv) == cells + 1, f"{where}: sensitivity CSV has {len(sens_csv)} rows")
    for table, (_, pids, _, _) in zip(sens_tables, sens_want):
        expect(table.count("\n") == len(pids) + 1, f"{where}: sensitivity table line count")
