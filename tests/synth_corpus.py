"""Seeded random scenario generators shared across the test modules.

Everything is driven by an explicit numpy Generator so each test pins its
own seed and the whole corpus is reproducible.
"""

from __future__ import annotations

import math

import numpy as np

import powerplan as pp
from powerplan.core import TIE_REL_TOL


def random_device_params(rng: np.random.Generator) -> pp.SynthDeviceParams:
    n_break = int(rng.integers(1, 4))
    freqs = np.sort(rng.uniform(80.0, 1600.0, n_break))
    while len(np.unique(freqs)) < n_break:
        freqs = np.sort(rng.uniform(80.0, 1600.0, n_break))
    volts = np.sort(rng.uniform(0.6, 1.3, n_break))
    return pp.SynthDeviceParams(
        p_static=float(rng.uniform(0.4, 3.0)),
        power_coeff=float(rng.uniform(0.001, 0.02)),
        voltage_curve=tuple(zip(freqs.tolist(), volts.tolist())),
        parallel_cap=int(rng.integers(4, 160)),
        per_sample_cost=float(rng.uniform(0.3, 4.0)),
        freq_efficiency=float(rng.uniform(20.0, 400.0)),
        rng_seed=int(rng.integers(0, 2**31)),
        noise_level=float(rng.uniform(0.0, 0.3)),
        avg_duty=float(rng.uniform(0.5, 1.0)),
    )


def random_grid(
    rng: np.random.Generator, max_batches: int = 8, max_freqs: int = 32
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    n_b = int(rng.integers(1, max_batches + 1))
    n_f = int(rng.integers(1, max_freqs + 1))
    batches = tuple(int(b) for b in np.sort(rng.choice(np.arange(1, 513), size=n_b, replace=False)))
    freqs = np.sort(rng.uniform(50.0, 1600.0, n_f))
    while len(np.unique(freqs)) < n_f:
        freqs = np.sort(rng.uniform(50.0, 1600.0, n_f))
    return batches, tuple(float(f) for f in freqs)


def random_profile(
    rng: np.random.Generator,
    max_batches: int = 8,
    max_freqs: int = 32,
    with_avg_power: bool = True,
) -> tuple[pp.DeviceProfile, pp.SynthDeviceParams]:
    params = random_device_params(rng)
    batches, freqs = random_grid(rng, max_batches=max_batches, max_freqs=max_freqs)
    s = int(rng.integers(256, 8193))
    profile = pp.generate_profile(
        batches, freqs, params, s, model_id=f"synth-{params.rng_seed}", with_avg_power=with_avg_power
    )
    return profile, params


def random_relation(rng: np.random.Generator, batch_sizes) -> pp.RelationVector:
    values = rng.uniform(0.05, 1.0, len(batch_sizes))
    values = values / values.max()  # exact 1.0 at the max position
    return pp.RelationVector(
        dict(zip(batch_sizes, (float(v) for v in values))), source_id="random"
    )


def random_counts(rng: np.random.Generator, batch_sizes) -> dict[int, int]:
    return {int(b): int(rng.integers(1, 500)) for b in batch_sizes}


def distorted_relation(
    rng: np.random.Generator, counts: dict[int, int], spread: float = 2.0
) -> pp.RelationVector:
    """A proxy estimate: true counts perturbed multiplicatively, renormalized."""
    noisy = {b: c * float(rng.uniform(1.0 / spread, spread)) for b, c in counts.items()}
    return pp.relation_vector(noisy, source_id="distorted")


def random_cap(rng: np.random.Generator, profile: pp.DeviceProfile) -> pp.PowerCap:
    lo = float(profile.power_table.min())
    hi = float(profile.power_table.max())
    mode = rng.uniform()
    if mode < 0.10:
        return pp.PowerCap.unlimited()
    if mode < 0.20:
        return pp.PowerCap(max(lo * 0.5, 1e-6))  # below every measurement
    if mode < 0.30:
        return pp.PowerCap(hi * 1.2)  # everything feasible
    return pp.PowerCap(float(rng.uniform(lo * 0.95, hi * 1.05)))


def brute_force_feasible(profile: pp.DeviceProfile, cap: pp.PowerCap) -> dict[int, int]:
    """Per batch index, the max feasible frequency index, by exhaustive scan."""
    best: dict[int, int] = {}
    n_b, n_f = len(profile.batch_sizes), len(profile.frequencies)
    for i in range(n_b):
        for j in range(n_f):
            if profile.power_table[i, j] < cap.p_max:
                best[i] = j
    return best


def discovered_feasible(schedule, power_oracle, cap: pp.PowerCap) -> dict[int, float]:
    """Per batch size, the highest frequency whose probe in ``schedule`` measured under the cap.

    Acceptance criterion 7's oracle: over a pruned schedule it must equal
    ``feasible_combinations`` on the full grid.
    """
    found: dict[int, float] = {}
    for b, f in schedule:
        if power_oracle(b, f) < cap.p_max:
            if b not in found or f > found[b]:
                found[b] = f
    return found


def format_counts_file(counts, source_id: str = "") -> str:
    """``counts`` as a counts file, as a training run writes one: an integer count as is, a float as its repr."""
    lines = [f"source_id,{source_id}"] if source_id else []
    lines += [f"{b},{v if isinstance(v, int) else repr(float(v))}" for b, v in sorted(counts.items())]
    return "\n".join(lines) + "\n"


def brute_force_min_estimate(
    profile: pp.DeviceProfile, multipliers, cap: pp.PowerCap
) -> float | None:
    """Exact minimum of time * multiplier over every pair under the cap."""
    best = None
    n_b, n_f = len(profile.batch_sizes), len(profile.frequencies)
    for i in range(n_b):
        b = profile.batch_sizes[i]
        for j in range(n_f):
            if profile.power_table[i, j] < cap.p_max:
                tt = float(profile.time_table[i, j] * multipliers[b])
                if best is None or tt < best:
                    best = tt
    return best


def plant_duplicate_row(rng: np.random.Generator, profile: pp.DeviceProfile) -> tuple[pp.DeviceProfile, int]:
    """Copy batch row k-1 over row k for a random k >= 1; returns (profile, k).

    The copy keeps every monotonicity invariant, and with equal multipliers
    for the two batch sizes their estimates tie exactly.
    """
    k = int(rng.integers(1, len(profile.batch_sizes)))

    def dup(table):
        if table is None:
            return None
        out = np.array(table)
        out[k] = out[k - 1]
        return out

    return (
        pp.DeviceProfile(
            model_id=profile.model_id,
            batch_sizes=profile.batch_sizes,
            frequencies=profile.frequencies,
            time_table=dup(profile.time_table),
            power_table=dup(profile.power_table),
            samples_per_unit=profile.samples_per_unit,
            avg_power_table=dup(profile.avg_power_table),
        ),
        k,
    )


def brute_force_select(
    profile: pp.DeviceProfile, multipliers, cap: pp.PowerCap, policy_tag: str = "ours"
) -> pp.SelectionResult | None:
    """The documented selection rule by exhaustive scan; None when nothing fits.

    Candidates are, per batch size, the highest frequency under the cap
    (found without assuming sorted rows).  Of those, in ascending (batch,
    frequency) order, the last whose finite estimate lies within TIE_REL_TOL
    of the global minimum wins.
    """
    frontier = brute_force_feasible(profile, cap)
    if not frontier:
        return None
    cells = []
    for i, j in sorted(frontier.items()):
        tt = float(profile.time_table[i, j] * multipliers[profile.batch_sizes[i]])
        cells.append((i, j, tt))
    best = min(tt for _, _, tt in cells)
    # An infinite estimate ties with no finite one; when all are infinite, SelectionResult rejects the last.
    i, j, tt = [c for c in cells if c[2] - best <= TIE_REL_TOL * c[2] < math.inf or best == math.inf][-1]
    energy = None
    if profile.avg_power_table is not None:
        energy = float(profile.avg_power_table[i, j] * tt)
    return pp.SelectionResult(
        batch_size=profile.batch_sizes[i],
        frequency_mhz=profile.frequencies[j],
        estimated_tt_acc=tt,
        feasible_count=len(cells),
        policy_tag=policy_tag,
        estimated_energy=energy,
    )


def selection_energy(sel: pp.SelectionResult, profile: pp.DeviceProfile, multiplier: float) -> float:
    """Joules at ``sel``'s grid cell: average power times the cell's time times ``multiplier``.

    The product is taken in the order ``compare``'s energy column takes it,
    so a relation ratio gives normalized energy and a true count absolute joules.
    """
    i = profile.batch_index(sel.batch_size)
    j = profile.frequency_index(sel.frequency_mhz)
    return profile.avg_power_rows[i][j] * (profile.time_rows[i][j] * multiplier)


def out_of_range_pick_profile() -> pp.DeviceProfile:
    """Batch sizes 8 and 32 at 300 and 600 MHz; batch size 32 at 600 MHz takes
    1e-200 s at an average 1e-200 W, so its energy underflows to 0 W·s.

    Under 2.2 W batch size 32 runs only at 300 MHz (1 s at 1 W) and, on a tie
    with batch size 8's 1 s, wins.  Under 3.0 W it runs at 600 MHz.
    """
    return pp.DeviceProfile(
        "out-of-range", (8, 32), (300.0, 600.0), [[2.0, 1.0], [1.0, 1e-200]], [[1.0, 2.0], [1.5, 2.5]], 1,
        [[1.0, 1.0], [1.0, 1e-200]],
    )


def infinite_energy_profile() -> pp.DeviceProfile:
    """Batch sizes 8 and 32 at 307 and 614 MHz, 1e10 s at 307 MHz and 1e9 s at
    614 MHz, every cell at an average 1e300 W: any estimate of 1.8e8 s or more
    takes the energy past the float range.  Peaks 1, 2, 1.5 and 3 W."""
    return pp.load_profile(
        "m,4\n8,32\n307.0,614.0\n8,307.0,1e10,1.0,1e300\n8,614.0,1e9,2.0,1e300\n"
        "32,307.0,1e10,1.5,1e300\n32,614.0,1e9,3.0,1e300\n"
    )


def _reference_cap(p_max_w) -> str:
    return "unlimited" if math.isinf(p_max_w) else repr(float(p_max_w))


def _reference_csv_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _reference_table_cell(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def _reference_align(table) -> str:
    """A table given row by row: each column padded to its widest cell, two spaces apart."""
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def _reference_comparison_cells(r, cell) -> list[str]:
    return [
        _reference_cap(r.p_max_w),
        r.policy_tag,
        cell(None) if r.batch_size is None else str(r.batch_size),
        cell(r.frequency_mhz),
        cell(r.estimated_tt_acc),
        cell(r.realized_tt_acc),
        cell(r.energy_j),
        cell(r.speedup_vs_baseline1),
        r.status,
    ]


def _reference_sweep_cells(r, cell) -> list[str]:
    return [
        _reference_cap(r.p_max_w),
        cell(None) if r.batch_size is None else str(r.batch_size),
        cell(r.frequency_mhz),
        cell(r.estimated_tt_acc),
        cell(r.energy_j),
        r.status,
    ]


def reference_renders(sweep, report, matrices) -> tuple:
    """The six report renderers' outputs, built row by row: sweep CSV rows and
    table, comparison CSV rows and table, sensitivity CSV rows and tables."""
    sweep_csv = [["p_max_w", "batch_size", "frequency_mhz", "estimated_tt_acc_s", "energy_j", "status"]]
    sweep_csv += [_reference_sweep_cells(r, _reference_csv_cell) for r in sweep]
    sweep_table = [["p_max_w", "b", "f_mhz", "est_tt_s", "energy_j", "status"]]
    sweep_table += [_reference_sweep_cells(r, _reference_table_cell) for r in sweep]
    comparison_csv = [["p_max_w", "policy", "batch_size", "frequency_mhz", "estimated_tt_acc_s",
                       "realized_tt_acc_s", "energy_j", "speedup_vs_baseline1", "status"]]
    comparison_csv += [_reference_comparison_cells(r, _reference_csv_cell) for r in report.rows]
    comparison_table = [["p_max_w", "policy", "b", "f_mhz", "est_tt_s", "real_tt_s", "energy_j", "speedup"]]
    comparison_table += [_reference_comparison_cells(r, _reference_table_cell)[:-1] for r in report.rows]
    sensitivity_csv = [["p_max_w", "proxy_id", "target_id", "time_increase_pct"]]
    sensitivity_tables = []
    for m in matrices:
        table = [(f"p_max_w={_reference_cap(m.p_max_w)}",) + tuple(m.target_ids)]
        for pid, values in zip(m.proxy_ids, m.values):
            table.append((pid,) + tuple(f"{v:.1f}" for v in values))
            for tid, v in zip(m.target_ids, values):
                sensitivity_csv.append([_reference_cap(m.p_max_w), pid, tid, f"{v:.1f}"])
        sensitivity_tables.append(_reference_align(table))
    return (
        sweep_csv, _reference_align(sweep_table), comparison_csv, _reference_align(comparison_table),
        sensitivity_csv, sensitivity_tables,
    )


def _reference_lines(text):
    """(line number, stripped line) for each line that is neither blank nor a comment."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield n, line


def reference_parse_power_log(text) -> pp.PowerTrace:
    """``parse_power_log`` one line at a time: the first faulty line raises."""
    timestamps: list[float] = []
    power: list[float] = []
    last_ts: float | None = None
    for n, line in _reference_lines(text):
        fields = line.split(",")
        if len(fields) != 2:
            raise pp.ParseError(n, f"expected timestamp_s,power_mw, got {line!r}")
        try:
            ts, mw = float(fields[0]), float(fields[1])
        except ValueError:
            raise pp.ParseError(n, f"expected timestamp_s,power_mw, got {line!r}") from None
        if not (math.isfinite(ts) and math.isfinite(mw)):
            raise pp.ParseError(n, f"non-finite value in {line!r}")
        if last_ts is not None and ts <= last_ts:
            raise pp.ParseError(n, f"non-monotone timestamp {ts!r}")
        if mw < 0:
            raise pp.ParseError(n, f"negative power {mw!r}")
        last_ts = ts
        timestamps.append(ts)
        power.append(mw)
    return pp.PowerTrace(tuple(timestamps), tuple(power))


def reference_parse_timing_log(text, warmup_override=None, max_minibatches=None) -> pp.TimingTrace:
    """``parse_timing_log`` one line at a time: the first faulty line raises."""
    header: tuple[int, float, int] | None = None
    durations: list[float] = []
    for n, line in _reference_lines(text):
        if header is None:
            parts = line.split(",")
            keys = [p.partition("=")[0] for p in parts]
            if keys != ["b", "f_mhz", "warmup"]:
                raise pp.ParseError(n, f"expected header b=<int>,f_mhz=<num>,warmup=<int>, got {line!r}")
            try:
                header = (
                    int(parts[0].partition("=")[2]),
                    float(parts[1].partition("=")[2]),
                    int(parts[2].partition("=")[2]),
                )
            except ValueError:
                raise pp.ParseError(n, f"invalid header values in {line!r}") from None
            if header[0] <= 0 or not 0 < header[1] < math.inf or header[2] < 0:
                raise pp.ParseError(n, f"invalid header values in {line!r}")
            continue
        try:
            duration = float(line)
        except ValueError:
            raise pp.ParseError(n, f"expected one duration per line, got {line!r}") from None
        if not math.isfinite(duration):
            raise pp.ParseError(n, f"non-finite value in {line!r}")
        if duration <= 0:
            raise pp.ParseError(n, f"non-positive duration {duration!r}")
        durations.append(duration)
    if header is None:
        raise pp.DataError("timing log has no header line")
    b, f_mhz, warmup = header
    if warmup_override is not None:
        warmup = warmup_override
    if max_minibatches is not None:
        if max_minibatches < 1:
            raise pp.DataError("max_minibatches must be a positive integer")
        durations = durations[: warmup + max_minibatches]
    return pp.TimingTrace(
        batch_size=b,
        frequency_mhz=f_mhz,
        minibatch_durations=tuple(durations),
        warmup_discarded=warmup,
    )


def _reference_id_and_values(text) -> tuple[str, dict[int, float]]:
    """The optional first ``source_id,<name>`` line, then ``batch_size,value`` lines."""
    source_id = ""
    values: dict[int, float] = {}
    for k, (n, line) in enumerate(_reference_lines(text)):
        fields = line.split(",")
        if k == 0 and fields[0] == "source_id":
            if len(fields) != 2:
                raise pp.ParseError(n, "expected source_id,<name>")
            source_id = fields[1].strip()
            continue
        if len(fields) != 2:
            raise pp.ParseError(n, f"expected batch_size,value, got {line!r}")
        try:
            b, v = int(fields[0]), float(fields[1])
        except ValueError:
            raise pp.ParseError(n, f"expected batch_size,value, got {line!r}") from None
        if b in values:
            raise pp.ParseError(n, f"duplicate batch size {b}")
        values[b] = v
    return source_id, values


def reference_parse_relation_file(text) -> pp.RelationVector:
    """``parse_relation_file`` one line at a time: the first faulty line raises."""
    source_id, values = _reference_id_and_values(text)
    return pp.RelationVector(values, source_id=source_id)


def reference_parse_counts_file(text) -> tuple[dict[int, float], str]:
    """``parse_counts_file`` one line at a time: the first faulty line raises."""
    source_id, counts = _reference_id_and_values(text)
    if not counts:
        raise pp.DataError("no batch sizes")
    for b, count in counts.items():
        if not 0 < count < math.inf:
            raise pp.DataError(f"invalid count for batch size {b}: {count!r}")
    return counts, source_id


def reference_parse_safe_table(text) -> pp.SafeFrequencyTable:
    """``parse_safe_table`` one line at a time: the first faulty line raises."""
    entries: dict[float, float] = {}
    for n, line in _reference_lines(text):
        fields = line.split(",")
        if len(fields) != 2:
            raise pp.ParseError(n, f"expected p_max_w,f_mhz, got {line!r}")
        try:
            cap, f = pp.PowerCap.parse(fields[0]), float(fields[1])
        except (pp.DataError, ValueError):
            raise pp.ParseError(n, f"expected p_max_w,f_mhz, got {line!r}") from None
        if not math.isfinite(f):
            raise pp.ParseError(n, f"non-finite frequency in {line!r}")
        if cap.p_max in entries:
            raise pp.ParseError(n, f"duplicate cap {fields[0]!r}")
        entries[cap.p_max] = f
    return pp.SafeFrequencyTable(entries)
