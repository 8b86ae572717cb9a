"""Command-line surface: ingest logs, select, compare, sensitivity, sweep.

Human-readable tables go to stdout; machine-readable CSV goes behind
``--csv <path>``.  Exit codes: 0 success, 2 usage error, 3 data validation
error, 4 no configuration satisfies the power cap.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .baselines import parse_safe_table
from .core import (
    DataError,
    DeviceProfile,
    InfeasibleError,
    PowerCap,
    RelationVector,
    select_configuration_fast,
)
from .ingest import (
    DEFAULT_MINIBATCHES,
    DEFAULT_WARMUP,
    aggregate_point,
    load_profile,
    parse_counts_file,
    parse_power_log,
    parse_relation_file,
    parse_timing_log,
    place_cells,
    save_profile,
)
from .report import (
    build_comparison,
    build_sensitivity,
    build_sweep,
    cap_range,
    comparison_csv_rows,
    format_comparison_table,
    format_sensitivity_table,
    format_sweep_table,
    sensitivity_csv_rows,
    sweep_csv_rows,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def _load_profile_file(path: str):
    try:
        return load_profile(_read(path))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_relation_file(path: str) -> RelationVector:
    try:
        return parse_relation_file(_read(path), default_source_id=Path(path).stem)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_counts_file(path: str):
    try:
        return parse_counts_file(_read(path), default_source_id=Path(path).stem)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _parse_caps(tokens) -> list[PowerCap]:
    return [PowerCap.parse(tok) for tok in tokens]


def cmd_ingest(args: argparse.Namespace) -> int:
    if len(args.timing) != len(args.power):
        raise UsageError("need one --power log per --timing log")
    keys: list[tuple[int, float]] = []
    points = []
    for timing_path, power_path in zip(args.timing, args.power):
        try:
            timing = parse_timing_log(
                _read(timing_path), warmup_override=args.warmup, max_minibatches=args.m
            )
        except DataError as exc:
            raise DataError(f"{timing_path}: {exc}") from None
        try:
            power = parse_power_log(_read(power_path))
        except DataError as exc:
            raise DataError(f"{power_path}: {exc}") from None
        points.append(aggregate_point(power, timing, args.s, peak_percentile=args.peak_percentile))
        keys.append((timing.batch_size, timing.frequency_mhz))

    cell_b, cell_f = zip(*keys)
    batch_sizes = tuple(sorted(set(cell_b)))
    frequencies = tuple(sorted(set(cell_f)))
    placed = place_cells(batch_sizes, frequencies, cell_b, cell_f)
    if placed.duplicate is not None:
        raise DataError(f"{args.timing[placed.duplicate]}: duplicate cell {keys[placed.duplicate]}")
    if placed.missing is not None:
        b, f = placed.missing
        raise DataError(f"missing cell ({b}, {f!r}): grid must be complete")
    time, peak, avg = (placed.fill(column) for column in zip(*points))
    profile = DeviceProfile(
        model_id=args.model_id,
        batch_sizes=batch_sizes,
        frequencies=frequencies,
        time_table=time,
        power_table=peak,
        samples_per_unit=args.s,
        avg_power_table=avg,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(save_profile(profile))
    print(f"wrote {args.out}: {len(batch_sizes)}x{len(frequencies)} grid, model_id={args.model_id}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    profile = _load_profile_file(args.profile)
    r = _load_relation_file(args.relation)
    cap = PowerCap.parse(args.p_max)
    sel = select_configuration_fast(profile, r, cap)
    print(f"policy={sel.policy_tag}")
    print(f"batch_size={sel.batch_size}")
    print(f"frequency_mhz={repr(sel.frequency_mhz)}")
    print(f"estimated_tt_acc_s={repr(sel.estimated_tt_acc)}")
    if sel.estimated_energy is not None:
        print(f"estimated_energy_j={repr(sel.estimated_energy)}")
    print(f"feasible_count={sel.feasible_count}")
    if args.csv:
        rows = [
            ["policy", "batch_size", "frequency_mhz", "estimated_tt_acc_s", "estimated_energy_j", "feasible_count"],
            [
                sel.policy_tag,
                str(sel.batch_size),
                repr(sel.frequency_mhz),
                repr(sel.estimated_tt_acc),
                "" if sel.estimated_energy is None else repr(sel.estimated_energy),
                str(sel.feasible_count),
            ],
        ]
        _write_csv(args.csv, rows)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    profile = _load_profile_file(args.profile)
    r = _load_relation_file(args.relation)
    caps = _parse_caps(args.p_max)
    safe = parse_safe_table(_read(args.safe_freqs))
    true_counts = None
    if args.counts:
        true_counts, _ = _load_counts_file(args.counts)
    report = build_comparison(profile, r, caps, safe, true_counts=true_counts)
    sys.stdout.write(format_comparison_table(report))
    if args.csv:
        _write_csv(args.csv, comparison_csv_rows(report))
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace) -> int:
    profile = _load_profile_file(args.profile)
    proxies = {}
    for path in args.relation:
        rv = _load_relation_file(path)
        pid = rv.source_id or Path(path).stem
        if pid in proxies:
            raise DataError(f"duplicate proxy id {pid!r}")
        proxies[pid] = rv
    targets = {}
    for path in args.counts:
        counts, tid = _load_counts_file(path)
        tid = tid or Path(path).stem
        if tid in targets:
            raise DataError(f"duplicate target id {tid!r}")
        targets[tid] = counts
    matrices = [
        build_sensitivity(profile, proxies, targets, cap)
        for cap in sorted(_parse_caps(args.p_max), key=lambda c: c.p_max)
    ]
    for m in matrices:
        sys.stdout.write(format_sensitivity_table(m))
        sys.stdout.write("\n")
    if args.csv:
        _write_csv(args.csv, sensitivity_csv_rows(matrices))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    profile = _load_profile_file(args.profile)
    r = _load_relation_file(args.relation)
    caps = cap_range(args.p_max_min, args.p_max_max, args.step)
    rows = build_sweep(profile, r, caps)
    sys.stdout.write(format_sweep_table(rows))
    if args.csv:
        _write_csv(args.csv, sweep_csv_rows(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerplan",
        description="Plan (batch size, GPU frequency) operating points for "
        "power-capped on-device training from measured profiles.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for interface stability; the built-in commands are deterministic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ingest", parents=[common], help="aggregate measurement logs into a profile file"
    )
    p.add_argument("--timing", nargs="+", required=True, help="timing log files, one per grid point")
    p.add_argument("--power", nargs="+", required=True, help="power log files, paired with --timing by position")
    p.add_argument("--s", type=int, required=True, help="samples per time unit (scales T_s)")
    p.add_argument("--model-id", required=True)
    p.add_argument("--out", required=True, help="profile file to write")
    p.add_argument(
        "--m", type=int, default=None,
        help=f"use at most this many retained mini-batches per point (recorders typically capture {DEFAULT_MINIBATCHES})",
    )
    p.add_argument(
        "--warmup", type=int, default=None,
        help=f"override the per-log warm-up discard count (logs usually carry {DEFAULT_WARMUP})",
    )
    p.add_argument("--peak-percentile", type=float, default=None,
                   help="use this percentile instead of the raw maximum for peak power (noisy sensors)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("select", parents=[common], help="pick the best feasible (b, f) pair")
    p.add_argument("--profile", required=True)
    p.add_argument("--relation", required=True, help="relation vector file (batch_size,ratio)")
    p.add_argument("--p-max", required=True, help="power cap in watts, or 'unlimited'")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("compare", parents=[common], help="compare against baseline policies")
    p.add_argument("--profile", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--counts", default=None, help="ground-truth counts file enabling realized times")
    p.add_argument("--p-max", nargs="+", required=True, help="one or more caps")
    p.add_argument("--safe-freqs", required=True, help="safe-frequency table CSV (p_max_w,f_mhz)")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sensitivity", parents=[common], help="proxy-vs-target time-increase matrix")
    p.add_argument("--profile", required=True)
    p.add_argument("--relation", nargs="+", required=True, help="proxy relation vector files")
    p.add_argument("--counts", nargs="+", required=True, help="ground-truth counts files, one per target")
    p.add_argument("--p-max", nargs="+", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("sweep", parents=[common], help="selection across a ladder of caps")
    p.add_argument("--profile", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--p-max-min", type=float, required=True)
    p.add_argument("--p-max-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits with status 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
