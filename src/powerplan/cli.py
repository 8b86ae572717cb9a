"""Command-line surface: ingest logs, select, compare, sensitivity, sweep.

Human-readable tables go to stdout; machine-readable CSV goes behind
``--csv <path>``.  Exit codes: 0 success, 2 usage error, 3 data validation
error, 4 no configuration satisfies the power cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import stat
import sys
from pathlib import Path

from .baselines import parse_safe_table
from .core import (
    DataError,
    DeviceProfile,
    InfeasibleError,
    PowerCap,
    select_configuration_fast,
)
from .ingest import (
    DEFAULT_MINIBATCHES,
    DEFAULT_WARMUP,
    TimeScaleError,
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


def _in_file(path: str, func, *args, **kwargs):
    """``func(*args, **kwargs)``, with any DataError it raises prefixed by ``path``."""
    try:
        return func(*args, **kwargs)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_file(path: str, parse, *args, **kwargs):
    """Read ``path`` and parse its text; any DataError is prefixed with the path."""
    # Every parser splits with str.splitlines, which breaks on \r\n and \r
    # as text-mode reading would translate them, so bytes are decoded as is.
    # One unbuffered read of the whole file needs no buffer object.
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DataError(f"{path}: not valid UTF-8 at line {line_no}, byte {exc.start}") from None
    return _in_file(path, parse, text, *args, **kwargs)


def _replace_file(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, then rename it over ``path``.

    The rename is atomic, so a run that fails leaves any existing file as it
    was, never truncated or half written.  A new file gets the mode
    ``open(path, "w")`` would give it; an existing one keeps its mode.
    """
    data = text.encode("utf-8")  # text with no UTF-8 form fails before any file is made
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        # A symlink, pipe or device (such as /dev/stdout) is written through,
        # in place: renaming would replace the link or node itself.
        with open(path, "wb") as fh:
            fh.write(data)
        return
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    # O_EXCL never reuses a file; 0o666 less the umask is what open(path, "w") creates.
    fh = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_output(path: str, text: str) -> None:
    """``_replace_file``, with a failed write reported as a DataError naming ``path``."""
    try:
        _replace_file(path, text)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeEncodeError as exc:
        raise DataError(f"{path}: cannot write as UTF-8: {exc.reason}") from None


def _write_csv(path: str, rows) -> None:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    _write_output(path, out.getvalue())


def _parse_caps(tokens) -> list[PowerCap]:
    return [PowerCap.parse(tok) for tok in tokens]


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.m is not None and args.m < 1:
        raise UsageError("--m must be at least 1")
    if args.warmup is not None and args.warmup < 0:
        raise UsageError("--warmup must be non-negative")
    if args.s < 1:
        raise UsageError("--s must be at least 1")
    if args.peak_percentile is not None and not 0 < args.peak_percentile <= 100:
        raise UsageError("--peak-percentile must lie in (0, 100]")
    if len(args.timing) != len(args.power):
        raise UsageError("need one --power log per --timing log")
    keys: list[tuple[int, float]] = []
    points = []
    for timing_path, power_path in zip(args.timing, args.power):
        timing = _parse_file(
            timing_path, parse_timing_log, warmup_override=args.warmup, max_minibatches=args.m
        )
        power = _parse_file(power_path, parse_power_log)
        try:
            point = aggregate_point(power, timing, args.s, peak_percentile=args.peak_percentile)
        except TimeScaleError as exc:  # the timing log's durations, scaled by --s
            raise DataError(f"{timing_path}: {exc}") from None
        except DataError as exc:  # the options are checked above: the power log is at fault
            raise DataError(f"{power_path}: {exc}") from None
        points.append(point)
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
    _write_output(args.out, save_profile(profile))
    print(f"wrote {args.out}: {len(batch_sizes)}x{len(frequencies)} grid, model_id={args.model_id}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    profile = _parse_file(args.profile, load_profile)
    r = _parse_file(args.relation, parse_relation_file)
    cap = PowerCap.parse(args.p_max)
    # Both files are valid on their own, so a fault between them is the relation's.
    sel = _in_file(args.relation, select_configuration_fast, profile, r, cap)
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
    profile = _parse_file(args.profile, load_profile)
    r = _parse_file(args.relation, parse_relation_file)
    caps = _parse_caps(args.p_max)
    safe = _parse_file(args.safe_freqs, parse_safe_table)
    for cap in sorted(caps, key=lambda c: c.p_max):  # in the table, at a frequency on the profile's axis
        _in_file(args.safe_freqs, lambda: profile.frequency_index(safe.frequency_for(cap)))
    true_counts = None
    if args.counts:
        true_counts, _ = _parse_file(args.counts, parse_counts_file)
    report = build_comparison(profile, r, caps, safe, true_counts=true_counts)
    sys.stdout.write(format_comparison_table(report))
    if args.csv:
        _write_csv(args.csv, comparison_csv_rows(report))
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace) -> int:
    profile = _parse_file(args.profile, load_profile)
    proxies = {}
    for path in args.relation:
        rv = _parse_file(path, parse_relation_file)
        pid = rv.source_id or Path(path).stem
        if pid in proxies:
            raise DataError(f"duplicate proxy id {pid!r}")
        proxies[pid] = rv
    targets = {}
    for path in args.counts:
        counts, tid = _parse_file(path, parse_counts_file)
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
    profile = _parse_file(args.profile, load_profile)
    r = _parse_file(args.relation, parse_relation_file)
    caps = cap_range(args.p_max_min, args.p_max_max, args.step)
    rows = _in_file(args.relation, build_sweep, profile, r, caps)
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate measurement logs into a profile file")
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

    p = sub.add_parser("select", help="pick the best feasible (b, f) pair")
    p.add_argument("--profile", required=True)
    p.add_argument("--relation", required=True, help="relation vector file (batch_size,ratio)")
    p.add_argument("--p-max", required=True, help="power cap in watts, or 'unlimited'")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("compare", help="compare against baseline policies")
    p.add_argument("--profile", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--counts", default=None, help="ground-truth counts file enabling realized times")
    p.add_argument("--p-max", nargs="+", required=True, help="one or more caps")
    p.add_argument("--safe-freqs", required=True, help="safe-frequency table CSV (p_max_w,f_mhz)")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sensitivity", help="proxy-vs-target time-increase matrix")
    p.add_argument("--profile", required=True)
    p.add_argument("--relation", nargs="+", required=True, help="proxy relation vector files")
    p.add_argument("--counts", nargs="+", required=True, help="ground-truth counts files, one per target")
    p.add_argument("--p-max", nargs="+", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("sweep", help="selection across a ladder of caps")
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
