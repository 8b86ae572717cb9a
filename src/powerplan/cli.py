"""Command-line surface: ingest logs, select, compare, sensitivity, sweep.

Human-readable tables go to stdout; machine-readable CSV goes behind
``--csv <path>``.  Exit codes: 0 success, 2 usage error, 3 data validation
error, 4 no configuration satisfies the power cap.
"""

from __future__ import annotations

import io
import os
import stat
import sys
from types import SimpleNamespace

from .baselines import parse_safe_table
from .core import (
    DataError,
    DeviceProfile,
    EntriesError,
    InfeasibleError,
    OrderError,
    PowerCap,
    select_configuration_fast,
)
from .ingest import (
    DEFAULT_MINIBATCHES,
    DEFAULT_WARMUP,
    GridError,
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
_READ_CHUNK = 1 << 16  # bytes per os.read in _parse_file: a log is one read, then the empty one at its end
# Largest input _parse_file reads, about 15 times a 256x1024 profile: /dev/zero or an endless pipe fails at it.
_MAX_INPUT_BYTES = 1 << 28


class UsageError(Exception):
    pass


def _parse_file(path: str, parse, *args):
    """Read ``path`` and parse its text; any DataError is prefixed with the path."""
    # Every parser splits with str.splitlines, which breaks on \r\n and \r
    # as text-mode reading would translate them, so bytes are decoded as is.
    # Raw reads until one returns b"" take no file object: open, the reads and
    # close are the only system calls.  A directory fails at its first read.
    # Reading stops one byte past the limit, which shows the input is larger.
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
        try:
            chunks, room = [], _MAX_INPUT_BYTES + 1
            while chunk := os.read(fd, _READ_CHUNK if room > _READ_CHUNK else room):  # not min(): a call per read
                chunks.append(chunk)
                room -= len(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    if not room:
        raise DataError(f"{path}: larger than {_MAX_INPUT_BYTES} bytes")
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DataError(f"{path}: not valid UTF-8 at line {line_no}, byte {exc.start}") from None
    try:
        return parse(text, *args)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


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
    import csv  # only --csv output needs it; kept off every run's start-up

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    _write_output(path, out.getvalue())


def _in_owning_file(owners: dict[int, str], func, *args, **kwargs):
    """``func(*args, **kwargs)``, with an EntriesError prefixed by the path its entries were read from.

    ``owners`` maps the ``id`` of each relation, counts or safe-frequency mapping to its file.
    """
    try:
        return func(*args, **kwargs)
    except EntriesError as exc:
        raise DataError(f"{owners[id(exc.entries)]}: {exc}") from None


def _option(name: str, func, *args):
    """``func(*args)``, with any DataError it raises turned into a usage error naming option ``name``."""
    try:
        return func(*args)
    except DataError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _parse_caps(tokens) -> list[PowerCap]:
    return [PowerCap.parse(tok) for tok in tokens]


def cmd_ingest(args) -> int:
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
        timing = _parse_file(timing_path, parse_timing_log, args.warmup, args.m)  # warmup_override, max_minibatches
        power = _parse_file(power_path, parse_power_log)
        try:
            point = aggregate_point(power, timing, args.s, peak_percentile=args.peak_percentile)
        except TimeScaleError as exc:  # the timing log's durations, scaled by --s
            raise DataError(f"{timing_path}: {exc}") from None
        except DataError as exc:  # the options are checked above: the power log is at fault
            raise DataError(f"{power_path}: {exc}") from None
        points.append((point.t_s_seconds, point.peak_w, point.avg_w))
        keys.append((timing.batch_size, timing.frequency_mhz))

    cell_b, cell_f = zip(*keys)
    batch_sizes = tuple(sorted(set(cell_b)))
    frequencies = tuple(sorted(set(cell_f)))
    try:
        time, peak, avg = place_cells(batch_sizes, frequencies, cell_b, cell_f, zip(*points))
    except GridError as exc:  # name the timing logs that measured the cells
        if exc.missing is None:
            raise DataError(f"{args.timing[exc.duplicate]}: {exc}") from None
        b, f = exc.missing
        by_b, by_f = args.timing[cell_b.index(b)], args.timing[cell_f.index(f)]
        raise DataError(
            f"{exc}: grid must be complete; batch size {b} first from {by_b}, frequency {f!r} first from {by_f}"
        ) from None
    try:
        profile = DeviceProfile(
            model_id=args.model_id,
            batch_sizes=batch_sizes,
            frequencies=frequencies,
            time_table=time,
            power_table=peak,
            samples_per_unit=args.s,
            avg_power_table=avg,
        )
    except OrderError as exc:  # name the logs that measured the two cells out of order
        logs = args.timing if exc.table == "time" else args.power
        named = " and ".join(f"({b}, {f!r}) from {logs[keys.index((b, f))]}" for b, f in exc.cells)
        raise DataError(f"{exc}; cells {named}") from None
    _write_output(args.out, save_profile(profile))
    print(f"wrote {args.out}: {len(batch_sizes)}x{len(frequencies)} grid, model_id={args.model_id}")
    return EXIT_OK


def cmd_select(args) -> int:
    cap = _option("--p-max", PowerCap.parse, args.p_max)
    profile = _parse_file(args.profile, load_profile)
    r = _parse_file(args.relation, parse_relation_file)
    sel = _in_owning_file({id(r.entries): args.relation}, select_configuration_fast, profile, r, cap)
    names = ["policy", "batch_size", "frequency_mhz", "estimated_tt_acc_s", "estimated_energy_j", "feasible_count"]
    energy = "" if sel.estimated_energy is None else repr(sel.estimated_energy)
    values = [sel.policy_tag, str(sel.batch_size), repr(sel.frequency_mhz), repr(sel.estimated_tt_acc), energy,
              str(sel.feasible_count)]
    # A profile without average power has no energy: its line is left out, its CSV cell left empty.
    sys.stdout.write("".join(f"{name}={value}\n" for name, value in zip(names, values) if value))
    if args.csv:
        _write_csv(args.csv, [names, values])
    return EXIT_OK


def cmd_compare(args) -> int:
    caps = _option("--p-max", _parse_caps, args.p_max)
    profile = _parse_file(args.profile, load_profile)
    r = _parse_file(args.relation, parse_relation_file)
    safe = _parse_file(args.safe_freqs, parse_safe_table)
    owners = {id(r.entries): args.relation, id(safe.entries): args.safe_freqs}
    true_counts = None
    if args.counts:
        true_counts, _ = _parse_file(args.counts, parse_counts_file)
        owners[id(true_counts)] = args.counts
    report = _in_owning_file(owners, build_comparison, profile, r, caps, safe, true_counts=true_counts)
    sys.stdout.write(format_comparison_table(report))
    if args.csv:
        _write_csv(args.csv, comparison_csv_rows(report))
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    from pathlib import Path  # the one user; kept off every run's start-up

    caps = _option("--p-max", _parse_caps, args.p_max)
    profile = _parse_file(args.profile, load_profile)
    proxies = {}
    owners = {}
    for path in args.relation:
        rv = _parse_file(path, parse_relation_file)
        pid = rv.source_id or Path(path).stem
        if pid in proxies:
            raise DataError(f"{path}: duplicate proxy id {pid!r}, also in {owners[id(proxies[pid].entries)]}")
        proxies[pid] = rv
        owners[id(rv.entries)] = path
    targets = {}
    for path in args.counts:
        counts, tid = _parse_file(path, parse_counts_file)
        tid = tid or Path(path).stem
        if tid in targets:
            raise DataError(f"{path}: duplicate target id {tid!r}, also in {owners[id(targets[tid])]}")
        targets[tid] = counts
        owners[id(counts)] = path
    matrices = [
        _in_owning_file(owners, build_sensitivity, profile, proxies, targets, cap)
        for cap in sorted(caps, key=lambda c: c.p_max)
    ]
    for m in matrices:
        sys.stdout.write(format_sensitivity_table(m))
        sys.stdout.write("\n")
    if args.csv:
        _write_csv(args.csv, sensitivity_csv_rows(matrices))
    return EXIT_OK


def cmd_sweep(args) -> int:
    caps = _option("--p-max-min/--p-max-max/--step", cap_range, args.p_max_min, args.p_max_max, args.step)
    profile = _parse_file(args.profile, load_profile)
    r = _parse_file(args.relation, parse_relation_file)
    rows = _in_owning_file({id(r.entries): args.relation}, build_sweep, profile, r, caps)
    sys.stdout.write(format_sweep_table(rows))
    if args.csv:
        _write_csv(args.csv, sweep_csv_rows(rows))
    return EXIT_OK


# Each command's help line and its options, one row per option: the flag, its
# nargs ("+" for a list, None for one value), the type that converts each
# value, whether it is required (an optional one defaults to None) and its
# help.  build_parser and _read_plain both read this table, and both look
# cmd_<command> up by its global name when they run, so a command rebound on
# the module (as a tracer does) is the one that runs.
COMMANDS = {
    "ingest": ("aggregate measurement logs into a profile file", (
        ("--timing", "+", str, True, "timing log files, one per grid point"),
        ("--power", "+", str, True, "power log files, paired with --timing by position"),
        ("--s", None, int, True, "samples per time unit (scales T_s)"),
        ("--model-id", None, str, True, None),
        ("--out", None, str, True, "profile file to write"),
        ("--m", None, int, False,
         f"use at most this many retained mini-batches per point (recorders typically capture {DEFAULT_MINIBATCHES})"),
        ("--warmup", None, int, False,
         f"override the per-log warm-up discard count (logs usually carry {DEFAULT_WARMUP})"),
        ("--peak-percentile", None, float, False,
         "use this percentile instead of the raw maximum for peak power (noisy sensors)"),
    )),
    "select": ("pick the best feasible (b, f) pair", (
        ("--profile", None, str, True, None),
        ("--relation", None, str, True, "relation vector file (batch_size,ratio)"),
        ("--p-max", None, str, True, "power cap in watts, or 'unlimited'"),
        ("--csv", None, str, False, None),
    )),
    "compare": ("compare against baseline policies", (
        ("--profile", None, str, True, None),
        ("--relation", None, str, True, None),
        ("--counts", None, str, False, "ground-truth counts file enabling realized times"),
        ("--p-max", "+", str, True, "one or more caps"),
        ("--safe-freqs", None, str, True, "safe-frequency table CSV (p_max_w,f_mhz)"),
        ("--csv", None, str, False, None),
    )),
    "sensitivity": ("proxy-vs-target time-increase matrix", (
        ("--profile", None, str, True, None),
        ("--relation", "+", str, True, "proxy relation vector files"),
        ("--counts", "+", str, True, "ground-truth counts files, one per target"),
        ("--p-max", "+", str, True, None),
        ("--csv", None, str, False, None),
    )),
    "sweep": ("selection across a ladder of caps", (
        ("--profile", None, str, True, None),
        ("--relation", None, str, True, None),
        ("--p-max-min", None, float, True, None),
        ("--p-max-max", None, float, True, None),
        ("--step", None, float, True, None),
        ("--csv", None, str, False, None),
    )),
}


def build_parser(command: str | None = None):
    """The argparse parser of every command, or with ``command`` that command's parser alone.

    The standalone parser prints the same usage, help and error texts as the
    full parser's subparser of that name.
    """
    import argparse  # only help, errors and argv that _read_plain leaves alone need it

    def add_options(parser, name):
        for flag, nargs, kind, required, help_text in COMMANDS[name][1]:
            parser.add_argument(flag, nargs=nargs, type=kind, required=required, help=help_text)
        parser.set_defaults(func=globals()[f"cmd_{name}"])
        return parser

    if command is not None:
        return add_options(argparse.ArgumentParser(prog=f"powerplan {command}"), command)
    parser = argparse.ArgumentParser(
        prog="powerplan",
        description="Plan (batch size, GPU frequency) operating points for "
        "power-capped on-device training from measured profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        add_options(sub.add_parser(name, help=help_text), name)
    return parser


def _read_plain(command: str, argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser(command).parse_args(argv)`` returns, or None when unsure.

    Only a plain argv is read: options each named in full and at most once,
    each followed by its values, none of which starts with "-", every
    required option present and every value converted by its type.  Anything
    else (-h, an abbreviation, "--opt=value", "--", a repeat, a missing or
    bad value) is None, and argparse parses it with its own texts.
    """
    options = {row[0]: row for row in COMMANDS[command][1]}
    given: dict[str, list[str]] = {}
    for word in argv:
        if word.startswith("-"):
            if word not in options or word in given:
                return None
            given[word] = values = []
        elif not given:
            return None
        else:
            values.append(word)
    namespace = {"func": globals()[f"cmd_{command}"]}
    for flag, nargs, kind, required, _ in options.values():
        words = given.get(flag)
        if words is None:
            if required:
                return None
            value = None
        elif not words or (nargs is None and len(words) > 1):
            return None
        else:
            try:
                value = list(map(kind, words)) if nargs else kind(words[0])
            except (TypeError, ValueError):
                return None
        namespace[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**namespace)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only -h, no command or an unknown one needs the full parser; a plain
    # argv is read without argparse, and building every command's parser to
    # run one costs start-up time.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = _read_plain(command, argv[1:]) if command else None
    if args is None:
        args = build_parser(command).parse_args(argv if command is None else argv[1:])
    try:
        return args.func(args)
    except UsageError as exc:
        build_parser(command).error(str(exc))  # exits with status 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
