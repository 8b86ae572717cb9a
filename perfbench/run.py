"""perfbench: the powerplan benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--fault selection|roundtrip]

Run from the root of a source checkout; the program under test is imported
from ``src/``.  The run generates its inputs from ``--seed`` into a scratch
directory inside the checkout, times set-up in fresh processes, then runs
the workload's closed loop (one client, one op in flight) in a fresh worker
process for ``--seconds`` (and at least ``MIN_OPS`` ops, so p90 has ten
samples beyond it).  Every op's output is checked against the oracle.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans around powerplan's public functions, and
reports the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, the input digest, every end-to-end metric
including ``error_rate``, and the first failures.

``--smoke`` runs tiny inputs with no op floor; ``--fault`` plants a wrong
answer in the program so the oracle must fail ops (see faults.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
MIN_OPS = 110
WARM_OPS, WARM_S = 3, 1.0
SETUP_PROBES = 9
PROBE_REPEATS = 5

clock = time.perf_counter


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def ref_units(loop: dict) -> list[float]:
    """Each op's latency over the mean of the reference times just before and after it."""
    ref = loop["ref_s"]
    return [t / ((a + b) / 2) for t, a, b in zip(loop["lat_s"], ref, ref[1:])]


def span_metrics(snapshot: dict, n_ops: int) -> dict:
    """Per traced op: calls, busy and self seconds, errors; plus the layer ratios."""
    import tracer

    out = {}
    spans = snapshot["spans"]
    for name in tracer.SPAN_NAMES:
        calls, busy, self_s, errors = spans.get(name, [0, 0.0, 0.0, 0])
        out[f"{name}.calls"] = (calls / n_ops, "count/op")
        out[f"{name}.busy_s"] = (busy / n_ops, "s/op")
        out[f"{name}.self_s"] = (self_s / n_ops, "s/op")
        out[f"{name}.errors"] = (errors / n_ops, "count/op")
    c = snapshot["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    parse_busy = spans["ingest.parse_power_log"][1] + spans["ingest.parse_timing_log"][1]
    io_busy = spans["ingest.load_profile"][1] + spans["ingest.save_profile"][1]
    out["ingest.lines_per_s"] = (ratio(c["lines"], parse_busy), "lines/s")
    out["ingest.bytes_per_s"] = (ratio(c["bytes"], io_busy), "B/s")
    out["core.infeasible_ratio"] = (ratio(c["infeasible"], c["selections"]), "ratio")
    out["core.feasible_fraction"] = (ratio(c["feasible_pairs"], c["rows_scanned"]), "ratio")
    return out


def _run_checked(argv, env, timeout) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def cli_probes(env, repeats: int) -> dict:
    """Interpreter start-up and import times of a fresh CLI process."""
    py = sys.executable
    interp, numpy_s, own_s = [], [], []
    for _ in range(repeats):
        t0 = clock()
        _run_checked([py, "-c", "pass"], env, 60)
        interp.append(clock() - t0)
        proc = _run_checked([py, "-X", "importtime", "-c", "import powerplan.cli"], env, 60)
        # `powerplan` may nest under `powerplan.cli` or be a separate top-level
        # entry beside it; the top-level powerplan entries together cover the
        # whole import, numpy and the CLI's own imports (argparse, csv) included.
        total = numpy = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].lstrip()
            top_level = len(parts[2]) - len(name) == 1  # each nesting level adds two spaces
            if top_level and name.split(".")[0] == "powerplan":
                total += int(parts[1]) / 1e6
            if name == "numpy":
                numpy = int(parts[1]) / 1e6
        numpy_s.append(numpy)
        own_s.append(total - numpy)
    return {
        "cli.interp_s": (statistics.median(interp), "s"),
        "cli.import_numpy_s": (statistics.median(numpy_s), "s"),
        "cli.import_powerplan_s": (statistics.median(own_s), "s"),
    }


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(SRC))
    import faults
    import inputs as gen
    import powerplan

    if not Path(powerplan.__file__).resolve().is_relative_to(SRC):
        print(f"error: powerplan imported from {powerplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from worker import WORKER_CODE

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no op floor")
    parser.add_argument("--fault", choices=faults.FAULTS, default=None)
    args = parser.parse_args(argv)
    start = clock()
    deadline = start + DEADLINE_S
    # A terminated run still stops its worker: SystemExit unwinds subprocess.run, which kills it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env_record = environment(args.seed)
    generated = gen.build(args.workload, args.seed, gen.SMOKE if args.smoke else gen.FULL)

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name, text in generated.files.items():
            path = workdir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        (workdir / "expect.json").write_text(json.dumps(generated.expect), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        # Measured processes import from cached bytecode, as an installed
        # package does; the cache lives in the scratch area, not in src/.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(WORK_ROOT / "pycache")
        worker_env = dict(env, PYTHONPATH=os.pathsep.join([str(HERE), env["PYTHONPATH"]]))
        plan = {
            "workload": args.workload,
            "workdir": str(workdir),
            "inputs": generated.plan,
            "expect": "expect.json",
            "result": str(workdir / "result.json"),
            "src": env["PYTHONPATH"],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "fault": args.fault,
            "min_ops": 0 if args.smoke or args.trace else MIN_OPS,
            "max_seconds": 2.5 * args.seconds,
            "warm_ops": 1 if args.smoke else WARM_OPS,
            "warm_s": 0.0 if args.smoke else WARM_S,
            "setup_probes": 2 if args.smoke else SETUP_PROBES,
        }
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        metrics, report = {}, {}
        if args.trace:
            metrics.update(cli_probes(env, 1 if args.smoke else PROBE_REPEATS))

        _run_checked([sys.executable, "-c", WORKER_CODE, str(plan_path)], worker_env, max(1.0, deadline - clock()))
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = result["timed"]
    lat, x = timed["lat_s"], ref_units(timed)
    if not args.trace:
        report["setup_s"] = (statistics.median(result["setup_s"]), "s")
        setup_ref = [t / ((a + b) / 2) for t, (a, b) in zip(result["setup_s"], result["setup_ref_s"])]
        report["setup_ref"] = (statistics.median(setup_ref), "ref")
    report["op_p50_ref"], report["op_p90_ref"] = (statistics.median(x), "ref"), (p90(x), "ref")
    report["ops_per_ref"] = (len(x) / sum(x), "1/ref")
    report["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB")
    gated = set(report)
    report["op_p50_ms"], report["op_p90_ms"] = (statistics.median(lat) * 1e3, "ms"), (p90(lat) * 1e3, "ms")
    report["ops_per_s"] = (len(lat) / timed["busy_wall_s"], "1/s")
    report["ref_ms"] = (statistics.median(timed["ref_s"]) * 1e3, "ms")
    report["error_rate"] = (result["failed"] / result["attempted"], "ratio")
    if args.trace:
        traced = result["traced"]
        metrics.update(span_metrics(traced["spans"], len(traced["lat_s"])))
        metrics["trace.overhead_ratio"] = (statistics.median(ref_units(traced)) / statistics.median(x), "ratio")
    else:
        metrics.update({k: v for k, v in report.items() if k in gated})

    def as_json(items):
        return {k: {"value": v, "unit": u} for k, (v, u) in items.items()}

    record = dict(env_record, workload=args.workload, trace=args.trace, smoke=args.smoke, fault=args.fault,
                  inputs_sha256=generated.digest(), redraws=generated.redraws, timed_ops=len(lat),
                  warmup_ops=result["warmup_ops"], wall_s=clock() - start, failures=result["failures"],
                  report=as_json(report))
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
