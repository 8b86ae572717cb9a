"""Run perfbench over several seeds and report each metric's median and quartiles.

Usage:
    python3 perfbench/steady.py [--workload NAME ...] [--seeds 10] [--out FILE]

Each run is a fresh, untraced ``run.py`` process of BENCHMARK.json's
``run_seconds``, on seeds 1, 2, ... ``--seeds``.  For every metric the
summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median.  For the end-to-end metrics it also
shows the regression bound from BENCHMARK.json and whether the spread stays
below a third of it, the margin this benchmark aims for.

``--out`` adds the summary as one more set to the file's ``sets``.  When the
file already holds a set, each gated median is also compared with that
set's: two sets of the same code must agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def drift(previous: dict, current: dict, bounds: dict, better: dict) -> None:
    """Print how far each gated median moved from the previous set, in the worse direction."""
    for workload, now in current["workloads"].items():
        before = previous["workloads"].get(workload)
        if before is None:
            continue
        print(f"\n{workload}: medians against the previous set")
        for name, bound in bounds.items():
            old, new = before["metrics"][name]["median"], now["metrics"][name]["median"]
            worse = (new - old) / old if better[name] == "lower" else (old - new) / old
            print(f"  {name:40s} {old:.6g} -> {new:.6g} worse by {worse:+.4f} "
                  f"bound {bound:.2f} {'ok' if worse <= bound else 'REGRESSED'}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None, help="add the summary as a set to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {"seconds": seconds, "workloads": {}}
    for workload in args.workload or names:
        runs, env = [], None
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            record, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
            env = env or {k: record[k] for k in ("python", "numpy", "nproc", "cpu")}
            runs.append((seed, record, result))
            print(f"{workload} seed {seed}: correct={result['correct']} ops={record['timed_ops']} "
                  f"wall={record['wall_s']:.1f}s load={record['loadavg_start'][0]:.2f}", file=sys.stderr)
        # The record's report holds every end-to-end metric, the ungated ones and error_rate too.
        metrics = {}
        for name, entry in runs[0][1]["report"].items():
            metrics[name] = summarize([r[1]["report"][name]["value"] for r in runs])
            metrics[name]["unit"] = entry["unit"]
        summary["workloads"][workload] = {
            "env": env,
            "seeds": [r[0] for r in runs],
            "all_correct": all(r[2]["correct"] for r in runs),
            "wall_s": summarize([r[1]["wall_s"] for r in runs]),
            "metrics": metrics,
        }
        print(f"\n{workload}: all correct={summary['workloads'][workload]['all_correct']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f} {'ok' if m['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:40s} median {m['median']:.6g} {m['unit']:9s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f} {verdict}")
    if args.out:
        out = Path(args.out)
        record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"sets": []}
        if record["sets"]:
            drift(record["sets"][-1], summary, bounds, better)
        record["sets"].append(summary)
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
