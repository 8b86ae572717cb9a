"""One fresh measurement process for a perfbench run.

Usage: python3 -c "import sys, worker; sys.exit(worker.main(sys.argv[1:]))" PLAN_JSON [--setup-only]
(with perfbench/ and src/ on PYTHONPATH; run.py starts it this way)

The worker prepares its workload (imports, plus parsing the inputs the
workload keeps across ops), then writes ``ready`` to stdout; the parent
times set-up up to that line.  With ``--setup-only`` it stops there.
Otherwise it runs warm-up ops, which are checked but not timed, then a
closed loop with one op in flight, and, for a traced run, a second loop
with the tracer installed.  Every op's output is checked against the
oracle's expectations outside the timed region.  Results go to the JSON
file named in the plan.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

clock = time.perf_counter
# Importing the worker as a module, not running it as a script, lets its
# bytecode be cached, so set-up times exclude compiling the benchmark.
WORKER_CODE = "import sys, worker; sys.exit(worker.main(sys.argv[1:]))"


def reference_task() -> float:
    """Time a fixed pure-Python task: render, split and parse 3000 floats.

    A shared host's speed swings by up to 2x within seconds.  The in-process
    workloads time this task around every op and report the op's latency in
    units of it, which cancels most of the swing; the task does the kind of
    work the program does (float text I/O, allocation, dict inserts) and
    never changes.
    """
    t0 = clock()
    x, values = 0.5, []
    for _ in range(3000):
        x = (x * 3.9999) % 1.0 or 0.5
        values.append(x * 1000.0)
    parsed = [float(tok) for tok in ",".join(map(repr, values)).split(",")]
    table = dict(enumerate(parsed))
    if len(table) != len(values):
        raise AssertionError("reference task miscounted")
    return clock() - t0


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    A shared host slows its CPUs independently, so the reference task and
    the op it normalizes must run on the same one.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control on this platform
        pass


def run_child(argv, env=None, timeout: float = 60.0) -> tuple[int, str, int]:
    """Run a process to completion: (exit code, stdout with stderr, its peak RSS in kB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def interpreter_start() -> float:
    """Time a bare interpreter start, ``python -c pass``."""
    t0 = clock()
    code, _, _ = run_child([sys.executable, "-c", "pass"])
    if code != 0:
        raise RuntimeError(f"python -c pass exited {code}")
    return clock() - t0


class SetupProbe:
    """Fresh set-up processes, timed from spawn until they print ``ready``.

    The probes are spread evenly over the timed loop, so the median samples
    the whole run rather than one moment of a shared host.  A bare
    interpreter start is timed just before and just after each probe, the
    reference unit its set-up time is also reported in.
    """

    def __init__(self, plan_path: str, count: int, seconds: float):
        self.argv = [sys.executable, "-c", WORKER_CODE, plan_path, "--setup-only"]
        self.count, self.every = count, seconds / max(count, 1)
        self.times: list[float] = []
        self.ref_s: list[tuple[float, float]] = []

    def due(self, elapsed: float) -> bool:
        return len(self.times) < self.count and elapsed >= len(self.times) * self.every

    def run(self) -> None:
        before = interpreter_start()
        t0 = clock()
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            self.times.append(clock() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        self.ref_s.append((before, interpreter_start()))


class CliSelect:
    """Each op is a fresh ``python -m powerplan.cli select`` process."""

    in_process = False

    # A bare interpreter start: the op's process start-up on the host as it is now.
    reference = staticmethod(interpreter_start)

    def __init__(self, plan, inputs, workdir: Path):
        self.plan = plan
        self.caps = inputs["caps"]
        self.base = ["select", "--profile", str(workdir / inputs["profile"]),
                     "--relation", str(workdir / inputs["relation"])]
        self.env = dict(os.environ, PYTHONPATH=plan["src"])
        self.trace_dir = workdir
        self.peak_rss_kb = 0

    def prepare(self) -> None:
        import powerplan.cli  # noqa: F401  (what each op's process imports before it can plan)

    def call(self, k: int, traced: bool):
        args = self.base + ["--p-max", self.caps[k % len(self.caps)]]
        py = sys.executable
        trace_out = self.trace_dir / "child_trace.json"
        if traced or self.plan["fault"]:
            opts = ["--trace-out", str(trace_out)] if traced else []
            opts += ["--fault", self.plan["fault"]] if self.plan["fault"] else []
            argv = [py, str(Path(__file__).with_name("cli_child.py")), *opts, "--", *args]
        else:
            argv = [py, "-m", "powerplan.cli", *args]
        code, stdout, rss_kb = run_child(argv, self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        spans = None
        if traced:
            spans = json.loads(trace_out.read_text(encoding="utf-8"))
            trace_out.unlink()
        return code, stdout, spans

    def verify(self, k: int, out, want) -> None:
        import oracle

        code, stdout, _ = out
        oracle.check_select_stdout(code, stdout, want["select"][k % len(self.caps)], f"op {k}")


class DenseGrid:
    """Each op loads a large profile, selects at one cap, and saves it again."""

    in_process = True
    reference = staticmethod(reference_task)

    def __init__(self, plan, inputs, workdir: Path):
        self.variants = inputs["variants"]
        self.workdir = workdir

    def prepare(self) -> None:
        import powerplan as pp

        self.pp = pp
        self.texts = [(self.workdir / v["profile"]).read_text(encoding="utf-8") for v in self.variants]
        self.relations = [
            pp.parse_relation_file((self.workdir / v["relation"]).read_text(encoding="utf-8"))
            for v in self.variants
        ]
        self.caps = [[pp.PowerCap.parse(c) for c in v["caps"]] for v in self.variants]

    def _slot(self, k: int) -> tuple[int, int]:
        v = k % len(self.variants)
        return v, (k // len(self.variants)) % len(self.caps[v])

    def call(self, k: int, traced: bool):
        pp = self.pp
        v, c = self._slot(k)
        profile = pp.load_profile(self.texts[v])
        try:
            sel = pp.select_configuration_fast(profile, self.relations[v], self.caps[v][c])
        except pp.InfeasibleError:
            sel = None
        return sel, pp.save_profile(profile)

    def verify(self, k: int, out, want) -> None:
        import oracle

        v, c = self._slot(k)
        sel, saved = out
        oracle.check_selection(sel, want["select"][v][c], f"op {k} profile {v} cap {self.variants[v]['caps'][c]}")
        text = self.texts[v]
        if saved != text:
            at = next((n for n, (a, b) in enumerate(zip(saved, text)) if a != b), min(len(saved), len(text)))
            raise oracle.OracleError(f"op {k}: save(load(text)) differs from the input at character {at}")


class CapStudy:
    """Each op is one cap study over a profile parsed once in set-up."""

    in_process = True
    reference = staticmethod(reference_task)

    def __init__(self, plan, inputs, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir

    def _read(self, name: str) -> str:
        return (self.workdir / name).read_text(encoding="utf-8")

    def prepare(self) -> None:
        import powerplan as pp
        from powerplan import report

        self.report = report
        inp = self.inputs
        self.profile = pp.load_profile(self._read(inp["profile"]))
        self.relation = pp.parse_relation_file(self._read(inp["relation"]))
        self.truth, _ = pp.parse_counts_file(self._read(inp["truth"]))
        self.safe = pp.parse_safe_table(self._read(inp["safe"]))
        self.proxies = {}
        for name in inp["proxies"]:
            rv = pp.parse_relation_file(self._read(name))
            self.proxies[rv.source_id] = rv
        self.targets = {}
        for name in inp["targets"]:
            counts, tid = pp.parse_counts_file(self._read(name))
            self.targets[tid] = counts
        self.variants = [
            (v["ladder"], [pp.PowerCap(c) for c in v["compare"]], [pp.PowerCap(c) for c in sorted(v["sensitivity"])])
            for v in inp["variants"]
        ]

    def call(self, k: int, traced: bool):
        rep = self.report
        ladder, compare, sens = self.variants[k % len(self.variants)]
        sweep = rep.build_sweep(self.profile, self.relation, rep.cap_range(*ladder))
        comparison = rep.build_comparison(self.profile, self.relation, compare, self.safe, true_counts=self.truth)
        matrices = [rep.build_sensitivity(self.profile, self.proxies, self.targets, cap) for cap in sens]
        renders = (
            rep.sweep_csv_rows(sweep), rep.format_sweep_table(sweep),
            rep.comparison_csv_rows(comparison), rep.format_comparison_table(comparison),
            rep.sensitivity_csv_rows(matrices), [rep.format_sensitivity_table(m) for m in matrices],
        )
        return sweep, comparison, matrices, renders

    def verify(self, k: int, out, want) -> None:
        import oracle

        w = want["variants"][k % len(self.variants)]
        sweep, comparison, matrices, (s_csv, s_tab, c_csv, c_tab, m_csv, m_tabs) = out
        where = f"op {k}"
        oracle.check_sweep(sweep, w["ladder"], w["sweep"], where)
        oracle.check_comparison(comparison, w["comparison"], where)
        oracle.check_sensitivity(matrices, w["sensitivity"], where)
        oracle.check_renders(s_csv, s_tab, w["sweep"], c_csv, c_tab, len(w["comparison"]),
                             m_csv, m_tabs, w["sensitivity"], where)


class IngestLogs:
    """Each op runs ``powerplan ingest`` in-process over the generated logs."""

    in_process = True
    reference = staticmethod(reference_task)

    def __init__(self, plan, inputs, workdir: Path):
        self.out = workdir / inputs["out"]
        pairs = inputs["pairs"]
        self.argv = (
            ["ingest", "--timing", *(str(workdir / t) for t, _ in pairs)]
            + ["--power", *(str(workdir / p) for _, p in pairs)]
            + ["--s", str(inputs["s"]), "--model-id", inputs["model_id"], "--out", str(self.out)]
        )

    def prepare(self) -> None:
        import powerplan.cli

        self.cli = powerplan.cli

    def call(self, k: int, traced: bool):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv)

    def verify(self, k: int, out, want) -> None:
        import oracle

        oracle.expect(out == 0, f"op {k}: ingest returned {out}")
        text = self.out.read_text(encoding="utf-8")
        self.out.unlink()
        oracle.check_ingest_output(text, want, f"op {k}")


WORKLOADS = {
    "cli-select": CliSelect,
    "dense-grid": DenseGrid,
    "cap-study": CapStudy,
    "ingest-logs": IngestLogs,
}


def tracer_merge(total, part):
    import tracer

    return tracer.merge(total or tracer.empty(), part)


class Loop:
    """Closed loop with one op in flight; op outputs are checked between ops, untimed."""

    def __init__(self, work, want):
        self.work, self.want = work, want
        self.k = 0
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run(self, seconds: float, min_ops: int = 0, max_seconds: float = 0.0, traced: bool = False,
            probe: SetupProbe | None = None):
        """Run ops for ``seconds`` of loop time, and on until ``min_ops`` unless ``max_seconds`` passes.

        Checks and set-up probes pause the loop clock; busy time excludes them.
        """
        lat, ref, spans = [], [], None
        start = clock()
        paused = 0.0
        while True:
            elapsed = clock() - start - paused
            if probe is not None and probe.due(elapsed):
                p0 = clock()
                probe.run()
                paused += clock() - p0
                continue
            if elapsed >= seconds and (len(lat) >= min_ops or elapsed >= max_seconds):
                break
            r0 = clock()
            ref.append(self.work.reference())
            paused += clock() - r0
            t0 = clock()
            try:
                out, error = self.work.call(self.k, traced), None
            except Exception as exc:  # any unexpected exception is a failed op
                out, error = None, exc
            lat.append(clock() - t0)
            c0 = clock()
            self.attempted += 1
            try:
                if error is not None:
                    raise error
                if traced and not self.work.in_process:
                    spans = tracer_merge(spans, out[2])
                self.work.verify(self.k, out, self.want)
            except Exception as exc:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{type(exc).__name__}: {exc}")
            paused += clock() - c0
            self.k += 1
        busy = clock() - start - paused
        ref.append(self.work.reference())  # each op sits between two reference times
        while probe is not None and probe.due(float("inf")):
            probe.run()
        return {"lat_s": lat, "ref_s": ref, "busy_wall_s": busy, "spans": spans}


def main(argv: list[str]) -> int:
    pin_to_one_cpu()
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    workdir = Path(plan["workdir"])
    work = WORKLOADS[plan["workload"]](plan, plan["inputs"], workdir)
    work.prepare()
    if work.in_process and plan["fault"]:
        import faults

        faults.install(plan["fault"])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if "--setup-only" in argv:
        return 0

    want = json.loads((workdir / plan["expect"]).read_text(encoding="utf-8"))
    loop = Loop(work, want)
    warm = loop.run(plan["warm_s"], min_ops=plan["warm_ops"], max_seconds=plan["warm_s"] * 4)
    seconds = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    probe = None if plan["trace"] else SetupProbe(argv[0], plan["setup_probes"], seconds)
    if not work.in_process:
        work.peak_rss_kb = 0  # timed ops only
    timed = loop.run(seconds, min_ops=plan["min_ops"], max_seconds=plan["max_seconds"], probe=probe)
    result = {
        "warmup_ops": len(warm["lat_s"]),
        "timed": timed,
        "setup_s": probe.times if probe else [],
        "setup_ref_s": probe.ref_s if probe else [],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if work.in_process else work.peak_rss_kb,
    }
    if plan["trace"]:
        tracer = None
        if work.in_process:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result["traced"] = loop.run(seconds, traced=True)
        if tracer is not None:
            result["traced"]["spans"] = tracer.snapshot()
    result.update(attempted=loop.attempted, failed=loop.failed, failures=loop.failures)
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
