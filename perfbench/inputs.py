"""Seeded input generation for the perfbench workloads.

Every input is derived from ``(workload, seed)`` alone, so one seed gives
byte-identical files on every run.  Grids come from powerplan's
``generate_profile``; the files the program reads are rendered here, in the
documented grammars, so the program sees only text.  Alongside the files the
generator records the oracle's expected outputs.  An input whose best and
second-best estimates lie within ``oracle.TIE_GAP`` of each other is redrawn,
so the expectations never depend on the planner's tie rule.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from powerplan import generate_profile
from powerplan.synth import SynthDeviceParams

import oracle

WORKLOADS = ("cli-select", "dense-grid", "cap-study", "ingest-logs")
MAX_REDRAWS = 100


@dataclass(frozen=True)
class Sizes:
    cli_grid: tuple[int, int] = (8, 12)
    cli_caps: int = 16
    dense_grid: tuple[int, int] = (64, 256)
    dense_variants: int = 4
    dense_caps: int = 8
    study_grid: tuple[int, int] = (64, 256)
    study_variants: int = 4
    sweep_caps: int = 200
    compare_caps: int = 20
    sens_proxies: int = 4
    sens_targets: int = 4
    sens_caps: int = 3
    ingest_grid: tuple[int, int] = (16, 32)
    ingest_samples: int = 60
    ingest_minibatches: int = 6


FULL = Sizes()
SMOKE = Sizes(
    cli_grid=(4, 6), cli_caps=6, dense_grid=(6, 10), dense_variants=2, dense_caps=4,
    study_grid=(6, 10), study_variants=2, sweep_caps=20, compare_caps=5, sens_proxies=2,
    sens_targets=2, sens_caps=1, ingest_grid=(3, 4), ingest_samples=8, ingest_minibatches=3,
)


class _NearTie(Exception):
    pass


@dataclass(frozen=True)
class Device:
    model_id: str
    s: int
    bs: list[int]
    fs: list[float]
    time: np.ndarray
    power: np.ndarray
    avg: np.ndarray


@dataclass(frozen=True)
class Inputs:
    files: dict[str, str]
    plan: dict
    expect: dict
    redraws: int

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()


def build(workload: str, seed: int, sizes: Sizes = FULL) -> Inputs:
    """Generate the inputs and expected outputs of one workload run."""
    builder = _BUILDERS[workload]
    salt = WORKLOADS.index(workload)
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng([seed, salt, attempt])
        try:
            files, plan, expect = builder(rng, sizes)
        except _NearTie:
            continue
        return Inputs(files, plan, expect, attempt)
    raise RuntimeError(f"{workload}: no tie-free input in {MAX_REDRAWS} draws for seed {seed}")


def _device(rng, n_b: int, n_f: int, model_id: str, fs=None) -> Device:
    bs = np.sort(rng.choice(np.arange(1, 16 * n_b + 1), size=n_b, replace=False))
    if fs is None:
        fs = np.sort(rng.choice(np.arange(1000, 14001), size=n_f, replace=False)) / 10.0
    f_lo, f_hi = float(fs[0]), float(fs[-1])
    v_lo, v_hi = rng.uniform(0.55, 0.75), rng.uniform(0.95, 1.2)
    params = SynthDeviceParams(
        p_static=float(rng.uniform(1.5, 4.0)),
        power_coeff=float(rng.uniform(0.002, 0.006)),
        voltage_curve=(
            (f_lo, float(v_lo)),
            ((f_lo + f_hi) / 2, float(v_lo + (v_hi - v_lo) * rng.uniform(0.2, 0.6))),
            (f_hi, float(v_hi)),
        ),
        parallel_cap=int(bs[int(rng.integers(n_b // 2, n_b))]),
        per_sample_cost=float(rng.uniform(0.5, 2.0)),
        freq_efficiency=float(rng.uniform(200.0, 2000.0)),
        rng_seed=int(rng.integers(0, 2**31)),
        noise_level=float(rng.uniform(0.0, 0.2)),
        avg_duty=float(rng.uniform(0.6, 0.95)),
    )
    s = int(rng.choice([1024, 2048, 4096, 8192]))
    p = generate_profile(bs.tolist(), fs.tolist(), params, s, model_id=model_id, with_avg_power=True)
    return Device(model_id, s, list(p.batch_sizes), list(p.frequencies),
                  np.array(p.time_table), np.array(p.power_table), np.array(p.avg_power_table))


def _counts(rng, bs) -> list[int]:
    n_min = rng.uniform(500.0, 5000.0)
    b_noise = rng.uniform(0.2, 2.0) * float(np.median(bs))
    jitter = np.exp(rng.normal(0.0, 0.25, len(bs)))
    return [int(c) for c in np.ceil(n_min * (1.0 + np.asarray(bs) / b_noise) * jitter)]


def _perturb(rng, counts: list[int], sigma: float) -> list[int]:
    return [int(math.ceil(c * math.exp(rng.normal(0.0, sigma)))) for c in counts]


def _ratios(counts) -> list[float]:
    worst = max(counts)
    return [c / worst for c in counts]


def _caps(rng, dev: Device, n: int) -> list[float]:
    """Seeded caps: unlimited, one below every peak, one equal to a peak, the rest in range."""
    lo, hi = float(dev.power.min()), float(dev.power.max())
    caps = [math.inf, round(lo * rng.uniform(0.5, 0.95), 4), float(rng.choice(dev.power.ravel()))]
    while len(caps) < n:
        cap = round(float(rng.uniform(lo, hi * 1.02)), 4)
        if cap not in caps:
            caps.append(cap)
    return [caps[k] for k in rng.permutation(n)]


def _pick(dev: Device, mult, cap: float):
    """Oracle argmin as (i, j, estimate), None when infeasible; redraws near-ties."""
    found = oracle.argmin(dev.time, dev.power, mult, cap)
    if found is None:
        return None
    i, j, est, gap = found
    if gap <= oracle.TIE_GAP:
        raise _NearTie
    return i, j, est


def _want(dev: Device, pick):
    return None if pick is None else [dev.bs[pick[0]], dev.fs[pick[1]], pick[2]]


def _cap_text(cap: float) -> str:
    return "unlimited" if math.isinf(cap) else repr(cap)


def render_profile(dev: Device) -> str:
    lines = [f"{dev.model_id},{dev.s}", ",".join(map(str, dev.bs)), ",".join(map(repr, dev.fs))]
    time, power, avg = dev.time.tolist(), dev.power.tolist(), dev.avg.tolist()
    for i, b in enumerate(dev.bs):
        for j, f in enumerate(dev.fs):
            lines.append(f"{b},{f!r},{time[i][j]!r},{power[i][j]!r},{avg[i][j]!r}")
    return "\n".join(lines) + "\n"


def _render_pairs(source_id: str, bs, values) -> str:
    return "".join([f"source_id,{source_id}\n"] + [f"{b},{v!r}\n" for b, v in zip(bs, values)])


def _cli_select(rng, sizes: Sizes):
    dev = _device(rng, *sizes.cli_grid, "bench-cli")
    ratios = _ratios(_counts(rng, dev.bs))
    caps = _caps(rng, dev, sizes.cli_caps)
    files = {"profile.csv": render_profile(dev), "relation.csv": _render_pairs("bench", dev.bs, ratios)}
    plan = {"profile": "profile.csv", "relation": "relation.csv", "caps": [_cap_text(c) for c in caps]}
    expect = {"select": [_want(dev, _pick(dev, ratios, cap)) for cap in caps]}
    return files, plan, expect


def _dense_grid(rng, sizes: Sizes):
    files, variants, wants = {}, [], []
    for v in range(sizes.dense_variants):
        dev = _device(rng, *sizes.dense_grid, f"bench-dense-{v}")
        ratios = _ratios(_counts(rng, dev.bs))
        caps = _caps(rng, dev, sizes.dense_caps)
        files[f"profile{v}.csv"] = render_profile(dev)
        files[f"relation{v}.csv"] = _render_pairs(f"bench{v}", dev.bs, ratios)
        variants.append({"profile": f"profile{v}.csv", "relation": f"relation{v}.csv",
                         "caps": [_cap_text(c) for c in caps]})
        wants.append([_want(dev, _pick(dev, ratios, cap)) for cap in caps])
    return files, {"variants": variants}, {"select": wants}


def _cap_study(rng, sizes: Sizes):
    dev = _device(rng, *sizes.study_grid, "bench-study")
    truth = _counts(rng, dev.bs)
    ratios = _ratios(_perturb(rng, truth, 0.2))
    proxies = {f"proxy{k}": _ratios(_perturb(rng, truth, 0.3)) for k in range(sizes.sens_proxies)}
    targets = {f"target{k}": [float(c) for c in _perturb(rng, truth, 0.3)] for k in range(sizes.sens_targets)}
    truth_f = [float(c) for c in truth]
    lo, hi = float(dev.power.min()), float(dev.power.max())
    col_max = dev.power.max(axis=0)

    def safe_index(cap: float) -> int:
        under = np.flatnonzero(col_max < cap)
        return int(under[-1]) if under.size else 0

    i2, gap = oracle.ratio_argmin(ratios)
    if gap <= oracle.TIE_GAP:
        raise _NearTie
    last = len(dev.bs) - 1
    variants, wants, safe_caps = [], [], set()
    for _ in range(sizes.study_variants):
        step = max(1, math.ceil((hi * 1.05 - lo * 0.97) / (sizes.sweep_caps - 1) * 1024))
        start = math.floor(lo * 0.97 * 1024) + int(rng.integers(0, step))
        ladder = [(start + k * step) / 1024 for k in range(sizes.sweep_caps)]
        compare = [math.inf, round(lo * rng.uniform(0.5, 0.95), 4)]
        while len(compare) < sizes.compare_caps:
            cap = round(float(rng.uniform(lo, hi * 1.02)), 4)
            if cap not in compare:
                compare.append(cap)
        sens = [round(float(rng.uniform(lo + 0.1 * (hi - lo), hi)), 4) for _ in range(sizes.sens_caps)]
        safe_caps.update(compare)

        sweep = []
        for cap in ladder:
            pick = _pick(dev, ratios, cap)
            sweep.append(None if pick is None else _want(dev, pick) + [float(dev.avg[pick[0], pick[1]] * pick[2])])

        rows = []
        for cap in sorted(compare):
            j = safe_index(cap)
            anchor = float(dev.time[last, j] * truth_f[last])
            picks = {
                "baseline1": (last, j, float(dev.time[last, j] * ratios[last])),
                "baseline2": (i2, j, float(dev.time[i2, j] * ratios[i2])),
                "ours": _pick(dev, ratios, cap),
                "fastest": _pick(dev, truth_f, cap),
            }
            for tag, pick in picks.items():
                if pick is None:
                    rows.append([cap, tag, "infeasible"])
                    continue
                i, jj, est = pick
                real = float(dev.time[i, jj] * truth_f[i])
                rows.append([cap, tag, "ok", dev.bs[i], dev.fs[jj], est, real,
                             float(dev.avg[i, jj] * real), anchor / real])

        matrices = []
        pids, tids = sorted(proxies), sorted(targets)
        for cap in sorted(sens):
            chosen = [_pick(dev, proxies[pid], cap) for pid in pids]
            values = [[0.0] * len(tids) for _ in pids]
            for t, tid in enumerate(tids):
                fastest = _pick(dev, targets[tid], cap)[2]
                for p, (i, j, _) in enumerate(chosen):
                    real = float(dev.time[i, j] * targets[tid][i])
                    values[p][t] = (real - fastest) / fastest * 100.0
            matrices.append([cap, pids, tids, values])

        variants.append({
            "ladder": [ladder[0], ladder[-1], step / 1024],
            "compare": compare,
            "sensitivity": sens,
        })
        wants.append({"ladder": ladder, "sweep": sweep, "comparison": rows, "sensitivity": matrices})

    safe_lines = [f"{_cap_text(c)},{dev.fs[safe_index(c)]!r}\n" for c in sorted(safe_caps)]
    files = {
        "profile.csv": render_profile(dev),
        "relation.csv": _render_pairs("bench", dev.bs, ratios),
        "truth.csv": _render_pairs("truth", dev.bs, truth),
        "safe.csv": "".join(safe_lines),
    }
    for pid, r in proxies.items():
        files[f"{pid}.csv"] = _render_pairs(pid, dev.bs, r)
    for tid, c in targets.items():
        files[f"{tid}.csv"] = _render_pairs(tid, dev.bs, [int(x) for x in c])
    plan = {
        "profile": "profile.csv", "relation": "relation.csv", "truth": "truth.csv", "safe": "safe.csv",
        "proxies": [f"{pid}.csv" for pid in proxies], "targets": [f"{tid}.csv" for tid in targets],
        "variants": variants,
    }
    return files, plan, {"variants": wants}


def _ingest_logs(rng, sizes: Sizes):
    n_b, n_f = sizes.ingest_grid
    # Evenly spaced frequencies keep adjacent times >1.5% apart, well beyond
    # the 0.4% duration jitter, so the aggregated grid is monotone.
    fs = np.round(np.linspace(rng.uniform(200.0, 400.0), rng.uniform(1100.0, 1400.0), n_f), 1)
    dev = _device(rng, n_b, n_f, "bench-ingest", fs=fs)
    files, pairs, cells = {}, [], []
    n_dur = sizes.ingest_minibatches
    for i, b in enumerate(dev.bs):
        for j, f in enumerate(dev.fs):
            base = float(dev.time[i, j]) * b / dev.s
            durations = [base * rng.uniform(1.5, 3.0)]
            durations += [base * (1.0 + rng.uniform(-0.004, 0.004)) for _ in range(n_dur - 1)]
            peak_mw = round(float(dev.power[i, j]) * 1000.0, 1)
            samples = [round(peak_mw * rng.uniform(0.55, 0.98), 1) for _ in range(sizes.ingest_samples)]
            samples[int(rng.integers(len(samples)))] = peak_mw
            t0 = round(float(rng.uniform(0.0, 1000.0)), 3)
            name = f"b{b}_f{f!r}.csv"
            files[f"logs/t_{name}"] = f"b={b},f_mhz={f!r},warmup=1\n" + "".join(f"{d!r}\n" for d in durations)
            files[f"logs/p_{name}"] = "".join(f"{t0 + k!r},{mw!r}\n" for k, mw in enumerate(samples))
            pairs.append([f"logs/t_{name}", f"logs/p_{name}"])
            cells.append([b, f, *oracle.aggregate(durations, 1, samples, dev.s, b)])
    order = rng.permutation(len(pairs))
    plan = {"pairs": [pairs[k] for k in order], "s": dev.s, "model_id": dev.model_id, "out": "ingest_out.csv"}
    expect = {"model_id": dev.model_id, "s": dev.s, "batch_sizes": dev.bs, "frequencies": dev.fs, "cells": cells}
    return files, plan, expect


_BUILDERS = {
    "cli-select": _cli_select,
    "dense-grid": _dense_grid,
    "cap-study": _cap_study,
    "ingest-logs": _ingest_logs,
}
