#!/usr/bin/env python3
"""Benchmark of drlqr: end-to-end metrics per workload and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload synth-n5 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Workloads: sweep-paper, synth-n5, riccati-chain (README.md says why each
exists).  `--trace 0` measures the end-to-end metrics for `--seconds`
seconds; `--trace 1` runs a fixed number of ops untraced and then traced and
reports the per-layer metrics.  End-to-end times are scaled to a reference
host speed measured between ops (README.md says how and why).
Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The library is imported from src/ of the
same checkout, so the benchmark exits with code 2 when src/drlqr is absent.
"""

import os
import sys
import time

START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import subprocess
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 2  # set-ups in fresh processes besides this one; setup_s is their median
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # a tail percentile needs at least this many ops above it

# Host speed.  The VM shares its cores with other tenants, and the same op
# runs up to twice as long for minutes at a time when they are busy.  A fixed
# reference kernel, timed between ops, slows down with it; every end-to-end
# time is scaled to the speed at which the kernel takes REF_NOMINAL_S, its
# time on the VM described in README.md when quiet.  Traced runs are not scaled.
REF_NOMINAL_S = 0.0075
REF_SETUP_SAMPLES = 3  # kernel runs right after set-up; their median scales setup_s
_REF_RNG = np.random.default_rng(0)
_REF_MATS = [_REF_RNG.standard_normal((8, 8)) + 8.0 * np.eye(8) for _ in range(8)]


@dataclass
class OpRecord:
    index: int
    kind: str
    seconds: float
    reasons: list
    host: float = 1.0  # host slowdown around the op: reference kernel time / REF_NOMINAL_S

    @property
    def scaled(self) -> float:
        """Op seconds at the reference host speed."""
        return self.seconds / self.host


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter and small-matrix numpy work, the
    mix drlqr spends its time in, without calling drlqr."""
    t0 = time.perf_counter()
    d, s = {}, 0.0
    for i in range(20000):
        d[i & 255] = s
        s += (i * 0.5) % 7.0
    for i in range(400):
        A = _REF_MATS[i & 7]
        x = np.linalg.solve(A, A[:, 0])
        np.einsum("ij,j->i", A, x).sum()
        (A @ A.T).trace()
    return time.perf_counter() - t0


def run_op(wl, inp, tracer=None) -> OpRecord:
    """Time one op around its public calls, then check it outside the timer."""
    if tracer is not None:
        tracer.op = inp.index
        tracer.active = True
    t0 = time.perf_counter()
    out = wl.run(inp)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return OpRecord(inp.index, inp.kind, seconds, wl.check(inp, out))


def timed_phase(wl, seconds: float) -> list:
    """Ops from index 0 until `seconds` have passed and every op class has run,
    with the reference kernel before the first op and after each op.  An op's
    host slowdown is the mean of the kernel times on either side of it."""
    records = []
    t0 = time.perf_counter()
    before = reference_kernel()
    while time.perf_counter() - t0 < seconds or not set(wl.mix) <= {r.kind for r in records}:
        rec = run_op(wl, wl.make_input(len(records)))
        after = reference_kernel()
        rec.host = (before + after) / (2.0 * REF_NOMINAL_S)
        records.append(rec)
        before = after
    return records


def weighted_quantile(values, weights, q: float) -> float:
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    pos = (np.cumsum(w) - 0.5 * w) / w.sum()
    return float(np.interp(q, pos, v))


def tail_percentile(times):
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops above
    it, or None when that percentile is not above the median."""
    n = len(times)
    pct = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    if pct <= 50:
        return None
    return pct, sorted(times)[n - TAIL_BEYOND - 1]


def end_to_end(records, mix, setup_s: float) -> dict:
    """Metrics at the workload's op mix, op times at the reference host speed:
    each op weighs its class's share of the mix over the number of ops of
    that class."""
    counts = Counter(r.kind for r in records)
    w = [mix[r.kind] / counts[r.kind] for r in records]
    mean_op_s = math.fsum(wi * r.scaled for wi, r in zip(w, records))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1.0 / mean_op_s, "1/s"),
        "op_ms.p50": (weighted_quantile([r.scaled * 1e3 for r in records], w, 0.5), "ms"),
        "ok_rate": (math.fsum(wi for wi, r in zip(w, records) if not r.reasons), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    loc = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "drlqr")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    loc += sum(1 for _ in fh)
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": vendor,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "drlqr_loc": loc,
    }


def setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")


def failure_summary(records) -> None:
    failed = [r for r in records if r.reasons]
    print(f"  fail_rate {len(failed) / len(records):.4g} ({len(failed)}/{len(records)} ops)")
    by_reason = Counter(reason for r in failed for reason, _ in r.reasons)
    for reason, count in sorted(by_reason.items()):
        print(f"    {count:>4} x {reason}")


def result_line(records, metrics: dict) -> str:
    return json.dumps({
        "correct": not any(wrong for r in records for _, wrong in r.reasons),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def measure(wl, args, setup_s: float) -> int:
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    records = timed_phase(wl, args.seconds)
    metrics = end_to_end(records, wl.mix, sorted(setups)[len(setups) // 2])
    print(f"end-to-end, {len(records)} ops in {sum(r.seconds for r in records):.2f} s of ops, "
          f"host slowdown {min(r.host for r in records):.3f} to "
          f"{max(r.host for r in records):.3f} (median {np.median([r.host for r in records]):.3f}), "
          f"scaled set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    print_metrics(metrics)
    tail = tail_percentile([r.scaled * 1e3 for r in records])
    if tail:
        print(f"  op_ms.tail                         p{tail[0]} = {tail[1]:.6g} ms "
              f"({len(records)} ops, {TAIL_BEYOND} beyond)")
    else:
        print(f"  op_ms.tail                         omitted: {len(records)} ops leave no "
              f"percentile above p50 with {TAIL_BEYOND} ops beyond it")
    failure_summary(records)
    print(result_line(records, metrics))
    return 0


def measure_traced(wl) -> int:
    from layertrace import Tracer, count_digest, layer_metrics

    inputs = [wl.make_input(i) for i in range(wl.trace_ops)]
    plain = [run_op(wl, inp) for inp in inputs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(wl, inp, tracer) for inp in inputs]
        metrics = layer_metrics(tracer, len(traced))
        digests = [count_digest([s for s in tracer.spans if s.op == r.index]) for r in traced]
        n_spans = len(tracer.spans)
        repeat = run_op(wl, wl.make_input(0), tracer)  # op 0 again: its counts must repeat
        repeat_digest = count_digest(tracer.spans[n_spans:])
    finally:
        tracer.uninstall()
    # tracing must change neither the counts of an op nor its outcome
    mismatch = (repeat_digest != digests[0] or repeat.reasons != traced[0].reasons
                or [r.reasons for r in plain] != [r.reasons for r in traced])
    metrics["trace.overhead"] = (
        1.0 - sum(r.seconds for r in plain) / sum(r.seconds for r in traced), "ratio")
    metrics["trace.ops"] = (len(traced), "count")
    metrics["trace.count_mismatch"] = (int(mismatch), "count")
    print(f"per-layer, {len(traced)} ops traced, {n_spans} spans; "
          f"absent: {', '.join(tracer.absent) or 'none'}")
    print_metrics(metrics)
    print("counts per op (newton steps, statuses, vi sweeps, is_mss calls):",
          json.dumps(digests))
    failure_summary(traced)
    print(result_line(traced, metrics))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drlqr", "__init__.py")):
        print(f"perfbench: no drlqr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload](args.seed)
    wl.run(wl.warmup_input())
    setup_s = time.perf_counter() - START
    setup_s /= np.median([reference_kernel() for _ in range(REF_SETUP_SAMPLES)]) / REF_NOMINAL_S
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print("env", json.dumps(environment(args)))
    return measure_traced(wl) if args.trace else measure(wl, args, setup_s)


if __name__ == "__main__":
    sys.exit(main())
