"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public drlqr functions from the outside: each target is
resolved once in its home module, and every drlqr module global bound to
that same function object (for example ``drsynth.solve`` and
``sdpcore.solve``) is replaced by one wrapper.  A moved import therefore
keeps its span, and a target that no longer exists is reported as absent
with zero calls instead of raising.

Spans are kept in memory as (name, start, end, parent, op id, info).  The
self time of a span is its duration minus the time covered by its direct
child spans.  Wrappers pass straight through while the tracer is inactive,
so certificate checks and input generation never produce spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# span name -> (module under drlqr, attribute path in that module)
TARGETS = {
    "ambiguity.build_ambiguity": ("ambiguity", "build_ambiguity"),
    "sdpcore.solve": ("sdpcore", "solve"),
    "sdpcore.build": ("sdpcore", "LmiBuilder.build"),
    "drsynth.synth_full": ("drsynth", "synth_full"),
    "drsynth.synth_rhc": ("drsynth", "synth_rhc"),
    "drsynth.certify": ("stability", "dr_certify_mss"),
    "stability.is_mss": ("stability", "is_mss"),
    "stability.second_moment_operator": ("stability", "second_moment_operator"),
    "stability.closed_loop_cost": ("stability", "closed_loop_cost"),
    "stability.closed_loop_value_matrix": ("stability", "closed_loop_value_matrix"),
    "riccati.dr_covariance": ("riccati", "dr_covariance"),
    "riccati.value_iteration": ("riccati", "value_iteration"),
    "sysmodel.fgh": ("sysmodel", "fgh"),
    "experiment.run_sample_complexity": ("experiment", "run_sample_complexity"),
}


def _solve_info(args, result):
    prob = args[0]
    pencil = sum(b.Fi.nbytes + b.F0.nbytes for b in prob.blocks)
    return {"status": getattr(result, "status", "?"),
            "newton": getattr(result, "iterations", 0),
            "num_vars": prob.num_vars, "total_dim": prob.total_dim,
            "pencil_bytes": pencil}


def _vi_info(args, result):
    return {"sweeps": getattr(result, "iterations", 0)}


def _operator_info(args, result):
    return {"dim": int(result.shape[0])}


# extra attributes recorded from a call's arguments and return value
INFO = {
    "sdpcore.solve": _solve_info,
    "riccati.value_iteration": _vi_info,
    "stability.second_moment_operator": _operator_info,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    child_s: float = 0.0
    error: str = ""
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs wrappers on drlqr functions and records spans while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, error: str = "", info=None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        if info:
            span.info = info
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def _wrapper(self, name: str, fn):
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, error=type(exc).__name__)
                raise
            self._close(idx, info=info_of(args, result) if info_of else None)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every drlqr module global bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "drlqr" or n.startswith("drlqr."))]
        for name, (mod_name, path) in TARGETS.items():
            owner = sys.modules.get(f"drlqr.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrapper(name, fn)
            if outer:  # a method: rebinding it on its class covers every caller
                self._rebind(owner, attr, fn, wrapper)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, key, fn, wrapper)

    def _rebind(self, owner, attr: str, fn, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def _group(spans, names):
    return [s for s in spans if s.name in names]


def _outermost(spans, names):
    """Spans of the group whose parent is not itself in the group."""
    return [s for s in spans if s.name in names
            and (s.parent < 0 or spans[s.parent].name not in names)]


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics from the recorded spans of `ops` traced ops.

    Counts are totals over the traced ops; times are per op (ms/op) or per
    call (us); a layer that is never called reads 0.
    """
    spans = tracer.spans
    per_op = 1000.0 / max(ops, 1)

    def total_s(group):
        return sum(s.duration for s in group)

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    m = {}
    solves = _group(spans, {"sdpcore.solve"})
    steps = sum(s.info.get("newton", 0) for s in solves)
    m["sdpcore.solve.calls"] = (len(solves), "count")
    m["sdpcore.solve.ms"] = (total_s(solves) * per_op, "ms/op")
    m["sdpcore.newton_steps"] = (steps, "count")
    m["sdpcore.ms_per_newton"] = (ratio(total_s(solves) * 1000.0, steps), "ms")
    m["sdpcore.num_vars"] = (mean([s.info["num_vars"] for s in solves if s.info]), "count")
    m["sdpcore.total_dim"] = (mean([s.info["total_dim"] for s in solves if s.info]), "count")
    m["sdpcore.pencil_mb"] = (mean([s.info["pencil_bytes"] for s in solves if s.info]) / 1e6,
                              "MB_computed")
    for status in ("optimal", "infeasible", "numerical_failure", "unbounded"):
        m[f"sdpcore.status.{status}"] = (
            sum(1 for s in solves if s.info.get("status") == status), "count")
    m["sdpcore.build.ms"] = (total_s(_group(spans, {"sdpcore.build"})) * per_op, "ms/op")

    synth_names = {"drsynth.synth_full", "drsynth.synth_rhc"}
    synth = _group(spans, synth_names)
    certify = _group(spans, {"drsynth.certify"})
    m["drsynth.calls"] = (len(synth), "count")
    m["drsynth.ms"] = (total_s(synth) * per_op, "ms/op")
    m["drsynth.self_ms"] = (sum(s.self_s for s in synth) * per_op, "ms/op")
    m["drsynth.certify.ms"] = (total_s(certify) * per_op, "ms/op")
    m["drsynth.certify.share"] = (ratio(total_s(certify), total_s(synth)), "ratio")

    mss = _group(spans, {"stability.is_mss"})
    cost_names = {"stability.closed_loop_cost", "stability.closed_loop_value_matrix"}
    operators = _group(spans, {"stability.second_moment_operator"})
    m["stability.is_mss.calls"] = (len(mss), "count")
    m["stability.is_mss.us"] = (ratio(total_s(mss) * 1e6, len(mss)), "us")
    m["stability.operator_dim"] = (mean([s.info["dim"] for s in operators if s.info]), "count")
    m["stability.cost.ms"] = (total_s(_outermost(spans, cost_names)) * per_op, "ms/op")

    vi = _group(spans, {"riccati.value_iteration"})
    riccati = _group(spans, {"riccati.value_iteration", "riccati.dr_covariance"})
    sweeps = sum(s.info.get("sweeps", 0) for s in vi)
    m["riccati.vi.calls"] = (len(vi), "count")
    m["riccati.vi.sweeps"] = (sweeps, "count")
    m["riccati.vi.us_per_sweep"] = (ratio(total_s(vi) * 1e6, sweeps), "us")
    m["riccati.self_ms"] = (sum(s.self_s for s in riccati) * per_op, "ms/op")
    m["riccati.not_stabilizable"] = (
        sum(1 for s in vi if s.error == "NotStabilizableError"), "count")

    fgh = _group(spans, {"sysmodel.fgh"})
    m["sysmodel.fgh.calls"] = (len(fgh), "count")
    m["sysmodel.fgh.us"] = (ratio(total_s(fgh) * 1e6, len(fgh)), "us")

    amb = _group(spans, {"ambiguity.build_ambiguity"})
    m["ambiguity.calls"] = (len(amb), "count")
    m["ambiguity.ms"] = (total_s(amb) * per_op, "ms/op")

    sweep = _group(spans, {"experiment.run_sample_complexity"})
    m["experiment.sweep.ms"] = (total_s(sweep) * per_op, "ms/op")
    m["experiment.self_ms"] = (sum(s.self_s for s in sweep) * per_op, "ms/op")

    m["trace.absent"] = (len(tracer.absent), "count")
    return m


def count_digest(spans) -> tuple:
    """Counts of one op's spans that must repeat exactly for the same input."""
    solves = [s for s in spans if s.name == "sdpcore.solve"]
    return (
        sum(s.info.get("newton", 0) for s in solves),
        sorted(Counter(s.info.get("status", "?") for s in solves).items()),
        sum(s.info.get("sweeps", 0) for s in spans if s.name == "riccati.value_iteration"),
        sum(1 for s in spans if s.name == "stability.is_mss"),
    )
