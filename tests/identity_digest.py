"""Digests of outputs that a refactor must leave byte-identical.

Run from the repository root on two checkouts and compare the lines:

    PYTHONPATH=src python tests/identity_digest.py

Each line is the sha256 of the raw bytes of

- pencils: the c, F0 and Fi arrays (with their shapes) that sdpcore.solve
  receives from synth_full and synth_rhc on 300 random plants, drawn by
  test_drsynth._random_instance from default_rng(seed), seeds 0-299, with
  n_x 1-3, n_u 1-3 and n_w 1-2;
- synthesis: those calls' K, cost bound and iterations, or the name of the
  exception they raised;
- riccati-chain: ops 0-29 of the benchmark workload at seed 0, with inputs
  from perfbench/workloads.py: the dr_covariance K, P and iterations and the
  two closed-loop scores, or the name of the exception;
- sweep-paper: ops 0-2 of the benchmark workload at seed 0, with inputs from
  perfbench/workloads.py: the c, F0 and Fi arrays solve receives from the
  sweep's synth_full calls, which reuse one assembled pencil across cells,
  and each record's M, realization, method, stabilizing and J;
- mss: is_mss's (verdict, radius) and whether closed_loop_value_matrix
  certifies the same loop, for the synth_full gains of the 300 plants at
  their set's centre moments (mean mu_hat, covariance rho_sigma Sigma_hat)
  and for every loop that riccati-chain ops 0-29 pass to is_mss;
- ce-gain: the certainty-equivalent gain riccati._ce_gain computes, every
  memo cleared first, or None, at the 300 plants' centre moments and at the
  moments of each riccati-chain op 0-29's dr_covariance solve.

With --outcomes it prints, in place of the digests, one line per synthesis
call, "<seed> <method>" and then the exception's name or "ok <bound>
<iterations>", and one line per sweep-paper record of ops 0-2.  A change
meant to move the pencil compares these lines on two checkouts with diff.

With --cold every function that matcore._memo_last memoizes runs without its
memo, as if every memo were cleared before each call, so no value is kept
from one call to the next: a diff of the lines with and without --cold
compares the memo path with the cold path in one checkout.

Pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import importlib

import numpy as np

import drlqr
from conftest import bench_workloads
from drlqr import drsynth, matcore, riccati, stability
from drlqr.sysmodel import DisturbanceMoments
from test_drsynth import _random_instance
from test_riccati import _chain_workload_case

PLANTS = 300
CHAIN_OPS = 30
SWEEP_OPS = 3


def _update(h, *arrays):
    for a in arrays:
        a = np.asarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())


@contextlib.contextmanager
def _pencils_into(h):
    """Feed h the c, F0 and Fi of every program drsynth.solve receives."""
    real = drsynth.solve

    def spy(prob, start=None):
        _update(h, prob.c, *(m for b in prob.blocks for m in (b.F0, b.Fi)))
        return real(prob, start=start)

    drsynth.solve = spy
    try:
        yield
    finally:
        drsynth.solve = real


@contextlib.contextmanager
def _cold():
    """Call every memoized function without its memo, so each value is computed afresh."""
    memos = [(importlib.import_module(memo.__module__), memo) for memo in matcore._MEMOS]
    for module, memo in memos:
        setattr(module, memo.__name__, memo.__wrapped__)
    try:
        yield
    finally:
        for module, memo in memos:
            setattr(module, memo.__name__, memo)


def _mss_update(h, cl, m, cost):
    """Feed h is_mss's verdict and radius and the cost path's verdict on cl."""
    try:
        stability.closed_loop_value_matrix(cl, m, cost)
        certified = True
    except stability.InstabilityError:
        certified = False
    h.update(repr((*stability.is_mss(cl, m), certified)).encode())


def plants():
    """(seed, sys, amb, cost, x0) for each of the random plants."""
    for seed in range(PLANTS):
        rng = np.random.default_rng(seed)
        shape = (1 + seed % 3, 1 + seed // 3 % 3, 1 + seed // 9 % 2)
        radii = (0.3 * rng.random(), 0.3 * rng.random(), 1.0 + rng.random())
        yield (seed, *_random_instance(rng, *shape, *radii))


def _centre(amb) -> DisturbanceMoments:
    return DisturbanceMoments(mu=amb.mu_hat, sigma=amb.rho_sigma * amb.sigma_hat)


def synthesis_calls():
    """(seed, method, sys, amb, cost, outcome) for each synth_full and synth_rhc
    call on the plants: the outcome is the Controller or the exception raised."""
    for seed, sys, amb, cost, x0 in plants():
        for method, call in (("dr_full", lambda: drsynth.synth_full(sys, amb, cost)),
                             ("dr_rhc", lambda: drsynth.synth_rhc(sys, amb, cost, x0))):
            try:
                outcome = call().controller
            except Exception as exc:  # the outcome being recorded
                outcome = exc
            yield seed, method, sys, amb, cost, outcome


def synthesis_digests(mss) -> tuple[str, str]:
    """The pencils and synthesis digests; mss is fed each synth_full gain's verdicts."""
    pencils, results = hashlib.sha256(), hashlib.sha256()
    with _pencils_into(pencils):
        for _, method, sys, amb, cost, ctrl in synthesis_calls():
            if isinstance(ctrl, Exception):
                results.update(type(ctrl).__name__.encode())
                continue
            _update(results, ctrl.K, ctrl.cost_bound, ctrl.iterations)
            if method == "dr_full":
                _mss_update(mss, stability.ClosedLoop(sys=sys, K=ctrl.K), _centre(amb), cost)
    return pencils.hexdigest(), results.hexdigest()


def riccati_chain_digest(mss) -> str:
    """The riccati-chain digest; mss is fed the verdicts of each loop the ops score."""
    h = hashlib.sha256()
    workload = bench_workloads().WORKLOADS["riccati-chain"](0)
    real = drlqr.is_mss

    def spy(cl, m):
        _mss_update(mss, cl, m, workload.cost)
        return real(cl, m)

    drlqr.is_mss = spy
    try:
        outs = [workload.run(workload.make_input(index)) for index in range(CHAIN_OPS)]
    finally:
        drlqr.is_mss = real
    for out in outs:
        if isinstance(out, Exception):
            h.update(type(out).__name__.encode())
            continue
        _, robust, scores = out
        _update(h, robust.K, np.asarray(robust.P), robust.iterations)
        for stable, J in scores:
            h.update(repr((stable, J)).encode())
    return h.hexdigest()


def ce_gain_digest() -> str:
    h = hashlib.sha256()
    cases = [(sys, _centre(amb), cost) for _, sys, amb, cost, _ in plants()]
    cases += [_chain_workload_case(index) for index in range(CHAIN_OPS)]
    for sys, m, cost in cases:
        matcore._clear_memos()
        K = riccati._ce_gain(sys, m, cost)
        if K is None:
            h.update(b"None")
        else:
            _update(h, K)
    return h.hexdigest()


def sweep_paper_ops():
    """The outputs of the sweep-paper ops: a list of records or an exception."""
    workload = bench_workloads().WORKLOADS["sweep-paper"](0)
    for index in range(SWEEP_OPS):
        yield workload.run(workload.make_input(index))


def sweep_paper_digest() -> str:
    h = hashlib.sha256()
    with _pencils_into(h):
        for out in sweep_paper_ops():
            if isinstance(out, Exception):
                h.update(type(out).__name__.encode())
                continue
            for rec in out:
                h.update(repr((rec.M, rec.realization, rec.method, rec.stabilizing,
                               rec.J)).encode())
    return h.hexdigest()


def print_outcomes() -> None:
    for seed, method, _, _, _, ctrl in synthesis_calls():
        if isinstance(ctrl, Exception):
            print(seed, method, type(ctrl).__name__)
        else:
            print(seed, method, "ok", f"{ctrl.cost_bound:.9g}", ctrl.iterations)
    for index, out in enumerate(sweep_paper_ops()):
        if isinstance(out, Exception):
            print("sweep-paper", index, type(out).__name__)
            continue
        for rec in out:
            print("sweep-paper", index, rec.M, rec.realization, rec.method, rec.stabilizing,
                  f"{rec.J:.9g}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--outcomes", action="store_true",
                        help="print each call's verdict, bound and iterations instead of digests")
    parser.add_argument("--cold", action="store_true",
                        help="run every memoized function without its memo")
    args = parser.parse_args()
    with _cold() if args.cold else contextlib.nullcontext():
        if args.outcomes:
            print_outcomes()
        else:
            mss = hashlib.sha256()
            pencils, results = synthesis_digests(mss)
            print(f"pencils        {pencils}")
            print(f"synthesis      {results}")
            print(f"riccati-chain  {riccati_chain_digest(mss)}")
            print(f"sweep-paper    {sweep_paper_digest()}")
            print(f"mss            {mss.hexdigest()}")
            print(f"ce-gain        {ce_gain_digest()}")
