"""The benchmark's three workloads: inputs, one op, and its certificate checks.

Each workload turns (seed, op index) into one input, runs one op on it
through public drlqr calls, and checks the op's output afterwards.  Checks
never compare against golden values; they test the certificate the library
claims for its own output, so they hold before and after a change to the
synthesis LMI.  Library functions are called as ``drlqr.<name>`` at call
time, so the traced run's wrappers on the package see these calls too.
See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import drlqr
from drlqr import (AmbiguityConfig, ClosedLoop, CostWeights, DisturbanceMoments,
                   DrSynthesisError, ExperimentConfig, MultNoiseSystem, SampleSet,
                   SymMatrix)

BETA = 0.05
LAMBDA_REG = 1e-8
SAMPLE_SIZES = (1000, 2000, 4000)
CERT_RTOL = 1e-6
# a seed no run is given, so that set-up time does not depend on --seed
WARMUP_SEED = 2**32 - 1


@dataclass(frozen=True)
class OpInput:
    index: int
    kind: str  # the op class; metrics weight classes by Workload.mix
    data: object


def _stream(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, index)))


def _standard_samples(rng, n_w: int) -> SampleSet:
    M = int(rng.choice(SAMPLE_SIZES))
    return SampleSet(samples=rng.standard_normal((M, n_w)))


def _centre(amb) -> DisturbanceMoments:
    """Centre of the ambiguity set: empirical mean, inflated covariance."""
    return DisturbanceMoments(mu=amb.mu_hat,
                              sigma=SymMatrix(amb.rho_sigma * np.asarray(amb.sigma_hat)))


def _call(fn, *args, **kwargs):
    """Run one library call; an exception is an outcome, not a crash."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every error is classified by the checks
        return exc


def _mss_value(sys, K, moments, cost):
    """(stable, P_cl) for gain K under the given moments; P_cl None if unstable."""
    cl = ClosedLoop(sys=sys, K=K)
    stable, _ = drlqr.is_mss(cl, moments)
    if not stable:
        return False, None
    return True, np.asarray(drlqr.closed_loop_value_matrix(cl, moments, cost))


class Workload:
    name = ""
    tag = 0  # spawn key of the workload's random streams
    mix = {"op": 1.0}  # op class -> weight in ops_per_s, op_ms.p50 and ok_rate
    trace_ops = 1  # ops in a traced run, fixed so that its counts repeat

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, index: int) -> OpInput:
        raise NotImplementedError

    def warmup_input(self) -> OpInput:
        return type(self)(WARMUP_SEED).make_input(0)

    def run(self, inp: OpInput):
        raise NotImplementedError

    def check(self, inp: OpInput, out) -> list:
        """Failure reasons as (reason, wrong); wrong marks a false certificate."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# sweep-paper: the criterion-7 sample-complexity sweep, 12 cells per op
# --------------------------------------------------------------------------

TS = 0.02


def paper_system() -> MultNoiseSystem:
    return MultNoiseSystem(
        A0=np.array([[1.0, TS], [0.0, 1.0 - 0.4 * TS]]),
        A=(np.array([[0.0, 0.0], [0.0, -TS]]), np.zeros((2, 2))),
        B0=np.array([[0.0], [TS]]),
        B=(np.zeros((2, 1)), np.array([[0.0], [TS]])),
    )


class SweepPaper(Workload):
    name = "sweep-paper"
    trace_ops = 6

    def make_input(self, index: int) -> OpInput:
        cfg = ExperimentConfig(
            system=paper_system(),
            true_moments=DisturbanceMoments(mu=np.zeros(2), sigma=SymMatrix(np.eye(2))),
            cost=CostWeights(Q=np.diag([10.0, 1.0]), R=np.array([[0.01]])),
            beta=BETA, sample_sizes=SAMPLE_SIZES, x0=np.array([2.0, 2.0]),
            realizations=4, seed=self.seed + index, methods=("covariance", "full"))
        return OpInput(index, "op", cfg)

    def run(self, inp: OpInput):
        return _call(drlqr.run_sample_complexity, inp.data, jobs=1)

    def check(self, inp: OpInput, out) -> list:
        if isinstance(out, Exception):
            return [(f"sweep raised {type(out).__name__}", False)]
        cfg = inp.data
        expected = len(cfg.sample_sizes) * cfg.realizations * len(cfg.methods)
        if len(out) != expected:
            return [(f"sweep returned {len(out)} records, expected {expected}", True)]
        reasons = []
        for rec in out:
            if not rec.stabilizing:
                reasons.append((f"{rec.method}: gain not stabilizing", False))
            elif not np.isfinite(rec.J):
                reasons.append((f"{rec.method}: stabilizing gain with infinite J", True))
        return reasons


# --------------------------------------------------------------------------
# synth-n5: design requests on random 5-state plants in mixed units
# --------------------------------------------------------------------------

N5_X, N5_U, N5_W = 5, 2, 2
INFEASIBLE_EVERY = 5  # op index % 5 == 2 carries the uncontrollable mode
UNCONTROLLABLE_POLE = 0.9
SECOND_MOMENT_FACTOR = 1.1


def _unstable_noise_gain(amb) -> float:
    """Noise gain c with (a + c mu_1)^2 + rho_sigma c^2 Sigma_11 = 1.1 at the centre."""
    a = UNCONTROLLABLE_POLE
    mu = float(amb.mu_hat[0])
    s = float(np.asarray(amb.sigma_hat)[0, 0])
    qa = mu * mu + amb.rho_sigma * s
    qb = 2.0 * a * mu
    qc = a * a - SECOND_MOMENT_FACTOR
    return (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)


def n5_instance(rng, infeasible: bool):
    """Random plant, ambiguity set, cost and x0, with state/input units mixed.

    An infeasible instance gets a decoupled, uncontrollable first state whose
    noise gain makes it mean-square unstable at the centre of the realized
    ambiguity set, so no gain is robustly stabilizing.
    """
    n, m = N5_X, N5_U
    A0 = rng.standard_normal((n, n)) / np.sqrt(n)
    A0 *= rng.uniform(0.8, 1.05) / np.max(np.abs(np.linalg.eigvals(A0)))
    B0 = rng.standard_normal((n, m))
    A = [0.05 * rng.standard_normal((n, n)) for _ in range(N5_W)]
    B = [0.05 * rng.standard_normal((n, m)) for _ in range(N5_W)]
    amb = drlqr.build_ambiguity(_standard_samples(rng, N5_W), AmbiguityConfig(beta=BETA),
                          lambda_reg=LAMBDA_REG)
    if infeasible:
        A0[0, :] = 0.0
        A0[:, 0] = 0.0
        A0[0, 0] = UNCONTROLLABLE_POLE
        B0[0, :] = 0.0
        for Ai, Bi in zip(A, B):
            Ai[0, :] = 0.0
            Ai[:, 0] = 0.0
            Bi[0, :] = 0.0
        A[0][0, 0] = _unstable_noise_gain(amb)
    # x' = D x, u' = E u: the same problem in badly scaled coordinates
    D = 10.0 ** rng.uniform(-1.0, 1.0, n)
    E = 10.0 ** rng.uniform(-1.0, 1.0, m)
    state = lambda X: D[:, None] * X / D[None, :]
    inp = lambda X: D[:, None] * X / E[None, :]
    sys = MultNoiseSystem(A0=state(A0), A=tuple(state(a) for a in A),
                          B0=inp(B0), B=tuple(inp(b) for b in B))
    cost = CostWeights(Q=np.diag(1.0 / D**2), R=np.diag(1.0 / E**2))
    return sys, amb, cost, np.ones(n)


class SynthN5(Workload):
    name = "synth-n5"
    tag = 2
    mix = {"feasible": 0.8, "infeasible": 0.2}
    trace_ops = 5

    def make_input(self, index: int) -> OpInput:
        infeasible = index % INFEASIBLE_EVERY == 2
        data = n5_instance(_stream(self.seed, self.tag, index), infeasible)
        return OpInput(index, "infeasible" if infeasible else "feasible", data)

    def run(self, inp: OpInput):
        sys, amb, cost, x0 = inp.data
        return _call(drlqr.synth_full, sys, amb, cost), _call(drlqr.synth_rhc, sys, amb, cost, x0)

    def check(self, inp: OpInput, out) -> list:
        sys, amb, cost, x0 = inp.data
        reasons = []
        for method, res in zip(("synth_full", "synth_rhc"), out):
            if inp.kind == "infeasible":
                if isinstance(res, DrSynthesisError):
                    continue
                if isinstance(res, Exception):
                    reasons.append((f"{method}: {type(res).__name__} on an infeasible "
                                    "instance, expected DrSynthesisError", False))
                else:
                    reasons.append((f"{method}: returned a gain on an infeasible instance",
                                    True))
                continue
            if isinstance(res, Exception):
                reasons.append((f"{method}: {type(res).__name__} on a feasible-class "
                                "instance", False))
                continue
            stable, P_cl = _mss_value(sys, res.controller.K, _centre(amb), cost)
            if not stable:
                reasons.append((f"{method}: gain not MSS at the set centre", True))
            elif method == "synth_full" and np.trace(P_cl) > res.cost_bound * (1 + CERT_RTOL):
                reasons.append(("synth_full: tr(P_cl) above cost_bound at the set centre", True))
            elif method == "synth_rhc" and x0 @ P_cl @ x0 > res.cost_bound * (1 + CERT_RTOL):
                reasons.append(("synth_rhc: x0' P_cl x0 above gamma at the set centre", True))
        return reasons


# --------------------------------------------------------------------------
# riccati-chain: value iteration on lightly damped mass-spring chains
# --------------------------------------------------------------------------

CHAIN_MASSES = 4
CHAIN_NOISE = 0.3  # relative noise on damping and on actuator gain


def chain_system(rng):
    """Euler-discretized chain wall-m1-...-m4, actuators on the end masses.

    Channel 1 perturbs the damping, channel 2 the actuator gain.
    """
    nm = CHAIN_MASSES
    mass = rng.uniform(0.8, 1.25, nm)
    spring = rng.uniform(0.8, 1.25, nm)
    damping = rng.uniform(0.1, 0.2, nm)
    Kmat, Cmat = np.zeros((nm, nm)), np.zeros((nm, nm))
    for mat, vals in ((Kmat, spring), (Cmat, damping)):
        for i, v in enumerate(vals):  # element i joins mass i-1 (or the wall) and mass i
            mat[i, i] += v
            if i > 0:
                mat[i - 1, i - 1] += v
                mat[i - 1, i] -= v
                mat[i, i - 1] -= v
    Minv = np.diag(1.0 / mass)
    n = 2 * nm
    Ac = np.zeros((n, n))
    Ac[:nm, nm:] = np.eye(nm)
    Ac[nm:, :nm] = -Minv @ Kmat
    Ac[nm:, nm:] = -Minv @ Cmat
    Bc = np.zeros((n, 2))
    Bc[nm:, :] = Minv[:, [0, nm - 1]]
    A0 = np.eye(n) + TS * Ac
    B0 = TS * Bc
    A1 = np.zeros((n, n))
    A1[nm:, nm:] = -TS * CHAIN_NOISE * (Minv @ Cmat)
    return MultNoiseSystem(A0=A0, A=(A1, np.zeros((n, n))), B0=B0,
                           B=(np.zeros((n, 2)), CHAIN_NOISE * B0))


class RiccatiChain(Workload):
    name = "riccati-chain"
    tag = 3
    trace_ops = 20
    true = DisturbanceMoments(mu=np.zeros(2), sigma=SymMatrix(np.eye(2)))
    cost = CostWeights(Q=np.eye(2 * CHAIN_MASSES), R=np.eye(2))

    def make_input(self, index: int) -> OpInput:
        rng = _stream(self.seed, self.tag, index)
        return OpInput(index, "op", (chain_system(rng), _standard_samples(rng, 2)))

    def run(self, inp: OpInput):
        return _call(self._op, *inp.data)

    def _op(self, sys, samples):
        amb = drlqr.build_ambiguity(samples, AmbiguityConfig(beta=BETA), lambda_reg=LAMBDA_REG)
        robust = drlqr.dr_covariance(sys, amb.mu_hat, amb, self.cost)
        empirical = DisturbanceMoments(mu=amb.mu_hat, sigma=amb.sigma_hat)
        nominal = drlqr.value_iteration(sys, empirical, self.cost)
        scores = []
        for K in (robust.K, nominal.K):
            cl = ClosedLoop(sys=sys, K=K)
            stable, _ = drlqr.is_mss(cl, self.true)
            x0 = np.ones(sys.n_x)
            scores.append((stable, drlqr.closed_loop_cost(cl, self.true, self.cost, x0)
                           if stable else None))
        return amb, robust, scores

    def check(self, inp: OpInput, out) -> list:
        if isinstance(out, Exception):
            return [(f"{type(out).__name__} raised", False)]
        sys, _ = inp.data
        amb, robust, scores = out
        reasons = [("stabilizing gain with non-finite J", True)
                   for stable, J in scores if stable and not np.isfinite(J)]
        stable, P_cl = _mss_value(sys, robust.K, _centre(amb), self.cost)
        if not stable:
            return reasons + [("dr_covariance: gain not MSS at the inflated moments", True)]
        P = np.asarray(robust.P)
        if np.linalg.norm(P - P_cl) > CERT_RTOL * np.linalg.norm(P_cl):
            reasons.append(("dr_covariance: P differs from the closed-loop value matrix", True))
        return reasons


WORKLOADS = {w.name: w for w in (SweepPaper, SynthN5, RiccatiChain)}
