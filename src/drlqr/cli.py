"""Command-line front end.

Subcommands: bounds (ambiguity radii), synth (controller synthesis from a
system file and a sample CSV), mss (stability verdict for a stored gain),
experiment (sample-complexity sweep to CSV), example1 (scalar motivating
example failure rates).

Exit codes: 0 success, 2 parse/validation error, 3 infeasible synthesis,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys as _sys

import numpy as np

from . import drsynth, experiment, riccati
from .ambiguity import (DEFAULT_EPS, AmbiguityConfig, _concentration, ambiguity_radii,
                        build_ambiguity, empirical_moments, load_samples_csv, min_sample_size)
from .matcore import NumericalFailure
from .stability import ClosedLoop, is_mss
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    """Validation problem in arguments or input files."""


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise CliError(f"cannot parse vector {text!r}: {exc}") from exc


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _ambiguity_config(args) -> AmbiguityConfig:
    return AmbiguityConfig(beta=args.beta, eps=args.eps, sigma2=args.sigma2)


def _cmd_bounds(args) -> int:
    cfg = _ambiguity_config(args)
    M_min = min_sample_size(cfg, args.dim)
    tm, ts = _concentration(cfg, args.dim, args.m)
    out = {
        "t_sigma": ts,
        "t_mu": tm,
        "rho_mu": None,
        "rho_sigma": None,
        "M_min": M_min,
    }
    if args.m >= M_min:
        rho_mu, rho_sigma = ambiguity_radii(cfg, args.dim, args.m)
        out["rho_mu"] = rho_mu
        out["rho_sigma"] = rho_sigma
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _parse_matrix_arg(text: str):
    """Accept a JSON literal like "[[10,0],[0,1]]" or a path to a JSON file."""
    if os.path.exists(text):
        return _load_json(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse matrix {text!r}: {exc}") from exc


def _cmd_synth(args) -> int:
    raw = _load_json(args.system)
    system = MultNoiseSystem.from_json_dict(raw)
    samples = load_samples_csv(args.samples, n_w=system.n_w)
    q_spec = args.Q if args.Q is not None else raw.get("Q")
    r_spec = args.R if args.R is not None else raw.get("R")
    if q_spec is None or r_spec is None:
        raise CliError("cost weights missing: pass --Q/--R or put Q/R in the system JSON")
    Q = _parse_matrix_arg(q_spec) if isinstance(q_spec, str) else q_spec
    R = _parse_matrix_arg(r_spec) if isinstance(r_spec, str) else r_spec
    cost = CostWeights(Q=Q, R=R)
    cfg = _ambiguity_config(args)

    extra = {}
    if args.method == "nominal":
        mu_hat, sigma_hat = empirical_moments(samples)
        m = DisturbanceMoments(mu=mu_hat, sigma=sigma_hat)
        ctrl = riccati.value_iteration(system, m, cost)
    else:
        amb = build_ambiguity(samples, cfg, lambda_reg=args.reg)
        extra = {"rho_mu": amb.rho_mu, "rho_sigma": amb.rho_sigma}
        if args.method == "covariance":
            ctrl = riccati.dr_covariance(system, amb.mu_hat, amb, cost)
        elif args.method == "full":
            ctrl = drsynth.synth_full(system, amb, cost).controller
        else:  # rhc
            if args.x0 is None:
                raise CliError("--x0 is required for method rhc")
            x0 = _parse_vector(args.x0)
            ctrl = drsynth.synth_rhc(system, amb, cost, x0).controller
    payload = ctrl.to_json_dict()
    payload.update(extra)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_mss(args) -> int:
    system = MultNoiseSystem.from_json_dict(_load_json(args.system))
    gain = _load_json(args.gain)
    try:  # ClosedLoop checks the gain's entries, shape and finiteness
        K = gain["K"]
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed controller file: {exc!r}") from exc
    mu = _parse_vector(args.mu) if args.mu else np.zeros(system.n_w)
    sigma = _load_json(args.cov) if args.cov else np.eye(system.n_w)
    stable, radius = is_mss(ClosedLoop(sys=system, K=K), DisturbanceMoments(mu=mu, sigma=sigma))
    print(json.dumps({"stable": bool(stable), "spectral_radius": radius}, indent=2))
    return EXIT_OK


def _experiment_config_from_json(path) -> experiment.ExperimentConfig:
    raw = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    try:
        sys_spec = raw["system"]
        if isinstance(sys_spec, str):  # a path, relative to the config file unless absolute
            sys_spec = _load_json(os.path.join(base, sys_spec))
        system = MultNoiseSystem.from_json_dict(sys_spec)
        return experiment.ExperimentConfig(
            system=system,
            true_moments=DisturbanceMoments(mu=raw["mu"], sigma=raw["sigma"]),
            cost=CostWeights(Q=raw["Q"], R=raw["R"]),
            beta=raw["beta"],
            sample_sizes=tuple(raw["sample_sizes"]),
            x0=raw["x0"],
            **{key: raw[key] for key in ("eps", "sigma2", "realizations", "seed", "methods")
               if key in raw},
        )
    except KeyError as exc:
        raise CliError(f"experiment config missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid experiment config: {exc}") from exc


def _cmd_experiment(args) -> int:
    cfg = _experiment_config_from_json(args.config)
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise CliError(f"cannot write {args.out}: its directory does not exist")
    if os.path.isdir(args.out):
        raise CliError(f"cannot write {args.out}: it is a directory")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    records = experiment.run_sample_complexity(cfg, jobs=args.jobs)
    experiment.write_records_csv(records, args.out)
    failing = sum(1 for r in records if not r.stabilizing)
    print(json.dumps({"records": len(records), "non_stabilizing": failing,
                      "out": args.out}, indent=2))
    return EXIT_OK


def _cmd_example1(args) -> int:
    res = experiment.replicate_example1(M=args.m, trials=args.trials, seed=args.seed)
    print(json.dumps({"M": res.M, "trials": res.trials,
                      "analytic": res.analytic, "monte_carlo": res.monte_carlo},
                     indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="drlqr",
                                description="Distributionally robust LQR for systems with multiplicative noise")
    sub = p.add_subparsers(dest="command", required=True)
    amb = argparse.ArgumentParser(add_help=False)
    amb.add_argument("--beta", type=float, required=True)
    amb.add_argument("--eps", type=float, default=DEFAULT_EPS)
    amb.add_argument("--sigma2", type=float, default=1.0)

    b = sub.add_parser("bounds", parents=[amb], help="concentration bounds and ambiguity radii")
    b.add_argument("--dim", type=int, required=True, help="disturbance dimension n_w")
    b.add_argument("--m", type=int, required=True, help="number of samples M")
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("synth", parents=[amb], help="synthesize a controller from samples")
    s.add_argument("--system", required=True, help="system JSON file")
    s.add_argument("--samples", required=True, help="sample CSV, one draw per row")
    s.add_argument("--method", choices=("nominal", "covariance", "full", "rhc"), required=True)
    s.add_argument("--x0", help="initial state for rhc, e.g. \"2,2\"")
    s.add_argument("--reg", type=float, default=0.0, help="covariance regularization lambda")
    s.add_argument("--Q", help="state cost matrix, JSON literal or file (default: Q field of system JSON)")
    s.add_argument("--R", help="input cost matrix, JSON literal or file (default: R field of system JSON)")
    s.set_defaults(func=_cmd_synth)

    m = sub.add_parser("mss", help="mean-square stability of a stored gain")
    m.add_argument("--system", required=True)
    m.add_argument("--gain", required=True, help="controller JSON with a K field")
    m.add_argument("--mu", help="disturbance mean, e.g. \"0,0\" (default zeros)")
    m.add_argument("--cov", help="covariance JSON file (default identity)")
    m.set_defaults(func=_cmd_mss)

    e = sub.add_parser("experiment", help="sample-complexity sweep")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=int, default=None, help="override config seed")
    e.add_argument("--jobs", type=int, default=1)
    e.set_defaults(func=_cmd_experiment)

    x = sub.add_parser("example1", help="scalar motivating example failure rate")
    x.add_argument("--m", type=int, default=500)
    x.add_argument("--trials", type=int, default=100_000)
    x.add_argument("--seed", type=int, default=0)
    x.set_defaults(func=_cmd_example1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except (drsynth.DrSynthesisError, riccati.NotStabilizableError) as exc:
        print(f"infeasible: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
