"""Command-line entry point.

Subcommands:

  run-simplex        simplex least-squares comparison; one CSV per variant
                     plus summary.csv
  run-lasso          one-step LASSO demonstration
  certify            constant-step certificate check on a seeded instance
  verify-identities  randomized identity and prox-optimality suites

Exit codes: 0 success, 1 assertion/certificate failure, 2 usage error,
3 I/O error.  All randomness flows from --seed; with default flags the CSV
output is byte-stable across reruns (the elapsed_ms column is written as 0
unless --timing is given, since wall-clock values would break that).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .errors import BregProxError
from .experiments import (
    VARIANTS,
    ExperimentSpec,
    build_lasso_onestep,
    run_experiment,
)
from .identities import run_identity_suites
from .prox import make_prox_map
from .rates import bpga_bound, classical_pga_bound
from .bregman import squared_euclidean
from .solvers import SolverConfig, run_solver

CSV_HEADER = ("iter,objective,gap,eta,backtracks,d_hk,"
              "bound_classical,bound_gppa,elapsed_ms")
REF_ITERS_HELP = ("cap on the projected-gradient steps of the reference "
                  "optimum, which stops once its Frank-Wolfe gap certifies it")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_variant_csv(path: Path, trace, f_star: float, cert, gamma: float,
                       x_star, x0, timing: bool) -> None:
    # the classical bound ||x* - x0||^2 / (2 gamma k) in the expression, and
    # so the bits, of rates.classical_pga_bound
    diff = np.asarray(x_star, dtype=float) - np.asarray(x0, dtype=float)
    dd, two_gamma = float(np.dot(diff, diff)), 2.0 * gamma
    lines = [CSV_HEADER]
    for rec in trace.records:
        if rec.k >= 1:
            b_classical = dd / (two_gamma * rec.k)
            b_gppa = cert.bound_at(rec.k)
        else:
            b_classical = b_gppa = np.inf
        ms = rec.elapsed_ms if timing else 0.0
        lines.append(
            f"{rec.k},{rec.objective:.17g},{rec.objective - f_star:.17g},"
            f"{rec.eta_used:.17g},{rec.backtracks},{rec.d_hk_value:.17g},"
            f"{b_classical:.17g},{b_gppa:.17g},{ms:.17g}")
    path.write_text("\n".join(lines) + "\n", newline="\n")


def cmd_run_simplex(args) -> int:
    variants = tuple(args.variants.split(","))
    spec = ExperimentSpec(
        name="simplex_ls",
        m=args.rows,
        n=args.cols,
        seed=args.seed,
        eta0=args.eta0,
        alpha=args.alpha,
        max_iters=args.max_iters,
        ref_iters=args.ref_iters,
        variants=variants,
    )
    result = run_experiment(spec)
    x_star, f_star = result.reference_optimum

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for variant, trace in result.traces.items():
            check = result.certificates[variant]
            _write_variant_csv(
                out / f"{variant}.csv", trace, f_star, check.certificate,
                result.gamma, x_star, result.x0, args.timing)
        summary = ["variant,iters_to_tol,reached,tolerance,final_gap,"
                   "cert_kind,cert_margin,hypothesis_satisfied"]
        for variant in variants:
            if variant in result.failures and variant not in result.traces:
                summary.append(f"{variant},,false,,,,,")
                continue
            trace = result.traces[variant]
            check = result.certificates[variant]
            k_tol = result.iters_to_tol[variant]
            summary.append(",".join([
                variant,
                "" if k_tol is None else str(k_tol),
                "true" if k_tol is not None else "false",
                _fmt(result.tolerance),
                _fmt(trace.final().objective - f_star),
                check.certificate.kind,
                _fmt(check.margin),
                "true" if check.hypothesis_satisfied else "false",
            ]))
        (out / "summary.csv").write_text("\n".join(summary) + "\n",
                                         newline="\n")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3

    status = 0
    for variant, check in result.certificates.items():
        ok = check.margin >= -1e-9 or not check.hypothesis_satisfied
        print(f"{variant}: iters_to_tol="
              f"{result.iters_to_tol[variant]} cert_margin="
              f"{check.margin:.3e} [{'ok' if ok else 'FAIL'}]")
        if not ok:
            status = 1
    for variant, msg in result.failures.items():
        print(f"{variant}: solver failure: {msg}", file=sys.stderr)
        status = 1
    return status


def cmd_run_lasso(args) -> int:
    rng = np.random.Generator(np.random.Philox(args.seed))
    b = rng.standard_normal(args.dim)
    p = build_lasso_onestep(args.gamma, b)
    x_star, f_star = p.optimum_oracle
    eta = args.gamma * args.eta_ratio
    x0 = rng.standard_normal(args.dim)
    pm = make_prox_map("l1", "quadratic")
    H = squared_euclidean(args.dim)
    trace = run_solver(p, H, pm, x0, SolverConfig(eta0=eta, max_iters=1))
    gap = trace.final().objective - f_star
    bound = bpga_bound(H, p.f, eta, x_star, x0, 1)
    print(f"F(x_1) - F* = {gap:.17g}")
    print(f"GPPA-PGA bound at k=1: {bound:.17g}")
    print(f"classical PGA bound at k=1: "
          f"{classical_pga_bound(eta, x_star, x0, 1):.17g}")
    if args.eta_ratio >= 1.0:
        return 0 if gap <= 1e-10 else 1
    return 0 if gap <= bound + 1e-9 else 1


def cmd_certify(args) -> int:
    spec = ExperimentSpec(
        name="certify",
        m=args.rows,
        n=args.cols,
        seed=args.seed,
        max_iters=args.iters,
        ref_iters=args.ref_iters,
        variants=("pga-constant", "mirror-constant"),
    )
    result = run_experiment(spec)
    status = 0
    for variant, check in result.certificates.items():
        ok = check.margin >= -1e-9
        print(f"{variant}: margin={check.margin:.3e} "
              f"[{'ok' if ok else 'FAIL'}]")
        if not ok and check.hypothesis_satisfied:
            status = 1
    return status


def cmd_verify_identities(args) -> int:
    results = run_identity_suites(
        samples=args.samples, seed=args.seed, inject_fault=args.inject_fault)
    status = 0
    for r in results:
        print(f"{r.name:<35s} worst={r.worst:.3e} "
              f"threshold={r.threshold:.0e} "
              f"[{'pass' if r.passed else 'FAIL'}]")
        if not r.passed:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregprox",
        description="Proximal gradient / mirror descent experiments with "
                    "per-iteration rate certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("run-simplex",
                        help="simplex least-squares comparison")
    ps.add_argument("--rows", type=int, default=50)
    ps.add_argument("--cols", type=int, default=100)
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument("--eta0", type=float, default=100.0)
    ps.add_argument("--alpha", type=float, default=0.5)
    ps.add_argument("--max-iters", type=int, default=5000)
    ps.add_argument("--ref-iters", type=int, default=100_000,
                    help=REF_ITERS_HELP)
    ps.add_argument("--variants", default=",".join(VARIANTS),
                    help="comma-separated subset of: " + ", ".join(VARIANTS))
    ps.add_argument("--out", default="simplex_out",
                    help="output directory for CSV files")
    ps.add_argument("--timing", action="store_true",
                    help="write measured wall time into elapsed_ms "
                         "(breaks byte-stable reruns)")
    ps.set_defaults(func=cmd_run_simplex)

    pl = sub.add_parser("run-lasso", help="one-step LASSO demonstration")
    pl.add_argument("--gamma", type=float, default=1.0)
    pl.add_argument("--dim", type=int, default=50)
    pl.add_argument("--seed", type=int, default=7)
    pl.add_argument("--eta-ratio", type=float, default=1.0,
                    help="step size as a fraction of gamma")
    pl.set_defaults(func=cmd_run_lasso)

    pc = sub.add_parser("certify",
                        help="constant-step certificate check")
    pc.add_argument("--rows", type=int, default=20)
    pc.add_argument("--cols", type=int, default=40)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--iters", type=int, default=500)
    pc.add_argument("--ref-iters", type=int, default=100_000,
                    help=REF_ITERS_HELP)
    pc.set_defaults(func=cmd_certify)

    pv = sub.add_parser("verify-identities",
                        help="randomized identity suites")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=10_000)
    pv.add_argument("--inject-fault", action="store_true",
                    help="negative control: run with a deliberately wrong "
                         "gradient oracle")
    pv.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except BregProxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
