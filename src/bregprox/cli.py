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

from .errors import BregProxError, ContractViolation
from .experiments import (
    MAX_ENTRIES,
    VARIANTS,
    ExperimentSpec,
    build_lasso_onestep,
    run_experiment,
)
from .functions import EPS, check_step
from .identities import run_identity_suites
from .prox import make_prox_map
from .rates import certify_trace
from .bregman import squared_euclidean
from .solvers import SolverConfig, run_solver

CSV_HEADER = ("iter,objective,gap,eta,backtracks,d_hk,"
              "bound_classical,bound_gppa,elapsed_ms")
# eta comes formatted: a run holds one value of it under a constant step and
# a few under line search, and %.17g costs about 0.5 us a float
CSV_ROW = "%d,%.17g,%.17g,%s,%d,%.17g,%.17g,%.17g,%.17g\n"
CSV_CHUNK_ROWS = 1024
SUMMARY_HEADER = ("variant,iters_to_tol,reached,tolerance,final_gap,"
                  "cert_kind,cert_margin,hypothesis_satisfied\n")
SUMMARY_ROW = "%s,%s,%s,%s,%s,%s,%s,%s\n"


def _write_variant_csv(path: Path, trace, f_star: float, cert,
                       timing: bool) -> None:
    k = np.arange(len(trace.objective))
    etas, at = np.unique(trace.eta, return_inverse=True)
    columns = (
        k, trace.objective, trace.objective - f_star,
        np.array(["%.17g" % eta for eta in etas.tolist()], dtype=object)[at],
        trace.backtracks, trace.d_hk,
        np.concatenate(([np.inf], cert.classical / cert.weight_sums)),
        np.concatenate(([np.inf], cert.constant / cert.weight_sums)),
        trace.elapsed_ms if timing else np.zeros(k.size))
    with path.open("w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        # a chunk of rows at a time, which bounds the text held in memory
        for lo in range(0, k.size, CSV_CHUNK_ROWS):
            fh.write("".join(map(CSV_ROW.__mod__, zip(
                *(c[lo:lo + CSV_CHUNK_ROWS].tolist() for c in columns)))))


# A margin min_k c / S_k - (F_k - F*) is nonnegative but for rounding: the
# argument of the rates module bounds F_k - F(x) by c(x) / S_k at every
# feasible x, the reference x* among them, so the reference's certified
# gap does not enter.  What remains is the rounding of F_k, F* and c / S_k,
# a few eps of each relative, and |F_0|, |F*| and |c| bound all three
# along a run whose hypothesis held (F decreases, S_k >= 1).  The slack is
# 1e-9 of that scale, the absolute slack the verdict kept at the CLI's
# unit-norm data made relative: a power-of-two rescaling keeps every
# verdict, and it lies far below the smallest default margin (1.0e-3).
CERTIFIED_RTOL = 1e-9


def _certified(cert, trace, f_star: float) -> bool:
    """The verdict on the certificate of a run's trace: it fails only when
    the trace's hypothesis held and the bound did not, since a bound whose
    hypothesis fails claims nothing."""
    scale = max(abs(trace.objective[0]), abs(f_star), abs(cert.constant))
    return cert.margin >= -CERTIFIED_RTOL * scale \
        or not trace.hypothesis_held


def _report(result, line: str) -> int:
    """Print ``line`` with each certificate's variant, iterations to
    tolerance k, margin and verdict, then each solver failure; 1 if any.
    A certificate over no accepted step says so instead of ok."""
    status, f_star = 0, result.reference_optimum[1]
    for variant, cert in result.certificates.items():
        ok = _certified(cert, result.traces[variant], f_star)
        verdict = ("ok" if ok else "FAIL") if cert.weight_sums.size \
            else "covers no step"
        print(line.format(variant=variant,
                          k=result.traces[variant].iters_to_tol,
                          margin=cert.margin, verdict=verdict))
        status |= not ok
    for variant, msg in result.failures.items():
        print(f"{variant}: solver failure: {msg}", file=sys.stderr)
        status = 1
    return status


def _spec(args, name: str, **fields) -> ExperimentSpec:
    """The experiment of --rows, --cols, --seed and --max-iters (certify's
    --iters), with a subcommand's own ``fields``."""
    return ExperimentSpec(name=name, m=args.rows, n=args.cols, seed=args.seed,
                          max_iters=args.max_iters, **fields)


def cmd_run_simplex(args) -> int:
    variants = tuple(args.variants.split(","))
    result = run_experiment(_spec(args, "simplex_ls", eta0=args.eta0,
                                  alpha=args.alpha, variants=variants))
    f_star = result.reference_optimum[1]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for variant, trace in result.traces.items():
        _write_variant_csv(out / f"{variant}.csv", trace, f_star,
                           result.certificates[variant], args.timing)
    summary = SUMMARY_HEADER
    for variant in variants:
        fields = ("", "false", "", "", "", "", "")  # failed, no trace
        trace = result.traces.get(variant)
        if trace is not None:
            k = trace.iters_to_tol
            gap = trace.objective[-1] - f_star
            fields = ("" if k is None else k, str(k is not None).lower(),
                      f"{result.tolerance:.17g}", f"{gap:.17g}", "gppa",
                      f"{result.certificates[variant].margin:.17g}",
                      str(trace.hypothesis_held).lower())
        summary += SUMMARY_ROW % (variant, *fields)
    (out / "summary.csv").write_text(summary, newline="\n")
    return _report(
        result, "{variant}: iters_to_tol={k} cert_margin={margin:.3e} "
                "[{verdict}]")


def cmd_run_lasso(args) -> int:
    if args.dim < 1:
        # before any draw: numpy rejects a negative size with a ValueError
        raise ContractViolation("dimension must be positive")
    if args.dim > MAX_ENTRIES:
        raise ContractViolation(f"dimension {args.dim} is more entries "
                                "than numpy can address")
    rng = np.random.Generator(np.random.Philox(args.seed))
    b, x0 = rng.standard_normal(args.dim), rng.standard_normal(args.dim)
    H = squared_euclidean(args.dim)
    # a tiny gamma or step overflows f(x0) = ||x0 - b||^2 / (2 gamma), F*,
    # D_f or D_H / eta: every printed value is computed first, so such a
    # run prints one error line that names the flags, and no number
    try:
        with np.errstate(over="raise", invalid="raise"):
            p = build_lasso_onestep(args.gamma, b)
            x_star, f_star = p.optimum_oracle
            eta = args.gamma * args.eta_ratio
            check_step(args.eta_ratio, "--eta-ratio")
            check_step(eta, "the step gamma * eta-ratio")
            trace = run_solver(p, H, make_prox_map(p.g.kind, H.kind), x0,
                               SolverConfig(eta0=eta, max_iters=1))
            gap = trace.objective[-1] - f_star
            cert = certify_trace(p, H, trace)
            bound = cert.bound_at(1) if trace.hypothesis_held else None
    except FloatingPointError:
        raise ContractViolation(
            f"--gamma {args.gamma!r} with --eta-ratio {args.eta_ratio!r} "
            "overflows the one-step run") from None
    print(f"F(x_1) - F* = {gap:.17g}")
    if trace.hypothesis_held:
        print(f"GPPA-PGA bound at k=1: {bound:.17g}")
    else:
        print("GPPA-PGA bound at k=1: none, its hypothesis D_h1 >= 0 fails")
    print(f"classical PGA bound at k=1: {cert.classical:.17g}")
    if args.eta_ratio >= 1.0:
        # the claim is x_1 = x*, up to one step's rounding: at most
        # 4.5 eps max(|b|, |x0|) per entry, which the gap scales by 1/gamma
        scale = max(np.max(np.abs(b)), np.max(np.abs(x0)))
        error = np.max(np.abs(trace.x - x_star))
        return 0 if error <= 8 * EPS * scale else 1
    return 0 if _certified(cert, trace, f_star) else 1


def cmd_certify(args) -> int:
    spec = _spec(args, "certify", variants=("pga-constant", "mirror-constant"))
    return _report(run_experiment(spec),
                   "{variant}: margin={margin:.3e} [{verdict}]")


def cmd_verify_identities(args) -> int:
    results = run_identity_suites(
        samples=args.samples, seed=args.seed, inject_fault=args.inject_fault)
    status = 0
    for r in results:
        print(f"{r.name:<35s} worst={r.worst:.3e} "
              f"threshold={r.threshold:.0e} "
              f"[{'pass' if r.passed else 'FAIL'}]")
        status |= not r.passed
    return status


def _seed(text: str) -> int:
    """A --seed value: the Philox generators take nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {seed}")
    return seed


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
    ps.add_argument("--seed", type=_seed, default=42)
    ps.add_argument("--eta0", type=float, default=ExperimentSpec.eta0)
    ps.add_argument("--alpha", type=float, default=ExperimentSpec.alpha)
    ps.add_argument("--max-iters", type=int, default=ExperimentSpec.max_iters)
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
    pl.add_argument("--seed", type=_seed, default=7)
    pl.add_argument("--eta-ratio", type=float, default=1.0,
                    help="step size as a fraction of gamma")
    pl.set_defaults(func=cmd_run_lasso)

    pc = sub.add_parser("certify",
                        help="constant-step certificate check")
    pc.add_argument("--rows", type=int, default=20)
    pc.add_argument("--cols", type=int, default=40)
    pc.add_argument("--seed", type=_seed, default=0)
    pc.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int,
                    default=500)
    pc.set_defaults(func=cmd_certify)

    pv = sub.add_parser("verify-identities",
                        help="randomized identity suites")
    pv.add_argument("--seed", type=_seed, default=0)
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
    except (BregProxError, MemoryError) as exc:
        # a size numpy cannot allocate is an input error, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 1

