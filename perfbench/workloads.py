"""The three workloads: their inputs, operations and output checks.

Every workload drives bregprox through public functions only, one call at
a time (closed loop).  An operation is one user-visible call: a CLI
invocation for ``desk-compare`` and ``identities``, one ``run_solver``
solve for ``paper-solve``.  Instance seeds come from the workload seed
through a Philox generator, so the same seed gives the same inputs.

A round is a fixed mix of operations, so the share of failed calls does
not depend on how many rounds fit in the run.  Each untraced round also
runs one negative control: a check on doctored expectations, or a call
with an injected fault, that must fail.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from gauge import simplex_projection

VARIANTS = ("pga-constant", "pga-linesearch", "mirror-constant",
            "mirror-linesearch")

# The CSV layouts the CLI documents; stored here so that a change shows as
# a failed check instead of being read back from the program.
CSV_HEADER = ("iter,objective,gap,eta,backtracks,d_hk,"
              "bound_classical,bound_gppa,elapsed_ms")
SUMMARY_HEADER = ("variant,iters_to_tol,reached,tolerance,final_gap,"
                  "cert_kind,cert_margin,hypothesis_satisfied")

MARGIN_SLACK = -1e-9  # the CLI's own certificate slack
# F* is checked to 1e-9 (1 + |F*|): a reference accurate enough for the
# experiment's 1e-6 (1 + |F*|) tolerance agrees with the stored one to that.
FSTAR_RTOL = 1e-9
# Final objectives are checked to the experiment's tolerance.
FINAL_RTOL = 1e-6
# the gauge matvec's time at the reference host speed: near its median time
# on a 2-vCPU 2.1 GHz Xeon VM, so scaled times read close to wall times
MATVEC_REFERENCE_S = 170e-6
SIMPLEX_SUM_TOL = 1e-9
SIMPLEX_MIN = -1e-12


@dataclasses.dataclass
class Op:
    key: str                 # which input: instance seed or variant
    start: float             # perf_counter when the call began
    seconds: float
    digest: str              # hash of everything the call produced
    problems: List[str]      # failed checks; empty when the call passed
    iters_to_tol: Dict[str, int] = dataclasses.field(default_factory=dict)


class Tally:
    """Operations attempted and failed, and reasons the run is not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, what: str, op: Op, known: Optional[str]) -> None:
        """Count one call.  ``known`` names a recorded defect that makes the
        call fail; that failure is counted but leaves the run correct."""
        self.attempted += 1
        if op.problems:
            self.failed += 1
            if not known:
                self.problems.append(f"{what}: {'; '.join(op.problems)}")

    def control(self, what: str, problems: List[str]) -> None:
        """Count one negative control, which must fail."""
        self.attempted += 1
        if problems:
            self.failed += 1
        else:
            self.problems.append(f"negative control not caught: {what}")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def call_cli(mods, argv: List[str]):
    """Run ``bregprox.cli.main`` in-process with its output captured.
    Returns (exit code, start, seconds, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods["cli"].main(argv)
    except Exception as exc:  # a crash is a failed call, not a dead benchmark
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, start, time.perf_counter() - start, out.getvalue()


class Workload:
    name = ""
    setup_reps = 9
    op_root = "cli.main"   # root span of one operation in a traced run

    def __init__(self, seed: int, expected: dict, outdir: Path):
        self.exp = expected[self.name]
        self.outdir = outdir
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.ops: Dict[str, List[Op]] = defaultdict(list)
        self.instances: List = []   # every input drawn, for the record
        self.bare_us: Dict[str, List[float]] = defaultdict(list)
        # digests of every output each input produced in this run
        self.repeats: Dict[str, set] = defaultdict(set)

    def prepare(self, mods) -> None:
        """Input generation that is timed as part of set-up."""

    def enter_phase(self, mods, level: str) -> None:
        """Runs with the phase's tracer installed, before its rounds."""

    def round_inputs(self):
        raise NotImplementedError

    def run_round(self, mods, inputs, level: str, tally: Tally,
                  controls: bool, baseline: bool) -> None:
        raise NotImplementedError

    def gauge_snippet(self):
        """(snippet, reference seconds) for the host-speed gauge once set-up
        has run, or None to keep the default (see gauge.py)."""
        return None

    def inner_units(self, mods) -> Optional[float]:
        """Inner iterations per operation when they are not solver
        iterations; None where ``iter_us_p50`` comes from the solver."""
        return None


# ---------------------------------------------------------------------------
# desk-compare


def check_desk(rc, files: Dict[str, bytes], exp: dict, max_iters: int,
               fstar: Optional[float] = None) -> List[str]:
    """Checks on one ``run-simplex`` call: exit code, CSV layout and row
    counts, certificate margins, F* and final objectives."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    summary = files.get("summary.csv")
    if summary is None:
        problems.append("no summary.csv")
        return problems
    fstar = exp["fstar"] if fstar is None else fstar
    scale = 1.0 + abs(fstar)
    rows = summary.decode().split("\n")
    if rows[-1] != "" or rows[0] != SUMMARY_HEADER:
        problems.append("summary.csv header or line ending")
    rows = [r.split(",") for r in rows[1:-1]]
    if [r[0] for r in rows] != list(VARIANTS) or \
            any(len(r) != 8 for r in rows):
        problems.append("summary.csv rows")
        return problems
    for variant, k_tol, reached, _tol, _gap, _kind, margin, hyp in rows:
        if hyp == "true" and (not margin or float(margin) < MARGIN_SLACK):
            problems.append(f"{variant}: certificate margin {margin!r}")
        csv = files.get(f"{variant}.csv")
        if csv is None:
            problems.append(f"{variant}: no CSV")
            continue
        lines = csv.decode().split("\n")
        if lines[-1] != "" or lines[0] != CSV_HEADER:
            problems.append(f"{variant}: CSV header or line ending")
        lines = lines[1:-1]
        k_final = int(k_tol) if reached == "true" else max_iters
        if [int(line.split(",", 1)[0]) for line in lines] != \
                list(range(k_final + 1)):
            problems.append(f"{variant}: {len(lines)} rows, expected "
                            f"iterations 0..{k_final}")
            continue
        last = lines[-1].split(",")
        objective, gap = float(last[1]), float(last[2])
        if abs(objective - gap - fstar) > FSTAR_RTOL * scale:
            problems.append(f"{variant}: F* {objective - gap!r} is not the "
                            f"stored {fstar!r}")
        expected_final = exp["final"].get(variant)
        if expected_final is not None and \
                abs(objective - expected_final) > FINAL_RTOL * scale:
            problems.append(f"{variant}: final objective {objective!r} is "
                            f"not the stored {expected_final!r}")
    return problems


def summary_iters_to_tol(files: Dict[str, bytes], max_iters: int):
    """Iterations to tolerance per variant from summary.csv; a variant that
    did not reach it reads max_iters + 1."""
    out = {}
    summary = files.get("summary.csv", b"").decode().split("\n")
    for row in summary[1:]:
        cols = row.split(",")
        # a variant that failed without a trace has an empty tolerance
        if len(cols) == 8 and cols[0] in VARIANTS and cols[3]:
            out[cols[0]] = int(cols[1]) if cols[2] == "true" else max_iters + 1
    return out


class DeskCompare(Workload):
    """``bregprox run-simplex`` at 50x100 with default flags."""

    name = "desk-compare"
    draws = 3   # pool instances per round, next to the fixed one

    def __init__(self, seed, expected, outdir):
        super().__init__(seed, expected, outdir)
        self.always = int(self.exp["always"])
        self.pool = sorted(int(s) for s in self.exp["instances"]
                           if int(s) != self.always)
        self.max_iters = int(self.exp["max_iters"])

    def round_inputs(self):
        seeds = [self.always] + [int(s) for s in self.rng.choice(
            self.pool, size=self.draws, replace=False)]
        self.rng.shuffle(seeds)
        self.instances.append(seeds)
        return seeds

    def run_round(self, mods, inputs, level, tally, controls, baseline):
        passed = None
        for seed in inputs:
            exp = self.exp["instances"][str(seed)]
            out = self.outdir / f"desk-seed{seed}"
            shutil.rmtree(out, ignore_errors=True)
            rc, start, seconds, _ = call_cli(
                mods, ["run-simplex", "--seed", str(seed), "--out", str(out)])
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} \
                if out.is_dir() else {}
            shutil.rmtree(out, ignore_errors=True)
            problems = check_desk(rc, files, exp, self.max_iters)
            csv_digest = _digest(*sorted(files.items()))
            op = Op(str(seed), start, seconds, _digest(rc, csv_digest),
                    problems, summary_iters_to_tol(files, self.max_iters))
            self.ops[level].append(op)
            self.repeats[str(seed)].add(csv_digest)
            tally.op(f"run-simplex --seed {seed}", op,
                     exp.get("known_failure"))
            if passed is None and not problems:
                passed = (rc, files, exp)
        if controls and passed is not None:
            rc, files, exp = passed
            fstar = exp["fstar"]
            perturbed = fstar + 100 * FSTAR_RTOL * (1 + abs(fstar))
            tally.control("run-simplex checked against a perturbed F*",
                          check_desk(rc, files, exp, self.max_iters,
                                     fstar=perturbed))


# ---------------------------------------------------------------------------
# paper-solve


def bare_loop(A, b, gamma, x0, iters, generator):
    """Constant-step PGA or mirror descent in plain numpy: one gradient, one
    prox step and one objective per iteration, reusing the residual for the
    objective.  Returns (seconds, final objective)."""
    x = x0.copy()
    start = time.perf_counter()
    r = A @ x - b
    for _ in range(iters):
        g = A.T @ r
        if generator == "pga":
            x = simplex_projection(x - gamma * g)
        else:
            expo = -gamma * g
            w = x * np.exp(expo - np.max(expo))
            x = w / np.sum(w)
        r = A @ x - b
        objective = 0.5 * float(r @ r)
    return time.perf_counter() - start, objective


def solve_variant(mods, problem, variant: str, budget: int, eta0: float,
                  alpha: float):
    """One ``run_solver`` call with the configuration ``run_experiment``
    builds, except for tolerance 0 and a fixed budget, so that every solve
    does the same number of steps.  Returns (trace or exception, start,
    seconds)."""
    bregman, prox, solvers = mods["bregman"], mods["prox"], mods["solvers"]
    n = problem.f.dimension
    generator, mode = variant.split("-")
    H = bregman.squared_euclidean(n) if generator == "pga" \
        else bregman.negative_entropy(n)
    line_search = mode == "linesearch"
    cfg = solvers.SolverConfig(
        eta0=eta0 if line_search else 1.0 / problem.f.lipschitz_grad,
        alpha=alpha, max_iters=budget, line_search_enabled=line_search,
        tolerance=0.0)
    x0 = np.full(n, 1.0 / n)
    pm = prox.make_prox_map("simplex", H.kind)
    start = time.perf_counter()
    try:
        trace = solvers.run_solver(problem, H, pm, x0, cfg)
    except Exception as exc:  # counted as a failed call by the caller
        trace = exc
    return trace, start, time.perf_counter() - start


class PaperSolve(Workload):
    """``run_solver`` on one 500x1000 simplex least-squares instance."""

    name = "paper-solve"
    op_root = "solvers.run_solver"
    setup_reps = 5

    def __init__(self, seed, expected, outdir):
        super().__init__(seed, expected, outdir)
        pool = sorted(int(s) for s in self.exp["instances"])
        self.instance = int(self.rng.choice(pool))
        self.instances.append(self.instance)
        self.inst = self.exp["instances"][str(self.instance)]
        self.m, self.n = int(self.exp["m"]), int(self.exp["n"])
        self.budget = int(self.exp["budget"])
        self.problem = None
        self.reference = None

    def build(self, mods):
        experiments = mods["experiments"]
        return experiments.build_simplex_ls(experiments.ExperimentSpec(
            name="simplex_ls", m=self.m, n=self.n, seed=self.instance))

    def prepare(self, mods):
        self.problem = self.build(mods)

    def gauge_snippet(self):
        # matvec-bound solves do not follow the default snippet; a matvec on
        # the solver's own matrix, hot in cache as it is for the solver, does
        x = np.full(self.n, 1.0 / self.n)
        return (lambda: self.problem.f.A @ x), MATVEC_REFERENCE_S

    def enter_phase(self, mods, level):
        # the traced phases build again, so the traced oracles are in place
        # and the build itself is traced; the data must not change
        if self.reference is None:
            f = self.problem.f
            self.reference = (f.A, f.b, f.lipschitz_grad)
        if level != "probe":
            self.problem = self.build(mods)
        f = self.problem.f
        if not (np.array_equal(f.A, self.reference[0])
                and np.array_equal(f.b, self.reference[1])
                and f.lipschitz_grad == self.reference[2]):
            raise RuntimeError("rebuilt problem differs from the first build")

    def round_inputs(self):
        return VARIANTS

    def solve(self, mods, variant: str):
        return solve_variant(mods, self.problem, variant, self.budget,
                             float(self.exp["eta0"]), float(self.exp["alpha"]))

    def check(self, variant, trace, fstar=None) -> List[str]:
        if isinstance(trace, Exception):
            return [f"{type(trace).__name__}: {trace}"]
        problems = []
        if len(trace.records) != self.budget + 1:
            problems.append(f"{len(trace.records) - 1} iterations, "
                            f"expected {self.budget}")
        xs = np.array([r.x for r in trace.records])
        if xs.shape[1:] != (self.n,) or \
                np.max(np.abs(xs.sum(axis=1) - 1.0)) > SIMPLEX_SUM_TOL or \
                np.min(xs) < SIMPLEX_MIN:
            problems.append("an iterate is off the simplex")
        objectives = trace.objectives()
        fstar = self.inst["fstar"] if fstar is None else fstar
        scale = 1.0 + abs(fstar)
        final = float(objectives[-1])
        if not np.all(np.isfinite(objectives)):
            problems.append("non-finite objective")
        elif final < fstar - FSTAR_RTOL * scale:
            problems.append(f"final objective {final!r} is below the stored "
                            f"F* {fstar!r}")
        expected = self.inst["variants"][variant]["final"]
        if expected is not None and final > expected + FINAL_RTOL * scale:
            problems.append(f"final objective {final!r} is worse than the "
                            f"stored {expected!r}")
        return problems

    def iters_to_tol(self, trace) -> int:
        fstar = self.inst["fstar"]
        gaps = trace.objectives()[1:] - fstar
        reached = np.flatnonzero(gaps <= FINAL_RTOL * (1.0 + abs(fstar)))
        return int(reached[0]) + 1 if reached.size else self.budget + 1

    def run_round(self, mods, inputs, level, tally, controls, baseline):
        for variant in inputs:
            # one variant at a time, so that at most one trace is alive and
            # peak memory does not depend on where a failing solve stops
            self._run_variant(mods, variant, level, tally, controls, baseline)

    def _run_variant(self, mods, variant, level, tally, controls, baseline):
        trace, start, seconds = self.solve(mods, variant)
        problems = self.check(variant, trace)
        if isinstance(trace, Exception):
            digest = _digest(type(trace).__name__, str(trace))
            iters = {}
        else:
            digest = _digest(trace.objectives().tobytes(),
                             trace.final().x.tobytes(),
                             [r.backtracks for r in trace.records])
            iters = {variant: self.iters_to_tol(trace)}
        op = Op(variant, start, seconds, digest, problems, iters)
        self.ops[level].append(op)
        self.repeats[variant].add(digest)
        tally.op(f"run_solver {variant}", op,
                 self.inst["variants"][variant].get("known_failure"))
        if problems:
            return
        if controls and variant == "pga-constant":
            perturbed = self.inst["fstar"] + \
                FINAL_RTOL * (1 + abs(self.inst["fstar"]))
            tally.control("run_solver pga-constant checked against a "
                          "perturbed F*",
                          self.check(variant, trace, fstar=perturbed))
        generator, mode = variant.split("-")
        if baseline and mode == "constant":
            # interleaved with the solver calls, so both see the same host
            # speed; it must also compute the same iterates
            f = self.problem.f
            bare_s, objective = bare_loop(
                f.A, f.b, 1.0 / f.lipschitz_grad,
                np.full(self.n, 1.0 / self.n), self.budget, generator)
            self.bare_us[generator].append(bare_s / self.budget * 1e6)
            ref = trace.final().objective
            if abs(objective - ref) > FSTAR_RTOL * (1 + abs(ref)):
                tally.problems.append(f"bare {generator} loop ends at "
                                      f"{objective!r}, run_solver at {ref!r}")


# ---------------------------------------------------------------------------
# identities


class Identities(Workload):
    """``bregprox verify-identities`` at its default sample count."""

    name = "identities"
    calls = 2   # measured calls per round, next to one negative control

    def __init__(self, seed, expected, outdir):
        super().__init__(seed, expected, outdir)
        self.suites = list(self.exp["suites"])

    def round_inputs(self):
        seeds = [int(s) for s in self.rng.integers(0, 2**31, size=self.calls)]
        self.instances.append(seeds)
        return seeds

    def inner_units(self, mods):
        return float(mods["cli"].build_parser()
                     .parse_args(["verify-identities"]).samples)

    def check(self, rc, stdout: str) -> List[str]:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        names = []
        for line in stdout.splitlines():
            cols = line.split()
            try:
                worst = float(cols[1].split("=", 1)[1])
                threshold = float(cols[2].split("=", 1)[1])
            except (IndexError, ValueError):
                problems.append(f"unreadable suite line {line!r}")
                continue
            names.append(cols[0])
            if cols[3:] != ["[pass]"] or not worst <= threshold:
                problems.append(f"{cols[0]} worst {worst:.3e}, threshold "
                                f"{threshold:.0e}")
        if names != self.suites:
            problems.append(f"suites {names}")
        return problems

    def run_round(self, mods, inputs, level, tally, controls, baseline):
        for seed in inputs:
            rc, start, seconds, stdout = call_cli(
                mods, ["verify-identities", "--seed", str(seed)])
            op = Op(str(seed), start, seconds, _digest(rc, stdout),
                    self.check(rc, stdout))
            self.ops[level].append(op)
            self.repeats[str(seed)].add(op.digest)
            tally.op(f"verify-identities --seed {seed}", op, None)
        if controls:
            # a smaller sample count is enough for the faulty oracle to show
            rc, _, _, stdout = call_cli(
                mods, ["verify-identities", "--seed", str(inputs[0]),
                       "--inject-fault", "--samples", "1000"])
            tally.control("verify-identities --inject-fault",
                          self.check(rc, stdout))


WORKLOADS = {w.name: w for w in (DeskCompare, PaperSolve, Identities)}
