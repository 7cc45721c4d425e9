"""Regenerate perfbench/expected.json, the values the benchmark checks
outputs against.

    python3 perfbench/make_expected.py

Run from the root of a checkout.  It takes several minutes: each
paper-scale instance needs its 100k-step reference optimum.  Only rerun it
when a change deliberately alters results, and say so where the change is
described; the stored values are what makes a wrong result visible.

The instance pools are consecutive seeds, not chosen by outcome.  A call
that fails today is stored with ``known_failure``, the checks it failed;
the benchmark counts its failure without treating the run as incorrect.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, load_program
from workloads import VARIANTS, call_cli, check_desk, solve_variant

DESK = {"m": 50, "n": 100, "always": 12, "max_iters": 5000,
        "pool": list(range(24)) + [42]}
PAPER = {"m": 500, "n": 1000, "budget": 300, "eta0": 100.0, "alpha": 0.5,
         "pool": list(range(8))}
SUITES = ["three_point_quadratic", "three_point_entropy",
          "linearity_quadratic_entropy", "bregman_nonnegativity",
          "theorem_offset_spread", "prox_optimality_l1_quadratic",
          "prox_optimality_simplex_quadratic",
          "prox_optimality_simplex_entropy"]


def desk_instance(mods, seed: int) -> dict:
    experiments, errors = mods["experiments"], mods["errors"]

    def run(variants):
        return experiments.run_experiment(experiments.ExperimentSpec(
            name="simplex_ls", m=DESK["m"], n=DESK["n"], seed=seed,
            max_iters=DESK["max_iters"], variants=variants))

    try:
        results = [run(VARIANTS)]
    except errors.BregProxError:
        # find the variants that complete, one at a time
        results = []
        for variant in VARIANTS:
            try:
                results.append(run((variant,)))
            except errors.BregProxError:
                pass
    entry = {"fstar": results[0].reference_optimum[1], "final": {}}
    for result in results:
        for variant, trace in result.traces.items():
            entry["final"][variant] = trace.final().objective

    out = ROOT / ".perfbench" / f"expected-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    rc, _, _, _ = call_cli(mods, ["run-simplex", "--seed", str(seed),
                               "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} \
        if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    problems = check_desk(rc, files, entry, DESK["max_iters"])
    if problems:
        entry["known_failure"] = "; ".join(problems)
    return entry


def paper_instance(mods, seed: int) -> dict:
    experiments = mods["experiments"]
    problem = experiments.build_simplex_ls(experiments.ExperimentSpec(
        name="simplex_ls", m=PAPER["m"], n=PAPER["n"], seed=seed))
    f = problem.f
    _, fstar = experiments.reference_simplex_ls(
        f.A, f.b, 1.0 / f.lipschitz_grad)
    entry = {"fstar": fstar, "variants": {}}
    for variant in VARIANTS:
        trace, _, _ = solve_variant(mods, problem, variant, PAPER["budget"],
                                 PAPER["eta0"], PAPER["alpha"])
        if isinstance(trace, Exception):
            entry["variants"][variant] = {
                "final": None,
                "known_failure": f"{type(trace).__name__}: {trace}"}
        else:
            entry["variants"][variant] = {"final": trace.final().objective}
    return entry


def main() -> int:
    mods = load_program()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    desk = {k: v for k, v in DESK.items() if k != "pool"}
    desk["instances"] = {}
    for seed in DESK["pool"]:
        desk["instances"][str(seed)] = desk_instance(mods, seed)
        print("desk-compare", seed, desk["instances"][str(seed)], flush=True)
    paper = {k: v for k, v in PAPER.items() if k != "pool"}
    paper["instances"] = {}
    for seed in PAPER["pool"]:
        paper["instances"][str(seed)] = paper_instance(mods, seed)
        print("paper-solve", seed, paper["instances"][str(seed)], flush=True)
    expected = {"desk-compare": desk, "paper-solve": paper,
                "identities": {"suites": SUITES}}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
