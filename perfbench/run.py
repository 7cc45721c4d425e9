"""Benchmark for bregprox.

    python3 perfbench/run.py --workload desk-compare --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; bregprox is imported from its ``src/``.
The run is single-process and closed-loop, with the BLAS thread count
pinned.  It sets up (import plus input generation, several times), runs
whole rounds of the workload until ``--seconds`` have passed, checks every
output, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# pinned before numpy is first imported; 1 <= nproc on any host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gauge import Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import VARIANTS, WORKLOADS, Tally  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("cli", "experiments", "solvers", "bregman", "prox", "functions",
           "rates", "identities", "errors")
LAYERS = ("cli", "experiments", "functions", "solvers", "bregman", "prox",
          "rates", "identities")


class ProgramMissing(Exception):
    pass


def load_program() -> dict:
    """Import bregprox afresh from the checkout's src/, dropping any
    earlier import so that each set-up repetition pays the import."""
    if not (SRC / "bregprox" / "__init__.py").is_file():
        raise ProgramMissing(f"no bregprox package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "bregprox" or n.startswith("bregprox.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("bregprox")
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise ProgramMissing(f"bregprox was imported from {package.__file__}")
    mods = {name: importlib.import_module(f"bregprox.{name}")
            for name in MODULES}
    mods["all"] = [m for n, m in sys.modules.items()
                   if n == "bregprox" or n.startswith("bregprox.")]
    return mods


def median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else default


def environment(args, workload) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "instance_seeds": workload.instances,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_rounds(workload, mods, inputs_for, level, tally, seconds,
               controls, baseline) -> Tracer:
    """Whole rounds until ``seconds`` have passed, at least one."""
    with Tracer(mods, level) as tracer:
        workload.enter_phase(mods, level)
        deadline = time.perf_counter() + seconds
        while True:
            workload.run_round(mods, inputs_for(), level, tally,
                               controls=controls, baseline=baseline)
            if time.perf_counter() >= deadline:
                return tracer


def end_to_end(workload, mods, tracer, tally, gauge, setup) -> dict:
    t = gauge.scaled

    ops = workload.ops["probe"]
    units = workload.inner_units(mods)
    if units:
        iter_us = median(t(op.start, op.seconds) / units * 1e6 for op in ops)
    else:
        # median over variants of each variant's median, so the figure
        # does not jump between variants when the mix of solves is even
        iter_us = median(median(t(s.start, s.seconds) / s.accepted * 1e6
                                for s in tracer.solves
                                if s.variant == v and s.ok and s.accepted)
                         or None for v in VARIANTS)
    return {
        "setup_s": median(t(start, seconds) for start, seconds in setup),
        "op_s_p50": median(t(op.start, op.seconds) for op in ops),
        "iter_us_p50": iter_us,
        "failed_share": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(workload, tracers, gauge) -> dict:
    coarse, full = tracers["coarse"], tracers["full"]
    root = workload.op_root
    n_coarse = coarse.root_calls.get(root, 0) or 1
    n_full = full.root_calls.get(root, 0) or 1
    m = {}
    m["experiments.reference_s"] = \
        coarse.total.get("experiments.reference_simplex_ls", 0.0) / n_coarse
    m["experiments.build_s"] = \
        coarse.per_call_s("experiments.build_simplex_ls")
    m["functions.spectral_norm_s"] = \
        coarse.per_call_s("functions.estimate_spectral_norm")
    m["rates.certify_s"] = sum(
        coarse.total.get(n, 0.0) for n in (
            "rates.constant_step_certificate", "rates.line_search_certificate",
            "rates.certify_trace")) / n_coarse
    m["prox.verify_optimality_s"] = \
        coarse.total.get("prox.verify_prox_optimality", 0.0) / n_coarse
    for suite in ("three_point", "linearity", "nonnegativity",
                  "offset_identity", "prox_optimality"):
        m[f"identities.{suite}_s"] = \
            coarse.total.get(f"identities.{suite}_suite", 0.0) / n_coarse

    bare = {g: median(workload.bare_us.get(g, ())) for g in ("pga", "mirror")}
    for g in ("pga", "mirror"):
        m[f"solvers.bare_numpy_iter_us.{g}"] = bare[g]
    for v in VARIANTS:
        done = [s for s in coarse.solves if s.variant == v and s.ok
                and s.accepted]
        iter_us = median(s.seconds / s.accepted * 1e6 for s in done)
        m[f"solvers.iter_us.{v}"] = iter_us
        gen_bare = bare[v.split("-")[0]]
        m[f"solvers.overhead_x.{v}"] = iter_us / gen_bare \
            if iter_us and gen_bare else 0.0
        candidates = sum(s.candidates for s in done)
        m[f"solvers.accept_ratio.{v}"] = \
            sum(s.accepted for s in done) / candidates if candidates else 0.0
        m[f"experiments.iters_to_tol.{v}"] = median(
            op.iters_to_tol.get(v) for op in workload.ops["probe"])

    done = [s for s in full.solves if s.ok]
    steps = sum(s.candidates for s in done)
    m["functions.grad_calls_per_step"] = \
        sum(s.grad_calls for s in done) / steps if steps else 0.0
    m["functions.value_calls_per_step"] = \
        sum(s.value_calls for s in done) / steps if steps else 0.0
    m["functions.matvec_bytes_per_step"] = \
        sum(s.matvec_bytes for s in done) / steps if steps else 0.0
    m["bregman.distance_calls"] = \
        full.calls.get("bregman.bregman_distance", 0) / n_full
    m["bregman.distance_us_per_call"] = \
        full.per_call_s("bregman.bregman_distance") * 1e6
    m["prox.simplex_projection_calls"] = \
        full.calls.get("prox.simplex_projection", 0) / n_full
    m["prox.simplex_projection_us_per_call"] = \
        full.per_call_s("prox.simplex_projection") * 1e6
    m["prox.entropic_update_us_per_call"] = \
        full.per_call_s("prox.solve_entropy") * 1e6

    layer_self = full.layer_self_s(root)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    traced_op_s = full.root_s.get(root, 0.0) / n_full
    untraced_op_s = statistics.fmean(
        op.seconds for op in workload.ops["probe"])
    m["trace.op_s"] = traced_op_s
    m["trace.untraced_op_s"] = untraced_op_s
    m["host.slowdown"] = gauge.median_slowdown()
    m["trace_overhead_share"] = traced_op_s / untraced_op_s - 1.0
    m["cli.csv_bytes_stable"] = float(all(
        len(d) == 1 for d in workload.repeats.values()))
    return m


def check_trace_outputs(workload, tally) -> None:
    """Traced phases must reproduce the untraced outputs exactly."""
    untraced = {op.key: op.digest for op in workload.ops["probe"]}
    for level in ("coarse", "full"):
        for op in workload.ops[level]:
            if untraced.get(op.key) != op.digest:
                tally.problems.append(
                    f"{level} trace changed the output of {op.key}")


def measure(args, spec, workload, mods, tally, gauge, setup, outdir):
    """Run the workload; returns the metric values and the metrics wanted."""
    if not args.trace:
        tracer = run_rounds(workload, mods, workload.round_inputs, "probe",
                            tally, args.seconds, controls=True,
                            baseline=False)
        return (end_to_end(workload, mods, tracer, tally, gauge, setup),
                spec["end_to_end"])
    # the same inputs in every phase, so their outputs can be compared
    inputs = workload.round_inputs()
    tracers = {}
    for level in ("probe", "coarse", "full"):
        tracers[level] = run_rounds(
            workload, mods, lambda: inputs, level, tally, args.seconds / 3,
            controls=level == "probe", baseline=level == "coarse")
    check_trace_outputs(workload, tally)
    dump = {"environment": environment(args, workload),
            "problems": tally.problems,
            "phases": {lv: tr.dump() for lv, tr in tracers.items()}}
    (outdir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(dump, indent=1))
    return per_layer(workload, tracers, gauge), spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    outdir = ROOT / ".perfbench"
    workload = WORKLOADS[args.workload](args.seed, expected, outdir)

    with Gauge() as gauge:
        setup = []   # (start, seconds) of each repetition
        try:
            for _ in range(workload.setup_reps):
                start = time.perf_counter()
                mods = load_program()
                workload.prepare(mods)
                setup.append((start, time.perf_counter() - start))
                if workload.gauge_snippet() is not None:
                    gauge.use(*workload.gauge_snippet())
        except (ProgramMissing, ImportError) as exc:
            print(f"perfbench: cannot load bregprox: {exc}", file=sys.stderr)
            return 2
        outdir.mkdir(exist_ok=True)
        tally = Tally()
        values, wanted = measure(args, spec, workload, mods, tally, gauge,
                                 setup, outdir)

    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"environment": environment(args, workload)}))
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
