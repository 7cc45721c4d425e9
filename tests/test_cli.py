import dataclasses
import hashlib
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bregprox import (
    DomainError,
    SolverConfig,
    bregman_distance,
    certify_trace,
    experiments,
    make_prox_map,
    negative_entropy,
    prox,
    run_solver,
    squared_euclidean,
)
from bregprox.cli import (CSV_CHUNK_ROWS, CSV_HEADER, _certified,
                          _write_variant_csv, main)
from bregprox.rates import RateCertificate
from bregprox.experiments import VARIANTS


def run(argv):
    return main(argv)


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SMALL_SIMPLEX = ["run-simplex", "--rows", "15", "--cols", "30",
                 "--seed", "42", "--max-iters", "300"]


class TestRunSimplex:
    def test_all_variants_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(SMALL_SIMPLEX + ["--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted([
            "pga-constant.csv", "pga-linesearch.csv",
            "mirror-constant.csv", "mirror-linesearch.csv", "summary.csv",
        ])

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        run(SMALL_SIMPLEX + ["--out", str(out),
                             "--variants", "pga-constant"])
        text = (out / "pga-constant.csv").read_text()
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 9

    def test_single_variant(self, tmp_path):
        out = tmp_path / "out"
        run(SMALL_SIMPLEX + ["--out", str(out),
                             "--variants", "mirror-linesearch"])
        assert sorted(p.name for p in out.iterdir()) == [
            "mirror-linesearch.csv", "summary.csv"]

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(SMALL_SIMPLEX + ["--out", str(out1)])
        run(SMALL_SIMPLEX + ["--out", str(out2)])
        for p in sorted(out1.iterdir()):
            assert file_hash(p) == file_hash(out2 / p.name)

    def test_failing_variant_keeps_finished_results(self, tmp_path, capsys):
        # eta0 = 1e30 takes the line searches to a vertex of the simplex
        # (the projection must survive entries near 1e30) and exhausts their
        # backtracking budget; the constant-step variants finish, and every
        # variant's CSV and the summary are still written
        out = tmp_path / "out"
        assert run(["run-simplex", "--eta0", "1e30", "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "pga-constant.csv", "pga-linesearch.csv",
            "mirror-constant.csv", "mirror-linesearch.csv", "summary.csv",
        ])
        summary = (out / "summary.csv").read_text().split("\n")
        assert [row.split(",")[:3] for row in summary[1:-1]] == [
            ["pga-constant", "48", "true"],
            ["pga-linesearch", "", "false"],
            ["mirror-constant", "3409", "true"],
            ["mirror-linesearch", "", "false"]]
        for variant in ("pga-linesearch", "mirror-linesearch"):
            rows = (out / f"{variant}.csv").read_text().split("\n")
            assert [r.split(",")[0] for r in rows[1:-1]] == ["0"]
        err = capsys.readouterr().err
        for variant in ("pga-linesearch", "mirror-linesearch"):
            assert f"{variant}: solver failure: backtracking budget " \
                   "exhausted at iteration 1" in err

    def test_certificate_over_no_step_is_not_ok(self, tmp_path, capsys):
        # at alpha = 0.99 both line searches fail at iteration 1; their
        # certificates, with margin inf, used to print [ok]
        out = tmp_path / "out"
        assert run(SMALL_SIMPLEX + ["--alpha", "0.99", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == list(VARIANTS)
        for line in lines:
            if "linesearch" in line:
                assert line.endswith(
                    "iters_to_tol=None cert_margin=inf [covers no step]")
            else:
                assert line.endswith("[ok]")
        summary = (out / "summary.csv").read_text().split("\n")
        assert summary[2].startswith("pga-linesearch,,false,")
        assert summary[2].endswith(",gppa,inf,true")

    @pytest.mark.parametrize("eta0", ["1e307", "1e308"])
    def test_huge_eta0_projects_without_overflow(self, tmp_path, capsys,
                                                 eta0):
        # the first line-search candidate projects finite entries near
        # 1e307, whose prefix sums used to overflow to -inf: the projection
        # came out all inf, with numpy warnings from it and from the next
        # matmul.  Both line searches still exhaust their budget.  Here and
        # in the overflow tests below, over="raise" reaches inside
        # run_solver, which ignores overflow only under numpy's "warn"
        out = tmp_path / "out"
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            assert run(["run-simplex", "--eta0", eta0, "--out",
                        str(out)]) == 1
        assert capsys.readouterr().err == "".join(
            f"{variant}: solver failure: backtracking budget exhausted at "
            "iteration 1\n" for variant in ("pga-linesearch",
                                            "mirror-linesearch"))
        for variant in ("pga-constant", "mirror-constant"):
            assert (out / f"{variant}.csv").is_file()

    def test_overflowing_line_search_candidate_is_never_formed(
            self, tmp_path, capsys):
        # eta max |v_i| overflows on the first candidates: y - eta v and
        # -eta v printed four RuntimeWarnings, and pga-linesearch failed
        # with "cannot project a non-finite point".  Those candidates are
        # rejected unformed, so pga-linesearch accepts after 11 backtracks,
        # and mirror-linesearch, which rejected them after the warnings,
        # keeps its bytes
        out = tmp_path / "out"
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            assert run(["run-simplex", "--rows", "1", "--cols", "2",
                        "--seed", "13", "--eta0", "1e308", "--alpha",
                        "0.99", "--max-iters", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        first = "0,2,0,1e+308,0,0,inf,inf,0\n"
        assert (out / "mirror-linesearch.csv").read_text() == (
            CSV_HEADER + "\n" + first + "1,2,0,8.9533825425871633e+307,11,"
            "0,7.7417353415087505e-309,7.7417353415087505e-309,0\n")
        assert (out / "pga-linesearch.csv").read_text() == (
            CSV_HEADER + "\n" + first + "1,2,0,8.9533825425871633e+307,11,"
            "0,2.7922407962673753e-309,2.7922407962673753e-309,0\n")

    @pytest.mark.parametrize("argv", [
        "--cols 7 --seed 0 --alpha 1e-300 --max-iters 1",
        "--cols 50 --seed 42 --alpha 1e-307 --max-iters 20",
        "--cols 7 --seed 1 --alpha 1e-300 --max-iters 1"])
    def test_overflowing_mirror_shift_is_never_formed(self, tmp_path, capsys,
                                                      argv):
        # the mirror step shifts -eta v by its maximum, a span of
        # eta max v - eta min v: up to twice the eta max |v_i| that the
        # gate bounded, so these runs printed "overflow encountered in
        # subtract".  The gate now bounds the span
        out = tmp_path / "out"
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            assert run(["run-simplex", "--rows", "1", "--eta0", "1e308",
                        *argv.split(), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "mirror-linesearch.csv").is_file()

    @pytest.mark.parametrize("flag, message", [
        ("--eta0", "eta0 = 1e-310 is below the smallest normal float, the "
                   "smallest step a line search tries"),
        ("--alpha", "line-search step 1e-308 fell below the smallest normal "
                    "float at iteration 1")])
    def test_subnormal_line_search_step_fails_its_variant(
            self, tmp_path, capsys, flag, message):
        # a step below the smallest normal float moves no iterate: both line
        # searches used to run every step at it, print a numpy overflow
        # warning from the certificate, and exit 0 with cert_margin=inf [ok].
        # The constant-step variants keep their CSVs
        out, alone = tmp_path / "out", tmp_path / "alone"
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            assert run(SMALL_SIMPLEX + [flag, "1e-310", "--out",
                                        str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "".join(f"{variant}: solver failure: {message}\n"
                              for variant in ("pga-linesearch",
                                              "mirror-linesearch"))
        assert run(SMALL_SIMPLEX + ["--variants",
                                    "pga-constant,mirror-constant",
                                    "--out", str(alone)]) == 0
        for variant in ("pga-constant", "mirror-constant"):
            assert (out / f"{variant}.csv").read_bytes() \
                == (alone / f"{variant}.csv").read_bytes()

    @pytest.mark.parametrize("eta0", ["nan", "inf"])
    def test_non_finite_eta0_fails_before_any_solve(self, tmp_path, capsys,
                                                    eta0):
        # a NaN step used to pass the positivity check: the constant
        # variants ran, the line searches failed, and the summary read
        # "cert_margin=inf [ok]"; now the flag fails before any work
        out = tmp_path / "out"
        assert run(SMALL_SIMPLEX + ["--eta0", eta0, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eta0 must be positive and finite\n"
        assert not out.exists()

    def test_uncertified_reference_is_an_error(self, tmp_path, capsys,
                                               monkeypatch):
        # a cap of 0 cycles used to take the barycentre as x*, print [ok]
        # for every variant and write negative final gaps
        monkeypatch.setattr(experiments, "REFERENCE_MAX_CYCLES", 0)
        out = tmp_path / "out"
        assert run(SMALL_SIMPLEX + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: reference optimum uncertified after 0 major cycles: "
            "Frank-Wolfe gap ")
        assert "corral" not in captured.err
        assert not out.exists()

    def test_wide_instance_certifies_its_reference(self, tmp_path, capsys):
        # m << n: projected gradient reached a gap of about 1e-5 in 100k
        # steps and exited 1 after 5-8 s
        start = time.perf_counter()
        assert run(["run-simplex", "--rows", "2", "--cols", "50",
                    "--out", str(tmp_path / "out")]) == 0
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().out.count("[ok]") == len(VARIANTS)

    def test_impossible_size_is_one_error_line(self, tmp_path, capsys):
        # numpy refuses the 71 PiB request at once, so nothing is allocated;
        # it used to end in an uncaught numpy._ArrayMemoryError
        out = tmp_path / "out"
        assert run(["run-simplex", "--rows", "100000000", "--cols",
                    "100000000", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run-simplex", "--rows", "4611686018427387904", "--cols", "1"],
         "m x n = 4611686018427387904 x 1"),
        (["certify", "--rows", "3037000500", "--cols", "3037000500"],
         "m x n = 3037000500 x 3037000500"),
        (["run-lasso", "--dim", "2305843009213693952"],
         "dimension 2305843009213693952")],
        ids=["run-simplex", "certify", "run-lasso"])
    def test_size_numpy_cannot_address_is_one_error_line(
            self, tmp_path, capsys, argv, message):
        # more than np.iinfo(np.intp).max bytes of float64: numpy refused
        # these with a ValueError ("array is too big") and a traceback
        out = tmp_path / "out"
        if argv[0] == "run-simplex":
            argv = argv + ["--out", str(out)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {message} is more entries than numpy can address\n"
        assert not out.exists()

    def test_repeated_variant_is_an_error(self, tmp_path, capsys):
        # used to write two identical pga-constant summary rows
        out = tmp_path / "out"
        assert run(SMALL_SIMPLEX + ["--variants", "pga-constant,pga-constant",
                                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: variant 'pga-constant' is repeated\n"
        assert not out.exists()

    @pytest.mark.parametrize("variants, name", [
        ("foo", "foo"), ("pga-constant,", "")])
    def test_unknown_variant_is_an_error(self, tmp_path, capsys, variants,
                                         name):
        # a trailing comma names an empty variant
        out = tmp_path / "out"
        assert run(SMALL_SIMPLEX + ["--variants", variants,
                                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown variant {name!r}\n"
        assert not out.exists()

    def test_mirror_linesearch_reaches_boundary_optimum(self, tmp_path):
        # seed 12: mirror-linesearch drives components below 1e-300 before
        # it reaches the tolerance; zeros must not stop it
        out = tmp_path / "out"
        assert run(["run-simplex", "--seed", "12", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "pga-constant.csv", "pga-linesearch.csv",
            "mirror-constant.csv", "mirror-linesearch.csv", "summary.csv",
        ])

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        assert run(SMALL_SIMPLEX + ["--out", str(target)]) == 3

    def test_failed_certificate_exits_1(self, monkeypatch, tmp_path,
                                        capsys):
        # an F* 1.0 too low puts every gap above its bound: each variant
        # prints [FAIL] and none reaches the tolerance
        reference = experiments.reference_simplex_ls

        def low(*args, **kwargs):
            x_star, f_star = reference(*args, **kwargs)
            return x_star, f_star - 1.0

        monkeypatch.setattr(experiments, "reference_simplex_ls", low)
        assert run(SMALL_SIMPLEX + ["--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.split("\n")
        assert lines[-1] == "" and len(lines) == len(VARIANTS) + 1
        for variant, line in zip(VARIANTS, lines):
            head, margin, verdict = line.rsplit(" ", 2)
            assert head == f"{variant}: iters_to_tol=None"
            assert margin.startswith("cert_margin=-")
            assert verdict == "[FAIL]"

    def test_variant_failing_without_a_trace_keeps_its_row(
            self, monkeypatch, tmp_path, capsys):
        # a prox map that raises before the first step leaves no partial
        # trace: the mirror variants write no CSV but keep a summary row
        def refuse(v, y, eta, out=None):
            raise DomainError("no mirror step here")

        monkeypatch.setitem(prox._REGISTRY, ("simplex", "entropy"), refuse)
        out = tmp_path / "out"
        assert run(SMALL_SIMPLEX + ["--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "pga-constant.csv", "pga-linesearch.csv", "summary.csv"]
        summary = (out / "summary.csv").read_text().split("\n")
        assert summary[3:] == ["mirror-constant,,false,,,,,",
                               "mirror-linesearch,,false,,,,,", ""]
        assert [row.split(",")[5] for row in summary[1:3]] == ["gppa"] * 2
        captured = capsys.readouterr()
        assert captured.out.count("[ok]") == 2
        assert captured.err == (
            "mirror-constant: solver failure: no mirror step here\n"
            "mirror-linesearch: solver failure: no mirror step here\n")


def row_by_row_csv(trace, f_star, cert, H, x_star, timing):
    """The CSV bytes of the writer that formatted one record at a time with
    f-strings, kept as the reference for the column writer.  The classical
    bound D_H(x*, x0) / (eta_1 S_k) is formed here, not read from cert."""
    eta_1 = trace.eta[1] if len(trace.eta) > 1 else trace.eta[0]
    d_H = bregman_distance(H, x_star, trace.x0) / eta_1
    weight_sum = 0.0
    lines = [CSV_HEADER]
    rows = zip(*(c.tolist() for c in (trace.objective, trace.eta,
                                       trace.backtracks, trace.d_hk,
                                       trace.elapsed_ms)))
    for k, (objective, eta, backtracks, d_hk, elapsed_ms) in enumerate(rows):
        if k >= 1:
            weight_sum += eta / eta_1
            b_classical = d_H / weight_sum
            b_gppa = cert.bound_at(k)
        else:
            b_classical = b_gppa = np.inf
        ms = elapsed_ms if timing else 0.0
        lines.append(
            f"{k},{objective:.17g},{objective - f_star:.17g},"
            f"{eta:.17g},{backtracks},{d_hk:.17g},"
            f"{b_classical:.17g},{b_gppa:.17g},{ms:.17g}")
    return ("\n".join(lines) + "\n").encode()


class TestVariantCsv:
    @pytest.fixture(scope="class")
    def cases(self):
        """(trace, certificate, result, generator) for every desk variant,
        for the partial traces that eta0 = 1e30 leaves, and for a constant
        step above 1/L, whose d_hk are negative."""
        spec = experiments.ExperimentSpec(name="desk", m=50, n=100, seed=42)
        full = experiments.run_experiment(spec)
        failing = experiments.run_experiment(
            dataclasses.replace(spec, eta0=1e30))
        # both line searches exhaust their budget and leave partial traces
        assert sorted(failing.failures) == sorted(
            v for v in failing.traces if v.endswith("linesearch"))
        cases = [(trace, result.certificates[v], result,
                  squared_euclidean(100) if v.startswith("pga")
                  else negative_entropy(100))
                 for result in (full, failing)
                 for v, trace in result.traces.items()]
        H = squared_euclidean(100)
        trace = run_solver(full.problem, H,
                           make_prox_map("simplex", "quadratic"),
                           full.traces["pga-constant"].x0,
                           SolverConfig(eta0=4 / full.problem.f.lipschitz_grad,
                                        max_iters=50))
        return cases + [(trace, certify_trace(full.problem, H, trace), full,
                         H)]

    @pytest.mark.parametrize("timing", [False, True])
    def test_column_writer_matches_row_writer(self, cases, tmp_path,
                                              timing):
        for i, (trace, cert, result, H) in enumerate(cases):
            x_star, f_star = result.reference_optimum
            path = tmp_path / f"{i}.csv"
            _write_variant_csv(path, trace, f_star, cert, timing)
            assert path.read_bytes() == row_by_row_csv(
                trace, f_star, cert, H, x_star, timing)
        traces = [trace for trace, _, _, _ in cases]
        # the cases cover more than one chunk, negative d_hk and the inf
        # bounds of row 0
        assert max(len(t.objective) for t in traces) > 2 * CSV_CHUNK_ROWS
        assert min(t.d_hk.min() for t in traces) < 0.0
        row0 = (tmp_path / "0.csv").read_text().split("\n")[1].split(",")
        assert row0[6:8] == ["inf", "inf"]


class TestBoundColumns:
    @pytest.mark.parametrize("seed", ["42", "0", "12"])
    def test_classical_bounds_the_gap_and_the_certificate(self, tmp_path,
                                                         seed):
        # every variant's bound_classical is its own D_H(x*, x0) / (eta_1
        # S_k).  It used to hold PGA's bound at gamma = 1/L for every
        # variant, which fell below mirror-constant's gap on 385 to 550
        # rows of these seeds and below its bound_gppa on every row
        out = tmp_path / "out"
        run(["run-simplex", "--seed", seed, "--out", str(out)])
        columns = CSV_HEADER.split(",")
        gap, classical, gppa = (columns.index(c) for c in (
            "gap", "bound_classical", "bound_gppa"))
        for variant in VARIANTS:
            rows = np.loadtxt(out / f"{variant}.csv", delimiter=",",
                              skiprows=2, ndmin=2)
            assert rows.shape[0] >= 1
            # the CLI's certificate slack
            assert np.all(rows[:, gap] <= rows[:, classical] + 1e-9), variant
            # the difference is D_f(x*, x0) / S_k >= 0
            assert np.all(rows[:, gppa] <= rows[:, classical]), variant


class TestRunLasso:
    def test_default_one_step(self, capsys):
        assert run(["run-lasso"]) == 0
        out = capsys.readouterr().out
        assert "F(x_1) - F*" in out

    def test_custom_instance(self):
        assert run(["run-lasso", "--gamma", "0.5", "--dim", "50",
                    "--seed", "7"]) == 0

    def test_smaller_step_still_certified(self):
        assert run(["run-lasso", "--eta-ratio", "0.5"]) == 0

    @pytest.mark.parametrize("ratio", ["1.5", "2"])
    def test_step_above_gamma_prints_no_bound(self, capsys, ratio):
        # --eta-ratio 2 used to print "GPPA-PGA bound at k=1: -13.31...",
        # a negative bound whose hypothesis D_h1 >= 0 had failed
        assert run(["run-lasso", "--eta-ratio", ratio]) == 1
        assert capsys.readouterr().out.split("\n")[1] == \
            "GPPA-PGA bound at k=1: none, its hypothesis D_h1 >= 0 fails"

    @pytest.mark.parametrize("gamma", ["1", "1e-3", "1e-6", "1e-300", "10"])
    def test_one_step_optimum_at_any_scale(self, capsys, gamma):
        # --gamma 1e-300 exited 1: its gap, 2.5e269, is x_1's rounding
        # scaled by 1/gamma, and it was held to an absolute 1e-10; --gamma
        # 1e-3 reported its hypothesis D_h1 >= 0 as failing on a d_h1 of
        # -7.3e-12, which is 0 in exact arithmetic, and then printed that
        # cancellation as a negative bound, as --gamma 10 did
        assert run(["run-lasso", "--gamma", gamma]) == 0
        out = capsys.readouterr().out.split("\n")
        assert out[0].startswith("F(x_1) - F* = ")
        head, bound = out[1].split(": ")
        assert head == "GPPA-PGA bound at k=1"
        assert float(bound) >= 0.0

    @pytest.mark.parametrize("gamma", ["1", "1e-300"])
    @pytest.mark.parametrize("shift, status", [(0, 0), (1, 0), (1e-12, 1)])
    def test_one_step_exit_reads_the_point(self, monkeypatch, gamma, shift,
                                           status):
        # x_1 one ulp off x* still passes; 1e-12 of the data's scale fails
        solve = prox._REGISTRY[("l1", "quadratic")]

        def perturbed(v, y, eta, out=None):
            x = solve(v, y, eta, out)
            if shift == 1:
                x[0] = np.nextafter(x[0], np.inf)
            else:
                x[0] += shift * np.max(np.abs(y))
            return x

        monkeypatch.setitem(prox._REGISTRY, ("l1", "quadratic"), perturbed)
        assert run(["run-lasso", "--gamma", gamma]) == status

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_is_an_error(self, capsys, gamma):
        # a NaN used to pass the check and fail later, naming eta0
        assert run(["run-lasso", "--gamma", gamma]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma must be positive and finite\n"

    @pytest.mark.parametrize("argv, name", [
        (["--eta-ratio", "0"], "--eta-ratio"),
        (["--eta-ratio", "-1"], "--eta-ratio"),
        (["--eta-ratio", "nan"], "--eta-ratio"),
        (["--eta-ratio", "inf"], "--eta-ratio"),
        (["--gamma", "1e300", "--eta-ratio", "1e10"],
         "the step gamma * eta-ratio"),
        (["--gamma", "1e-300", "--eta-ratio", "1e-300"],
         "the step gamma * eta-ratio"),
    ], ids=["0", "-1", "nan", "inf", "overflow", "underflow"])
    def test_bad_step_names_the_flag(self, capsys, argv, name):
        # these used to fail in SolverConfig, naming eta0, which run-lasso
        # has no flag for
        assert run(["run-lasso"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be positive and finite\n"

    @pytest.mark.parametrize("gamma, message", [
        ("1e-320", "gamma = 1e-320 is too small: 1 / gamma overflows"),
        ("4e-309", "gamma = 4e-309 is too small: 1 / gamma overflows"),
        ("1e-307",
         "--gamma 1e-307 with --eta-ratio 1.0 overflows the one-step run"),
    ], ids=["1e-320", "4e-309", "1e-307"])
    def test_tiny_gamma_names_the_flag(self, capsys, gamma, message):
        # 1 / gamma or ||x0 - b||^2 / (2 gamma) overflows: these printed a
        # numpy RuntimeWarning and then "x0 must have finite objective".  A
        # gamma whose inverse overflows is rejected by shifted_quadratic, as
        # a NaN gamma is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["run-lasso", "--gamma", gamma]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("gamma, ratio", [
        ("1e-306", "2"), ("3e-307", "1"), ("1e-305", "0.01"),
        ("1e-300", "1e-10")])
    def test_overflow_is_one_error_line(self, capsys, gamma, ratio):
        # D_f or D_H / eta_1 overflows, as F(x0) does for the tiny gammas
        # above.  The first printed a negative bound under a failed
        # hypothesis, since an inf D_f passed the test D_h1 >= 0; the
        # others printed RuntimeWarnings, then a bound of 0 or inf, and
        # exited 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["run-lasso", "--gamma", gamma,
                        "--eta-ratio", ratio]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --gamma {float(gamma)!r} with --eta-ratio "
            f"{float(ratio)!r} overflows the one-step run\n")

    def test_small_gamma_half_step_keeps_its_output(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["run-lasso", "--gamma", "1e-306",
                        "--eta-ratio", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "F(x_1) - F* = 1.1960399202365482e+307\n"
            "GPPA-PGA bound at k=1: 4.784159680946193e+307\n"
            "classical PGA bound at k=1: 9.5683193618923859e+307\n")
        assert captured.err == ""

    def test_small_gamma_keeps_its_output(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["run-lasso", "--gamma", "1e-305"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "F(x_1) - F* = 2.2976344236539723e+274\n"
            "GPPA-PGA bound at k=1: 0\n"
            "classical PGA bound at k=1: 4.7841596809461932e+306\n")
        assert captured.err == ""

    @pytest.mark.parametrize("dim", ["0", "-1", "-50"])
    def test_dimension_below_one_is_an_error(self, capsys, dim):
        # a negative --dim used to end in a traceback from
        # rng.standard_normal; every --dim < 1 is rejected before any draw
        assert run(["run-lasso", "--dim", dim]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dimension must be positive\n"


class TestCertify:
    def test_small_instance(self):
        assert run(["certify", "--rows", "10", "--cols", "20",
                    "--iters", "100"]) == 0

    def test_wide_instance_certifies_its_reference(self, capsys):
        # exited 1 with "reference optimum uncertified after 100000 steps"
        start = time.perf_counter()
        assert run(["certify", "--rows", "2", "--cols", "60"]) == 0
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().out.count("[ok]") == 2

    @pytest.mark.parametrize("hypothesis", [True, False])
    def test_printed_verdict_sets_exit_code(self, monkeypatch, capsys,
                                            hypothesis):
        # a negative margin fails only when its hypothesis held; certify
        # used to print [FAIL] without it and still exit 0
        certify, solve = experiments.certify_trace, experiments.run_solver
        monkeypatch.setattr(
            experiments, "certify_trace", lambda *a: dataclasses.replace(
                certify(*a), margin=-1.0))
        monkeypatch.setattr(
            experiments, "run_solver", lambda *a: dataclasses.replace(
                solve(*a), hypothesis_held=hypothesis))
        status = run(["certify", "--rows", "10", "--cols", "20",
                      "--iters", "100"])
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == (2 if hypothesis else 0)
        assert status == (1 if hypothesis else 0)

    def test_solver_failure_is_reported(self, monkeypatch, capsys):
        # certify used to skip its variants' failures: a mirror map that
        # raises left one [ok] line and exit 0
        def refuse(v, y, eta, out=None):
            raise DomainError("no mirror step here")

        monkeypatch.setitem(prox._REGISTRY, ("simplex", "entropy"), refuse)
        status = run(["certify", "--rows", "10", "--cols", "20",
                      "--iters", "100"])
        captured = capsys.readouterr()
        assert captured.out.startswith("pga-constant: margin=")
        assert captured.out.count("\n") == 1
        assert captured.err == \
            "mirror-constant: solver failure: no mirror step here\n"
        assert status == 1


class TestVerdict:
    @pytest.mark.parametrize("k", [-20, 0, 20])
    @pytest.mark.parametrize("shortfall, ok", [(1e-12, True), (1e-6, False)])
    def test_verdict_keeps_under_power_of_two_rescaling(self, k, shortfall,
                                                        ok):
        # A and b scaled by 2^k and the steps by 4^-k scale F, F*, c and
        # the margin by 4^k exactly.  The absolute slack -1e-9 passed the
        # failing margin at k = -20 and failed the rounding one at k = 20
        q = 4.0 ** k
        f_0, f_star, c = 1.5, 0.25, 2.0  # the run's scale is 2.0
        cert = RateCertificate(
            constant=c * q, classical=3.0 * q,
            weight_sums=np.arange(1.0, 4.0), margin=-shortfall * 2.0 * q)
        for held in (True, False):
            # the verdict reads F(x_0) and the hypothesis off the trace
            trace = SimpleNamespace(objective=np.array([f_0 * q, f_star * q]),
                                    hypothesis_held=held)
            assert _certified(cert, trace, f_star * q) is (ok or not held)


class TestVerifyIdentities:
    def test_default_passes(self, capsys):
        assert run(["verify-identities", "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_larger_sample_count(self):
        assert run(["verify-identities", "--seed", "1",
                    "--samples", "1000"]) == 0

    def test_injected_fault_fails(self, capsys):
        assert run(["verify-identities", "--samples", "300",
                    "--inject-fault"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_is_an_error(self, capsys, samples):
        # -5 used to die in rng.dirichlet, 0 to print vacuous passes
        assert run(["verify-identities", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: samples must be positive, got {samples}\n"


class TestUsage:
    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["run-lasso", "--no-such-flag"])
        assert exc_info.value.code == 2

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc_info:
            run([])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run-simplex", "--seed", "-1"],
        ["certify", "--seed", "-5"],
        ["run-lasso", "--seed", "-1"],
        ["verify-identities", "--seed", "-1"],
    ])
    def test_negative_seed_is_a_usage_error(self, argv, tmp_path, capsys):
        # a negative seed used to end in a traceback from np.random.Philox;
        # it is rejected while the arguments are parsed, before any work
        out = tmp_path / "out"
        extra = ["--out", str(out)] if argv[0] == "run-simplex" else []
        with pytest.raises(SystemExit) as exc_info:
            run(argv + extra)
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"{argv[0]}: error: argument --seed: must be a nonnegative "
            f"integer, got {argv[2]}\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["1.5", "seven"])
    def test_non_integer_seed_is_a_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exc_info:
            run(["verify-identities", "--seed", seed])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"verify-identities: error: argument --seed: invalid int "
            f"value: '{seed}'\n")

    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "bregprox", "--help"], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0
        assert done.stdout.startswith("usage: bregprox ")
        assert "verify-identities" in done.stdout

    def test_closed_output_stream_is_io_error(self, monkeypatch, capsys):
        # a report that cannot be printed, as into a closed pipe, exits 3
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["verify-identities", "--samples", "100"]) == 3
        assert capsys.readouterr().err == "I/O error: [Errno 32] Broken pipe\n"
