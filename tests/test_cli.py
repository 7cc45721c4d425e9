import hashlib

import pytest

from bregprox.cli import CSV_HEADER, main


def run(argv):
    return main(argv)


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SMALL_SIMPLEX = ["run-simplex", "--rows", "15", "--cols", "30",
                 "--seed", "42", "--max-iters", "300",
                 "--ref-iters", "5000"]


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


class TestCertify:
    def test_small_instance(self):
        assert run(["certify", "--rows", "10", "--cols", "20",
                    "--iters", "100", "--ref-iters", "5000"]) == 0


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
