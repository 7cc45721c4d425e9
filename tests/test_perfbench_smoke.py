"""A short run of every benchmark workload on a copy of the checkout.

perfbench imports bregprox from its checkout's src/ and checks each output
that it times.  A change to a signature or to an output that the benchmark
relies on therefore fails here, where test_perfbench_contract.py sees only
whether the traced names exist.  Each workload runs untraced and traced,
since the per-layer figures of the benchmark records come from traced
runs.  The runs work in a copy of perfbench/, src/ and BENCHMARK.json, so
that nothing is written under the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for tree in ("perfbench", "src"):
        shutil.copytree(ROOT / tree, root / tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload, trace", [
    ("desk-compare", 0), ("paper-solve", 0), ("identities", 0),
    ("desk-compare", 1), ("paper-solve", 1), ("identities", 1)])
def test_workload_runs_and_checks_correct(checkout, workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
