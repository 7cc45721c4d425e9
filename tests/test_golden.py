"""Golden outputs: the default commands' bytes, as sha256 digests.

Each command runs as ``python -m bregprox`` at one and at two BLAS threads
against the same digest.  Every matrix these commands touch is far below
the 460,800 entries at which OpenBLAS runs a gemv on more than one thread
(``functions.GEMV_THREADED_ENTRIES``), so no reduction here changes its
order with the thread count; a larger problem's bits may.  The digests hold
the ``run-simplex`` output directories of seeds 42, 12 and 0 (the benchmark
runs seed 12 in every desk comparison) and the standard output of
``certify`` at seeds 0 and 3, ``run-lasso``, ``verify-identities --seed 0``
and two runs that exit 1: ``run-lasso --eta-ratio 2``, whose step breaks
the hypothesis D_h1 >= 0, and the negative control
``verify-identities --inject-fault``.  Every command's standard error
must be empty.

Only a change that documents a deliberate byte change in CHANGES.md, with
the rows it moves, may update these digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

STDOUT_DIGESTS = {
    "certify":
        "73a7e5d93904918e90f7e020d7e025908114ad2402e6feb4b3aa5a34d4495ce9",
    "certify --seed 3":
        "686b6c4add4ce9760760b00dd8913a1e1456a69be1ecfe372b8896ca4f9b3f45",
    "run-lasso":
        "d9c985d8a57fad10e55c9a2424dd356207b5794f797a8e2ec33fd50437ea051f",
    "run-lasso --eta-ratio 2":
        "c6406c8b4ec70c2ad606a9be1bde3244707504b4d34048d54b7463790e7db73b",
    "verify-identities --seed 0":
        "ade63ad1c3b67db7a52cbbd9bc5a60a419150eb106adcfc7367e573e652270b6",
    "verify-identities --inject-fault --samples 1000":
        "322a17654af46749f707dff818544ccb54a3b92ddc0ad00b637d39abeaf24200",
}
# every other command exits 0
EXIT_CODES = {"run-lasso --eta-ratio 2": 1,
              "verify-identities --inject-fault --samples 1000": 1}
RUN_SIMPLEX_DIGESTS = {
    "42": "531293ced893f5821df8905a72473b19d88b905dd63cfd4e7e5259e3cfb33d3d",
    "12": "fe6e3c963e1ee3bb8a3529c32479f656f39e3f8356c7a3f13a98ce064feb0506",
    "0": "b0050aed5db279c8679e01f759af04cef183fb81ba61702d193ce6bd2f5a5c9d",
}


def bregprox(threads, *argv):
    """Run the CLI in a subprocess at ``threads`` BLAS threads; its exit
    code and standard output."""
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, "-m", "bregprox", *argv],
                          capture_output=True, env=env)
    assert done.stderr == b""
    return done.returncode, done.stdout


def directory_digest(path):
    """sha256 over each file's name and bytes, in name order."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


THREADS = pytest.mark.parametrize("threads", ["1", "2"])


@THREADS
@pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
def test_stdout_keeps_its_bytes(command, threads):
    status, out = bregprox(threads, *command.split())
    assert status == EXIT_CODES.get(command, 0)
    assert hashlib.sha256(out).hexdigest() == STDOUT_DIGESTS[command]


@THREADS
@pytest.mark.parametrize("seed", sorted(RUN_SIMPLEX_DIGESTS))
def test_run_simplex_keeps_its_bytes(tmp_path, seed, threads):
    status, _ = bregprox(threads, "run-simplex", "--seed", seed, "--out",
                         str(tmp_path))
    assert status == 0
    assert directory_digest(tmp_path) == RUN_SIMPLEX_DIGESTS[seed]
