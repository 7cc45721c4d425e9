"""Golden outputs: the default commands' bytes, as sha256 digests.

Each command runs as ``python -m bregprox`` at one BLAS thread, since the
bits of a BLAS reduction may depend on its thread count.  The digests hold
the ``run-simplex --seed 42`` output directory and the standard output of
``certify``, ``run-lasso`` and ``verify-identities --seed 0``.

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
    "run-lasso":
        "d9c985d8a57fad10e55c9a2424dd356207b5794f797a8e2ec33fd50437ea051f",
    "verify-identities --seed 0":
        "ade63ad1c3b67db7a52cbbd9bc5a60a419150eb106adcfc7367e573e652270b6",
}
RUN_SIMPLEX_DIGEST = \
    "531293ced893f5821df8905a72473b19d88b905dd63cfd4e7e5259e3cfb33d3d"


def bregprox(*argv):
    """Run the CLI in a subprocess at one BLAS thread; its exit code and
    standard output."""
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
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


@pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
def test_stdout_keeps_its_bytes(command):
    status, out = bregprox(*command.split())
    assert status == 0
    assert hashlib.sha256(out).hexdigest() == STDOUT_DIGESTS[command]


def test_run_simplex_keeps_its_bytes(tmp_path):
    status, _ = bregprox("run-simplex", "--seed", "42", "--out",
                         str(tmp_path))
    assert status == 0
    assert directory_digest(tmp_path) == RUN_SIMPLEX_DIGEST
