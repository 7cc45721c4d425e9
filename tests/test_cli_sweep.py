"""A sweep of the CLI's input space: argv drawn for all four subcommands, at
small sizes and extreme floats, run in process with every warning an error
and numpy's overflow raised, which ``run_solver`` keeps inside its loop.

No input the CLI accepts may end in an uncaught error.  Each call exits
with 0-3 and writes to stderr only the lines the CLI documents; no
certificate over no accepted step reads ok, and a variant that finished
keeps its CSV.  No message text is pinned: the suites of each subcommand
do that.
"""

import contextlib
import io
import re
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bregprox import cli
from bregprox.experiments import VARIANTS


def mostly(usual, other, share=0.9):
    """``usual`` in a ``share`` of the draws, else ``other``."""
    return st.floats(0.0, 1.0).flatmap(
        lambda u: usual if u < share else other)


# a float flag is left out (its default) or set to an ordinary value in
# half the draws, else to an extreme value or any float; a count or a seed
# is drawn from its valid range, else it is 0 or -1
FLOATS = mostly(st.one_of(st.none(), st.floats(1e-3, 1e3)), st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-310, 1e-300, 1e300,
                     1e308, float("inf"), float("-inf"), float("nan"),
                     0.5, 0.99, 1.0, 2.0]),
    st.floats()), share=0.5)
SIZES = mostly(st.integers(1, 5), st.integers(-1, 0))
ITERS = mostly(st.integers(1, 20), st.integers(-1, 0))
SEEDS = mostly(st.integers(0, 2**40), st.just(-1))
# a subset of the variants, else a list with a repeat
VARIANT_LISTS = mostly(
    st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from(VARIANTS), min_size=2, max_size=4)).map(
        lambda v: ["--variants=" + ",".join(v)])

# stderr lines the CLI may print: an error, a variant's solver failure,
# and argparse's usage (its lines of options too) and its error line
STDERR = re.compile(
    r"error: .*"
    rf"|({'|'.join(VARIANTS)}): solver failure: .*"
    r"|usage: bregprox.*|\s+\[.*\]|bregprox [\w-]+: error: .*")


def command(name, *extra, **flags):
    """argv of subcommand ``name``: each of ``flags`` as --flag=value, so
    that a value such as -inf is not read as a flag, unless it is None,
    then each of ``extra``, a strategy of argument lists."""
    def argv(values):
        *values, tail = values
        return [name] + [f"--{f.replace('_', '-')}={value!r}"
                         for f, value in zip(flags, values)
                         if value is not None] + sum(tail, [])
    return st.tuples(*flags.values(), st.tuples(*extra)).map(argv)


def switch(name):
    return st.sampled_from([[], [name]])


ARGVS = st.one_of(
    command("run-simplex", VARIANT_LISTS, switch("--timing"), rows=SIZES,
            cols=SIZES, seed=SEEDS, eta0=FLOATS, alpha=FLOATS,
            max_iters=ITERS),
    command("run-lasso", gamma=FLOATS, dim=SIZES, seed=SEEDS,
            eta_ratio=FLOATS),
    command("certify", rows=SIZES, cols=SIZES, seed=SEEDS, iters=ITERS),
    command("verify-identities", switch("--inject-fault"), seed=SEEDS,
            samples=mostly(st.integers(1, 40), st.integers(-1, 0))))


def call(argv):
    """Exit code, stdout, stderr and the ExperimentResult (or None) of one
    in-process call of the CLI."""
    out, err, results = io.StringIO(), io.StringIO(), []
    run_experiment = cli.run_experiment

    def spy(spec):
        results.append(run_experiment(spec))
        return results[-1]

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "run_experiment", spy), \
            warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), \
        results[0] if results else None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=ARGVS)
# both line searches fail at iteration 1: two certificates over no step
@example(argv="run-simplex --rows=3 --cols=4 --seed=1 --eta0=1e300 "
              "--alpha=0.99 --max-iters=5".split())
# the mirror step's shift spans twice eta max |v_i|: only its gate keeps
# the shift from overflowing
@example(argv="run-simplex --rows=1 --cols=7 --seed=0 --eta0=1e308 "
              "--alpha=1e-300 --max-iters=1".split())
def test_every_drawn_input_ends_as_documented(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("sweep") / "out"
    if argv[0] == "run-simplex":
        argv = argv + [f"--out={out}"]
    code, stdout, stderr, result = call(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    stray = [line for line in stderr.splitlines()
             if not STDERR.fullmatch(line)]
    assert not stray, (argv, stray)
    if result is None:
        return
    for line in stdout.splitlines():
        if line.endswith("[ok]"):
            # a certificate over no accepted step claims nothing
            trace = result.traces[line.split(":", 1)[0]]
            assert len(trace.objective) > 1, (argv, line)
    if argv[0] == "run-simplex":
        # every trace, a failed variant's partial one too, keeps its CSV
        for variant in result.traces:
            assert (out / f"{variant}.csv").is_file(), (argv, variant)
