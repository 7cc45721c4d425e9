"""The identity suites check every row of every block: a fault confined to
one row of one block must still fail its suite."""

import tracemalloc

import numpy as np
import pytest

from bregprox import bregman, identities, prox

FAULT = 1e-9  # above the three suites' thresholds (1e-10, 1e-12)


def one_row_fault(fn, row):
    """fn with FAULT added to its value at one row only: the ``row``-th row
    it is given, counted over all its calls."""
    seen = [0]

    def faulty(x, y):
        d = np.array(fn(x, y), dtype=float, ndmin=1)
        if 0 <= row - seen[0] < d.size:
            d[row - seen[0]] += FAULT
        seen[0] += d.size
        return d if np.ndim(x) > 1 else float(d[0])

    faulty.seen = seen
    return faulty


@pytest.mark.parametrize("suite,name", [
    (identities.three_point_suite, "three_point_entropy"),
    (identities.linearity_suite, "linearity_quadratic_entropy"),
    (identities.nonnegativity_suite, "bregman_nonnegativity"),
])
def test_one_faulty_row_fails_its_suite(monkeypatch, suite, name):
    # row 1500 lies inside a block, away from its edges
    faulty = one_row_fault(bregman.kl_divergence, 1500)
    monkeypatch.setattr(bregman, "kl_divergence", faulty)
    results = {r.name: r for r in suite(3000, 0)}
    assert faulty.seen[0] > 1500
    assert not results[name].passed
    assert results[name].worst >= FAULT / 2
    others = [r for n, r in results.items() if n != name]
    assert all(r.passed for r in others)


def test_one_wrong_prox_output_fails_its_suite(monkeypatch):
    """The simplex-entropy map is 1% off on one of its five calls; its
    optimality gap shows it with no point planted anywhere."""
    calls = [0]

    def off_once(v, y, eta):
        x = prox.entropic_update(v, y, eta)
        calls[0] += 1
        return 0.99 * x + 0.01 / x.size if calls[0] == 3 else x

    monkeypatch.setitem(prox._REGISTRY, ("simplex", "entropy"), off_once)
    results = {r.name: r for r in identities.prox_optimality_suite(0)}
    assert calls[0] == 5
    assert not results["prox_optimality_simplex_entropy"].passed
    assert results["prox_optimality_simplex_entropy"].worst > 1e-3
    assert results["prox_optimality_l1_quadratic"].passed
    assert results["prox_optimality_simplex_quadratic"].passed


class FirstDraw(Exception):
    pass


def test_memory_before_the_first_draw_does_not_grow_with_samples(
        monkeypatch):
    """A suite walks its samples block by block: at 10^9 samples nothing
    of their count is held before the first draw.  A list of the block
    sizes took about 8 MiB and 2 s here, 8 GB at 10^12 samples."""
    def first_draw(*args):
        raise FirstDraw

    monkeypatch.setattr(identities, "sample_feasible", first_draw)
    # a first call makes numpy's lazy imports, which are not the suite's
    with pytest.raises(FirstDraw):
        identities.three_point_suite(1, 0)
    tracemalloc.start()
    try:
        with pytest.raises(FirstDraw):
            identities.three_point_suite(10**9, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
