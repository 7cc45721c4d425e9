"""The identity suites check every row of every block: a fault confined to
one row of one block must still fail its suite."""

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
    """The simplex-entropy map is off on one of its five calls, and only
    one sampled row, the true minimizer, shows it."""
    minimizer = {}
    calls = [0]

    def off_once(v, y, eta):
        x = prox.entropic_update(v, y, eta)
        calls[0] += 1
        if calls[0] != 3:
            return x
        minimizer["x"] = x
        return 0.99 * x + 0.01 / x.size

    def plant(g_kind, around, rng, size=None):
        z = sample_feasible(g_kind, around, rng, size=size)
        if "x" in minimizer:
            z[size // 2] = minimizer.pop("x")
        return z

    sample_feasible = prox.sample_feasible
    monkeypatch.setitem(prox._REGISTRY, ("simplex", "entropy"), off_once)
    monkeypatch.setattr(prox, "sample_feasible", plant)
    results = {r.name: r for r in identities.prox_optimality_suite(10_000, 0)}
    assert calls[0] == 5 and not minimizer
    assert not results["prox_optimality_simplex_entropy"].passed
    assert results["prox_optimality_l1_quadratic"].passed
    assert results["prox_optimality_simplex_quadratic"].passed
