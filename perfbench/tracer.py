"""Spans and counters around bregprox's public functions.

The wrappers are installed where the program looks the functions up: every
``bregprox`` module attribute that holds the original function object is
replaced, so calls made from inside the package (``run_experiment`` calling
``reference_simplex_ls``, ``check_three_point`` calling
``bregman_distance``) are seen as well as calls made by the benchmark.

Three levels, each including the ones before it:

* ``probe``: only ``run_solver``, one clock read on entry and one on exit,
  so the untraced run can report time per solver iteration;
* ``coarse``: spans for phases that run milliseconds or longer (CLI call,
  problem build, spectral norm, reference optimum, certificates, identity
  suites, prox optimality search);
* ``full``: adds the per-step calls (oracles, prox maps, Bregman
  distances, simplex projections), aggregated by name rather than stored.

A span's self time is its duration minus the time covered by its child
spans.  Self time is summed per layer (the module name) and per root span,
so the layers' self times under the root spans named as operations add up
to the traced operation time.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LEVELS = ("probe", "coarse", "full")

# spans kept with their parents: "<module>.<function>"
COARSE = (
    "cli.main",
    "experiments.run_experiment",
    "experiments.build_simplex_ls",
    "experiments.reference_simplex_ls",
    "functions.estimate_spectral_norm",
    "rates.constant_step_certificate",
    "rates.line_search_certificate",
    "rates.certify_trace",
    "identities.run_identity_suites",
    "identities.three_point_suite",
    "identities.linearity_suite",
    "identities.nonnegativity_suite",
    "identities.offset_identity_suite",
    "identities.prox_optimality_suite",
    "prox.verify_prox_optimality",
)

# per-step calls, aggregated by name
HOT = (
    "bregman.bregman_distance",
    "bregman.composite_generator",
    "bregman.check_three_point",
    "bregman.check_linearity",
    "prox.simplex_projection",
    "prox.prox_objective",
    "functions.evaluate_composite",
    "solvers.gppa_objective",
)


@dataclasses.dataclass
class Solve:
    """One ``run_solver`` call as the wrapper saw it."""

    variant: str
    start: float           # perf_counter when the call began
    seconds: float
    accepted: int = 0      # accepted iterations; 0 when the call raised
    candidates: int = 0    # accepted iterations plus backtracks
    ok: bool = False
    grad_calls: int = 0    # oracle calls made during the call (full level)
    value_calls: int = 0
    matvec_bytes: float = 0.0


def variant_of(H, cfg) -> str:
    generator = "pga" if H.kind == "quadratic" else "mirror"
    mode = "-linesearch" if cfg.line_search_enabled else "-constant"
    return generator + mode


class Tracer:
    def __init__(self, mods, level: str):
        if level not in LEVELS:
            raise ValueError(f"unknown trace level {level!r}")
        self.mods = mods
        self.level = level
        self.stack: List[list] = []        # frames: [child seconds, span id]
        self.spans: List[tuple] = []       # (id, parent, name, start, end)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        # self seconds by root-span name, then by layer
        self.self_s: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.root_s: Dict[str, float] = defaultdict(float)
        self.root_calls: Dict[str, int] = defaultdict(int)
        self.oracle = {"grad": 0, "value": 0, "bytes": 0.0}
        self.solves: List[Solve] = []
        self._root = ""
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- installing -------------------------------------------------------

    def __enter__(self):
        run_solver = self.mods["solvers"].run_solver
        self._patch(run_solver, self._solver_wrapper(run_solver))
        names = {"probe": (), "coarse": COARSE, "full": COARSE + HOT}
        for name in names[self.level]:
            module, attr = name.split(".")
            fn = getattr(self.mods[module], attr)
            self._patch(fn, self.wrap(name, fn, keep=name in COARSE))
        if self.level == "full":
            functions, prox = self.mods["functions"], self.mods["prox"]
            self._patch(functions.least_squares,
                        self._least_squares_wrapper(functions.least_squares))
            self._patch(prox.make_prox_map,
                        self._prox_map_wrapper(prox.make_prox_map))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _patch(self, original: Callable, wrapper: Callable) -> None:
        found = False
        for module in self.mods["all"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
                    found = True
        if not found:
            raise RuntimeError(
                f"{original!r} is not a bregprox module attribute")

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, keep: bool,
             oracle: Optional[str] = None, nbytes: float = 0.0) -> Callable:
        layer = name.split(".", 1)[0]
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = self.stack[-1][1] if self.stack else None
            if parent is None:
                self._root = name
            frame = [0.0, self._next_id]
            self._next_id += 1
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][0] += duration
                else:
                    self.root_s[name] += duration
                    self.root_calls[name] += 1
                self.calls[name] += 1
                self.total[name] += duration
                self.self_s[self._root][layer] += duration - frame[0]
                if keep:
                    self.spans.append((frame[1], parent, name, start, end))
                if oracle is not None:
                    self.oracle[oracle] += 1
                    self.oracle["bytes"] += nbytes

        wrapper.__wrapped__ = fn
        return wrapper

    def _solver_wrapper(self, run_solver: Callable) -> Callable:
        keep = self.level != "probe"
        inner = self.wrap("solvers.run_solver", run_solver, keep=keep) \
            if keep else run_solver

        def traced_run_solver(p, H, pm, x0, cfg):
            before = dict(self.oracle)
            start = time.perf_counter()
            solve = Solve(variant_of(H, cfg), start, 0.0)
            try:
                trace = inner(p, H, pm, x0, cfg)
            finally:
                solve.seconds = time.perf_counter() - start
                self.solves.append(solve)
            solve.ok = True
            solve.accepted = len(trace.records) - 1
            solve.candidates = solve.accepted + sum(
                r.backtracks for r in trace.records)
            solve.grad_calls = self.oracle["grad"] - before["grad"]
            solve.value_calls = self.oracle["value"] - before["value"]
            solve.matvec_bytes = self.oracle["bytes"] - before["bytes"]
            return trace

        traced_run_solver.__wrapped__ = run_solver
        return traced_run_solver

    def _least_squares_wrapper(self, least_squares: Callable) -> Callable:
        def traced_least_squares(A, b, lipschitz=None):
            f = least_squares(A, b, lipschitz=lipschitz)
            nbytes = float(f.A.nbytes)
            # a value call reads A once (A x); a gradient reads it twice
            # (A x, then A^T r): bytes computed from the array size
            return dataclasses.replace(
                f,
                value=self.wrap("functions.value", f.value, keep=False,
                                oracle="value", nbytes=nbytes),
                grad=self.wrap("functions.grad", f.grad, keep=False,
                               oracle="grad", nbytes=2.0 * nbytes),
            )

        traced_least_squares.__wrapped__ = least_squares
        return traced_least_squares

    def _prox_map_wrapper(self, make_prox_map: Callable) -> Callable:
        def traced_make_prox_map(g_kind, H_kind):
            pm = make_prox_map(g_kind, H_kind)
            return dataclasses.replace(
                pm, solve=self.wrap(f"prox.solve_{H_kind}", pm.solve,
                                    keep=False))

        traced_make_prox_map.__wrapped__ = make_prox_map
        return traced_make_prox_map

    # -- reading ----------------------------------------------------------

    def per_call_s(self, name: str) -> float:
        n = self.calls.get(name, 0)
        return self.total.get(name, 0.0) / n if n else 0.0

    def layer_self_s(self, root: str) -> Dict[str, float]:
        """Self seconds per layer under root spans named ``root``, per root
        span."""
        n = self.root_calls.get(root, 0)
        if not n:
            return {}
        return {layer: s / n for layer, s in self.self_s.get(root, {}).items()}

    def dump(self) -> dict:
        return {
            "level": self.level,
            "spans": [
                {"id": i, "parent": p, "name": name, "start": s, "end": e}
                for i, p, name, s, e in self.spans
            ],
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": {r: dict(v) for r, v in self.self_s.items()},
            "oracle": dict(self.oracle),
            "solves": [dataclasses.asdict(s) for s in self.solves],
        }
