"""Outside-in layer tracing for the benchmark.

``Tracer.install`` wraps public functions and methods of the ``treedp``
layers (``tree``, ``efun``, ``market``, ``dp``, ``cones``, ``_polyhedral``,
``cli``) from outside the package; ``uninstall`` restores the originals.
No package source changes.

Each wrapped call is a span: its duration is charged to the span's name,
and its self time is the duration minus the time of the spans it caused.
Spans nest on a stack kept per thread, so the solver's worker threads
keep their own stacks.  Spans are folded into per-name totals when they
close rather than stored one by one: the exact recursion opens several
hundred thousand of them.  The hot ``ScenarioTree`` accessors are wrapped
with counters only, since timing millions of sub-microsecond calls
would distort the solve they belong to.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

from treedp import _polyhedral, cli, cones, dp, efun, market, tree

#: spans that re-enter themselves through an expression tree (a Sum calls
#: its terms' value_many) count once, at the outermost call
_REENTRANT = {"efun.value_many", "efun.sublevel_cone"}

#: per-layer metrics of a traced run: name -> unit
PER_LAYER: dict[str, str] = {
    "dp.interp.calls": "count",
    "dp.interp.rows": "count",
    "dp.interp.self_s": "s",
    "dp.minimize.calls": "count",
    "dp.minimize.states": "count",
    "dp.minimize.evals": "count",
    "dp.minimize.rows": "count",
    "dp.minimize.expansions": "count",
    "dp.minimize.sweeps": "count",
    "dp.minimize.self_s": "s",
    "dp.minimize.rows_per_state": "rows/state",
    "market.transition.calls": "count",
    "market.transition.rows": "count",
    "market.transition.self_s": "s",
    "market.cost.calls": "count",
    "market.cost.rows": "count",
    "market.cost.self_s": "s",
    "efun.value_many.calls": "count",
    "efun.value_many.rows": "count",
    "efun.value_many.self_s": "s",
    "tree.path.calls": "count",
    "tree.node.calls": "count",
    "tree.nodes_at.calls": "count",
    "dp.lower_bound.calls": "count",
    "dp.lower_bound.s": "s",
    "dp.solve.s": "s",
    "dp.forward.s": "s",
    "dp.verify.s": "s",
    "dp.forward_exact.s": "s",
    "dp.verify_exact.s": "s",
    "dp.brute_force.s": "s",
    "dp.export.s": "s",
    "dp.export.bytes": "B",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "market.load.s": "s",
    "market.validate.s": "s",
    "polyhedral.lp.calls": "count",
    "polyhedral.lp.s": "s",
    "cones.check.self_s": "s",
    "efun.horizon.s": "s",
    "efun.sublevel_cone.s": "s",
    "polyhedral.kernel_basis.calls": "count",
    "polyhedral.kernel_basis.s": "s",
    "cones.null_space.self_s": "s",
    "cones.project.s": "s",
    "cones.no_arbitrage_lp.s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer"):
        self.stack: list[list] = []  # frames [name, start, time of child spans]
        self.stats: defaultdict[str, float] = defaultdict(float)
        with tracer._lock:
            tracer._all_stats.append(self.stats)


class Tracer:
    """Span stacks and per-name totals; one instance per traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._all_stats: list[defaultdict[str, float]] = []
        self._local = _ThreadState(self)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name``."""
        state = self._local
        stack = state.stack
        if name in _REENTRANT and stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += dur
            stats = state.stats
            stats[name + ".calls"] += 1
            stats[name + ".s"] += dur
            stats[name + ".self_s"] += dur - frame[2]

    def add(self, key: str, amount: float) -> None:
        """Add to a counter of the calling thread (no lock: per-thread totals)."""
        self._local.stats[key] += amount

    def totals(self) -> dict[str, float]:
        """Per-name totals summed over every thread that recorded."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for stats in self._all_stats:
                for k, v in stats.items():
                    out[k] += v
        return dict(out)

    # -- wrappers --------------------------------------------------------

    def spanned(self, name: str, fn, rows_arg: int | None = None):
        """A wrapper of ``fn`` that records a span, plus the row count of
        positional argument ``rows_arg`` (an array) when given."""

        def wrapper(*args, **kwargs):
            if rows_arg is not None:
                self.add(name + ".rows", len(args[rows_arg]))
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._local.stats[name + ".calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, new) -> None:
        """Replace a module function in every treedp module that imported it."""
        old = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name == "treedp" or name.startswith("treedp."):
                for key, val in list(vars(mod).items()):
                    if val is old:
                        self._patch(mod, key, new)

    def instrument_problem(self, problem: dp.Problem) -> dp.Problem:
        """Trace the problem's state transition (frozen dataclass, patched in place)."""
        sm = problem.state_map
        if not hasattr(sm.transition, "__wrapped__"):
            self._patches.append((sm, "transition", sm.transition))
            object.__setattr__(
                sm, "transition", self.spanned("market.transition", sm.transition, rows_arg=1)
            )
        return problem

    def install(self, problems=()) -> None:
        """Wrap the layers' public entry points; ``problems`` built before
        tracing started get their transitions instrumented too."""
        for p in problems:
            self.instrument_problem(p)
        span = self.spanned
        fn = self._patch_function

        # tree: counters only
        for attr in ("path", "node", "nodes_at"):
            self._patch(tree.ScenarioTree, attr,
                        self.counted(f"tree.{attr}", getattr(tree.ScenarioTree, attr)))

        # efun
        for cls in vars(efun).values():
            if isinstance(cls, type) and issubclass(cls, efun.ExtFun) and "value_many" in vars(cls):
                self._patch(cls, "value_many",
                            span("efun.value_many", vars(cls)["value_many"], rows_arg=1))
        fn(efun, "horizon", span("efun.horizon", efun.horizon))
        fn(efun, "horizon_with_flags", span("efun.horizon", efun.horizon_with_flags))
        fn(efun, "sublevel_zero_cone", span("efun.sublevel_cone", efun.sublevel_zero_cone))

        # market
        for cls in (market.Frictionless, market.PowerIlliquidity):
            self._patch(cls, "cost_many", span("market.cost", vars(cls)["cost_many"], rows_arg=2))
        build = market.build_problem_cash
        fn(market, "build_problem_cash",
           lambda *a, **k: self.instrument_problem(self.call("market.build", build, *a, **k)))
        fn(market, "load_market", span("market.load", market.load_market))
        fn(market, "validate", span("market.validate", market.validate))

        # dp
        fn(dp, "interp_multilinear", span("dp.interp", dp.interp_multilinear, rows_arg=2))
        fn(dp, "minimize_batch", self._minimize_wrapper(dp.minimize_batch))
        self._patch(dp.Problem, "expected_lower_bound",
                    span("dp.lower_bound", dp.Problem.expected_lower_bound))
        fn(dp, "backward_solve", span("dp.solve", dp.backward_solve))
        fn(dp, "forward_pass", self._mode_wrapper(dp.forward_pass, "mode", "dp.forward"))
        fn(dp, "verify_optimality", self._mode_wrapper(dp.verify_optimality, "method", "dp.verify"))
        fn(dp, "brute_force", span("dp.brute_force", dp.brute_force))
        for attr in ("export_tables_csv", "export_policy_csv"):
            export = span("dp.export", getattr(dp, attr))
            fn(dp, attr, self._bytes_wrapper("dp.export.bytes", export, 1))

        # cones and the LP/SVD kernels under them
        fn(_polyhedral, "kernel_basis", span("polyhedral.kernel_basis", _polyhedral.kernel_basis))
        self._patch(_polyhedral, "linprog", span("polyhedral.lp", _polyhedral.linprog))
        fn(cones, "check_horizon_positivity", span("cones.check", cones.check_horizon_positivity))
        fn(cones, "null_space", span("cones.null_space", cones.null_space))
        fn(cones, "project_problem", span("cones.project", cones.project_problem))
        fn(cones, "no_arbitrage_lp", span("cones.no_arbitrage_lp", cones.no_arbitrage_lp))

        # cli
        fn(cli, "main", span("cli", cli.main))
        self._patch(cli, "_write_json", self._bytes_wrapper("cli.report_bytes", cli._write_json, 0))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dp.StateMap):
                object.__setattr__(owner, attr, old)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def _minimize_wrapper(self, orig):
        def minimize_batch(objective, dim, n_states, *args, **kwargs):
            def counted(I, X):
                stats = self._local.stats
                stats["dp.minimize.evals"] += 1
                stats["dp.minimize.rows"] += len(I)
                return objective(I, X)

            vals, xs, diag = self.call("dp.minimize", orig, counted, dim, n_states, *args, **kwargs)
            stats = self._local.stats
            stats["dp.minimize.states"] += n_states
            stats["dp.minimize.expansions"] += diag["expansions"]
            stats["dp.minimize.sweeps"] += diag["sweeps"]
            return vals, xs, diag

        minimize_batch.__wrapped__ = orig
        return minimize_batch

    def _mode_wrapper(self, orig, param: str, name: str):
        """Span named ``name`` or ``name + "_exact"`` by the ``param`` argument."""
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            exact = bound.arguments.get(param) == "exact"
            return self.call(name + "_exact" if exact else name, orig, *args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def _bytes_wrapper(self, key: str, orig, path_arg: int):
        """Count the bytes of the file ``orig`` wrote to its argument ``path_arg``."""

        def wrapper(*args):
            out = orig(*args)
            self.add(key, os.path.getsize(args[path_arg]))
            return out

        wrapper.__wrapped__ = orig
        return wrapper


def per_layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The PER_LAYER values (except the trace.* ones) from span totals."""
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name == "dp.minimize.rows_per_state":
            states = totals.get("dp.minimize.states", 0.0)
            out[name] = totals.get("dp.minimize.rows", 0.0) / states if states else 0.0
        elif PER_LAYER[name] == "s":
            out[name] = totals.get(name, 0.0)
        else:
            out[name] = int(round(totals.get(name, 0.0)))
    return out
