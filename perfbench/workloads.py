"""The benchmark's three workloads: set-up, timed operations, correctness gates.

Each workload mirrors one step of the paper's pipeline and loads a
different layer:

* ``deep-binomial``: ``treedp solve`` on a 1023-node tree with 81 states
  per node.  Many nodes with small batches, so per-call overhead in
  ``dp`` and ``market``, the ``tree`` accessors, the lower-bound pass and
  the CSV export dominate; the existence check is analytic.
* ``fixtures-certify``: the six oracle fixtures solved at one and two
  threads, then certified by the exact forward pass, the exact
  verifier and brute force.  sshaped_t2 runs ``dp`` on 37,249-state
  batches; the nested exact recursion runs it on batches of a few states.
* ``frictionless-check``: ``treedp check`` plus ``null_space`` and
  ``project_problem`` on two frictionless trees, with ``no_arbitrage_lp``
  as the reference.  All the work is in ``cones``, ``_polyhedral`` and the
  ``efun`` horizon calculus; ``dp`` never runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# the market loader imports jsonschema on first use; load it with the rest
# so that the first timed operation does not pay for it
import jsonschema  # noqa: F401

from treedp import cli, cones, dp, market

import inputs

CFG1 = dp.SolveConfig()
CFG2 = dp.SolveConfig(threads=2)


@dataclass
class Op:
    """One attempted operation and the outcome of its gates."""

    label: str
    result: object = None
    ok: bool = True


@dataclass
class Pass:
    """One pass over a workload's operations."""

    timings: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def run(self, kind: str | None, label: str, fn) -> Op:
        """Run ``fn()`` as one operation; its wall time adds to ``kind``
        (None: untimed).  An exception fails the operation."""
        op = Op(label)
        self.attempted += 1
        t0 = perf_counter()
        try:
            op.result = fn()
        except Exception:
            self.expect(op, False, "raised\n" + traceback.format_exc())
        if kind is not None:
            self.timings[kind] += perf_counter() - t0
        return op

    def expect(self, op: Op, ok: bool, detail: str) -> bool:
        """Gate ``op`` on ``ok``; an operation fails at most once."""
        if not ok:
            self.failures.append(f"{op.label}: {detail}")
            if op.ok:
                op.ok = False
                self.failed += 1
        return ok


def _cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``treedp`` run: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, buf.getvalue()


def _write_model(model: market.MarketModel, path: str) -> dict:
    spec = market.market_to_dict(model)
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return spec


# ---------------------------------------------------------------------------
# deep-binomial
# ---------------------------------------------------------------------------


class DeepBinomial:
    name = "deep-binomial"
    kinds = ("solve_s",)
    SOLVE_ARGS = ["--radius", "1", "--points", "9", "--threads", "1"]

    def setup(self, seed: int, workdir: str) -> dict:
        path = os.path.join(workdir, "deep.json")
        spec = _write_model(inputs.deep_binomial_model(seed), path)
        return {"path": path, "out": os.path.join(workdir, "solve"),
                "hash": inputs.model_hash([spec]), "problems": []}

    def run_pass(self, state: dict) -> Pass:
        p = Pass()
        op = p.run("solve_s", "deep-binomial solve",
                   lambda: _cli(["solve", state["path"], *self.SOLVE_ARGS, "--out", state["out"]]))
        if op.ok:
            code, stdout = op.result
            if p.expect(op, code == 0, f"exit code {code}"):
                summary = json.loads(stdout.strip().splitlines()[-1])
                p.values = summary
                tol = CFG1.eps_gap * (1.0 + abs(summary["value"]))
                p.expect(op, math.isfinite(summary["value"]) and summary["gap"] <= tol,
                         f"gap {summary['gap']} exceeds {tol}")
        return p


# ---------------------------------------------------------------------------
# fixtures-certify
# ---------------------------------------------------------------------------


def _fingerprint(res: dp.SolveResult) -> tuple:
    """Bytes of everything criterion 10 requires to match across thread counts."""
    return (
        res.value, res.forward_value,
        tuple(sorted((k, v.tobytes()) for k, v in res.strategy.values.items())),
        tuple(sorted((k, t.values.tobytes()) for k, t in res.pre_tables.items())),
        tuple(sorted((k, t.values.tobytes()) for k, t in res.post_tables.items())),
    )


def _certify(fx: inputs.Fixture, res: dp.SolveResult):
    fwd_value, strategy = dp.forward_pass(
        fx.problem, res.pre_tables, res.post_tables, res.policy, CFG1, mode="exact")
    report = dp.verify_optimality(fx.problem, res, strategy, cfg=CFG1, method="exact")
    bf, _ = dp.brute_force(fx.oracle_target(), fx.bf_grids)
    return fwd_value, report, bf


class FixturesCertify:
    name = "fixtures-certify"
    kinds = ("solve_s", "solve_threads2_s", "certify_s")

    def setup(self, seed: int, workdir: str) -> dict:
        fixtures = inputs.fixtures()  # the test fixtures whatever the seed
        problems = [f.problem for f in fixtures] + [
            f.oracle_problem for f in fixtures if f.oracle_problem is not None]
        return {"fixtures": fixtures, "problems": problems,
                "hash": inputs.model_hash([f.spec for f in fixtures])}

    def run_pass(self, state: dict) -> Pass:
        p = Pass()
        for fx in state["fixtures"]:
            s1 = p.run("solve_s", f"{fx.name} solve", lambda: dp.backward_solve(fx.problem, cfg=CFG1))
            s2 = p.run("solve_threads2_s", f"{fx.name} solve threads=2",
                       lambda: dp.backward_solve(fx.problem, cfg=CFG2))
            if s1.ok and s2.ok:
                p.expect(s2, _fingerprint(s1.result) == _fingerprint(s2.result),
                         "threads=2 strategy or tables differ from threads=1")
            res = s1.result
            c = p.run("certify_s", f"{fx.name} certify", lambda: _certify(fx, res))
            if not c.ok:
                continue
            fwd_exact, report, bf = c.result
            tol = max(1e-3, 1e-3 * abs(bf))
            p.expect(c, abs(res.forward_value - bf) <= tol,
                     f"solved {res.forward_value} vs brute force {bf}, tolerance {tol}")
            p.expect(c, report.optimal,
                     f"exact verification not optimal: max node gap {report.max_gap()}")
            p.values[fx.name] = {
                "value": res.value, "forward_value": res.forward_value,
                "forward_exact_value": fwd_exact, "brute_force_value": bf,
                "optimal": report.optimal,
            }
        return p


# ---------------------------------------------------------------------------
# frictionless-check
# ---------------------------------------------------------------------------


def _null_and_project(problem: dp.Problem) -> tuple[int, int]:
    """(null-space dimension, total decision dimension after projection)."""
    directions = cones.null_space(problem)
    projected = cones.project_problem(problem, directions)
    null_dim = sum(b.shape[1] for b in directions.per_node.values())
    kept = sum(projected.decision_dim(n.id) for n in projected.decision_nodes())
    return null_dim, kept


class FrictionlessCheck:
    name = "frictionless-check"
    kinds = ("check_s", "nullspace_s")

    def setup(self, seed: int, workdir: str) -> dict:
        cases = {}
        specs = []
        for key, model in inputs.check_models(seed).items():
            path = os.path.join(workdir, f"{key}.json")
            specs.append(_write_model(model, path))
            # the CLI's default grids: the check and the null space see one problem
            cases[key] = {"model": model, "path": path, "out": os.path.join(workdir, key),
                          "problem": market.build_problem_cash(model)}
        return {"cases": cases, "problems": [c["problem"] for c in cases.values()],
                "hash": inputs.model_hash(specs)}

    def run_pass(self, state: dict) -> Pass:
        p = Pass()
        for key, case in state["cases"].items():
            model = case["model"]
            n_dec = len(case["problem"].decision_nodes())
            dup = key == "duplicated"
            want_code = cli.EXIT_FAILS if dup else cli.EXIT_OK
            # identical assets leave n_risky - 1 null directions per decision node
            want_null = n_dec * (model.n_risky - 1)
            values = p.values[key] = {}

            c = p.run("check_s", f"{key} check", lambda: _cli(["check", case["path"], "--out", case["out"]]))
            if c.ok:
                code, stdout = c.result
                verdict = json.loads(stdout)["horizon_positivity"]
                values.update(exit_code=code, verdict=verdict["verdict"])
                p.expect(c, code == want_code, f"exit code {code}, want {want_code}")
                p.expect(c, verdict["verdict"] == ("fails" if dup else "holds"),
                         f"verdict {verdict['verdict']}")
                p.expect(c, bool(verdict["witness"]) == dup, "witness presence")

            n = p.run("nullspace_s", f"{key} null space", lambda: _null_and_project(case["problem"]))
            if n.ok:
                null_dim, kept = n.result
                values["null_dim"] = null_dim
                p.expect(n, null_dim == want_null, f"null-space dimension {null_dim}, want {want_null}")
                p.expect(n, kept == n_dec * model.n_risky - null_dim,
                         f"projection keeps {kept} decision coordinates")

            r = p.run(None, f"{key} no-arbitrage reference",
                      lambda: cones.no_arbitrage_lp(model.tree, model.prices))
            if r.ok:
                values["arbitrage"] = r.result is not None
                p.expect(r, r.result is None, "the reference LP found an arbitrage")
        return p


WORKLOADS = {w.name: w for w in (DeepBinomial(), FixturesCertify(), FrictionlessCheck())}
