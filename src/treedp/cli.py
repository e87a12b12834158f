"""Batch front door: check, solve, and oracle-compare market files.

Exit codes are a stable contract:

* 0 - success / all conditions hold
* 1 - malformed input
* 2 - a checked condition fails (witness included in the report); for
  ``oracle``, the solve and brute force differ by more than the tolerance
  (the brute-force strategy is the witness)
* 3 - a check is undecided
* 4 - solver failure (search box exhausted, grids too coarse, or numbers the
  solver cannot order: a collapsed state grid or a NaN objective value)
* 5 - oracle enumeration budget exceeded

Reports are deterministic JSON (sorted keys); value tables and policies
are written as plot-ready CSV side files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import cones, dp, market
from .dp import BudgetExceeded, GridTooCoarse, NumericFailure, SearchBoxExhausted, SolveConfig
from .market import InvalidModel
from .tree import TreeFormatError

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_FAILS = 2
EXIT_UNDECIDED = 3
EXIT_SOLVER = 4
EXIT_BUDGET = 5


def _out_dir(args) -> str:
    out = args.out or os.environ.get("TREEDP_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dp.json_text(payload, indent=2) + "\n")


def _report(path: str, payload: dict) -> None:
    """Write the report file at ``path`` and print the report."""
    _write_json(path, payload)
    print(dp.json_text(payload, indent=2))


def _load(path: str):
    try:
        return market.load_market(path)
    except (InvalidModel, TreeFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


def _solve_config(args) -> SolveConfig:
    kwargs = {}
    if args.grid is not None:
        kwargs["grid_points"] = args.grid
    if args.bmax is not None:
        kwargs["box_max"] = args.bmax
    if args.eps is not None:
        kwargs["eps_opt"] = args.eps
        kwargs["eps_ref"] = args.eps
    if args.eps_gap is not None:
        kwargs["eps_gap"] = args.eps_gap
    if args.threads is not None:
        kwargs["threads"] = args.threads
    try:
        return SolveConfig(**kwargs)
    except ValueError as e:
        print(f"error: bad solver configuration: {e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


def _build(model, args):
    if args.form == "terminal":
        return market.build_problem_terminal(model, radius=args.radius, points=args.points)
    return market.build_problem_cash(model, radius=args.radius, points=args.points)


def _check_payload(problem, seed: int = 0) -> tuple[dict, int, cones.CheckReport]:
    report = problem.meta["validation"]  # the builder validated the model
    check = cones.check_horizon_positivity(problem, seed=seed)
    payload = {
        "validation": report.report_dict(),
        "horizon_positivity": check.report_dict(),
    }
    if check.verdict == "fails" or not report.required_ok():
        return payload, EXIT_FAILS, check
    if check.verdict == "undecided":
        return payload, EXIT_UNDECIDED, check
    return payload, EXIT_OK, check


def cmd_check(args) -> int:
    model = _load(args.market)
    problem = _build(model, args)
    payload, code, check = _check_payload(problem, seed=args.seed)
    payload["exit_code"] = code
    out = _out_dir(args)
    if check.witness:
        check.export_witness_csv(os.path.join(out, "witness.csv"))
    _report(os.path.join(out, "check_report.json"), payload)
    return code


def cmd_solve(args) -> int:
    model = _load(args.market)
    problem = _build(model, args)
    check_payload, check_code, _ = _check_payload(problem, seed=args.seed)
    if check_code != EXIT_OK and not args.force:
        payload = {"check": check_payload, "exit_code": check_code,
                   "note": "conditions not verified; rerun with --force to attempt anyway"}
        _report(os.path.join(_out_dir(args), "solve_report.json"), payload)
        return check_code
    cfg = _solve_config(args)
    out = _out_dir(args)
    try:
        result = dp.backward_solve(problem, cfg=cfg)
    except (SearchBoxExhausted, GridTooCoarse, NumericFailure) as e:
        payload = {
            "error": type(e).__name__,
            "message": str(e),
            "check": check_payload,
            "exit_code": EXIT_SOLVER,
        }
        _report(os.path.join(out, "solve_report.json"), payload)
        return EXIT_SOLVER
    verify = dp.verify_optimality(problem, result, result.strategy, cfg=cfg)
    payload = result.report_dict()
    payload["check"] = check_payload
    payload["verify"] = verify.report_dict()
    payload["exit_code"] = EXIT_OK
    _write_json(os.path.join(out, "solve_report.json"), payload)
    dp.export_policy_csv(result, os.path.join(out, "policy.csv"))
    dp.export_tables_csv(result, os.path.join(out, "value_tables.csv"))
    print(dp.json_text({k: payload[k] for k in ("value", "forward_value", "gap")}))
    return EXIT_OK


def _oracle_grids(problem, spec: str) -> dict[str, np.ndarray]:
    """Per-node decision grids from a "lo:hi:count" axis specification."""
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        if n < 2 or not hi > lo:
            raise ValueError
    except ValueError:
        print(f"error: bad grid spec {spec!r}, want lo:hi:count", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)
    axis = np.linspace(lo, hi, n)
    grids = {}
    for node in problem.decision_nodes():
        dim = problem.decision_dim(node.id)
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        grids[node.id] = np.stack(mesh, axis=-1).reshape(-1, dim)
    return grids


def cmd_oracle(args) -> int:
    model = _load(args.market)
    problem = _build(model, args)
    cfg = _solve_config(args)
    grids = _oracle_grids(problem, args.grids)
    out = _out_dir(args)
    try:
        bf_value, bf_strategy = dp.brute_force(problem, grids)
    except BudgetExceeded as e:
        payload = {"error": "BudgetExceeded", "message": str(e), "exit_code": EXIT_BUDGET}
        _report(os.path.join(out, "oracle_report.json"), payload)
        return EXIT_BUDGET
    try:
        result = dp.backward_solve(problem, cfg=cfg)
        solve_value = result.forward_value
    except (SearchBoxExhausted, GridTooCoarse, NumericFailure) as e:
        payload = {
            "error": type(e).__name__,
            "message": str(e),
            "brute_force_value": bf_value,
            "exit_code": EXIT_SOLVER,
        }
        _report(os.path.join(out, "oracle_report.json"), payload)
        return EXIT_SOLVER
    # only a finite value scales the tolerance: an infinite one (nothing on the
    # grids is feasible) is met only by the same infinity
    tol = max(args.tol, args.tol * abs(bf_value)) if math.isfinite(bf_value) else args.tol
    # two equal infinities differ by nothing (their difference would be NaN)
    gap = 0.0 if solve_value == bf_value else abs(solve_value - bf_value)
    code = EXIT_OK if gap <= tol else EXIT_FAILS
    payload = {
        "solve_value": solve_value,
        "solve_table_value": result.value,
        "brute_force_value": bf_value,
        "gap": gap,
        "tolerance": tol,
        "pass": code == EXIT_OK,
        "brute_force_strategy": {
            k: list(map(float, v)) for k, v in bf_strategy.values.items()
        },
        "exit_code": code,
    }
    _report(os.path.join(out, "oracle_report.json"), payload)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treedp",
        description="scenario-tree dynamic programming for nonconvex portfolio problems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("market", help="market model JSON file")
        sp.add_argument("--form", choices=("cash", "terminal"), default="cash")
        sp.add_argument("--radius", type=float, default=2.0,
                        help="holdings range covered by the state grids")
        sp.add_argument("--points", type=int, default=33,
                        help="state grid points per axis")
        sp.add_argument("--grid", type=int, default=None,
                        help="decision grid points per axis (odd, >= 5)")
        sp.add_argument("--bmax", type=float, default=None,
                        help="cap on the expanding search box")
        sp.add_argument("--eps", type=float, default=None,
                        help="optimality/refinement tolerance")
        sp.add_argument("--eps-gap", type=float, default=None,
                        help="relative table-vs-forward gap tolerance")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker processes a large stage search may split over "
                             "(>= 1, at most the usable CPUs); results do not depend on it")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks")
        sp.add_argument("--out", default=None, help="output directory (default: TREEDP_OUT or .)")

    sp = sub.add_parser("check", help="validate model conditions and horizon positivity")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("solve", help="run the backward recursion and extract a policy")
    common(sp)
    sp.add_argument("--force", action="store_true",
                    help="solve even when the checks do not pass")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("oracle", help="compare the solve against brute-force enumeration")
    common(sp)
    sp.add_argument("--grids", required=True, help="decision grid spec lo:hi:count")
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.set_defaults(fn=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
