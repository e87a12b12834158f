"""Batch front door: check, solve, and oracle-compare market files.

Exit codes are a stable contract:

* 0 - success / all conditions hold
* 1 - malformed input: a model file or a command line (flag values included)
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
import functools
import math
import os
import re
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
    """The output directory (``--out``, else TREEDP_OUT, else .), created
    before any work runs; one that cannot be created is malformed input."""
    out = args.out or os.environ.get("TREEDP_OUT", ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)
    return out


def _write_json(path: str, payload: dict) -> str:
    """Write ``payload`` as JSON text to ``path``; return the text written."""
    text = dp.json_text(payload, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _report(path: str, payload: dict) -> None:
    """Write the report file at ``path`` and print the same text."""
    sys.stdout.write(_write_json(path, payload))


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
    build = market.build_problem_terminal if args.form == "terminal" else market.build_problem_cash
    try:
        return build(model, radius=args.radius, points=args.points)
    except ValueError as e:  # the grid flags
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


def _check_payload(problem) -> tuple[dict, int, cones.CheckReport]:
    report = problem.meta["validation"]  # the builder validated the model
    check = cones.check_horizon_positivity(problem)
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
    _solve_config(args)  # a malformed solver flag is malformed input here too
    out = _out_dir(args)
    payload, code, check = _check_payload(problem)
    payload["exit_code"] = code
    if check.witness:
        check.export_witness_csv(os.path.join(out, "witness.csv"))
    _report(os.path.join(out, "check_report.json"), payload)
    return code


def cmd_solve(args) -> int:
    model = _load(args.market)
    problem = _build(model, args)
    cfg = _solve_config(args)
    out = _out_dir(args)
    check_payload, check_code, _ = _check_payload(problem)
    if check_code != EXIT_OK and not args.force:
        payload = {"check": check_payload, "exit_code": check_code,
                   "note": "conditions not verified; rerun with --force to attempt anyway"}
        _report(os.path.join(out, "solve_report.json"), payload)
        return check_code
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


def _grid_spec(text: str) -> tuple[float, float, int]:
    """``--grids`` "lo:hi:count": lo < hi with a finite span (so every grid
    point is a finite number) and count >= 2."""
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        ok = n >= 2 and hi > lo and math.isfinite(hi - lo)
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"bad grid spec {text!r}, want lo:hi:count with lo < hi, a finite span "
            "and count >= 2")
    return lo, hi, n


def _tolerance(text: str) -> float:
    """``--tol``: a finite number >= 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"want a finite number >= 0, got {text!r}")
    return tol + 0.0  # -0.0 reads 0.0


def _oracle_grids(problem, lo: float, hi: float, n: int) -> dict[str, np.ndarray]:
    """Per-node decision grids of ``n`` points per axis on [lo, hi].  More
    joint choices than brute force's guard raise BudgetExceeded before
    any grid is built."""
    nodes = problem.decision_nodes()
    dims = [problem.decision_dim(node.id) for node in nodes]
    dp.check_enumeration([n**d for d in dims])
    axis = np.linspace(lo, hi, n)
    return {node.id: dp._decision_mesh(axis, d) for node, d in zip(nodes, dims)}


def cmd_oracle(args) -> int:
    model = _load(args.market)
    problem = _build(model, args)
    cfg = _solve_config(args)
    out = _out_dir(args)
    try:
        bf_value, bf_strategy = dp.brute_force(problem, _oracle_grids(problem, *args.grids))
    except (BudgetExceeded, NumericFailure) as e:
        code = EXIT_BUDGET if isinstance(e, BudgetExceeded) else EXIT_SOLVER
        payload = {"error": type(e).__name__, "message": str(e), "exit_code": code}
        _report(os.path.join(out, "oracle_report.json"), payload)
        return code
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


class _Parser(argparse.ArgumentParser):
    """A command-line error is malformed input: ``error: ...`` and exit 1
    (argparse's own exit 2 is ``EXIT_FAILS`` here).  Subparsers are made
    of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-" + digit, "." or inf/nan is a value (``--grids -1:1:3``).  argparse's
        # ``_parse_optional`` reads this private attribute; if a Python release
        # stops, tests/test_cli.py's space-separated --grids/--tol cases fail.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(EXIT_MALFORMED, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
    sp.add_argument("--grids", required=True, type=_grid_spec,
                    help="decision grid spec lo:hi:count")
    sp.add_argument("--tol", type=_tolerance, default=1e-3,
                    help="gap tolerance, times |brute-force value| when above 1 (>= 0)")
    sp.set_defaults(fn=cmd_oracle)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process (parsing leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
