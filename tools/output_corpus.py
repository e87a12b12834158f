"""Bit-for-bit output corpus of the existence check, the null space and the solve.

Prints one line per category: its name, the sha256 of the JSON map of its
per-case sha256s, its number of cases, and the least and the largest
nonzero |entry| of the cone rows that reached ``unit_rows``.  Run it on two
checkouts and compare the lines:

    PYTHONPATH=src python tools/output_corpus.py [--cases] [category ...]

``--cases`` also prints each case's sha256, to find the case that moved.
The categories:

* ``check``: ``treedp check`` on perfbench's two frictionless-check models
  at seeds 0-3 in both forms: exit code, stdout, ``check_report.json`` and
  ``witness.csv``.
* ``null_space``: the same 16 problems: the ``null_space`` bases or the
  ``NotASubspace`` message and ray, and ``project_problem``'s decision
  dims and node rows.
* ``stacked``: the stacked route's check report and null space on the
  limited, closed-stage and box markets of the tests' ``RANDOM_MARKETS``
  (as drawn and frictionless), on borrowing-limited and closed-stage
  binomials and on random history problems, both forms.
* ``float_priced``: float-priced ``random_frictionless_tree`` draws at
  seeds 11-13 x 200, both forms, node and stacked route: verdict,
  witness and method (2,400 checks).
* ``positivity``: every ``efun.positivity_off_origin`` call that
  ``tests/test_efun.py`` makes, hypothesis derandomized.
* ``solve``: ``treedp solve --radius 1 --points 9 --threads 1`` on
  perfbench's deep-binomial models at seeds 0-3 and on the tests'
  ``twin_market`` cases: exit code, stdout, ``solve_report.json``,
  ``policy.csv`` and ``value_tables.csv``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from conftest import exp_utility, random_frictionless_tree, stacked_route, twin_market  # noqa: E402
from test_cones import history_sum_problem, limited_model, random_history_problem  # noqa: E402
from test_dp import RANDOM_MARKETS, TWIN_CASES, _random_market  # noqa: E402

from treedp import _polyhedral, cli, cones, efun, market  # noqa: E402

FORMS = ("cash", "terminal")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _null_bytes(problem) -> tuple:
    try:
        ds = cones.null_space(problem)
    except cones.NotASubspace as err:
        return str(err), repr(err.ray)
    return [(k, b.shape, b.tobytes()) for k, b in ds.per_node.items()], ds.kind, repr(ds.meta)


def _check_bytes(problem) -> str:
    return repr(cones.check_horizon_positivity(problem).report_dict())


def _cli_bytes(model, args: list[str], outputs: tuple[str, ...]) -> str:
    """sha256 of ``treedp <args[0]> model.json <args[1:]> --out o`` on
    ``model`` in the current directory: exit code, stdout and ``outputs``."""
    Path("model.json").write_text(json.dumps(market.market_to_dict(model)))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([args[0], "model.json", *args[1:], "--out", "o"])
    files = [Path("o", f) for f in outputs]
    digest = _sha(code, stdout.getvalue(), *(f.read_bytes() if f.exists() else b"-" for f in files))
    for f in files:
        f.unlink(missing_ok=True)
    return digest


def check() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        for seed in range(4):
            for name, model in inputs.check_models(seed).items():
                for form in FORMS:
                    out[f"{name}-{seed}-{form}"] = _cli_bytes(
                        model, ["check", "--form", form], ("check_report.json", "witness.csv"))
    return out


def null_space() -> dict:
    out = {}
    for seed in range(4):
        for name, model in inputs.check_models(seed).items():
            for form in FORMS:
                problem = market._build_problem(model, form, 2.0, 33)
                null = _null_bytes(problem)
                projected = None
                if isinstance(null[0], list):
                    p = cones.project_problem(problem, cones.null_space(problem))
                    projected = p.decision_dims, [(t, rows.tobytes(), start.tobytes())
                                                  for t, (rows, start) in p.meta["node_rows"].items()]
                out[f"{name}-{seed}-{form}"] = _sha(null, projected)
    return out


def _stacked_problems():
    for seed, T, n_risky, extra in RANDOM_MARKETS:
        if seed in (13, 14, 16):
            for frictionless in (False, True):
                model = _random_market(seed, T, n_risky, frictionless=frictionless, **extra)
                for form in FORMS:
                    yield f"markets-{seed}-{frictionless}-{form}", market._build_problem(model, form, 0.8, 5)
    rng = np.random.default_rng(31)
    for k in range(60):
        model = limited_model(rng)
        if k % 3 == 2:
            model = dataclasses.replace(model, trading_stages=frozenset({0}))
        for form in FORMS:
            yield f"limited-{k}-{form}", market._build_problem(model, form, 1.0, 5)
    for k in range(30):
        model = random_frictionless_tree(
            rng, T=int(rng.integers(2, 4)), n_branch=int(rng.integers(2, 4)),
            n_assets=int(rng.integers(1, 3)), duplicated=False, balanced=k % 2 == 0,
            utility=market.SShapedUtility(2.0, 1.0, 1.0))
        model = dataclasses.replace(model, trading_stages=frozenset({0}))
        for form in FORMS:
            yield f"closed-{k}-{form}", market._build_problem(model, form, 1.0, 5)
    for k in range(80):
        yield f"history-{k}", random_history_problem(rng)[0]
    yield "history-sum", history_sum_problem()


def stacked() -> dict:
    out = {}
    for key, problem in _stacked_problems():
        p = stacked_route(problem)
        out[key] = _sha(_check_bytes(p), _null_bytes(p))
    return out


def float_priced() -> dict:
    out = {}
    utilities = (market.SShapedUtility(2.0, 1.0, 1.0), exp_utility())
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        for k in range(200):
            n_assets = int(rng.integers(1, 3))
            model = random_frictionless_tree(
                rng, T=int(rng.integers(2, 4)), n_branch=int(rng.integers(2, 4)),
                n_assets=n_assets, duplicated=n_assets == 2 and k % 3 == 0,
                balanced=k % 2 == 0, utility=utilities[k % 2], floats=True)
            for form in FORMS:
                problem = market._build_problem(model, form, 1.0, 5)
                for route, p in (("node", problem), ("stacked", stacked_route(problem))):
                    rep = cones.check_horizon_positivity(p)
                    out[f"{seed}-{k}-{form}-{route}"] = _sha(rep.verdict, rep.witness, rep.method)
    return out


def positivity() -> dict:
    import pytest
    from hypothesis import settings

    out = {}
    inner = efun.positivity_off_origin

    def recorded(f):
        verdict, witness = inner(f)
        out[str(len(out))] = _sha(verdict, None if witness is None else witness.tobytes())
        return verdict, witness

    settings.register_profile("output-corpus", derandomize=True, database=None)
    settings.load_profile("output-corpus")
    efun.positivity_off_origin = recorded
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            pytest.main([str(ROOT / "tests" / "test_efun.py"), "-q", "-p", "no:cacheprovider"])
    finally:
        efun.positivity_off_origin = inner
    return out


def solve() -> dict:
    models = {f"deep-binomial-{seed}": inputs.deep_binomial_model(seed) for seed in range(4)}
    models["twin"] = twin_market()
    models.update((f"twin-{case}", twin_market(**extra)) for case, (extra, _) in TWIN_CASES.items())
    args = ["solve", "--radius", "1", "--points", "9", "--threads", "1"]
    outputs = ("solve_report.json", "policy.csv", "value_tables.csv")
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        return {key: _cli_bytes(model, args, outputs) for key, model in models.items()}


CATEGORIES = {f.__name__: f for f in (check, null_space, stacked, float_priced, positivity, solve)}


def main(argv: list[str]) -> None:
    show_cases = "--cases" in argv
    names = [a for a in argv if a != "--cases"] or list(CATEGORIES)
    inner = _polyhedral.unit_rows
    for name in names:
        sizes = []

        def watched(rows):
            a = np.abs(np.asarray(rows, dtype=float))
            if a.any():
                sizes.append((a[a > 0].min(), a.max()))
            return inner(rows)

        _polyhedral.unit_rows = cones.unit_rows = watched
        try:
            cases = CATEGORIES[name]()
        finally:
            _polyhedral.unit_rows = cones.unit_rows = inner
        lo, hi = (min(s[0] for s in sizes), max(s[1] for s in sizes)) if sizes else (0.0, 0.0)
        print(name, _sha(json.dumps(cases).encode()), len(cases), f"rows |x| in [{lo:.3g}, {hi:.3g}]")
        if show_cases:
            for key, digest in cases.items():
                print(f"  {key} {digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
