"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity.  Run with -s to see the lines.

The criteria are ordered so that the six benchmark solves computed for the
oracle check are reused by the later ones.
"""

import json
import math
import time

import numpy as np

import treedp as td
from treedp import cli, cones, dp, market
from treedp.efun import Sum

from conftest import (
    BENCH_BUILDERS,
    arbitrage_model,
    axis_grid,
    get_bench,
    get_solved,
    random_frictionless_model,
)
from test_efun import LADDERS, agree, oracle_fixtures

INF = math.inf
SEED = 20250811


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for name in BENCH_BUILDERS:
        bench, res = get_solved(name)
        bf, _ = dp.brute_force(bench.oracle_target(), bench.bf_grids)
        tol = max(1e-3, 1e-3 * abs(bf))
        gap = abs(res.forward_value - bf)
        assert gap <= tol, (name, res.forward_value, bf)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-3 and elapsed <= 60.0,
        f"oracle equivalence on {len(BENCH_BUILDERS)} fixtures: "
        f"worst gap {worst:.2e} <= 1e-3, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_02_expectation_chain_dominates():
    rng = np.random.default_rng(SEED)
    worst = INF
    for name in BENCH_BUILDERS:
        bench, res = get_solved(name)
        problem = bench.problem
        nodes = [n.id for n in problem.decision_nodes()]
        for _ in range(100):
            strat = td.AdaptedSequence({
                nid: rng.uniform(-bench.draw_radius, bench.draw_radius,
                                 problem.decision_dim(nid))
                for nid in nodes
            })
            chain = dp.expectation_chain(problem, strat, result=res)
            margin = min(v - res.value for v in chain)
            worst = min(worst, margin)
            assert margin >= -1e-6, (name, chain, res.value)
    report(
        2,
        worst >= -1e-6,
        f"E h_t chains of 100 random strategies per fixture dominate the "
        f"root value: worst margin {worst:+.2e} >= -1e-6",
    )


def test_criterion_03_optimality_characterization():
    worst_diff = 0.0
    worst_gap = 0.0
    for name in BENCH_BUILDERS:
        bench = get_bench(name)
        res = dp.backward_solve(bench.problem, cfg=bench.cfg, forward="exact")
        rep = dp.verify_optimality(
            bench.problem, res, res.strategy, cfg=bench.cfg, method="exact"
        )
        diffs = [abs(rep.chain[t + 1] - rep.chain[t]) for t in range(len(rep.chain) - 1)]
        worst_diff = max(worst_diff, max(diffs, default=0.0))
        worst_gap = max(worst_gap, rep.max_gap())
        assert rep.optimal, (name, rep.chain, rep.node_gaps)
    # perturbation on the strictly nonconvex fixture breaks an equality
    bench = get_bench("sshaped_t2")
    res = dp.backward_solve(bench.problem, cfg=bench.cfg, forward="exact")
    bumped = dict(res.strategy.values)
    bumped["u"] = bumped["u"] + 0.1
    broken = dp.verify_optimality(
        bench.problem, res, td.AdaptedSequence(bumped), cfg=bench.cfg, method="exact"
    )
    bump_gap = broken.max_gap()
    report(
        3,
        worst_diff <= 1e-6 and worst_gap <= 1e-6 and bump_gap > 1e-6,
        f"extracted policies meet every equality (worst chain diff "
        f"{worst_diff:.2e}, worst node gap {worst_gap:.2e} <= 1e-6); a 0.1 "
        f"perturbation breaks one by {bump_gap:.2e} > 1e-6",
    )


def test_criterion_04_horizon_calculus():
    rng = np.random.default_rng(SEED + 1)
    checked = 0
    for name, f, base in oracle_fixtures():
        H = td.horizon(f)
        ladder = LADDERS.get(name)
        for _ in range(100):
            w = rng.standard_normal(f.dim)
            sym = H.value(w)
            lad = td.horizon_numeric(f, w, base, ladder=ladder)
            assert agree(sym, lad.value), (name, w, sym, lad.value)
            checked += 1
        sampled = name in ("sampled_two_well", "sampled_exp", "partial_min")
        for _ in range(25):
            w = rng.standard_normal(f.dim)
            h1 = H.value(w)
            for lam in (0.5, 2.0, 10.0):
                hl = H.value(lam * w)
                if math.isinf(h1) or math.isinf(hl):
                    assert math.isinf(h1) == math.isinf(hl)
                    continue
                tol = 1e-9 if sampled else 1e-12
                assert abs(hl - lam * h1) <= tol * max(1.0, abs(hl), lam * abs(h1))
    # the sum rule never overshoots: sum of horizons is a lower bound
    violations = 0
    pairs = [
        (td.SShapedDisutility(2.0, 1.0, 1.0), td.SShapedDisutility(3.0, 2.0, 0.5)),
        (td.PowerCost(1.0, 2.0, 1), td.SShapedDisutility(2.0, 1.0, 2.0)),
        (td.Affine([1.5], 0.0), td.PowerCost(0.3, 1.7, 1)),
    ]
    for f, g in pairs:
        Hs = td.horizon(Sum((f, g)), require_exact=False)
        Hf, Hg = td.horizon(f), td.horizon(g)
        for _ in range(50):
            w = rng.standard_normal(1)
            lhs, rhs = Hf.value(w) + Hg.value(w), Hs.value(w)
            if not (math.isinf(lhs) and math.isinf(rhs)) and rhs < lhs - 1e-9:
                violations += 1
    report(
        4,
        violations == 0,
        f"symbolic horizon vs numeric liminf agree (<=1e-6) on {checked} "
        f"directions across {len(oracle_fixtures())} fixtures; homogeneity "
        f"within float tolerance; sum inequality violations: {violations}",
    )


def test_criterion_05_no_arbitrage_equivalence():
    rng = np.random.default_rng(SEED + 2)
    mismatches = 0
    for _ in range(50):
        model = random_frictionless_model(rng)
        problem = market.build_problem_cash(model)
        verdict = cones.check_horizon_positivity(problem).verdict
        arb = cones.no_arbitrage_lp(
            model.tree, {n.id: model.Z(n.id) for n in model.tree.nodes}
        )
        if (verdict == "holds") != (arb is None):
            mismatches += 1
    report(
        5,
        mismatches == 0,
        f"growth-condition verdict matches the arbitrage reference on 50 "
        f"random one-period markets: {mismatches} mismatches",
    )


def test_criterion_06_conditional_horizon_inequality():
    rng = np.random.default_rng(SEED + 3)
    violations = 0
    total = 0
    for name in ("sshaped_t2", "trinomial_t1"):
        tree = get_bench(name).problem.tree
        funs = {
            n.id: td.SShapedDisutility(
                2.0 + rng.uniform(0, 2), 0.5 + rng.uniform(0, 1.5),
                0.4 + rng.uniform(0, 1.2),
            )
            for n in tree.nodes
        }
        for node in tree.nodes:
            kids = tree.children(node.id)
            if not kids:
                continue
            mixture = Sum(tuple(funs[c.id] for c in kids), tuple(c.prob for c in kids))
            H_mix = td.horizon(mixture)
            H_kids = {c.id: td.horizon(funs[c.id]) for c in kids}
            for _ in range(50):
                w = rng.standard_normal(1)
                lhs = sum(c.prob * H_kids[c.id].value(w) for c in kids)
                rhs = H_mix.value(w)
                total += 1
                if lhs > rhs + 1e-9:
                    violations += 1
    report(
        6,
        violations == 0,
        f"weighted child-sum of horizons <= horizon of the weighted sum on "
        f"{total} sampled directions: {violations} violations beyond 1e-9",
    )


def test_criterion_07_null_space_and_projection():
    bench = get_bench("projected_dup")
    original = bench.oracle_target()
    directions = cones.null_space(original)
    basis = directions.per_node["r"]
    v = basis[:, 0] / np.abs(basis[:, 0]).max()
    span_ok = basis.shape == (2, 1) and np.allclose(sorted(v), [-1.0, 1.0], atol=1e-9)
    _, res = get_solved("projected_dup")
    bf, _ = dp.brute_force(original, bench.bf_grids)
    value_gap = abs(res.forward_value - bf)
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 2)
        shift = basis @ rng.uniform(-1.0, 1.0, 1)
        a = dp.evaluate_strategy(original, td.AdaptedSequence({"r": x}))
        b = dp.evaluate_strategy(original, td.AdaptedSequence({"r": x + shift}))
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    report(
        7,
        span_ok and value_gap <= 1e-3 and worst <= 1e-9,
        f"duplicated-asset null space is span(1,-1); projected solve vs "
        f"original oracle gap {value_gap:.2e} <= 1e-3; indifference on 20 "
        f"pairs within {worst:.2e} <= 1e-9",
    )


def test_criterion_08_model_equivalence():
    settings = {
        "frictionless_t1": dict(radius=1.0, points=65),
        "trinomial_t1": dict(radius=1.0, points=65),
        "sshaped_t2": dict(radius=0.4, points=49),
    }
    worst = 0.0
    for name, kw in settings.items():
        bench, res_cash = get_solved(name)
        model = bench.model
        term_problem = market.build_problem_terminal(model, **kw)
        res_term = dp.backward_solve(
            term_problem, cfg=dp.SolveConfig(eps_gap=0.01)
        )
        tol = 1e-3 * (1.0 + abs(res_cash.forward_value))
        gap = abs(res_term.forward_value - res_cash.forward_value)
        worst = max(worst, gap)
        assert gap <= tol, (name, res_term.forward_value, res_cash.forward_value)
    report(
        8,
        True,
        f"full-portfolio and cash-reduced forms agree on all market "
        f"fixtures: worst value gap {worst:.2e} within the gap tolerance",
    )


def test_criterion_09_failure_demonstration(tmp_path):
    model = arbitrage_model()
    mfile = tmp_path / "arbitrage.json"
    mfile.write_text(json.dumps(market.market_to_dict(model)))
    out = tmp_path / "out"
    code = cli.main(["solve", str(mfile), "--force", "--out", str(out)])
    payload = json.loads((out / "solve_report.json").read_text())
    problem = market.build_problem_cash(model)
    values = []
    for B in (1.0, 2.0, 4.0, 8.0, 16.0):
        v, _ = dp.brute_force(problem, {"r": axis_grid(-B, B, 41)})
        values.append(v)
    decreasing = all(b < a - 1e-9 for a, b in zip(values, values[1:]))
    report(
        9,
        code == 4 and payload["error"] == "SearchBoxExhausted" and decreasing,
        f"forced solve of the arbitrage fixture exits 4 "
        f"(SearchBoxExhausted); enumeration on widening grids strictly "
        f"decreases: {[round(v, 4) for v in values]}",
    )


def test_criterion_10_determinism(tmp_path):
    model_dict = market.market_to_dict(get_bench("trinomial_t1").model)
    mfile = tmp_path / "model.json"
    mfile.write_text(json.dumps(model_dict))
    blobs = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        for argv in (
            ["check", str(mfile), "--out", str(out)],
            ["solve", str(mfile), "--radius", "1.2", "--points", "65",
             "--threads", str(threads), "--out", str(out)],
            ["oracle", str(mfile), "--grids=-1:1:101", "--radius", "1.2",
             "--points", "65", "--threads", str(threads), "--out", str(out)],
        ):
            assert cli.main(argv) in (0,)
        blobs[threads] = tuple(
            (out / fname).read_bytes()
            for fname in ("check_report.json", "solve_report.json",
                          "policy.csv", "value_tables.csv", "oracle_report.json")
        )
    # library-level: the heaviest fixture's tables are identical too
    bench = get_bench("sshaped_t2")
    hashes = set()
    for threads in (1, 2, 8):
        cfg = dp.SolveConfig(threads=threads)
        res = dp.backward_solve(bench.problem, cfg=cfg)
        hashes.add((
            res.value, res.forward_value,
            tuple(sorted((k, v.tobytes()) for k, v in res.strategy.values.items())),
            tuple(sorted((k, t.values.tobytes()) for k, t in res.pre_tables.items())),
        ))
    ok = blobs[1] == blobs[2] == blobs[8] and len(hashes) == 1
    report(
        10,
        ok,
        "reports and tables are byte-identical across 1, 2, and 8 threads",
    )
