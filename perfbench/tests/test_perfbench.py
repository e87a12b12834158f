"""The benchmark's own checks: seeded inputs, span accounting, gates."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treedp import dp  # noqa: E402


def _specs(seed: int) -> list:
    return (
        [inputs.market.market_to_dict(inputs.deep_binomial_model(seed))]
        + [f.spec for f in inputs.fixtures()]
        + [inputs.market.market_to_dict(m) for m in inputs.check_models(seed).values()]
    )


def test_generator_is_deterministic_per_seed():
    assert inputs.model_hash(_specs(7)) == inputs.model_hash(_specs(7))
    assert inputs.model_hash(_specs(7)) != inputs.model_hash(_specs(8))


def test_seed_keeps_shapes_and_seed_zero_is_the_test_fixture():
    a, b = inputs.deep_binomial_model(3), inputs.deep_binomial_model(4)
    assert len(a.tree) == len(b.tree) == 1023
    assert [n.id for n in a.tree.nodes] == [n.id for n in b.tree.nodes]
    dup = inputs.check_models(5)["duplicated"]
    assert len(dup.tree) == 255 and dup.n_risky == 2
    t2 = {f.name: f for f in inputs.fixtures()}["sshaped_t2"]
    assert t2.spec["tree"][1]["prob"] == 0.5
    assert t2.spec["tree"][1]["data"]["Z"] == [1.3]


def test_self_times_of_a_traced_operation_add_up_to_its_span():
    fx = {f.name: f for f in inputs.fixtures()}["sshaped_t3"]
    tracer = tracing.Tracer()
    original = dp.minimize_batch
    tracer.install([fx.problem])
    try:
        tracer.call("op", dp.backward_solve, fx.problem, cfg=dp.SolveConfig(eps_ref=1e-3))
    finally:
        tracer.uninstall()
    assert dp.minimize_batch is original
    totals = tracer.totals()
    assert totals["dp.minimize.calls"] > 0 and totals["market.transition.calls"] > 0
    assert totals["dp.interp.rows"] > 0 and totals["tree.node.calls"] > 0
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(totals["op.s"], rel=1e-9, abs=1e-9)
    assert totals["op.calls"] == 1


def test_a_wrong_reference_value_fails_its_operation():
    fx = {f.name: f for f in inputs.fixtures()}["quad_t0"]
    state = {"fixtures": [fx]}
    good = workloads.FixturesCertify().run_pass(state)
    assert (good.attempted, good.failed) == (3, 0)
    # a brute-force grid that misses the optimum at 3 is a wrong reference
    fx.bf_grids = {"r": np.array([[10.0]])}
    bad = workloads.FixturesCertify().run_pass(state)
    assert (bad.attempted, bad.failed) == (3, 1)
    assert "brute force" in bad.failures[0]


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-binomial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
