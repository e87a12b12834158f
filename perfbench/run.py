"""treedp benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload fixtures-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src/`` of
the checkout this file sits in.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics, with the tracing overhead as the
difference of the two.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in its own process and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("deep-binomial", "fixtures-certify", "frictionless-check")

#: fresh processes that repeat the set-up, for the set-up time's median
SETUP_PROBES = 3

#: end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_workloads():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "treedp", "__init__.py")):
        raise SystemExit(f"error: no treedp sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads

    import treedp

    if os.path.dirname(os.path.dirname(os.path.abspath(treedp.__file__))) != SRC:
        raise SystemExit(f"error: treedp imported from {treedp.__file__}, not {SRC}")
    return workloads


def _setup(name: str, seed: int, workdir: str):
    """Import the package and set the workload up; (module, state, seconds)."""
    t0 = perf_counter()
    workloads = _import_workloads()
    state = workloads.WORKLOADS[name].setup(seed, workdir)
    return workloads, state, perf_counter() - t0


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process (import included)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _workdir(name: str) -> str:
    path = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(path)
    return path


def _cleanup(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run still uses it


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload in this process; (result line, record)."""
    workdir = _workdir(name)
    try:
        workloads, state, setup_here = _setup(name, seed, workdir)
        wl = workloads.WORKLOADS[name]
        setup_samples = [setup_here] + [_probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        passes = []
        walls = []
        if trace:
            import tracing

            t0 = perf_counter()
            passes.append(wl.run_pass(state))
            walls.append(perf_counter() - t0)
            tracer = tracing.Tracer()
            tracer.install(state["problems"])
            try:
                t0 = perf_counter()
                passes.append(wl.run_pass(state))
                walls.append(perf_counter() - t0)
            finally:
                tracer.uninstall()
            layer = tracing.per_layer_metrics(tracer.totals())
            layer.update({"trace.untraced_s": walls[0], "trace.traced_s": walls[1],
                          "trace.overhead_s": walls[1] - walls[0]})
            metrics = {k: _metric(layer[k], u) for k, u in tracing.PER_LAYER.items()}
        else:
            # start another pass only while it is expected to end within the budget
            start = perf_counter()
            while True:
                t0 = perf_counter()
                passes.append(wl.run_pass(state))
                walls.append(perf_counter() - t0)
                if perf_counter() - start + walls[-1] > seconds:
                    break
            metrics = None
        # a traced run times its untraced first pass; the traced one shows the overhead
        timed = passes[:1] if trace else passes
        kinds = {k: statistics.median(p.timings[k] for p in timed) for k in wl.kinds}
        wall = statistics.median(sum(p.timings[k] for k in wl.kinds) for p in timed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(setup_samples)
        if metrics is None:
            values = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": rss_mb}
            metrics = {k: _metric(values[k], u) for k, u in END_TO_END.items()}
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        record = {
            "workload": name, "seed": seed, "model_hash": state["hash"],
            "trace": trace, "passes": len(passes),
            "timings_s": {**kinds, "wall_s": wall}, "setup_s": setup_s,
            "setup_samples_s": setup_samples, "peak_rss_mb": rss_mb,
            "error_rate": failed / attempted, "values": passes[-1].values,
            "failures": [f for p in passes for f in p.failures],
        }
        if trace:
            record["trace_overhead_s"] = {
                k: passes[1].timings[k] - passes[0].timings[k] for k in wl.kinds}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, record
    finally:
        _cleanup(workdir)


def _table(record: dict, metrics: dict) -> str:
    name = record["workload"]
    rows = [(f"{name}.{k}", v, "s") for k, v in record["timings_s"].items()]
    rows.append((f"{name}.error_rate", record["error_rate"], "ratio"))
    rows += [(f"{name}.{k}", m["value"], m["unit"]) for k, m in metrics.items()
             if k not in record["timings_s"]]
    return "\n".join(f"{k:<48} {v:>14.6g} {u}" for k, v, u in rows)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; prints every metric of every workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps(total, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring budget; another pass starts only if it should fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # one BLAS thread per calling thread, set before numpy loads and inherited
    # by the child processes: the load stays within the two threads of the
    # threads=2 solves whatever the core count, and the small SVDs of the
    # null space run faster and steadier than on a BLAS thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_probe:
        workdir = _workdir(args.workload)
        try:
            print(repr(_setup(args.workload, args.seed, workdir)[2]))
        finally:
            _cleanup(workdir)
        return 0
    result, record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_table(record, result["metrics"]))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
