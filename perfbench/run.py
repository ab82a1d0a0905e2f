"""statmenus benchmark: time the CLI end to end on generated workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload fine_menu --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 1

One repetition writes a workload's inputs into a fresh directory under
``.perfbench_runs/`` and runs its steps one at a time, each as
``statmenus.cli.main`` in a fresh interpreter (``worker.py``), so every
command pays its cold imports and caches, as a user's command does.
Repetitions continue while the next one is expected to end within
``--seconds``; there is always at least one. Every artifact is checked
(``workloads.py``) and must be byte-identical across the repetitions of a
run. Metrics are medians over repetitions:

- ``wall_s``: the sum of the workload's command times (``cli.main`` only);
- ``peak_rss_mb``: the largest ``ru_maxrss`` among its command processes;
- ``setup_s``: launch until ``statmenus.cli`` is imported, the median over
  every command process of the run;
- per-command times (``build_s``, ``verify_s``, ...) and simulate rates
  (agents per second), printed for the workloads that run the command;
- ``fail_frac``: failed over attempted commands, printed; the result line
  carries it as ``failed`` and ``attempted``.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones run under ``tracer.Tracer`` and give the per-layer metrics, and
``trace_overhead_frac`` is their median ``wall_s`` over the untraced one,
minus 1. Every sample, and with tracing every span and aggregate, is
written to ``.perfbench_runs/<workload>-seed<seed>-trace<0|1>.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the CLI commands run and those that
exited non-zero or failed a check; ``metrics`` holds the metrics that
``BENCHMARK.json`` declares (end-to-end ones without tracing, per-layer ones
with it). Exits 2 without a result when the program is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKER = BENCH_DIR / "worker.py"
STEP_TIMEOUT_S = 170

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
WHY = {w["name"]: w["why"] for w in DECLARED["workloads"]}

# Per-command metrics: metric name -> step label. A workload reports those
# whose step it runs. They are printed with the rest; only the metrics that
# BENCHMARK.json declares go into the result line, because the declared ones
# must exist on every workload.
STEP_SECONDS = {
    "thresholds_s": "thresholds",
    "build_s": "menu-build",
    "verify_s": "menu-verify",
    "evaluate_s": "evaluate",
    "frontier_s": "frontier",
    "sensitivity_s": "sensitivity",
}
STEP_RATES = {"simulate_agents_per_s": "simulate", "simulate_jobs2_agents_per_s": "simulate_jobs2"}
# Functions whose aggregated calls/self time are per-layer metrics.
LAYER_FUNCTIONS = (
    "testmodel.power",
    "testmodel.power_derivative",
    "testmodel.sample_pvalues",
    "objectives.optimal_threshold",
    "objectives.fdr_threshold",
    "objectives.threshold_map",
    "rates.fdr",
    "quad.adaptive_simpson",
    "contracts.select",
    "contracts.verify_separating",
    "builders.build_fixed_reward",
    "builders.build_finite_menu",
    "builders.elicitable_range",
    "evaluation.screening_cost",
    "evaluation.information_rent",
    "evaluation.principal_return",
    "evaluation.frontier",
    "evaluation.simulate_population",
    "sensitivity.sensitivity_sweep",
    "sensitivity.implied_true_type",
    "sensitivity.fdr_gap_fixed_reward",
)
LAYERS = ("testmodel", "objectives", "rates", "quad", "contracts", "builders", "evaluation", "sensitivity", "cli")


def run_step(step, run_dir: Path, results: Path, seed: int, trace: bool) -> dict:
    """Run one CLI command in a fresh interpreter; returns the worker's result."""
    result_file = results / f"{step.label}.json"
    cmd = [sys.executable, str(WORKER), str(result_file), "1" if trace else "0", "--"]
    cmd += step.argv(run_dir, seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=run_dir, env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"timed out after {STEP_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_file.is_file():
        return {"exit_code": None, "error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["ready"] - launched
    if result["exit_code"] != 0:
        result["error"] = f"statmenus exited {result['exit_code']}: {proc.stderr.strip()[-2000:]}"
    return result


def _files(directory: Path) -> Dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def run_rep(workload: Workload, seed: int, trace: bool, rep_dir: Path) -> dict:
    """One repetition: fresh inputs, every step, then the output checks."""
    run_dir, results = rep_dir / "run", rep_dir / "results"
    run_dir.mkdir(parents=True)
    results.mkdir()
    workload.write_inputs(run_dir)
    steps, owner, before = {}, {}, {}
    for step in workload.steps:
        steps[step.label] = run_step(step, run_dir, results, seed, trace)
        after = _files(run_dir)
        # a file belongs to the step that created it; the inputs to the first step
        owner.update({path: step.label for path in after if path not in before or not owner})
        before = after
    problems = workload.check(run_dir, seed)
    for label, res in steps.items():
        if "error" in res:
            problems.setdefault(label, []).insert(0, res["error"])
    report = run_dir / "verify_report.json"
    pairs = json.loads(report.read_text())["pairs_checked"] if report.is_file() else 0
    return {"steps": steps, "problems": problems, "digests": before, "owner": owner, "verify_pairs": pairs}


def rep_metrics(workload: Workload, rep: dict) -> Dict[str, float]:
    steps = rep["steps"]
    if any("error" in s for s in steps.values()):
        return {}
    out = {
        "wall_s": sum(s["seconds"] for s in steps.values()),
        "peak_rss_mb": max(s["maxrss_kb"] for s in steps.values()) / 1024.0,
    }
    for metric, label in STEP_SECONDS.items():
        if label in steps:
            out[metric] = steps[label]["seconds"]
    for metric, label in STEP_RATES.items():
        if label in steps:
            out[metric] = workload.agents / steps[label]["seconds"]
    return out


def layer_metrics(rep: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition, summed over its commands."""
    aggs: Dict[str, Dict[str, float]] = {}
    out: Dict[str, float] = {}
    hits = misses = 0
    cache_seen = False
    for label, res in rep["steps"].items():
        trace = res.get("trace")
        if trace is None:
            return {}
        for name, agg in trace["aggregates"].items():
            if name.startswith("cli.") and name != "cli.parse_config":
                name = "cli." + label  # the command span, keyed by step
            total = aggs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += agg[key]
        for name, mb in trace["peak_mb"].items():
            out[f"{name}.peak_mb"] = max(mb, out.get(f"{name}.peak_mb", 0.0))
        if trace["threshold_cache"] is not None:
            cache_seen = True
            hits += trace["threshold_cache"]["hits"]
            misses += trace["threshold_cache"]["misses"]
    absent = {"calls": 0, "total_s": 0.0, "self_s": 0.0}  # a function this workload never calls
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = aggs.get(name, absent)["calls"]
        out[f"{name}.self_s"] = aggs.get(name, absent)["self_s"]
    out.setdefault("evaluation.simulate_population.peak_mb", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(a["self_s"] for n, a in aggs.items() if n.split(".")[0] == layer)
    out["cli.parse_config.s"] = aggs.get("cli.parse_config", absent)["total_s"]
    for label in rep["steps"]:
        out[f"cli.{label}.s"] = aggs.get("cli." + label, absent)["total_s"]
        out[f"cli.{label}.self_s"] = aggs.get("cli." + label, absent)["self_s"]
    if cache_seen and hits + misses:
        out["objectives.threshold_cache.hit_ratio"] = hits / (hits + misses)
    out["contracts.verify_separating.pairs"] = rep["verify_pairs"]
    return out


def call_counts(rep: dict) -> Dict[str, Dict[str, int]]:
    return {
        label: {n: a["calls"] for n, a in res["trace"]["aggregates"].items()}
        for label, res in rep["steps"].items()
        if "trace" in res
    }


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run_root = RUNS / f"{workload.name}-seed{seed}-{os.getpid()}"
    if run_root.exists():
        shutil.rmtree(run_root)
    run_root.mkdir(parents=True)
    plain: List[dict] = []
    traced: List[dict] = []
    try:
        started = time.monotonic()
        last = 0.0
        while not plain or time.monotonic() - started + last <= seconds:
            t0 = time.monotonic()
            for is_traced, reps in ((False, plain), (True, traced)) if trace else ((False, plain),):
                rep_dir = run_root / f"{'traced' if is_traced else 'rep'}{len(reps)}"
                reps.append(run_rep(workload, seed, is_traced, rep_dir))
                shutil.rmtree(rep_dir / "run")  # artifacts are digested; keep the disk small
            last = time.monotonic() - t0
            print(f"[{workload.name}] repetition {len(plain)} took {last:.2f} s", file=sys.stderr)
    finally:
        for child in run_root.iterdir():
            shutil.rmtree(child, ignore_errors=True)

    # Determinism: every repetition must write the bytes the first one wrote.
    reference = plain[0]
    for rep in plain[1:] + traced:
        for path in sorted(set(reference["digests"]) | set(rep["digests"])):
            if reference["digests"].get(path) != rep["digests"].get(path):
                label = reference["owner"].get(path) or rep["owner"].get(path)
                rep["problems"].setdefault(label, []).append(f"{path} differs from the first repetition")
    counts = [call_counts(rep) for rep in traced]
    for rep, count in zip(traced[1:], counts[1:]):
        for label in count:
            if count[label] != counts[0].get(label):
                rep["problems"].setdefault(label, []).append("traced call counts differ between repetitions")

    attempted = failed = 0
    problems: List[str] = []
    for index, rep in enumerate(plain + traced):
        for step in workload.steps:
            attempted += 1
            found = rep["problems"].get(step.label)
            if found:
                failed += 1
                problems += [f"repetition {index} {step.label}: {p}" for p in found]

    samples: Dict[str, List[float]] = {}
    for rep in plain:
        for name, value in rep_metrics(workload, rep).items():
            samples.setdefault(name, []).append(value)
    samples["setup_s"] = [s["setup_s"] for rep in plain for s in rep["steps"].values() if "setup_s" in s]
    layer_samples: Dict[str, List[float]] = {}
    if trace:
        for rep in traced:
            for name, value in layer_metrics(rep).items():
                layer_samples.setdefault(name, []).append(value)
        traced_wall = [m["wall_s"] for m in (rep_metrics(workload, r) for r in traced) if m]
        if traced_wall and samples.get("wall_s"):
            layer_samples["trace_overhead_frac"] = [
                statistics.median(traced_wall) / statistics.median(samples["wall_s"]) - 1.0
            ]
    run_root.rmdir()
    result = {
        "workload": workload.name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {k: v for k, v in samples.items() if v},
        "layer_samples": {k: v for k, v in layer_samples.items() if v},
        "repetitions": [
            {
                "traced": is_traced,
                "steps": {
                    label: {k: v for k, v in res.items() if k not in ("trace", "stdout")}
                    for label, res in rep["steps"].items()
                },
            }
            for is_traced, reps in ((False, plain), (True, traced))
            for rep in reps
        ],
        "traces": [{label: res.get("trace") for label, res in rep["steps"].items()} for rep in traced],
    }
    summary = RUNS / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    summary.write_text(json.dumps(result) + "\n")
    return result


SUFFIX_UNITS = (("_per_s", "1/s"), (".calls", "count"), (".pairs", "count"), ("_mb", "MB"), ("_s", "s"), (".s", "s"))


def unit_of(name: str) -> str:
    declared = {**END_TO_END, **PER_LAYER}
    if name in declared:
        return declared[name]
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "1")


def report(workload: Workload, result: dict, trace: bool) -> dict:
    """Print the human-readable table; return the result line's object."""
    fail_frac = result["failed"] / result["attempted"]
    print(f"== {workload.name}: {WHY[workload.name]}")
    print(f"   {'metric':<48} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4} unit")
    print(f"   {'fail_frac':<48} {fail_frac:>14.6g} {'':>14} {'':>14} {result['attempted']:>4} 1")
    tables = [result["samples"]] + ([result["layer_samples"]] if trace else [])
    for table in tables:
        for name in sorted(table):
            q1, median, q3 = quartiles(table[name])
            print(f"   {name:<48} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(table[name]):>4} {unit_of(name)}")
    for problem in result["problems"][:20]:
        print(f"   FAIL {problem}")
    wanted = PER_LAYER if trace else END_TO_END
    source = result["layer_samples"] if trace else result["samples"]
    # counts repeat exactly across traced repetitions; keep them whole numbers
    metrics = {
        name: {"value": (statistics.median_low if unit == "count" else statistics.median)(source[name]), "unit": unit}
        for name, unit in wanted.items()
        if name in source
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "statmenus" / "cli.py").is_file():
        print(f"error: statmenus sources not found under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        line = report(workload, result, bool(args.trace))
        sys.stdout.flush()
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
