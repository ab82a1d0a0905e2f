"""Record the environment and the spread of every metric over a set of runs.

Usage (from the repository root, after runs of ``perfbench/run.py``):

    python3 perfbench/baseline.py

Reads every run summary under ``.perfbench_runs/`` and writes
``perfbench/baseline.json``: the interpreter, numpy and scipy versions, the
core count, MemTotal and the git commit; for each workload, why it exists
and the median and quartiles over runs of each metric (one value per run,
as the run reports it); and which end-to-end metric each per-layer metric
should move.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy
import scipy

from run import RUNS, WHY, unit_of
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "baseline.json"

# Per-layer metric -> the end-to-end metrics (metric@workload) it should move.
# Per-command metrics (build_s, verify_s, ...) are printed by run.py; the
# gated wall_s of each workload is the sum of its commands.
_BUILD = ["build_s@fine_menu", "build_s@tabulated_curve"]
LAYER_TARGETS = {
    "testmodel.power.calls": ["evaluate_s@fine_menu", "verify_s@fine_menu", "build_s@tabulated_curve", "frontier_s@tabulated_curve"],
    "testmodel.power.self_s": ["evaluate_s@fine_menu", "verify_s@fine_menu", "build_s@tabulated_curve", "frontier_s@tabulated_curve"],
    "testmodel.sample_pvalues.self_s": ["simulate_agents_per_s@mass_sim"],
    "objectives.optimal_threshold.calls": _BUILD,
    "objectives.fdr_threshold.calls": _BUILD,
    "objectives.threshold_map.self_s": _BUILD,
    "objectives.threshold_cache.hit_ratio": _BUILD,
    "rates.fdr.calls": ["frontier_s@tabulated_curve", "build_s@tabulated_curve"],
    "rates.fdr.self_s": ["frontier_s@tabulated_curve", "build_s@tabulated_curve"],
    "quad.adaptive_simpson.calls": _BUILD,
    "quad.adaptive_simpson.self_s": _BUILD,
    "contracts.select.calls": ["evaluate_s@fine_menu"],
    "contracts.select.self_s": ["evaluate_s@fine_menu"],
    "contracts.verify_separating.self_s": ["verify_s@fine_menu", "verify_s@tabulated_curve"],
    "contracts.verify_separating.pairs": ["verify_s@fine_menu", "verify_s@tabulated_curve"],
    "builders.build_fixed_reward.self_s": _BUILD,
    "builders.build_finite_menu.self_s": ["wall_s@mass_sim"],
    "builders.elicitable_range.self_s": _BUILD,
    "evaluation.screening_cost.self_s": ["evaluate_s@fine_menu"],
    "evaluation.information_rent.self_s": ["evaluate_s@fine_menu"],
    "evaluation.principal_return.self_s": ["evaluate_s@fine_menu"],
    "evaluation.frontier.self_s": ["frontier_s@tabulated_curve"],
    "evaluation.simulate_population.self_s": ["simulate_agents_per_s@fine_menu", "simulate_agents_per_s@mass_sim"],
    "evaluation.simulate_population.peak_mb": ["peak_rss_mb@fine_menu"],
    "sensitivity.sensitivity_sweep.self_s": ["sensitivity_s@tabulated_curve"],
    "sensitivity.implied_true_type.calls": ["sensitivity_s@tabulated_curve"],
    "sensitivity.fdr_gap_fixed_reward.calls": ["sensitivity_s@tabulated_curve"],
    "cli.<step>.s": ["the step's own per-command metric, on its workload"],
    "cli.<step>.self_s": ["the step's own per-command metric: orchestration and CSV/JSON writes"],
}


def _environment() -> dict:
    meminfo = dict(
        line.split(":", 1) for line in Path("/proc/meminfo").read_text().splitlines() if ":" in line
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "mem_total": meminfo.get("MemTotal", "").strip(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def _spread(values) -> dict:
    vals = sorted(values)
    out = {"median": statistics.median(vals), "runs": len(vals)}
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    return out


def main() -> None:
    workloads = {}
    for name in WORKLOADS:
        per_metric, seeds = {}, {"untraced": [], "traced": []}
        for path in sorted(RUNS.glob(f"{name}-seed*-trace*.json")):
            doc = json.loads(path.read_text())
            traced = bool(doc["traces"])
            seeds["traced" if traced else "untraced"].append(doc["seed"])
            tables = [doc["layer_samples"]] if traced else [doc["samples"]]
            for table in tables:
                for metric, values in table.items():
                    per_metric.setdefault(metric, []).append(statistics.median(values))
            per_metric.setdefault("fail_frac", []).append(doc["failed"] / doc["attempted"])
        workloads[name] = {
            "why": WHY.get(name),
            "seeds": seeds,
            "metrics": {
                metric: {**_spread(values), "unit": unit_of(metric)}
                for metric, values in sorted(per_metric.items())
            },
        }
    doc = {"environment": _environment(), "workloads": workloads, "layer_targets": LAYER_TARGETS}
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
