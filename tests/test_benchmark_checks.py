"""The benchmark's own artifact checks, run in process.

Each workload of ``perfbench/workloads.py`` writes its inputs, runs its CLI
steps through ``cli.main`` and checks every artifact against the pinned
values of ``perfbench/reference.json``. Running that here makes a broken
artifact fail the test suite, not only a benchmark run. A second run of
each workload must give the same bytes in every file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from statmenus.cli import main

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def _run(workload, run_dir: Path, seed: int) -> dict:
    """Every file the workload's inputs and steps leave in ``run_dir``, by
    relative path, after asserting that each step exits 0."""
    run_dir.mkdir()
    workload.write_inputs(run_dir)
    for step in workload.steps:
        assert main(step.argv(run_dir, seed)) == 0, step.label
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_artifacts_pass_the_benchmark_checks(tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    first = _run(workload, tmp_path / "first", seed)
    problems = workload.check(tmp_path / "first", seed)
    assert set(problems) == {step.label for step in workload.steps}
    assert {label: found for label, found in problems.items() if found} == {}
    assert _run(workload, tmp_path / "second", seed) == first
