"""Smoke test of the benchmark runner on tiny windows.

    python -m pytest perfbench/test_smoke.py -q

Checks the output format (every end-to-end metric printed by name with its
unit, a JSON last line, fail_ratio computed from the counts), that traced
runs print every per-layer metric with repeatable counts, nonzero exactly on
the layers the workload exercises, and that the runner refuses to run
without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RUNNABLE = WORKLOADS + ["sweeps-root2"]  # runs and is checked like the others, outside BENCHMARK.json


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def result_of(*args):
    proc = run(*args, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_file_matches_runner():
    sys.path.insert(0, str(HERE))
    try:
        import run as runner
    finally:
        sys.path.remove(str(HERE))
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == runner.PER_LAYER
    assert tuple(WORKLOADS) == runner.WORKLOADS
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


@pytest.mark.parametrize("workload", RUNNABLE)
def test_end_to_end_metrics_printed(workload):
    lines, result = result_of("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCH["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name] == {"value": result["metrics"][name]["value"], "unit": unit}
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:2] == ["metric", name] and line.split()[3] == unit for line in lines)
    assert f"fail_ratio 0.0000 (0 of {result['attempted']} operations)" in lines


def test_fail_ratio_counts_wrong_outputs():
    lines, result = result_of("--workload", "probes", "--seed", "1", "--seconds", "0.5")
    failed, attempted = result["failed"], result["attempted"]
    assert result["correct"] == (failed == 0)
    assert f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)" in lines


CLI_LATENCIES = tuple(m["name"] for m in BENCH["per_layer"] if m["name"].endswith(".p50_ms"))
SWEEPS_UNUSED = ("algebra.bracket.", "cohomology.reduce_cocycle.", "cohomology.central_jacobi.", "derivations.",
                 "automorphisms.", "solvers.", "parser.", "laurent.", *CLI_LATENCIES)

# per-layer metrics a workload never exercises, by name prefix: these read 0,
# and every other per-layer metric must not
UNUSED = {
    "sweeps-q": SWEEPS_UNUSED,
    "sweeps-root2": SWEEPS_UNUSED,
    "pipeline": ("algebra.antisymmetry_witnesses.", "algebra.jacobi_witnesses.", "cohomology.cocycle_witnesses.",
                 *CLI_LATENCIES),
    # the CLI reports no key count, and no subcommand runs the central Jacobi or the solvers
    "cli": ("algebra.window_keys.keys", "algebra.antisymmetry_witnesses.pairs", "cohomology.central_jacobi.",
            "solvers.shear_constraint_space.", "solvers.g_constraint_space.", "solvers.nullspace."),
}


@pytest.mark.parametrize("workload", RUNNABLE)
def test_traced_run_counts_repeat(workload):
    runs = [result_of("--workload", workload, "--seed", "5", "--trace", "1")[1] for _ in range(2)]
    for metric in BENCH["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        values = [r["metrics"][name] for r in runs]
        assert all(v["unit"] == unit for v in values)
        if unit == "count":
            assert values[0]["value"] == values[1]["value"], name
        unused = name.startswith(UNUSED[workload])
        assert all((v["value"] == 0) == unused for v in values), name
    assert all(r["correct"] for r in runs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
