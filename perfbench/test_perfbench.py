"""Tests of the benchmark itself, on the smoke size of every workload.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def smoke(*args):
    proc = run("--smoke", "--seconds", "1", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return lines, result


def assert_printed(lines, result, name, unit):
    assert result["metrics"][name]["unit"] == unit
    assert isinstance(result["metrics"][name]["value"], (int, float))
    assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    lines, result = smoke("--workload", "all", "--trace", "0")
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            assert_printed(lines, result, f"{workload}/{metric['name']}", metric["unit"])
            assert result["metrics"][f"{workload}/{metric['name']}"]["value"] > 0
        for name, unit in (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
            assert_printed(lines, result, f"{workload}/{name}", unit)
        assert_printed(lines, result, f"{workload}/fail_frac", "ratio")
        assert result["metrics"][f"{workload}/fail_frac"]["value"] == 0
    provenance = json.loads(lines[-2].split(" ", 1)[1])
    assert set(provenance["workloads"]) == set(WORKLOADS)


def test_percentile_is_a_weighted_mean_of_the_order_statistics():
    sys.path.insert(0, str(HERE))
    from run import percentile

    assert percentile([3.0], 90) == 3.0
    assert abs(percentile([5, 1, 4, 2, 3], 50) - 3) < 1e-9  # symmetric weights
    assert 4 < percentile([1, 2, 3, 4, 5], 90) < 5
    # a gap at the median moves the estimate smoothly, not by a whole step
    low, high = [1.0] * 50 + [2.0] * 51, [1.0] * 51 + [2.0] * 50
    assert percentile(low, 50) - percentile(high, 50) < 0.2


def test_single_workload_prints_exactly_the_end_to_end_metrics():
    _, result = smoke("--workload", "dlink", "--seed", "3", "--trace", "0")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_two_traced_runs_give_identical_counts():
    lines, first = smoke("--workload", "all", "--trace", "1")
    _, second = smoke("--workload", "all", "--trace", "1")
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert_printed(lines, first, f"{workload}/{metric['name']}", metric["unit"])
    counts = {
        name: m["value"] for name, m in first["metrics"].items() if m["unit"] in ("count", "ratio")
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert first["metrics"]["dlink/complexes.dlink_products"]["value"] > 0
    assert first["metrics"]["products-large/complexes.k_simplices_calls"]["value"] == 0


def test_refuses_to_run_without_the_library_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run("--workload", "dlink", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
