"""Self-check of the benchmark at tiny size. It is not a performance gate.

Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODULES = {"graphs", "spectral", "identifiability", "sequences", "dynamics", "tempo", "io", "cli"}
# Counts a traced run must reproduce exactly.
EXACT_COUNTS = (
    "spectral.decompositions_per_graph",
    "graphs.laplacian_calls_per_graph",
    "tempo.relative_tempo_calls",
    "dynamics.rows_per_simulate",
    "sequences.edges_added",
    "io.bytes_written",
)
SEED = 5


def run(workload: str, trace: int) -> tuple[list[str], dict, dict]:
    """(printed lines before the result, result object, details file)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    details_path = ROOT / ".perfbench_work" / "results" / f"tiny-{workload}-seed{SEED}-trace{trace}.json"
    return lines[:-1], json.loads(lines[-1]), json.loads(details_path.read_text(encoding="utf-8"))


def assert_printed(lines: list[str], result: dict, wanted: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.split()[0] == m["name"] and line.split()[2] == m["unit"] for line in lines), m


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: run(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    lines, result, details = run(workload, 0)
    assert_printed(lines, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_ratio") for line in lines)
    env = details["environment"]
    for key in ("git_rev", "python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed"):
        assert key in env
    assert env["seed"] == SEED


def test_per_layer_metrics_and_spans_of_all_modules(traced):
    layers = set()
    for lines, result, details in traced.values():
        assert_printed(lines, result, SPEC["per_layer"])
        layers |= set(details["span_layers"])
    assert layers == MODULES
    assert traced["batch-small"][2]["worker_processes"] >= 1


def test_traced_counts_repeat_exactly(traced):
    for workload in WORKLOADS:
        _, again, _ = run(workload, 1)
        for name in EXACT_COUNTS:
            assert again["metrics"][name]["value"] == traced[workload][1]["metrics"][name]["value"], (
                workload, name)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_speed_probe_normalizes_by_probe_speed():
    from speed import REFERENCE_PROBE_S, SpeedProbe

    probe = SpeedProbe(in_process=True)
    # Probes at 0-0.1 s and 1.0-1.1 s, the second one twice as slow.
    probe.starts, probe.ends, probe.cpu = [0.0, 1.0], [0.1, 1.1], [REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    assert probe.probe_wall(0.05, 1.05) == pytest.approx(0.1)
    # 0.9 s of program time at a mean speed of (1 + 1/2) / 2.
    assert probe.normalized(0.05, 1.05) == pytest.approx(0.9 * 0.75)
    probe.in_process = False
    assert probe.normalized(0.05, 1.05) == pytest.approx(1.0 * 0.75)
