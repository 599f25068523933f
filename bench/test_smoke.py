"""Tests of the benchmark itself, including a reduced-size run of every workload.

    python3 -m pytest bench -q

The smoke runs take about two minutes on two cores; the traced mixed-solve run
alone spends some 40 seconds in solves that need 10k-30k iterations each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from tracing import SpanTable  # noqa: E402


def run_bench(run_py: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_run_emits_every_metric(workload, trace):
    done = run_bench(BENCH / "run.py", "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0.0, done.stderr
    assert result["correct"], done.stderr
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        assert result["metrics"]["norms.iterations.mixed_flat_8"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark present, it refuses to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench(tmp_path / "bench" / "run.py", "--workload", "certify-corpus",
                     "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_and_busy_times():
    # item [0, 10] > solve [1, 4] > field op [2, 3]; item > solve [5, 9]
    spans = [
        ["bench.item", 0.0, 10.0, -1, 0, None],
        ["norms.sum_space_norm", 1.0, 4.0, 0, 0, {"iterations": 50, "gap": 1e-7}],
        ["norms.l1_norm", 2.0, 3.0, 1, 0, None],
        ["norms.sum_space_norm", 5.0, 9.0, 0, 0, {"iterations": 0, "gap": 0.0}],
    ]
    table = SpanTable(spans)
    assert table.self_time == [3.0, 2.0, 1.0, 4.0]
    assert sum(table.self_time) == 10.0
    assert table.busy("norms.") == 7.0
    assert table.self_total("norms.sum_space_norm") == 6.0
