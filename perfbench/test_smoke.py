"""Schema smoke test of the benchmark's tiny mode. It gates on no timing.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "train": {"setup_s", "warmup_steps_per_s", "warmup_steps_per_s.best",
              "warmup_steps_per_s.tail", "train_episode_s.best",
              "train_episode_s.p50", "train_episode_s.tail", "train_s",
              "peak_rss_mb", "failed_ratio"},
    "evaluate": {"setup_s", "rule_eval_slots_per_s", "rule_eval_slots_per_s.best",
                 "rule_eval_slots_per_s.tail", "policy_eval_slots_per_s",
                 "audit_slots_per_s", "audit_day_s.best", "audit_day_s.p50",
                 "audit_day_s.tail", "dp_solve_s", "evaluate_s", "peak_rss_mb",
                 "failed_ratio"},
}


def run_all(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["workloads"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_mode_schema(trace, section):
    results = run_all(trace)
    assert set(results) == {w["name"] for w in DEFINITION["workloads"]}
    expected_units = {m["name"]: m["unit"] for m in DEFINITION[section]}
    for workload, entry in results.items():
        result = entry["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int) and result["failed"] >= 0
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expected_units
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())

        named = entry["report"]["named"]
        family = "evaluate" if workload == "evaluate" else "train"
        assert NAMED[family] <= set(named)
        for figure in named.values():
            assert figure["unit"] and isinstance(figure["n"], int)
        assert entry["report"]["environment"]["numpy"]
