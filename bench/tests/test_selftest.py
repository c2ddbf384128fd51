"""The benchmark's self-test: tiny runs of every workload.

Each run must print every end-to-end (untraced) or per-layer (traced)
metric with its unit, keep set-up outside the timed window, and verify
every report.  A corrupted digest must fail the run; a job failed with
``REPRO_ENGINE_INJECT_FAIL`` must count as failed.

    python3 -m pytest bench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import DIGESTS_PATH, END_TO_END, PER_LAYER  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def run(workload, *extra, trace=0, env=None, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, env={**os.environ, **(env or {})},
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    detail = next(
        (json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")),
        None,
    )
    return proc, result, detail


def check_metrics(result, names):
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert NAME.match(name) and len(name) <= 64, name
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", ["suite", "campaign", "serve"])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc, result, detail = run(workload)
    assert proc.returncode == 0, proc.stderr
    check_metrics(result, END_TO_END)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["verified_ratio"]["value"] == 1.0
    assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)
    assert detail["setup_outside_window"] is True


@pytest.mark.parametrize("workload", ["suite", "campaign", "serve"])
def test_traced_run_emits_every_per_layer_metric(workload):
    proc, result, detail = run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    check_metrics(result, PER_LAYER)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["machine.charge_calls"]["value"] > 0
    assert Path(detail["spans_file"]).is_file()


def test_suite_matches_the_seed_baseline_exactly():
    proc, result, detail = run("suite")
    checked = int(detail["baseline_exact"].split("/")[1])
    assert detail["baseline_exact"] == f"{checked}/{checked}" and checked % 32 == 0


def test_one_corrupted_digest_fails_the_run(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.engine.plan import plan_suite

    doc = json.loads(DIGESTS_PATH.read_text())
    victim = plan_suite()[0].content_hash()
    doc["digests"][victim] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(doc))
    proc, result, _ = run("suite", "--digests", str(corrupted))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_injected_failure_counts_as_failed():
    proc, result, _ = run("campaign", env={"REPRO_ENGINE_INJECT_FAIL": "fft"})
    assert proc.returncode == 0, proc.stderr
    # the tiny campaign holds one fft point per pass
    assert result["failed"] >= 1
    assert result["metrics"]["verified_ratio"]["value"] < 1.0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, result, _ = run("suite", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert result is None
