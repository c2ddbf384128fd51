"""Sensitivity check: the existing speed switches against the default.

Runs ``suite`` and ``campaign`` with ``REPRO_ENGINE_BATCH=0`` and with
``REPRO_CHARGE_BUFFER=0`` next to the default, interleaving the arms
seed by seed, plus one traced run per arm and workload.  Prints, per
workload and arm, each metric's median and its change against the
default as a share of the default, flagged where it exceeds the
metric's bound in ``BENCHMARK.json``.  Adds no switch of its own.

    python3 bench/sensitivity.py --seeds 3 --seconds 15 [--out FILE.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

ARMS = {
    "default": {},
    "batch_off": {"REPRO_ENGINE_BATCH": "0"},
    "buffer_off": {"REPRO_CHARGE_BUFFER": "0"},
}
WORKLOADS = ("suite", "campaign")


def run(workload, seed, seconds, trace, env):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=600,
        env={**os.environ, **env},
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} {env} failed verification")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs = {(w, a): [] for w in WORKLOADS for a in ARMS}
    for seed in range(101, 101 + args.seeds):
        for workload in WORKLOADS:
            for arm, env in ARMS.items():
                runs[workload, arm].append(run(workload, seed, args.seconds, 0, env))
    traced = {
        (w, a): run(w, 100, args.seconds, 1, env) for w in WORKLOADS for a, env in ARMS.items()
    }
    report = {}
    for workload in WORKLOADS:
        base = {k: statistics.median(r[k] for r in runs[workload, "default"]) for k in bounds}
        base_layer = traced[workload, "default"]
        for arm in ARMS:
            med = {k: statistics.median(r[k] for r in runs[workload, arm]) for k in bounds}
            rows = {}
            for name, bound in bounds.items():
                change = (med[name] - base[name]) / base[name]
                rows[name] = {"median": med[name], "change": change,
                              "beyond_bound": abs(change) > bound}
            layer = {
                name: {"value": value, "default": base_layer[name]}
                for name, value in traced[workload, arm].items()
                if base_layer[name] and abs(value - base_layer[name]) > 0.25 * abs(base_layer[name])
            }
            report[f"{workload}/{arm}"] = {"end_to_end": rows, "per_layer_moved_25pct": layer}
            print(f"== {workload} {arm} ({len(runs[workload, arm])} runs)")
            for name, row in rows.items():
                flag = "  BEYOND BOUND" if row["beyond_bound"] and arm != "default" else ""
                print(f"  {name:18s} {row['median']:12.5g} {100 * row['change']:+7.1f}%{flag}")
            for name, row in sorted(layer.items()):
                print(f"  layer {name:34s} {row['default']:12.5g} -> {row['value']:.5g}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
