"""The repository benchmark: one command, three workloads.

    python3 bench/run.py --workload suite|campaign|serve|all \\
        --seed N --seconds S --trace 0|1

* ``suite``    — the 32 paper benchmarks in process (simulation and
  accounting);
* ``campaign`` — the committed 1,012-point campaign, cold, through the
  engine and a 2-worker pool (dispatch, batching, cache and store
  writes);
* ``serve``    — two closed-loop clients against ``repro serve --jobs 2``
  (HTTP, dedupe, coalescing, cache reads).

With ``--trace 0`` the result carries every end-to-end metric; with
``--trace 1`` a separate traced run carries every per-layer metric
(``common.PER_LAYER``; a layer the workload never crosses reads 0).
Every returned report is checked against ``data/digests.json``; the
last stdout line is the JSON result.  Exit status: 0 when no report was
wrong (failed jobs are counted, not fatal), 1 when one was wrong or a
suite report left the seed baseline, 2 when the checkout cannot be
measured.  See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads (children inherit
# it): the host has two cores and the pools already run two workers, so
# BLAS threads would only oversubscribe them and add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import (  # noqa: E402
    DIGESTS_PATH,
    END_TO_END,
    PER_LAYER,
    ROOT,
    SetupError,
    child_env,
    require_checkout,
)

WORKLOADS = ("suite", "campaign", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="small inputs and one set-up sample (the benchmark's self-test)",
    )
    parser.add_argument(
        "--digests", type=Path, default=DIGESTS_PATH,
        help="report digests to verify against (default: data/digests.json)",
    )
    return parser.parse_args(argv)


def _print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")


def _run_all(args) -> int:
    """Each workload in a fresh interpreter; a combined table and result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--digests", str(args.digests)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=str(ROOT), timeout=900)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        _print_table(workload, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        require_checkout()
        if not args.digests.is_file():
            raise SetupError(f"no report digests at {args.digests}")
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    from common import Verifier

    verifier = Verifier(args.digests)
    if args.workload == "suite":
        import suite_wl as module
    elif args.workload == "campaign":
        import campaign_wl as module
    else:
        import serve_wl as module
    out = module.run(args.seed, args.seconds, bool(args.trace), args.tiny, verifier)
    if args.trace:
        not_on_path = sorted(set(PER_LAYER) - set(out.metrics))
        for name in not_on_path:
            out.metrics[name] = 0.0
        out.detail["not_on_path"] = not_on_path
        names = PER_LAYER
    else:
        out.metrics["verified_ratio"] = out.verified / max(1, out.attempted)
        names = END_TO_END
    result = out.result(names)
    print("detail: " + json.dumps({"workload": args.workload, **out.counts(), **out.detail},
                                  sort_keys=True, default=str))
    _print_table(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
