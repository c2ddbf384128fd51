"""Start ``repro.serve.run_server`` with the benchmark's instruments.

The traced ``serve`` workload launches its server through this file
instead of ``python -m repro serve``.  ``--spans PATH`` wraps the
engine calls the server makes (cache, store, pool futures) in spans;
``--profile PATH`` runs the server under cProfile and writes the
rollup by package.  Both files are written when the server stops.
Either way it announces its port exactly as ``repro serve`` does, so
the benchmark drives both the same way.

    python3 bench/serve_launcher.py --port 0 --store DIR --cache-dir DIR \\
        [--spans OUT.jsonl] [--profile OUT.json]
"""

import argparse
import json
import time

started = time.monotonic()

from common import WORKERS, require_checkout  # noqa: E402

require_checkout()

from repro.engine.pool import WorkerPool  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402
from repro.serve.server import run_server  # noqa: E402

imported = time.monotonic()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--store", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--profile")
    parser.add_argument("--setup-out", required=True)
    args = parser.parse_args()

    warm = {}
    original_warmup = WorkerPool.warmup

    def timed_warmup(self, timeout=None):
        warm["pool_warm_s"] = original_warmup(self, timeout)
        return warm["pool_warm_s"]

    WorkerPool.warmup = timed_warmup

    tracer = profile = None
    if args.spans:
        from tracing import Patcher, Tracer, install_engine

        tracer = Tracer()
        install_engine(Patcher(tracer), serve=True)
    if args.profile:
        from tracing import Profile

        profile = Profile()

    def announce(address):
        host, port = address
        print(f"repro serve on {host}:{port} ({WORKERS} warm workers)", flush=True)

    config = ServeConfig(
        port=args.port, workers=WORKERS, store=args.store, cache_dir=args.cache_dir
    )
    if profile is not None:
        with profile:
            run_server(config, on_bound=announce)
        with open(args.profile, "w", encoding="utf-8") as fh:
            json.dump(profile.rollup(), fh)
    else:
        run_server(config, on_bound=announce)
    if tracer is not None:
        from pathlib import Path

        tracer.export(Path(args.spans))
    with open(args.setup_out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": imported - started, **warm}, fh)


if __name__ == "__main__":
    main()
