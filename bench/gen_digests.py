"""Generate ``data/digests.json``: the expected report of every request.

Runs every request any workload submits — the 32 suite requests and
the 1,012 points of ``benchmarks/campaigns/pr7_thousand.json`` —
serially in process, and records the SHA-256 of each report's
canonical JSON keyed by request content hash.  Regenerate only when a
change is meant to alter reported metrics.

    python3 bench/gen_digests.py
"""

import json
import sys

from common import DIGESTS_PATH, SPEC_PATH, report_digest, require_checkout


def universe():
    """Every request of every workload, deduplicated, in plan order."""
    from repro.campaign.spec import load_spec
    from repro.engine.plan import plan_suite

    seen = {}
    for request in plan_suite() + load_spec(SPEC_PATH).compile():
        seen.setdefault(request.content_hash(), request)
    return list(seen.values())


def main() -> int:
    require_checkout()
    from repro.engine.jobs import execute_request
    from repro.metrics.serialize import report_to_dict

    digests = {
        request.content_hash(): report_digest(report_to_dict(execute_request(request)))
        for request in universe()
    }
    DIGESTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
