"""One fresh-interpreter set-up of the ``suite`` workload.

Imports the benchmark stack and runs the untimed warm-up pass, then
prints one JSON line with the import and warm-up seconds and the
system-wide monotonic time at which it was ready.  The parent measures
``setup_s`` as spawn-to-ready, so interpreter start-up counts too.

    python3 bench/setup_probe.py
"""

import json
import sys
import time

started = time.monotonic()

from common import clock, require_checkout  # noqa: E402

require_checkout()

from repro.engine.jobs import execute_request  # noqa: E402
from repro.engine.plan import plan_suite  # noqa: E402
from repro.metrics.serialize import report_to_dict  # noqa: E402

imported = time.monotonic()
for request in plan_suite():
    report_to_dict(execute_request(request))
ready = clock()
print(json.dumps({"import_s": imported - started, "warm_s": ready - imported, "ready_at": ready}))
sys.stdout.flush()
