"""Static linter and FLOP/comm sanitizer (``repro check``).

The paper's value is its *accounting*: every benchmark is characterized
by FLOP counts under the Hennessy-Patterson convention (§1.5), a
communication-pattern inventory and a memory footprint.  In this
reproduction those charges are explicit ``session.charge_*`` /
``record_comm`` calls sitting next to the NumPy math, so a drifted or
missing charge silently corrupts the metrics the suite exists to
report.  This package has two layers:

* :mod:`repro.check.sanitizer` — a runtime audit mode that
  shadow-counts the NumPy operations actually executed on distributed
  payloads (via a thin ufunc-intercept array subclass) and diffs them
  against the charged FLOPs and communication events, per region.
  Tier-1 audits every benchmark version against committed tallies
  (``tests/test_audit_pins.py``), so an uncharged operation or an
  unrecorded move fails a test.
* :mod:`repro.check.lint` — a static AST linter, run over the
  serving, engine and benchmark sources through a module-level call
  graph (:mod:`repro.check.callgraph`): the RC101-RC104 concurrency
  family for the async serving stack (:mod:`repro.check.concurrency`).
  Results export to SARIF 2.1.0 (:mod:`repro.check.sarif`).

Session discipline, iteration markers and the communication-pattern
inventory are checked at run time instead: ``run_benchmark`` refuses a
reused session, the tier-1 report digests and audit pins fail when a
region is never entered, iteration markers come from the
``Session.iterations`` iterator (there is no marker to leave
unentered), and tier-1 checks every run's recorded patterns against
the registry (``tests/test_comm_inventory.py``).

Pre-existing lint findings can be suppressed — with justification — in
a :mod:`baseline file <repro.check.baseline>` (``.repro-check.toml``).

See ``docs/CHECKS.md`` for the rule catalog and CLI usage.
"""

from repro.check.baseline import Baseline, Suppression, load_baseline
from repro.check.callgraph import CallGraph
from repro.check.concurrency import concurrency_findings
from repro.check.findings import Finding, findings_to_json, format_findings
from repro.check.lint import lint_paths, lint_source, lint_sources
from repro.check.sanitizer import AuditReport, AuditSession, audit_benchmark
from repro.check.sarif import sarif_to_json, to_sarif, validate_sarif

__all__ = [
    "AuditReport",
    "AuditSession",
    "Baseline",
    "CallGraph",
    "Finding",
    "Suppression",
    "audit_benchmark",
    "concurrency_findings",
    "findings_to_json",
    "format_findings",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "sarif_to_json",
    "to_sarif",
    "validate_sarif",
]
