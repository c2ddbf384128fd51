"""Lint driver: walk sources, build the call graph, apply the rules.

Every entry point builds one call graph over its sources and runs the
RC1xx concurrency family through it:

* :func:`lint_source` — lint one source string (used by tests).
* :func:`lint_sources` — lint several named source strings through one
  shared call graph (cross-module fixtures).
* :func:`lint_paths` — lint files/directories through the repo-wide
  call graph, apply the baseline, and return a
  :class:`~repro.check.findings.LintResult`.  ``report_paths``
  restricts which files' findings are *reported* without shrinking the
  graph (``repro check lint --changed``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.baseline import Baseline, load_baseline
from repro.check.callgraph import CallGraph
from repro.check.concurrency import concurrency_findings
from repro.check.findings import Finding, LintResult

#: Directories never linted (fixtures with intentionally bad code live
#: under tests/).
SKIP_PARTS = {"__pycache__", ".git", "tests"}


def _parse_units(
    sources: Sequence[Tuple[str, str]],
) -> Tuple[List[Tuple[str, ast.Module]], List[Finding]]:
    """Parse ``(path, source)`` pairs; RC000 findings for failures."""
    units: List[Tuple[str, ast.Module]] = []
    findings: List[Finding] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(Finding(
                code="RC000",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                symbol="<module>",
                message=f"source does not parse: {exc.msg}",
            ))
            continue
        units.append((path, tree))
    return units, findings


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string; returns raw findings (no baseline)."""
    return lint_sources([(path, source)])


def lint_sources(sources: Sequence[Tuple[str, str]]) -> List[Finding]:
    """Lint named source strings through one shared call graph."""
    units, findings = _parse_units(sources)
    findings.extend(concurrency_findings(CallGraph.build(units)))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into the python files to lint."""
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not SKIP_PARTS & set(sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path],
    *,
    baseline: Optional[Baseline] = None,
    baseline_path: Optional[Path] = None,
    root: Optional[Path] = None,
    report_paths: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint files/dirs and apply the baseline.

    Paths in findings are reported relative to ``root`` (default: the
    current directory) so they match baseline entries regardless of how
    the linted paths were spelled.

    ``report_paths`` (relative path strings) filters the *reported*
    findings to those files after the baseline is applied against the
    full set, so ``--changed`` shares the full-repo graph and never
    invents stale-suppression noise for files outside the diff.
    """
    if baseline is None:
        baseline = load_baseline(baseline_path)
    if root is None:
        root = Path.cwd()
    sources: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(root.resolve())
            shown = str(rel)
        except ValueError:
            shown = str(file_path)
        sources.append((shown, file_path.read_text(encoding="utf-8")))
    result = baseline.apply(lint_sources(sources))
    if report_paths is not None:
        shown_set: Set[str] = {str(p) for p in report_paths}
        result = LintResult(
            active=[f for f in result.active if f.path in shown_set],
            suppressed=[
                f for f in result.suppressed if f.path in shown_set
            ],
            # a partial report cannot judge baseline staleness
            unused_suppressions=[],
        )
    return result
