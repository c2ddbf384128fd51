"""Finding type and output formats for the accounting linter."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Rule catalog: code -> one-line summary (the long-form rationale
#: lives in docs/CHECKS.md).
RULES: Dict[str, str] = {
    "RC000": "source does not parse: nothing else can be checked",
    "RC101": "blocking call in async code: a coroutine (or sync code "
    "it calls without an executor hop) sleeps, locks, or does file "
    "I/O on the event loop thread",
    "RC102": "cross-thread asyncio mutation: an asyncio queue/future/"
    "event or the loop itself is touched from a worker thread "
    "without loop.call_soon_threadsafe",
    "RC103": "lock-order cycle: two or more locks (threading or "
    "flock) are acquired in inconsistent nesting orders across the "
    "call graph — a deadlock window",
    "RC104": "unguarded shared state: an attribute written from both "
    "coroutine and thread context with at least one write outside "
    "any lock",
}


@dataclass(frozen=True)
class Finding:
    """One linter finding, addressable for suppression.

    Suppressions match on ``(code, path, symbol)`` — not the line
    number, which drifts with unrelated edits.  ``symbol`` is the
    dotted in-module path of the enclosing function (``Class.method``
    for methods, ``<module>`` at module level).
    """

    code: str
    path: str
    line: int
    col: int
    symbol: str
    message: str

    @property
    def location(self) -> str:
        """``path:line:col`` for editors."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class LintResult:
    """Outcome of a lint run after baseline filtering."""

    active: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: baseline entries that matched nothing (stale; candidates for
    #: deletion so the baseline ratchets toward zero)
    unused_suppressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.active


def format_findings(result: LintResult, *, verbose: bool = False) -> str:
    """Human-readable report, one line per finding."""
    lines: List[str] = []
    for f in sorted(result.active, key=lambda f: (f.path, f.line, f.code)):
        lines.append(f"{f.location}: {f.code} [{f.symbol}] {f.message}")
    if verbose:
        for f in sorted(
            result.suppressed, key=lambda f: (f.path, f.line, f.code)
        ):
            lines.append(
                f"{f.location}: {f.code} [{f.symbol}] suppressed by baseline"
            )
    for entry in result.unused_suppressions:
        lines.append(f"baseline: unused suppression {entry}")
    lines.append(
        f"{len(result.active)} finding(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{len(result.unused_suppressions)} stale suppression(s)"
    )
    return "\n".join(lines)


def findings_to_json(result: LintResult) -> str:
    """Machine-readable report for CI."""
    return json.dumps(
        {
            "findings": [f.to_dict() for f in result.active],
            "suppressed": [f.to_dict() for f in result.suppressed],
            "unused_suppressions": result.unused_suppressions,
            "ok": result.ok,
        },
        indent=2,
        sort_keys=True,
    )


def summarize_codes(findings: Sequence[Finding]) -> Dict[str, int]:
    """Finding counts by rule code (for the ratchet record)."""
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    return dict(sorted(counts.items()))
