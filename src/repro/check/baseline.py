"""Baseline (suppression) file for the linter.

``.repro-check.toml`` at the repo root holds *justified* suppressions
of pre-existing findings so the rule set can be adopted without
blocking on a full cleanup, then ratcheted toward zero.  Format::

    [[suppression]]
    code = "RC101"
    path = "src/repro/serve/example.py"
    symbol = "Server.handle"
    reason = "one small file read per request; offloading it would
              touch loop-confined state from a worker thread"

Entries match on ``(code, path, symbol)`` — never on line numbers,
which drift with unrelated edits.  ``path`` accepts ``*`` as a
trailing wildcard (``src/repro/apps/*``).  A ``reason`` is mandatory:
an unexplained suppression is itself a finding.  Suppressions that no
longer match anything are reported as stale so the baseline shrinks
as bugs are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.check.findings import Finding, LintResult

try:  # python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - py3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: Default baseline filename, looked up at the repo root.
BASELINE_NAME = ".repro-check.toml"


@dataclass(frozen=True)
class Suppression:
    """One baselined finding with its justification."""

    code: str
    path: str
    symbol: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        """True when this entry covers ``finding``."""
        if self.code != finding.code:
            return False
        if self.symbol not in ("*", finding.symbol):
            return False
        if self.path.endswith("*"):
            return finding.path.startswith(self.path[:-1])
        return self.path == finding.path

    @property
    def key(self) -> str:
        return f"{self.code}:{self.path}:{self.symbol}"


def _parse_toml_minimal(text: str) -> Dict[str, List[Dict[str, str]]]:
    """Restricted TOML reader for the baseline format (py3.10 path).

    Supports only ``[[suppression]]`` tables with ``key = "value"``
    string pairs and ``#`` comments — exactly what this file uses.
    """
    tables: List[Dict[str, str]] = []
    current: Optional[Dict[str, str]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[[suppression]]":
            current = {}
            tables.append(current)
            continue
        if line.startswith("["):
            current = None
            continue
        if current is not None and "=" in line:
            key, _, value = line.partition("=")
            value = value.strip()
            if value.startswith('"') and value.endswith('"') and len(value) >= 2:
                value = value[1:-1]
            current[key.strip()] = value
    return {"suppression": tables}


@dataclass
class Baseline:
    """The loaded suppression set."""

    suppressions: List[Suppression]
    source: Optional[Path] = None

    def apply(self, findings: Sequence[Finding]) -> LintResult:
        """Split findings into active vs suppressed; flag stale entries."""
        result = LintResult()
        used: set = set()
        for finding in findings:
            hit = None
            for supp in self.suppressions:
                if supp.matches(finding):
                    hit = supp
                    break
            if hit is None:
                result.active.append(finding)
            else:
                used.add(hit.key)
                result.suppressed.append(finding)
        result.unused_suppressions = [
            s.key for s in self.suppressions if s.key not in used
        ]
        return result


def load_baseline(path: Optional[Path] = None) -> Baseline:
    """Load ``.repro-check.toml``; an absent file means no suppressions."""
    if path is None:
        path = Path(BASELINE_NAME)
    if not path.exists():
        return Baseline(suppressions=[], source=None)
    text = path.read_text(encoding="utf-8")
    if tomllib is not None:
        data = tomllib.loads(text)
    else:  # pragma: no cover - py3.10 fallback
        data = _parse_toml_minimal(text)
    suppressions: List[Suppression] = []
    for entry in data.get("suppression", []):
        missing = {"code", "path", "symbol", "reason"} - set(entry)
        if missing:
            raise ValueError(
                f"baseline entry {entry!r} missing field(s): "
                f"{', '.join(sorted(missing))} (a justification is "
                "mandatory — an unexplained suppression is itself a "
                "finding)"
            )
        if not str(entry["reason"]).strip():
            raise ValueError(
                f"baseline entry for {entry['code']}:{entry['path']} has "
                "an empty reason"
            )
        suppressions.append(
            Suppression(
                code=str(entry["code"]),
                path=str(entry["path"]),
                symbol=str(entry["symbol"]),
                reason=str(entry["reason"]),
            )
        )
    return Baseline(suppressions=suppressions, source=path)


def write_baseline(findings: Sequence[Finding], path: Path) -> None:
    """Write a baseline covering ``findings`` (reasons left to fill in)."""
    lines: List[str] = [
        "# repro.check baseline - justified suppressions of linter",
        "# findings.  Matching is on (code, path, symbol); see",
        "# docs/CHECKS.md.  Fill in every reason before committing.",
        "",
    ]
    seen: set = set()
    for f in sorted(findings, key=lambda f: (f.path, f.code, f.symbol)):
        key = (f.code, f.path, f.symbol)
        if key in seen:
            continue
        seen.add(key)
        lines.extend(
            [
                "[[suppression]]",
                f'code = "{f.code}"',
                f'path = "{f.path}"',
                f'symbol = "{f.symbol}"',
                'reason = "TODO: justify or fix"',
                "",
            ]
        )
    path.write_text("\n".join(lines), encoding="utf-8")
