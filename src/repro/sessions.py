"""One place to open execution sessions.

Every consumer — examples, the benchmark harness, the CLI — builds its
sessions through :func:`open_session`, so machine-preset resolution
and tier parsing cannot drift between them.  A session accounts
communication in per-``(pattern, rank, detail)`` streams; per-event
views come from attaching a :class:`repro.obs.SpanCollector`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.machine.presets import resolve_machine
from repro.machine.session import Session
from repro.versions import VersionTier

__all__ = ["open_session"]


def open_session(
    machine: str = "cm5",
    nodes: Optional[int] = None,
    *,
    tier: Union[VersionTier, str] = VersionTier.BASIC,
) -> Session:
    """Build a session on a named machine preset.

    ``nodes=None`` takes the preset's default size.  ``tier`` accepts
    the enum or its string value.
    """
    return Session(resolve_machine(machine, nodes), tier=VersionTier(tier))
