"""Benchmark runner: execute registered benchmarks and build reports."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.machine.session import Session
from repro.metrics.report import PerfReport
from repro.suite.registry import REGISTRY


def run_benchmark(name: str, session: Session, **params) -> PerfReport:
    """Run one benchmark in the given session and return its report.

    The session's recorder **must be fresh**: the report's totals are
    read off the recorder root, so any previously recorded activity
    (an earlier benchmark run, stray charges, memory declarations)
    would silently pollute them.  A session with recorded activity
    raises ``ValueError`` — create one session per run.  Extra
    ``params`` override the spec's defaults.  The benchmark's
    verification observables are attached to ``report.extra``.
    """
    try:
        spec = REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None
    if session.recorder.has_activity:
        raise ValueError(
            "session recorder already has recorded activity; "
            f"run_benchmark({name!r}) needs a fresh session so the "
            "report describes this benchmark alone"
        )
    tier_overrides = spec.tier_params.get(session.tier, {})
    merged = {**spec.default_params, **tier_overrides, **params}
    result = spec.runner(session, **merged)
    report = PerfReport.from_recorder(
        result.name,
        session.tier.value,
        session.recorder,
        problem_size=result.problem_size,
        local_access=result.local_access,
        iterations=result.iterations,
        peak_mflops=session.machine.peak_mflops,
    )
    report.extra.update(result.observables)
    return report


def run_suite(
    session_factory,
    names: Optional[Iterable[str]] = None,
    params: Optional[Dict[str, Dict]] = None,
) -> Dict[str, PerfReport]:
    """Run many benchmarks in process, one fresh session each.

    ``session_factory`` is a zero-argument callable returning a new
    :class:`Session` (e.g. ``lambda: Session(cm5(32))``); ``params``
    maps benchmark name to parameter overrides; ``names`` defaults to
    every registered benchmark.  Exceptions propagate.  Use
    :mod:`repro.engine` for parallel, cached or persisted runs.
    """
    params = params or {}
    return {
        name: run_benchmark(name, session_factory(), **params.get(name, {}))
        for name in (REGISTRY if names is None else names)
    }
