"""Run requests: the engine's unit of work.

A :class:`RunRequest` names everything needed to reproduce one
benchmark execution — benchmark, machine preset, node count, code
version tier, parameter overrides and an optional seed — in a purely
declarative, picklable, hashable form.  Its canonical JSON encoding
gives every request a stable content hash, which keys the result cache
and identifies the run in the store and trace.

The declarative form (preset *names*, not machine objects) is what lets
the executor ship requests to worker processes and rebuild identical
sessions on the other side.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.machine.network import NetworkModel
from repro.machine.presets import resolve_machine
from repro.machine.session import Session
from repro.versions import VersionTier

#: JSON-representable scalar types allowed as parameter values.
PARAM_SCALARS = (str, int, float, bool, type(None))

#: NetworkModel parameters a request may override (bandwidths,
#: latencies, topology factors) — campaign network axes sweep these.
NETWORK_FIELDS = frozenset(f.name for f in fields(NetworkModel))


def _freeze_network(overrides: Mapping[str, float]) -> Tuple[Tuple[str, float], ...]:
    """Normalize network overrides to a sorted, validated tuple."""
    items = []
    for key in sorted(overrides):
        if key not in NETWORK_FIELDS:
            known = ", ".join(sorted(NETWORK_FIELDS))
            raise ValueError(
                f"unknown network parameter {key!r}; known: {known}"
            )
        value = overrides[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(
                f"network parameter {key!r} must be a number, got {value!r}"
            )
        items.append((str(key), float(value)))
    return tuple(items)


def _freeze_params(params: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    """Normalize a parameter mapping to a sorted, hashable tuple."""
    items = []
    for key in sorted(params):
        value = params[key]
        if not isinstance(value, PARAM_SCALARS):
            raise TypeError(
                f"parameter {key!r} has non-scalar value {value!r}; "
                "run requests carry only JSON scalars"
            )
        items.append((str(key), value))
    return tuple(items)


@dataclass(frozen=True)
class RunRequest:
    """One reproducible benchmark execution, content-addressable.

    ``params`` may be given as a mapping; it is normalized to a sorted
    tuple of pairs so that equal requests hash equally regardless of
    insertion order.  ``seed`` participates in the content hash and is
    forwarded to the benchmark as a ``seed=`` parameter when set (only
    benchmarks that accept one should be given a seed).
    """

    benchmark: str
    machine: str = "cm5"
    nodes: int = 32
    tier: str = "basic"
    params: Tuple[Tuple[str, object], ...] = ()
    seed: Optional[int] = None
    #: machine-network parameter overrides (e.g. halved ``bw_link``);
    #: empty for the preset's stock interconnect
    network: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        params = self.params
        if isinstance(params, Mapping):
            frozen = _freeze_params(params)
        else:
            frozen = _freeze_params(dict(params))
        network = self.network
        if isinstance(network, Mapping):
            frozen_net = _freeze_network(network)
        else:
            frozen_net = _freeze_network(dict(network))
        object.__setattr__(self, "network", frozen_net)
        # Canonicalize the seed: ``RunRequest(seed=5)`` and
        # ``RunRequest(params={"seed": 5})`` execute identically, so they
        # must hash identically too — a params-spelled seed is merged into
        # the ``seed`` field (and a conflicting pair is an error) so cache
        # keys and plan dedup never alias.
        param_seeds = [v for k, v in frozen if k == "seed"]
        if param_seeds:
            (param_seed,) = param_seeds
            if param_seed is not None:
                if self.seed is not None and self.seed != param_seed:
                    raise ValueError(
                        f"conflicting seeds: seed={self.seed!r} vs "
                        f"params['seed']={param_seed!r}"
                    )
                object.__setattr__(self, "seed", param_seed)
            frozen = tuple((k, v) for k, v in frozen if k != "seed")
        object.__setattr__(self, "params", frozen)
        VersionTier(self.tier)  # validate eagerly, before any worker sees it
        # Content hash is computed lazily and cached: the engine hashes
        # every request several times (cache get/put, store, trace).
        object.__setattr__(self, "_content_hash", None)

    # -- views ----------------------------------------------------------
    @property
    def params_dict(self) -> Dict[str, object]:
        """Parameter overrides as a plain dictionary."""
        return dict(self.params)

    def describe(self) -> str:
        """Short human-readable label for progress/trace output."""
        net = "*" if self.network else ""
        return f"{self.benchmark} [{self.machine}{net}/{self.nodes} {self.tier}]"

    # -- canonical encoding ---------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary (inverse of :meth:`from_dict`).

        ``network`` appears only when overrides are set: stock-network
        requests keep the exact encoding (and content hash) they had
        before the field existed, so caches and stores stay valid.
        """
        record: Dict[str, object] = {
            "benchmark": self.benchmark,
            "machine": self.machine,
            "nodes": self.nodes,
            "tier": self.tier,
            "params": {k: v for k, v in self.params},
            "seed": self.seed,
        }
        if self.network:
            record["network"] = {k: v for k, v in self.network}
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "RunRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        return cls(
            benchmark=record["benchmark"],
            machine=record.get("machine", "cm5"),
            nodes=record.get("nodes", 32),
            tier=record.get("tier", "basic"),
            params=record.get("params", {}),
            seed=record.get("seed"),
            network=record.get("network", {}),
        )

    def canonical(self) -> str:
        """Deterministic JSON encoding (sorted keys, compact)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 of the canonical encoding; keys cache and store.

        Cached after the first computation — the request is frozen, so
        re-encoding the canonical JSON on every lookup is pure waste.
        """
        cached = self._content_hash
        if cached is None:
            cached = hashlib.sha256(
                self.canonical().encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    # -- execution ------------------------------------------------------
    def build_session(self) -> Session:
        """Construct a fresh session matching this request's spec.

        Network overrides derive a new frozen machine (and with it a
        fresh :class:`NetworkModel` whose per-instance cost memo starts
        empty) — cached stock presets are never mutated, so two
        requests differing only in overrides can never share priced
        costs.
        """
        machine = resolve_machine(self.machine, self.nodes)
        if self.network:
            machine = replace(
                machine,
                network=machine.network.with_overrides(**dict(self.network)),
            )
        return Session(machine, tier=VersionTier(self.tier))


def execute_request(
    request: RunRequest,
    session_factory: Optional[Callable[[], Session]] = None,
    *,
    observer: Optional[object] = None,
):
    """Run one request to a :class:`~repro.metrics.report.PerfReport`.

    ``session_factory`` supplies the session instead of a fresh one
    built from the request's declarative machine spec.

    ``observer`` (e.g. a :class:`repro.obs.SpanCollector`) is attached
    to the session's recorder before the benchmark runs.  Observers are
    read-only: the report is byte-identical with or without one.  The
    engine and ``repro serve`` attach none: they build the session from
    the spec, pass it through ``session_factory`` and summarize its
    recorder afterwards with :func:`repro.obs.span_summary`.
    """
    from repro.suite.runner import run_benchmark

    session = session_factory() if session_factory is not None else (
        request.build_session()
    )
    if observer is not None:
        observer.attach(session)
    params = request.params_dict
    if request.seed is not None:
        params.setdefault("seed", request.seed)
    return run_benchmark(request.benchmark, session, **params)
