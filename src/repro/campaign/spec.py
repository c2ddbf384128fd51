"""Declarative campaign specifications.

A campaign is the machine-space study ROADMAP calls for: a named,
reproducible sweep over benchmarks × version tiers × node counts ×
problem sizes × network parameters (machine presets), written as a
JSON document and compiled into a deduplicated
:class:`~repro.engine.jobs.RunRequest` plan.  The spec layer is pure
planning — no execution — so a spec can be compiled, counted and
diffed without touching the engine.

Spec document shape::

    {
      "name": "pr7-thousand",
      "description": "...",
      "seed": null,
      "groups": [
        {
          "benchmarks": ["diff-3d", "fft"],     // or "*" for the suite
          "machines": ["cm5", "cm5e"],
          "nodes": [32, 64, 128],
          "tiers": ["basic", "optimized"],
          "params": {"fft": {"dims": 2}},       // per-benchmark overrides
          "common_params": {"steps": 2},        // merged under params
          "param_grid": {"nx": [8, 16, 32]},    // cartesian parameter axes
          "network": {"collision_factor": 1.0}, // fixed interconnect overrides
          "network_grid": {                     // cartesian network axes
            "bw_link": [5e6, 10e6, 20e6]
          }
        }
      ]
    }

Each group expands to its full cartesian product (via
:func:`repro.engine.plan.expand_grid`); the campaign plan is the
concatenation of all groups with duplicates dropped by request content
hash, so overlapping groups cost nothing.  Plan order is group order —
the *first* group's points keep their bare benchmark keys in
``keyed_by_benchmark``, which is how a campaign run stays comparable
to plain suite baselines under ``engine check``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.engine.jobs import RunRequest
from repro.engine.plan import _dedup, expand_grid

#: Spec document schema version.
SPEC_SCHEMA_VERSION = 1

#: Keys a group object may carry — anything else is a typo and raises.
_GROUP_KEYS = frozenset(
    {
        "benchmarks",
        "machines",
        "nodes",
        "tiers",
        "params",
        "common_params",
        "param_grid",
        "network",
        "network_grid",
    }
)

_SPEC_KEYS = frozenset({"schema", "name", "description", "seed", "groups"})


@dataclass
class GroupSpec:
    """One cartesian block of a campaign."""

    benchmarks: Tuple[str, ...]
    machines: Tuple[str, ...] = ("cm5",)
    nodes: Tuple[int, ...] = (32,)
    tiers: Tuple[str, ...] = ("basic",)
    #: per-benchmark parameter overrides
    params: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: parameters applied to every benchmark of the group
    common_params: Dict[str, object] = field(default_factory=dict)
    #: cartesian parameter axes (problem-size sweeps)
    param_grid: Dict[str, List[object]] = field(default_factory=dict)
    #: fixed interconnect overrides applied to every request
    network: Dict[str, float] = field(default_factory=dict)
    #: cartesian network axes (bandwidth/latency sweeps), merged over
    #: the fixed overrides per combination
    network_grid: Dict[str, List[float]] = field(default_factory=dict)

    def benchmark_names(self) -> List[str]:
        """Expand ``"*"`` to the full registry, keep explicit lists."""
        names = list(self.benchmarks)
        if names == ["*"]:
            from repro.suite.registry import REGISTRY

            return list(REGISTRY)
        return names

    def requests(self, seed: Optional[int] = None) -> List[RunRequest]:
        """This group's deduplicated request plan."""
        return expand_grid(
            self.benchmark_names(),
            machines=self.machines,
            nodes=self.nodes,
            tiers=self.tiers,
            params=self.params,
            common_params=self.common_params,
            param_grid=self.param_grid,
            network=self.network,
            network_grid=self.network_grid,
            seed=seed,
        )

    def to_dict(self) -> Dict:
        record: Dict = {
            "benchmarks": list(self.benchmarks),
            "machines": list(self.machines),
            "nodes": list(self.nodes),
            "tiers": list(self.tiers),
        }
        if self.params:
            record["params"] = {k: dict(v) for k, v in self.params.items()}
        if self.common_params:
            record["common_params"] = dict(self.common_params)
        if self.param_grid:
            record["param_grid"] = {
                k: list(v) for k, v in self.param_grid.items()
            }
        if self.network:
            record["network"] = dict(self.network)
        if self.network_grid:
            record["network_grid"] = {
                k: list(v) for k, v in self.network_grid.items()
            }
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "GroupSpec":
        unknown = set(record) - _GROUP_KEYS
        if unknown:
            raise ValueError(
                f"unknown group key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_GROUP_KEYS)}"
            )
        benchmarks = record.get("benchmarks")
        if not benchmarks:
            raise ValueError("group needs a non-empty 'benchmarks' list")
        if isinstance(benchmarks, str):
            benchmarks = [benchmarks]
        return cls(
            benchmarks=tuple(benchmarks),
            machines=tuple(record.get("machines", ("cm5",))),
            nodes=tuple(int(n) for n in record.get("nodes", (32,))),
            tiers=tuple(record.get("tiers", ("basic",))),
            params={
                str(k): dict(v) for k, v in record.get("params", {}).items()
            },
            common_params=dict(record.get("common_params", {})),
            param_grid={
                str(k): list(v)
                for k, v in record.get("param_grid", {}).items()
            },
            network={
                str(k): float(v)
                for k, v in record.get("network", {}).items()
            },
            network_grid={
                str(k): [float(x) for x in v]
                for k, v in record.get("network_grid", {}).items()
            },
        )


@dataclass
class CampaignSpec:
    """A named, reproducible machine-space study."""

    name: str
    groups: List[GroupSpec] = field(default_factory=list)
    description: str = ""
    #: forwarded to every request (participates in content hashes)
    seed: Optional[int] = None

    def compile(self) -> List[RunRequest]:
        """The full plan: group order, duplicates dropped by hash."""
        requests: List[RunRequest] = []
        for group in self.groups:
            requests.extend(group.requests(seed=self.seed))
        return _dedup(requests)

    def point_count(self) -> int:
        """Number of unique points the campaign plans."""
        return len(self.compile())

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict:
        record: Dict = {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "groups": [group.to_dict() for group in self.groups],
        }
        if self.description:
            record["description"] = self.description
        if self.seed is not None:
            record["seed"] = self.seed
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "CampaignSpec":
        unknown = set(record) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown campaign key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_SPEC_KEYS)}"
            )
        schema = record.get("schema", SPEC_SCHEMA_VERSION)
        if isinstance(schema, (int, float)) and schema > SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"campaign spec uses schema v{int(schema)}, newer than "
                f"this reader's v{SPEC_SCHEMA_VERSION}"
            )
        name = record.get("name")
        if not name or not isinstance(name, str):
            raise ValueError("campaign spec needs a string 'name'")
        groups = record.get("groups")
        if not groups:
            raise ValueError("campaign spec needs a non-empty 'groups' list")
        seed = record.get("seed")
        return cls(
            name=name,
            description=str(record.get("description", "")),
            seed=int(seed) if seed is not None else None,
            groups=[GroupSpec.from_dict(g) for g in groups],
        )


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Read a campaign spec document from disk."""
    with Path(path).open(encoding="utf-8") as fh:
        return CampaignSpec.from_dict(json.load(fh))


def save_spec(spec: CampaignSpec, path: Union[str, Path]) -> Path:
    """Write a campaign spec document to disk."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return out
