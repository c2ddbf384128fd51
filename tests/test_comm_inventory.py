"""Recorded communication inventories against the registry (Tables 3, 7).

Every (benchmark, version, variant) run that the audit pins enumerate
(``tests.test_audit_pins.COMBINATIONS``) runs once on a 32-node CM-5 at
``SMALL_PARAMS``, and the patterns its recorder holds are checked two
ways:

* a run records only patterns the registry lists for its benchmark:
  the paper's ``comm_patterns`` or the implementation-level
  ``comm_extras``;
* every declared pattern is recorded by at least one run of its
  benchmark.  ``EXEMPT`` names the declared patterns no run records,
  each with its reason; an exemption whose pattern is recorded fails
  as well, so the list cannot go stale.

The whole matrix runs in well under a second.
"""

import pytest

from repro import Session, cm5
from repro.metrics.patterns import CommPattern
from repro.suite import REGISTRY, run_benchmark
from tests.test_audit_pins import COMBINATIONS

#: (benchmark, declared pattern) -> why no run records it
EXEMPT = {
    ("n-body", CommPattern.AABC): (
        "Table 7 declares AABC for n-body, but the implementation "
        "realizes it through CSHIFT, SPREAD and broadcast (the Table 8 "
        "technique note), so no run records AABC itself"
    ),
}


@pytest.fixture(scope="module")
def recorded():
    """``{key: recorded patterns}`` for every audited combination."""
    out = {}
    for key, name, tier, params in COMBINATIONS:
        session = Session(cm5(32), tier=tier)
        run_benchmark(name, session, **params)
        out[key] = set(session.recorder.root.comm_counts())
    return out


@pytest.mark.parametrize(
    "key, name",
    [(key, name) for key, name, *_ in COMBINATIONS],
    ids=[key for key, *_ in COMBINATIONS],
)
def test_recorded_patterns_are_declared(recorded, key, name):
    spec = REGISTRY[name]
    undeclared = (
        recorded[key] - set(spec.comm_patterns) - set(spec.comm_extras)
    )
    assert not undeclared, (
        f"{key} records {sorted(p.name for p in undeclared)}, which the "
        "registry lists in neither comm_patterns nor comm_extras"
    )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_declared_patterns_are_recorded(recorded, name):
    seen = set().union(
        *(recorded[key] for key, bench, *_ in COMBINATIONS if bench == name)
    )
    missing = set(REGISTRY[name].comm_patterns) - seen
    exempt = {pattern for bench, pattern in EXEMPT if bench == name}
    assert missing == exempt, (
        f"{name}: declared but never recorded "
        f"{sorted(p.name for p in missing - exempt)}; exempt but recorded "
        f"{sorted(p.name for p in exempt - missing)}"
    )
