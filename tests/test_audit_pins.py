"""Pinned runtime audits: charged against executed, every benchmark version.

Every registered benchmark runs under the sanitizer
(:func:`repro.check.audit_benchmark`) on a 32-node CM-5 at
``SMALL_PARAMS``, once per code version in ``spec.versions`` and per
variant value (matrix-vector and pcr layout variants, fft ``dims``,
n-body's eight AABC realizations).  Each region's over/under tallies,
observed payload moves, recorded comm and unmapped ufuncs must equal
the values committed in ``tests/data/audit_pins.json``.  Most are
zero; the nonzero ones are open accounting findings (docs/CHECKS.md,
"The pinned audit").  An uncharged operation or an unrecorded move
added to any benchmark changes a tally and fails here.

The executed side counts every ufunc that runs on a payload, including
those numpy's own functions run internally, so a numpy upgrade can move
a tally.  To regenerate the data after a deliberate change, run
``PYTHONPATH=src python -m tests.test_audit_pins`` from the repo root.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.apps.nbody import VARIANTS as NBODY_VARIANTS
from repro.check import audit_benchmark
from repro.machine.presets import cm5
from repro.suite import REGISTRY, SMALL_PARAMS

PINS_PATH = pathlib.Path(__file__).parent / "data" / "audit_pins.json"

#: the per-region audit fields each pin holds
FIELDS = (
    "over",
    "under_elementwise",
    "under_reduction",
    "movement_observed",
    "comm_recorded",
    "unmapped",
)

#: benchmark -> (parameter, values): the variants a version runs in
VARIANTS = {
    "matrix-vector": ("variant", (1, 2, 3, 4)),
    "pcr": ("variant", (1, 2, 3)),
    "fft": ("dims", (1, 2, 3)),
    "n-body": ("variant", NBODY_VARIANTS),
}


def combinations():
    """Yield ``(key, name, tier, params)`` for every audited run."""
    for name, spec in sorted(REGISTRY.items()):
        param, values = VARIANTS.get(name, (None, (None,)))
        for tier in spec.versions:
            for value in values:
                params = dict(SMALL_PARAMS[name])
                key = f"{name}/{tier.value}"
                if param is not None:
                    params[param] = value
                    key += f"/{param}={value}"
                yield key, name, tier, params


def tallies(name, tier, params):
    """``{region: {field: value}}`` for one audited run."""
    report = audit_benchmark(name, cm5(32), params=params, tier=tier)
    return {
        region.name: {f: getattr(region, f) for f in FIELDS}
        for region in report.regions
    }


COMBINATIONS = list(combinations())


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_every_combination_is_pinned(pins):
    assert set(pins) == {key for key, *_ in COMBINATIONS}


@pytest.mark.parametrize(
    "key, name, tier, params", COMBINATIONS, ids=[c[0] for c in COMBINATIONS]
)
def test_audit_matches_pin(pins, key, name, tier, params):
    got = tallies(name, tier, params)
    assert got == pins.get(key), (
        f"{key}: audit changed (numpy {np.__version__}); new tallies:\n"
        + json.dumps(got, indent=2, sort_keys=True)
    )


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps(
            {key: tallies(*rest) for key, *rest in COMBINATIONS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(COMBINATIONS)} audit pins to {PINS_PATH}")
