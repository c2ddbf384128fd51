#!/usr/bin/env python
"""Registering a user benchmark in the DPF suite.

The registry is open: a downstream user can add their own application
kernel, declare its layout/communication metadata (the Table-5/7 rows
it would occupy) and run it through the same harness, reports and
tables as the stock 32 benchmarks.

The example adds `smooth-relax` — red-black Gauss-Seidel smoothing on
a 2-D grid, a kernel the stock suite does not cover.
"""

import numpy as np

from repro import open_session, run_benchmark
from repro.apps.base import AppResult
from repro.array import from_numpy
from repro.array.masks import assign_where
from repro.comm.primitives import cshift, reduce_array
from repro.metrics.access import LocalAccess
from repro.metrics.patterns import CommPattern
from repro.suite.registry import REGISTRY, BenchmarkSpec
from repro.versions import VersionTier


def smooth_relax(session, nx: int = 32, sweeps: int = 20, seed: int = 0):
    """Red-black Gauss-Seidel relaxation of laplace(u) = f."""
    rng = np.random.default_rng(seed)
    f = from_numpy(session, rng.standard_normal((nx, nx)), "(:,:)")
    u = from_numpy(session, np.zeros((nx, nx)), "(:,:)")
    session.declare_memory("u", (nx, nx), np.float64)
    session.declare_memory("f", (nx, nx), np.float64)

    ii, jj = np.meshgrid(np.arange(nx), np.arange(nx), indexing="ij")
    red = from_numpy(session, (ii + jj) % 2 == 0, "(:,:)")
    black = from_numpy(session, (ii + jj) % 2 == 1, "(:,:)")

    res = np.inf
    with session.region("main_loop", iterations=sweeps):
        for _ in range(sweeps):
            for mask in (red, black):
                neigh = (
                    cshift(u, 1, 0) + cshift(u, -1, 0)
                    + cshift(u, 1, 1) + cshift(u, -1, 1)
                )
                update = 0.25 * (neigh - f)
                assign_where(u, mask, update)
            r = (
                cshift(u, 1, 0) + cshift(u, -1, 0)
                + cshift(u, 1, 1) + cshift(u, -1, 1)
                - 4.0 * u - f
            )
            res = float(reduce_array(r.abs(), "max"))
    return AppResult(
        name="smooth-relax",
        iterations=sweeps,
        problem_size=nx * nx,
        local_access=LocalAccess.NA,
        observables={"residual_inf": res},
    )


def main() -> None:
    REGISTRY["smooth-relax"] = BenchmarkSpec(
        name="smooth-relax",
        group="app",
        runner=smooth_relax,
        versions=(VersionTier.BASIC,),
        layouts=("(:,:)",),
        local_access=LocalAccess.NA,
        comm_patterns={
            CommPattern.CSHIFT: (2,),
            CommPattern.REDUCTION: (2,),
        },
        techniques={"stencil": "CSHIFT"},
        default_params={"nx": 32, "sweeps": 20},
        description="red-black Gauss-Seidel smoothing (user benchmark)",
    )

    report = run_benchmark("smooth-relax", open_session("cm5", 32))
    print(report.summary())
    print(f"\nresidual after smoothing: {report.extra['residual_inf']:.4f}")
    print(
        "\nThe custom benchmark now regenerates into the suite tables "
        "alongside the stock codes:"
    )
    from repro.suite.tables import table7_comm

    for line in table7_comm().splitlines():
        if "smooth-relax" in line or line.startswith(("Pattern", "---")):
            print(line)


if __name__ == "__main__":
    main()
