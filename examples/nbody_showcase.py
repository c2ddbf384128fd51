#!/usr/bin/env python
"""The eight n-body variants of Table 6, compared.

The paper provides the generic direct N-body solver in eight forms
that differ only in how the all-to-all broadcast is realized
(broadcast / spread / systolic cshift, with and without padding and
Newton's-third-law symmetry).  All eight compute identical forces;
their communication and memory signatures differ — exactly the
trade-off the benchmark exists to expose.
"""

from repro import open_session
from repro.apps import nbody
from repro.suite.tables import format_table


def main() -> None:
    n = 96
    rows = []
    for variant in nbody.VARIANTS:
        session = open_session("cm5", 32)
        result = nbody.run(session, n=n, variant=variant)
        rec = session.recorder
        main_loop = rec.root.find("main_loop")
        comm = main_loop.comm_counts_per_iteration()
        comm_str = ", ".join(
            f"{v:g} {k.value}" for k, v in sorted(comm.items(), key=lambda kv: kv[0].value)
        )
        rows.append(
            [
                variant,
                f"{result.iterations}",
                f"{rec.total_flops}",
                f"{rec.busy_time * 1e3:.3f}",
                f"{rec.elapsed_time * 1e3:.3f}",
                f"{main_loop.network_bytes}",
                f"{result.observables['force_error']:.1e}",
                comm_str,
            ]
        )
    print(f"direct 2-D N-body, n = {n} bodies, one force evaluation\n")
    print(
        format_table(
            [
                "variant",
                "iters",
                "FLOPs",
                "busy ms",
                "elapsed ms",
                "net bytes",
                "force err",
                "comm/iter",
            ],
            rows,
        )
    )
    print(
        "\nReading the table: the systolic (cshift) variants trade "
        "latency (one exchange per step) for the spread variants' "
        "bandwidth (the full n x n interaction array at once); the "
        "symmetric variants halve both the arithmetic and the steps."
    )


if __name__ == "__main__":
    main()
