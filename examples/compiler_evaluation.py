#!/usr/bin/env python
"""The suite's intended use: evaluating data-parallel environments.

"The goal in developing the DPF benchmark suite was to produce a means
for evaluating such high performance software suites" (paper §1.1).
Here we compare three environments on a representative subset:

* a CM-5 partition with *basic* compiler-generated code,
* the same CM-5 with *CMSSL*-quality library code,
* a commodity cluster (fast nodes, thin network) with basic code.

The per-benchmark busy/elapsed times show where each environment wins
and by how much: library code recovers node performance on the CM-5,
and the (much newer) cluster's advantage is largest on
compute-dominated codes and narrows on latency-sensitive,
communication-rich ones — the suite separates the two effects.
"""

from repro import VersionTier, open_session
from repro.suite import run_suite
from repro.suite.tables import format_table

SUBSET = {
    "diff-3d": {"nx": 16, "steps": 4},
    "ellip-2d": {"nx": 16},
    "fft": {"n": 1024},
    "matrix-vector": {"n": 96, "repeats": 2},
    "transpose": {"n": 128, "repeats": 3},
    "qcd-kernel": {"nx": 4, "iterations": 2},
    "pic-gather-scatter": {"nx": 8, "n_p": 128, "steps": 1},
}

ENVIRONMENTS = {
    "CM-5/32 basic": lambda: open_session("cm5", 32, tier=VersionTier.BASIC),
    "CM-5/32 cmssl": lambda: open_session("cm5", 32, tier=VersionTier.CMSSL),
    "cluster/16 basic": lambda: open_session(
        "cluster", 16, tier=VersionTier.BASIC
    ),
}


def main() -> None:
    all_reports = {
        env: run_suite(factory, names=SUBSET, params=SUBSET)
        for env, factory in ENVIRONMENTS.items()
    }
    rows = []
    for name in SUBSET:
        cells = [name]
        for env in ENVIRONMENTS:
            rep = all_reports[env][name]
            cells.append(f"{rep.elapsed_time * 1e3:.3f}")
        best_env = min(
            ENVIRONMENTS, key=lambda e: all_reports[e][name].elapsed_time
        )
        cells.append(best_env)
        rows.append(cells)
    print("elapsed time (ms) per environment\n")
    print(
        format_table(
            ["benchmark", *ENVIRONMENTS.keys(), "winner"], rows
        )
    )
    print()
    # Arithmetic efficiencies on the CM-5, basic vs cmssl.
    rows = []
    for name in SUBSET:
        basic = all_reports["CM-5/32 basic"][name]
        cmssl = all_reports["CM-5/32 cmssl"][name]
        if basic.flop_count == 0:
            continue
        rows.append(
            [
                name,
                f"{100 * basic.arithmetic_efficiency:.2f}%",
                f"{100 * cmssl.arithmetic_efficiency:.2f}%",
            ]
        )
    print("arithmetic efficiency (busy rate / peak), CM-5/32\n")
    print(format_table(["benchmark", "basic", "cmssl"], rows))


if __name__ == "__main__":
    main()
