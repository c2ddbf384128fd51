"""Registry of the 32 DPF benchmarks (paper Tables 1, 2, 5, 7, 8).

Each :class:`BenchmarkSpec` records:

* the code versions provided (Table 1).  The checkmark matrix of the
  paper's Table 1 does not survive text extraction, so the version
  sets are reconstructed from the prose: every benchmark has a
  ``basic`` version; the linear-algebra suites mirror CMSSL interfaces
  and carry ``library``/``cmssl`` versions; the benchmarks the paper
  shows with two marks (fermion, fft, ks-spectral, matrix-vector, pcr,
  qr, transpose, wave-1D) carry ``optimized`` versions; the
  performance-critical kernels carry ``c_dpeac``.  EXPERIMENTS.md
  discusses this reconstruction.
* the data layouts of the dominating computations (Tables 2 and 5);
* the communication patterns with operand ranks (Tables 3 and 7);
* the implementation techniques for stencil/gather/scatter/AABC
  (Table 8);
* the adapter that runs it and its default parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from repro.metrics.access import LocalAccess
from repro.metrics.patterns import CommPattern
from repro.versions import VersionTier

B = VersionTier.BASIC
O = VersionTier.OPTIMIZED  # noqa: E741 - the paper's Table 1 letter
L = VersionTier.LIBRARY
C = VersionTier.CMSSL
D = VersionTier.C_DPEAC


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static metadata plus the runner for one benchmark."""

    name: str
    group: str  # "comm" | "linalg" | "app"
    runner: Callable
    versions: Tuple[VersionTier, ...]
    layouts: Tuple[str, ...]
    local_access: LocalAccess
    #: pattern -> operand rank(s), per Tables 3 and 7
    comm_patterns: Mapping[CommPattern, Tuple[int, ...]]
    #: Table 8 technique notes, pattern name -> technique
    techniques: Mapping[str, str] = field(default_factory=dict)
    default_params: Mapping[str, object] = field(default_factory=dict)
    description: str = ""
    #: per-version parameter overrides: the code versions of Table 1
    #: are real algorithmic variants, not just code-quality factors —
    #: e.g. pcr's basic version shifts each coefficient array
    #: separately while the optimized one shifts the packed pair, and
    #: n-body's versions select the AABC realization.
    tier_params: Mapping[VersionTier, Mapping[str, object]] = field(
        default_factory=dict
    )
    #: implementation-level patterns that legitimately occur beyond the
    #: Table 3/7 list (stencils composed from primitives, FFT-internal
    #: motions and sweep markers, solver substrates — discussed in
    #: EXPERIMENTS.md).  Tier-1's inventory test
    #: (``tests/test_comm_inventory.py``) accepts a run's recorded
    #: patterns when they lie in ``comm_patterns | comm_extras``.
    comm_extras: Tuple[CommPattern, ...] = ()


def _build_registry() -> Dict[str, BenchmarkSpec]:
    from repro.apps import (
        boson,
        diff1d,
        diff2d,
        diff3d,
        ellip2d,
        fem3d,
        fermion,
        gmo,
        ks_spectral,
        md,
        mdcell,
        nbody,
        pic_gather_scatter,
        pic_simple,
        qcd_kernel,
        qmc,
        qptransport,
        rp,
        step4,
        wave1d,
    )
    from repro.suite import adapters

    specs = [
        # ---------------- communication library (paper §2) ----------------
        BenchmarkSpec(
            "gather", "comm", adapters.gather_adapter, (B, O),
            ("(:)",), LocalAccess.NA,
            {CommPattern.GATHER: (1,)},
            description="many-to-one communication through the router",
        ),
        BenchmarkSpec(
            "scatter", "comm", adapters.scatter_adapter, (B, O),
            ("(:)",), LocalAccess.NA,
            {CommPattern.SCATTER: (1,)},
            description="one-to-many communication through the router",
        ),
        BenchmarkSpec(
            "reduction", "comm", adapters.reduction_adapter, (B, L),
            ("(:)",), LocalAccess.NA,
            {CommPattern.REDUCTION: (1,)},
            description="global reduction (the one comm code with FLOPs)",
        ),
        BenchmarkSpec(
            "transpose", "comm", adapters.transpose_adapter, (B, O, L),
            ("(:,:)",), LocalAccess.NA,
            {CommPattern.AAPC: (2,)},
            description="array transposition; confirms bisection bandwidth",
        ),
        # ---------------- linear algebra (paper §3) ----------------
        BenchmarkSpec(
            "matrix-vector", "linalg", adapters.matvec_adapter, (B, O, L, C),
            ("(:)", "(:,:)", "(:serial,:)", "(:serial,:serial,:)", "(:serial,:,:)"),
            LocalAccess.DIRECT,
            {CommPattern.BROADCAST: (1, 2), CommPattern.REDUCTION: (1, 2)},
            default_params={"variant": 1, "n": 128},
            description="y = A x in four layout variants",
        ),
        BenchmarkSpec(
            "lu", "linalg", adapters.lu_adapter, (B, L, C),
            ("(:,:,:)",), LocalAccess.NA,
            {CommPattern.REDUCTION: (3,), CommPattern.BROADCAST: (3,)},
            default_params={"n": 64},
            description="dense LU factor + solve, multiple instances",
        ),
        BenchmarkSpec(
            "qr", "linalg", adapters.qr_adapter, (B, O, L, C),
            ("(:,:)",), LocalAccess.NA,
            {CommPattern.REDUCTION: (2,), CommPattern.BROADCAST: (2,)},
            default_params={"m": 96, "n": 48},
            description="Householder QR factor + least-squares solve",
        ),
        BenchmarkSpec(
            "gauss-jordan", "linalg", adapters.gauss_jordan_adapter, (B, L),
            ("(:)", "(:,:)"), LocalAccess.NA,
            {
                CommPattern.REDUCTION: (1,),
                CommPattern.SEND: (2,),
                CommPattern.GET: (2,),
                CommPattern.BROADCAST: (2,),
            },
            default_params={"n": 64},
            description="Gauss-Jordan dense solve",
        ),
        BenchmarkSpec(
            "pcr", "linalg", adapters.pcr_adapter, (B, O, L, C),
            ("(:serial,:)", "(:serial,:,:)", "(:serial,:,:,:)"),
            LocalAccess.DIRECT,
            {CommPattern.CSHIFT: (1, 2, 3)},
            default_params={"n": 128, "variant": 1},
            description="tridiagonal systems by parallel cyclic reduction",
        ),
        BenchmarkSpec(
            "conj-grad", "linalg", adapters.conj_grad_adapter, (B, L),
            ("(:)",), LocalAccess.NA,
            {CommPattern.CSHIFT: (1,), CommPattern.REDUCTION: (1,)},
            default_params={"n": 256},
            description="tridiagonal solve by conjugate gradients (CGNR)",
        ),
        BenchmarkSpec(
            "jacobi", "linalg", adapters.jacobi_adapter, (B, L),
            ("(:)", "(:,:)"), LocalAccess.NA,
            {
                CommPattern.CSHIFT: (1, 2),
                CommPattern.SEND: (2,),
                CommPattern.BROADCAST: (2,),
            },
            default_params={"n": 24},
            description="dense symmetric eigenanalysis by cyclic Jacobi",
        ),
        BenchmarkSpec(
            "fft", "linalg", adapters.fft_adapter, (B, O, L, C),
            ("(:)",), LocalAccess.NA,
            {CommPattern.CSHIFT: (1, 2, 3), CommPattern.AAPC: (1, 2, 3)},
            default_params={"n": 1024, "dims": 1},
            description="radix-2 FFT in 1, 2 and 3 dimensions",
            # the zero-byte marker each 1-D sweep records
            comm_extras=(CommPattern.BUTTERFLY, ),
        ),
        # ---------------- applications (paper §4) ----------------
        BenchmarkSpec(
            "boson", "app", boson.run, (B,),
            ("(:serial,:,:)",), LocalAccess.STRIDED,
            {CommPattern.CSHIFT: (3,)},
            {"stencil": "CSHIFT"},
            {"nx": 8, "nt": 4, "sweeps": 10},
            "quantum many-body simulation for bosons on a 2-D lattice",
        ),
        BenchmarkSpec(
            "diff-1d", "app", diff1d.run, (B,),
            ("(:)",), LocalAccess.NA,
            {CommPattern.STENCIL: (1,), CommPattern.CSHIFT: (1,)},
            {"stencil": "Array sections"},
            {"nx": 128, "steps": 5},
            "1-D diffusion via substructured tridiagonal solves (PCR)",
        ),
        BenchmarkSpec(
            "diff-2d", "app", diff2d.run, (B,),
            ("(:serial,:)",), LocalAccess.STRIDED,
            {CommPattern.STENCIL: (2,), CommPattern.AAPC: (2,)},
            {"stencil": "Array sections"},
            {"nx": 32, "steps": 6},
            "2-D diffusion via the alternating direction implicit method",
        ),
        BenchmarkSpec(
            "diff-3d", "app", diff3d.run, (B,),
            ("(:,:,:)",), LocalAccess.NA,
            {CommPattern.STENCIL: (3,)},
            {"stencil": "Array sections"},
            {"nx": 16, "steps": 5},
            "3-D diffusion by explicit finite differences (7-point)",
        ),
        BenchmarkSpec(
            "ellip-2d", "app", ellip2d.run, (B,),
            ("(:,:)",), LocalAccess.NA,
            {CommPattern.CSHIFT: (2,), CommPattern.REDUCTION: (2,)},
            {"stencil": "CSHIFT"},
            {"nx": 16},
            "Poisson's equation by the conjugate gradient method",
        ),
        BenchmarkSpec(
            "fem-3d", "app", fem3d.run, (B, C),
            ("(:serial,:,:)", "(:serial,:serial,:)"), LocalAccess.DIRECT,
            {CommPattern.GATHER: (1,), CommPattern.SCATTER_COMBINE: (1,)},
            {
                "gather": "CMSSL partitioned gather utility",
                "scatter_w_combine": "CMSSL partitioned scatter utility",
            },
            {"nx": 3, "iterations": 25},
            "iterative finite element equations on an unstructured grid",
        ),
        BenchmarkSpec(
            "fermion", "app", fermion.run, (B, O),
            ("(:,:serial,:serial)",), LocalAccess.INDIRECT,
            {},
            {},
            {"sites": 32, "n": 6, "sweeps": 3},
            "quantum many-body computation for fermions (local matmuls)",
        ),
        BenchmarkSpec(
            "gmo", "app", gmo.run, (B,),
            ("(:)", "(:serial,:)"), LocalAccess.INDIRECT,
            {},
            {},
            {"ns": 256, "ntr": 32},
            "generalized moveout seismic kernel (Kirchhoff migration/DMO)",
        ),
        BenchmarkSpec(
            "ks-spectral", "app", ks_spectral.run, (B, O),
            ("(:,:)",), LocalAccess.NA,
            {CommPattern.BUTTERFLY: (2,), CommPattern.REDUCTION: (2,)},
            {},
            {"nx": 64, "ne": 2, "steps": 4},
            "Kuramoto-Sivashinsky integration by a spectral method",
            comm_extras=(CommPattern.CSHIFT, CommPattern.AAPC, ),
        ),
        BenchmarkSpec(
            "md", "app", md.run, (B,),
            ("(:)", "(:,:)"), LocalAccess.NA,
            {
                CommPattern.SPREAD: (1,),
                CommPattern.SEND: (2,),
                CommPattern.REDUCTION: (2,),
            },
            {"aabc": "SPREAD"},
            {"n_p": 27, "steps": 10},
            "molecular dynamics with long-range forces (all pairs)",
        ),
        BenchmarkSpec(
            "mdcell", "app", mdcell.run, (B, D),
            ("(:serial,:,:,:)",), LocalAccess.INDIRECT,
            {CommPattern.CSHIFT: (4,), CommPattern.SCATTER: (4,)},
            {"stencil": "CSHIFT", "scatter": "CMF aset 1D or FORALL w/ indirect addressing"},
            {"nc": 4, "steps": 2},
            "molecular dynamics with short-range forces (cell lists)",
        ),
        BenchmarkSpec(
            "n-body", "app", nbody.run, (B, O),
            ("(:serial,:)",), LocalAccess.DIRECT,
            {
                CommPattern.BROADCAST: (2,),
                CommPattern.SPREAD: (2,),
                CommPattern.CSHIFT: (1,),
                CommPattern.AABC: (2,),
            },
            {"aabc": "CSHIFT, SPREAD, broadcast"},
            {"n": 32, "variant": "spread"},
            "generic direct 2-D N-body solver, eight variants",
            comm_extras=(CommPattern.REDUCTION, ),
            tier_params={
                B: {"variant": "broadcast"},
                O: {"variant": "cshift_sym_fill"},
            },
        ),
        BenchmarkSpec(
            "pic-simple", "app", pic_simple.run, (B,),
            ("(:serial,:)", "(:serial,:,:)"), LocalAccess.DIRECT,
            {
                CommPattern.GATHER: (2, 3),
                CommPattern.GATHER_COMBINE: (2,),
                CommPattern.BUTTERFLY: (2,),
            },
            {
                "gather": "FORALL w/ indirect addressing",
                "gather_w_combine": "FORALL w/ SUM",
            },
            {"nx": 16, "n_p": 256, "steps": 2},
            "2-D particle-in-cell, straightforward implementation",
            comm_extras=(CommPattern.CSHIFT, CommPattern.AAPC, ),
        ),
        BenchmarkSpec(
            "pic-gather-scatter", "app", pic_gather_scatter.run, (B,),
            ("(:serial,:)", "(:serial,:,:)"), LocalAccess.INDIRECT,
            {
                CommPattern.SCAN: (3,),
                CommPattern.SCATTER: (1, 3),
                CommPattern.SCATTER_COMBINE: (1,),
                CommPattern.GATHER: (3,),
                CommPattern.SORT: (1,),
            },
            {
                "gather": "FORALL w/ indirect addressing",
                "scatter": "FORALL w/ indirect addressing",
                "scatter_w_combine": "CMF send add or FORALL w/ indirect addressing",
            },
            {"nx": 8, "n_p": 128, "steps": 2},
            "2-D/3-D particle-in-cell, sorted scan-based implementation",
        ),
        BenchmarkSpec(
            "qcd-kernel", "app", qcd_kernel.run, (B, D),
            ("(:serial,:,:,:,:,:)", "(:serial,:serial,:,:,:,:,:)"),
            LocalAccess.DIRECT,
            {CommPattern.CSHIFT: (4,)},
            {"stencil": "CSHIFT"},
            {"nx": 4, "iterations": 3},
            "staggered fermion conjugate gradient kernel (QCD)",
        ),
        BenchmarkSpec(
            "qmc", "app", qmc.run, (B,),
            ("(:,:)", "(:serial,:serial,:,:)"), LocalAccess.DIRECT,
            {
                CommPattern.SPREAD: (3,),
                CommPattern.REDUCTION: (2,),
                CommPattern.SCAN: (2,),
                CommPattern.SEND: (2,),
            },
            {"scatter_w_combine": "CMF send overwrite"},
            {"blocks": 2, "steps_per_block": 30, "n_w": 150},
            "Green's function quantum Monte Carlo",
        ),
        BenchmarkSpec(
            "qptransport", "app", qptransport.run, (B,),
            ("(:)",), LocalAccess.NA,
            {
                CommPattern.SCATTER: (1,),
                CommPattern.SORT: (1,),
                CommPattern.SCAN: (1,),
                CommPattern.CSHIFT: (1,),
                CommPattern.EOSHIFT: (1,),
                CommPattern.REDUCTION: (1,),
            },
            {"scatter": "indirect addressing"},
            {"iterations": 40},
            "quadratic programming on a bipartite graph (transportation)",
        ),
        BenchmarkSpec(
            "rp", "app", rp.run, (B,),
            ("(:,:,:)",), LocalAccess.NA,
            {CommPattern.CSHIFT: (3,), CommPattern.REDUCTION: (3,)},
            {"stencil": "CSHIFT"},
            {"nx": 8},
            "nonsymmetric linear equations by conjugate gradients",
        ),
        BenchmarkSpec(
            "step4", "app", step4.run, (B,),
            ("(:serial,:,:)",), LocalAccess.DIRECT,
            {CommPattern.CSHIFT: (2,)},
            {"stencil": "chained CSHIFT"},
            {"nx": 16, "steps": 2},
            "explicit fourth-order finite differences in 2-D",
        ),
        BenchmarkSpec(
            "wave-1d", "app", wave1d.run, (B, O),
            ("(:)",), LocalAccess.NA,
            {CommPattern.CSHIFT: (1,), CommPattern.BUTTERFLY: (1,)},
            {"stencil": "CSHIFT"},
            {"nx": 128, "steps": 10},
            "simulation of the inhomogeneous 1-D wave equation",
            comm_extras=(CommPattern.AAPC, ),
        ),
    ]
    return {s.name: s for s in specs}


REGISTRY: Dict[str, BenchmarkSpec] = _build_registry()

#: Small-but-representative parameters for every benchmark: each still
#: runs its main loop and exercises its communication patterns.  Tests,
#: examples and the committed report digests use these sizes.
SMALL_PARAMS: Dict[str, Mapping[str, object]] = {
    "gather": {"n": 2048, "repeats": 3},
    "scatter": {"n": 2048, "repeats": 3},
    "reduction": {"n": 2048, "repeats": 3},
    "transpose": {"n": 48, "repeats": 3},
    "matrix-vector": {"n": 48, "repeats": 2},
    "lu": {"n": 20},
    "qr": {"m": 24, "n": 12},
    "gauss-jordan": {"n": 20},
    "pcr": {"n": 64},
    "conj-grad": {"n": 96},
    "jacobi": {"n": 10},
    "fft": {"n": 256},
    "boson": {"nx": 6, "nt": 4, "sweeps": 3},
    "diff-1d": {"nx": 48, "steps": 3},
    "diff-2d": {"nx": 16, "steps": 3},
    "diff-3d": {"nx": 10, "steps": 3},
    "ellip-2d": {"nx": 10},
    "fem-3d": {"nx": 2, "iterations": 6},
    "fermion": {"sites": 12, "n": 4, "sweeps": 2},
    "gmo": {"ns": 64, "ntr": 8},
    "ks-spectral": {"nx": 32, "ne": 2, "steps": 3},
    "md": {"n_p": 10, "steps": 3},
    "mdcell": {"nc": 3, "steps": 1},
    "n-body": {"n": 16},
    "pic-simple": {"nx": 8, "n_p": 64, "steps": 1},
    "pic-gather-scatter": {"nx": 8, "n_p": 48, "steps": 1},
    "qcd-kernel": {"nx": 2, "iterations": 1},
    "qmc": {"blocks": 1, "steps_per_block": 6, "n_w": 40},
    "qptransport": {"iterations": 6},
    "rp": {"nx": 4},
    "step4": {"nx": 8, "steps": 1},
    "wave-1d": {"nx": 32, "steps": 3},
}


def benchmark_names(group: str | None = None) -> Tuple[str, ...]:
    """All benchmark names, optionally filtered by group."""
    return tuple(
        name
        for name, spec in REGISTRY.items()
        if group is None or spec.group == group
    )
