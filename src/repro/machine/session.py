"""Execution sessions: machine + recorder + code-version tier.

A :class:`Session` is what a benchmark actually runs against.  It knows
the simulated machine, the code-version tier being evaluated (which
sets the sustained fraction of peak for generated code), and owns the
:class:`~repro.metrics.recorder.MetricsRecorder` that accumulates the
run's FLOPs, communication and simulated time.

The distributed-array layer and the collective-communication library
charge everything through the session; benchmarks never talk to the
machine model directly.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, Optional, Sequence, Tuple

from repro.layout.spec import Layout
from repro.machine.model import MachineModel
from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind, flop_cost
from repro.metrics.memory import TypeTag
from repro.metrics.patterns import CommPattern
from repro.metrics.recorder import MetricsRecorder
from repro.versions import VersionTier

#: One step of a fused elementwise charge sequence:
#: ``(kind, ops_per_element, complex_valued)``.
ChargeStep = Tuple[FlopKind, int, bool]

#: Shared no-op context manager returned by :meth:`Session.iteration`
#: when no span observer is attached.  ``contextlib.nullcontext`` is
#: stateless, so one instance serves every unobserved iteration without
#: allocating — the marker costs a counter bump and a None check.
_NULL_SPAN: ContextManager[None] = nullcontext()


class Session:
    """One benchmark execution on one simulated machine."""

    def __init__(
        self,
        machine: MachineModel,
        *,
        tier: VersionTier = VersionTier.BASIC,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        self.machine = machine
        self.tier = tier
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        # Per-stream memo of elementwise charge pricing.  The machine,
        # tier and layouts are all frozen value objects and
        # ``MachineModel.compute_time`` is a pure function of them, so
        # pricing one ``(kind, layout, ops, complex, access)`` stream
        # once and replaying the cached ``(n_ops, seconds)`` pair is
        # bit-exact — iteration loops re-price identical work every
        # step otherwise.
        self._elementwise_cache: dict = {}
        self._seq_cache: dict = {}
        self._comm_cache: dict = {}

    # -- structure ---------------------------------------------------------
    @contextmanager
    def region(self, name: str, iterations: int = 1) -> Iterator[object]:
        """Open a named metrics region (see MetricsRecorder.region)."""
        with self.recorder.region(name, iterations) as r:
            yield r

    def iteration(self, index: Optional[int] = None) -> ContextManager[None]:
        """Mark one main-loop iteration.

        Bumps the innermost region's ``marked_iterations`` counter,
        which the span summary (:func:`repro.obs.span_summary`) reads.
        With no observer attached this returns a shared no-op context
        manager (no allocation); with a :class:`repro.obs.SpanCollector`
        attached, the ``with`` body becomes an ``iteration`` span nested
        under the enclosing region's span.  Markers never create
        recorder regions or touch any charged quantity, so reports are
        identical whether or not iterations are marked.

        Use inside a ``with session.region(...)`` block::

            with session.region("main_loop", iterations=steps):
                for step in range(steps):
                    with session.iteration(step):
                        ...
        """
        recorder = self.recorder
        recorder.current.marked_iterations += 1
        obs = recorder.observer
        if obs is None:
            return _NULL_SPAN
        return obs.iteration(index)

    def declare_memory(
        self, name: str, shape: Sequence[int], tag: TypeTag | type | str
    ) -> None:
        """Register a user-declared array for the memory-usage metric."""
        self.recorder.memory.declare(name, shape, tag)

    def declare_aligned_memory(
        self,
        name: str,
        shape: Sequence[int],
        host_shape: Sequence[int],
        tag: TypeTag | type | str,
    ) -> None:
        """Register an array aligned with a larger host (paper's 2*size{H} rule)."""
        self.recorder.memory.declare_aligned(name, shape, host_shape, tag)

    # -- compute charging ----------------------------------------------------
    def charge_elementwise(
        self,
        kind: FlopKind,
        layout: Layout,
        *,
        ops_per_element: int = 1,
        complex_valued: bool = False,
        access: LocalAccess = LocalAccess.DIRECT,
    ) -> None:
        """Charge a data-parallel elementwise operation over ``layout``.

        Under HPF execution semantics every element participates (even
        masked ones), so the operation count is the full array size.
        """
        key = (kind, layout, ops_per_element, complex_valued, access)
        priced = self._elementwise_cache.get(key)
        if priced is None:
            priced = self._price_elementwise(
                kind, layout, ops_per_element, complex_valued, access
            )
            if len(self._elementwise_cache) < 4096:
                self._elementwise_cache[key] = priced
        n_ops, seconds = priced
        if n_ops == 0:
            return
        recorder = self.recorder
        recorder.charge_flops(kind, n_ops, complex_valued=complex_valued)
        recorder.charge_compute_time(seconds)

    def _price_elementwise(
        self,
        kind: FlopKind,
        layout: Layout,
        ops_per_element: int,
        complex_valued: bool,
        access: LocalAccess,
    ) -> Tuple[int, float]:
        """``(n_ops, compute seconds)`` of one elementwise charge."""
        n_ops = layout.size * ops_per_element
        if n_ops == 0:
            return 0, 0.0
        weighted = flop_cost(kind, n_ops, complex_valued=complex_valued)
        fraction = layout.critical_fraction(self.machine.nodes)
        critical = weighted * fraction
        # Memory traffic for the roofline term: two operand streams and
        # one result stream per elementwise operation.
        itemsize = 16 if complex_valued else 8
        bytes_critical = 3 * itemsize * layout.size * fraction
        return n_ops, self.machine.compute_time(
            critical,
            tier=self.tier,
            access=access,
            bytes_critical_node=bytes_critical,
        )

    def charge_elementwise_seq(
        self,
        steps: Sequence[ChargeStep],
        layout: Layout,
        *,
        access: LocalAccess = LocalAccess.DIRECT,
    ) -> None:
        """Charge a sequence of elementwise operations over one layout.

        Equivalent to calling :meth:`charge_elementwise` once per
        ``(kind, ops_per_element, complex_valued)`` step, in order, but
        hoists the layout geometry (size, critical fraction) out of the
        loop.  Each step uses the exact same arithmetic as the unfused
        path, so fused kernels report byte-identical metrics.
        """
        key = (tuple(steps), layout, access)
        priced = self._seq_cache.get(key)
        if priced is None:
            priced = [
                (kind, complex_valued)
                + self._price_elementwise(
                    kind, layout, ops_per_element, complex_valued, access
                )
                for kind, ops_per_element, complex_valued in steps
            ]
            if len(self._seq_cache) < 4096:
                self._seq_cache[key] = priced
        recorder = self.recorder
        for kind, complex_valued, n_ops, seconds in priced:
            if n_ops == 0:
                continue
            recorder.charge_flops(kind, n_ops, complex_valued=complex_valued)
            recorder.charge_compute_time(seconds)

    def charge_kernel(
        self,
        flops: int,
        *,
        layout: Optional[Layout] = None,
        critical_fraction: Optional[float] = None,
        access: LocalAccess = LocalAccess.DIRECT,
    ) -> None:
        """Charge a pre-weighted FLOP total for a fused kernel.

        Used where a benchmark's inner loop is executed as one NumPy
        composite (e.g. a 17-FLOP n-body interaction) rather than as a
        chain of instrumented elementwise primitives.
        """
        if flops == 0:
            return
        if critical_fraction is None:
            critical_fraction = (
                layout.critical_fraction(self.machine.nodes)
                if layout is not None
                else 1.0 / self.machine.nodes
            )
        self.recorder.charge_raw_flops(flops)
        self.recorder.charge_compute_time(
            self.machine.compute_time(
                flops * critical_fraction, tier=self.tier, access=access
            )
        )

    def charge_reduction_flops(
        self,
        n_elements: int,
        n_results: int = 1,
        *,
        layout: Optional[Layout] = None,
        access: LocalAccess = LocalAccess.DIRECT,
    ) -> None:
        """Charge a reduction at its sequential ``N - 1`` cost.

        Compute time reflects the parallel execution: local partial
        reductions run distributed, the final combine is logarithmic
        (its time lives in the communication event, not here).
        """
        if n_elements <= 1 or n_results < 1:
            return
        flops = (n_elements - 1) * n_results
        self.recorder.charge_raw_flops(flops)
        critical_fraction = (
            layout.critical_fraction(self.machine.nodes)
            if layout is not None
            else 1.0 / self.machine.nodes
        )
        self.recorder.charge_compute_time(
            self.machine.compute_time(
                flops * critical_fraction, tier=self.tier, access=access
            )
        )

    # -- communication charging ------------------------------------------------
    def record_comm(
        self,
        pattern: CommPattern,
        *,
        bytes_network: int,
        bytes_local: int = 0,
        nodes: Optional[int] = None,
        rank: Optional[int] = None,
        detail: str = "",
        stages: Optional[int] = None,
        collisions: Optional[float] = None,
    ) -> None:
        """Record one collective and charge its simulated time.

        The collective adds to its region's ``(pattern, rank, detail)``
        stream; ``nodes`` overrides the machine's node count for pricing.
        """
        n = nodes if nodes is not None else self.machine.nodes
        # Same per-stream memo idea as the elementwise pricing cache:
        # the network model and node count are frozen, so one (pattern,
        # bytes, nodes, stages, collisions) stream prices once.
        key = (pattern, bytes_network, bytes_local, n, stages, collisions)
        priced = self._comm_cache.get(key)
        if priced is None:
            cost = self.machine.network.cost(
                pattern,
                bytes_network=bytes_network,
                nodes=n,
                stages=stages,
                collisions=collisions,
            )
            busy = cost.busy
            if bytes_local:
                busy += self.machine.local_move_time(bytes_local / max(1, n))
            priced = (busy, cost.idle)
            if len(self._comm_cache) < 4096:
                self._comm_cache[key] = priced
        busy, idle = priced
        self.recorder.charge_comm(
            pattern,
            bytes_network=bytes_network,
            bytes_local=bytes_local,
            busy_time=busy,
            idle_time=idle,
            rank=rank,
            detail=detail,
        )

    # -- convenience -------------------------------------------------------
    @property
    def nodes(self) -> int:
        """Node count of the simulated machine."""
        return self.machine.nodes

    def __repr__(self) -> str:
        return (
            f"Session(machine={self.machine.name!r}, tier={self.tier.value}, "
            f"flops={self.recorder.total_flops})"
        )
