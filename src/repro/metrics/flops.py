"""FLOP-count conventions of the DPF suite (paper §1.5, attribute (1)).

The paper adopts the operation costs suggested by Hennessy & Patterson:

* one FLOP for real addition, subtraction and multiplication,
* four FLOPs for division and square root,
* eight FLOPs for logarithmic and trigonometric (and other
  transcendental) functions,
* reductions and parallel-prefix operations over ``N`` elements are
  counted at their sequential cost of ``N - 1`` operations.

Complex arithmetic is charged at its real-operation decomposition
(a complex add is two real adds; a complex multiply is four real
multiplies plus two real adds, i.e. six FLOPs).

Masked computations follow HPF execution semantics (paper §1.4): the
*entire* array participates, so FLOPs are charged for every element
regardless of the mask.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Mapping, Tuple


class FlopKind(str, Enum):
    """Categories of floating-point operations with distinct costs."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    SQRT = "sqrt"
    LOG = "log"
    EXP = "exp"
    TRIG = "trig"
    POW = "pow"
    COMPARE = "compare"
    ABS = "abs"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlopKind.{self.name}"


#: Cost in FLOPs of one scalar operation of each kind.
FLOP_COSTS: Mapping[FlopKind, int] = {
    FlopKind.ADD: 1,
    FlopKind.SUB: 1,
    FlopKind.MUL: 1,
    FlopKind.DIV: 4,
    FlopKind.SQRT: 4,
    FlopKind.LOG: 8,
    FlopKind.EXP: 8,
    FlopKind.TRIG: 8,
    FlopKind.POW: 8,
    # Comparisons and absolute values are charged as one FLOP, the
    # convention used for the pivot searches in lu/gauss-jordan.
    FlopKind.COMPARE: 1,
    FlopKind.ABS: 1,
}


def flop_cost(kind: FlopKind, count: int = 1, *, complex_valued: bool = False) -> int:
    """Return the FLOP cost of ``count`` scalar operations of ``kind``.

    ``complex_valued`` applies the complex-arithmetic decomposition:
    adds/subs double, multiplies cost six real FLOPs, divisions are
    charged at the cost of a complex reciprocal-multiply (two real
    divisions plus a complex multiply and the denominator norm).
    """
    if count < 0:
        raise ValueError(f"operation count must be non-negative, got {count}")
    base = FLOP_COSTS[kind]
    if not complex_valued:
        return base * count
    if kind in (FlopKind.ADD, FlopKind.SUB):
        return 2 * count
    if kind is FlopKind.MUL:
        return 6 * count
    if kind is FlopKind.DIV:
        # (a+bi)/(c+di): norm (3 flops) + 2 real divisions + complex*real
        # scaling (2 muls) + complex multiply by conjugate (6 flops).
        return (3 + 2 * FLOP_COSTS[FlopKind.DIV] + 2 + 6) * count
    # Transcendentals on complex arguments: charged at twice the real cost.
    return 2 * base * count


class FlopCounter:
    """Accumulates FLOPs by :class:`FlopKind`.

    The counter stores raw *operation* counts per ``(kind,
    complex_valued)`` pair and applies the DPF cost table only when read
    (:attr:`total`, :attr:`weighted_by_kind`).  Weighting on read is
    exact: :func:`flop_cost` is linear in an integer count, so costing
    a summed count equals summing per-charge costs.  Counters add like
    vectors, which lets the recorder aggregate child regions into their
    parents.
    """

    __slots__ = ("_ops",)

    def __init__(self) -> None:
        self._ops: Dict[Tuple[FlopKind, bool], int] = {}

    def add(self, kind: FlopKind, count: int, *, complex_valued: bool = False) -> None:
        """Record ``count`` scalar operations of ``kind``."""
        if count < 0:
            raise ValueError(f"operation count must be non-negative, got {count}")
        if count == 0:
            return
        key = (kind, complex_valued)
        self._ops[key] = self._ops.get(key, 0) + count

    def add_raw(self, flops: int) -> None:
        """Record pre-weighted FLOPs (used for reductions: ``N - 1``).

        Counted as real additions, which cost one FLOP each.
        """
        if flops < 0:
            raise ValueError(f"flop count must be non-negative, got {flops}")
        key = (FlopKind.ADD, False)
        self._ops[key] = self._ops.get(key, 0) + flops

    def merge(self, other: "FlopCounter") -> None:
        """Fold another counter into this one."""
        ops = self._ops
        for key, count in other._ops.items():
            ops[key] = ops.get(key, 0) + count

    @property
    def total(self) -> int:
        """Total FLOPs under the DPF cost conventions."""
        return sum(
            flop_cost(kind, count, complex_valued=complex_valued)
            for (kind, complex_valued), count in self._ops.items()
        )

    @property
    def operations(self) -> Mapping[FlopKind, int]:
        """Raw operation counts by kind (not cost-weighted)."""
        out: Dict[FlopKind, int] = {}
        for (kind, _), count in self._ops.items():
            out[kind] = out.get(kind, 0) + count
        return out

    @property
    def weighted_by_kind(self) -> Mapping[FlopKind, int]:
        """Cost-weighted FLOPs by kind; sums exactly to :attr:`total`.

        Complex-valued charges land under their scalar kind at the
        complex decomposition cost, so the per-kind values always
        reconcile with the DPF total — the invariant the campaign
        roofline report is built on.
        """
        out: Dict[FlopKind, int] = {}
        for (kind, complex_valued), count in self._ops.items():
            out[kind] = out.get(kind, 0) + flop_cost(
                kind, count, complex_valued=complex_valued
            )
        return out

    def copy(self) -> "FlopCounter":
        """Independent copy of this counter."""
        out = FlopCounter()
        out._ops = dict(self._ops)
        return out

    def __bool__(self) -> bool:
        return any(self._ops.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlopCounter):
            return NotImplemented
        return self.operations == other.operations and self.total == other.total

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k.value}={v}" for k, v in sorted(self.operations.items())
        )
        return f"FlopCounter(total={self.total}, {parts})"


def reduction_flops(n_elements: int, n_results: int = 1) -> int:
    """Sequential FLOP count of a reduction: ``N - 1`` per result.

    ``n_elements`` is the number of elements combined *per result*;
    reducing an ``(m, n)`` array along its second axis yields
    ``n_results = m`` results of ``n_elements = n`` each.
    """
    if n_elements <= 0 or n_results <= 0:
        return 0
    return (n_elements - 1) * n_results


def scan_flops(n_elements: int, n_results: int = 1) -> int:
    """Sequential FLOP count of a prefix scan: ``N - 1`` per scanned lane."""
    return reduction_flops(n_elements, n_results)


def merge_counters(counters: Iterable[FlopCounter]) -> FlopCounter:
    """Sum an iterable of counters into a fresh one."""
    out = FlopCounter()
    for c in counters:
        out.merge(c)
    return out
