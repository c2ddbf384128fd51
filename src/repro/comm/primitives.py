"""Core collective primitives: shifts, spreads, reductions, broadcasts,
transposes and general send/get."""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.array.distarray import DistArray, Scalar
from repro.array.roll import fast_roll
from repro.layout.spec import Axis, Layout, parse_layout
from repro.machine.session import Session
from repro.metrics.patterns import CommPattern


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


# ----------------------------------------------------------------------
# Shifts
# ----------------------------------------------------------------------
def cshift(
    x: DistArray, shift: int, axis: int = 0, out: Optional[DistArray] = None
) -> DistArray:
    """Circular shift: ``result(i) = x(i + shift)`` along ``axis``.

    Matches CMF/F90 ``CSHIFT(ARRAY, SHIFT, DIM)`` semantics.  On a
    distributed axis this is a NEWS-neighbor exchange; on a serial axis
    it is purely local data motion (no network traffic).

    ``out``, if given, is a ``DistArray`` of ``x``'s shape and dtype
    that shares no memory with ``x`` (``ValueError`` otherwise); the
    shifted data is written into it and ``out`` is returned.  The comm
    record is the same with or without it.
    """
    axis = _normalize_axis(axis, x.ndim)
    result = fast_roll(x.data, -shift, axis, None if out is None else out.data)
    itemsize = x.data.itemsize
    net = x.layout.shift_network_elements(x.session.nodes, axis, shift) * itemsize
    x.session.record_comm(
        CommPattern.CSHIFT,
        bytes_network=net,
        bytes_local=x.size * itemsize,
        rank=x.ndim,
        detail=f"axis={axis}, shift={shift}",
    )
    if out is not None:
        return out
    return DistArray(result, x.layout, x.session)


def eoshift(
    x: DistArray, shift: int, axis: int = 0, boundary: Scalar = 0
) -> DistArray:
    """End-off shift with boundary fill (F90 ``EOSHIFT``)."""
    axis = _normalize_axis(axis, x.ndim)
    result = np.full_like(x.data, boundary)
    n = x.shape[axis]
    s = shift
    if abs(s) < n:
        src = [slice(None)] * x.ndim
        dst = [slice(None)] * x.ndim
        if s >= 0:
            src[axis] = slice(s, n)
            dst[axis] = slice(0, n - s)
        else:
            src[axis] = slice(0, n + s)
            dst[axis] = slice(-s, n)
        result[tuple(dst)] = x.data[tuple(src)]
    itemsize = x.data.itemsize
    net = x.layout.shift_network_elements(x.session.nodes, axis, shift) * itemsize
    x.session.record_comm(
        CommPattern.EOSHIFT,
        bytes_network=net,
        bytes_local=x.size * itemsize,
        rank=x.ndim,
        detail=f"axis={axis}, shift={shift}",
    )
    return DistArray(result, x.layout, x.session)


# ----------------------------------------------------------------------
# Spread / broadcast
# ----------------------------------------------------------------------
def spread(
    x: DistArray, axis: int, ncopies: int, axis_kind: Axis = Axis.PARALLEL
) -> DistArray:
    """Replicate along a new axis (F90 ``SPREAD(ARRAY, DIM, NCOPIES)``).

    The paper's AABC implementations for ``md``/``n-body`` and the 1-D
    to 2-D broadcasts of ``jacobi`` use spreads; the new axis defaults
    to a parallel (news) axis.
    """
    axis = _normalize_axis(axis, x.ndim + 1)
    result = np.repeat(np.expand_dims(x.data, axis), ncopies, axis=axis)
    new_axes = list(x.layout.axes)
    new_axes.insert(axis, axis_kind)
    layout = Layout(result.shape, tuple(new_axes))
    itemsize = x.data.itemsize
    replicated = result.size - x.size
    copies_distributed = layout.blocks(x.session.nodes, axis) > 1
    x.session.record_comm(
        CommPattern.SPREAD,
        bytes_network=replicated * itemsize if copies_distributed else 0,
        bytes_local=result.size * itemsize,
        rank=x.ndim,
        detail=f"axis={axis}, ncopies={ncopies}",
    )
    return DistArray(result, layout, x.session)


def broadcast(
    session: Session,
    value: Union[Scalar, np.ndarray, DistArray],
    shape: Sequence[int],
    spec: Union[str, Layout],
    name: str = "",
) -> DistArray:
    """Broadcast a scalar or smaller array to a full DistArray.

    Models front-end-to-nodes or 1-D to 2-D broadcast communication
    (the destination's array rank is recorded per Table 3/7).
    """
    layout = spec if isinstance(spec, Layout) else parse_layout(spec, shape)
    if isinstance(value, DistArray):
        src = value.data
    else:
        src = np.asarray(value)
    data = np.broadcast_to(src, layout.shape).copy()
    nodes_used = layout.nodes_used(session.nodes)
    session.record_comm(
        CommPattern.BROADCAST,
        bytes_network=data.nbytes if nodes_used > 1 else 0,
        bytes_local=data.nbytes,
        rank=len(layout.shape),
        detail=name,
    )
    return DistArray(data, layout, session, name)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
_REDUCE_OPS = {
    "sum": np.sum,
    "max": np.max,
    "min": np.min,
    "prod": np.prod,
    "any": np.any,
    "all": np.all,
}


def reduce_array(
    x: DistArray,
    op: str = "sum",
    axis: Optional[Union[int, Sequence[int]]] = None,
    mask: Optional[DistArray] = None,
) -> Union[DistArray, Scalar]:
    """Reduction along one or more axes (full, to a scalar, when ``axis=None``).

    FLOPs are charged at the sequential cost ``N - 1`` per result
    (paper §1.5(1)).  Per HPF semantics a masked reduction still charges
    the full unmasked cost; the mask gates only which values combine.
    """
    if op not in _REDUCE_OPS:
        raise ValueError(f"unknown reduction op {op!r}")
    fn = _REDUCE_OPS[op]

    if axis is None:
        axes: Tuple[int, ...] = tuple(range(x.ndim))
    elif isinstance(axis, (int, np.integer)):
        axes = (_normalize_axis(int(axis), x.ndim),)
    else:
        axes = tuple(_normalize_axis(int(a), x.ndim) for a in axis)

    data = x.data
    if mask is not None:
        if op == "sum":
            data = np.where(mask.data, data, 0)
        elif op == "max":
            data = np.where(mask.data, data, -np.inf)
        elif op == "min":
            data = np.where(mask.data, data, np.inf)
        else:
            raise ValueError(f"mask not supported for op {op!r}")

    result = fn(data, axis=axes if len(axes) > 1 else axes[0])

    n_per_result = prod(x.shape[a] for a in axes) if axes else 1
    n_results = max(1, x.size // max(1, n_per_result))
    if op in ("sum", "prod", "max", "min"):
        x.session.charge_reduction_flops(
            n_per_result, n_results, layout=x.layout
        )
    net_elems = x.layout.reduce_network_elements(x.session.nodes, axes)
    x.session.record_comm(
        CommPattern.REDUCTION,
        bytes_network=net_elems * x.data.itemsize,
        rank=x.ndim,
        detail=f"op={op}, axes={axes}",
    )

    if np.isscalar(result) or result.ndim == 0:
        return result.item() if hasattr(result, "item") else result
    remaining = tuple(k for i, k in enumerate(x.layout.axes) if i not in axes)
    return DistArray(result, Layout(result.shape, remaining), x.session)


def reduce_location(x: DistArray, op: str = "max") -> Tuple[int, ...]:
    """MAXLOC/MINLOC: index of the extreme element (full reduction)."""
    if op == "max":
        flat = int(np.argmax(x.data))
    elif op == "min":
        flat = int(np.argmin(x.data))
    else:
        raise ValueError(f"unknown location op {op!r}")
    x.session.charge_reduction_flops(x.size, 1, layout=x.layout)
    net_elems = x.layout.reduce_network_elements(
        x.session.nodes, tuple(range(x.ndim))
    )
    x.session.record_comm(
        CommPattern.REDUCTION,
        bytes_network=net_elems * (x.data.itemsize + 8),  # value + index
        rank=x.ndim,
        detail=f"op={op}loc",
    )
    return tuple(int(i) for i in np.unravel_index(flat, x.shape))


# ----------------------------------------------------------------------
# Transpose / remap (AAPC)
# ----------------------------------------------------------------------
def transpose(x: DistArray, axes: Optional[Sequence[int]] = None) -> DistArray:
    """Array transposition — an all-to-all personalized communication.

    The paper uses transpose both as a benchmark in its own right
    (confirming advertised bisection bandwidths, §2) and inside the
    multidimensional FFTs and diff-2D's ADI sweep.
    """
    perm = tuple(axes) if axes is not None else tuple(reversed(range(x.ndim)))
    if sorted(perm) != list(range(x.ndim)):
        raise ValueError(f"bad permutation {perm} for rank {x.ndim}")
    result = np.ascontiguousarray(np.transpose(x.data, perm))
    new_axes = tuple(x.layout.axes[p] for p in perm)
    layout = Layout(result.shape, new_axes)

    moves_parallel = any(
        perm[i] != i and (x.layout.axes[perm[i]] is Axis.PARALLEL or new_axes[i] is Axis.PARALLEL)
        for i in range(x.ndim)
    )
    itemsize = x.data.itemsize
    off_node = x.layout.off_node_fraction(x.session.nodes)
    x.session.record_comm(
        CommPattern.AAPC,
        bytes_network=round(x.size * itemsize * off_node) if moves_parallel else 0,
        bytes_local=x.size * itemsize,
        rank=x.ndim,
        detail=f"perm={perm}",
    )
    return DistArray(result, layout, x.session)


def remap(x: DistArray, spec: Union[str, Layout]) -> DistArray:
    """Change an array's distribution (e.g. serial↔parallel axes).

    A global-local transpose in the paper's terminology; costed as an
    AAPC because every element may change owner.
    """
    layout = spec if isinstance(spec, Layout) else parse_layout(spec, x.shape)
    if layout.shape != x.shape:
        raise ValueError(f"remap cannot reshape {x.shape} -> {layout.shape}")
    itemsize = x.data.itemsize
    changed = layout.axes != x.layout.axes
    off_node = x.layout.off_node_fraction(x.session.nodes)
    x.session.record_comm(
        CommPattern.AAPC,
        bytes_network=round(x.size * itemsize * off_node) if changed else 0,
        bytes_local=x.size * itemsize,
        rank=x.ndim,
        detail=f"remap to {layout.spec_string()}",
    )
    return DistArray(x.data.copy(), layout, x.session)


# ----------------------------------------------------------------------
# General send / get (router)
# ----------------------------------------------------------------------
def send(
    dest: DistArray,
    index: Union[np.ndarray, Tuple[np.ndarray, ...]],
    values: DistArray,
    combine: Optional[str] = None,
) -> None:
    """General send: ``dest[index] (op)= values`` through the router.

    ``combine`` of ``None`` means collisionless overwrite (CMF
    ``send overwrite``); ``"add"`` matches ``send with add``.
    """
    from repro.comm.gather_scatter import _scatter_into

    _scatter_into(dest, index, values, combine, CommPattern.SEND)


def get(src: DistArray, index: Union[np.ndarray, Tuple[np.ndarray, ...]]) -> DistArray:
    """General get: fetch ``src[index]`` through the router."""
    idx = index if isinstance(index, tuple) else (index,)
    result = src.data[tuple(np.asarray(i) for i in idx)]
    layout = Layout(result.shape, (Axis.PARALLEL,) * result.ndim)
    itemsize = src.data.itemsize
    off_node = src.layout.off_node_fraction(src.session.nodes)
    src.session.record_comm(
        CommPattern.GET,
        bytes_network=round(result.size * itemsize * off_node),
        bytes_local=result.size * itemsize,
        rank=src.ndim,
    )
    return DistArray(result, layout, src.session)
