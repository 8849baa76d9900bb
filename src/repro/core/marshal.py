"""Marshaling helpers shared by the client engine and the server POA.

Scalar (non-distributed) arguments travel inside the request/reply header
as one concatenated CDR stream; distributed arguments travel as per-thread
fragments.  Container adaptation converts between user-facing containers
(DistributedSequence, or package-native structures behind an adapter) and
the (distribution, local data) pairs the transfer engine works with.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..cdr import (
    CdrDecoder,
    CdrEncoder,
    DSequenceTC,
    ObjectRefTC,
    TypeCode,
)
from .distribution import Distribution
from .dsequence import DistributedSequence
from .interfacedef import OpDef, ParamDef

# ---------------------------------------------------------------------------
# Scalar streams
# ---------------------------------------------------------------------------


def encode_scalars(specs: list[tuple[str, TypeCode]], values: dict) -> bytes:
    enc = CdrEncoder()
    for name, tc in specs:
        enc.encode(tc, values[name])
    return enc.getvalue()


def decode_scalars(specs: list[tuple[str, TypeCode]], data: bytes) -> dict:
    dec = CdrDecoder(data)
    return {name: dec.decode(tc) for name, tc in specs}


def materialize_objrefs(specs: list[tuple[str, TypeCode]], values: dict,
                        ctx) -> dict:
    """Replace decoded ObjectRefs with live proxies (in place)."""
    for name, tc in specs:
        if isinstance(tc, ObjectRefTC):
            from .stubapi import proxy_for   # stubapi imports this module

            values[name] = proxy_for(values[name], ctx)
    return values


def scalar_in_specs(op: OpDef) -> list[tuple[str, TypeCode]]:
    """The op's scalar in-argument specs (shared: do not mutate)."""
    return op.scalar_in_specs


def scalar_result_specs(op: OpDef) -> list[tuple[str, TypeCode]]:
    """The op's scalar result specs, return value first (shared: do not
    mutate)."""
    return op.scalar_result_specs


# ---------------------------------------------------------------------------
# Container adaptation
# ---------------------------------------------------------------------------


def as_distributed(param: ParamDef, value: Any, nthreads: int,
                   rank: int) -> DistributedSequence:
    """Normalize an argument for a distributed parameter to a
    :class:`DistributedSequence` (no copy where possible).

    Accepts a DistributedSequence, a package container behind the param's
    adapter, or — for single (non-SPMD) invocations — a plain array/list,
    treated as the whole sequence concentrated on this thread.
    """
    tc: DSequenceTC = param.tc  # type: ignore[assignment]
    if param.adapter is not None and param.adapter.handles(value):
        return param.adapter.unwrap(value, tc.element)
    if isinstance(value, DistributedSequence):
        if value.dist.p != nthreads:
            raise ValueError(
                f"argument {param.name!r} is distributed over {value.dist.p} "
                f"threads but the invocation spans {nthreads}"
            )
        return value
    if nthreads == 1 and isinstance(value, (list, np.ndarray)):
        dist = Distribution.concentrated(len(value), 1)
        return DistributedSequence.adopt(value, dist, 0, tc.element)
    raise TypeError(
        f"argument {param.name!r} must be a DistributedSequence"
        + (" or adapted container" if param.adapter is not None else "")
        + f", got {type(value).__name__}"
    )


def wrap_out(param: ParamDef, dseq: DistributedSequence) -> Any:
    """Present a received distributed out-argument to user code (through
    the package adapter when one is configured)."""
    if param.adapter is not None:
        return param.adapter.wrap(dseq)
    return dseq
