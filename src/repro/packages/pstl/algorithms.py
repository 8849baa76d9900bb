"""PSTL parallel algorithms over distributed vectors.

Each algorithm runs on every computing thread, operates on the local
block, and (where needed) combines results with RTS collectives — the
SPMD execution model of HPC++'s PSTL.  Vectorized callables (numpy
ufuncs / array functions) are applied to the whole local block at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ...runtime.collectives import allreduce
from .dvector import DVector

#: calibration: flops charged per element for an elementwise operation
ELEMENTWISE_FLOPS = 4


def par_transform(src: DVector, fn: Callable, out: DVector | None = None
                  ) -> DVector:
    """``out[i] = fn(src[i])`` in parallel; returns ``out``."""
    if out is None:
        out = DVector(len(src), src.rank, src.dist.p, src.rts, dist=src.dist)
    if out.dist.parts != src.dist.parts:
        raise ValueError("par_transform needs aligned distributions")
    out.local[:] = fn(src.local)
    if src.rts is not None:
        src.rts.charge_flops(src.local_size * ELEMENTWISE_FLOPS)
    return out


def par_for_each(vec: DVector, fn: Callable) -> None:
    """Apply ``fn`` to the local block in place."""
    vec.local[:] = fn(vec.local)
    if vec.rts is not None:
        vec.rts.charge_flops(vec.local_size * ELEMENTWISE_FLOPS)


def par_reduce(vec: DVector, op: Callable[[float, float], float] = None,
               local_op: Callable[[np.ndarray], float] = np.sum) -> float:
    """Reduce the whole vector to one value, identical on every thread."""
    if vec.rts is not None:
        vec.rts.charge_flops(vec.local_size)
    local = float(local_op(vec.local)) if vec.local_size else 0.0
    if vec.rts is None or vec.dist.p == 1:
        return local
    combine = op if op is not None else (lambda a, b: a + b)
    return allreduce(vec.rts, local, combine)
