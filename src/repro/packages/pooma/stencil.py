"""Stencil operators on POOMA fields.

The §4.3 metaapplication: "a simplified simulation of 2-D diffusion based
on a 9-point stencil operation" and "an application which computes
magnitude gradient of the diffusion field in order to identify areas of
the most intensive changes".
"""

from __future__ import annotations

import numpy as np

from .field import Field

#: Flops per grid point of one 9-point stencil update (8 adds + 2 muls,
#: conservatively rounded the way 1997 hand counts did).
STENCIL_FLOPS_PER_POINT = 11

#: Flops per grid point of the magnitude-gradient computation.
GRADIENT_FLOPS_PER_POINT = 7


def nine_point_stencil(src: np.ndarray, alpha: float) -> np.ndarray:
    """One 9-point weighted-average update on the padded array ``src``
    (shape (m+2, n+2) view convention: callers pass the full ghosted
    array); returns the new interior (m, n)."""
    c = src[1:-1, 1:-1]
    ortho = src[:-2, 1:-1] + src[2:, 1:-1] + src[1:-1, :-2] + src[1:-1, 2:]
    diag = src[:-2, :-2] + src[:-2, 2:] + src[2:, :-2] + src[2:, 2:]
    return c + alpha * (ortho + 0.5 * diag - 6.0 * c)


def diffusion_step(field: Field, alpha: float = 0.1) -> None:
    """Advance the diffusion field one time step (in place).

    Exchanges ghosts, applies the 9-point stencil to a laterally-padded
    copy (zero-flux side walls), and charges the stencil flops to the
    calling context.
    """
    field.exchange_ghosts()
    rows = field.interior.shape[0]
    nx = field.layout.nx
    padded = np.zeros((rows + 2, nx + 2))
    padded[:, 1:-1] = field.data
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    # Physical top/bottom walls: mirror (zero-flux) instead of ghost data.
    if field.layout.row_start(field.rank) == 0:
        padded[0, :] = padded[1, :]
    if field.layout.row_stop(field.rank) == field.layout.ny:
        padded[-1, :] = padded[-2, :]
    field.interior = nine_point_stencil(padded, alpha)
    if field.rts is not None:
        field.rts.charge_flops(rows * nx * STENCIL_FLOPS_PER_POINT)


def magnitude_gradient(values: np.ndarray) -> np.ndarray:
    """|grad f| with central differences (one-sided at the walls).

    Works on a plain 2-D array (the gradient component in the paper is a
    separate HPC++ program; it receives the whole field values of a
    time-step, not a ghosted POOMA field).
    """
    gy, gx = np.gradient(values)
    return np.hypot(gy, gx)
