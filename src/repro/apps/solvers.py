"""Linear-equation solvers for the §4.1 experiment.

"A scenario in which the same system of linear equations is solved by a
direct method and an iterative method; the returned solutions are then
compared to calculate agreement between these two methods."

Both solvers are SPMD servants over the paper's IDL (matrix as a
distributed sequence of dynamically-sized rows).  The iterative solver is
a genuinely parallel Jacobi iteration (local mat-vec + allgather of the
iterate); the direct solver assembles the system through the server's
communication domain and factorizes, charging the flops of a parallel
dense LU.  Virtual compute time is charged through the host's per-node
rate, so *where* a server runs determines how fast it is — the mechanism
behind the Fig-2 curves.
"""

from __future__ import annotations

import numpy as np

from ..core.distribution import Distribution
from ..core.dsequence import DistributedSequence
from ..runtime import collectives as coll
from .interfaces import solver_stubs


def direct_flops(n: int) -> float:
    """Effective flops of the direct dense solve (LU ~ 2/3 n^3)."""
    return (2.0 / 3.0) * n ** 3


def jacobi_sweep_flops(n: int) -> float:
    """Effective flops of one Jacobi sweep.  The factor above the bare
    2n^2 mat-vec is the method/package overhead that makes the iterative
    solver the intrinsically slower application, as in the paper
    ("putting the slower application on a faster remote resource")."""
    return 6.8 * n * n


#: Jacobi iteration cap (the generated systems converge well before).
MAX_ITERATIONS = 400


def generate_system(n: int, seed: int = 12345) -> tuple[np.ndarray, np.ndarray]:
    """A reproducible diagonally-dominant dense system (so both methods
    converge and agree)."""
    rng = np.random.default_rng(seed + n)
    # Positive off-diagonal entries make the Jacobi iteration matrix
    # non-negative, so its spectral radius equals the row-sum ratio —
    # a convergence factor we control exactly.  exp(-16.5/n) makes the
    # iteration count grow roughly linearly with n (as iterative solvers'
    # do in practice), keeping the iterative method the slower one across
    # the whole 200..1200 sweep like the paper's Fig. 2.
    a = rng.uniform(0.0, 1.0, size=(n, n))
    off_sums = a.sum(axis=1) - np.diag(a)
    rho = float(np.exp(-16.5 / n))
    a[np.diag_indices(n)] = off_sums / rho
    b = rng.uniform(-1.0, 1.0, size=n)
    return a, b


def rows_to_matrix(rows) -> np.ndarray:
    """Local dsequence-of-rows fragment -> 2-D array."""
    if not len(rows):
        return np.zeros((0, 0))
    return np.vstack([np.asarray(r, dtype=float) for r in rows])


def _assemble_rows(ctx, A) -> np.ndarray:
    """Gather the full matrix on every thread (replicated assembly)."""
    local = rows_to_matrix(A.owned_data)
    pieces = coll.allgather(
        ctx.rts, (tuple(A.dist.intervals(ctx.rank)), local))
    n = len(A)
    full = np.zeros((n, n))
    for intervals, block in pieces:
        row = 0
        for a, b in intervals:
            full[a:b, :] = block[row:row + (b - a)]
            row += b - a
    return full


def make_direct_servant(ctx):
    """Direct method: assemble + (model-charged) parallel LU."""
    mod = solver_stubs()

    class DirectImpl(mod.direct_skel):
        def __init__(self):
            self.solves = 0

        def solve(self, A, B):
            n = len(B)
            full = _assemble_rows(ctx, A)
            rhs = B.gather(ctx.rts, root=0)
            rhs = coll.bcast(ctx.rts, rhs, root=0)
            ctx.charge_flops(direct_flops(n) / ctx.nprocs)
            x = np.linalg.solve(full, rhs)
            self.solves += 1
            return DistributedSequence.from_global(
                x, Distribution.block(n, ctx.nprocs), ctx.rank)

    return DirectImpl()


def make_iterative_servant(ctx):
    """Jacobi iteration, data-parallel over block rows."""
    mod = solver_stubs()

    class IterativeImpl(mod.iterative_skel):
        def __init__(self):
            self.iterations_run = 0

        def solve(self, tol, A, B):
            local_a = rows_to_matrix(A.owned_data)
            n = len(B)
            ivs = A.dist.intervals(ctx.rank)
            lo, hi = ivs[0] if ivs else (0, 0)
            local_b = np.asarray(B.owned_data, dtype=float)
            diag = (np.array([local_a[i - lo, i] for i in range(lo, hi)])
                    if hi > lo else np.zeros(0))
            x = np.zeros(n)
            sweep = jacobi_sweep_flops(n) / ctx.nprocs
            it = 0
            for it in range(MAX_ITERATIONS):
                if hi > lo:
                    sigma = local_a @ x - diag * x[lo:hi]
                    new_local = (local_b - sigma) / diag
                else:
                    new_local = np.zeros(0)
                ctx.charge_flops(sweep)
                pieces = coll.allgather(ctx.rts, (lo, new_local))
                new_x = np.zeros(n)
                for start, block in pieces:
                    new_x[start:start + len(block)] = block
                delta = float(np.max(np.abs(new_x - x))) if n else 0.0
                x = new_x
                if delta < tol:
                    break
            self.iterations_run = it + 1
            return DistributedSequence.from_global(
                x, Distribution.block(n, ctx.nprocs), ctx.rank)

    return IterativeImpl()


def direct_server_main(ctx, object_name: str = "direct_solver"):
    """Server main: activate a direct solver and serve forever."""
    ctx.poa.activate(make_direct_servant(ctx), object_name, kind="spmd")
    ctx.poa.impl_is_ready()


def iterative_server_main(ctx, object_name: str = "itrt_solver"):
    """Server main: activate a Jacobi solver and serve forever."""
    ctx.poa.activate(make_iterative_servant(ctx), object_name, kind="spmd")
    ctx.poa.impl_is_ready()


def matrix_as_rows(a: np.ndarray) -> list[np.ndarray]:
    """2-D array -> list of row arrays (the dsequence element form)."""
    return [a[i, :].copy() for i in range(a.shape[0])]


def compute_difference(x1, x2) -> float:
    """The client's agreement metric between the two solutions."""
    return float(np.max(np.abs(np.asarray(x1, dtype=float)
                               - np.asarray(x2, dtype=float))))
