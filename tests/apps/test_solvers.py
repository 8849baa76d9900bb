"""Correctness tests for the §4.1 solver applications."""

import numpy as np
import pytest

from repro.core import Simulation, default_network
from repro.apps.interfaces import solver_stubs
from repro.apps.solvers import (
    compute_difference,
    direct_flops,
    direct_server_main,
    generate_system,
    iterative_server_main,
    jacobi_sweep_flops,
    matrix_as_rows,
    rows_to_matrix,
)


class TestSystemGeneration:
    def test_reproducible(self):
        a1, b1 = generate_system(50)
        a2, b2 = generate_system(50)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_diagonally_dominant(self):
        a, _ = generate_system(60)
        diag = np.abs(np.diag(a))
        off = np.abs(a).sum(axis=1) - diag
        assert np.all(diag > off)

    def test_jacobi_converges_on_generated_system(self):
        a, b = generate_system(80)
        x_ref = np.linalg.solve(a, b)
        d = np.diag(a)
        x = np.zeros(80)
        for _ in range(400):
            x = (b - (a @ x - d * x)) / d
        np.testing.assert_allclose(x, x_ref, atol=1e-5)

    def test_matrix_row_helpers_roundtrip(self):
        a, _ = generate_system(10)
        rows = matrix_as_rows(a)
        assert len(rows) == 10
        np.testing.assert_array_equal(rows_to_matrix(rows), a)

    def test_rows_to_matrix_empty(self):
        assert rows_to_matrix([]).size == 0


class TestCostModels:
    def test_direct_is_cubic(self):
        assert direct_flops(200) / direct_flops(100) == pytest.approx(8.0)

    def test_sweep_is_quadratic(self):
        assert jacobi_sweep_flops(200) / jacobi_sweep_flops(100) == \
            pytest.approx(4.0)


class TestComputeDifference:
    def test_zero_for_identical(self):
        assert compute_difference([1.0, 2.0], np.array([1.0, 2.0])) == 0.0

    def test_max_abs(self):
        assert compute_difference([1.0, 5.0], [1.5, 2.0]) == 3.0


def run_solver(server_main, object_name, invoke, nprocs=2):
    sim = Simulation(network=default_network())
    sim.server(server_main, host="HOST_2", nprocs=nprocs)
    out = {}

    def client(ctx):
        mod = solver_stubs()
        out.setdefault("x", {})[ctx.rank] = invoke(ctx, mod)

    sim.client(client, host="HOST_1", nprocs=2)
    sim.run()
    return out["x"]


class TestSolverServants:
    @pytest.mark.parametrize("n", [16, 37])
    def test_direct_solver_solution_is_correct(self, n):
        a, b = generate_system(n)
        x_ref = np.linalg.solve(a, b)

        def invoke(ctx, mod):
            solver = mod.direct._spmd_bind("direct_solver")
            A = mod.matrix(matrix_as_rows(a))
            B = mod.vector(b)
            x = solver.solve(A, B)
            return x.gather(ctx.rts, root=0)

        res = run_solver(direct_server_main, "direct_solver", invoke)
        np.testing.assert_allclose(res[0], x_ref, atol=1e-8)

    @pytest.mark.parametrize("n", [16, 37])
    def test_iterative_solver_converges(self, n):
        a, b = generate_system(n)
        x_ref = np.linalg.solve(a, b)

        def invoke(ctx, mod):
            solver = mod.iterative._spmd_bind("itrt_solver")
            A = mod.matrix(matrix_as_rows(a))
            B = mod.vector(b)
            x = solver.solve(1e-8, A, B)
            return x.gather(ctx.rts, root=0)

        res = run_solver(iterative_server_main, "itrt_solver", invoke)
        np.testing.assert_allclose(res[0], x_ref, atol=1e-5)

    def test_methods_agree(self):
        n = 24
        a, b = generate_system(n)

        sim = Simulation(network=default_network())
        sim.server(direct_server_main, host="HOST_1", nprocs=2, node_offset=2)
        sim.server(iterative_server_main, host="HOST_2", nprocs=2)
        out = {}

        def client(ctx):
            mod = solver_stubs()
            d = mod.direct._spmd_bind("direct_solver")
            i = mod.iterative._spmd_bind("itrt_solver")
            A = mod.matrix(matrix_as_rows(a))
            B = mod.vector(b)
            fut = mod.Future()
            i.solve_nb(1e-8, A, B, fut)
            x2 = d.solve(A, B)
            x1 = fut.value()
            g1 = x1.gather(ctx.rts, root=0)
            g2 = x2.gather(ctx.rts, root=0)
            if ctx.rank == 0:
                out["diff"] = compute_difference(g1, g2)

        sim.client(client, host="HOST_1", nprocs=2)
        sim.run()
        assert out["diff"] < 1e-5

    def test_solver_parallelism_reduces_virtual_time(self):
        """More server threads -> less virtual time (the cost models are
        divided over threads; the transfers barely grow)."""
        n = 64
        a, b = generate_system(n)

        def invoke(ctx, mod):
            solver = mod.direct._spmd_bind("direct_solver")
            t0 = ctx.now()
            solver.solve(mod.matrix(matrix_as_rows(a)), mod.vector(b))
            return ctx.now() - t0

        t2 = run_solver(direct_server_main, "direct_solver", invoke, nprocs=2)
        t4 = run_solver(direct_server_main, "direct_solver", invoke, nprocs=4)
        assert t4[0] < t2[0]

