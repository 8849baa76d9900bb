"""Compute-utilization metering."""

import pytest

from repro.core import Simulation
from repro.tools import ComputeMeter, attach


def test_meter_accumulates_per_node():
    sim = Simulation()
    meter = attach(sim.world, meter=True).meter

    def main(ctx):
        ctx.compute(1.0 + ctx.rank)

    sim.client(main, host="HOST_1", nprocs=2)
    elapsed = sim.run()
    assert meter.busy_seconds("HOST_1", 0) == pytest.approx(1.0)
    assert meter.busy_seconds("HOST_1", 1) == pytest.approx(2.0)
    assert meter.busy_seconds("HOST_1") == pytest.approx(3.0)
    util = meter.utilization("HOST_1", nodes=2, elapsed=elapsed)
    assert 0.7 < util <= 1.0


def test_meter_report_format():
    sim = Simulation()
    meter = attach(sim.world, meter=True).meter
    sim.client(lambda ctx: ctx.compute(0.5), host="HOST_1")
    sim.run()
    report = meter.report(0.5)
    assert "HOST_1" in report
    assert "%" in report


def test_meter_empty_edge_cases():
    m = ComputeMeter()
    assert m.busy_seconds("nowhere") == 0.0
    assert m.utilization("nowhere", nodes=0, elapsed=0.0) == 0.0


def test_pipeline_utilization_diagnoses_flattening():
    """At high processor counts the diffusion nodes sit mostly idle —
    the utilization view of the Fig-5 flattening."""
    from repro.experiments.fig5_pipeline import _network
    from repro.apps.diffusion import diffusion_client_main
    from repro.apps.visualizer import visualizer_server_main

    utils = {}
    for procs in (1, 8):
        sim = Simulation(network=_network())
        meter = attach(sim.world, meter=True).meter
        sim.server(visualizer_server_main, host="SGI_PC", nprocs=1,
                   node_offset=9, args=("diff_visualizer",))
        reports = {}
        sim.client(diffusion_client_main, host="SGI_PC", nprocs=procs,
                   args=(20, 5, 32, 0.1, None, "diff_visualizer", reports))
        elapsed = sim.run()
        utils[procs] = meter.utilization("SGI_PC", nodes=procs,
                                         elapsed=elapsed)
    assert utils[8] < utils[1]
