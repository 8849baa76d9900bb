"""Tests for link profiles and network topology."""

import pytest

from repro.netsim import (
    ATM_155,
    ETHERNET_10,
    LinkProfile,
    Host,
    Network,
    NoRouteError,
    SGI_SHMEM,
)


def make_net():
    net = Network()
    net.add_host(Host("h1", nodes=4, node_flops=5e6))
    net.add_host(Host("h2", nodes=10, node_flops=8e6))
    net.connect("h1", "h2", ATM_155)
    return net


class TestLinkProfile:
    def test_transfer_time_components(self):
        p = LinkProfile("t", latency=1e-3, bandwidth=1e6, cpu_overhead=1e-4)
        assert p.serialization_time(1_000_000) == pytest.approx(1.0)
        assert p.transfer_time(1_000_000) == pytest.approx(1.0 + 1e-3 + 1e-4)

    def test_zero_bytes_costs_latency_and_overhead(self):
        p = LinkProfile("t", latency=2e-3, bandwidth=1e6, cpu_overhead=5e-4)
        assert p.transfer_time(0) == pytest.approx(2.5e-3)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkProfile("bad", latency=-1.0, bandwidth=1e6)
        with pytest.raises(ValueError):
            LinkProfile("bad", latency=0.0, bandwidth=0.0)

    def test_atm_faster_than_ethernet_for_bulk(self):
        mb = 1_000_000
        assert ATM_155.transfer_time(mb) < ETHERNET_10.transfer_time(mb)


class TestHost:
    def test_compute_time(self):
        h = Host("h", nodes=2, node_flops=1e6)
        assert h.compute_time(2e6) == pytest.approx(2.0)

    def test_invalid_hosts_rejected(self):
        with pytest.raises(ValueError):
            Host("h", nodes=0)
        with pytest.raises(ValueError):
            Host("h", nodes=1, node_flops=0.0)


class TestNetwork:
    def test_route_between_hosts(self):
        net = make_net()
        assert net.route("h1", "h2")[0] is ATM_155
        assert net.route("h2", "h1")[0] is ATM_155

    def test_intra_host_uses_host_fabric(self):
        net = make_net()
        assert net.route("h1", "h1")[0] is SGI_SHMEM

    def test_no_route_raises(self):
        net = make_net()
        net.add_host(Host("h3", nodes=1))
        with pytest.raises(NoRouteError):
            net.route("h1", "h3")

    def test_duplicate_host_rejected(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.add_host(Host("h1", nodes=1))

    def test_connect_unknown_host_rejected(self):
        net = make_net()
        with pytest.raises(KeyError):
            net.connect("h1", "nope", ATM_155)

    def test_self_connect_rejected(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.connect("h1", "h1", ATM_155)

    def test_shared_link_serializes_transfers(self):
        net = make_net()
        nbytes = int(ATM_155.bandwidth)  # 1 second of serialization
        done1, arr1 = net.reserve_route(net.route("h1", "h2"), nbytes, now=0.0)
        done2, arr2 = net.reserve_route(net.route("h1", "h2"), nbytes, now=0.0)
        assert done1 == pytest.approx(1.0)
        assert done2 == pytest.approx(2.0)  # waited for the first transfer
        assert arr2 == pytest.approx(2.0 + ATM_155.latency)

    def test_unshared_intra_fabric_does_not_serialize(self):
        net = make_net()
        nbytes = int(SGI_SHMEM.bandwidth)
        done1, _ = net.reserve_route(net.route("h1", "h1"), nbytes, now=0.0)
        done2, _ = net.reserve_route(net.route("h1", "h1"), nbytes, now=0.0)
        assert done1 == pytest.approx(done2)

    def test_reset_occupancy(self):
        net = make_net()
        net.reserve_route(net.route("h1", "h2"), int(ATM_155.bandwidth), now=0.0)
        net.reset_occupancy()
        done, _ = net.reserve_route(net.route("h1", "h2"), 0, now=0.0)
        assert done == pytest.approx(0.0)
