"""Unit tests for the simulated network fabric and IP model."""

import pytest

from repro.errors import ConnectionRefused, ConnectionTimeout
from repro.netsim.ip import IpAddress, IpPool
from repro.netsim.network import Network, TcpBehavior


class TestIpAddress:
    def test_v4_construction(self):
        assert IpAddress.v4(10, 1, 2, 3).text == "10.1.2.3"

    def test_v4_range_check(self):
        with pytest.raises(ValueError):
            IpAddress.v4(10, 0, 0, 256)

    def test_parse_v4(self):
        ip = IpAddress.parse("192.0.2.7")
        assert ip.family == 4

    def test_parse_v6(self):
        assert IpAddress.parse("2001:db8::1").family == 6

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IpAddress.parse("10.0.0")
        with pytest.raises(ValueError):
            IpAddress.parse("10.0.0.999")


class TestIpPool:
    def test_unique_allocations(self):
        pool = IpPool()
        ips = [pool.allocate() for _ in range(1000)]
        assert len({ip.text for ip in ips}) == 1000

    def test_pools_do_not_collide(self):
        a = IpPool(base_second_octet=10)
        b = IpPool(base_second_octet=20)
        assert a.allocate().text != b.allocate().text

    def test_never_allocates_dot_zero(self):
        pool = IpPool()
        for ip in [pool.allocate() for _ in range(600)]:
            assert not ip.text.endswith(".0")


class TestNetwork:
    def test_connect_to_listener(self):
        network = Network()
        app = object()
        ip = IpAddress.v4(10, 0, 0, 1)
        network.register(ip, 443, app)
        assert network.connect(ip, 443) is app

    def test_unallocated_ip_times_out(self):
        network = Network()
        with pytest.raises(ConnectionTimeout):
            network.connect(IpAddress.v4(10, 0, 0, 9), 25)

    def test_known_host_closed_port_refuses(self):
        network = Network()
        ip = IpAddress.v4(10, 0, 0, 1)
        network.register(ip, 443, object())
        with pytest.raises(ConnectionRefused):
            network.connect(ip, 25)

    def test_behavior_refuse(self):
        network = Network()
        ip = IpAddress.v4(10, 0, 0, 1)
        network.register(ip, 443, object())
        network.set_behavior(ip, 443, TcpBehavior.REFUSE)
        with pytest.raises(ConnectionRefused):
            network.connect(ip, 443)

    def test_behavior_timeout(self):
        network = Network()
        ip = IpAddress.v4(10, 0, 0, 1)
        network.register(ip, 443, object())
        network.set_behavior(ip, 443, TcpBehavior.TIMEOUT)
        with pytest.raises(ConnectionTimeout):
            network.connect(ip, 443)

    def test_unregister(self):
        network = Network()
        ip = IpAddress.v4(10, 0, 0, 1)
        network.register(ip, 443, object())
        network.unregister(ip, 443)
        with pytest.raises(ConnectionRefused):
            network.connect(ip, 443)

    def test_register_host_without_listener(self):
        network = Network()
        ip = IpAddress.v4(10, 0, 0, 2)
        network.register_host(ip)
        with pytest.raises(ConnectionRefused):
            network.connect(ip, 80)

    def test_rebind_replaces(self):
        network = Network()
        ip = IpAddress.v4(10, 0, 0, 1)
        network.register(ip, 443, "old")
        network.register(ip, 443, "new")
        assert network.connect(ip, 443) == "new"

    def test_connect_count(self):
        network = Network()
        ip = IpAddress.v4(10, 0, 0, 1)
        network.register(ip, 443, object())
        network.connect(ip, 443)
        try:
            network.connect(ip, 80)
        except ConnectionRefused:
            pass
        assert network.connect_count == 2
