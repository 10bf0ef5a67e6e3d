"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.net.addresses import MacAddress, ip
from repro.net.arp import ArpTable
from repro.net.host import Host
from repro.net.link import Link
from repro.net.switch import Switch
from repro.sim.scheduler import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--record-bench", action="store_true",
        help="write the perf_smoke rates to the tracked "
             "BENCH_simulator.json instead of a temp file")


@pytest.fixture
def sim():
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def lan(sim):
    """Two wired hosts (a, b) on a switch, ready to exchange IP packets."""
    arp = ArpTable()
    switch = Switch(sim)

    def add_host(name, addr, index):
        host = Host(sim, name, ip(addr), MacAddress.from_index(index), arp,
                    rng=sim.rng.stream(f"test:{name}"))
        link = Link(sim, name=f"{name}-sw")
        host.nic.attach_link(link)
        switch.new_port(link)
        return host

    host_a = add_host("a", "10.0.0.1", 1)
    host_b = add_host("b", "10.0.0.2", 2)
    return sim, host_a, host_b


def make_wifi_cell(sim, psm=None, n_hosts=1):
    """A channel + AP + wired server + N WiFi hosts, for WiFi-layer tests.

    Returns ``(channel, ap, server_host, [wifi_hosts])``.
    """
    from repro.net.servers import MeasurementServer
    from repro.wifi.ap import AccessPoint
    from repro.wifi.channel import WifiChannel
    from repro.wifi.host import WifiHost
    from repro.wifi.sta import PsmConfig

    channel = WifiChannel(sim, name="test-wlan")
    ap = AccessPoint(sim, channel, MacAddress.from_index(0x10),
                     ip("192.168.1.1"), "192.168.1.0/24",
                     rng=sim.rng.stream("test:ap"))
    arp = ArpTable()
    wired_link = Link(sim)
    ap.add_wired_port("eth0", ip("10.0.0.1"), "10.0.0.0/24", arp,
                      link=wired_link)
    switch = Switch(sim)
    switch.new_port(wired_link)
    server = Host(sim, "server", ip("10.0.0.2"), MacAddress.from_index(0x20),
                  arp, gateway=ip("10.0.0.1"),
                  rng=sim.rng.stream("test:server"))
    server_link = Link(sim)
    server.nic.attach_link(server_link)
    switch.new_port(server_link)
    MeasurementServer(server)

    hosts = []
    for index in range(n_hosts):
        host = WifiHost(
            sim, f"wifi{index}", channel, ap, ip(f"192.168.1.{10 + index}"),
            MacAddress.from_index(0x30 + index),
            psm=psm if psm is not None else PsmConfig.disabled(),
            rng=sim.rng.stream(f"test:wifi{index}"),
        )
        hosts.append(host)
    return channel, ap, server, hosts


def run_until(sim, predicate, deadline):
    """Step the simulator until ``predicate()`` or the deadline."""
    while not predicate() and sim.now < deadline:
        if not sim.step():
            break
    return predicate()
