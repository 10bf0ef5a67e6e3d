"""API-contract tests for the smaller public surfaces.

These pin behaviours that downstream users rely on but that the
scenario-driven suites only touch incidentally.
"""

import pytest

from repro.net.addresses import ip
from tests.conftest import make_wifi_cell


class TestServerSurfaces:
    def test_http_server_close_releases_port(self, lan):
        from repro.net.servers import HttpServer

        sim, _a, b = lan
        server = HttpServer(b, port=8088)
        server.close()
        HttpServer(b, port=8088)  # port free again

    def test_udp_echo_close_releases_port(self, lan):
        from repro.net.servers import UdpEchoServer

        _sim, _a, b = lan
        server = UdpEchoServer(b, port=9090)
        server.close()
        UdpEchoServer(b, port=9090)

    def test_measurement_server_exposes_address(self, lan):
        from repro.net.servers import MeasurementServer

        _sim, _a, b = lan
        server = MeasurementServer(b, http_port=8081, udp_echo_port=9091)
        assert server.ip_addr == b.ip_addr

    def test_two_http_clients_served_concurrently(self, lan):
        sim, a, b = lan
        from repro.net.servers import MeasurementServer

        MeasurementServer(b)
        responses = []
        for _ in range(2):
            conn = a.stack.tcp.connect(b.ip_addr, 80)
            conn.on_connected = lambda c: c.send(100)
            conn.on_data = lambda c, n, m: responses.append(n)
        sim.run(until=1.0)
        assert responses == [230, 230]


class TestCellularSurfaces:
    def test_tower_drops_unknown_subscriber(self):
        from repro.cellular.testbed import CellularTestbed

        testbed = CellularTestbed(seed=221)
        before = testbed.tower.router.packets_forwarded
        # Route to an address inside the cell network but not registered.
        testbed.server_host.stack.send_udp(ip("10.64.0.99"), 5000,
                                           payload_size=8)
        testbed.run(1.0)
        # Routed (forwarded) but silently dropped at the air interface.
        assert testbed.tower.router.packets_forwarded == before + 1

    def test_cellular_phone_user_wrap_stamps(self):
        from repro.cellular.testbed import CellularTestbed

        testbed = CellularTestbed(seed=222)
        phone = testbed.phone
        got = []
        phone.stack.register_ping(3, phone.user_wrap(got.append))
        phone.stack.send_echo_request(testbed.server_ip, 3, 1,
                                      meta={"probe_id": 1})
        testbed.run(6.0)
        assert got and "user" in got[0].stamps
        assert "kernel" in got[0].stamps

    def test_paging_counter(self):
        from repro.cellular.testbed import CellularTestbed

        testbed = CellularTestbed(seed=223)
        testbed.phone.stack.udp_bind(4000, lambda p: None)
        testbed.run(0.5)
        for _ in range(2):
            testbed.server_host.stack.send_udp(testbed.phone.ip_addr, 4000,
                                               payload_size=8)
        testbed.run(8.0)
        # One paging cycle wakes the phone; the second packet rides it.
        assert testbed.tower.packets_paged >= 1
        assert testbed.rrc.pagings >= 1


class TestEnergySurfaces:
    def test_report_keys_stable(self):
        from repro.phone.energy import EnergyMeter
        from repro.testbed.topology import Testbed

        testbed = Testbed(seed=224)
        phone = testbed.add_phone("nexus5")
        meter = EnergyMeter(phone)
        testbed.run(1.0)
        report = meter.report()
        assert set(report) == {
            "elapsed_s", "cam_s", "doze_s", "tx_airtime_s", "rx_airtime_s",
            "bus_awake_s", "energy_J", "avg_power_W",
        }

    def test_meter_repr(self):
        from repro.phone.energy import EnergyMeter
        from repro.testbed.topology import Testbed

        testbed = Testbed(seed=225)
        phone = testbed.add_phone("nexus5")
        meter = EnergyMeter(phone)
        testbed.run(1.0)
        assert "J over" in repr(meter)


class TestWifiSurfaces:
    def test_station_record_lookup(self, sim):
        _channel, ap, _server, hosts = make_wifi_cell(sim)
        record = ap.station_record(hosts[0].sta.mac)
        assert record.aid == hosts[0].sta.aid
        with pytest.raises(KeyError):
            from repro.net.addresses import MacAddress

            ap.station_record(MacAddress.from_index(0xAB))

    def test_next_listen_tbtt_respects_stride(self, sim):
        from repro.wifi.sta import PsmConfig

        psm = PsmConfig(enabled=True, timeout=0.05, listen_interval=2)
        _channel, ap, _server, hosts = make_wifi_cell(sim, psm=psm)
        sta = hosts[0].sta
        sim.run(until=0.95)
        tbtt = sta._next_listen_tbtt()
        from repro.sim.units import tu

        interval = tu(ap.beacon_interval_tu)
        index = round(tbtt / interval)
        assert index % 3 == 0
        assert tbtt > sim.now

    def test_radio_counters(self, sim):
        _channel, _ap, server, hosts = make_wifi_cell(sim)
        hosts[0].stack.send_echo_request(server.ip_addr, 1, 1)
        sim.run(until=0.5)
        assert hosts[0].sta.frames_sent >= 1
        assert hosts[0].sta.frames_received >= 1  # reply + beacons


class TestTimerSurfaces:
    def test_periodic_next_deadline(self, sim):
        train = sim.schedule_periodic(0.5, lambda: None)
        assert train.time == pytest.approx(0.5)
        sim.run(until=0.7)
        assert train.time == pytest.approx(1.0)
        train.cancel()
        assert train.canceled

    def test_timer_restart_is_start(self, sim):
        from repro.sim.timers import Timer

        timer = Timer(sim, lambda: None)
        assert timer.restart.__func__ is timer.start.__func__
