"""Tests for the assembled phone: layer pipeline, stamps, runtimes."""

import pytest

from repro.phone.profiles import (
    GALAXY_GRAND, HTC_ONE, NEXUS_4, NEXUS_5, PHONES, XPERIA_J, phone_profile,
)
from repro.testbed.topology import Testbed


@pytest.fixture
def bed():
    testbed = Testbed(seed=11, emulated_rtt=0.02)
    phone = testbed.add_phone("nexus5")
    testbed.settle(0.5)
    return testbed, phone


class TestProfiles:
    def test_all_five_phones_registered(self):
        assert set(PHONES) == {"nexus5", "nexus4", "htc_one", "xperia_j",
                               "galaxy_grand"}

    def test_lookup_by_key(self):
        assert phone_profile("nexus5") is NEXUS_5
        with pytest.raises(KeyError):
            phone_profile("iphone")

    def test_table4_psm_timeouts(self):
        # Tip values from Table 4 of the paper.
        assert NEXUS_4.psm_timeout == pytest.approx(40e-3)
        assert NEXUS_5.psm_timeout == pytest.approx(205e-3)
        assert GALAXY_GRAND.psm_timeout == pytest.approx(45e-3)
        assert HTC_ONE.psm_timeout == pytest.approx(400e-3)
        assert XPERIA_J.psm_timeout == pytest.approx(210e-3)

    def test_actual_listen_interval_zero(self):
        assert all(p.listen_interval_actual == 0 for p in PHONES.values())

    def test_associated_listen_intervals_by_driver(self):
        # 1 for wcnss, 10 for bcmdhd (§3.2.2).
        assert NEXUS_4.listen_interval_assoc == 1
        assert HTC_ONE.listen_interval_assoc == 1
        assert NEXUS_5.listen_interval_assoc == 10
        assert XPERIA_J.listen_interval_assoc == 10

    def test_runtime_costs_ordered(self):
        profile = NEXUS_5
        assert (profile.runtime_cost("dalvik").mean
                > profile.runtime_cost("native").mean)
        with pytest.raises(ValueError):
            profile.runtime_cost("wasm")

    def test_slow_phone_costs_scaled_up(self):
        assert (XPERIA_J.runtime_cost("native").mean
                > NEXUS_5.runtime_cost("native").mean)

    def test_nexus4_ping_quirk_flag(self):
        assert NEXUS_4.ping_integer_above_100ms
        assert not NEXUS_5.ping_integer_above_100ms


class TestPhonePipeline:
    def test_ping_round_trip_with_all_stamps(self, bed):
        testbed, phone = bed
        sim = testbed.sim
        replies = []
        phone.stack.register_ping(3, replies.append)
        request = phone.stack.send_echo_request(
            testbed.server_ip, 3, 1, meta={"probe_id": 1})
        sim.run(until=sim.now + 1.0)
        assert len(replies) == 1
        response = replies[0]
        for stamp in ("kernel", "driver", "driver_done", "phy"):
            assert stamp in request.stamps, f"request missing {stamp}"
            assert stamp in response.stamps, f"response missing {stamp}"
        # Stamp ordering down the stack (request) and up (response).
        assert (request.stamps["kernel"] <= request.stamps["driver"]
                <= request.stamps["driver_done"] <= request.stamps["phy"])
        assert (response.stamps["phy"] <= response.stamps["driver"]
                <= response.stamps["driver_done"] <= response.stamps["kernel"])

    def test_user_send_returns_pre_delay_timestamp(self, bed):
        testbed, phone = bed
        sim = testbed.sim
        fired = []
        t0 = phone.user_send(lambda: fired.append(sim.now))
        assert t0 == sim.now
        sim.run(until=sim.now + 0.1)
        assert fired and fired[0] > t0

    def test_user_wrap_adds_delay_and_stamps(self, bed):
        testbed, phone = bed
        sim = testbed.sim
        got = []
        phone.stack.register_ping(5, phone.user_wrap(got.append))
        phone.stack.send_echo_request(testbed.server_ip, 5, 1,
                                      meta={"probe_id": 2})
        sim.run(until=sim.now + 1.0)
        assert len(got) == 1
        assert "user" in got[0].stamps
        assert got[0].stamps["user"] > got[0].stamps["kernel"]

    def test_dalvik_runtime_slower_than_native(self, bed):
        testbed, phone = bed
        rng_draws = 500
        phone.runtime = "native"
        native = sum(phone.app_cost() for _ in range(rng_draws))
        phone.runtime = "dalvik"
        dalvik = sum(phone.app_cost() for _ in range(rng_draws))
        assert dalvik > native * 3

    def test_kernel_tap_sees_both_directions(self, bed):
        testbed, phone = bed
        sim = testbed.sim
        directions = []
        phone.kernel.add_tap(lambda p, d: directions.append(d))
        phone.stack.register_ping(6, lambda p: None)
        phone.stack.send_echo_request(testbed.server_ip, 6, 1)
        sim.run(until=sim.now + 1.0)
        assert "tx" in directions and "rx" in directions

    def test_set_bus_sleep_toggle(self, bed):
        testbed, phone = bed
        phone.set_bus_sleep(False)
        testbed.run(1.0)
        assert phone.driver.bus.state == "AWAKE"
        phone.set_bus_sleep(True)
        testbed.run(1.0)
        assert phone.driver.bus.state == "ASLEEP"

    def test_set_psm_enabled_toggle(self, bed):
        testbed, phone = bed
        testbed.run(1.0)
        assert phone.sta.power_state == "DOZE"
        phone.set_psm_enabled(False)
        assert phone.sta.power_state == "AWAKE"
        testbed.run(1.0)
        assert phone.sta.power_state == "AWAKE"

    def test_phone_ignores_foreign_packets(self, bed):
        testbed, phone = bed
        before = phone.stack.packets_received
        # A packet routed to another WLAN address never reaches the stack.
        testbed.server_host.stack.send_udp(
            phone.ip_addr, 9, payload_size=4)  # unbound port: received+dropped
        testbed.run(0.5)
        assert phone.stack.packets_received == before + 1


class TestAppCostCache:
    """``app_cost`` scales each runtime's distribution once per phone."""

    @staticmethod
    def _draws(phone, cached):
        draws = []
        for index in range(60):
            phone.runtime = "dalvik" if index % 3 == 0 else "native"
            if cached:
                draws.append(phone.app_cost())
            else:
                draws.append(phone.profile.runtime_cost(phone.runtime)
                             .draw(phone.rng))
        return draws

    @pytest.mark.parametrize("env", ["wifi", "cellular-lte"])
    def test_cached_draws_equal_uncached(self, env):
        from repro.testbed.environment import build_environment

        sequences = []
        for cached in (True, False):
            phone = build_environment(env, seed=4).attach_phone("nexus4")
            sequences.append(self._draws(phone, cached))
        assert sequences[0] == sequences[1]
        assert len(set(sequences[0])) > 1

    def test_one_distribution_per_runtime(self, bed):
        _testbed, phone = bed
        phone.app_cost()
        first = phone._runtime_costs["native"]
        phone.app_cost()
        assert phone._runtime_costs["native"] is first
