"""Unit tests for the restartable one-shot timer."""

import pytest

from repro.sim.timers import Timer


class TestTimer:
    def test_fires_after_interval(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.25)
        sim.run()
        assert fired == [0.25]

    def test_restart_moves_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.2)
        sim.schedule(0.1, timer.restart, 0.2)
        sim.run()
        assert fired == [pytest.approx(0.3)]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(0.2)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_armed_reflects_state(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(0.5)
        assert timer.armed
        assert timer.deadline == 0.5
        timer.cancel()
        assert not timer.armed
        assert timer.deadline is None

    def test_fires_once_per_start(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.1)
        sim.run(until=1.0)
        assert len(fired) == 1

    def test_restart_from_callback(self, sim):
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(0.1)

        timer = Timer(sim, on_fire)
        timer.start(0.1)
        sim.run()
        assert fired == [pytest.approx(0.1), pytest.approx(0.2),
                         pytest.approx(0.3)]
