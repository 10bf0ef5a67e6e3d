"""Restartable one-shot timers.

Device models in this code base are full of idle timeouts — the SDIO
demotion watchdog, the adaptive-PSM timeout, TCP retransmission — all of
which follow the same "arm, maybe restart, maybe cancel" pattern that
:class:`Timer` captures.  Strictly periodic behaviour (802.11 beacons,
the driver watchdog tick) uses
:meth:`~repro.sim.scheduler.Simulator.schedule_periodic` trains directly.
"""


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    The callback fires once, ``interval`` seconds after the most recent
    :meth:`start`/:meth:`restart`.  Restarting an armed timer moves the
    deadline; cancelling disarms it.
    """

    def __init__(self, sim, callback, label=""):
        self._sim = sim
        self._callback = callback
        self._event = None
        self.label = label

    @property
    def armed(self):
        """Whether the timer currently has a pending deadline."""
        return self._event is not None and not self._event.canceled

    @property
    def deadline(self):
        """Absolute firing time, or ``None`` when disarmed."""
        return self._event.time if self.armed else None

    def start(self, interval):
        """Arm (or re-arm) the timer to fire ``interval`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(
            interval, self._fire, label=self.label or "timer"
        )

    # ``restart`` reads better at call sites that always re-arm.
    restart = start

    def cancel(self):
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback()
