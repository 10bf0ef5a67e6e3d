"""Restartable one-shot timers.

Device models in this code base are full of idle timeouts — the
adaptive-PSM timeout, TCP retransmission, RRC demotion, the TWT and
predictive-sleep wakes — all of which follow the same "arm, maybe
restart, maybe cancel" pattern that :class:`Timer` captures.  Strictly
periodic behaviour (802.11 beacons) uses
:meth:`~repro.sim.scheduler.Simulator.schedule_periodic` trains
directly; the SDIO bus watchdog is a single deadline of its own
(:class:`repro.phone.driver.SdioBus`).
"""


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    The callback fires once, ``interval`` seconds after the most recent
    :meth:`start`/:meth:`restart`.  Restarting an armed timer moves the
    deadline; cancelling disarms it.

    Restarts are lazy.  An idle timeout is pushed later on every packet,
    so moving the deadline later keeps the pending scheduler event and
    only records the new deadline; when the stale event surfaces it
    re-inserts itself there (:meth:`Simulator.rearm`).  The deadline's
    tie-break ``seq`` is drawn at restart time, exactly where a fresh
    event would draw it, so the global ``(time, seq)`` firing order is
    the one cancel-and-reschedule gives, ties included.  A restart to an
    earlier deadline cancels and reschedules.
    """

    def __init__(self, sim, callback, label=""):
        self._sim = sim
        self._callback = callback
        self._event = None  # the pending event; may precede the deadline
        self._deadline = None  # logical (time, seq), None when disarmed
        self.label = label

    @property
    def armed(self):
        """Whether the timer currently has a pending deadline."""
        return self._deadline is not None

    @property
    def deadline(self):
        """Absolute firing time, or ``None`` when disarmed."""
        return self._deadline[0] if self._deadline is not None else None

    def start(self, interval):
        """Arm (or re-arm) the timer to fire ``interval`` seconds from now."""
        sim = self._sim
        event = self._event
        if event is not None:
            time = sim.now + interval
            if interval >= 0 and time >= event.time:
                self._deadline = (time, sim.reserve_seq())
                return
            self.cancel()
        self._event = event = sim.schedule(
            interval, self._fire, label=self.label or "timer"
        )
        self._deadline = (event.time, event.seq)

    # ``restart`` reads better at call sites that always re-arm.
    restart = start

    def cancel(self):
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
            self._deadline = None

    def _fire(self):
        event = self._event
        time, seq = self._deadline
        if seq != event.seq:
            self._sim.rearm(event, time, seq)
            return
        self._event = None
        self._deadline = None
        self._callback()
