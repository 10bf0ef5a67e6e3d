"""The WNIC driver: dpc/rxframe threads over a sleepy SDIO bus.

This mirrors the call structure the paper traced in Figures 4 and 5:

* TX: ``dhd_start_xmit`` registers a task with the **dpc thread**, which
  must first bring the SDIO bus up (``dhdsdio_bussleep`` /
  ``dhdsdio_clkctl``) before ``dhdsdio_txpkt`` writes the frame to the
  bus.  ``dvsend`` is the time from ``dhd_start_xmit`` to
  ``dhdsdio_txpkt``.
* RX: ``dhdsdio_isr`` registers a dpc task; the dpc thread wakes the bus
  and runs ``dhdsdio_readframes``; frames are queued for the **rxframe
  thread** which calls ``netif_rx_ni``.  ``dvrecv`` is the time from
  ``dhdsdio_isr`` to ``dhd_rxf_enqueue``.
* A watchdog ticks every ``dhd_watchdog_ms``; ``idlecount`` counts up
  while the bus sees no activity, and at ``idletime`` the bus demotes
  (sleeps).  Waking it back up costs the promotion delay ``Tprom``.
  The model computes that sleep tick in closed form and fires one
  deadline event there instead of every tick (see :class:`SdioBus`).

The driver records every ``dvsend``/``dvrecv`` sample — the simulated
equivalent of the paper's timestamping kernel patch — so Table 3 is a
matter of reading ``driver.samples``.
"""

from collections import deque

from repro.obs.names import (
    DRIVER_DVRECV_SECONDS,
    DRIVER_DVSEND_SECONDS,
    SDIO_SLEEPS_TOTAL,
    SDIO_WAKES_TOTAL,
    SPAN_DRIVER_QUEUEING,
    SPAN_SDIO_ASLEEP,
    SPAN_SDIO_PROMOTION,
)

BUS_AWAKE = "AWAKE"
BUS_ASLEEP = "ASLEEP"


class DriverSample:
    """One instrumented driver-path delay measurement."""

    __slots__ = ("kind", "time", "duration", "wake_paid")

    def __init__(self, kind, time, duration, wake_paid):
        self.kind = kind  # 'send' or 'recv'
        self.time = time
        self.duration = duration
        self.wake_paid = wake_paid

    def __repr__(self):
        wake = " +wake" if self.wake_paid else ""
        return f"<DriverSample {self.kind} {self.duration * 1e3:.3f}ms{wake}>"


class SdioBus:
    """The host-to-chipset bus with the idlecount/idletime sleep policy.

    The dhd watchdog ticks on a fixed grid, ``anchor + k * period`` for
    ``k >= 1`` with the bus's creation time as the anchor.  The first
    tick after bus activity resets ``idlecount``; each later tick adds
    one, and the tick that brings it to ``idletime`` demotes the bus.
    The sleep instant is therefore known in closed form (PAPER §3.2):
    grid tick ``k* = first_tick_after(last_activity) + idletime``.

    So the bus keeps one deadline event at ``k*`` instead of firing every
    tick.  :meth:`mark_activity` only records the time; when the deadline
    fires it re-arms itself if activity has since moved ``k*``, and
    otherwise puts the bus to sleep.  No event is pending while the bus
    sleeps or while sleep is disabled; :meth:`wake_delay` and
    ``set_sleep_enabled(True)`` arm it again.  An activity at exactly a
    grid instant counts as after that tick, which is the polling
    watchdog's order whenever the activity was scheduled within the
    preceding period.
    """

    def __init__(self, sim, chipset, rng, sleep_enabled=True, name="sdio"):
        self.sim = sim
        self.chipset = chipset
        self.rng = rng
        self.name = name
        self.sleep_enabled = sleep_enabled
        self.state = BUS_AWAKE
        #: Optional ``callback(old_state, new_state)`` observer (used by
        #: the energy meter).
        self.on_transition = None
        self.sleep_count = 0
        self.wake_count = 0
        self._slept_at = None
        self._anchor = sim.now
        self._period = chipset.watchdog_period
        # A tick that finds activity resets idlecount to 0 and does not
        # sleep, so even idletime 0 needs one quiet tick.
        self._idle_ticks = max(chipset.idletime, 1)
        self._last_activity = sim.now
        self._label = f"watchdog:{name}"
        self._deadline = None  # the pending deadline event, if any
        self._deadline_index = 0
        self._stopped = False
        if sleep_enabled:
            self._arm()

    @property
    def asleep(self):
        return self.state == BUS_ASLEEP

    @property
    def idlecount(self):
        """Watchdog ticks since the first tick after the last activity."""
        consumed = self._first_tick_after(self._last_activity)
        fired = self._first_tick_after(self.sim.now) - 1
        return max(fired - consumed, 0)

    def _first_tick_after(self, t):
        """Index of the first grid tick strictly after time ``t``."""
        anchor = self._anchor
        period = self._period
        k = max(int((t - anchor) / period) + 1, 1)
        # The division can land one index off; settle on the exact grid
        # expression the ticks fire at.
        while anchor + k * period <= t:
            k += 1
        while k > 1 and anchor + (k - 1) * period > t:
            k -= 1
        return k

    def _sleep_index(self):
        return self._first_tick_after(self._last_activity) + self._idle_ticks

    def _arm(self, not_before=None):
        index = self._sleep_index()
        if not_before is not None:
            index = max(index, self._first_tick_after(not_before))
        self._deadline_index = index
        self._deadline = self.sim.at(self._anchor + index * self._period,
                                     self._on_deadline, label=self._label)

    def _disarm(self):
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None

    def mark_activity(self):
        """Bus traffic observed: restart the idle count."""
        self._last_activity = self.sim.now

    def set_sleep_enabled(self, enabled):
        """Toggle the sleep feature (the paper's driver patch for Table 3)."""
        self.sleep_enabled = enabled
        if enabled:
            if (self._deadline is None and not self._stopped
                    and self.state == BUS_AWAKE):
                self._arm(not_before=self.sim.now)
            return
        self._disarm()
        if self.asleep:
            # An always-on bus comes up for free at the next access; model
            # the toggle as an immediate wake.
            self._transition(BUS_AWAKE)
            if self.sim.spans.enabled and self._slept_at is not None:
                self.sim.spans.record(SPAN_SDIO_ASLEEP, self._slept_at,
                                      self.sim.now, bus=self.name)
            self._slept_at = None

    def _transition(self, new_state):
        old = self.state
        self.state = new_state
        if self.on_transition is not None and old != new_state:
            self.on_transition(old, new_state)

    def wake_delay(self):
        """Promotion delay for one access; 0 when the bus is already up.

        Transitions the bus to AWAKE and counts activity.
        """
        sim = self.sim
        self._last_activity = sim.now
        if self.state == BUS_AWAKE:
            return 0.0
        self._transition(BUS_AWAKE)
        self.wake_count += 1
        if (self.sleep_enabled and self._deadline is None
                and not self._stopped):
            self._arm()
        delay = self.chipset.wake_delay.draw(self.rng)
        if sim.metrics.enabled:
            sim.metrics.inc(SDIO_WAKES_TOTAL, labels={"bus": self.name})
        if sim.spans.enabled:
            # The asleep period just ending, then the promotion it costs.
            if self._slept_at is not None:
                sim.spans.record(SPAN_SDIO_ASLEEP, self._slept_at, sim.now,
                                 bus=self.name)
                self._slept_at = None
            sim.spans.record(SPAN_SDIO_PROMOTION, sim.now, sim.now + delay,
                             bus=self.name)
        return delay

    def _on_deadline(self):
        event = self._deadline
        self._deadline = None
        index = self._sleep_index()
        if index > self._deadline_index:
            # Activity since arming moved the sleep tick: follow it.
            self._deadline_index = index
            self._deadline = event
            self.sim.rearm(event, self._anchor + index * self._period,
                           self.sim.reserve_seq())
            return
        self._transition(BUS_ASLEEP)
        self.sleep_count += 1
        self._slept_at = self.sim.now
        if self.sim.metrics.enabled:
            self.sim.metrics.inc(SDIO_SLEEPS_TOTAL,
                                 labels={"bus": self.name})
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "sdio", "bus sleep",
                                  bus=self.name)

    def stop(self):
        """Stop the watchdog (simulation teardown)."""
        self._stopped = True
        self._disarm()

    def __repr__(self):
        return f"<SdioBus {self.name} {self.state} idlecount={self.idlecount}>"


class WnicDriver:
    """dpc + rxframe thread model above an :class:`SdioBus`.

    ``tx_complete(packet)`` receives packets leaving the driver toward
    the radio; ``rx_complete(packet)`` receives packets leaving the
    driver toward the kernel.
    """

    def __init__(self, sim, chipset, rng, tx_complete, rx_complete,
                 sleep_enabled=True, name="wnic"):
        self.sim = sim
        self.chipset = chipset
        self.rng = rng
        self.name = name
        self.tx_complete = tx_complete
        self.rx_complete = rx_complete
        self.bus = SdioBus(sim, chipset, rng, sleep_enabled=sleep_enabled,
                           name=f"{name}.bus")
        self._dpc_queue = deque()
        self._dpc_busy = False
        self.samples = []
        self.packets_tx = 0
        self.packets_rx = 0

    # -- entry points (kernel / radio facing) ---------------------------

    def start_xmit(self, packet):
        """``dhd_start_xmit``: TX entry from the kernel."""
        packet.stamp("driver", self.sim.now)
        self._dpc_submit(("tx", packet, self.sim.now))

    def isr(self, packet):
        """``dhdsdio_isr``: RX interrupt from the chipset."""
        packet.stamp("driver", self.sim.now)
        self._dpc_submit(("rx", packet, self.sim.now))

    def set_bus_sleep(self, enabled):
        """Enable/disable the SDIO sleep feature."""
        self.bus.set_sleep_enabled(enabled)

    # -- dpc thread -------------------------------------------------------

    def _dpc_submit(self, task):
        self._dpc_queue.append(task)
        if not self._dpc_busy:
            self._dpc_run()

    def _dpc_run(self):
        if not self._dpc_queue:
            self._dpc_busy = False
            return
        self._dpc_busy = True
        kind, packet, entry_time = self._dpc_queue.popleft()
        sim = self.sim
        if sim.spans.enabled and sim.now > entry_time:
            # Time the task sat behind the busy dpc thread — the
            # paper's driver-queueing delay component.
            sim.spans.record(SPAN_DRIVER_QUEUEING, entry_time, sim.now,
                             queue=f"dpc:{self.name}", direction=kind,
                             probe_id=packet.probe_id)
        wake = self.bus.wake_delay()
        cost = (
            self.chipset.tx_cost if kind == "tx" else self.chipset.rx_cost
        ).draw(self.rng)
        self.sim.schedule(
            wake + cost, self._dpc_done, kind, packet, entry_time, wake > 0,
            label=f"dpc:{self.name}",
        )

    def _dpc_done(self, kind, packet, entry_time, wake_paid):
        now = self.sim.now
        self.bus.mark_activity()
        packet.stamp("driver_done", now)
        duration = now - entry_time
        self.samples.append(DriverSample(
            "send" if kind == "tx" else "recv", now, duration, wake_paid,
        ))
        if self.sim.metrics.enabled:
            self.sim.metrics.observe(
                DRIVER_DVSEND_SECONDS if kind == "tx"
                else DRIVER_DVRECV_SECONDS, duration)
        if kind == "tx":
            self.packets_tx += 1
            self.tx_complete(packet)
        else:
            self.packets_rx += 1
            # rxframe thread: dequeue + netif_rx_ni.
            self.sim.schedule(
                self.chipset.rxframe_cost.draw(self.rng),
                self._rxframe_deliver, packet,
                label=f"rxframe:{self.name}",
            )
        self._dpc_busy = False
        if self._dpc_queue:
            self._dpc_run()

    def _rxframe_deliver(self, packet):
        self.rx_complete(packet)

    # -- instrumentation ----------------------------------------------------

    def samples_of(self, kind):
        """All recorded dvsend ('send') or dvrecv ('recv') durations."""
        return [s.duration for s in self.samples if s.kind == kind]

    def clear_samples(self):
        self.samples = []

    def __repr__(self):
        return f"<WnicDriver {self.name} chipset={self.chipset.name}>"
