"""Deadline-driven idle machinery against event-per-step references.

Three mechanisms fire events only where model state can change: the
SDIO bus watchdog (one sleep deadline instead of a 10 ms tick train),
:class:`~repro.sim.timers.Timer` (restarts to a later deadline keep the
pending event), and :class:`~repro.net.interface.EthernetInterface`
(a ``busy_until`` time instead of a completion event per frame).  Each
is checked here against the straightforward implementation it replaced,
kept below as a reference, under hypothesis-random schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import MacAddress, ip
from repro.net.interface import EthernetFrame, EthernetInterface
from repro.net.link import Link
from repro.net.packet import Packet, UdpDatagram
from repro.net.queues import DropTailQueue
from repro.phone.chipset import ChipsetProfile
from repro.phone.driver import BUS_ASLEEP, BUS_AWAKE, SdioBus
from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer

# -- references ---------------------------------------------------------------


class PollingSdioBus:
    """The watchdog as a periodic train that polls ``idlecount``."""

    def __init__(self, sim, chipset, rng, sleep_enabled=True):
        self.sim = sim
        self.chipset = chipset
        self.rng = rng
        self.sleep_enabled = sleep_enabled
        self.state = BUS_AWAKE
        self.on_transition = None
        self.idlecount = 0
        self._activity_since_tick = True
        self.sleep_count = 0
        self.wake_count = 0
        sim.schedule_periodic(chipset.watchdog_period, self._tick,
                              label="watchdog:ref")

    def mark_activity(self):
        self._activity_since_tick = True
        self.idlecount = 0

    def set_sleep_enabled(self, enabled):
        self.sleep_enabled = enabled
        if not enabled and self.state == BUS_ASLEEP:
            self._transition(BUS_AWAKE)

    def _transition(self, new_state):
        old, self.state = self.state, new_state
        if self.on_transition is not None and old != new_state:
            self.on_transition(old, new_state)

    def wake_delay(self):
        self.mark_activity()
        if self.state == BUS_AWAKE:
            return 0.0
        self._transition(BUS_AWAKE)
        self.wake_count += 1
        return self.chipset.wake_delay.draw(self.rng)

    def _tick(self):
        if self._activity_since_tick:
            self._activity_since_tick = False
            self.idlecount = 0
            return
        self.idlecount += 1
        if (self.idlecount >= self.chipset.idletime and self.sleep_enabled
                and self.state == BUS_AWAKE):
            self._transition(BUS_ASLEEP)
            self.sleep_count += 1


class EagerTimer:
    """The timer that cancels and reschedules on every restart."""

    def __init__(self, sim, callback, label=""):
        self._sim = sim
        self._callback = callback
        self._event = None
        self.label = label

    @property
    def armed(self):
        return self._event is not None and not self._event.canceled

    @property
    def deadline(self):
        return self._event.time if self.armed else None

    def start(self, interval):
        self.cancel()
        self._event = self._sim.schedule(interval, self._fire,
                                         label=self.label or "timer")

    restart = start

    def cancel(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback()


class EventPerFrameInterface(EthernetInterface):
    """The port that schedules an ``eth-tx`` completion for every frame."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._transmitting = False

    def send(self, frame):
        if not self.egress.enqueue(frame):
            return False
        self._pump()
        return True

    def _pump(self):
        if self._transmitting or self.egress.is_empty:
            return
        frame = self.egress.dequeue()
        self._transmitting = True
        for tap in self._taps:
            tap(frame, "tx")
        tx_time = self.link.transmit(self, frame)
        self.frames_sent += 1
        self._sim.schedule(tx_time, self._transmit_done,
                           label=f"eth-tx:{self.name}")

    def _transmit_done(self):
        self._transmitting = False
        self._pump()


# -- SDIO watchdog ----------------------------------------------------------

#: Half-microsecond offsets keep every scheduled action off the
#: watchdog grid (whole microseconds): at an exact tie the two
#: watchdogs may order an activity and a tick differently.
_US = 1e-6


def _us(value):
    return (value + 0.5) * _US


_bus_actions = st.lists(
    st.tuples(st.integers(0, 400_000),
              st.sampled_from(["activity", "access", "enable", "disable"])),
    max_size=40)


def _bus_log(bus_type, chipset, created_us, sleep_enabled, actions):
    sim = Simulator(seed=3)
    log = []
    holder = {}

    def create():
        bus = bus_type(sim, chipset, sim.rng.stream("bus"),
                       sleep_enabled=sleep_enabled)
        bus.on_transition = lambda old, new: log.append((sim.now, old, new))
        holder["bus"] = bus

    def act(kind):
        bus = holder["bus"]
        if kind == "activity":
            bus.mark_activity()
        elif kind == "access":
            bus.wake_delay()
        else:
            bus.set_sleep_enabled(kind == "enable")
        log.append((sim.now, kind, bus.state))

    sim.schedule(created_us * _US, create)
    for at_us, kind in actions:
        sim.schedule(max(_us(at_us), created_us * _US), act, kind)
    sim.run(until=0.6)
    bus = holder["bus"]
    return log, bus.sleep_count, bus.wake_count, bus.idlecount


@settings(max_examples=150, deadline=None)
@given(actions=_bus_actions,
       period_us=st.sampled_from([5_000, 10_000, 7_000]),
       idletime=st.integers(0, 6),
       created_us=st.integers(0, 30_000),
       sleep_enabled=st.booleans())
def test_tickless_watchdog_matches_polling(actions, period_us, idletime,
                                           created_us, sleep_enabled):
    chipset = ChipsetProfile("t", "v", "sdio", "d",
                             watchdog_period=period_us * _US,
                             idletime=idletime)
    ref = _bus_log(PollingSdioBus, chipset, created_us, sleep_enabled,
                   actions)
    new = _bus_log(SdioBus, chipset, created_us, sleep_enabled, actions)
    assert new == ref


def test_parked_watchdog_has_no_pending_event():
    sim = Simulator(seed=1)
    chipset = ChipsetProfile("t", "v", "sdio", "d")
    bus = SdioBus(sim, chipset, sim.rng.stream("bus"), sleep_enabled=False)
    assert sim.pending() == 0
    bus.set_sleep_enabled(True)
    assert sim.pending() == 1
    sim.run()
    assert bus.asleep and sim.pending() == 0
    # Sleep instant: tick 1 sees the creation as activity, tick 1 +
    # idletime demotes.
    assert sim.now == 6 * chipset.watchdog_period


# -- Timer --------------------------------------------------------------------

#: A binary millisecond grid: sums of grid times are exact, so restarts,
#: cancels and marker events land on equal times often, which is where
#: the (time, seq) order is tested.
_MS = 2.0 ** -10

_timer_ops = st.lists(
    st.tuples(st.integers(0, 30),  # when the op runs (ms)
              st.sampled_from(["start", "start", "start", "cancel",
                               "marker"]),
              st.integers(0, 1),  # which timer
              st.integers(0, 12)),  # interval / marker delay (ms)
    max_size=40)


def _timer_log(timer_type, ops, rearm_from_callback):
    sim = Simulator(seed=1)
    log = []
    timers = []

    def fired(index):
        log.append((sim.now, "fire", index))
        if rearm_from_callback and len(log) < 200:
            timers[index].start(3 * _MS)

    for index in range(2):
        timers.append(timer_type(sim, lambda i=index: fired(i),
                                 label=f"t{index}"))

    def op(kind, index, amount):
        timer = timers[index]
        if kind == "start":
            timer.start(amount * _MS)
        elif kind == "cancel":
            timer.cancel()
        else:
            sim.schedule(amount * _MS,
                         lambda: log.append((sim.now, "marker", index)))
        log.append((sim.now, kind, index,
                    [(t.armed, t.deadline) for t in timers]))

    for at_ms, kind, index, amount in ops:
        sim.schedule(at_ms * _MS, op, kind, index, amount)
    sim.run()
    return log


@settings(max_examples=200, deadline=None)
@given(ops=_timer_ops, rearm_from_callback=st.booleans())
def test_lazy_timer_matches_cancel_and_reschedule(ops, rearm_from_callback):
    assert (_timer_log(Timer, ops, rearm_from_callback)
            == _timer_log(EagerTimer, ops, rearm_from_callback))


def test_restart_to_the_same_deadline_fires_after_events_armed_between():
    for timer_type in (Timer, EagerTimer):
        sim = Simulator(seed=1)
        log = []
        timer = timer_type(sim, lambda: log.append("timer"))
        timer.start(0.5)
        sim.schedule(0.5, log.append, "marker")
        sim.schedule(0.25, timer.restart, 0.25)
        sim.run()
        assert log == ["marker", "timer"], timer_type


def test_lazy_restart_keeps_the_pending_event():
    sim = Simulator(seed=1)
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(0.1)
    for step in range(1, 6):
        sim.schedule(step * 0.01, timer.restart, 0.1)
    sim.run()
    assert fired == [0.05 + 0.1]
    assert sim.events_canceled == 0


# -- Ethernet transmitter ----------------------------------------------------


class _Sink:
    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def handle_frame(self, frame, interface):
        self.frames.append((self.sim.now, frame.packet.meta["n"]))


_bursts = st.lists(
    st.tuples(st.integers(0, 3_000),  # send time (us)
              st.integers(0, 1_500)),  # payload bytes
    min_size=1, max_size=14)


def _burst_log(interface_type, burst, packet_limit):
    sim = Simulator(seed=1)
    link = Link(sim, bandwidth_bps=10e6, propagation_delay=5e-6)
    sink_a, sink_b = _Sink(sim), _Sink(sim)
    nic_a = interface_type(sim, sink_a, MacAddress.from_index(1),
                           queue=DropTailQueue(packet_limit=packet_limit))
    nic_b = EthernetInterface(sim, sink_b, MacAddress.from_index(2))
    nic_a.attach_link(link)
    nic_b.attach_link(link)
    departures = []
    nic_a.add_tap(lambda frame, direction: departures.append(
        (sim.now, frame.packet.meta["n"])))
    accepted = []

    def send(n, size):
        packet = Packet(ip("1.1.1.1"), ip("2.2.2.2"),
                        UdpDatagram(1000, 2000, size), meta={"n": n})
        accepted.append(nic_a.send(EthernetFrame(nic_b.mac, nic_a.mac,
                                                 packet)))

    for n, (at_us, size) in enumerate(burst):
        sim.schedule(at_us * _US, send, n, size)
    sim.run()
    return departures, sink_b.frames, accepted, nic_a.frames_sent


@settings(max_examples=150, deadline=None)
@given(burst=_bursts, packet_limit=st.sampled_from([None, 1, 3]))
def test_busy_until_port_matches_event_per_frame(burst, packet_limit):
    assert (_burst_log(EthernetInterface, burst, packet_limit)
            == _burst_log(EventPerFrameInterface, burst, packet_limit))


def test_burst_into_busy_port_departs_back_to_back_in_order():
    burst = [(0, 1000)] * 6  # six frames at one instant
    departures, arrivals, accepted, sent = _burst_log(
        EthernetInterface, burst, None)
    assert [n for _t, n in departures] == list(range(6))
    assert [n for _t, n in arrivals] == list(range(6))
    assert all(accepted) and sent == 6
    gaps = {round(b - a, 12) for (a, _), (b, _) in zip(departures,
                                                       departures[1:])}
    assert len(gaps) == 1  # each frame leaves when the previous is out
