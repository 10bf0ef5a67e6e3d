"""Ethernet frames and interfaces.

:class:`EthernetInterface` is the L2 attachment point used by hosts,
switches, routers, and the AP's wired port.  It owns a drop-tail egress
queue and serialises frames onto its :class:`~repro.net.link.Link` one at
a time.  Taps (callbacks) observe frames in both directions — this is how
``tcpdump``-style wired captures are implemented.
"""

ETHERNET_OVERHEAD = 38  # preamble + SFD + header + FCS + minimum IFG, bytes


class EthernetFrame:
    """An Ethernet frame carrying one IP packet."""

    __slots__ = ("dst_mac", "src_mac", "packet")

    def __init__(self, dst_mac, src_mac, packet):
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.packet = packet

    @property
    def wire_size(self):
        return ETHERNET_OVERHEAD + self.packet.wire_size

    def __repr__(self):
        return f"EthernetFrame({self.src_mac} -> {self.dst_mac} {self.packet!r})"


class EthernetInterface:
    """One Ethernet port.

    ``owner`` must implement ``handle_frame(frame, interface)``; it is
    invoked for every frame arriving from the link.  Sending is
    store-and-forward: frames queue in ``egress`` and are clocked out at
    link speed.
    """

    def __init__(self, sim, owner, mac, queue=None, name=""):
        from repro.net.queues import DropTailQueue

        self._sim = sim
        self.owner = owner
        self.mac = mac
        self.link = None
        self.egress = queue if queue is not None else DropTailQueue()
        self.name = name
        self._busy_until = 0.0  # the transmitter is free from this time on
        self._wake = None  # pending wake while frames wait behind it
        self._taps = []
        self.frames_sent = 0
        self.frames_received = 0

    def attach_link(self, link):
        """Connect this interface to a link end."""
        if self.link is not None:
            raise RuntimeError(f"interface {self.name or self.mac} already attached")
        self.link = link
        link.attach(self)

    def add_tap(self, callback):
        """Register ``callback(frame, direction)``; direction is 'tx' or 'rx'."""
        self._taps.append(callback)

    def send(self, frame):
        """Queue a frame for transmission; returns ``False`` if tail-dropped.

        An idle transmitter clocks the frame out at once and only records
        when it frees up; a wake event is scheduled only while frames
        wait behind a busy transmitter, so an uncontended port fires no
        completion events.
        """
        if self.link is None:
            raise RuntimeError(f"interface {self.name or self.mac} has no link")
        if not self.egress.enqueue(frame):
            return False
        if self._wake is None:
            if self._sim.now >= self._busy_until:
                self._transmit()
            else:
                self._wake = self._sim.at(self._busy_until, self._on_wake,
                                          label=f"eth-tx:{self.name}")
        return True

    def _transmit(self):
        """Clock the head-of-line frame onto the link.

        Schedules the wake for the next frame when any is waiting.
        """
        frame = self.egress.dequeue()
        for tap in self._taps:
            tap(frame, "tx")
        tx_time = self.link.transmit(self, frame)
        self.frames_sent += 1
        self._busy_until = self._sim.now + tx_time
        if self._wake is None and not self.egress.is_empty:
            self._wake = self._sim.at(self._busy_until, self._on_wake,
                                      label=f"eth-tx:{self.name}")

    def _on_wake(self):
        """The transmitter freed up with frames waiting: send the next."""
        self._wake = None
        self._transmit()

    def receive_from_link(self, frame):
        """Link delivery entry point."""
        self.frames_received += 1
        for tap in self._taps:
            tap(frame, "rx")
        self.owner.handle_frame(frame, self)

    def __repr__(self):
        return f"<EthernetInterface {self.name or ''} mac={self.mac}>"
