"""Shared machinery for the measurement tools.

Every tool produces :class:`RttSample` objects and reports user-level
timestamps into a :class:`~repro.core.measurement.ProbeCollector`, so the
multi-layer overhead analysis works identically across tools.
"""


def run_until_complete(sim, start, deadline=None, name="tool"):
    """Drive ``sim`` until the measurement ``start`` launches completes.

    ``start(on_complete)`` begins an asynchronous measurement that calls
    ``on_complete(result)`` once.  That call stops the simulator, so the
    measurement runs through the fused :meth:`Simulator.run` loop and
    returns with the clock at the completing event.  Raises
    ``RuntimeError`` when nothing is left to fire (stalled) or when the
    measurement is still running after the first event past
    ``deadline``.
    """
    done = []

    def complete(result):
        done.append(result)
        sim.stop()

    start(complete)
    while not done:
        if deadline is not None and sim.now > deadline:
            raise RuntimeError(f"{name} did not finish by {deadline}s")
        following = sim.peek()
        if following is None:
            raise RuntimeError(f"{name} stalled: event heap empty")
        if deadline is None or following <= deadline:
            sim.run(until=deadline)
        else:
            # The deadline is checked before each event, so the first
            # event past it still fires and may complete the run.
            sim.step()


class RttSample:
    """One user-level RTT measurement."""

    __slots__ = ("probe_id", "sent_at", "rtt")

    def __init__(self, probe_id, sent_at, rtt):
        self.probe_id = probe_id
        self.sent_at = sent_at
        self.rtt = rtt  # seconds, or None when the probe was lost

    @property
    def lost(self):
        return self.rtt is None

    def __repr__(self):
        rtt = "lost" if self.lost else f"{self.rtt * 1e3:.2f}ms"
        return f"<RttSample {self.probe_id} {rtt}>"


class MeasurementTool:
    """Base class: lifecycle, runtime override, and synchronous driving."""

    #: Runtime the tool's user space executes in ('native' or 'dalvik').
    runtime = "native"

    def __init__(self, phone, collector, target_ip, name=""):
        self.phone = phone
        self.sim = phone.sim
        self.collector = collector
        self.target_ip = target_ip
        self.name = name or type(self).__name__
        self.samples = []
        self.running = False
        self._on_complete = None
        self._saved_runtime = None

    # -- lifecycle --------------------------------------------------------

    def start(self, count, on_complete=None):
        """Begin a measurement of ``count`` probes (asynchronous)."""
        if self.running:
            raise RuntimeError(f"{self.name} already running")
        self.running = True
        self.samples = []
        self._on_complete = on_complete
        self._saved_runtime = self.phone.runtime
        self.phone.runtime = self.runtime
        self._begin(count)

    def run_sync(self, count, deadline=None):
        """Start and drive the simulator until the tool completes.

        Convenience for experiments and benchmarks; returns the samples.
        See :func:`run_until_complete` for the stall and deadline errors.
        """
        run_until_complete(
            self.sim, lambda done: self.start(count, on_complete=done),
            deadline=deadline, name=self.name)
        return self.samples

    def _begin(self, count):
        raise NotImplementedError

    def _finish(self):
        self.running = False
        self.phone.runtime = self._saved_runtime
        self._cleanup()
        if self._on_complete is not None:
            self._on_complete(self.samples)

    def _cleanup(self):
        """Release sockets/handles; overridden as needed."""

    # -- results ------------------------------------------------------------

    def rtts(self):
        """Measured RTTs (seconds), losses excluded."""
        return [sample.rtt for sample in self.samples if not sample.lost]

    def loss_count(self):
        return sum(1 for sample in self.samples if sample.lost)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} samples={len(self.samples)}>"
