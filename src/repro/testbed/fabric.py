"""The campaign runner: deterministic shard planning plus work stealing.

Every :meth:`~repro.testbed.campaign.Campaign.run` executes through
:class:`FabricRunner`; serial, worker-pool, and sharded runs differ
only in whether a transport carries the cells out of process:

* **Planner** — :func:`plan_shards` assigns every cell to
  ``shard_index(spec.fingerprint(), n)``; the assignment is a pure
  function of (spec, shard count), so two hosts planning the same grid
  agree without talking to each other.
* **Transport seam** — a shard travels as one JSON-ready task payload
  (``{"shard": n, "collect_metrics": ..., "policy": ..., "specs":
  [...]}``) and comes back as a list of JSON-ready cell records.
  :class:`InProcessTransport` and :class:`MultiprocessTransport`
  implement the seam today; a socket transport for remote hosts only
  has to move the same two payloads.
* **Work stealing** — :class:`FabricRunner` dispatches the planned
  shards through the transport and *steals* any shard that comes back
  failed (worker killed, pool broken), re-running its cells in-process
  under the same fault policy.  A stolen shard's cells produce the
  same results they would have produced remotely, so stealing never
  perturbs the output.  Without a transport the whole pending grid is
  one such in-process shard, run in grid order: the serial runner.

Before anything executes, the runner consults the checkpoint journal
(resume), then the persistent :class:`~repro.testbed.store.ResultStore`
cache; only the remaining cells run.  A cell's outcome depends only on
its spec, so serial == worker-pool == sharded == resumed == cache-warm
runs emit bit-identical results, merged metrics, and reports (pinned
by ``tests/test_fabric.py``).  See ``docs/FABRIC.md``.
"""

import concurrent.futures
import multiprocessing
import os

from repro.obs import names as _names
from repro.obs.metrics import MetricsRegistry
from repro.testbed import campaign as _campaign
from repro.testbed import resilience as _resilience
from repro.testbed.scenario import ScenarioSpec
from repro.testbed.store import ResultStore

#: Hex digits of the fingerprint used as the shard key.  64 bits of a
#: SHA-256 is plenty for balance and keeps the arithmetic exact in
#: every JSON-adjacent runtime a future socket transport might talk to.
_KEY_HEX_DIGITS = 16

#: Shards planned per pool worker for ``Campaign.run(workers=N)``:
#: enough that a slow cell does not serialise the tail of the run, few
#: enough to amortise task dispatch.
SHARDS_PER_WORKER = 4


def shard_index(fingerprint, shard_count):
    """The home shard for a content address: stable, uniform, portable."""
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count!r}")
    return int(fingerprint[:_KEY_HEX_DIGITS], 16) % shard_count


class ShardPlan:
    """A deterministic partition of grid cells into shards.

    ``shards`` is a tuple of per-shard cell tuples (each cell a
    ``(grid_index, spec)`` pair, in grid order within the shard);
    ``assignments`` maps each cell's fingerprint to its shard id.
    """

    __slots__ = ("shard_count", "shards", "assignments")

    def __init__(self, shard_count, shards, assignments):
        self.shard_count = shard_count
        self.shards = tuple(tuple(shard) for shard in shards)
        self.assignments = dict(assignments)

    def cells(self):
        """Every planned cell, shard-major (shard 0 first)."""
        for shard in self.shards:
            yield from shard

    def __repr__(self):
        sizes = [len(shard) for shard in self.shards]
        return f"<ShardPlan shards={sizes}>"


def plan_shards(cells, shard_count, fingerprints=None):
    """Partition ``cells`` (``(index, spec)`` pairs) by content address.

    ``fingerprints`` optionally supplies each cell's precomputed
    fingerprint (same order as ``cells``) so callers that already paid
    for the hashes do not pay twice.  Every cell lands in exactly one
    shard — the union of the planned shards is an exact partition of
    the input (a Hypothesis property pins this for all grids and shard
    counts).
    """
    if fingerprints is None:
        fingerprints = [spec.fingerprint() for _, spec in cells]
    shards = [[] for _ in range(shard_count)]
    assignments = {}
    for (index, spec), fingerprint in zip(cells, fingerprints):
        home = shard_index(fingerprint, shard_count)
        shards[home].append((index, spec))
        assignments[fingerprint] = home
    return ShardPlan(shard_count, shards, assignments)


# -- the transport seam -------------------------------------------------------


def default_worker_count():
    """One worker per CPU (at least one)."""
    return os.cpu_count() or 1


def pool_context(start_method=None):
    """The preferred multiprocessing context, or ``None`` if unusable.

    ``fork`` when the platform offers it (cheapest, and fork workers
    inherit chaos-test monkeypatching), otherwise the platform default;
    an explicitly requested method that the platform lacks yields
    ``None`` so callers fall back to in-process execution.
    """
    try:
        methods = multiprocessing.get_all_start_methods()
        if start_method is not None:
            if start_method not in methods:
                return None
            return multiprocessing.get_context(start_method)
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        return None


def _run_cell(spec, policy, collect_metrics):
    """One cell under the optional fault policy: ``(result, stats)``.

    Without a policy a raising cell propagates (failing the sweep, the
    historical contract).  ``run_cell`` is resolved through the
    campaign module at call time so fork-started workers observe
    chaos-test monkeypatching.
    """
    if policy is None:
        result = _campaign.run_cell(spec, collect_metrics=collect_metrics)
        return result, {"attempts": 1, "timeouts": 0}
    return _resilience.run_cell_with_policy(
        spec, policy, collect_metrics=collect_metrics)


def run_shard_payload(task):
    """Execute one shard task payload; returns its cell record list.

    The executable half of the wire protocol and the only worker body:
    ``task`` is the JSON-ready dict a transport moves to a worker, the
    return value the JSON-ready record list it moves back, one
    ``{"cell": {...}, "attempts": n, "timeouts": m}`` per spec.
    Module-level so it pickles under every start method.
    """
    policy = task["policy"]
    if policy is not None:
        policy = _resilience.FaultPolicy.from_dict(policy)
    records = []
    for payload in task["specs"]:
        result, stats = _run_cell(ScenarioSpec.from_dict(payload), policy,
                                  task["collect_metrics"])
        records.append({"cell": result.to_dict(), **stats})
    return records


class ShardTransport:
    """Where shard tasks execute: the host/process seam.

    ``dispatch(tasks)`` consumes a list of shard task payloads and
    yields one ``(shard_id, records, error)`` triple per task, *in task
    order* (deterministic merging is the runner's job, ordered delivery
    is the transport's).  ``records`` is the shard's cell record list
    on success; on failure it is ``None`` and ``error`` carries the
    exception, which tells the runner to steal the shard.  Implementing
    these semantics over a socket — ship the task dict, read back the
    record list — is all a remote-host transport needs.
    """

    def dispatch(self, tasks):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}>"


class InProcessTransport(ShardTransport):
    """Run every shard in the calling process (no pool, no pickling)."""

    def dispatch(self, tasks):
        for task in tasks:
            try:
                yield task["shard"], run_shard_payload(task), None
            except Exception as exc:
                yield task["shard"], None, exc


class MultiprocessTransport(ShardTransport):
    """One process-pool future per shard; a broken pool fails per-shard.

    Worker processes are long-lived and reused across shards; the pool
    has ``workers`` processes (default one per CPU), never more than
    there are shards.  A shard whose worker dies (or whose pool cannot
    deliver) is reported as a per-shard failure rather than failing the
    dispatch, so the runner can steal exactly the affected shards; if
    the pool cannot be created at all (e.g. an unavailable
    ``start_method``), every task runs in-process instead.
    """

    def __init__(self, workers=None, start_method=None):
        self.workers = workers
        self.start_method = start_method

    def dispatch(self, tasks):
        if not tasks:
            return
        context = pool_context(self.start_method)
        workers = self.workers or default_worker_count()
        workers = max(1, min(workers, len(tasks)))
        if context is None:
            yield from InProcessTransport().dispatch(tasks)
            return
        try:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=context)
        except (OSError, ValueError):  # pragma: no cover - exotic platforms
            yield from InProcessTransport().dispatch(tasks)
            return
        with executor:
            futures = [executor.submit(run_shard_payload, task)
                       for task in tasks]
            for task, future in zip(tasks, futures):
                try:
                    yield task["shard"], future.result(), None
                except Exception as exc:  # BrokenProcessPool included
                    yield task["shard"], None, exc


# -- the runner ---------------------------------------------------------------


class FabricRunner:
    """Execute a :class:`~repro.testbed.campaign.Campaign` grid.

    Parameters
    ----------
    campaign:
        The campaign whose grid should be executed.  Its ``results``,
        ``quarantine`` and ``run_metrics`` are replaced by :meth:`run`.
    shard_count:
        How many fingerprint-keyed shards to plan for the transport.
        Balance follows the fingerprint hash, so shards are near-equal
        for any real grid.
    transport:
        A :class:`ShardTransport`, or ``None`` to run every pending
        cell in-process, in grid order (the serial runner).
    """

    def __init__(self, campaign, shard_count=1, transport=None):
        if shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1, got {shard_count!r}")
        self.campaign = campaign
        self.shard_count = shard_count
        self.transport = transport
        #: The :class:`ShardPlan` of the most recent transport run
        #: (pending cells only — cached cells are never planned).
        self.plan = None
        #: Runner counters for the most recent run (``campaign.*``).
        self.metrics = MetricsRegistry(enabled=True)

    def _count(self, name, amount=1):
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc(name, amount)

    def _prepare(self, cells, cache):
        """The cache pre-pass: journal first, then the result store.

        ``cache`` is the loaded checkpoint journal (``{}`` unless
        resuming).  A cached cell is installed into its slot at once —
        counted as ``campaign.cells_resumed`` or ``campaign.cache_hits``,
        with ``progress`` fired — and only the remainder comes back as
        pending ``(index, spec)`` pairs.
        """
        store = self._store
        pending = []
        for index, spec in enumerate(cells):
            fingerprint = self._fingerprints[index]
            payload = cache.get(fingerprint)
            if payload is not None:
                self._count(_names.CAMPAIGN_CELLS_RESUMED)
            elif store is not None:
                payload = store.get(fingerprint)
                if payload is not None:
                    self._count(_names.CAMPAIGN_CACHE_HITS)
            if payload is None:
                pending.append((index, spec))
                continue
            self._slots[index] = _resilience.result_from_dict(payload)
            if self._progress is not None:
                self._progress(spec)
        if store is not None:
            self._count(_names.CAMPAIGN_CACHE_MISSES, len(pending))
        return pending

    def _merge_cell(self, index, spec, result, stats):
        """Install one finished cell: slot, counters, journal, store."""
        self._slots[index] = result
        self._count(_names.CAMPAIGN_RETRIES, stats["attempts"] - 1)
        self._count(_names.CAMPAIGN_CELL_TIMEOUTS, stats["timeouts"])
        if result.failure:
            self._count(_names.CAMPAIGN_CELLS_QUARANTINED)
        else:
            self._count(_names.CAMPAIGN_CELLS_RUN)
            fingerprint = self._fingerprints[index]
            if self._journal is not None:
                self._journal.append(fingerprint, result)
                self._count(_names.CAMPAIGN_CHECKPOINT_WRITES)
            if self._store is not None:
                self._store.put(fingerprint, result)
                self._count(_names.CAMPAIGN_STORE_WRITES)
        if self._progress is not None:
            self._progress(spec)

    def _run_local(self, cells):
        """Run ``(index, spec)`` cells in-process, in order, merging each.

        The serial runner and the steal path for a failed shard: cells
        are deterministic, so a stolen shard reproduces exactly what
        its lost worker would have returned.
        """
        for index, spec in cells:
            result, stats = _run_cell(spec, self._policy,
                                      self._collect_metrics)
            self._merge_cell(index, spec, result, stats)

    def _run_sharded(self, pending):
        """Plan ``pending`` into shards, dispatch, steal, merge."""
        plan = plan_shards(pending, self.shard_count,
                           fingerprints=[self._fingerprints[index]
                                         for index, _ in pending])
        self.plan = plan
        shards = [(sid, shard) for sid, shard in enumerate(plan.shards)
                  if shard]
        self._count(_names.CAMPAIGN_SHARDS_PLANNED, len(shards))
        policy = None if self._policy is None else self._policy.to_dict()
        tasks = [{"shard": sid, "collect_metrics": self._collect_metrics,
                  "policy": policy,
                  "specs": [spec.to_dict() for _, spec in shard]}
                 for sid, shard in shards]
        for sid, records, error in self.transport.dispatch(tasks):
            shard = plan.shards[sid]
            if error is not None:
                self._count(_names.CAMPAIGN_SHARDS_STOLEN)
                self._run_local(shard)
                continue
            for (index, spec), record in zip(shard, records):
                result = _resilience.result_from_dict(record["cell"])
                self._merge_cell(index, spec, result, record)

    def run(self, progress=None, collect_metrics=False, checkpoint=None,
            resume=False, fault_policy=None, store=None):
        """Execute the grid and install the merged results.

        ``progress(spec)`` fires exactly once per cell, as its result is
        installed: up front for cells served by the journal or store,
        then in grid order (serial) or shard order (transport) for the
        rest.  ``checkpoint`` (a path) journals every successful cell;
        ``resume=True`` first re-emits the cells already journaled
        there.  ``store`` (a path or
        :class:`~repro.testbed.store.ResultStore`) serves cells any
        earlier run computed and records fresh ones.  ``fault_policy``
        applies a per-cell timeout/retry budget; cells that exhaust it
        land on ``campaign.quarantine``.  Without a policy, a raising
        cell fails the run.

        Returns the successful result list (also assigned to
        ``campaign.results``, in grid order); ``campaign.run_metrics``
        receives this run's counter snapshot.
        """
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        campaign = self.campaign
        cells = list(campaign.cells())
        self.metrics = MetricsRegistry(enabled=True)
        self.plan = None
        # Per-run state shared by the pre-pass, the merge and the loops.
        self._slots = [None] * len(cells)
        self._fingerprints = [spec.fingerprint() for spec in cells]
        self._progress = progress
        self._policy = fault_policy
        self._collect_metrics = collect_metrics
        # The store opens its writer segment lazily on first put, so a
        # fully warm run leaves no empty segment behind.
        self._store = ResultStore.ensure(store)
        journal = self._journal = (
            None if checkpoint is None
            else _resilience.CheckpointJournal(checkpoint))
        pending = self._prepare(cells, journal.load() if resume else {})
        try:
            if journal is not None:
                journal.open()
            if self.transport is None:
                self._run_local(pending)
            else:
                self._run_sharded(pending)
        finally:
            if journal is not None:
                journal.close()
            if self._store is not None:
                self._store.close()
        slots = self._slots
        campaign.results = [cell for cell in slots if not cell.failure]
        campaign.quarantine = [cell for cell in slots if cell.failure]
        campaign.run_metrics = self.metrics.snapshot()
        return campaign.results
