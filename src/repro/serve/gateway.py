"""The live QC gateway: the simulator's scheduling core on real traffic.

:class:`QCGateway` drives the *same* :class:`~repro.scheduling.core.
SchedulerCore` instances the DES drives — bound to a
:class:`~repro.serve.clock.MonotonicClock` instead of simulated time —
and moves every transaction through the same
:class:`~repro.db.lifecycle.Lifecycle` as the DES server: the same
ledger calls, commit pricing and probe events (timestamps are
gateway-clock milliseconds), with an
:class:`~repro.sim.invariants.InvariantMonitor` always armed and
verified at :meth:`QCGateway.stop`.  What stays here is I/O: futures,
bounded ingress, deadlines, the sweeper, and a single asyncio executor
task that owns the CPU — it pops the scheduler's choice and "runs" it by
sleeping its service time in bounded slices (the DES executor's slicing
discipline).  Only that task touches the database, so the live path
needs no 2PL lock manager.

The overload-robustness layer wraps that core:

* **bounded ingress + backpressure** — at most ``max_pending`` queued
  transactions; beyond that, submissions get an immediate
  ``backpressure`` reply with a ``retry_after_ms`` hint instead of an
  unbounded queue (the client's retry policy decides what to do);
* **admission reuse** — any :class:`~repro.db.admission.AdmissionPolicy`
  (notably :class:`~repro.db.admission.OverloadShedding` and
  :class:`~repro.db.admission.BrownoutAdmission`) plugs in unchanged:
  the gateway exposes the ``.scheduler`` / ``.ledger`` surface those
  policies read;
* **deadlines + cooperative cancellation** — each query gets an
  absolute deadline ``min(lifetime, arrival + deadline_factor·rtmax)``;
  expired work is cancelled at pop time and by a periodic sweep, so a
  query that can no longer earn QoS profit never wastes CPU;
* **graceful degradation** — brownout answers are served from current
  replica state at reduced service cost with the QoD half of the
  contract honestly forfeited at commit (``degraded`` → ``qod = 0``).

Every submission resolves to exactly one terminal
:class:`GatewayReply` outcome — ``completed``, ``shed``,
``backpressure``, ``timed_out``, ``superseded``, or ``unfinished`` (at
shutdown, or once a gateway task died) — a conservation law the
property tests pin down.
"""

from __future__ import annotations

import asyncio
import dataclasses
import typing

from repro.db.admission import AdmissionPolicy
from repro.db.database import Database
from repro.db.lifecycle import Lifecycle
from repro.db.transactions import Query, Transaction, TxnStatus, Update
from repro.metrics.profit import ProfitLedger
from repro.qc.contracts import QualityContract
from repro.scheduling.core import SchedulerCore
from repro.sim.invariants import InvariantMonitor
from repro.sim.rng import StreamRegistry

from .clock import MonotonicClock

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.hooks import TelemetrySession

#: Terminal outcomes a submission can resolve to.
OUTCOMES = ("completed", "shed", "backpressure", "timed_out",
            "superseded", "unfinished")


@dataclasses.dataclass
class GatewayReply:
    """The terminal answer for one submitted request."""

    outcome: str
    txn_id: int
    response_time_ms: float | None = None
    qos_profit: float = 0.0
    qod_profit: float = 0.0
    staleness: float | None = None
    degraded: bool = False
    values: dict[str, float] | None = None
    #: Backpressure hint: how long the client should wait before retrying.
    retry_after_ms: float | None = None


@dataclasses.dataclass
class GatewayConfig:
    """Tuning knobs for the serving path (times in milliseconds)."""

    #: Bounded ingress, per class: a full query queue must not block
    #: updates (freshness) and a full update queue must not block
    #: queries (responsiveness), so each class gets its own bound.
    max_pending_queries: int = 256
    max_pending_updates: int = 1024
    #: Longest uninterrupted CPU slice (the cooperative quantum bound).
    slice_ms: float = 5.0
    #: Query deadline = arrival + deadline_factor × rtmax (capped by the
    #: QC lifetime); None disables rtmax-derived deadlines (lifetime
    #: still applies).
    deadline_factor: float | None = 4.0
    #: Cooperatively cancel expired queries (False: no-defenses baseline
    #: — expired work still burns CPU and commits worthless answers).
    drop_expired: bool = True
    #: Period of the expired-work sweep over the waiting queries.
    sweep_interval_ms: float = 25.0
    #: Backpressure hint handed to clients with a ``backpressure`` reply.
    retry_after_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.max_pending_queries <= 0:
            raise ValueError(f"max_pending_queries must be positive, "
                             f"got {self.max_pending_queries}")
        if self.max_pending_updates <= 0:
            raise ValueError(f"max_pending_updates must be positive, "
                             f"got {self.max_pending_updates}")
        if self.slice_ms <= 0:
            raise ValueError(
                f"slice_ms must be positive, got {self.slice_ms}")
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ValueError(
                f"deadline_factor must be positive, got "
                f"{self.deadline_factor}")
        if self.sweep_interval_ms <= 0:
            raise ValueError(
                f"sweep_interval_ms must be positive, got "
                f"{self.sweep_interval_ms}")


class GatewayFailed(RuntimeError):
    """A gateway task died; ``__cause__`` is the task's exception."""


class QCGateway:
    """A live asyncio database server around one scheduling core."""

    def __init__(self, scheduler: SchedulerCore,
                 config: GatewayConfig | None = None,
                 admission: AdmissionPolicy | None = None,
                 master_seed: int = 0,
                 telemetry: "TelemetrySession | None" = None) -> None:
        self.config = config if config is not None else GatewayConfig()
        #: The decision core — the same instance type the DES drives.
        self.scheduler = scheduler
        self.admission = admission
        self.database = Database()
        self.ledger = ProfitLedger()
        self.streams = StreamRegistry(master_seed)
        self.clock = MonotonicClock()
        self.telemetry = telemetry
        #: Conservation laws, always armed on the gateway's own clock.
        self.monitor = InvariantMonitor(lambda: self.clock.now)
        self.lifecycle = Lifecycle(self.ledger, scheduler,
                                   database=self.database,
                                   monitor=self.monitor)
        #: The exception a gateway task died with (None while healthy).
        self.error: BaseException | None = None
        self._failed = asyncio.Event()

        self._running = False
        self._tasks: list[asyncio.Task[None]] = []
        self._work = asyncio.Event()
        self._running_txn: Transaction | None = None
        self._preempted_by: Transaction | None = None
        #: txn_id -> (txn, future, absolute deadline in gateway-clock
        #: ms) for every in-flight submission.
        self._waiters: dict[int, tuple[
            Transaction, asyncio.Future[GatewayReply], float]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the core to the live clock and start serving."""
        if self._running:
            return
        self._running = True
        if self.telemetry is not None:
            self.lifecycle.probe = self.telemetry.server_probe("gateway")
            self.scheduler.attach_telemetry(
                self.telemetry.scheduler_probe("gateway"))
        self.scheduler.bind_clock(self.clock, self.streams)
        self.clock.start()
        loop = asyncio.get_running_loop()
        self._tasks = [loop.create_task(self._executor(), name="gw-executor"),
                       loop.create_task(self._sweeper(), name="gw-sweeper")]
        for task in self._tasks:
            task.add_done_callback(self._on_task_done)

    def _on_task_done(self, task: "asyncio.Task[None]") -> None:
        """A task that dies takes the gateway down: every waiter
        resolves ``unfinished`` and :meth:`failed` returns."""
        if task.cancelled() or task.exception() is None:
            return
        if self.error is None:
            self.error = task.exception()
        self._running = False
        self._work.set()
        for txn_id in list(self._waiters):
            self._resolve(txn_id, GatewayReply("unfinished", txn_id))
        self._failed.set()

    async def failed(self) -> BaseException:
        """Wait until a gateway task dies; returns its exception."""
        await self._failed.wait()
        return typing.cast(BaseException, self.error)

    async def stop(self) -> None:
        """Stop serving; unresolved submissions resolve ``unfinished``.

        Then the monitor verifies its conservation laws.  Raises
        :class:`GatewayFailed` if a gateway task died.
        """
        self._running = False
        self._work.set()
        await self.clock.stop()
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        now = self.clock.now
        for txn_id in list(self._waiters):
            self.lifecycle.unfinish(self._waiters[txn_id][0], now)
            self._resolve(txn_id, GatewayReply("unfinished", txn_id))
        if self.error is not None:
            raise GatewayFailed(
                f"gateway task failed: {self.error!r}") from self.error
        self.monitor.verify_complete(self.ledger.total_gained)

    async def drain(self, timeout_ms: float = 10_000.0) -> bool:
        """Wait until every in-flight submission resolved (True) or the
        timeout elapsed (False)."""
        deadline = self.clock.now + timeout_ms
        while self._waiters:
            if self.clock.now >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def submit_query(self, items: typing.Sequence[str],
                     qc: QualityContract,
                     exec_ms: float) -> "asyncio.Future[GatewayReply]":
        """Submit a query; the future resolves to its terminal reply."""
        now = self.clock.now
        query = Query(now, exec_ms, items, qc)
        if self.error is not None:
            return _answered(GatewayReply("unfinished", query.txn_id))
        if (self.scheduler.pending_queries()
                >= self.config.max_pending_queries):
            self.ledger.counters.increment("queries_backpressured")
            return _answered(GatewayReply(
                "backpressure", query.txn_id,
                retry_after_ms=self.config.retry_after_ms))
        if not self.lifecycle.admit(query, now, self.admission, self):
            return _answered(GatewayReply(
                "shed", query.txn_id,
                retry_after_ms=self.config.retry_after_ms))
        deadline = query.lifetime_deadline
        factor, rt_max = self.config.deadline_factor, query.qc.rt_max
        if factor is not None and 0 < rt_max < float("inf"):
            deadline = min(deadline, query.arrival_time + factor * rt_max)
        return self._wait_for(query, deadline)

    def submit_update(self, item: str, value: float,
                      exec_ms: float) -> "asyncio.Future[GatewayReply]":
        """Submit a blind update; resolves ``completed`` when applied or
        ``superseded`` when a newer update for the item invalidates it."""
        now = self.clock.now
        update = Update(now, exec_ms, item, value)
        if self.error is not None:
            return _answered(GatewayReply("unfinished", update.txn_id))
        if (self.scheduler.pending_updates()
                >= self.config.max_pending_updates):
            self.ledger.counters.increment("updates_backpressured")
            return _answered(GatewayReply(
                "backpressure", update.txn_id,
                retry_after_ms=self.config.retry_after_ms))
        superseded = self.lifecycle.register(update, now)
        if superseded is not None:
            self._resolve(superseded.txn_id,
                          GatewayReply("superseded", superseded.txn_id))
        self.lifecycle.enqueue(update, now)
        return self._wait_for(update)

    def _wait_for(self, txn: Transaction, deadline: float = float("inf"),
                  ) -> "asyncio.Future[GatewayReply]":
        """Track a queued ``txn`` until it resolves; wake the CPU (or
        flag a preemption of the running transaction)."""
        future: asyncio.Future[GatewayReply] = (
            asyncio.get_running_loop().create_future())
        self._waiters[txn.txn_id] = (txn, future, deadline)
        self._work.set()
        running = self._running_txn
        if running is not None and self.scheduler.preempts(running, txn):
            self._preempted_by = txn
        return future

    # ------------------------------------------------------------------
    # The executor task (the single CPU)
    # ------------------------------------------------------------------
    async def _executor(self) -> None:
        scheduler, clock = self.scheduler, self.clock
        while self._running:
            txn = scheduler.next_transaction(clock.now)
            if txn is None:
                self._work.clear()
                if not scheduler.has_work():
                    await self._work.wait()
                else:  # pragma: no cover - scheduler declined to pick
                    await asyncio.sleep(0)
                continue
            if not txn.alive:
                continue  # lazily-deleted entry (e.g. superseded update)
            now = clock.now
            if (self.config.drop_expired and txn.is_query
                    and now >= self._waiters[txn.txn_id][2]):
                self._drop_expired(typing.cast(Query, txn), now)
                continue
            await self._run(txn)

    def _drop_expired(self, query: Query, now: float) -> None:
        self.lifecycle.drop(query, now)
        self._resolve(query.txn_id,
                      GatewayReply("timed_out", query.txn_id))

    async def _run(self, txn: Transaction) -> None:
        """Run ``txn`` in cooperative slices until commit, preemption, a
        zero quantum, or mid-run supersession.

        Each slice charges the *requested* duration against
        ``txn.remaining`` — if the event loop lags, the work still took
        its nominal service time and the lag shows up (honestly) in the
        response time, exactly like a busy real server.
        """
        scheduler, clock, config = self.scheduler, self.clock, self.config
        probe = self.lifecycle.probe
        self.lifecycle.start(txn, clock.now)
        self._running_txn = txn
        self._preempted_by = None
        try:
            while True:
                now = clock.now
                quantum = scheduler.quantum(txn, now)
                if quantum <= 0.0:
                    break
                slice_ms = min(txn.remaining, quantum, config.slice_ms)
                slice_start = now
                await asyncio.sleep(slice_ms / 1000.0)
                if not txn.alive:
                    return  # superseded mid-run; already resolved
                if probe is not None:
                    probe.cpu_slice(slice_start, clock.now, txn)
                txn.remaining -= slice_ms
                if txn.remaining <= 1e-9:
                    self._commit(txn)
                    return
                preemptor = self._preempted_by
                if preemptor is not None:
                    self._preempted_by = None
                    if probe is not None:
                        probe.preempt(clock.now, txn, preemptor)
                    break
            # Off the CPU with work left (zero quantum or preempted).
            txn.status = TxnStatus.QUEUED
            txn.preemptions += 1
            scheduler.requeue(txn)
        finally:
            self._running_txn = None

    def _commit(self, txn: Transaction) -> None:
        self.lifecycle.commit(txn, self.clock.now)
        if txn.is_query:
            query = typing.cast(Query, txn)
            reply = GatewayReply(
                "completed", query.txn_id,
                response_time_ms=query.response_time(),
                qos_profit=query.qos_profit, qod_profit=query.qod_profit,
                staleness=query.staleness, degraded=query.degraded,
                values={key: self.database.read(key)
                        for key in query.items})
        else:
            reply = GatewayReply("completed", txn.txn_id,
                                 response_time_ms=txn.response_time())
        self._resolve(txn.txn_id, reply)

    # ------------------------------------------------------------------
    # The deadline sweeper task
    # ------------------------------------------------------------------
    async def _sweeper(self) -> None:
        """Periodically cancel waiting queries that are past deadline.

        The pop-time check alone is enough for correctness, but under a
        long backlog an expired query would sit queued (and hold its
        client's future open) until the scheduler finally reached it;
        the sweep resolves it as soon as its deadline passes.  The
        status flip to ``DROPPED_LIFETIME`` is what evicts it from the
        lazy-deletion heap.
        """
        interval_s = self.config.sweep_interval_ms / 1000.0
        while self._running:
            await asyncio.sleep(interval_s)
            if not self.config.drop_expired:
                continue
            now = self.clock.now
            expired = [typing.cast(Query, txn)
                       for txn, _, deadline in self._waiters.values()
                       if txn.is_query and txn.status is TxnStatus.QUEUED
                       and now >= deadline]
            for query in expired:
                self._drop_expired(query, now)

    # ------------------------------------------------------------------
    def _resolve(self, txn_id: int, reply: GatewayReply) -> None:
        entry = self._waiters.pop(txn_id, None)
        if entry is None:
            return
        future = entry[1]
        if not future.done():
            future.set_result(reply)


def _answered(reply: GatewayReply) -> "asyncio.Future[GatewayReply]":
    """A future already resolved to ``reply`` (ingress bounces)."""
    future: asyncio.Future[GatewayReply] = (
        asyncio.get_running_loop().create_future())
    future.set_result(reply)
    return future
