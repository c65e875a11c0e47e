"""The transaction lifecycle: the one place a transaction meets the ledger.

The paper prices each query once, at commit: QoS from its response time
plus QoD from its staleness (§2.1).  :class:`Lifecycle` owns that rule
and every transition around it for the DES
:class:`~repro.db.server.DatabaseServer`, the live
:class:`~repro.serve.gateway.QCGateway`, the shard planner's fan-out
parents and the replicated portal's crash losses; callers pass ``now``.
A terminal method runs metadata (``finish_time``, staleness, profit),
the status flip (so ``on_terminal`` observers see a complete record),
the ledger hook (looked up per call), ``notify_query_finished``, the
invariant monitor, the telemetry probe, then ``query_outcome_hook``.
"""

from __future__ import annotations

import typing

from .transactions import Query, Transaction, TxnStatus, Update

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.profit import ProfitLedger
    from repro.scheduling.core import SchedulerCore
    from repro.sim.invariants import InvariantMonitor
    from repro.telemetry.hooks import ServerProbe

    from .admission import AdmissionPolicy
    from .database import Database
    from .wal import WriteAheadLog


def price(query: Query) -> tuple[float, float]:
    """A committed query's ``(qos, qod)``: a ``degraded`` answer
    (brownout, partial fan-out merge) forfeits QoD; a ``shadow_priced``
    one earns nothing (its coordinator prices the real contract)."""
    qos, qod = query.qc.evaluate(query.response_time(), query.staleness)
    if query.degraded:
        qod = 0.0
    if query.shadow_priced:
        qos = qod = 0.0
    return qos, qod


class Lifecycle:
    """Moves transactions through their states and into one ledger.

    ``scheduler`` is None for the shard planner, whose parents never
    queue.  ``database`` registers and applies updates (journalled to
    ``wal``) and measures staleness in ``qod_metric``.  ``monitor``,
    ``probe`` and ``query_outcome_hook(query, ok)`` are observers.
    """

    __slots__ = ("ledger", "scheduler", "database", "wal", "qod_metric",
                 "monitor", "probe", "query_outcome_hook")

    def __init__(self, ledger: "ProfitLedger",
                 scheduler: "SchedulerCore | None" = None, *,
                 database: "Database | None" = None,
                 wal: "WriteAheadLog | None" = None,
                 qod_metric: str = "uu",
                 monitor: "InvariantMonitor | None" = None,
                 probe: "ServerProbe | None" = None) -> None:
        self.ledger = ledger
        self.scheduler = scheduler
        self.database = database
        self.wal = wal
        self.qod_metric = qod_metric
        self.monitor = monitor
        self.probe = probe
        self.query_outcome_hook: (
            typing.Callable[[Query, bool], None] | None) = None

    def _observe(self, monitor: "InvariantMonitor", kind: str,
                 txn: Transaction, **data: typing.Any) -> None:
        """Feed the monitor (callers test it for None first)."""
        scheduler = self.scheduler
        if scheduler is not None:
            data["pending_queries"] = scheduler.pending_queries()
            data["pending_updates"] = scheduler.pending_updates()
        monitor.record(kind, txn_id=txn.txn_id, **data)

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------
    def arrive(self, txn: Transaction, now: float) -> None:
        """``txn`` entered the system: open it with the monitor."""
        if self.monitor is not None:
            self._observe(self.monitor, "query_submitted" if txn.is_query
                          else "update_submitted", txn)
        if self.probe is not None:
            self.probe.arrive(now, txn)

    def admit(self, query: Query, now: float,
              admission: "AdmissionPolicy | None",
              host: typing.Any) -> bool:
        """Open ``query`` and ask ``admission`` (it reads ``host``):
        admitted → booked and queued; declined → rejected, outside the
        denominators (the contract was declined, not broken)."""
        self.arrive(query, now)
        if admission is None or admission.admit(query, host):
            self.ledger.on_query_submitted(query, now)
            self.enqueue(query, now)
            return True
        query.finish_time = now
        query.status = TxnStatus.REJECTED
        self.ledger.on_query_rejected(
            query, now, shed=getattr(admission, "is_shedding", False))
        if self.monitor is not None:
            self._observe(self.monitor, "query_rejected", query)
        if self.probe is not None:
            self.probe.reject(now, query)
        return False

    def register(self, update: Update, now: float) -> Update | None:
        """Open ``update`` and register it; returns the pending update
        it invalidated.  The register table flips a live victim to
        ``DROPPED_SUPERSEDED``; one stranded by a crash is already
        terminal, so it is counted but not observed twice."""
        self.arrive(update, now)
        victim = typing.cast("Database", self.database).register_update(
            update, now)
        if victim is None:
            return None
        self.ledger.on_update_superseded(victim, now)
        if victim.status is TxnStatus.DROPPED_SUPERSEDED:
            if self.monitor is not None:
                self._observe(self.monitor, "update_superseded", victim)
            if self.probe is not None:
                self.probe.supersede(now, victim, update)
        return victim

    def book(self, query: Query, now: float) -> None:
        """Open ``query`` and book its contract maxima without queueing
        it (fan-out parents; arrivals while no replica is up)."""
        self.arrive(query, now)
        self.ledger.on_query_submitted(query, now)

    def enqueue(self, txn: Transaction, now: float) -> None:
        """Queue ``txn`` (admitted queries are booked first)."""
        txn.status = TxnStatus.QUEUED
        scheduler = typing.cast("SchedulerCore", self.scheduler)
        if txn.is_query:
            scheduler.submit_query(typing.cast(Query, txn))
        else:
            scheduler.submit_update(typing.cast(Update, txn))
        if self.probe is not None:
            self.probe.queued(now, txn)

    def restart(self, txn: Transaction, now: float) -> None:
        """2PL-HP threw ``txn``'s progress away: back to its queue."""
        txn.reset_for_restart()
        self.ledger.on_restart(txn.is_query)
        txn.status = TxnStatus.QUEUED
        if self.probe is not None:
            self.probe.restart(now, txn)
        typing.cast("SchedulerCore", self.scheduler).requeue(txn)

    def start(self, txn: Transaction, now: float) -> None:
        """``txn`` takes the CPU (first time or resumed)."""
        txn.status = TxnStatus.RUNNING
        if self.probe is not None:
            self.probe.running(now, txn, resumed=txn.start_time is not None)
        if txn.start_time is None:
            txn.start_time = now

    # ------------------------------------------------------------------
    # Terminal transitions
    # ------------------------------------------------------------------
    def commit(self, txn: Transaction, now: float,
               staleness: float | None = None) -> None:
        """Price a finished query (staleness measured on the database
        unless given) or apply a finished update."""
        if txn.is_query:
            query = typing.cast(Query, txn)
            query.finish_time = now
            query.staleness = (self.measure_staleness(query, now)
                               if staleness is None else staleness)
            query.qos_profit, query.qod_profit = price(query)
            query.status = TxnStatus.COMMITTED
            self.ledger.on_query_committed(query, now)
            if self.scheduler is not None:
                self.scheduler.notify_query_finished(query)
            if self.monitor is not None:
                self._observe(self.monitor, "query_committed", query,
                              profit=query.total_profit)
            if self.probe is not None:
                self.probe.commit(now, query)
            if self.query_outcome_hook is not None:
                self.query_outcome_hook(query, True)
            return
        update = typing.cast(Update, txn)
        update.finish_time = now
        update.status = TxnStatus.COMMITTED
        typing.cast("Database", self.database).apply_update(update, now)
        if self.wal is not None:
            self.wal.append_applied(update, now)
        self.ledger.on_update_applied(update, now)
        if self.monitor is not None:
            self._observe(self.monitor, "update_applied", update)
        if self.probe is not None:
            self.probe.commit(now, update)

    def measure_staleness(self, query: Query, now: float) -> float:
        """The query's QoD staleness in :attr:`qod_metric`."""
        database = typing.cast("Database", self.database)
        if self.qod_metric == "uu":
            return database.query_staleness(query)
        if self.qod_metric == "td":
            return database.query_time_differential(query, now)
        return database.query_value_distance(query)

    def drop(self, query: Query, now: float) -> None:
        """``query`` outlived its lifetime (or deadline)."""
        query.finish_time = now
        query.status = TxnStatus.DROPPED_LIFETIME
        self.ledger.on_query_dropped(query, now)
        if self.scheduler is not None:
            self.scheduler.notify_query_finished(query)
        if self.monitor is not None:
            self._observe(self.monitor, "query_dropped", query)
        if self.probe is not None:
            self.probe.expire(now, query)
        if self.query_outcome_hook is not None:
            self.query_outcome_hook(query, False)

    def lose(self, txn: Transaction, now: float) -> None:
        """``txn`` died with a crash.  A lost query stays in the
        denominators; a lost update has no ledger entry (its source
        re-pushes it).  The ``lost`` trace event lives on the cluster
        track, so the portal marks it."""
        txn.finish_time = now
        txn.status = TxnStatus.LOST_CRASH
        if txn.is_query:
            self.ledger.on_query_lost_to_crash(typing.cast(Query, txn), now)
        if self.monitor is not None:
            self._observe(self.monitor, "query_lost" if txn.is_query
                          else "update_lost", txn)

    def unfinish(self, txn: Transaction, now: float) -> None:
        """``txn`` was still in the system at the end of the run; its
        ``finish_time`` stays None."""
        txn.status = TxnStatus.UNFINISHED
        if txn.is_query:
            self.ledger.on_query_unfinished(typing.cast(Query, txn))
        else:
            self.ledger.on_update_unfinished(typing.cast(Update, txn))
        if self.monitor is not None:
            self._observe(self.monitor, "query_unfinished" if txn.is_query
                          else "update_unfinished", txn)
        if self.probe is not None:
            self.probe.unfinished(now, txn)
