"""The simulated main-memory web-database server.

A single CPU executes queries and updates in the order the attached
scheduler dictates (§2 "CPU scheduling is the primary means of improving
performance").  Ledger, pricing and terminal transitions go through its
:class:`~repro.db.lifecycle.Lifecycle`; the server is the DES executor:

* arrival handling — updates pass through the register table
  (invalidating pending older updates, even a *running* one — the 2PL-HP
  write-write rule);
* a preemptive executor — the scheduler bounds each running slice with a
  quantum (QUTS's atom time) and may preempt on arrivals (UH/QH); preempted
  work keeps its locks and remaining service time;
* 2PL-HP — conservative lock acquisition over a transaction's item set;
  conflicting lower-priority lock holders are restarted (losing progress),
  higher-priority holders block the requester;
* lifetime enforcement — queries past their QC lifetime are dropped when
  they would next touch the CPU;
* class-switch overhead — an optional fixed CPU cost charged whenever the
  CPU switches between serving queries and serving updates, which is what
  makes very small atom times costly (Figure 10b).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.profit import ProfitLedger
from repro.scheduling.base import Scheduler
from repro.sim import Environment, Interrupt
from repro.sim.process import ProcessGenerator
from repro.sim.invariants import InvariantMonitor
from repro.sim.rng import StreamRegistry
from repro.telemetry.events import CAT_KERNEL
from repro.telemetry.hooks import TelemetryKnob, TelemetrySession
from repro.telemetry.tracer import TelemetryConfig

from .admission import AdmissionPolicy
from .database import Database
from .lifecycle import Lifecycle
from .locks import LockManager, LockMode
from .transactions import Query, Transaction, TxnStatus, Update
from .wal import Checkpoint, WriteAheadLog

#: Float slack for "service time exhausted".
_EPS = 1e-9


@dataclasses.dataclass
class ServerConfig:
    """Tunable server behaviour (defaults follow the paper / DESIGN.md)."""

    #: CPU cost (ms) of switching the CPU between transaction classes.
    #: The paper discusses switching overhead qualitatively (§4.2); 0.1 ms
    #: is small against 1-9 ms service times but makes τ→1 ms measurably
    #: wasteful, reproducing the left edge of Figure 10b.
    class_switch_overhead: float = 0.1
    #: What a *cross-class preemption* (UH/QH's "preemptive dual priority
    #: queue") does to a running update: "restart" aborts it 2PL-HP-style
    #: (blind writes are idempotent and cheap to redo, and aborting avoids
    #: holding write latches across arbitrary higher-priority work), while
    #: "suspend" keeps its progress.  Preempted *queries* are always
    #: suspended (long reads are expensive to redo; their read locks are
    #: what 2PL-HP conflict resolution arbitrates).  QUTS's atom-time slot
    #: switches are cooperative (quantum expiry), never preemption, so
    #: they always keep progress — a core advantage of the two-level
    #: design.
    update_preemption: str = "restart"
    #: Which staleness metric feeds the QoD profit function (§2.1): the
    #: number of unapplied updates ("uu", the paper's choice), the time
    #: differential in ms ("td"), or the value distance ("vd").  The QC's
    #: ``uumax`` threshold is interpreted in the chosen metric's unit.
    qod_metric: str = "uu"
    #: Structured tracing/metrics (:mod:`repro.telemetry`).  ``None`` (the
    #: default) disables instrumentation entirely — the server then pays
    #: one pointer comparison per hook and nothing in the kernel loop.
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.class_switch_overhead < 0:
            raise ValueError(
                f"class_switch_overhead must be >= 0, "
                f"got {self.class_switch_overhead}")
        if self.update_preemption not in ("restart", "suspend"):
            raise ValueError(
                f"update_preemption must be 'restart' or 'suspend', "
                f"got {self.update_preemption!r}")
        if self.qod_metric not in ("uu", "td", "vd"):
            raise ValueError(
                f"qod_metric must be 'uu', 'td', or 'vd', "
                f"got {self.qod_metric!r}")


class _Preempt:
    """Interrupt cause: ``arrival`` wants the CPU from ``victim``."""

    __slots__ = ("arrival",)

    def __init__(self, arrival: Transaction) -> None:
        self.arrival = arrival


class _Superseded:
    """Interrupt cause: the running update was invalidated by ``newer``."""

    __slots__ = ("victim",)

    def __init__(self, victim: Update) -> None:
        self.victim = victim


class _Crashed:
    """Interrupt cause: the server fail-stopped under the running txn."""

    __slots__ = ()


class DatabaseServer:
    """Single-CPU transaction executor driven by a pluggable scheduler."""

    def __init__(self, env: Environment, database: Database,
                 scheduler: Scheduler, ledger: ProfitLedger,
                 streams: StreamRegistry,
                 config: ServerConfig | None = None,
                 admission: "AdmissionPolicy | None" = None,
                 wal: WriteAheadLog | None = None,
                 monitor: InvariantMonitor | None = None,
                 telemetry: TelemetryKnob = None,
                 telemetry_scope: str = "server") -> None:
        self.env = env
        self.database = database
        self.scheduler = scheduler
        self.ledger = ledger
        self.config = config or ServerConfig()
        #: Optional query admission policy (default: admit everything,
        #: the paper's behaviour).  See :mod:`repro.db.admission`.
        self.admission = admission
        #: Optional write-ahead log; when attached, every applied update
        #: is journalled and :meth:`take_checkpoint` fences the log with
        #: a crash-consistent database snapshot.
        self.wal = wal

        scheduler.bind(env, streams)
        self.locks = LockManager(scheduler.has_lock_priority)

        #: Telemetry session (explicit ``telemetry=`` wins; otherwise the
        #: config's knob).  Shared sessions (cluster) pass the session in.
        session = TelemetrySession.from_knob(telemetry)
        if session is None:
            session = TelemetrySession.from_knob(self.config.telemetry)
        self.telemetry = session
        self._probe = (session.server_probe(telemetry_scope)
                       if session is not None else None)
        scheduler.attach_telemetry(
            session.scheduler_probe(telemetry_scope)
            if session is not None else None)
        if (session is not None and env.telemetry is None
                and session.tracer.enabled_for(CAT_KERNEL)):
            env.telemetry = session.kernel_probe()
        #: ``monitor``: an optional InvariantMonitor (a pure observer).
        self.lifecycle = Lifecycle(
            ledger, scheduler, database=database, wal=wal,
            qod_metric=self.config.qod_metric, monitor=monitor,
            probe=self._probe)

        #: Gray-failure service-rate multiplier (1.0 = nominal).  A CPU
        #: slice of s ms of *work* occupies s × slowdown ms of wall
        #: clock; set by the portal's ``slow_replica`` fault hook.
        self._slowdown = 1.0

        self._running: Transaction | None = None
        self._last_class: str | None = None
        self._idle_wakeup = None  # type: ignore[assignment]
        #: Fail-stop state: a crashed server executes nothing and refuses
        #: arrivals until :meth:`recover` is called.
        self._crashed = False
        self._recover_event = None  # type: ignore[assignment]
        #: Transactions blocked on locks, with the holders they wait for.
        self._blocked: dict[Transaction, frozenset[str]] = {}

        self._proc = env.process(self._executor(), name="db-server")

    def __repr__(self) -> str:
        return (f"<DatabaseServer t={self.env.now:.0f} "
                f"running={self._running!r}>")

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def submit_query(self, query: Query) -> None:
        """A user query arrives (read set + quality contract attached).

        An attached admission policy may reject it outright; a rejected
        query never enters the ledger's denominators (the contract was
        declined, not broken).
        """
        if self._crashed:
            self._refuse_work()
        if self.lifecycle.admit(query, self.env.now, self.admission, self):
            self._on_arrival(query)

    def adopt_query(self, query: Query) -> None:
        """Enqueue a query whose contract is already priced elsewhere.

        The failover path of :class:`~repro.cluster.portal.ReplicatedPortal`
        uses this to move a query stranded on a crashed replica here: the
        contract's maxima stay in the *original* replica's ledger (the
        contract was submitted exactly once), while whatever profit the
        query still earns is credited to this server's ledger at commit.
        Cluster-level sums therefore count each contract once on each side.
        Admission control is bypassed — the query was already admitted.
        """
        if self._crashed:
            self._refuse_work()
        self.ledger.counters.increment("queries_adopted")
        self.lifecycle.enqueue(query, self.env.now)
        self._on_arrival(query)

    def submit_update(self, update: Update) -> None:
        """A blind update arrives from the external source."""
        if self._crashed:
            self._refuse_work()
        now = self.env.now
        superseded = self.lifecycle.register(update, now)
        if superseded is not None:
            self.locks.release_all(superseded)
            if self._blocked:
                self._unblock_waiters()
            if superseded is self._running:
                self._proc.interrupt(_Superseded(superseded))
        self.lifecycle.enqueue(update, now)
        self._on_arrival(update)

    def _on_arrival(self, txn: Transaction) -> None:
        wakeup = self._idle_wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()
            return
        running = self._running
        if running is not None and self.scheduler.preempts(running, txn):
            self._proc.interrupt(_Preempt(txn))

    # ------------------------------------------------------------------
    # The executor process
    # ------------------------------------------------------------------
    def _executor(self) -> ProcessGenerator:
        env = self.env
        while True:
            if self._crashed:
                self._recover_event = env.event()
                try:
                    yield self._recover_event
                except Interrupt:
                    pass
                self._recover_event = None
                continue
            now = env.now
            txn = self.scheduler.next_transaction(now)
            if txn is None:
                self._idle_wakeup = env.event()
                try:
                    yield self._idle_wakeup
                except Interrupt:
                    pass
                self._idle_wakeup = None
                continue

            if txn.is_query and typing.cast(Query, txn).past_lifetime(now):
                self.lifecycle.drop(typing.cast(Query, txn), now)
                self._release(txn)
                continue

            # Charge the class-switch overhead before the new class runs.
            txn_class = "query" if txn.is_query else "update"
            if (self._last_class is not None
                    and txn_class != self._last_class
                    and self.config.class_switch_overhead > 0):
                interrupted = yield from self._charge_overhead(txn)
                if interrupted:
                    continue
            self._last_class = txn_class

            # 2PL-HP conservative acquisition over the full item set.
            mode = LockMode.READ if txn.is_query else LockMode.WRITE
            result = self.locks.acquire_all(txn, mode)
            if not result.granted:
                txn.status = TxnStatus.BLOCKED
                self._blocked[txn] = self.locks.locks_of(txn) or frozenset(
                    txn.touched_items())
                if self._probe is not None:
                    self._probe.block(env.now, txn)
                continue
            for loser in result.restarted:
                self._blocked.pop(loser, None)
                self.lifecycle.restart(loser, env.now)

            yield from self._run(txn)

    def _charge_overhead(self, txn: Transaction) -> ProcessGenerator:
        """Burn the switch overhead; returns True if interrupted (in which
        case ``txn`` was requeued and the caller should re-decide).

        ``txn`` is published as running for the duration so that arrivals
        that should preempt it (e.g. an update arriving under UH while a
        query is being switched in) can interrupt the switch.
        """
        self._running = txn
        started = self.env.now
        rate = self._slowdown
        overhead = self.config.class_switch_overhead
        try:
            yield self.env.timeout(
                overhead if rate == 1.0 else overhead * rate)
        except Interrupt:
            if not self._crashed and txn.alive:
                # On a crash the transaction was already stranded by
                # crash(), and a superseded update already reached its
                # terminal state — requeueing either would resurrect it.
                txn.status = TxnStatus.QUEUED
                self.scheduler.requeue(txn)
            return True
        finally:
            self._running = None
            if self._probe is not None:
                self._probe.overhead(started, self.env.now)
        return False

    def _run(self, txn: Transaction) -> ProcessGenerator:
        env = self.env
        self.lifecycle.start(txn, env.now)
        self._running = txn

        while True:
            if txn.remaining <= _EPS:
                # Covers both normal completion and the corner case of a
                # transaction preempted at the exact instant its service
                # finished (it re-enters here with no work left).
                self._commit(txn)
                break
            quantum = self.scheduler.quantum(txn, env.now)
            slice_ = min(txn.remaining, quantum)
            started = env.now
            # Gray failure: a slowed replica stretches the wall-clock
            # cost of each work slice.  The rate is captured per slice,
            # so mid-slice slowdown changes take effect at the next
            # slice boundary and the accounting stays exact; at the
            # nominal rate the arithmetic below is bit-identical to the
            # un-multiplied original.
            rate = self._slowdown
            try:
                yield env.timeout(slice_ if rate == 1.0 else slice_ * rate)
            except Interrupt as interrupt:
                elapsed = env.now - started
                txn.remaining -= (elapsed if rate == 1.0
                                  else elapsed / rate)
                if self._probe is not None:
                    self._probe.cpu_slice(started, env.now, txn)
                action = self._handle_interrupt(txn, interrupt.cause)
                if action == "continue":
                    continue
                break
            txn.remaining -= slice_
            if self._probe is not None:
                self._probe.cpu_slice(started, env.now, txn)
            if txn.remaining <= _EPS:
                self._commit(txn)
                break
            # Quantum expired: hand the decision back to the scheduler.
            self._suspend(txn)
            break

        self._running = None

    def _handle_interrupt(self, txn: Transaction, cause: object) -> str:
        """React to an interrupt while ``txn`` runs; returns "continue" to
        keep running or "stop" to leave the run loop."""
        if self._crashed:
            # A pre-crash interrupt (e.g. a preemption raised at the same
            # instant) delivered after the fail-stop: the transaction is
            # stranded already, so never requeue it.
            return "stop"
        if isinstance(cause, _Crashed):
            # Fail-stop: crash() already stranded the transaction and
            # released its locks; just vacate the CPU.
            return "stop"
        if isinstance(cause, _Superseded):
            if cause.victim is txn:
                # Our work is moot; locks were already released on register.
                return "stop"
            return "continue"
        if not txn.alive:
            # Died (e.g. superseded) between the interrupt being raised
            # and delivered: never suspend/requeue a terminal transaction.
            return "stop"
        if isinstance(cause, _Preempt):
            arrival = cause.arrival
            # Re-validate: the arrival may have died (superseded) or the
            # situation may have changed since the interrupt was raised.
            if arrival.alive and self.scheduler.preempts(txn, arrival):
                txn.preemptions += 1
                if self._probe is not None:
                    self._probe.preempt(self.env.now, txn, arrival)
                if (txn.is_update
                        and self.config.update_preemption == "restart"):
                    # Cross-class preemption aborts the running update
                    # (2PL-HP): the blind write is redone later.
                    self.lifecycle.restart(txn, self.env.now)
                    self._release(txn)
                else:
                    self._suspend(txn)
                return "stop"
            return "continue"
        # Unknown cause (defensive): keep running.
        return "continue"

    def _suspend(self, txn: Transaction) -> None:
        """Take ``txn`` off the CPU; it keeps locks and progress."""
        txn.status = TxnStatus.SUSPENDED
        if self._probe is not None:
            self._probe.suspend(self.env.now, txn)
        self.scheduler.requeue(txn)

    def _commit(self, txn: Transaction) -> None:
        self.lifecycle.commit(txn, self.env.now)
        self._release(txn)

    def _release(self, txn: Transaction) -> None:
        """``txn`` left the CPU for good: free its locks and waiters."""
        self.locks.release_all(txn)
        if self._blocked:
            self._unblock_waiters()

    def _unblock_waiters(self) -> None:
        """Lock state changed: give every blocked transaction another try.

        Callers test ``self._blocked`` first; with no waiter there is
        nothing to do.
        """
        waiters = list(self._blocked)
        self._blocked.clear()
        for txn in waiters:
            if txn.alive:
                txn.status = TxnStatus.QUEUED
                self.scheduler.requeue(txn)
        if self._idle_wakeup is not None and not self._idle_wakeup.triggered:
            self._idle_wakeup.succeed()

    # ------------------------------------------------------------------
    # Gray failure: service-rate degradation
    # ------------------------------------------------------------------
    @property
    def slowdown(self) -> float:
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Stretch (or restore) the wall-clock cost of CPU work.

        Takes effect at the next slice boundary; slices already in
        flight finish at the rate they started with, which keeps the
        work accounting exact and deterministic.
        """
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive, "
                             f"got {factor}")
        self._slowdown = factor

    # ------------------------------------------------------------------
    # Fail-stop crash / recovery (driven by the portal / fault injector)
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    def _refuse_work(self) -> typing.NoReturn:
        """Arrival on a crashed server (callers test ``self._crashed``)."""
        raise RuntimeError(
            "server is crashed; a dead replica receives no work "
            "(the portal must gate routing and broadcasts)")

    def crash(self) -> list[Transaction]:
        """Fail-stop: drop every piece of in-flight work.

        Returns the live transactions that were stranded — queued, blocked,
        and running alike.  The caller (the portal's failover path) decides
        their fate: queries can be retried on surviving replicas, updates
        are lost and must be re-synced on recovery.  All locks are released
        and the executor parks until :meth:`recover`; progress of the
        running transaction is lost (its partial slice dies with the CPU).
        """
        if self._crashed:
            return []
        self._crashed = True
        stranded = self._evict()
        for txn in stranded:
            self.locks.release_all(txn)
        self._last_class = None
        if self._running is not None:
            self._proc.interrupt(_Crashed())
        return stranded

    def recover(self) -> None:
        """Bring a crashed server back up (empty queues, stale replica).

        The database keeps its pre-crash contents — a rejoining replica is
        *stale*, not blank — and the portal re-syncs it by replaying the
        broadcasts it missed while down.
        """
        if not self._crashed:
            return
        self._crashed = False
        self._last_class = None
        if (self._recover_event is not None
                and not self._recover_event.triggered):
            self._recover_event.succeed()

    # ------------------------------------------------------------------
    # Durability (active only with an attached WAL)
    # ------------------------------------------------------------------
    def take_checkpoint(self) -> Checkpoint:
        """Fence the WAL with a crash-consistent snapshot: the full item
        state plus a digest of the (volatile) scheduler queues."""
        if self.wal is None:
            raise RuntimeError("no write-ahead log attached; construct "
                               "the server with wal=WriteAheadLog(...)")
        digest = {
            "pending_queries": self.scheduler.pending_queries(),
            "pending_updates": self.scheduler.pending_updates(),
            "blocked": len(self._blocked),
        }
        return self.wal.take_checkpoint(self.database, digest,
                                        self.env.now)

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Account every transaction still in the system as unfinished."""
        for txn in self._evict():
            self.lifecycle.unfinish(txn, self.env.now)

    def _evict(self) -> list[Transaction]:
        """Empty the CPU slot, the queues and the blocked set; returns
        the live transactions (running, then queued, then blocked)."""
        evicted = [] if self._running is None else [self._running]
        while (txn := self.scheduler.next_transaction(self.env.now)):
            evicted.append(txn)
        evicted.extend(self._blocked)
        self._blocked.clear()
        return [txn for txn in evicted if txn.alive]

    @property
    def lock_stats(self) -> dict[str, int]:
        return {
            "conflicts": self.locks.conflicts,
            "restarts_caused": self.locks.restarts_caused,
            "blocks_caused": self.locks.blocks_caused,
        }
