"""The three discrete-event workloads: paper replay, sharded skew and
observed replay.

A run repeats *rounds* until ``--seconds`` have passed.  A round
generates one trace slice (set-up) from a seed derived from the
workload seed and replays it through a public runner only
(``run_simulation``, ``run_sharded_simulation``,
``run_cluster_simulation``); rounds cycle through ``Size.slices``
slices, each replayed at least once.  Every replay is gated:
conservation of transactions and ledger balance, the same fingerprint
as the slice's first replay in the run, and — for the default seed —
the fingerprint stored in ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import typing

import tracing
from common import (Size, cpu_s, digest, median, now_ns, peak_rss_mb,
                    percentile, probe_s, tail_quantile, to_reference)
from live import report_deadline_ms

from repro.cluster import run_cluster_simulation
from repro.experiments.runner import run_simulation
from repro.experiments.scaleout import hot_key_spec, run_sharded_simulation
from repro.metrics.profit import ProfitLedger
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.shard import RebalanceConfig
from repro.sim.environment import Environment
from repro.telemetry import TelemetryConfig
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from repro.workload.traces import Trace

POLICIES = ("FIFO", "UH", "QH", "QUTS")
SHARDS = 4
REPLICAS_PER_SHARD = 2

QUERY_TERMINALS = ("queries_committed", "queries_dropped_lifetime",
                   "queries_rejected", "queries_lost_crash",
                   "queries_unfinished")
UPDATE_TERMINALS = ("updates_applied", "updates_superseded",
                    "updates_lost_crash", "updates_unfinished")
#: 2PL-HP restarts, by victim class.
RESTARTS = ("restarts_queries", "restarts_updates")


@dataclasses.dataclass
class Replay:
    """One policy replay of one round: what the gate and metrics need."""

    label: str
    fingerprint: str
    problems: list[str]
    queries: int
    txns: int
    total_percent: float
    #: Committed queries that met the report-side deadline (QUTS only).
    met: int
    rho_updates: int = 0
    restarts: int = 0
    rebalances: int = 0
    keys_moved: int = 0


@dataclasses.dataclass
class Round:
    """One slice's set-up and replays; times in reference seconds (see
    :func:`common.to_reference`) except ``raw_replay_s`` and ``wall_s``."""

    slice_index: int
    setup_s: float
    replay_s: float
    raw_replay_s: float
    cpu_s: float
    wall_s: float
    #: Time of each runner call: the wait for one replay.
    latency_s: list[float]
    replays: list[Replay]

    @property
    def txns(self) -> int:
        return sum(r.txns for r in self.replays)


class KernelEntry:
    """Marks when a runner enters ``Environment.run``: everything the
    runner did before that (building the server or portal) is set-up."""

    def __init__(self) -> None:
        self.at_ns = 0

    def install(self, patch: tracing.Patch) -> None:
        original = Environment.__dict__["run"]

        def run(env: Environment, *args: typing.Any,
                **kwargs: typing.Any) -> object:
            self.at_ns = now_ns()
            return original(env, *args, **kwargs)

        patch.set(Environment, "run", run)


class DeadlineLog:
    """Counts committed user-visible queries that met the loadgen's
    report-side deadline, while :attr:`active`.

    Sub-queries of a shard fan-out are shadow-priced and skipped: the
    user sees their parent, which the planner commits on its own ledger.
    """

    def __init__(self) -> None:
        self.active = False
        self.met = 0

    def take(self) -> int:
        met, self.met = self.met, 0
        return met

    def install(self, patch: tracing.Patch) -> None:
        original = ProfitLedger.__dict__["on_query_committed"]
        log = self

        def on_query_committed(ledger: ProfitLedger, query: typing.Any,
                               now: float) -> None:
            if (log.active and not query.shadow_priced
                    and query.response_time()
                    <= report_deadline_ms(query.qc)):
                log.met += 1
            original(ledger, query, now)

        patch.set(ProfitLedger, "on_query_committed", on_query_committed)


class _QUTSFactory:
    """Scheduler factory that keeps the instances (for their ρ series)."""

    def __init__(self) -> None:
        self.made: list[typing.Any] = []

    def __call__(self) -> typing.Any:
        scheduler = make_scheduler("QUTS")
        self.made.append(scheduler)
        return scheduler

    def rho(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        return tuple(tuple(s.rho_series.items()) for s in self.made)


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def _total(counters: dict[str, int], names: typing.Sequence[str]) -> int:
    return sum(counters.get(name, 0) for name in names)


def _check_ledger(ledger: ProfitLedger) -> list[str]:
    problems = []
    for what, gained, submitted, series, offered in (
            ("qos", ledger.qos_gained, ledger.qos_max_submitted,
             ledger.gained_qos_series, ledger.submitted_qos_series),
            ("qod", ledger.qod_gained, ledger.qod_max_submitted,
             ledger.gained_qod_series, ledger.submitted_qod_series)):
        if not 0.0 <= gained <= submitted * (1 + 1e-12):
            problems.append(f"{what} gained {gained} outside [0, "
                            f"{submitted}]")
        if not math.isclose(math.fsum(series.values), gained,
                            rel_tol=1e-9, abs_tol=1e-6):
            problems.append(f"{what} gained series does not sum to total")
        if not math.isclose(math.fsum(offered.values), submitted,
                            rel_tol=1e-9, abs_tol=1e-6):
            problems.append(f"{what} submitted series does not sum to max")
    return problems


def _check_counts(counters: dict[str, int], queries: int,
                  query_terminals: int, updates: int) -> list[str]:
    problems = []
    if counters.get("queries_submitted", 0) != queries:
        problems.append(f"{counters.get('queries_submitted', 0)} queries "
                        f"submitted, trace has {queries}")
    if _total(counters, QUERY_TERMINALS) != query_terminals:
        problems.append(f"{_total(counters, QUERY_TERMINALS)} query "
                        f"terminals for {query_terminals} queries")
    if _total(counters, UPDATE_TERMINALS) != updates:
        problems.append(f"{_total(counters, UPDATE_TERMINALS)} update "
                        f"terminals for {updates} updates")
    return problems


# ----------------------------------------------------------------------
# Fingerprints (the repo's ``_fingerprint`` idiom)
# ----------------------------------------------------------------------
def _single_fingerprint(result: typing.Any) -> str:
    rho = (None if result.rho_series is None
           else tuple(result.rho_series.items()))
    return digest((result.scheduler_name, result.qos_percent,
                   result.qod_percent, result.total_percent,
                   result.mean_response_time, result.mean_staleness,
                   sorted(result.counters.items()), rho))


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def _paper(trace: Trace, seed: int, log: DeadlineLog,
           timed: typing.Callable[..., typing.Any]) -> list[Replay]:
    n_q, n_u = len(trace.queries), len(trace.updates)
    replays = []
    for policy in POLICIES:
        log.active = policy == "QUTS"
        result = timed(run_simulation, make_scheduler(policy), trace,
                       QCFactory.balanced(), master_seed=seed)
        log.active = False
        met = log.take()
        problems = (_check_counts(result.counters, n_q, n_q, n_u)
                    + _check_ledger(result.ledger))
        replays.append(Replay(
            policy, _single_fingerprint(result), problems, n_q, n_q + n_u,
            result.total_percent, met,
            rho_updates=len(result.rho_series or ()),
            restarts=_total(result.counters, RESTARTS)))
    return replays


def _shard(trace: Trace, seed: int, log: DeadlineLog,
           timed: typing.Callable[..., typing.Any]) -> list[Replay]:
    n_q, n_u = len(trace.queries), len(trace.updates)
    factory = _QUTSFactory()
    log.active = True
    result = timed(run_sharded_simulation, SHARDS, factory, trace,
                   QCFactory.balanced(), master_seed=seed,
                   replicas_per_shard=REPLICAS_PER_SHARD,
                   rebalance=RebalanceConfig())
    log.active = False
    met = log.take()
    counters = result.counters
    single = counters.get("queries_single_shard", 0)
    fanned = counters.get("queries_fanned_out", 0)
    # A fanned-out query commits once per sub-query (adopted by a
    # shard) and once as the parent, on the planner's ledger.
    problems = _check_counts(
        counters, n_q, single + fanned + counters.get("queries_adopted", 0),
        REPLICAS_PER_SHARD * n_u)
    if single + fanned != n_q:
        problems.append(f"{single} + {fanned} routed queries for {n_q}")
    if result.fanouts_resolved != fanned:
        problems.append(f"{result.fanouts_resolved} fan-outs resolved "
                        f"of {fanned}")
    if not 0.0 <= result.total_gained <= result.total_max * (1 + 1e-12):
        problems.append("total gained outside [0, max]")
    fingerprint = digest(("QUTS", sorted(result.digest().items()),
                          result.qos_percent, result.qod_percent,
                          result.total_percent, factory.rho()))
    return [Replay("QUTS", fingerprint, problems, n_q, n_q + n_u,
                   result.total_percent, met,
                   rho_updates=sum(len(r) for r in factory.rho()),
                   restarts=_total(counters, RESTARTS),
                   rebalances=result.rebalances,
                   keys_moved=result.keys_migrated)]


def _observed(trace: Trace, seed: int, log: DeadlineLog,
              timed: typing.Callable[..., typing.Any]) -> list[Replay]:
    n_q, n_u = len(trace.queries), len(trace.updates)
    factory = _QUTSFactory()
    log.active = True
    result = timed(run_cluster_simulation, 1, factory, trace,
                   QCFactory.balanced(), master_seed=seed,
                   invariants=True, telemetry=TelemetryConfig())
    log.active = False
    met = log.take()
    problems = _check_counts(result.counters, n_q, n_q, n_u)
    for ledger in result.replica_ledgers:
        problems += _check_ledger(ledger)
    if not result.invariants_checked:
        problems.append("the invariant monitor did not verify the run")
    fingerprint = digest((
        "QUTS", result.qos_percent, result.qod_percent,
        result.total_percent, result.mean_response_time,
        tuple(ledger.staleness.mean for ledger in result.replica_ledgers),
        sorted(result.counters.items()), factory.rho()))
    return [Replay("QUTS", fingerprint, problems, n_q, n_q + n_u,
                   result.total_percent, met,
                   rho_updates=sum(len(r) for r in factory.rho()),
                   restarts=_total(result.counters, RESTARTS))]


@dataclasses.dataclass(frozen=True)
class DesWorkload:
    name: str
    spec: typing.Callable[[WorkloadSpec], WorkloadSpec]
    replay: typing.Callable[..., list[Replay]]


def _paper_spec(spec: WorkloadSpec) -> WorkloadSpec:
    return spec


WORKLOADS = {
    "paper-replay": DesWorkload("paper-replay", _paper_spec, _paper),
    "shard-skew": DesWorkload("shard-skew", hot_key_spec, _shard),
    "observed-replay": DesWorkload("observed-replay", _paper_spec,
                                   _observed),
}


def slice_seed(seed: int, index: int) -> int:
    """The generator seed of slice ``index`` of a run with ``seed``."""
    return 1_000 * seed + index


def _round(workload: DesWorkload, seed: int, index: int, size: Size,
           entry: KernelEntry, log: DeadlineLog) -> Round:
    """One slice: generate it, replay it.  The round's times are rescaled
    to the reference host by the probes taken before and after it."""
    wall_start = now_ns()
    before = probe_s()
    start = now_ns()
    spec = workload.spec(WorkloadSpec().scaled(size.slice_ms))
    trace = StockWorkloadGenerator(
        spec, master_seed=slice_seed(seed, index)).generate()
    setup_ns = now_ns() - start
    replay_ns = 0
    cpu = 0.0
    latency_ns: list[int] = []

    def timed(runner: typing.Callable[..., typing.Any], *args: typing.Any,
              **kwargs: typing.Any) -> typing.Any:
        nonlocal setup_ns, replay_ns, cpu
        begin, cpu_begin = now_ns(), cpu_s()
        result = runner(*args, **kwargs)
        end = now_ns()
        cpu += cpu_s() - cpu_begin
        setup_ns += entry.at_ns - begin
        replay_ns += end - entry.at_ns
        latency_ns.append(end - begin)
        return result

    replays = workload.replay(trace, seed, log, timed)
    after = probe_s()

    def ref(ns: float) -> float:
        return to_reference(ns / 1e9, before, after)

    return Round(index, ref(setup_ns), ref(replay_ns), replay_ns / 1e9,
                 ref(cpu * 1e9), (now_ns() - wall_start) / 1e9,
                 [ref(ns) for ns in latency_ns], replays)


def _gate(rounds: typing.Sequence[Round], name: str, seed: int, size: Size,
          reference: dict[str, typing.Any] | None,
          ) -> tuple[list[str], int]:
    """Every failed check as a ``round/label: problem`` line, and the
    number of replays with at least one.

    A replay must conserve transactions and balance its ledger, match
    the first replay of the same slice in this run, and — for the
    default seed — match the stored reference fingerprint.
    """
    expected: dict[str, str] | None = None
    if (reference is not None and seed == reference["seed"]
            and size.slice_ms == reference["slice_ms"]):
        expected = reference["fingerprints"].get(name, {})
    first: dict[str, str] = {}
    failures: list[str] = []
    failed = 0
    for index, round_ in enumerate(rounds):
        for replay in round_.replays:
            key = f"{round_.slice_index}/{replay.label}"
            problems = list(replay.problems)
            if first.setdefault(key, replay.fingerprint) != replay.fingerprint:
                problems.append("fingerprint differs from the slice's "
                                "first replay")
            want = None if expected is None else expected.get(key)
            if expected is not None and want is None:
                problems.append("no reference fingerprint")
            elif want is not None and replay.fingerprint != want:
                problems.append(f"fingerprint {replay.fingerprint[:12]} "
                                f"!= reference {want[:12]}")
            failed += bool(problems)
            failures += [f"round {index} slice {key}: {p}"
                         for p in problems]
    return failures, failed


def _measure(workload: DesWorkload, seed: int, seconds: float, size: Size,
             log: DeadlineLog,
             recorder: tracing.SpanRecorder | None = None) -> list[Round]:
    """Rounds cycling through the run's slices: each slice once, then
    more until ``seconds`` have passed.  Deadline counts come from the
    first pass only, so they do not depend on how many rounds fit."""
    entry = KernelEntry()
    patch = tracing.Patch()
    entry.install(patch)
    log.install(patch)
    traced = tracing.install(recorder) if recorder is not None else None
    rounds: list[Round] = []
    start = now_ns()
    try:
        while (len(rounds) < size.slices
               or (now_ns() - start) / 1e9 < seconds):
            index = len(rounds) % size.slices
            rounds.append(_round(workload, seed, index, size, entry, log))
    finally:
        if traced is not None:
            traced.close()
        patch.close()
    return rounds


def fingerprints(name: str, seed: int, size: Size) -> dict[str, str]:
    """Every slice's fingerprints (how ``reference.json`` is made)."""
    rounds = _measure(WORKLOADS[name], seed, 0.0, size, DeadlineLog())
    return {f"{r.slice_index}/{replay.label}": replay.fingerprint
            for r in rounds for replay in r.replays}


def run(name: str, seed: int, seconds: float, size: Size,
        reference: dict[str, typing.Any] | None) -> dict[str, typing.Any]:
    """The untraced run: end-to-end metrics and the gate's verdict."""
    rounds = _measure(WORKLOADS[name], seed, seconds, size, DeadlineLog())
    failures, failed = _gate(rounds, name, seed, size, reference)
    # Simulated outcomes repeat exactly per slice: take each slice once.
    quts = [r for round_ in rounds[:size.slices] for r in round_.replays
            if r.label == "QUTS"]
    latencies = sorted(s for r in rounds for s in r.latency_s)
    tail = tail_quantile(len(latencies))
    metrics = {
        "setup_s": median([r.setup_s for r in rounds]),
        "replay_txn_per_s": median([r.txns / r.replay_s for r in rounds]),
        "peak_rss_mb": peak_rss_mb(),
        "total_profit_pct": 100.0 * statistics.fmean(
            r.total_percent for r in quts),
        "query_p50_ms": 1e3 * percentile(latencies, 0.5),
        "query_p99_ms": 1e3 * percentile(latencies, tail),
        "goodput": sum(r.met for r in quts) / sum(r.queries for r in quts),
        "gateway_cpu_us_per_req": median(
            [1e6 * r.cpu_s / r.txns for r in rounds]),
    }
    return {"attempted": sum(len(r.replays) for r in rounds),
            "failed": failed, "failures": failures, "metrics": metrics,
            "notes": {"rounds": len(rounds), "replays": len(latencies),
                      "latency_quantile": tail,
                      "raw_replay_txn_per_s": median(
                          [r.txns / r.raw_replay_s for r in rounds])}}


def run_traced(name: str, seed: int, size: Size,
               reference: dict[str, typing.Any] | None,
               recorder: tracing.SpanRecorder) -> dict[str, typing.Any]:
    """Every slice once untraced, then once traced: per-layer metrics,
    tracing overhead, and fingerprint equality of the two passes."""
    workload = WORKLOADS[name]
    plain = _measure(workload, seed, 0.0, size, DeadlineLog())
    traced = _measure(workload, seed, 0.0, size, DeadlineLog(), recorder)
    # The gate compares each traced replay with the untraced replay of
    # the same slice: wrapping must be pure observation.
    failures, failed = _gate(plain + traced, name, seed, size, reference)
    replays = [r for round_ in traced for r in round_.replays]
    metrics = tracing.layer_metrics(
        recorder, replay_s=sum(r.raw_replay_s for r in plain))
    metrics.update({
        "scheduling.rho_updates": sum(r.rho_updates for r in replays),
        "db.restarts": sum(r.restarts for r in replays),
        "shard.rebalances": sum(r.rebalances for r in replays),
        "shard.keys_moved": sum(r.keys_moved for r in replays),
        "trace.overhead_x": (sum(r.wall_s for r in traced)
                             / sum(r.wall_s for r in plain)),
    })
    return {"attempted": 2 * len(replays), "failed": failed,
            "failures": failures, "metrics": metrics,
            "notes": {"untraced_s": sum(r.wall_s for r in plain),
                      "traced_s": sum(r.wall_s for r in traced)}}
