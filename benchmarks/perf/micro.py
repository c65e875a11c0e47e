"""Per-operation probes: scaling curves rather than single points.

Each probe times one public operation in isolation, in batches, and
reports the median batch's mean cost per operation.  Sizes sweep the
property the cost should depend on (queue depth, items locked, shards
on the ring), so an algorithmic change shows as a change in the curve's
shape, not only its level.  They are per-layer metrics of the traced
mode, not workloads: none of them is what a user of the system sees.
"""

from __future__ import annotations

import json
import typing

from common import median, now_ns

from repro.db.database import Database
from repro.db.locks import LockManager, LockMode
from repro.db.transactions import Query, Update
from repro.metrics.profit import ProfitLedger
from repro.qc.generator import QCFactory
from repro.scheduling.priorities import VRDPriority
from repro.scheduling.queues import TransactionQueue
from repro.scheduling.quts import QUTSScheduler
from repro.serve.gateway import GatewayReply
from repro.serve.protocol import (decode_request, encode_reply, qc_from_wire,
                                  qc_to_wire)
from repro.shard.ring import HashRing
from repro.sim.environment import Environment
from repro.sim.rng import StreamRegistry

BATCHES = 5
#: Keys the ring probe looks up (the paper's stock universe).
N_KEYS = 4_608


def _per_op_ns(batch: typing.Callable[[], int]) -> float:
    """Median over batches of (batch time / operations in the batch)."""
    samples = []
    for _ in range(BATCHES):
        start = now_ns()
        ops = batch()
        samples.append((now_ns() - start) / ops)
    return median(samples)


def _queries(streams: StreamRegistry, n: int,
             items: int = 1) -> list[Query]:
    rng = streams.stream("micro.queries")
    factory = QCFactory.balanced()
    return [Query(0.0, rng.uniform(1.0, 5.0),
                  [f"S{(i * items + k) % N_KEYS:04d}" for k in range(items)],
                  factory.sample(rng))
            for i in range(n)]


def queue_push_pop_ns(streams: StreamRegistry, depth: int,
                      ops: int = 2_000) -> float:
    """One push plus one pop on a VRD queue holding ``depth`` entries."""
    queue = TransactionQueue(VRDPriority(), "micro")
    for query in _queries(streams, depth):
        queue.push(query)
    pools = [_queries(streams, ops) for _ in range(BATCHES)]

    def batch() -> int:
        pool = pools.pop()
        for query in pool:
            queue.push(query)
            queue.pop()
        return ops

    return _per_op_ns(batch)


def acquire_release_ns(streams: StreamRegistry, items: int,
                       ops: int = 5_000) -> float:
    """An uncontended ``acquire_all`` + ``release_all`` of ``items`` keys."""
    locks = LockManager()
    query = _queries(streams, 1, items)[0]

    def batch() -> int:
        for _ in range(ops):
            locks.acquire_all(query, LockMode.READ)
            locks.release_all(query)
        return ops

    return _per_op_ns(batch)


def quts_next_ns(streams: StreamRegistry, depth: int = 2_000) -> float:
    """One QUTS decision (``next_transaction``) over two full queues."""
    pools = []
    for _ in range(BATCHES):
        scheduler = QUTSScheduler()
        scheduler.bind(Environment(), streams)
        for query in _queries(streams, depth):
            scheduler.submit_query(query)
        for i in range(depth):
            scheduler.submit_update(Update(0.0, 1.0, f"S{i % N_KEYS:04d}"))
        pools.append(scheduler)

    def batch() -> int:
        scheduler = pools.pop()
        for _ in range(2 * depth):
            scheduler.next_transaction(0.0)
        return 2 * depth

    return _per_op_ns(batch)


def commit_eval_ns(streams: StreamRegistry, ops: int = 5_000) -> float:
    """The commit path of one query: staleness, QC evaluation, ledger."""
    database = Database()
    ledger = ProfitLedger()
    queries = _queries(streams, ops, items=2)
    for query in queries:
        query.finish_time = 60.0

    def batch() -> int:
        for query in queries:
            query.staleness = database.query_staleness(query)
            query.qos_profit, query.qod_profit = query.qc.evaluate(
                query.response_time(), query.staleness)
            ledger.on_query_committed(query, 60.0)
        return ops

    return _per_op_ns(batch)


def ring_owner_ns(shards: int, seed: int, ops: int = 10_000) -> float:
    """One ``HashRing.owner`` lookup on a ring of ``shards`` shards."""
    ring = HashRing(shards, seed)
    keys = [f"S{i % N_KEYS:04d}" for i in range(ops)]

    def batch() -> int:
        for key in keys:
            ring.owner(key)
        return ops

    return _per_op_ns(batch)


def protocol_roundtrip_ns(streams: StreamRegistry, ops: int = 2_000) -> float:
    """Encode a query line, decode it, encode the reply, decode that."""
    lines = [json.dumps({"op": "query", "id": i, "items": list(q.items),
                         "exec_ms": q.exec_time, "qc": qc_to_wire(q.qc)})
             .encode() + b"\n"
             for i, q in enumerate(_queries(streams, ops))]

    def batch() -> int:
        for line in lines:
            request = decode_request(line)
            qc_from_wire(request["qc"])
            reply = encode_reply(request["id"], GatewayReply(
                "completed", request["id"], response_time_ms=5.0,
                qos_profit=1.0, qod_profit=1.0, staleness=0.0,
                values={"S0000": 1.0}))
            json.loads(reply)
        return ops

    return _per_op_ns(batch)


def probes(seed: int) -> dict[str, float]:
    """Every probe, as per-layer metric name -> ns per operation."""
    streams = StreamRegistry(seed)
    metrics = {}
    for depth, label in ((10, "10"), (1_000, "1k"), (100_000, "100k")):
        metrics[f"micro.queue_push_pop_ns.{label}"] = queue_push_pop_ns(
            streams, depth)
    for items in (1, 8):
        metrics[f"micro.acquire_release_ns.{items}"] = acquire_release_ns(
            streams, items)
    metrics["micro.quts_next_ns"] = quts_next_ns(streams)
    metrics["micro.commit_eval_ns"] = commit_eval_ns(streams)
    for shards in (1, 8):
        metrics[f"micro.ring_owner_ns.{shards}"] = ring_owner_ns(shards,
                                                                 seed)
    metrics["micro.protocol_roundtrip_ns"] = protocol_roundtrip_ns(streams)
    return metrics
