"""Traced mode: nested spans around the program's public layer functions.

Nothing inside ``src/repro`` is instrumented for the benchmark; instead
:func:`install` swaps selected public methods (and the wire protocol's
module functions) for timing wrappers, and :meth:`Patch.close` puts
the originals back.  Each wrapped call becomes one span — name, start,
end, parent — held in memory; per-name call counts, inclusive time and
self time (the span minus the time its child spans cover) are
aggregated on the fly, so a run of millions of calls keeps only the
first :data:`KEEP_SPANS` raw spans for the span file.

Wrapping is pure observation: the wrapper forwards arguments and the
return value untouched, draws no randomness and schedules nothing, so
a traced replay must fingerprint identically to an untraced one (the
benchmark checks this on every traced run).
"""

from __future__ import annotations

import functools
import json
import pathlib
import types
import typing

from common import now_ns

#: Raw spans kept for the span file; aggregates cover every call.
KEEP_SPANS = 50_000

#: Layers, named after the modules they cover (see README.md).
LAYERS = ("workload", "sim", "scheduling", "db", "qc", "topology",
          "observers", "serve")


class SpanRecorder:
    """Aggregates nested spans of wrapped calls."""

    def __init__(self) -> None:
        #: span name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = {}
        #: span name -> layer
        self.layer_of: dict[str, str] = {}
        #: Extra exact counts recorded from return values.
        self.counts: dict[str, int] = {}
        #: (name, start_ns, end_ns, span_id, parent_id), the first
        #: :data:`KEEP_SPANS` opened.
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._next_id = 0
        #: Open spans: [child ns, span id].
        self._stack: list[list[int]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, layer: str, name: str, fn: typing.Callable[..., typing.Any],
             on_result: typing.Callable[["SpanRecorder", typing.Any],
                                        None] | None = None,
             ) -> typing.Callable[..., typing.Any]:
        """A timing wrapper around ``fn`` recording spans named ``name``."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        self.layer_of[name] = layer
        stack = self._stack
        spans = self.spans
        clock = now_ns

        @functools.wraps(fn)
        def traced(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id < KEEP_SPANS:
                    spans.append((name, start, end, span_id, parent))
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def mean_ns(self, name: str) -> float:
        calls, total, _ = self.stats.get(name, [0, 0, 0])
        return total / calls if calls else 0.0

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[2]

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, (_, _, own) in self.stats.items():
            out[self.layer_of[name]] += own
        return out

    def snapshot(self) -> dict[str, typing.Any]:
        """The aggregates as JSON-ready data (the server child's dump)."""
        return {"stats": self.stats, "layer_of": self.layer_of,
                "counts": self.counts}

    @classmethod
    def from_snapshot(cls, data: dict[str, typing.Any]) -> "SpanRecorder":
        recorder = cls()
        recorder.stats = {k: list(v) for k, v in data["stats"].items()}
        recorder.layer_of = dict(data["layer_of"])
        recorder.counts = dict(data["counts"])
        return recorder

    def write_spans(self, path: pathlib.Path) -> None:
        """Write the kept raw spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, span_id, parent in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start,
                                      "end_ns": end, "id": span_id,
                                      "parent": parent}) + "\n")


class Patch:
    """Attribute swaps that :meth:`close` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[typing.Any, str, typing.Any]] = []

    def set(self, owner: typing.Any, attr: str, value: typing.Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Result inspectors: exact counts taken from return values
# ----------------------------------------------------------------------
def _on_acquire(recorder: SpanRecorder, result: typing.Any) -> None:
    if result.granted:
        recorder.count("db.acquire_granted")


def _on_register(recorder: SpanRecorder, result: typing.Any) -> None:
    if result is not None:
        recorder.count("db.superseded")


def _on_generate(recorder: SpanRecorder, trace: typing.Any) -> None:
    recorder.count("workload.records",
                   len(trace.queries) + len(trace.updates))


def _public_methods(cls: type) -> list[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and isinstance(value, types.FunctionType)]


def _targets() -> list[tuple[str, str, typing.Any, list[str],
                             typing.Any]]:
    """(layer, span name, owner, attributes, result inspector) rows."""
    from repro.cluster.portal import ReplicatedPortal
    from repro.db.database import Database
    from repro.db.locks import LockManager
    from repro.db.server import DatabaseServer
    from repro.metrics.profit import ProfitLedger
    from repro.qc.contracts import QualityContract
    from repro.qc.generator import QCFactory
    from repro.scheduling.core import SchedulerCore
    from repro.scheduling.dual import DualQueueScheduler
    from repro.scheduling.fifo import FIFOScheduler
    from repro.scheduling.quts import QUTSScheduler
    from repro.serve import protocol
    from repro.serve.gateway import QCGateway
    from repro.shard.planner import ShardPlanner
    from repro.shard.portal import ShardedPortal
    from repro.shard.ring import HashRing
    from repro.shard.router import StalenessAwareRouter
    from repro.sim.environment import Environment
    from repro.sim.invariants import InvariantMonitor
    from repro.telemetry import hooks
    from repro.telemetry.tracer import Tracer
    from repro.workload.synthetic import StockWorkloadGenerator

    rows: list[tuple[str, str, typing.Any, list[str], typing.Any]] = [
        ("workload", "workload.generate", StockWorkloadGenerator,
         ["generate"], _on_generate),
        ("sim", "sim.run", Environment, ["run"], None),
        ("sim", "sim.event", Environment, ["timeout", "schedule"], None),
        ("db", "db.acquire", LockManager, ["acquire_all"], _on_acquire),
        ("db", "db.release", LockManager, ["release_all"], None),
        ("db", "db.register_update", Database, ["register_update"],
         _on_register),
        ("db", "db.apply_update", Database, ["apply_update"], None),
        ("db", "db.submit", DatabaseServer,
         ["submit_query", "submit_update"], None),
        ("qc", "qc.evaluate", QualityContract, ["evaluate"], None),
        ("qc", "qc.sample", QCFactory, ["sample"], None),
        ("qc", "qc.ledger", ProfitLedger,
         [n for n in _public_methods(ProfitLedger) if n.startswith("on_")],
         None),
        ("topology", "shard.owner", HashRing, ["owner"], None),
        ("topology", "shard.fanout", ShardPlanner, ["fan_out"], None),
        ("topology", "shard.route", StalenessAwareRouter, ["choose"], None),
        ("topology", "shard.portal", ShardedPortal,
         ["submit_query", "route_update"], None),
        ("topology", "cluster.submit", ReplicatedPortal,
         ["submit_query", "adopt_query"], None),
        ("topology", "cluster.broadcast", ReplicatedPortal,
         ["broadcast_update"], None),
        ("observers", "observers.monitor", InvariantMonitor, ["record"],
         None),
        ("observers", "observers.emit", Tracer,
         ["instant", "span", "counter", "emit_instant", "emit_span",
          "emit_counter"], None),
        ("serve", "serve.decode", protocol, ["decode_request"], None),
        ("serve", "serve.encode", protocol,
         ["encode_reply", "encode_error"], None),
        ("serve", "serve.submit", protocol, ["submit_from_wire"], None),
        ("serve", "serve.gateway", QCGateway,
         ["submit_query", "submit_update"], None),
    ]
    for probe in (hooks.ServerProbe, hooks.SchedulerProbe,
                  hooks.ClusterProbe, hooks.ShardProbe, hooks.KernelProbe):
        rows.append(("observers", "observers.probe", probe,
                     _public_methods(probe), None))
    for cls in (SchedulerCore, FIFOScheduler, DualQueueScheduler,
                QUTSScheduler):
        own = vars(cls)
        rows.append(("scheduling", "scheduling.next", cls,
                     [n for n in ("next_transaction",) if n in own], None))
        rows.append(("scheduling", "scheduling.enqueue", cls,
                     [n for n in ("submit_query", "submit_update", "requeue")
                      if n in own], None))
    return rows


def install(recorder: SpanRecorder) -> Patch:
    """Wrap every layer target; the caller must ``close()`` the patch."""
    patch = Patch()
    for layer, name, owner, attrs, on_result in _targets():
        for attr in attrs:
            original = owner.__dict__[attr]
            patch.set(owner, attr,
                      recorder.wrap(layer, name, original, on_result))
    return patch


def layer_metrics(recorder: SpanRecorder, replay_s: float,
                  busy_ns: float | None = None) -> dict[str, float]:
    """The span-derived per-layer metrics (``_ns``: mean per call).

    ``replay_s`` is the *untraced* replay time the event rate is taken
    over.  Layer self shares divide by ``busy_ns`` when given (the live
    server's CPU time) and otherwise by the time all spans cover.
    """
    r = recorder
    acquires = r.calls("db.acquire")
    registers = r.calls("db.register_update")
    layer_self = r.layer_self_ns()
    covered = busy_ns if busy_ns else sum(layer_self.values())
    metrics: dict[str, float] = {
        "workload.generate_s": r.stats.get("workload.generate",
                                           [0, 0, 0])[1] / 1e9,
        "workload.records": r.counts.get("workload.records", 0),
        "sim.events": r.calls("sim.event"),
        "sim.events_per_s": (r.calls("sim.event") / replay_s
                             if replay_s else 0.0),
        "sim.residual_s": r.self_ns("sim.run") / 1e9,
        "scheduling.next_calls": r.calls("scheduling.next"),
        "scheduling.next_ns": r.mean_ns("scheduling.next"),
        "scheduling.enqueue_ns": r.mean_ns("scheduling.enqueue"),
        "db.acquire_calls": acquires,
        "db.acquire_ns": r.mean_ns("db.acquire"),
        "db.grant_ratio": (r.counts.get("db.acquire_granted", 0) / acquires
                           if acquires else 0.0),
        "db.release_ns": r.mean_ns("db.release"),
        "db.register_update_ns": r.mean_ns("db.register_update"),
        "db.supersede_ratio": (r.counts.get("db.superseded", 0) / registers
                               if registers else 0.0),
        "db.apply_update_ns": r.mean_ns("db.apply_update"),
        "db.submit_ns": r.mean_ns("db.submit"),
        "qc.evaluate_calls": r.calls("qc.evaluate"),
        "qc.evaluate_ns": r.mean_ns("qc.evaluate"),
        "qc.sample_ns": r.mean_ns("qc.sample"),
        "qc.ledger_ns": r.mean_ns("qc.ledger"),
        "shard.owner_calls": r.calls("shard.owner"),
        "shard.owner_ns": r.mean_ns("shard.owner"),
        "shard.fanouts": r.calls("shard.fanout"),
        "shard.fanout_ns": r.mean_ns("shard.fanout"),
        "shard.route_ns": r.mean_ns("shard.route"),
        "cluster.submit_ns": r.mean_ns("cluster.submit"),
        "cluster.broadcast_ns": r.mean_ns("cluster.broadcast"),
        "observers.monitor_records": r.calls("observers.monitor"),
        "observers.monitor_ns": r.mean_ns("observers.monitor"),
        "observers.trace_records": r.calls("observers.emit"),
        "observers.emit_ns": r.mean_ns("observers.emit"),
        "serve.decode_ns": r.mean_ns("serve.decode"),
        "serve.encode_ns": r.mean_ns("serve.encode"),
        "serve.submit_ns": r.mean_ns("serve.submit"),
    }
    for layer, own in layer_self.items():
        metrics[f"{layer}.self_share"] = own / covered if covered else 0.0
    return metrics
