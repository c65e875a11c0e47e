"""The live-gateway workload: ``repro serve`` driven open loop over TCP.

Two processes: this one generates load, a child runs the server —
``python -m repro.cli serve --port 0 --policy QUTS`` (its defended
defaults), or in traced mode ``serve_launcher.py``, which installs the
span wrappers and then calls the same ``serve_main``.  One JSON-lines
connection carries two fixed-rate phases from ``build_schedule``: the
nominal rate (multiplier 1, about 0.6 of the modelled CPU) and an
overload (multiplier 6).  Requests go out when they are due whatever
the server is doing, and each latency is timed from the moment its
request was due, so a stall shows on every request it delays.  The
client never retries.  Each phase ends when every request has its one
reply (or the drain limit passes, counting the rest as missing).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import pathlib
import select
import signal
import subprocess
import sys
import typing

import tracing
from common import (Size, cpu_s, median, now_ns, percentile, probe_s,
                    proc_cpu_s, proc_peak_rss_mb, tail_quantile,
                    to_reference)

from repro.qc.contracts import QualityContract
from repro.serve.gateway import OUTCOMES
from repro.serve.loadgen import (DEADLINE_FACTOR, Arrival, LoadgenConfig,
                                 build_schedule)
from repro.serve.protocol import qc_to_wire

NOMINAL_MULTIPLIER = 1.0
OVERLOAD_MULTIPLIER = 6.0
#: Every outcome a reply can carry; ``error`` is a protocol failure.
REPLY_OUTCOMES = (*OUTCOMES, "error")
#: How long the server may take to print its "listening" line.
SPAWN_TIMEOUT_S = 30.0
#: How long a phase may take to answer its last request after sending it.
DRAIN_TIMEOUT_S = 20.0
#: Sending starts this long after a phase is armed.
LEAD_NS = 20_000_000
#: The load generator's own CPU per request on the reference host, the
#: one where the DES probe takes ``REFERENCE_PROBE_S``.  Measured: 137 us
#: on a shared 2-vCPU host whose probe took 1/1.75 of the reference's.
REFERENCE_LOADGEN_US = 240.0


@dataclasses.dataclass
class Request:
    phase: int
    #: When the request is due, from the start of its phase.
    at_ms: float
    kind: str
    exec_ms: float
    deadline_ms: float
    max_profit: float
    due_ns: int = 0
    sent_ns: int = 0
    recv_ns: int = 0
    reply: dict[str, typing.Any] | None = None

    @property
    def latency_ms(self) -> float:
        return (self.recv_ns - self.due_ns) / 1e6


def report_deadline_ms(qc: QualityContract) -> float:
    """The loadgen's report-side deadline: ``min(lifetime, 4·rtmax)``."""
    deadline = float(qc.lifetime)
    if 0 < qc.rt_max < math.inf:
        deadline = min(deadline, DEADLINE_FACTOR * qc.rt_max)
    return deadline


def _encode(request_id: int, arrival: Arrival) -> bytes:
    if arrival.kind == "query":
        assert arrival.qc is not None
        payload: dict[str, typing.Any] = {
            "op": "query", "id": request_id, "items": list(arrival.items),
            "exec_ms": arrival.exec_ms, "qc": qc_to_wire(arrival.qc)}
    else:
        payload = {"op": "update", "id": request_id,
                   "item": arrival.items[0], "value": arrival.value,
                   "exec_ms": arrival.exec_ms}
    return json.dumps(payload).encode() + b"\n"


@dataclasses.dataclass
class Schedule:
    """Both phases, with every request line encoded ahead of time."""

    #: Per phase, (request id, encoded line) in the order they are due.
    phases: list[list[tuple[int, bytes]]]
    requests: dict[int, Request]


def build(seed: int, nominal_s: float, overload_s: float) -> Schedule:
    phases = []
    requests: dict[int, Request] = {}
    for phase, (multiplier, seconds) in enumerate(
            ((NOMINAL_MULTIPLIER, nominal_s),
             (OVERLOAD_MULTIPLIER, overload_s))):
        arrivals = build_schedule(LoadgenConfig(
            duration_ms=1000.0 * seconds, rate_multiplier=multiplier,
            master_seed=seed + phase, retry_fraction=None))
        lines = []
        for arrival in arrivals:
            request_id = len(requests)
            requests[request_id] = Request(
                phase, arrival.at_ms, arrival.kind, arrival.exec_ms,
                report_deadline_ms(arrival.qc) if arrival.qc else 0.0,
                arrival.qc.total_max if arrival.qc else 0.0)
            lines.append((request_id, _encode(request_id, arrival)))
        phases.append(lines)
    return Schedule(phases, requests)


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    """Give the child the default SIGINT disposition.  A shell starts
    background jobs with SIGINT ignored, and an ignored SIGINT is
    inherited — the server would then never see its stop signal."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro serve`` child; :meth:`stop` interrupts and reaps it."""

    def __init__(self, root: pathlib.Path, seed: int,
                 dump: pathlib.Path | None) -> None:
        serve_args = ["--host", "127.0.0.1", "--port", "0",
                      "--policy", "QUTS", "--seed", str(seed)]
        if dump is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            launcher = pathlib.Path(__file__).with_name("serve_launcher.py")
            argv = [sys.executable, str(launcher), str(dump), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONUNBUFFERED="1", PYTHONFAULTHANDLER="1")
        self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True,
                                     preexec_fn=_default_sigint)
        self.pid = self.proc.pid
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        assert self.proc.stdout is not None
        deadline = now_ns() + int(SPAWN_TIMEOUT_S * 1e9)
        while now_ns() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                return host, int(port)
        self.stop()
        raise RuntimeError("the server did not start listening")

    def stop(self) -> int:
        """SIGINT (``repro serve``'s clean stop), then reap; returns the
        exit code.  A server that hangs gets SIGABRT, so the fault
        handler prints where it was stuck, and then SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGABRT)
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


# ----------------------------------------------------------------------
# The open-loop client
# ----------------------------------------------------------------------
class Client:
    def __init__(self, schedule: Schedule, pid: int) -> None:
        self.schedule = schedule
        self.pid = pid
        self.problems: list[str] = []
        self.outstanding = 0
        self.idle = asyncio.Event()
        #: Per phase: (first send ns, last reply ns, server CPU s,
        #: load-generator CPU s).
        self.windows: list[tuple[int, int, float, float]] = []

    async def _receive(self, reader: asyncio.StreamReader) -> None:
        requests = self.schedule.requests
        while True:
            line = await reader.readline()
            if not line:
                return
            at = now_ns()
            try:
                reply = json.loads(line)
                request = requests.get(reply.get("id"))
            except (ValueError, AttributeError, TypeError):
                self.problems.append(f"malformed reply {line[:80]!r}")
                continue
            if request is None:
                self.problems.append(f"reply for unknown id {reply!r}")
                continue
            if request.reply is not None:
                self.problems.append(f"second reply for id {reply['id']}")
                continue
            request.reply = reply
            request.recv_ns = at
            self.outstanding -= 1
            if self.outstanding == 0:
                self.idle.set()

    async def _phase(self, writer: asyncio.StreamWriter,
                     lines: list[tuple[int, bytes]]) -> None:
        requests = self.schedule.requests
        cpu_start = proc_cpu_s(self.pid)
        own_start = cpu_s()
        origin = now_ns() + LEAD_NS
        first = origin
        for request_id, line in lines:
            request = requests[request_id]
            due = origin + int(request.at_ms * 1e6)
            delay = due - now_ns()
            if delay > 0:
                await asyncio.sleep(delay / 1e9)
            request.due_ns = due
            request.sent_ns = now_ns()
            self.outstanding += 1
            self.idle.clear()
            writer.write(line)
        await writer.drain()
        try:
            await asyncio.wait_for(self.idle.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.problems.append(f"{self.outstanding} requests unanswered "
                                 f"{DRAIN_TIMEOUT_S:.0f} s after the last "
                                 f"send")
        last = max((requests[i].recv_ns for i, _ in lines), default=first)
        self.windows.append((first, max(last, first),
                             proc_cpu_s(self.pid) - cpu_start,
                             cpu_s() - own_start))

    async def run(self, host: str, port: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        receiver = asyncio.get_running_loop().create_task(
            self._receive(reader))
        try:
            for lines in self.schedule.phases:
                await self._phase(writer, lines)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            try:
                await asyncio.wait_for(receiver, 10.0)
            except asyncio.TimeoutError:
                receiver.cancel()


@dataclasses.dataclass
class Session:
    """One server's life: set-up times, the driven schedule, the verdict."""

    setup_s: list[float]
    schedule: Schedule
    client: Client
    peak_rss_mb: float
    exit_code: int
    warmup_ms: float

    @property
    def busy_s(self) -> float:
        """Server CPU over both phases."""
        return sum(window[2] for window in self.client.windows)

    @property
    def loadgen_s(self) -> float:
        """Load-generator CPU over the same windows."""
        return sum(window[3] for window in self.client.windows)

    @property
    def wall_s(self) -> float:
        return sum(end - start
                   for start, end, *_ in self.client.windows) / 1e9

    @property
    def reference_busy_s(self) -> float:
        """Server CPU rescaled to the reference host, with the load
        generator's CPU in the same windows as the probe.

        On a shared 2-vCPU host the server's CPU per request swung with
        the host's speed: by 20% between runs of one seed, and by 25%
        between two sets of runs minutes apart.  The load generator ran at the same time on
        the same host, sending and decoding the same requests, with
        none of the repository's code.  Its CPU per request moved with
        the server's (the ratio of the two spread 2%), so dividing it
        out keeps the program's share and drops the host's.
        """
        offered = len(self.schedule.requests)
        loadgen_us = 1e6 * self.loadgen_s / offered
        return self.busy_s * REFERENCE_LOADGEN_US / loadgen_us


def session(root: pathlib.Path, seed: int, seconds: float, size: Size,
            setups: int, dump: pathlib.Path | None = None) -> Session:
    """Set up ``setups`` times (keeping the last server), then drive it.

    Set-up times are rescaled to the reference host like the DES
    timings; nothing after set-up is, since a probe would hold up the
    load generator's sends."""
    setup_s = []
    server = None
    schedule = None
    for _ in range(setups):
        if server is not None:
            server.stop()
        before = probe_s()
        start = now_ns()
        server = Server(root, seed, dump)
        schedule = build(seed, size.nominal_share * seconds,
                         size.overload_share * seconds)
        took = (now_ns() - start) / 1e9
        setup_s.append(to_reference(took, before, probe_s()))
    assert server is not None and schedule is not None
    client = Client(schedule, server.pid)
    try:
        asyncio.run(client.run(server.host, server.port))
        peak = proc_peak_rss_mb(server.pid)
    finally:
        exit_code = server.stop()
    return Session(setup_s, schedule, client, peak, exit_code,
                   size.warmup_ms)


# ----------------------------------------------------------------------
# Gate and metrics
# ----------------------------------------------------------------------
def gate(s: Session) -> tuple[list[str], int, dict[str, int]]:
    """Problems, failed requests, and outcome counts over all requests."""
    problems = list(s.client.problems)
    outcomes = {outcome: 0 for outcome in REPLY_OUTCOMES}
    missing = 0
    for request in s.schedule.requests.values():
        if request.reply is None:
            missing += 1
            continue
        outcome = request.reply.get("outcome")
        if outcome not in outcomes:
            problems.append(f"unknown outcome {outcome!r}")
            continue
        outcomes[outcome] += 1
    if missing:
        problems.append(f"{missing} requests got no reply")
    if sum(outcomes.values()) + missing != len(s.schedule.requests):
        problems.append("outcomes do not sum to the requests offered")
    if s.exit_code != 0:
        problems.append(f"the server exited with code {s.exit_code}")
    failed = missing + outcomes["error"] + outcomes["unfinished"]
    return problems, failed, outcomes


def _queries(s: Session, phase: int) -> list[Request]:
    return [r for r in s.schedule.requests.values()
            if r.phase == phase and r.kind == "query"]


def _completed(requests: typing.Iterable[Request]) -> list[Request]:
    return [r for r in requests
            if r.reply is not None and r.reply.get("outcome") == "completed"]


def _steady(s: Session) -> list[Request]:
    """Completed nominal-phase queries due after the warm-up.

    Queries due in the warm-up are served and gated but left out of the
    latency percentiles: while the server warms up (first code paths,
    QUTS's rho adapting from its initial value once per second) it gave
    nearly all of the 20 slowest answers, and the p99 swung by half
    between runs of the same seed.
    """
    return [r for r in _completed(_queries(s, 0))
            if r.at_ms >= s.warmup_ms]


def end_to_end(s: Session) -> dict[str, float]:
    nominal = sorted(r.latency_ms for r in _steady(s))
    overload = _queries(s, 1)
    met = sum(1 for r in _completed(overload)
              if r.latency_ms <= r.deadline_ms)
    queries = _queries(s, 0) + overload
    earned = sum(r.reply["qos"] + r.reply["qod"]
                 for r in _completed(queries) if r.reply is not None)
    answered = sum(1 for r in s.schedule.requests.values()
                   if r.reply is not None)
    offered = len(s.schedule.requests)
    return {
        "setup_s": median(s.setup_s),
        "replay_txn_per_s": answered / s.wall_s,
        "peak_rss_mb": s.peak_rss_mb,
        "total_profit_pct": 100.0 * earned / sum(r.max_profit
                                                 for r in queries),
        "query_p50_ms": percentile(nominal, 0.5),
        "query_p99_ms": percentile(nominal, tail_quantile(len(nominal))),
        "goodput": met / len(overload),
        "gateway_cpu_us_per_req": 1e6 * s.reference_busy_s / offered,
    }


def serve_metrics(s: Session, outcomes: dict[str, int]) -> dict[str, float]:
    """The client-side per-layer numbers of the serve layer."""
    done = _completed(r for r in s.schedule.requests.values()
                      if r.kind == "query")
    queue = sorted(r.reply["rt_ms"] - r.exec_ms for r in done
                   if r.reply is not None)
    wire = sorted((r.recv_ns - r.sent_ns) / 1e6 - r.reply["rt_ms"]
                  for r in done if r.reply is not None)
    lag = sorted((r.sent_ns - r.due_ns) / 1e6
                 for r in s.schedule.requests.values() if r.sent_ns)
    metrics = {
        "serve.queue_ms_p50": percentile(queue, 0.5),
        "serve.wire_ms_p50": percentile(wire, 0.5),
        "serve.cpu_busy_share": s.busy_s / s.wall_s,
        "loadgen.lag_ms_p99": percentile(lag, tail_quantile(len(lag))),
    }
    for outcome, count in outcomes.items():
        metrics[f"serve.outcome.{outcome}"] = count
    return metrics


def des_serve_metrics() -> dict[str, float]:
    """The client-side serve metrics on a workload without a server."""
    metrics = {"serve.queue_ms_p50": 0.0, "serve.wire_ms_p50": 0.0,
               "serve.cpu_busy_share": 0.0, "loadgen.lag_ms_p99": 0.0}
    for outcome in REPLY_OUTCOMES:
        metrics[f"serve.outcome.{outcome}"] = 0
    return metrics


def run(root: pathlib.Path, seed: int, seconds: float,
        size: Size) -> dict[str, typing.Any]:
    s = session(root, seed, seconds, size, size.live_setups)
    problems, failed, outcomes = gate(s)
    nominal = len(_steady(s))
    offered = len(s.schedule.requests)
    return {"attempted": offered, "failed": failed,
            "failures": problems, "metrics": end_to_end(s),
            "notes": {"outcomes": outcomes, "nominal_completed": nominal,
                      "latency_quantile": tail_quantile(nominal),
                      "raw_server_cpu_us_per_req": 1e6 * s.busy_s / offered,
                      "loadgen_cpu_us_per_req": 1e6 * s.loadgen_s / offered,
                      "phases": [{"requests": len(lines),
                                  "wall_s": (end - start) / 1e9,
                                  "server_cpu_s": cpu,
                                  "loadgen_cpu_s": own}
                                 for lines, (start, end, cpu, own) in zip(
                                     s.schedule.phases, s.client.windows)]}}


def run_traced(root: pathlib.Path, seed: int, seconds: float, size: Size,
               dump: pathlib.Path) -> dict[str, typing.Any]:
    """An untraced and a traced session on the same schedule: the
    traced server's span aggregates, client-side serve metrics, and the
    tracing overhead as the ratio of server CPU per request."""
    # A fresh checkout has no output directory yet, and the server
    # writes its spans there on exit.
    dump.parent.mkdir(parents=True, exist_ok=True)
    plain = session(root, seed, seconds, size, 1)
    traced = session(root, seed, seconds, size, 1, dump)
    problems, failed, _ = gate(plain)
    traced_problems, traced_failed, outcomes = gate(traced)
    recorder = tracing.SpanRecorder.from_snapshot(
        json.loads(dump.read_text()))
    metrics = tracing.layer_metrics(recorder, replay_s=0.0,
                                    busy_ns=traced.busy_s * 1e9)
    metrics.update(serve_metrics(traced, outcomes))
    # Counted from DES results only: the live server reports no ρ
    # series, takes no locks and has no topology.
    metrics.update({"scheduling.rho_updates": 0, "db.restarts": 0,
                    "shard.rebalances": 0,
                    "shard.keys_moved": 0,
                    "trace.overhead_x": (traced.reference_busy_s
                                         / plain.reference_busy_s)})
    return {"attempted": 2 * len(traced.schedule.requests),
            "failed": failed + traced_failed,
            "failures": problems + traced_problems, "metrics": metrics,
            "notes": {"server_cpu_s": traced.busy_s,
                      "untraced_server_cpu_s": plain.busy_s}}
