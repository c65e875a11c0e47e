"""Shared measurement helpers: host clock, CPU, memory, order statistics."""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import typing

#: The seed the stored reference fingerprints were taken with.
DEFAULT_SEED = 1

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


@dataclasses.dataclass(frozen=True)
class Size:
    """How much work one run does (the benchmark's run length is fixed
    by ``--seconds``; this fixes the size of each unit of work)."""

    #: DES trace slice, simulated ms at the paper's arrival rates.
    slice_ms: float
    #: Distinct slices (seeds derived from the run's seed) a DES run
    #: replays at least once each; averaging over several keeps one
    #: slice's flash crowds from deciding the run's profit.
    slices: int
    #: Live set-ups per run (server spawns); the median is reported.
    live_setups: int
    #: Share of ``--seconds`` spent in the live nominal / overload phase.
    nominal_share: float
    overload_share: float
    #: Start of the nominal phase left out of the latency percentiles.
    warmup_ms: float


#: The live nominal phase gets most of the run: its tail percentile
#: needs 1,000+ completed queries at 100 queries/s.
FULL = Size(slice_ms=60_000.0, slices=3, live_setups=3,
            nominal_share=0.8, overload_share=0.08, warmup_ms=3_000.0)
#: The benchmark's own tests: every code path, seconds not minutes.
SMOKE = Size(slice_ms=4_000.0, slices=2, live_setups=1,
             nominal_share=0.5, overload_share=0.5, warmup_ms=0.0)


def now_ns() -> int:
    """Host monotonic clock in ns — the benchmark's one host-time source."""
    # Timing the host is the point of a benchmark; simulated results
    # never read this value (they are fingerprinted instead).
    return time.perf_counter_ns()  # repro: lint-ignore[no-wall-clock]


def _probe_work() -> int:
    """A fixed slice of interpreter-bound work: heap, dict and tuple
    churn like the simulator's, but none of the repository's code, so no
    change to the program can move it."""
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for i in range(4_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i % 512] = (i, total)
        if len(heap) > 256:
            total += heapq.heappop(heap)[1]
    return total


#: The probe time of the reference host that DES timings are scaled to.
REFERENCE_PROBE_S = 0.005
#: Probe runs per probe.
PROBE_REPEATS = 25


def probe_s() -> float:
    """How long the host takes for :func:`_probe_work` right now: the
    median of :data:`PROBE_REPEATS` runs (about 0.1 s in all), so a
    single interruption does not count."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = now_ns()
        _probe_work()
        samples.append((now_ns() - start) / 1e9)
    return statistics.median(samples)


def to_reference(seconds: float, before: float, after: float) -> float:
    """Rescale host ``seconds`` measured between probes ``before`` and
    ``after`` to the reference host.

    This host's speed for interpreter-bound work swung by up to 2x
    within minutes (other tenants), and with it every raw timing; the
    probes around an interval track that swing, and dividing it out cut
    the run-to-run spread of replay throughput about threefold.
    """
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2.0)


def cpu_s() -> float:
    """User + system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of proc(5), counted after the ")" of the name.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values: typing.Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(ordered: typing.Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values (0.0 if empty)."""
    if not ordered:
        return 0.0
    index = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def tail_quantile(n: int, q: float = 0.99) -> float:
    """``q``, lowered until :data:`TAIL_SAMPLES` of ``n`` samples lie
    beyond it — but never below the median."""
    return max(0.5, min(q, 1.0 - TAIL_SAMPLES / n)) if n else 0.5


def digest(payload: typing.Any) -> str:
    """A stable hex digest of a result payload (floats at full precision)."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def host_metadata(root: str) -> dict[str, typing.Any]:
    """Machine context in the shape ``benchmarks/conftest.py`` stamps on
    every artifact, plus the source revision when it is knowable."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
    }


def _git_sha(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported checkout carries no revision
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"
