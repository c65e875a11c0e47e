"""Live serving: the simulator's scheduling core on real traffic.

``repro.serve`` binds the *same* :class:`~repro.scheduling.core.
SchedulerCore` policies the DES drives to a monotonic host clock and
serves them behind an asyncio gateway with an overload-robustness
layer: per-request QC deadlines with cooperative cancellation, bounded
ingress with explicit backpressure, admission-policy reuse
(shedding/brownout), honest QoD accounting for degraded answers, and a
budgeted client retry policy.  See ``docs/API.md`` §16.
"""

from .clock import ManualClock, MonotonicClock
from .gateway import (OUTCOMES, GatewayConfig, GatewayFailed, GatewayReply,
                      QCGateway)
from .loadgen import (DEADLINE_FACTOR, Arrival, LoadgenConfig,
                      RequestRecord, build_schedule, drive, run_cell,
                      summarize)
from .protocol import (ProtocolError, qc_from_wire, qc_to_wire,
                       serve_tcp)
from .retry import RetryBudget, RetryPolicy

__all__ = [
    "DEADLINE_FACTOR",
    "OUTCOMES",
    "Arrival",
    "GatewayConfig",
    "GatewayFailed",
    "GatewayReply",
    "LoadgenConfig",
    "ManualClock",
    "MonotonicClock",
    "ProtocolError",
    "QCGateway",
    "RequestRecord",
    "RetryBudget",
    "RetryPolicy",
    "build_schedule",
    "drive",
    "qc_from_wire",
    "qc_to_wire",
    "run_cell",
    "serve_tcp",
    "summarize",
]
