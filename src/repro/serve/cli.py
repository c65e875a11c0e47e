"""CLI entry points: ``repro serve`` and ``repro loadgen``.

``repro serve`` runs the live gateway with a JSON-lines TCP front until
interrupted; ``repro loadgen`` drives one in-process policy × load cell
(or a TCP target) and prints the cell report as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import typing

from repro.scheduling import make_scheduler
from repro.sim.invariants import InvariantViolation

from .gateway import GatewayConfig, GatewayFailed, QCGateway
from .loadgen import (LoadgenConfig, baseline_gateway_config,
                      defended_gateway_config, run_cell)
from .protocol import serve_tcp

SERVE_POLICIES = ("FIFO", "UH", "QH", "QUTS", "FIFO-UH", "FIFO-QH",
                  "QUTS-inherit")


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", default="QUTS", choices=SERVE_POLICIES,
                        help="scheduling policy (default QUTS)")
    parser.add_argument("--admission", default="brownout",
                        choices=("none", "shed", "brownout"),
                        help="overload admission mode (default brownout)")
    parser.add_argument("--max-pending", type=int, default=256,
                        help="bounded-ingress query capacity before "
                             "backpressure (default 256; the update "
                             "bound is 8x this)")
    parser.add_argument("--no-deadlines", action="store_true",
                        help="disable deadline-based cancellation of "
                             "expired work")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for the gateway's named "
                             "streams")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the live QC gateway (the simulator's scheduling "
                    "core on a monotonic clock) behind a JSON-lines TCP "
                    "front")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 lets the OS pick; default 8642)")
    _add_gateway_args(parser)
    return parser


def _gateway_from_args(args: argparse.Namespace) -> QCGateway:
    from .loadgen import _admission_for
    config = GatewayConfig(max_pending_queries=args.max_pending,
                           max_pending_updates=8 * args.max_pending,
                           drop_expired=not args.no_deadlines)
    if args.no_deadlines:
        config.deadline_factor = None
    return QCGateway(make_scheduler(args.policy), config,
                     admission=_admission_for(args.admission),
                     master_seed=args.seed)


async def _serve_forever(args: argparse.Namespace) -> None:
    """Serve until interrupted, or until a gateway task dies (then
    ``gateway.stop()`` raises :class:`GatewayFailed`)."""
    gateway = _gateway_from_args(args)
    await gateway.start()
    server = await serve_tcp(gateway, args.host, args.port)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"repro serve: policy={args.policy} admission={args.admission} "
          f"listening on {host}:{port}")
    try:
        await gateway.failed()
    finally:
        server.close()
        await server.wait_closed()
        await gateway.stop()


def serve_main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_serve_parser().parse_args(argv)
    # SIGINT is the stop signal.  A shell starts background jobs with
    # SIGINT ignored and children inherit that, so take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("repro serve: interrupted, shutting down")
    except (GatewayFailed, InvariantViolation) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 1
    return 0


def build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Open-loop load harness: Poisson arrivals, "
                    "Zipf-skewed keys, QC contracts; drives an "
                    "in-process gateway cell and prints the report "
                    "as JSON")
    _add_gateway_args(parser)
    parser.add_argument("--duration-ms", type=float, default=2_500.0,
                        help="offered-load window (default 2500)")
    parser.add_argument("--multiplier", type=float, default=1.0,
                        help="load multiplier on the base rates "
                             "(default 1.0)")
    parser.add_argument("--baseline", action="store_true",
                        help="run the no-defenses baseline instead of "
                             "the defended stack")
    parser.add_argument("--retry-fraction", type=float, default=0.1,
                        help="client retry-budget fraction "
                             "(default 0.1; negative disables retries)")
    return parser


def loadgen_main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_loadgen_parser().parse_args(argv)
    retry: float | None = args.retry_fraction
    if retry is not None and retry < 0:
        retry = None
    config = LoadgenConfig(duration_ms=args.duration_ms,
                           rate_multiplier=args.multiplier,
                           master_seed=args.seed,
                           retry_fraction=retry)
    report = run_cell(args.policy, defended=not args.baseline,
                      admission=args.admission, config=config)
    report["defended"] = not args.baseline
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


__all__ = [
    "baseline_gateway_config",
    "build_loadgen_parser",
    "build_serve_parser",
    "defended_gateway_config",
    "loadgen_main",
    "serve_main",
]
