"""CLI: ``python -m repro.loadgen --users 500 --workers 8``."""

from __future__ import annotations

import json
import sys

from ..cli import (CliError, activate_store, add_seed_argument,
                   add_store_arguments, build_parser, fail)
from ..core.report import format_table
from ..service.broker import BrokerConfig
from .harness import run_load
from .workload import LoadConfig


def main(argv=None) -> int:
    parser = build_parser(
        prog="python -m repro.loadgen",
        description="Replay seeded user sessions against one model "
                    "broker and report latency/shed/breaker SLOs.")
    parser.add_argument("--users", type=int, default=500)
    add_seed_argument(parser)
    parser.add_argument("--duration", type=float, default=3.0,
                        help="arrival horizon in seconds (pre-scaling)")
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help=">1 compresses the schedule (faster runs)")
    parser.add_argument("--workers", type=int, default=3,
                        help="backend-call slots shared by every lane")
    parser.add_argument("--queue", type=int, default=64,
                        help="lane queue capacity")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the report as JSON to this path")
    add_store_arguments(parser, resume=False)
    args = parser.parse_args(argv)

    if args.users < 1:
        parser.error("--users must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.queue < 1:
        parser.error("--queue must be >= 1")
    try:
        activate_store(args)
    except CliError as exc:
        return fail(str(exc))

    cfg = LoadConfig(users=args.users, seed=args.seed,
                     duration_s=args.duration, time_scale=args.time_scale)
    broker_cfg = BrokerConfig(queue_capacity=args.queue,
                              max_concurrent=args.workers,
                              request_timeout_s=cfg.request_timeout_s)
    report = run_load(cfg, broker_config=broker_cfg)
    data = report.as_dict()
    rows = [[k, v] for k, v in data.items() if k != "per_tenant_ok"]
    print(format_table(["metric", "value"], rows))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if report.stranded:
        print(f"error: {report.stranded} stranded futures", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
