"""Command-line launcher for registered flows.

Examples::

    python -m repro.flows --list
    python -m repro.flows vrank --model chatgpt-3.5 --seed 1
    python -m repro.flows autochip --problems c2_gray,c2_absdiff --jobs 4
    python -m repro.flows vrank --store .repro-store --resume
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, is_dataclass
from typing import Any

from ..bench.problems import all_problems, get_problem
from ..cli import (CliError, activate_store, add_seed_argument,
                   add_store_arguments, build_parser, fail)
from ..engine import Budget
from ..store import CampaignJournal
from .registry import RunRequest, get_flow, list_flows


def _summarize(result: Any) -> Any:
    if isinstance(result, list):
        return [_summarize(item) for item in result]
    if is_dataclass(result) and not isinstance(result, type):
        summary = getattr(result, "summary", None)
        if callable(summary):
            return summary()
        return asdict(result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        prog="python -m repro.flows",
        description="List or launch the registered paper flows.")
    parser.add_argument("flow", nargs="?",
                        help="flow name (see --list)")
    parser.add_argument("--list", action="store_true", dest="list_flows",
                        help="list registered flows and exit")
    parser.add_argument("--model", default="gpt-4",
                        help="model profile name (default: gpt-4)")
    add_seed_argument(parser)
    parser.add_argument("--jobs", default=None,
                        help="worker count or 'auto' (default: serial)")
    parser.add_argument("--problems", default=None,
                        help="comma-separated problem ids "
                             "(default: every benchmark problem)")
    parser.add_argument("--tasks", default=None,
                        help="comma-separated task ids for the 'agent' "
                             "task suite (default: every task)")
    parser.add_argument("--budget-tokens", type=int, default=None,
                        help="per-run token ceiling (engine Budget)")
    parser.add_argument("--budget-evals", type=int, default=None,
                        help="per-run tool-evaluation ceiling")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="per-run wall-clock deadline in seconds")
    add_store_arguments(parser)
    args = parser.parse_args(argv)

    if args.list_flows or args.flow is None:
        for spec in list_flows():
            model_note = "" if spec.uses_model else "  [no model]"
            print(f"{spec.name:14s} {spec.summary}{model_note}")
        return 0

    try:
        spec = get_flow(args.flow)
    except KeyError as exc:
        return fail(exc.args[0])

    if args.problems:
        try:
            problems = [get_problem(pid.strip())
                        for pid in args.problems.split(",") if pid.strip()]
        except KeyError as exc:
            return fail(exc.args[0])
    else:
        problems = all_problems()

    tasks: tuple = ()
    if args.tasks:
        from ..tasks import get_task
        try:
            tasks = tuple(get_task(tid.strip()).task_id
                          for tid in args.tasks.split(",") if tid.strip())
        except KeyError as exc:
            return fail(exc.args[0])

    budget = None
    if (args.budget_tokens is not None or args.budget_evals is not None
            or args.deadline_s is not None):
        try:
            budget = Budget(max_tokens=args.budget_tokens,
                            max_evals=args.budget_evals,
                            deadline_s=args.deadline_s)
        except ValueError as exc:
            return fail(f"invalid budget: {exc}")

    try:
        store = activate_store(args)
    except CliError as exc:
        return fail(str(exc))

    request = RunRequest(problems=problems, model=args.model,
                         seed=args.seed, jobs=args.jobs, budget=budget,
                         tasks=tasks)
    if store is not None:
        journal = CampaignJournal(
            store, ("flow", spec.name) + request.fingerprint_parts(),
            resume=args.resume)
        request = RunRequest(problems=problems, model=args.model,
                             seed=args.seed, jobs=args.jobs, budget=budget,
                             store=journal, tasks=tasks)
    try:
        result = spec.launch(request)
    except ValueError as exc:
        return fail(str(exc))
    print(json.dumps(_summarize(result), indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
