"""Command-line fuzz driver.

Examples::

    python -m repro.fuzz --budget 200 --seed 4
    python -m repro.fuzz --budget 500 --seed 1 --corpus tests/corpus
    python -m repro.fuzz --seed 4 --replay 17          # re-run one case
    python -m repro.fuzz --seed 4 --show 17            # print its sources
    python -m repro.fuzz --budget 500 --store --resume # resume a campaign

``--store [DIR]`` journals every finished case to a checkpoint store
(default ``.repro-store``); ``--resume`` replays the journaled cases of
the same campaign (seed, config, oracles, shrink) instead of re-running
them, so a resumed or extended campaign prints what a fresh one would.

Exit status: 0 when every oracle agreed on every case, 1 when any
divergence was found (shrunk findings are written to the corpus
directory), 2 on usage errors.
"""

from __future__ import annotations

import json
import sys

from ..cli import (CliError, activate_store, add_seed_argument,
                   add_store_arguments, build_parser, fail)
from ..store import CampaignJournal
from .grammar import FuzzConfig, generate_case
from .oracles import ORACLES, run_oracles
from .runner import DEFAULT_CORPUS_DIR, campaign_fingerprint, run_campaign


def _parse_oracles(raw: str | None) -> tuple[str, ...] | None:
    if not raw:
        return None
    names = tuple(n.strip() for n in raw.split(",") if n.strip())
    for name in names:
        if name not in ORACLES:
            raise CliError(
                f"unknown oracle '{name}' (known: {', '.join(ORACLES)})")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the mini-Verilog toolchain.")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of cases to generate (default: 200)")
    add_seed_argument(parser, default=1)
    parser.add_argument("--corpus", default=DEFAULT_CORPUS_DIR,
                        help="directory for shrunk findings "
                             f"(default: {DEFAULT_CORPUS_DIR})")
    parser.add_argument("--no-corpus", action="store_true",
                        help="do not write finding files")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimizing them")
    parser.add_argument("--oracles", default=None,
                        help="comma-separated oracle subset "
                             f"(default: all of {', '.join(ORACLES)})")
    parser.add_argument("--replay", type=int, default=None, metavar="INDEX",
                        help="re-run the oracles for one case and exit")
    parser.add_argument("--show", type=int, default=None, metavar="INDEX",
                        help="print one case's sources and exit")
    parser.add_argument("--max-width", type=int, default=None,
                        help="override FuzzConfig.max_width")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-100-case progress line")
    add_store_arguments(parser)
    args = parser.parse_args(argv)

    config = FuzzConfig()
    if args.max_width is not None:
        if args.max_width < 1:
            parser.error("--max-width must be >= 1")
        config = FuzzConfig(max_width=args.max_width)
    try:
        oracle_names = _parse_oracles(args.oracles)
    except CliError as exc:
        parser.error(str(exc))

    if args.show is not None:
        case = generate_case(args.seed, args.show, config)
        print(f"// campaign seed={args.seed} case={args.show} "
              f"sequential={case.sequential} hierarchical={case.hierarchical}")
        print(case.dut_source)
        print(case.tb_source, end="")
        return 0

    if args.replay is not None:
        case = generate_case(args.seed, args.replay, config)
        reports = run_oracles(case, oracle_names)
        divergences = 0
        for report in reports:
            status = "skip" if report.skipped else \
                ("ok" if report.ok else "DIVERGENCE")
            line = f"{report.name:10s} {status}"
            if report.detail:
                line += f"  {report.detail}"
            print(line)
            divergences += report.divergence
        return 1 if divergences else 0

    if args.budget < 1:
        parser.error("--budget must be >= 1")

    try:
        store = activate_store(args)
    except CliError as exc:
        return fail(str(exc))
    journal = None
    if store is not None:
        shrink = not args.no_shrink
        journal = CampaignJournal(
            store,
            campaign_fingerprint(args.seed, config, oracle_names, shrink),
            resume=args.resume)

    def progress(index: int, findings: int) -> None:
        if not args.quiet and (index + 1) % 100 == 0:
            print(f"[fuzz] {index + 1}/{args.budget} cases, "
                  f"{findings} divergences", file=sys.stderr)

    result = run_campaign(
        args.budget, args.seed, config=config,
        corpus_dir=None if args.no_corpus else args.corpus,
        shrink=not args.no_shrink, oracle_names=oracle_names,
        progress=progress, journal=journal)

    print(json.dumps(result.summary(), indent=2))
    if journal is not None and args.resume:
        print(f"[fuzz] resume: {journal.restored} cases restored from the "
              f"journal, {journal.written} run", file=sys.stderr)
    if not result.ok:
        for finding in result.findings:
            where = finding.corpus_path or "<not written>"
            print(f"divergence: {finding.describe()} -> {where}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
