"""One measured benchmark process: set up, run cells, check, report.

``run.py`` starts one of these per workload run, so every run starts cold
like a real campaign process.  The child clears every ``REPRO_*`` variable
before importing ``repro``, so it always measures the default
configuration, and every cell passes ``jobs=1``.

Set-up time runs from the parent's spawn (``--spawned-at``, a
``time.monotonic()`` reading; the clock is system-wide) through imports
and input generation to the moment the first cell could start.  The last
stdout line is ``E2E-RESULT <json>``; each of its cell records is
``[type key, round, seconds, passed checks, peak RSS MB, digest, start,
work]``, where the peak RSS is the high-water mark during that cell
alone, the start is seconds into the timed section, the seconds leave out
the reference probes that interrupted the cell, and the work is the
instructions an SLT cell's rig retired (``None`` for other cells).
``probes`` lists the probes of the timed section, ``[seconds into it,
loop seconds]``, and ``setup_slowdown`` is the host's slowdown during
set-up (see ``pace.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MARK = "E2E-RESULT "
SAMPLER_SPARE_S = 300


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after set-up (a set-up time sample)")
    ap.add_argument("--smoke", action="store_true",
                    help="run the first cell of each kind, untimed")
    ap.add_argument("--record-rounds", type=int, default=0,
                    help="run exactly this many rounds instead of "
                         "--seconds, without comparing digests")
    return ap.parse_args(argv)


def _emit(payload: dict) -> None:
    sys.stdout.write(MARK + json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mb(reset: bool) -> float:
    """The process's peak RSS (Linux ``VmHWM``) since the last reset; with
    ``reset``, start a new peak from the current RSS.  Where ``/proc`` is
    missing, the lifetime peak."""
    try:
        with open("/proc/self/status") as fh:
            hwm = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
        if reset:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
    except (OSError, StopIteration):
        hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return hwm / 1024.0


def _cache_counts(cache) -> dict[str, tuple[int, int]]:
    return {layer: (s.hits, s.misses) for layer, s in cache.stats().items()}


def _hit_frac(before: dict, after: dict, layer: str) -> float:
    hits = after[layer][0] - before[layer][0]
    lookups = hits + after[layer][1] - before[layer][1]
    return hits / lookups if lookups else 0.0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # The sampler starts before the imports, so set-up is scaled too.  A
    # traced run reports no scaled time and leaves it off, so that no probe
    # lands inside a span.  Its room covers set-up and the last cell.
    room = args.seconds + SAMPLER_SPARE_S
    with nullcontext() if args.trace else pace.Sampler(room) as sampler:
        return _main(args, sampler)


def _main(args: argparse.Namespace, sampler: pace.Sampler | None) -> int:
    began = time.perf_counter()
    clock = sampler.clock if sampler else time.perf_counter
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))

    # -- set-up: imports and input generation --------------------------------
    import cells
    import spans
    from repro.config import get_settings
    from repro.hdl import get_default_cache

    kinds = cells.kinds(args.workload) if args.smoke else set()
    expected_path = HERE / "expected.json"
    expected: list[str] = []
    if expected_path.exists() and not args.record_rounds:
        recorded = json.loads(expected_path.read_text())
        expected = recorded.get(args.workload, {}).get(str(args.seed), [])
    stream = cells.stream(args.workload, args.seed)
    limit = (cells.rounds_prefix(args.workload, args.seed,
                                 args.record_rounds)
             if args.record_rounds else None)
    # Probe time spent so far is not set-up time.
    setup_s = time.monotonic() - args.spawned_at - (
        time.perf_counter() - clock())
    setup_slowdown = pace.slowdowns(sampler.probes, [
        (began, time.perf_counter())])[0] if sampler else 1.0
    if args.setup_only:
        _emit({"setup_s": setup_s, "setup_slowdown": setup_slowdown})
        return 0

    # -- timed section -------------------------------------------------------
    recorder = spans.Recorder() if args.trace else None
    span_cost = spans.calibrate_overhead() if args.trace else 0.0
    cache = get_default_cache()
    cache_before = _cache_counts(cache)
    records: list[list] = []
    counts: dict[str, int] = {}
    checked = 0
    process_peak = 0.0
    patch = spans.patched(recorder) if recorder else nullcontext()
    with patch:
        start = time.perf_counter()
        for cell in stream:
            if limit is not None:
                if cell.index >= limit:
                    break
            elif args.smoke:
                if not kinds:
                    break
                if cell.kind not in kinds:
                    continue
                kinds.discard(cell.kind)
            elif time.perf_counter() - start >= args.seconds:
                break
            known = expected[cell.index] if cell.index < len(expected) \
                else None
            checked += known is not None
            # The reset also resets ``ru_maxrss``, so the process peak is
            # the largest of the peaks read here.
            process_peak = max(process_peak, _peak_rss_mb(reset=True))
            cell_start = time.perf_counter() - start
            outcome = cells.execute(cell, known,
                                    recorder.cell if recorder else None,
                                    clock)
            peak_mb = _peak_rss_mb(reset=False)
            for key, n in outcome.counts.items():
                counts[key] = counts.get(key, 0) + n
            for problem in outcome.problems:
                print(f"FAIL cell {cell.index} ({cell.label}): {problem}",
                      file=sys.stderr)
            records.append([cell.key, cell.round_no, outcome.seconds,
                            not outcome.problems, peak_mb, outcome.digest,
                            cell_start, outcome.work])
    probes = [(t - start, s) for t, s in sampler.probes if t >= start] \
        if sampler else []

    payload = {
        "workload": args.workload, "seed": args.seed, "setup_s": setup_s,
        "setup_slowdown": setup_slowdown, "cells": records,
        "probes": probes, "digests_checked": checked,
        "process_peak_rss_mb": max(process_peak,
                                   _peak_rss_mb(reset=False)),
        "settings": get_settings().snapshot(),
    }
    if recorder is not None:
        cache_after = _cache_counts(cache)
        done = recorder.spans    # every span is closed once the cells end
        layers = spans.rollup(done, recorder.counts)
        cell_s = sum(r[2] for r in records)
        sims = counts.get("hls.tester.sims", 0)
        repairs = counts.get("hls.repair.cells", 0)
        layers.update({
            "hdl.compile.cache_hit_frac":
                _hit_frac(cache_before, cache_after, "design"),
            "hdl.sim.result_memo_hit_frac":
                _hit_frac(cache_before, cache_after, "result"),
            "hls.tester.skip_frac":
                counts.get("hls.tester.skipped", 0) / sims if sims else 0.0,
            "hls.repair.success_frac":
                counts.get("hls.repair.succeeded", 0) / repairs
                if repairs else 0.0,
            "trace.cells": len(records),
            "trace.cell_s": cell_s,
            "trace.overhead_frac":
                len(done) * span_cost / cell_s if cell_s else 0.0,
        })
        payload["layers"] = layers
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        # One line per span: name, start and end in microseconds from the
        # first span, parent line number (-1 for a cell), cell index.
        path = out / f"spans-{args.workload}-s{args.seed}.jsonl"
        base = done[0][1] if done else 0.0
        with path.open("w") as fh:
            for name, t0, t1, parent, index in done:
                fh.write(json.dumps([name, round((t0 - base) * 1e6),
                                     round((t1 - base) * 1e6), parent,
                                     index]) + "\n")
        payload["spans_file"] = str(path.relative_to(ROOT))
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
