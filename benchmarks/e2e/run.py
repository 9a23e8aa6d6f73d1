"""End-to-end benchmark over the paper's case studies.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed S]
        [--seconds T] [--repeat N] [--trace [0|1]] [--smoke] [--record]

Each workload run is one fresh child process (``child.py``) that runs a
seeded stream of cells, one at a time with ``jobs=1``, for ``--seconds``
of wall time, and checks every result.  An untraced run reports the
end-to-end metrics of ``BENCHMARK.json``, its times scaled to a nominal
host speed (``pace.py``) and, for SLT cells, to a nominal amount of rig
work (``NOMINAL_WORK``); a ``--trace`` run reports the per-layer metrics
instead.  Every metric is printed by name and unit, the
whole invocation is written to ``benchmarks/e2e/out/``, and the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when any cell failed a check.

``--smoke`` runs the first cell of each kind of every workload.
``--record`` rewrites ``expected.json`` from seeds 0-2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
MARK = "E2E-RESULT "
SETUP_SAMPLES = 8           # set-up samples per run besides the measured one
RECORD_SEEDS = (0, 1, 2)
# Rounds recorded per seed; cells of later rounds get only the invariants.
RECORD_ROUNDS = {"rtl_gen": 6, "hls_flow": 20, "slt_power": 8,
                 "trojan_signoff": 20}
CHILD_GRACE_S = 150         # a cell started just before the deadline
# An SLT cell's time is read at this many retired instructions, about a
# median cell's, since its generated program sets its work (cells.py).
NOMINAL_WORK = 250_000
# Numbers printed and saved beside the end-to-end metrics but not gated.
INFO_UNITS = {"host_slowdown": "x", "raw_setup_s": "s", "raw_round_s": "s",
              "raw_cell_p50_ms": "ms", "cells_per_s": "1/s",
              "cell_p90_ms": "ms", "process_peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run (exit code 2, no result line)."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spawn(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    """Run one child process and return its result payload."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--spawned-at", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: child timed out")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(MARK)]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: child exited "
                         f"{proc.returncode} without a result")
    return json.loads(lines[-1][len(MARK):])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload run: its metrics plus the accounting of its cells."""
    if trace:
        return account(spawn(workload, seed, seconds, "--trace", "1"), [])

    def samples(n: int) -> list[tuple[float, float]]:
        return [scaled_setup(spawn(workload, seed, seconds, "--setup-only"))
                for _ in range(n)]

    # Half the set-up samples before the measured child and half after, so
    # a slow spell of the host during one of them moves the median less.
    setups = samples(SETUP_SAMPLES // 2)
    payload = spawn(workload, seed, seconds)
    setups.append(scaled_setup(payload))
    return account(payload,
                   setups + samples(SETUP_SAMPLES + 1 - len(setups)))


def scaled_setup(payload: dict) -> tuple[float, float]:
    """(measured, scaled) set-up seconds of one child."""
    return payload["setup_s"], payload["setup_s"] / payload["setup_slowdown"]


def account(payload: dict, setups: list[tuple[float, float]]) -> dict:
    """A child's payload as a run: failure counts plus its metrics (the
    per-layer ones for a traced child).  ``setups`` holds (measured,
    scaled) set-up seconds."""
    # [key, round, seconds, ok, peak MB, digest, start, work]
    cells = payload["cells"]
    failed = sum(not c[3] for c in cells)
    trace = "layers" in payload
    run = {"workload": payload["workload"], "seed": payload["seed"],
           "trace": trace, "attempted": len(cells), "failed": failed,
           "fail_frac": failed / len(cells) if cells else 1.0,
           "digests_checked": payload["digests_checked"],
           "settings": payload["settings"]}
    if trace:
        run["metrics"] = payload["layers"]
        run["spans_file"] = payload["spans_file"]
        return run
    raw = [c[2] for c in cells]
    slow = pace.slowdowns([tuple(p) for p in payload["probes"]],
                          [(c[6], c[6] + c[2]) for c in cells])
    times = [t / s * (NOMINAL_WORK / c[7] if c[7] else 1.0)
             for t, s, c in zip(raw, slow, cells)]
    run["metrics"] = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "round_s": round_seconds(cells, times),
        "cell_p50_ms": statistics.median(times) * 1e3,
        "cell_peak_rss_mb": statistics.median(c[4] for c in cells),
    }
    # Reported, not gated: the raw times and the host's slowdown show what
    # the scaling did; the mean rate moves with every slow spell of a
    # shared host; and the lifetime peak is the largest single cell (one
    # SLT trace), so it varies far beyond any bound.
    run["info"] = {
        "host_slowdown": statistics.median(slow),
        "raw_setup_s": statistics.median(r for r, _ in setups),
        "raw_round_s": round_seconds(cells, raw),
        "raw_cell_p50_ms": statistics.median(raw) * 1e3,
        "cells_per_s": len(raw) / sum(raw),
        "process_peak_rss_mb": payload["process_peak_rss_mb"]}
    p90 = p90_ms(times)
    if p90 is not None:
        run["info"]["cell_p90_ms"] = p90
    return run


def round_seconds(cells: list[list], seconds: list[float]) -> float:
    """Seconds for one round at median speed: the sum, over cell types, of
    the type's median cell time (``seconds``, one per cell) times the
    type's cells per round.

    Per-type medians make this a throughput measure that a slow spell
    covering less than half of a type's cells does not move, while a
    change to any one type's cost moves it by that type's share.  The
    weights come from the complete rounds (all but the last) when there
    are any.
    """
    times: dict[str, list[float]] = {}
    for cell, t in zip(cells, seconds):
        times.setdefault(cell[0], []).append(t)
    last = max(c[1] for c in cells)
    complete = [c for c in cells if c[1] < last] or cells
    rounds = len({c[1] for c in complete})
    counts: dict[str, int] = {}
    for c in complete:
        counts[c[0]] = counts.get(c[0], 0) + 1
    return sum(n / rounds * statistics.median(times[key])
               for key, n in counts.items())


def p90_ms(times: list[float]) -> float | None:
    """p90 cell latency, only where ten samples lie beyond it (n >= 100);
    a tail percentile over fewer samples is noise."""
    if len(times) < 100:
        return None
    return statistics.quantiles(times, n=10)[8] * 1e3


def record(workloads: list[str]) -> int:
    """Rewrite the digests of ``workloads`` in ``expected.json``, keeping
    those of the other workloads."""
    path = HERE / "expected.json"
    expected: dict[str, dict[str, list[str]]] = (
        json.loads(path.read_text()) if path.exists() else {})
    failed = 0
    for workload in workloads:
        expected[workload] = {}
        for seed in RECORD_SEEDS:
            payload = spawn(workload, seed, 0, "--record-rounds",
                            str(RECORD_ROUNDS[workload]))
            expected[workload][str(seed)] = [c[5] for c in payload["cells"]]
            failed += sum(not c[3] for c in payload["cells"])
            print(f"recorded {workload} seed {seed}: "
                  f"{len(payload['cells'])} cells", flush=True)
    if failed:
        print(f"{failed} cells failed an invariant; expected.json not "
              f"written", file=sys.stderr)
        return 1
    path.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def print_table(runs: list[dict], units: dict[str, str]) -> None:
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    for workload, group in by_workload.items():
        cells = sum(r["attempted"] for r in group)
        failed = sum(r["failed"] for r in group)
        print(f"\n{workload}: {len(group)} run(s), {cells} cells, "
              f"{failed} failed, "
              f"{sum(r['digests_checked'] for r in group)} digests checked")
        print(f"  {'metric':34s} {'unit':8s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s}")
        rows = [(name, units[name], [r["metrics"][name] for r in group])
                for name in units]
        for name, unit in INFO_UNITS.items():
            if all(name in r.get("info", {}) for r in group):
                rows.append((f"({name})", unit,
                             [r["info"][name] for r in group]))
        for name, unit, values in rows:
            q1, med, q3 = quartiles(values)
            print(f"  {name:34s} {unit:8s} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    if args.record:
        return record(workloads)

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}
    started = time.strftime("%Y%m%dT%H%M%S")
    runs = []
    try:
        for workload in workloads:
            for _ in range(args.repeat):
                if args.smoke:
                    payload = spawn(workload, args.seed, args.seconds,
                                    "--smoke")
                    run = account(payload, [scaled_setup(payload)])
                    print(f"smoke {workload}: {run['attempted']} cells, "
                          f"{run['failed']} failed", flush=True)
                    runs.append(run)
                    continue
                run = measure(workload, args.seed, args.seconds,
                              bool(args.trace))
                missing = set(units) - set(run["metrics"])
                if missing:
                    raise BenchError(f"{workload}: no value for "
                                     f"{sorted(missing)}")
                runs.append(run)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics: dict[str, dict] = {}
    if not args.smoke:
        print_table(runs, units)
        single = len(workloads) == 1
        for workload in workloads:
            group = [r for r in runs if r["workload"] == workload]
            for name, unit in units.items():
                value = statistics.median(r["metrics"][name] for r in group)
                key = name if single else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": unit}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        kind = "trace" if args.trace else "e2e"
        path = out / f"{started}-{kind}-s{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps({
            "meta": {"git_sha": git_sha(), "nproc": os.cpu_count(),
                     "python": platform.python_version(),
                     "platform": platform.platform(),
                     "started": started, "argv": sys.argv[1:],
                     "seconds": args.seconds, "seed": args.seed,
                     "trace": bool(args.trace),
                     "settings": runs[0]["settings"]},
            "runs": runs}, indent=1) + "\n")
        print(f"\nwrote {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
