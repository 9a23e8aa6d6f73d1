"""Compare benchmark runs of a parent commit and a change.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--claim METRIC@WORKLOAD]

PARENT and CHANGE are ``run.py`` output files or directories of them
(``benchmarks/e2e/out/``); runs are taken in file-name order, which is
start-time order, and run ``i`` of each side forms pair ``i``.

For every end-to-end metric and workload the change's median may be worse
than the parent's by at most the metric's bound in ``BENCHMARK.json``, and
``cell_p90_ms`` by at most 10% where both sides report it.  A
metric whose spread (quartile distance over median, on either side) is
wider than its bound is *unresolved*, unless every change run reads
better than every parent run.  Any increase in failed cells is a
regression.  A ``--claim`` needs at least ten pairs, the change winning at
least nine tenths of them (ties count for neither), and medians that
differ by more than the parent's quartile distance.  Traced runs on both
sides add a per-layer self-time diff, per cell.  Exit code 1 means a
regression or an unmet claim.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import load_spec, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Gated here, not in BENCHMARK.json, whose end-to-end metrics every
# workload must report: a p90 needs 100 cells a run, which slt_power never
# has.  Compared on the workloads where both sides report it.
INFO_BOUNDS = {"cell_p90_ms": 0.10}


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        runs.extend(json.loads(file.read_text())["runs"])
    return runs


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def decide(parent: list[float], change: list[float], lower: bool,
           bound: float) -> tuple[str, float]:
    """("ok" | "REGRESSION" | "unresolved", how much worse, as a share of
    the parent median; negative is better)."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(_better(c, p, lower) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def claim(parent: list[float], change: list[float],
          lower: bool) -> tuple[bool, str]:
    """Section 8 of the choosing-metrics method, on paired runs."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return False, f"{len(pairs)} pairs, need {MIN_PAIRS}"
    wins = sum(_better(c, p, lower) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if wins < WIN_SHARE * len(pairs):
        return False, f"change won {wins}/{len(pairs)} pairs"
    if not _better(cm, pm, lower) or abs(cm - pm) <= p3 - p1:
        return False, (f"medians {pm:.6g} -> {cm:.6g} differ by no more "
                       f"than the parent IQR {p3 - p1:.6g}")
    return True, (f"won {wins}/{len(pairs)} pairs, median {pm:.6g} -> "
                  f"{cm:.6g} (parent IQR {p3 - p1:.6g})")


def _by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def compare_e2e(parent: list[dict], change: list[dict], spec: dict,
                claims: set[tuple[str, str]]) -> int:
    bad = 0
    p_by, c_by = _by_workload(parent), _by_workload(change)
    common = sorted(set(p_by) & set(c_by))
    if common:
        print(f"{'workload':16s} {'metric':14s} {'parent':>12s} "
              f"{'change':>12s} {'worse':>8s} {'bound':>6s}  verdict")
    for workload in common:
        p_runs, c_runs = p_by[workload], c_by[workload]
        gates = [(m["name"], m["better"] == "lower", m["bound"], "metrics")
                 for m in spec["end_to_end"]]
        gates += [(name, True, bound, "info")
                  for name, bound in INFO_BOUNDS.items()
                  if all(name in r["info"] for r in p_runs + c_runs)]
        for name, lower, bound, where in gates:
            p = [r[where][name] for r in p_runs]
            c = [r[where][name] for r in c_runs]
            verdict, worse = decide(p, c, lower, bound)
            bad += verdict == "REGRESSION"
            print(f"{workload:16s} {name:14s} {quartiles(p)[1]:12.6g} "
                  f"{quartiles(c)[1]:12.6g} {worse:+8.1%} "
                  f"{bound:6.0%}  {verdict}")
            if (name, workload) in claims:
                claims = claims - {(name, workload)}
                met, why = claim(p, c, lower)
                bad += not met
                print(f"  claim {name}@{workload}: "
                      f"{'MET' if met else 'NOT MET'} ({why})")
        p_frac = (sum(r["failed"] for r in p_runs)
                  / sum(r["attempted"] for r in p_runs))
        c_frac = (sum(r["failed"] for r in c_runs)
                  / sum(r["attempted"] for r in c_runs))
        if c_frac > p_frac:
            bad += 1
            print(f"{workload:16s} fail_frac {p_frac:.4f} -> {c_frac:.4f}"
                  f"  REGRESSION")
    for name, workload in sorted(claims):
        bad += 1
        print(f"claim {name}@{workload}: NOT MET (no untraced runs of "
              f"{workload} on both sides)")
    return bad


def _ms_per_cell(runs: list[dict], name: str) -> float:
    return quartiles([r["metrics"][name] / r["metrics"]["trace.cells"] * 1e3
                      for r in runs])[1]


def layer_diff(parent: list[dict], change: list[dict], spec: dict) -> None:
    """Median self time per cell, per layer, on both sides."""
    layers = [m["name"] for m in spec["per_layer"]
              if m["name"].endswith(".self_s")]
    p_by, c_by = _by_workload(parent), _by_workload(change)
    for workload in sorted(set(p_by) & set(c_by)):
        print(f"\n{workload}: self time per cell (ms), median of "
              f"{len(p_by[workload])} parent / {len(c_by[workload])} "
              f"change traced runs")
        print(f"  {'layer':16s} {'parent':>10s} {'change':>10s} "
              f"{'delta':>10s}")
        for name in layers:
            p = _ms_per_cell(p_by[workload], name)
            c = _ms_per_cell(c_by[workload], name)
            if p or c:
                print(f"  {name[:-len('.self_s')]:16s} {p:10.3f} {c:10.3f}"
                      f" {c - p:+10.3f}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD")
    args = ap.parse_args(argv)
    spec = load_spec()
    e2e_names = {m["name"] for m in spec["end_to_end"]} | set(INFO_BOUNDS)
    workloads = {w["name"] for w in spec["workloads"]}
    claims = set()
    for text in args.claim:
        metric, _, workload = text.partition("@")
        if metric not in e2e_names or workload not in workloads:
            ap.error(f"--claim {text!r}: not an end-to-end metric@workload")
        claims.add((metric, workload))
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    bad = compare_e2e([r for r in parent if not r["trace"]],
                      [r for r in change if not r["trace"]], spec, claims)
    layer_diff([r for r in parent if r["trace"]],
               [r for r in change if r["trace"]], spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
