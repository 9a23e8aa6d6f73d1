"""A/B check of whether the program can move the host-speed probe.

Usage, from the repository root::

    python3 benchmarks/e2e/probe_ab.py [--pairs N]

The probe (``pace.py``) runs inside the measured process, so a program
that thrashes the caches or grows and fragments the heap could slow the
reference loop too, and the scaling would then divide part of a real
regression out.  Two paired checks, each alternating A and B so that the
host's drift cancels, report the ratio of the median probe time under B
to that under A (1.0 means the probe did not move):

* ``walk``: one process holds a ~170 MB heap of small objects and
  alternates 1 s of light work (A) with 1 s of the same work plus random
  reads all over that heap (B).
* ``heap``: child processes alternate, one with a small heap (A) and one
  with the same ~170 MB fragmented heap (B), each doing the light work
  under the sampler for 3 s after the same 4 s of busy warm-up.

Takes about ``pairs * 17`` seconds and about 180 MB.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time

import pace

HEAP_OBJECTS = 400_000
WARM_UP_S = 4.0
SAMPLED_S = 3.0


def _light() -> int:
    table = {}
    for i in range(20_000):
        table[str(i)] = [i, i * 2]
    return len(table)


def _heap(n: int) -> list:
    """``n`` small objects, every other one freed again: a heap with holes."""
    keep = []
    for i in range(2 * n):
        obj = [i, str(i), {i: i}]
        if i % 2 == 0:
            keep.append(obj)
    return keep


def _probe_median(probes: list[tuple[float, float]], start: float,
                  end: float) -> float:
    return statistics.median(s for t, s in probes if start <= t <= end)


def walk(pairs: int) -> list[float]:
    heap = _heap(HEAP_OBJECTS)
    rng = random.Random(0)
    phases = []
    with pace.Sampler(4 * pairs + 10) as sampler:
        for phase in range(2 * pairs):
            start = time.perf_counter()
            while time.perf_counter() - start < 1.0:
                _light()
                if phase % 2:
                    for _ in range(20_000):
                        heap[rng.randrange(len(heap))][0]
            phases.append((start, time.perf_counter()))
    medians = [_probe_median(sampler.probes, a, b) for a, b in phases]
    return [medians[i + 1] / medians[i] for i in range(0, len(medians), 2)]


def _child(objects: int) -> float:
    start = time.perf_counter()
    heap = _heap(objects)  # noqa: F841 -- held while the probes run
    while time.perf_counter() - start < WARM_UP_S:
        _light()
    with pace.Sampler(SAMPLED_S + 5) as sampler:
        begin = time.perf_counter()
        while time.perf_counter() - begin < SAMPLED_S:
            _light()
    return statistics.median(s for _, s in sampler.probes)


def heap(pairs: int) -> list[float]:
    def run(objects: int) -> float:
        out = subprocess.run([sys.executable, __file__, "--child",
                              str(objects)], capture_output=True, text=True,
                             check=True, timeout=120)
        return json.loads(out.stdout)

    ratios = []
    for i in range(pairs):
        order = (0, HEAP_OBJECTS) if i % 2 == 0 else (HEAP_OBJECTS, 0)
        probe = {objects: run(objects) for objects in order}
        ratios.append(probe[HEAP_OBJECTS] / probe[0])
    return ratios


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--pairs", type=int, default=30)
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        print(json.dumps(_child(args.child)))
        return 0
    for name, check in (("walk", walk), ("heap", heap)):
        ratios = check(args.pairs)
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        print(f"{name}: {len(ratios)} pairs, probe time B/A median "
              f"{med:.3f} (quartiles {q1:.3f}-{q3:.3f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
