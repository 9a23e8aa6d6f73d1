"""Benchmark-side span recorder and per-layer self-time rollup.

The traced run wraps each layer's public entry points from the outside:
no span lives inside ``src/``.  A wrapped call records one span
``(name, start, end, parent, cell)`` into an in-memory list; spans are
written out when the run ends.  A span's *self time* is its duration minus
the time its direct child spans cover, so the self times of every span in
a cell add up to the cell's wall time exactly: layer self times plus the
cell's own (unattributed) self time account for all of it.

Functions are patched at every ``repro.*`` module binding, because most
call sites use ``from .x import f`` and hold their own reference.  Methods
are patched once, on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Layer -> public entry points, as ``module:qualname``.  Nested calls within
# one layer (``compile_design`` -> ``parse``) are spans too, so self time
# lands in the innermost call.
LAYERS: dict[str, tuple[str, ...]] = {
    "llm": ("repro.llm.model:SimulatedLLM.generate",
            "repro.llm.model:SimulatedLLM.refine",
            "repro.llm.model:SimulatedLLM.chat",
            "repro.llm.model:SimulatedLLM.apply_human_fix"),
    "hdl.compile": ("repro.hdl.parser:parse",
                    "repro.hdl.parser:parse_module",
                    "repro.hdl.elaborate:elaborate",
                    "repro.hdl.compile:compile_design"),
    "hdl.sim": ("repro.hdl.testbench:run_testbench",
                "repro.hdl.testbench:exercise_module",
                "repro.hdl.testbench:StimulusRunner.apply"),
    "synth": ("repro.synth.synthesize:synthesize_module",
              "repro.synth.flatten:flatten",
              "repro.synth.optimize:optimize",
              "repro.synth.techmap:map_to_cells",
              "repro.synth.ppa:estimate_ppa"),
    "synth.cec": ("repro.synth.cec:check_aigs",
                  "repro.synth.cec:check_against_simulation"),
    "hls": ("repro.hls.cparser:cparse",
            "repro.hls.interp:Machine.call",
            "repro.hls.rtlgen:generate_rtl",
            "repro.hls.cosim:c_rtl_cosim",
            "repro.hls.schedule:estimate_schedule"),
    "riscv": ("repro.riscv.compiler:compile_program",
              "repro.riscv.assembler:assemble",
              "repro.riscv.core:Core.run",
              "repro.riscv.power:estimate_power"),
    "slt": ("repro.slt.scot:SltSnippetGenerator.generate",
            "repro.slt.pool:CandidatePool.consider",
            "repro.slt.pool:CandidatePool.distance_to_pool"),
    "engine": ("repro.engine.kernel:LoopKernel.run",
               "repro.engine.kernel:RefinementEngine.run"),
    "exec": ("repro.exec.scheduler:SweepScheduler.map",
             "repro.exec.parallel:ParallelEvaluator.map"),
    "bench": ("repro.bench.harness:evaluate_candidate",),
    "core": ("repro.core.agent:EdaAgent.run",
             "repro.core.planner:PlannerAgent.run"),
    "tools": ("repro.tools.spec:ToolSpec.invoke",),
    "critic": ("repro.critic:Critic.review",
               "repro.critic:Critic.review_source"),
}

# The cell's own span: time inside a cell that no wrapped layer covers.
CELL_SPAN = "unattributed"


def _vectors(recorder: "Recorder", result: Any) -> None:
    recorder.add("synth.cec.vectors", result.vectors_checked)


def _instret(recorder: "Recorder", result: Any) -> None:
    recorder.add("riscv.instret", result.instret)


def _admitted(recorder: "Recorder", result: Any) -> None:
    recorder.add("slt.considered", 1)
    recorder.add("slt.admitted", int(bool(result)))


# Work counts read from return values, never from in-program counters.
OBSERVERS: dict[str, Callable[["Recorder", Any], None]] = {
    "repro.synth.cec:check_aigs": _vectors,
    "repro.synth.cec:check_against_simulation": _vectors,
    "repro.riscv.core:Core.run": _instret,
    "repro.slt.pool:CandidatePool.consider": _admitted,
}


class Recorder:
    """In-memory span list for one run; single-threaded (the benchmark
    runs every cell with ``jobs=1``).

    Spans are recorded only while a cell is open, so work the benchmark
    does between cells (input generation, result checks) stays out of
    every layer.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._cell: int | None = None

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: float, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, start, end, parent, self._cell)

    @contextmanager
    def cell(self, index: int) -> Iterator[None]:
        """The root span of one cell."""
        self._cell = index
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, CELL_SPAN, start, parent)
            self._cell = None

    def wrap(self, name: str, fn: Callable,
             observe: Callable[["Recorder", Any], None] | None = None
             ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder._cell is None:
                return fn(*args, **kwargs)
            sid, parent = recorder._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(sid, name, start, parent)
            if observe is not None:
                observe(recorder, result)
            return result

        return wrapper


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None
            and (name == "repro" or name.startswith("repro."))]


@contextmanager
def patched(recorder: Recorder,
            layers: dict[str, tuple[str, ...]] = LAYERS) -> Iterator[int]:
    """Wrap every entry point of ``layers``; yields the number of bindings
    patched and restores every one of them on exit."""
    functions: dict[int, tuple[Callable, Callable]] = {}  # wrapper, original
    methods: list[tuple[type, str, Callable]] = []
    bindings = 0
    for layer, targets in layers.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            name = f"{layer}:{qualname}"
            observe = OBSERVERS.get(target)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, recorder.wrap(name, original, observe))
                methods.append((cls, attr, original))
                bindings += 1
                continue
            original = getattr(module, qualname)
            wrapper = recorder.wrap(name, original, observe)
            functions[id(wrapper)] = (wrapper, original)
            for mod in _repro_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        bindings += 1
    try:
        yield bindings
    finally:
        for cls, attr, original in methods:
            setattr(cls, attr, original)
        # Rescan rather than replay: a module imported while patched bound
        # the wrapper too.
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                pair = functions.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])


def self_times(spans: list[tuple[str, float, float, int, int]]
               ) -> list[float]:
    """Each span's duration minus the duration of its direct children.

    Spans nest (one thread, one stack), so a span's children cover
    disjoint parts of it and their durations add.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def calibrate_overhead(samples: int = 20000) -> float:
    """Seconds one recorded span adds to a call (wrapper minus bare call)."""
    recorder = Recorder()

    def noop() -> None:
        return None

    wrapped = recorder.wrap("calibrate", noop)
    with recorder.cell(0):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - start
    return max(0.0, (traced - bare) / samples)


def rollup(spans: list[tuple[str, float, float, int, int]],
           counts: dict[str, float]) -> dict[str, float]:
    """Per-layer ``calls``/``self_s`` plus the rates the layers' return
    values give (``riscv.instr_per_s``, ``synth.cec.vectors_per_s``...)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    out[f"{CELL_SPAN}.self_s"] = 0.0
    core_s = cec_s = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        if name == CELL_SPAN:
            out[f"{CELL_SPAN}.self_s"] += own
            continue
        layer = name.split(":")[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += own
        if name == "riscv:Core.run":
            core_s += end - start
        elif layer == "synth.cec":
            cec_s += end - start
    instret = counts.get("riscv.instret", 0)
    out["riscv.instret"] = instret
    out["riscv.instr_per_s"] = instret / core_s if core_s else 0.0
    vectors = counts.get("synth.cec.vectors", 0)
    out["synth.cec.vectors"] = vectors
    out["synth.cec.vectors_per_s"] = vectors / cec_s if cec_s else 0.0
    considered = counts.get("slt.considered", 0)
    out["slt.admit_frac"] = (counts.get("slt.admitted", 0) / considered
                             if considered else 0.0)
    return out
