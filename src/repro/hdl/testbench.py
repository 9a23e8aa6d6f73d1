"""Testbench execution harness and direct stimulus driver.

Two ways to exercise a design:

* :func:`run_testbench` — compile DUT + testbench source together, simulate,
  and score by the PASS/FAIL lines the testbench prints (the contract used by
  the paper's feedback loops: the EDA tool output *is* the reward signal).
* :class:`StimulusRunner` — poke/peek ports directly from Python, used by the
  ranking flows (VRank/AutoChip) to compare candidate designs on identical
  input vectors without trusting any generated testbench.

Both run eligible designs on the compiled engine (:mod:`repro.hdl.compiled`)
and share its program cache.  Designs outside the compiled subset run on
the event :class:`~repro.hdl.simulator.Simulator`, and so does any run the
compiled engine bails out of: ``run_testbench`` re-runs it, and a
``StimulusRunner`` replays the pokes and settles applied so far.  Results
and errors are therefore always the event engine's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import get_metrics, get_tracer
from .compile import (CompileCache, CompiledDesign, compile_design,
                      get_default_cache, source_key)
from .compiled import (CompiledProgram, CompiledSim, UnsupportedDesign,
                       XBail, compile_program)
from .elaborate import Design
from .errors import HdlError
from .simulator import Frame, Simulator, _Finish
from .values import Logic


@dataclass(frozen=True)
class TestbenchResult:
    """Outcome of one compile+simulate run of a testbench.

    Frozen: the result memo hands the same instance to every caller.
    """

    compiled: bool
    pass_count: int = 0
    fail_count: int = 0
    error_count: int = 0
    finished: bool = False
    output: tuple[str, ...] = ()
    compile_error: str = ""
    runtime_error: str = ""
    sim_time: int = 0

    @property
    def total_checks(self) -> int:
        return self.pass_count + self.fail_count + self.error_count

    @property
    def score(self) -> float:
        """Fraction of checks passed; 0.0 when nothing ran or compile failed."""
        if not self.compiled or self.runtime_error:
            return 0.0
        total = self.total_checks
        if total == 0:
            # A testbench that finished but checked nothing gets no credit.
            return 0.0
        return self.pass_count / total

    @property
    def passed(self) -> bool:
        return (self.compiled and not self.runtime_error and self.finished
                and self.fail_count == 0 and self.error_count == 0
                and self.pass_count > 0)

    def feedback(self, max_lines: int = 12) -> str:
        """Tool feedback text in the shape an LLM repair loop consumes."""
        if not self.compiled:
            return f"COMPILE ERROR:\n{self.compile_error}"
        if self.runtime_error:
            return f"RUNTIME ERROR:\n{self.runtime_error}"
        lines = [ln for ln in self.output
                 if "FAIL" in ln or "ERROR" in ln or "PASS" in ln]
        header = (f"simulation finished at t={self.sim_time}: "
                  f"{self.pass_count} passed, "
                  f"{self.fail_count + self.error_count} failed")
        return "\n".join([header] + lines[:max_lines])


def _sim_result(sim: Simulator | CompiledSim,
                runtime_error: str = "") -> TestbenchResult:
    """Score a finished simulation by the PASS/FAIL lines it printed."""
    output = tuple(sim.output)
    passes = fails = 0
    for line in output:
        if line.startswith("ERROR:"):
            continue  # already counted via error_count
        if "FAIL" in line:
            fails += 1
        elif "PASS" in line:
            passes += 1
    return TestbenchResult(compiled=True, pass_count=passes,
                           fail_count=fails, error_count=sim.error_count,
                           finished=sim.finished, output=output,
                           runtime_error=runtime_error, sim_time=sim.time)


def _simulate(design: Design, max_time: int, seed: int) -> TestbenchResult:
    sim = Simulator(design, seed=seed)
    try:
        sim.run(max_time=max_time)
    except HdlError as exc:
        return _sim_result(sim, runtime_error=str(exc))
    return _sim_result(sim)


def _simulate_compiled(program: CompiledProgram, max_time: int,
                       seed: int) -> TestbenchResult:
    """Run the compiled engine.  Raises :class:`XBail` when the event
    engine must re-run the case (it reproduces the authoritative error)."""
    sim = CompiledSim(program, seed=seed)
    sim.run(max_time=max_time)
    return _sim_result(sim)


def _obtain_program(compiled: CompiledDesign, cache: CompileCache) -> tuple:
    """``("ok", program)`` or ``("ineligible", reason)`` for a design,
    served from the program cache when possible (negative results cache
    too, so an unsupported design is analysed once)."""
    entry = cache.get_program(compiled.key)
    if entry is not None:
        return entry
    with get_tracer().span("hdl.compile_program", top=compiled.top) as sp:
        try:
            entry = ("ok", compile_program(compiled.design))
        except UnsupportedDesign as exc:
            entry = ("ineligible", str(exc))
        sp.set(eligible=entry[0] == "ok")
    cache.put_program(compiled.key, entry)
    return entry


def _run_engine(compiled: CompiledDesign, max_time: int, seed: int,
                cache: CompileCache) -> TestbenchResult:
    """Simulate one run; results are engine-independent.

    Eligible designs run on the compiled fast path, its program amortized
    by the program cache.  Ineligible designs and runtime bails fall back
    to the event engine — the authoritative semantics.
    """
    tracer = get_tracer()
    entry = _obtain_program(compiled, cache)
    if entry[0] == "ok":
        try:
            with tracer.span("hdl.sim", backend="compiled", top=compiled.top):
                return _simulate_compiled(entry[1], max_time, seed)
        except XBail:
            if tracer.enabled:
                get_metrics().counter("sim.backend.fallbacks").add(1)
    elif tracer.enabled:
        get_metrics().counter("sim.backend.ineligible").add(1)
    with tracer.span("hdl.sim", backend="event", top=compiled.top):
        return _simulate(compiled.design, max_time, seed)


def run_testbench(source: str, top: str, max_time: int = 200_000,
                  seed: int = 1, tb_source: str | None = None,
                  cache: CompileCache | None = None) -> TestbenchResult:
    """Compile and run testbench module ``top``.

    ``source`` holds the DUT (plus testbench, in the legacy single-blob
    form); passing the testbench separately via ``tb_source`` lets the
    compile cache reuse the testbench parse across every candidate of a
    problem.  A run is a pure function of ``(sources, top, max_time, seed)``,
    so identical invocations are served from the result memo.
    """
    units = (source,) if tb_source is None else (source, tb_source)
    cache = cache or get_default_cache()
    rkey = ("tb", tuple(source_key(u) for u in units), top, max_time, seed)
    hit = cache.get_result(rkey)
    if hit is not None:
        return hit
    try:
        compiled = compile_design(units, top, cache=cache)
    except HdlError as exc:
        if tb_source is None:
            result = TestbenchResult(compiled=False, compile_error=str(exc))
        else:
            # Report the error the concatenated compile would have produced
            # (feedback text feeds seeded repair loops, so it must not drift
            # with the compilation strategy).  A malformed DUT can even
            # splice into the testbench text and "compile" — honour that.
            result = run_testbench("\n".join(units), top, max_time=max_time,
                                   seed=seed, cache=cache)
    else:
        result = _run_engine(compiled, max_time, seed, cache)
    cache.put_result(rkey, result)
    return result


class _EventDriver:
    """The event engine behind :class:`StimulusRunner`: the fallback for
    designs outside the compiled subset and for bails, and the authority
    on every error."""

    def __init__(self, design: Design, seed: int):
        self.sim = sim = Simulator(design, seed=seed)
        # Prime time-zero evaluation of combinational logic.
        for idx, proc in enumerate(design.processes):
            if proc.kind == "assign" or (proc.kind == "always" and not proc.edges
                                         and not sim._has_timing(proc.body)):
                sim._active.append(("comb", idx))

    def poke(self, port: str, value: int) -> None:
        sim = self.sim
        sim._set_signal(port, Logic.from_int(value, sim.values[port].width))

    def peek(self, port: str) -> Logic:
        return self.sim.values[port]

    def settle(self, max_iters: int) -> None:
        """Drain the active/NBA queues at the current time (delta cycles)."""
        sim = self.sim
        processes = sim.design.processes
        iters = 0
        sim._steps_this_slot = 0
        while sim._active or sim._nba:
            iters += 1
            if iters > max_iters:
                raise HdlError("design did not settle (combinational loop?)")
            while sim._active:
                item = sim._active.pop(0)
                tag = item[0]
                if tag == "comb":
                    sim._run_comb(item[1])
                elif tag == "edge":
                    proc = processes[item[1]]
                    try:
                        sim._exec_sync(proc.body, Frame(proc.scope))
                    except _Finish:
                        # As in a comb process: the activation ends and
                        # settling goes on.
                        pass
                # Coroutine activity ("start", "restart", "resume") is
                # ignored by the direct driver.
            sim._apply_nba()


class StimulusRunner:
    """Drives a single module's ports directly, without a Verilog testbench.

    Eligible designs run on the compiled engine's driver (the program is
    shared with :func:`run_testbench` through the program cache); the
    others run on the event engine.  If the compiled driver bails, the
    runner rebuilds itself on the event engine and replays every poke and
    settle applied so far, so values and errors are the event engine's
    and callers never see which engine ran.
    """

    def __init__(self, source: str | CompiledDesign, top: str, seed: int = 1,
                 cache: CompileCache | None = None):
        cache = cache or get_default_cache()
        compiled = source if isinstance(source, CompiledDesign) \
            else compile_design(source, top, cache=cache)
        self.design = compiled.design
        self.top = top
        self._seed = seed
        self._ports = {name: sig for name, sig in self.design.signals.items()
                       if sig.is_port}
        self._inputs = tuple(n for n, s in self._ports.items()
                             if s.direction == "input")
        self._outputs = tuple(n for n, s in self._ports.items()
                              if s.direction == "output")
        entry = _obtain_program(compiled, cache)
        self._driver: CompiledSim | _EventDriver
        # Pokes (port, value) and settles (None, max_iters) applied so far;
        # kept only while a bail can still happen.
        self._applied: list[tuple] | None = None
        if entry[0] == "ok":
            self._driver = CompiledSim(entry[1], seed=seed)
            self._driver.prime()
            self._applied = []
        else:
            if get_tracer().enabled:
                get_metrics().counter("sim.backend.ineligible").add(1)
            self._driver = _EventDriver(self.design, seed)
        self.settle()

    @property
    def inputs(self) -> tuple[str, ...]:
        return self._inputs

    @property
    def outputs(self) -> tuple[str, ...]:
        return self._outputs

    def width_of(self, port: str) -> int:
        return self._ports[port].width

    def poke(self, port: str, value: int) -> None:
        sig = self._ports.get(port)
        if sig is None or sig.direction != "input":
            raise KeyError(f"'{port}' is not an input port of '{self.top}'")
        if self._applied is not None:
            self._applied.append((port, value))
        self._driver.poke(port, value)

    def peek(self, port: str) -> Logic:
        if port not in self._ports:
            raise KeyError(f"'{port}' is not a port of '{self.top}'")
        return self._driver.peek(port)

    def settle(self, max_iters: int = 100_000) -> None:
        """Drain the active/NBA queues at the current time (delta cycles)."""
        if self._applied is None:
            self._driver.settle(max_iters)
            return
        self._applied.append((None, max_iters))
        try:
            self._driver.settle(max_iters)
        except XBail:
            self._replay_on_event_engine()

    def _replay_on_event_engine(self) -> None:
        """Rebuild on the event engine and replay everything applied so far;
        the last settle then yields the event engine's values or error."""
        if get_tracer().enabled:
            get_metrics().counter("sim.backend.fallbacks").add(1)
        applied, self._applied = self._applied, None
        self._driver = driver = _EventDriver(self.design, self._seed)
        for port, arg in applied:
            if port is None:
                driver.settle(arg)
            else:
                driver.poke(port, arg)

    def clock_cycle(self, clk: str = "clk") -> None:
        """Apply one rising edge (and return the clock to zero)."""
        self.poke(clk, 0)
        self.settle()
        self.poke(clk, 1)
        self.settle()
        self.poke(clk, 0)
        self.settle()

    def apply(self, vector: dict[str, int], clk: str | None = None) -> dict[str, Logic]:
        """Drive one input vector; pulse ``clk`` if given; return all outputs."""
        for port, value in vector.items():
            self.poke(port, value)
        if clk is not None:
            self.clock_cycle(clk)
        else:
            self.settle()
        return {name: self.peek(name) for name in self._outputs}


def exercise_module(source: str | CompiledDesign, top: str,
                    vectors: list[dict[str, int]],
                    clk: str | None = None,
                    reset: str | None = None,
                    cache: CompileCache | None = None) -> list[dict[str, str]] | None:
    """Run input vectors through a module; returns output signatures.

    Returns ``None`` when the design fails to compile or simulate — callers
    use that as "candidate is broken".  Output values are stringified so X
    states are preserved in the signature (important for consistency
    clustering in VRank).
    """
    try:
        runner = StimulusRunner(source, top, cache=cache)
        if reset is not None and reset in runner.inputs:
            runner.poke(reset, 1)
            if clk is not None:
                runner.clock_cycle(clk)
            runner.poke(reset, 0)
            runner.settle()
        signatures: list[dict[str, str]] = []
        for vec in vectors:
            usable = {k: v for k, v in vec.items() if k in runner.inputs}
            outs = runner.apply(usable, clk=clk)
            signatures.append({name: str(val) for name, val in outs.items()})
        return signatures
    except (HdlError, KeyError):
        return None
