"""Compiled-engine equivalence, selection, caching, and telemetry.

The compiled fast path (``repro.hdl.compiled``) must be *observationally
invisible*: same testbench results, same scheduler statistics, same
fallback behaviour for designs outside its subset.  These tests pin the
equivalence on hand-written designs, the engine selection in
``run_testbench``, the program-cache layer, and the per-engine telemetry — including the
regression where bench harnesses with private caches reported all-zero
``hdl.cache.*`` gauges.
"""

from __future__ import annotations

import builtins
import time

import pytest

from repro import obs
from repro.hdl import (CompileCache, CompiledSim, HdlError, Simulator,
                       StimulusRunner, UnsupportedDesign, compile_design,
                       compile_program, elaborate, exercise_module, parse,
                       run_testbench, set_default_cache, get_default_cache)
from repro.hdl import compiled, simulator, testbench
from repro.hdl.compiled import XBail
from repro.hdl.testbench import _simulate, _simulate_compiled
from repro.store import LruCache

COUNTER = """
module counter(input clk, input rst, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'h0;
    else q <= q + 8'h1;
  end
endmodule
module tb();
  reg clk;
  reg rst;
  wire [7:0] q;
  counter u0(.clk(clk), .rst(rst), .q(q));
  initial begin
    clk = 0;
    rst = 1;
    #2 rst = 0;
    repeat (20) begin
      #1 clk = ~clk;
    end
    $display("final q=%d qb=%b", q, q);
    if (q > 8'h0) $display("PASS: counter advanced to %d", q);
    else $display("FAIL: q=%d", q);
    $finish;
  end
endmodule
"""

XPROP = """
module xmix(input [3:0] a, output [7:0] y);
  reg [3:0] u;
  assign y = {u[1:0], a & 4'b0011, u[3:2]};
endmodule
module tb();
  reg [3:0] a;
  wire [7:0] y;
  xmix u0(.a(a), .y(y));
  initial begin
    a = 4'hf;
    #1;
    $display("y=%b yh=%h", y, y);
    if (y[3:2] == 2'b11) $display("PASS: defined bits survive");
    else $display("FAIL: y=%b", y);
    $finish;
  end
endmodule
"""

DYNAMIC_DELAY = """
module dyn(output reg q);
  reg [3:0] d = 2;
  initial q = 0;
  always begin
    #d q = ~q;
  end
endmodule
module tb();
  wire q;
  dyn u0(.q(q));
  initial begin
    #3;
    if (q == 1'b1) $display("PASS: toggled");
    else $display("FAIL: q=%b", q);
    $finish;
  end
endmodule
"""

X_INDEX_WRITE = """
module tb();
  reg [3:0] y;
  reg [1:0] i;
  initial begin
    y = 4'h0;
    y[i] = 1'b1;
    $display("unreachable");
    $finish;
  end
endmodule
"""


# Sim-heavy design: a 32-bit xorshift LFSR plus accumulator clocked for
# thousands of edges, so simulation (not the front end) dominates.  The clock
# pulses once while reset is high so the datapath comes out of X and both
# engines run fully defined values.
LFSR = """
module alu_step(input clk, input rst, output reg [31:0] acc,
                output reg [31:0] lfsr);
  reg [31:0] t;
  always @(posedge clk) begin
    if (rst) begin
      acc <= 32'h0;
      lfsr <= 32'hace1;
    end else begin
      t = lfsr ^ (lfsr << 13);
      t = t ^ (t >> 17);
      t = t ^ (t << 5);
      lfsr <= t;
      acc <= acc + (t & 32'hffff) - (acc >> 3) + ((t >> 16) * 32'd3);
    end
  end
endmodule
module tb();
  reg clk;
  reg rst;
  wire [31:0] acc;
  wire [31:0] lfsr;
  alu_step u0(.clk(clk), .rst(rst), .acc(acc), .lfsr(lfsr));
  initial begin
    clk = 0;
    rst = 1;
    #1 clk = 1;
    #1 clk = 0;
    rst = 0;
    repeat (4000) begin
      #1 clk = ~clk;
    end
    $display("acc=%h lfsr=%h", acc, lfsr);
    if (acc != 32'h0) $display("PASS: datapath settled at %h", acc);
    else $display("FAIL: acc=%h", acc);
    $finish;
  end
endmodule
"""


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    old = get_default_cache()
    set_default_cache(CompileCache())
    yield
    set_default_cache(old)


def _run_both(source: str, top: str = "tb", seed: int = 1,
              max_time: int = 10_000):
    design = elaborate(parse(source), top)
    ev = Simulator(design, seed=seed)
    ev.run(max_time=max_time)
    cs = CompiledSim(compile_program(design), seed=seed)
    cs.run(max_time=max_time)
    return ev, cs


class TestEquivalence:
    def test_clocked_counter_byte_identical(self):
        ev, cs = self._assert_identical(COUNTER)
        assert ev.finished

    def test_xprop_design_byte_identical(self):
        ev, cs = self._assert_identical(XPROP)
        assert "x" in "".join(ev.output)  # partial-X actually rendered

    def _assert_identical(self, source):
        ev, cs = _run_both(source)
        assert cs.output == ev.output
        assert cs.finished == ev.finished
        assert cs.error_count == ev.error_count
        assert cs.time == ev.time
        assert cs.stats() == ev.stats()
        return ev, cs

    def test_sim_heavy_lfsr_identical_and_faster(self):
        """The compiled engine's reason to exist: on a sim-heavy design it
        returns the event engine's result, over several seeds, in less
        time (about 16x less on a 2-vCPU host)."""
        design = compile_design(LFSR, "tb", cache=CompileCache()).design
        program = compile_program(design)
        seeds = (1, 2, 3)
        t0 = time.perf_counter()
        event = [_simulate(design, 200_000, seed) for seed in seeds]
        event_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = [_simulate_compiled(program, 200_000, seed) for seed in seeds]
        compiled_s = time.perf_counter() - t0
        assert fast == event
        assert all(r.passed for r in event)
        assert compiled_s < event_s

    def test_seed_flows_through(self):
        src = COUNTER.replace('qb=%b", q, q',
                              'qb=%b r=%d", q, q, $random % 16')
        ev, cs = _run_both(src, seed=7)
        assert cs.output == ev.output


class TestSelection:
    def test_dynamic_delay_is_ineligible(self):
        design = elaborate(parse(DYNAMIC_DELAY), "tb")
        with pytest.raises(UnsupportedDesign):
            compile_program(design)

    def test_x_index_write_bails(self):
        design = elaborate(parse(X_INDEX_WRITE), "tb")
        sim = CompiledSim(compile_program(design))
        with pytest.raises(XBail):
            sim.run(max_time=100)

    @pytest.mark.parametrize("source", [COUNTER, DYNAMIC_DELAY,
                                        X_INDEX_WRITE])
    def test_engine_knob_is_invisible(self, source):
        """Whichever engine ``run_testbench`` picks (compiled, ineligible
        fallback, or runtime bail), its result equals the event engine's."""
        r = run_testbench(source, "tb", max_time=10_000, seed=1,
                          cache=CompileCache())
        assert r == _simulate(elaborate(parse(source), "tb"), 10_000, 1)

    def test_x_index_write_reports_event_error(self):
        r = run_testbench(X_INDEX_WRITE, "tb", cache=CompileCache())
        assert "X index" in r.runtime_error


class TestProgramCache:
    def test_program_compiled_once_across_seeds(self):
        cache = CompileCache()
        run_testbench(COUNTER, "tb", seed=1, cache=cache)
        run_testbench(COUNTER, "tb", seed=2, cache=cache)
        stats = cache.stats_dict()
        assert stats["program"]["misses"] == 1
        assert stats["program"]["hits"] == 1

    def test_ineligible_design_analysed_once(self):
        cache = CompileCache()
        run_testbench(DYNAMIC_DELAY, "tb", seed=1, cache=cache)
        run_testbench(DYNAMIC_DELAY, "tb", seed=2, cache=cache)
        stats = cache.stats_dict()
        assert stats["program"]["misses"] == 1
        assert stats["program"]["hits"] == 1

    def test_program_survives_pickle_round_trip(self):
        import pickle
        design = elaborate(parse(COUNTER), "tb")
        program = pickle.loads(pickle.dumps(compile_program(design)))
        sim = CompiledSim(program, seed=1)
        sim.run(max_time=10_000)
        assert sim.finished


COUNTER_DUT = """
module cnt(input clk, input rst, input [1:0] step, output reg [5:0] q,
           output odd);
  always @(posedge clk) begin
    if (rst) q <= 6'd0;
    else q <= q + step;
  end
  assign odd = q[0];
endmodule
"""

ADD_FUNCTION = """
module fn(input [3:0] a, input [3:0] b, output [4:0] y);
  function [4:0] add;
    input [3:0] x;
    input [3:0] z;
    add = x + z;
  endfunction
  assign y = add(a, b);
endmodule
"""

LONG_LOOP = """
module lp(input en, input [7:0] a, output reg [7:0] y);
  reg [31:0] i;
  always @* begin
    y = a;
    for (i = 0; en && i < 32'd1000; i = i + 1) y = y + 8'd1;
  end
endmodule
"""

RUNAWAY = """
module ri(input en, output reg b, output a);
  assign a = en ? ~b : 1'b0;
  always @* b <= a;
endmodule
"""

EDGE_FINISH = """
module ef(input clk, input a, output reg q);
  always @(posedge clk) begin
    q <= a;
    if (a) $finish;
  end
endmodule
"""

COUNTER_VECTORS = [{"step": (3 * i) % 4} for i in range(12)]


def _event_signatures(monkeypatch, *args, **kwargs):
    """``exercise_module`` with every design forced onto the event driver."""
    with monkeypatch.context() as m:
        m.setattr(testbench, "_obtain_program",
                  lambda compiled, cache: ("ineligible", "forced"))
        return exercise_module(*args, **kwargs)


class TestStimulusDriver:
    def test_eligible_design_runs_on_compiled_driver(self, monkeypatch):
        runner = StimulusRunner(COUNTER_DUT, "cnt")
        assert isinstance(runner._driver, CompiledSim)
        args = (COUNTER_DUT, "cnt", COUNTER_VECTORS)
        assert exercise_module(*args, clk="clk", reset="rst") == \
            _event_signatures(monkeypatch, *args, clk="clk", reset="rst")

    def test_ineligible_design_runs_on_event_engine(self):
        runner = StimulusRunner(ADD_FUNCTION, "fn")
        assert isinstance(runner._driver, testbench._EventDriver)
        vectors = [{"a": a, "b": b} for a, b in ((0, 0), (15, 15), (7, 9))]
        assert exercise_module(ADD_FUNCTION, "fn", vectors) == [
            {"y": "5'h0"}, {"y": "5'h1e"}, {"y": "5'h10"}]

    def test_bail_after_vectors_replays_to_event_signatures(self,
                                                            monkeypatch):
        """A bail at the 20th settle (the 6th vector) rebuilds the runner
        on the event engine mid-run; the signatures are the event
        driver's, and the runner stays on the event engine."""
        settles = []
        real_settle = CompiledSim.settle

        def bail_on_twentieth(sim, max_iters):
            settles.append(max_iters)
            if len(settles) == 20:
                raise XBail("forced")
            real_settle(sim, max_iters)

        monkeypatch.setattr(CompiledSim, "settle", bail_on_twentieth)
        runner = StimulusRunner(COUNTER_DUT, "cnt")
        runner.poke("rst", 1)
        runner.clock_cycle()
        runner.poke("rst", 0)
        runner.settle()
        rows = [{k: str(v) for k, v in runner.apply(vec, clk="clk").items()}
                for vec in COUNTER_VECTORS]
        assert len(settles) == 20
        assert isinstance(runner._driver, testbench._EventDriver)
        monkeypatch.undo()
        assert rows == _event_signatures(monkeypatch, COUNTER_DUT, "cnt",
                                         COUNTER_VECTORS, clk="clk",
                                         reset="rst")

    def test_settle_overflow_returns_none(self):
        runner = StimulusRunner(RUNAWAY, "ri")
        runner.poke("en", 1)
        with pytest.raises(HdlError, match="did not settle"):
            runner.settle()
        assert isinstance(runner._driver, testbench._EventDriver)
        assert exercise_module(RUNAWAY, "ri", [{"en": 0}, {"en": 1}]) is None

    def test_step_overflow_returns_none(self, monkeypatch):
        # A lower ceiling on both engines keeps the runaway loop short.
        monkeypatch.setattr(compiled, "_MAX_STEPS", 500)
        monkeypatch.setattr(simulator, "_MAX_STEPS_PER_SLOT", 500)
        set_default_cache(CompileCache())
        runner = StimulusRunner(LONG_LOOP, "lp")
        assert isinstance(runner._driver, CompiledSim)
        runner.poke("en", 1)
        with pytest.raises(HdlError, match="runaway"):
            runner.settle()
        assert isinstance(runner._driver, testbench._EventDriver)
        vectors = [{"en": 0, "a": 3}, {"en": 1, "a": 1}]
        assert exercise_module(LONG_LOOP, "lp", vectors[:1]) == [
            {"y": "8'h3"}]
        assert exercise_module(LONG_LOOP, "lp", vectors) is None

    def test_edge_finish_ends_the_activation(self, monkeypatch):
        """``$finish`` in an edge process stops neither driver: the call
        returns what the same module without ``$finish`` returns."""
        vectors = [{"a": 0}, {"a": 1}, {"a": 0}]
        plain = exercise_module(EDGE_FINISH.replace("if (a) $finish;", ""),
                                "ef", vectors, clk="clk")
        assert plain == [{"q": "1'h0"}, {"q": "1'h1"}, {"q": "1'h0"}]
        runner = StimulusRunner(EDGE_FINISH, "ef")
        runner.apply({"a": 1}, clk="clk")
        assert isinstance(runner._driver, CompiledSim)
        assert exercise_module(EDGE_FINISH, "ef", vectors, clk="clk") == plain
        assert _event_signatures(monkeypatch, EDGE_FINISH, "ef", vectors,
                                 clk="clk") == plain

    def test_unknown_port_raises_key_error(self):
        runner = StimulusRunner(COUNTER_DUT, "cnt")
        with pytest.raises(KeyError):
            runner.poke("nope", 1)
        with pytest.raises(KeyError):
            runner.poke("q", 1)         # an output, not an input
        with pytest.raises(KeyError):
            runner.peek("nope")
        # A clock the design does not have: exercise_module reports a
        # broken candidate.
        assert exercise_module(ADD_FUNCTION, "fn", [{"a": 1, "b": 2}],
                               clk="clk") is None
        assert exercise_module(COUNTER_DUT, "cnt", COUNTER_VECTORS,
                               clk="clock") is None

    def test_value_of_uses_the_name_index(self):
        design = elaborate(parse(COUNTER_DUT), "cnt")
        program = compile_program(design)
        sim = CompiledSim(program)
        assert list(program.meta["index"]) == list(design.signals)
        assert str(sim.value_of("q")) == "6'bxxxxxx"
        with pytest.raises(KeyError):
            sim.value_of("nope")

    def test_identical_programs_compile_once(self, monkeypatch):
        """Two sources whose text differs but whose design is the same
        have distinct design keys and one generated program: ``compile``
        runs once, and each program still gets a namespace of its own."""
        calls = []

        def counting_compile(*args, **kwargs):
            calls.append(args[0])
            return builtins.compile(*args, **kwargs)

        monkeypatch.setattr(compiled, "_CODE", LruCache(8))
        monkeypatch.setattr(compiled, "compile", counting_compile,
                            raising=False)
        cache = CompileCache()
        first = compile_design(COUNTER_DUT, "cnt", cache=cache)
        second = compile_design("// same design\n" + COUNTER_DUT, "cnt",
                                cache=cache)
        assert first.key != second.key
        runs = [exercise_module(c, "cnt", COUNTER_VECTORS, clk="clk",
                                reset="rst", cache=cache)
                for c in (first, second)]
        assert runs[0] == runs[1]
        assert len(calls) == 1
        programs = [testbench._obtain_program(c, cache)[1]
                    for c in (first, second)]
        assert programs[0] is not programs[1]
        assert programs[0].source == programs[1].source
        ns = [p.load() for p in programs]
        assert ns[0] is not ns[1]
        assert ns[0]["COMB"][0] is not ns[1]["COMB"][0]
        assert ns[0]["COMB"][0].__code__ is ns[1]["COMB"][0].__code__


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _traced(self):
        self.sink = obs.InMemorySink()
        obs.install_tracer(obs.Tracer(self.sink, enabled=True))
        obs.reset_metrics()
        yield
        obs.reset_tracer()
        obs.reset_metrics()

    def test_traced_run_reports_nonzero_cache_gauges(self):
        # Regression: bench harnesses compile via *private* caches, which
        # left every hdl.cache.* gauge at 0.0 in the written snapshot.
        # The gauges count every instance in the process.
        before = obs.flush_metrics()["gauges"]["hdl.cache.parse.misses"]
        cache = CompileCache()   # private, like the bench harnesses
        run_testbench(COUNTER, "tb", seed=1, cache=cache)
        gauges = obs.flush_metrics()["gauges"]
        assert gauges["hdl.cache.parse.misses"] == before + 1

    def test_backend_counters_tagged(self):
        run_testbench(COUNTER, "tb", seed=1, cache=CompileCache())
        # Ineligible for the compiled engine: runs on the event engine.
        run_testbench(DYNAMIC_DELAY, "tb", seed=2, cache=CompileCache())
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["sim.backend.compiled.runs"] == 1
        assert counters["sim.backend.event.runs"] == 1
        assert counters["sim.runs"] == 2

    def test_sim_spans_carry_backend_attr(self):
        run_testbench(COUNTER, "tb", seed=1, cache=CompileCache())
        spans = [r for r in self.sink.records if r.get("type") == "span"
                 and r.get("name") == "hdl.sim"]
        assert spans and spans[-1]["attrs"]["backend"] == "compiled"

    def test_engine_table_renders_breakdown(self):
        from repro.obs import report
        run_testbench(COUNTER, "tb", seed=1, cache=CompileCache())
        run_testbench(DYNAMIC_DELAY, "tb", seed=1, cache=CompileCache())
        obs.flush_metrics()
        table = report.engine_table(self.sink.records)
        assert "compiled" in table and "event" in table
        assert "ineligible" in table
        assert table in report.render(self.sink.records)
