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

import pytest

from repro import obs
from repro.hdl import (CompileCache, CompiledSim, Simulator, UnsupportedDesign,
                       compile_program, elaborate, parse, run_testbench,
                       set_default_cache, get_default_cache)
from repro.hdl.compiled import XBail
from repro.hdl.testbench import _simulate

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
