"""Tests for elaboration and lint."""

import pytest

from repro.hdl import ElaborationError, elaborate, lint_module, parse, parse_module
from repro.hdl.elaborate import eval_const
from repro.hdl import ast as A


class TestConstEval:
    def test_arithmetic(self):
        expr = parse_module(
            "module m; parameter P = (3 + 4) * 2; endmodule").parameters[0]
        assert eval_const(expr.default, {}) == 14

    def test_parameter_reference(self):
        m = parse_module("module m; parameter A = 4; parameter B = A + 1; endmodule")
        env = {}
        for p in m.parameters:
            env[p.name] = eval_const(p.default, env)
        assert env["B"] == 5

    def test_ternary(self):
        assert eval_const(A.Ternary(A.Number(32, 1), A.Number(32, 7),
                                    A.Number(32, 9)), {}) == 7

    def test_unknown_identifier_raises(self):
        with pytest.raises(ElaborationError):
            eval_const(A.Identifier("nope"), {})

    def test_x_literal_rejected(self):
        with pytest.raises(ElaborationError):
            eval_const(A.Number(4, 0, 0b1), {})


class TestElaboration:
    def test_signals_created_with_widths(self):
        design = elaborate(parse(
            "module m(input [7:0] a, output [3:0] y); assign y = a[3:0]; "
            "endmodule"), "m")
        assert design.signals["a"].width == 8
        assert design.signals["y"].width == 4

    def test_parameter_override_changes_width(self):
        design = elaborate(parse("""
module sub #(parameter W = 2)(input [W-1:0] a, output [W-1:0] y);
  assign y = a;
endmodule
module top(input [7:0] a, output [7:0] y);
  sub #(.W(8)) u(.a(a), .y(y));
endmodule"""), "top")
        assert design.signals["u.a"].width == 8

    def test_unknown_parameter_override(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("""
module sub(input a); endmodule
module top(input a); sub #(.NOPE(1)) u(.a(a)); endmodule"""), "top")

    def test_unknown_module_instance(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("module top; ghost u(); endmodule"), "top")

    def test_missing_top(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("module m; endmodule"), "other")

    def test_port_without_direction(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("module m(a); wire a; endmodule"), "m")

    def test_inout_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("module m(inout a); endmodule"), "m")

    def test_nonzero_lsb_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("module m(input [7:4] a); endmodule"), "m")

    def test_top_ports_marked(self):
        design = elaborate(parse(
            "module m(input a, output y); assign y = a; endmodule"), "m")
        assert design.signals["a"].is_port
        assert design.signals["a"].direction == "input"


class TestLint:
    def _warnings(self, src):
        return [w.code for w in lint_module(parse_module(src))]

    def test_clean_module(self):
        codes = self._warnings(
            "module m(input a, output y); assign y = ~a; endmodule")
        assert codes == []

    def test_undeclared_identifier(self):
        codes = self._warnings(
            "module m(output y); assign y = ghost; endmodule")
        assert "LINT-UNDECL" in codes

    def test_multiple_drivers(self):
        codes = self._warnings("""
module m(input a, input b, output y);
  assign y = a;
  assign y = b;
endmodule""")
        assert "LINT-MULTIDRIVE" in codes

    def test_blocking_in_clocked(self):
        codes = self._warnings("""
module m(input clk, input d, output reg q);
  always @(posedge clk) q = d;
endmodule""")
        assert "LINT-BLOCKSEQ" in codes

    def test_blocking_under_delay_in_clocked(self):
        codes = self._warnings("""
module m(input clk, input d, output reg q);
  always @(posedge clk) #1 q = d;
endmodule""")
        assert "LINT-BLOCKSEQ" in codes

    def test_for_header_is_not_a_blocking_assignment(self):
        codes = self._warnings("""
module m(input clk, input [3:0] d, output reg [3:0] q);
  integer i;
  always @(posedge clk)
    for (i = 0; i < 4; i = i + 1) q[i] <= d[i];
endmodule""")
        assert "LINT-BLOCKSEQ" not in codes

    def test_nonblocking_in_comb(self):
        codes = self._warnings("""
module m(input d, output reg q);
  always @(*) q <= d;
endmodule""")
        assert "LINT-NBACOMB" in codes

    def test_latch_inference(self):
        codes = self._warnings("""
module m(input s, input d, output reg q);
  always @(*) begin
    if (s) q = d;
  end
endmodule""")
        assert "LINT-LATCH" in codes

    def test_case_without_default_latches(self):
        codes = self._warnings("""
module m(input [1:0] s, output reg q);
  always @(*) begin
    case (s)
      2'd0: q = 1;
      2'd1: q = 0;
    endcase
  end
endmodule""")
        assert "LINT-LATCH" in codes

    def test_full_if_else_no_latch(self):
        codes = self._warnings("""
module m(input s, input d, output reg q);
  always @(*) begin
    if (s) q = d;
    else q = ~d;
  end
endmodule""")
        assert "LINT-LATCH" not in codes

    def test_clock_generator_not_latch(self):
        codes = self._warnings("""
module tb;
  reg clk;
  initial clk = 0;
  always #5 clk = ~clk;
endmodule""")
        assert "LINT-LATCH" not in codes

    def test_unused_net(self):
        codes = self._warnings(
            "module m(input a, output y); wire dead; assign y = a; endmodule")
        assert "LINT-UNUSED" in codes

    def test_unread_input(self):
        codes = self._warnings(
            "module m(input a, input b, output y); assign y = a; endmodule")
        assert "LINT-UNUSEDIN" in codes

    def test_undriven_output(self):
        codes = self._warnings("module m(input a, output y); endmodule")
        assert "LINT-UNDRIVEN" in codes

    def test_width_mismatch(self):
        codes = self._warnings("""
module m(input [3:0] a, output [7:0] y);
  assign y = a;
endmodule""")
        assert "LINT-WIDTH" in codes
